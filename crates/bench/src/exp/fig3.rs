//! FIG3 — §4 / §8 / Theorem 4: the complete pipe-structured program
//! (Example 1 feeding Example 2) compiled as one fully pipelined machine
//! program.

use crate::workloads::fig3_src;
use crate::{FaultArgs, Measurement, Report};
use valpipe_core::{compile_source, CompileOptions, ForIterScheme};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "FIG3: whole pipe-structured program",
        Some("Fig. 3 + Theorem 4 (§4, §8)"),
    );
    let mut rows: Vec<Measurement> = Vec::new();
    for m in [16usize, 64, 256] {
        rows.extend(rep.measure(
            args,
            &format!("fig3 A m={m}"),
            &fig3_src(m),
            &CompileOptions::default(),
            "A",
            24,
        ));
        rows.extend(rep.measure(
            args,
            &format!("fig3 X m={m}"),
            &fig3_src(m),
            &CompileOptions::default(),
            "X",
            24,
        ));
    }
    // Ablation: force Todd to show the loop throttling the whole pipe.
    let mut todd = CompileOptions::default();
    todd.scheme = ForIterScheme::Todd;
    rows.extend(rep.measure(args, "fig3 A m=64 (todd)", &fig3_src(64), &todd, "A", 24));
    rep.table(&rows);

    let compiled = compile_source(&fig3_src(64), &CompileOptions::default()).unwrap();
    println!();
    rep.observe(
        "flow dependency edges",
        format!("{:?}", compiled.flow.edges),
    );
    rep.observe("global balancing buffers", compiled.stats.global_buffers);

    if rep.skip_claims(args) {
        return rep;
    }
    let a_ok = rows
        .iter()
        .filter(|r| r.label.contains("A m=") && !r.label.contains("todd"))
        .all(|r| (r.interval - 2.0).abs() < 0.1);
    rep.claim("whole program fully pipelined (Theorem 4)", a_ok);
    rep.claim(
        "an unpipelined recurrence throttles the entire program (back-pressure)",
        rows.last().unwrap().interval > 3.0,
    );
    rep
}
