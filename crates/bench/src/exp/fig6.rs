//! FIG6 — §6 / Fig. 6 / Theorem 2: the paper's Example 1 primitive forall
//! (boundary-aware smoothing), fully pipelined.
//!
//! Also reports the boundary/interior merge structure: the boundary arm's
//! elements (i = 0 and i = m+1) and the interior stencil are reassembled
//! in index order by a MERGE under a static control stream — exactly the
//! construction of Fig. 6.

use crate::workloads::fig6_src;
use crate::{FaultArgs, Measurement, Report};
use valpipe_core::{compile_source, CompileOptions};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "FIG6: primitive forall (the paper's Example 1)",
        Some("Fig. 6 + Theorem 2 (§6)"),
    );
    let mut rows: Vec<Measurement> = Vec::new();
    for m in [8usize, 32, 128, 512] {
        rows.extend(rep.measure(
            args,
            &format!("example1 m={m}"),
            &fig6_src(m),
            &CompileOptions::default(),
            "A",
            20,
        ));
    }
    rep.table(&rows);

    let compiled = compile_source(&fig6_src(8), &CompileOptions::default()).unwrap();
    println!(
        "\ncompiled cell mix (m=8): {}",
        valpipe_ir::pretty::summary(&compiled.graph)
    );
    println!("\nmachine-code listing (m=8):");
    print!("{}", valpipe_ir::pretty::listing(&compiled.graph));

    if rep.skip_claims(args) {
        return rep;
    }
    rep.claim(
        "Example 1 runs fully pipelined at rate 1/2 for every size",
        rows.iter().all(|r| (r.interval - 2.0).abs() < 0.1),
    );
    rep.claim(
        "every packet matches the interpreter exactly",
        rows.iter().all(|r| r.max_rel_err == 0.0),
    );
    rep
}
