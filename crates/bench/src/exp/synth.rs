//! SYNTH — Todd \[15\]: control sequences "generated by straightforward
//! arrangements of data flow instructions".
//!
//! Lowers every primitive control/index generator into circuits of
//! ordinary cells — modulo counters built with the same
//! companion-function trick as Theorem 3 (distance-2 counter recurrence,
//! 4-cell loop, two tokens) plus comparison trees — and shows the fully
//! synthesized programs still run at the maximum rate.

use crate::workloads::{fig3_src, fig6_src};
use crate::{FaultArgs, Measurement, Report};
use valpipe_core::{compile_source, CompileOptions};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "SYNTH: control generators as ordinary instruction cells",
        Some("§5/§6 control sequences via Todd's construction [15]"),
    );
    let mut rows: Vec<Measurement> = Vec::new();
    for (name, src) in [("fig6 m=32", fig6_src(32)), ("fig3 m=32", fig3_src(32))] {
        rows.extend(rep.measure(
            args,
            &format!("{name} primitive"),
            &src,
            &CompileOptions::default(),
            "A",
            20,
        ));
        let mut opts = CompileOptions::default();
        opts.synthesize_generators = true;
        rows.extend(rep.measure(args, &format!("{name} synthesized"), &src, &opts, "A", 20));
    }
    rep.table(&rows);

    let mut opts = CompileOptions::default();
    opts.synthesize_generators = true;
    let compiled = compile_source(&fig6_src(32), &opts).unwrap();
    println!();
    rep.observe(
        "generators lowered (fig6)",
        compiled.stats.synthesized_generators,
    );
    rep.observe(
        "final cell mix",
        valpipe_ir::pretty::summary(&compiled.graph),
    );
    let no_primitives = compiled.graph.nodes.iter().all(|n| {
        !matches!(
            n.op,
            valpipe_ir::Opcode::CtlGen(_) | valpipe_ir::Opcode::IdxGen { .. }
        )
    });
    if rep.skip_claims(args) {
        return rep;
    }
    rep.claim("no primitive generator cells remain", no_primitives);
    rep.claim(
        "synthesized programs keep the maximum rate",
        rows.iter().all(|r| (r.interval - 2.0).abs() < 0.1),
    );
    rep
}
