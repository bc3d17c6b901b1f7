//! FIG5 — §5 / Fig. 5: fully pipelined if-then-else with data-dependent
//! conditions.
//!
//! Claims reproduced:
//! * the gate/MERGE mapping keeps the conditional fully pipelined;
//! * the merge-control path receives its FIFO automatically (the paper:
//!   "the path over which control values flow to the merge instruction
//!   cell must include a FIFO of correct length");
//! * output order is exactly index order regardless of which arm computes
//!   each element.

use crate::workloads::fig5_src;
use crate::{FaultArgs, Measurement, Report};
use valpipe_core::{compile_source, CompileOptions};
use valpipe_ir::Opcode;

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "FIG5: pipelined conditional (dynamic gating + MERGE)",
        Some("Fig. 5 + Theorem 1 (§5)"),
    );
    let mut rows: Vec<Measurement> = Vec::new();
    for m in [15usize, 63, 255] {
        rows.extend(rep.measure(
            args,
            &format!("fig5 m={m}"),
            &fig5_src(m),
            &CompileOptions::default(),
            "Y",
            24,
        ));
    }
    rep.table(&rows);

    let compiled = compile_source(&fig5_src(15), &CompileOptions::default()).unwrap();
    let hist = compiled.graph.opcode_histogram();
    println!(
        "\ncompiled cell mix (m=15): {}",
        valpipe_ir::pretty::summary(&compiled.graph)
    );
    rep.observe(
        "TGATE cells (then-arm steering)",
        hist.get("TGATE").copied().unwrap_or(0),
    );
    rep.observe(
        "FGATE cells (else-arm steering)",
        hist.get("FGATE").copied().unwrap_or(0),
    );
    rep.observe("MERG cells", hist.get("MERG").copied().unwrap_or(0));
    // The merge-control FIFO: a buffer on some arc into the MERGE cell.
    let merge_has_fifo_upstream = compiled.graph.node_ids().any(|n| {
        matches!(compiled.graph.nodes[n.idx()].op, Opcode::Merge)
            && compiled.graph.in_arcs(n).any(|a| {
                matches!(
                    compiled.graph.nodes[compiled.graph.arcs[a.idx()].src.idx()].op,
                    Opcode::Fifo(_)
                )
            })
    });
    if rep.skip_claims(args) {
        return rep;
    }
    rep.claim(
        "conditional runs fully pipelined at rate 1/2",
        rows.iter().all(|r| (r.interval - 2.0).abs() < 0.1),
    );
    rep.claim(
        "merge control path carries a balancing FIFO",
        merge_has_fifo_upstream,
    );
    rep
}
