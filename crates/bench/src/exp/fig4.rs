//! FIG4 — §5 / Fig. 4: pipelined mapping of array selection operations.
//!
//! Claims reproduced:
//! * the window-gated stencil `0.25·(C[i-1] + 2·C[i] + C[i+1])` runs fully
//!   pipelined once skew FIFOs balance the taps;
//! * the compiler inserts the FIFO(2)-shaped skew buffers of Fig. 4;
//! * ablation: disabling balancing costs throughput but not correctness.

use crate::workloads::fig4_src;
use crate::{FaultArgs, Measurement, Report};
use valpipe_balance::BalanceMode;
use valpipe_core::{compile_source, CompileOptions};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "FIG4: array selection with window gates and skew FIFOs",
        Some("Fig. 4 + Theorem 1 (§5)"),
    );
    let mut rows: Vec<Measurement> = Vec::new();
    for m in [8usize, 64, 512] {
        rows.extend(rep.measure(
            args,
            &format!("balanced m={m}"),
            &fig4_src(m),
            &CompileOptions::paper(),
            "S",
            24,
        ));
    }
    let mut ablate = CompileOptions::paper();
    ablate.balance = BalanceMode::None;
    {
        let m = 64usize;
        rows.extend(rep.measure(
            args,
            &format!("UNBALANCED m={m}"),
            &fig4_src(m),
            &ablate,
            "S",
            24,
        ));
    }
    rep.table(&rows);

    // Show the generated code carries the paper's skew FIFOs.
    let compiled = compile_source(&fig4_src(8), &CompileOptions::paper()).unwrap();
    println!(
        "\ncompiled cell mix (m=8): {}",
        valpipe_ir::pretty::summary(&compiled.graph)
    );

    if rep.skip_claims(args) {
        return rep;
    }
    let expected = |m: f64| 2.0 * (m + 2.0) / m; // m outputs per m+2 inputs
    let ok = rows[..3]
        .iter()
        .zip([8.0f64, 64.0, 512.0])
        .all(|(r, m)| (r.interval - expected(m)).abs() < 0.15);
    rep.claim("window-gated stencil is fully pipelined", ok);
    rep.claim(
        "removing skew buffers degrades throughput (jam ablation)",
        rows[3].interval > rows[1].interval + 0.3,
    );
    rep.claim(
        "unbalanced pipeline still computes correct values",
        rows[3].max_rel_err < 1e-8,
    );
    rep
}
