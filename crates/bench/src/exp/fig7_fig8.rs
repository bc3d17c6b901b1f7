//! FIG7 / FIG8 — §7 / Theorem 3: Todd's scheme vs the companion-pipeline
//! scheme on the paper's Example 2 recurrence.
//!
//! Claims reproduced:
//! * Todd's scheme is limited to `1 / cycle-length` (the paper measures
//!   1/3 on a 3-stage loop; this implementation's loop has 4 cells because
//!   the output switch is a separate gated identity, so the bound is 1/4);
//! * the companion scheme restores the maximum rate 1/2 (Theorem 3);
//! * the even-cycle requirement: the companion loop has 4 (even) cells
//!   holding 2 values;
//! * both schemes compute the same array (within float reassociation).

use crate::workloads::example2_src;
use crate::{FaultArgs, Measurement, Report};
use valpipe_core::{CompileOptions, ForIterScheme};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "FIG7 vs FIG8: for-iter recurrence schemes",
        Some("Figs. 7–8, Theorem 3 (§7)"),
    );
    let mut rows: Vec<Measurement> = Vec::new();
    for m in [8usize, 32, 128] {
        for (name, scheme) in [
            ("todd", ForIterScheme::Todd),
            ("companion", ForIterScheme::Companion),
        ] {
            let mut opts = CompileOptions::paper();
            opts.scheme = scheme;
            rows.extend(rep.measure(
                args,
                &format!("{name} m={m}"),
                &example2_src(m),
                &opts,
                "X",
                30,
            ));
        }
    }
    rep.table(&rows);
    if rep.skip_claims(args) {
        return rep;
    }

    // Per-size speedups.
    println!();
    for k in (0..rows.len()).step_by(2) {
        let speed = rows[k].interval / rows[k + 1].interval;
        rep.observe(
            &format!("companion speedup over Todd ({})", rows[k].label),
            format!("{speed:.2}×"),
        );
    }

    let todd_bounded = rows
        .iter()
        .step_by(2)
        .all(|r| (r.interval - 4.0).abs() < 0.35);
    let comp_max = rows
        .iter()
        .skip(1)
        .step_by(2)
        .zip([8.0f64, 32.0, 128.0])
        .all(|(r, m)| (r.interval - 2.0 * (m + 2.0) / m).abs() < 0.25);
    rep.claim(
        "Todd's scheme limited to 1/cycle-length (1/4 here; paper: 1/3 with gated destinations)",
        todd_bounded,
    );
    rep.claim(
        "companion scheme reaches the maximum rate (Theorem 3)",
        comp_max,
    );
    rep.claim(
        "schemes agree with the interpreter (reassociation-tolerant)",
        rows.iter().all(|r| r.max_rel_err < 1e-8),
    );
    rep
}
