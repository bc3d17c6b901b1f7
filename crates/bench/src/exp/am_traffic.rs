//! AMTRAF — §2: "In the case of application codes we have analyzed, one
//! eighth or less of the operation packets would be sent to the array
//! memories."
//!
//! Arrays are streamed between blocks as result packets; only the
//! long-lived state crossing time-step boundaries touches the array
//! memories. Measured on the application-shaped physics step at several
//! sizes.

use crate::workloads::{fig3_src, physics_src};
use crate::{FaultArgs, Measurement, Report};
use valpipe_core::CompileOptions;

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "AMTRAF: operation-packet traffic to the array memories",
        Some("§2 (\"one eighth or less of the operation packets\")"),
    );
    let mut opts = CompileOptions::default();
    opts.am_boundary = true;
    let mut rows: Vec<Measurement> = Vec::new();
    for m in [16usize, 64, 256] {
        rows.extend(rep.measure(
            args,
            &format!("physics V m={m}"),
            &physics_src(m),
            &opts,
            "V",
            20,
        ));
    }
    {
        let m = 64usize;
        rows.extend(rep.measure(args, &format!("fig3 A m={m}"), &fig3_src(m), &opts, "A", 20));
    }
    rep.table(&rows);
    println!();
    for row in &rows {
        rep.observe(
            &format!("{}: packets to AM", row.label),
            format!("{:.2}% of {}", row.am_fraction * 100.0, row.total_fires),
        );
    }
    if rep.skip_claims(args) {
        return rep;
    }
    rep.claim(
        "≤ 1/8 of operation packets go to the array memories",
        rows.iter().all(|row| row.am_fraction <= 0.125),
    );
    rep
}
