//! FIG2 — §3 / Fig. 2: pipelined execution of `(y+2)*(y-3)`, `y = a*b`.
//!
//! Claims reproduced:
//! * a balanced expression pipeline runs at the maximum rate (one result
//!   per two instruction times);
//! * "the computation rate of a pipeline is not dependent on the number
//!   of stages" — deeper expressions keep the same rate.

use crate::workloads::fig2_src;
use crate::{FaultArgs, Measurement, Report};
use valpipe_core::CompileOptions;

fn deep_src(m: usize, depth: usize) -> String {
    // ((…((a·b)+1)+1…)+1): `depth` extra stages.
    let mut e = "A[i] * B[i]".to_string();
    for _ in 0..depth {
        e = format!("({e} + 1.)");
    }
    format!(
        "param m = {m};
input A : array[real] [0, m];
input B : array[real] [0, m];
Y : array[real] := forall i in [0, m] construct {e} endall;
output Y;"
    )
}

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "FIG2: pipelined expression execution",
        Some("Fig. 2 + §3 (maximum rate 1/2; rate independent of stage count)"),
    );
    let opts = CompileOptions::paper();
    let mut rows: Vec<Measurement> = Vec::new();
    for m in [16usize, 64, 256] {
        rows.extend(rep.measure(args, &format!("fig2 m={m}"), &fig2_src(m), &opts, "Y", 30));
    }
    for depth in [1usize, 8, 32, 96] {
        rows.extend(rep.measure(
            args,
            &format!("depth={depth} m=64"),
            &deep_src(64, depth),
            &opts,
            "Y",
            30,
        ));
    }
    rep.table(&rows);
    if rep.skip_claims(args) {
        return rep;
    }
    let all_max_rate = rows.iter().all(|r| (r.interval - 2.0).abs() < 0.1);
    rep.claim(
        "balanced expression pipelines run at rate 1/2",
        all_max_rate,
    );
    let (lo, hi) = rows[3..].iter().fold((f64::MAX, f64::MIN), |(lo, hi), r| {
        (lo.min(r.interval), hi.max(r.interval))
    });
    rep.claim(
        "rate independent of the number of stages (§3)",
        hi - lo < 0.05,
    );
    rep
}
