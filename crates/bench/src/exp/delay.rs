//! DELAY — §9: trading delay for rate on a cyclic dependence.
//!
//! > "a recurrence having a cyclic dependence of four operators may be
//! > implemented at the maximum rate by introducing a delay (via a FIFO
//! > buffer) of length equal to the number of elements in the array being
//! > generated."
//!
//! A time-stepping loop (`x_i ← a·x_i + b`, four operator cells) circulates
//! the whole array through a delay line. With the one-token-per-arc
//! acknowledge discipline, the ring peaks at 50% occupancy, so the delay
//! line is sized to make the cycle twice the array length — the paper's
//! delay-for-rate tradeoff, quantified.

use crate::{FaultArgs, Report};
use valpipe_core::timestep::build_timestep_loop;
use valpipe_ir::Value;
use valpipe_machine::Simulator;

fn ring(n: usize, delay: usize, args: &FaultArgs) -> Option<f64> {
    let initial: Vec<Value> = (0..n).map(|i| Value::Real(i as f64 * 0.1)).collect();
    let g = build_timestep_loop(&initial, 0.5, 1.0, 2, delay);
    let r = Simulator::builder(&g)
        .config(args.sim_config().max_steps(40_000))
        .run()
        .unwrap();
    if let Some(report) = &r.stall_report {
        println!("n={n} delay={delay}: stalled after {} steps", r.steps);
        print!("{report}");
        return None;
    }
    r.timing("x").interval()
}

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "DELAY: cyclic dependence at maximum rate via a full-array delay",
        Some("§9 (delay-for-rate tradeoff)"),
    );
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "array n", "delay", "cycle L", "tokens m", "interval", "predicted"
    );
    let mut all_ok = true;
    for (n, delay) in [
        (1usize, 1usize), // minimal: rate 1/5
        (4, 4),           // paper's literal reading: delay = n
        (8, 8),
        (8, 12),  // cycle 2n: maximum rate
        (16, 28), // cycle 2n: maximum rate
        (16, 16),
    ] {
        let Some(iv) = ring(n, delay, args) else {
            all_ok = false;
            continue;
        };
        let cycle = 4 + delay; // MULT + ADD + 2 pads + delay stages
        let m = n as f64;
        let predicted = cycle as f64 / m.min(cycle as f64 - m).max(1.0);
        let predicted = predicted.max(2.0);
        println!(
            "{:<10} {:>8} {:>8} {:>10} {:>10.3} {:>12.3}",
            n, delay, cycle, n, iv, predicted
        );
        if (iv - predicted).abs() > 0.25 {
            all_ok = false;
        }
    }
    println!();
    if rep.skip_claims(args) {
        return rep;
    }
    rep.claim(
        "ring rate = min(m, L−m)/L; sizing the delay to L = 2n\n        \
         restores the maximum rate 1/2 — delay traded for rate (§9)",
        all_ok,
    );
    rep
}
