//! SCALE — §3/§4: "one very large pipeline in which thousands of
//! instructions in hundreds of stages are in concurrent execution" and
//! programs of "several hundred blocks".
//!
//! Chains of stencil blocks: throughput stays at the maximum rate as the
//! block count grows; concurrency (cells firing per instruction time,
//! averaged over the run and at its busiest step) grows with the
//! program, not the rate.

use crate::workloads::{chain_src, inputs_for_compiled};
use crate::{FaultArgs, Report};
use valpipe_core::verify::{self, stream_inputs};
use valpipe_core::{compile_source, CompileOptions};
use valpipe_machine::render_stall;

/// The most cells that fired in any one instruction time, from the
/// run's per-cell fire times histogrammed by step.
fn peak_fires_per_step(fire_times: &[Vec<u64>]) -> usize {
    let mut per_step: Vec<usize> = Vec::new();
    for &t in fire_times.iter().flatten() {
        let t = t as usize;
        if t >= per_step.len() {
            per_step.resize(t + 1, 0);
        }
        per_step[t] += 1;
    }
    per_step.into_iter().max().unwrap_or(0)
}

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "SCALE: hundreds of blocks, thousands of concurrent instructions",
        Some("§3 (\"thousands of instructions in hundreds of stages\"), §4"),
    );
    println!(
        "{:<10} {:>7} {:>9} {:>10} {:>12} {:>14}",
        "blocks", "cells", "interval", "rate", "avg fires/t", "peak concur."
    );
    let mut ivs = Vec::new();
    for blocks in [5usize, 20, 80, 200] {
        let m = 2 * blocks + 16;
        let src = chain_src(m, blocks);
        let compiled = compile_source(&src, &CompileOptions::default()).expect("chain compiles");
        let arrays = inputs_for_compiled(&compiled);
        let _ = stream_inputs(&compiled, &arrays, 1); // warm the builder
        let cfg = args.sim_config().record_fire_times(true);
        let r = match verify::run(&compiled, &arrays, 14, cfg) {
            Ok(r) => r,
            Err(e) => {
                println!("blocks={blocks}: {e}");
                continue;
            }
        };
        if !r.sources_exhausted {
            println!("blocks={blocks}: stalled after {} steps", r.steps);
            if let Some(report) = &r.stall_report {
                let exe = compiled.executable();
                print!("{}", render_stall(report, &exe, &compiled.prov));
            }
            continue;
        }
        let out = format!("S{blocks}");
        let iv = r.timing(&out).interval().expect("steady");
        let avg_fires = r.total_fires as f64 / r.steps as f64;
        let peak = peak_fires_per_step(r.fire_times.as_deref().unwrap_or_default());
        println!(
            "{:<10} {:>7} {:>9.3} {:>10.4} {:>12.1} {:>14}",
            blocks,
            compiled.graph.node_count(),
            iv,
            1.0 / iv,
            avg_fires,
            peak
        );
        ivs.push((blocks, iv, avg_fires, peak));
    }
    println!();
    if rep.skip_claims(args) {
        return rep;
    }
    // Output wave shrinks by 2 per block; normalize rate per input wave.
    let ok = ivs.iter().all(|&(blocks, iv, _, _)| {
        let m = 2 * blocks + 16;
        let out_len = (m + 2 - 2 * blocks) as f64;
        let expected = 2.0 * (m as f64 + 2.0) / out_len;
        (iv - expected).abs() / expected < 0.08
    });
    rep.claim(
        "throughput per input wave independent of block count (deep pipes don't slow down)",
        ok,
    );
    // Both the run's average and its busiest step.
    let concurrency_grows = ivs
        .windows(2)
        .all(|w| w[1].2 > w[0].2 * 1.5 && w[1].3 as f64 > w[0].3 as f64 * 1.5);
    rep.claim(
        "concurrent instruction executions (average and peak) grow with program size",
        concurrency_grows,
    );
    rep
}
