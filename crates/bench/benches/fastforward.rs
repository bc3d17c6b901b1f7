//! Bench: steady-state fast-forward vs exact event-driven execution.
//!
//! The acceptance workload is Fig. 6-class: the paper's Example 1
//! (boundary-aware smoothing) compiled and streamed for enough waves
//! that the run crosses 10⁶ instruction times in steady state. The
//! fast-forward engine must (a) produce the bit-identical `RunResult`,
//! (b) simulate at least 100× fewer steps than the run spans, and
//! (c) be dramatically faster in wall-clock — all asserted here, not
//! just printed. With `--json` the measurements land in the
//! `BENCH_machine.json` trajectory under bench `fast_forward`.

use valpipe_bench::timing::{iters, json_mode, median_secs, smoke_mode, BenchLog};
use valpipe_bench::workloads::{fig6_src, inputs_for_compiled};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source, CompileOptions};
use valpipe_ir::Graph;
use valpipe_machine::{Kernel, ProgramInputs, RunSpec, SimConfig, Simulator};

fn session<'g>(
    g: &'g Graph,
    inputs: &ProgramInputs,
    max_steps: u64,
) -> valpipe_machine::Session<'g> {
    Simulator::builder(g)
        .inputs(inputs.clone())
        .config(
            SimConfig::new()
                .max_steps(max_steps)
                .kernel(Kernel::EventDriven),
        )
        .build()
        .unwrap()
}

fn main() {
    let mut log = BenchLog::new();

    // Fig. 6-class steady-state workload. The wave is m+2 elements wide;
    // at rate 1/2 each wave costs ~2(m+2) instruction times, so the full
    // run spans over a million steps.
    let (m, waves) = if smoke_mode() {
        (24, 2_000)
    } else {
        (24, 20_000)
    };
    let compiled = compile_source(&fig6_src(m), &CompileOptions::paper()).unwrap();
    let exe = compiled.executable();
    let arrays = inputs_for_compiled(&compiled);
    let inputs = stream_inputs(&compiled, &arrays, waves);
    let max_steps = 16 * (m as u64 + 2) * waves as u64;

    let exact = session(&exe, &inputs, max_steps)
        .drive(RunSpec::new())
        .unwrap()
        .result();
    let driven = session(&exe, &inputs, max_steps)
        .drive(RunSpec::new().fast_forward(1))
        .unwrap();
    let stats = driven.fast_forward.clone();
    let ff = driven.result();
    assert_eq!(ff, exact, "fast-forward diverged from exact execution");
    let executed = ff.steps - stats.skipped_steps;
    if !smoke_mode() {
        assert!(
            ff.steps >= 1_000_000,
            "acceptance workload must span >= 1e6 steps, got {}",
            ff.steps
        );
        assert!(
            executed * 100 <= ff.steps,
            "fast-forward must simulate >= 100x fewer steps: executed {executed} of {}",
            ff.steps
        );
    }

    let n = iters(5);
    let t_exact = median_secs(n, || {
        let _ = session(&exe, &inputs, max_steps)
            .drive(RunSpec::new())
            .unwrap();
    });
    let t_ff = median_secs(n, || {
        let _ = session(&exe, &inputs, max_steps)
            .drive(RunSpec::new().fast_forward(1))
            .unwrap();
    });
    println!(
        "fastforward/fig6_steady m={m} waves={waves}   exact {:>10.3}ms   ff {:>10.3}ms   speedup {:>7.2}x",
        t_exact * 1e3,
        t_ff * 1e3,
        t_exact / t_ff,
    );
    println!(
        "fastforward/fig6_steady accounting: {} steps, {} skipped, {} executed, period {:?}, {} windows ({} verified)",
        ff.steps, stats.skipped_steps, executed, stats.period, stats.windows, stats.verified_windows,
    );

    log.record(
        "fig6_steady",
        exe.node_count(),
        exe.arc_count(),
        "event",
        1,
        exact.steps,
        t_exact,
    );
    log.record(
        "fig6_steady",
        exe.node_count(),
        exe.arc_count(),
        "event+fastforward",
        1,
        executed,
        t_ff,
    );

    if json_mode() {
        let path = log
            .write("fast_forward")
            .expect("bench trajectory must be writable");
        println!("fastforward: wrote bench trajectory to {path}");
    }
}
