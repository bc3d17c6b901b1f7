//! FASTFORWARD — steady-state fast-forward as an unobservable
//! optimization.
//!
//! §4's maximally pipelined steady state is *periodic*: once the pipe is
//! full, the machine repeats the same configuration every hyperperiod
//! (shifted in time, with fresh operands). The fast-forward engine
//! proves that periodicity from two consecutive matching state
//! fingerprints and then advances whole hyperperiods analytically
//! instead of simulating them. This reporter regenerates the claims on
//! the paper's Example 1 (Fig. 6) streamed deep into steady state:
//!
//!   1. the fast-forwarded `RunResult` is bit-identical to exact
//!      execution on every kernel;
//!   2. a snapshot taken *after* skipped windows is byte-identical to
//!      the exact kernel's snapshot at the same instruction time;
//!   3. the engine simulates >= 100x fewer instruction times than the
//!      run spans.
//!
//! Flags: `--smoke` (2,000 waves — the CI gate), `--waves <n>`
//! (default 20,000; overrides `--smoke`).

use std::time::Instant;

use crate::workloads::{fig6_src, inputs_for_compiled};
use crate::{FaultArgs, Report};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source, CompileOptions};
use valpipe_ir::Graph;
use valpipe_machine::{
    Kernel, ProgramInputs, RunOutcome, RunResult, RunSpec, Session, SimConfig, Simulator,
};

const M: usize = 24;

fn session<'g>(
    g: &'g Graph,
    inputs: &ProgramInputs,
    kernel: Kernel,
    max_steps: u64,
) -> Session<'g> {
    Simulator::builder(g)
        .inputs(inputs.clone())
        .config(SimConfig::new().max_steps(max_steps).kernel(kernel))
        .build()
        .unwrap()
}

fn pause_bytes(session: Session<'_>, spec: RunSpec, at: u64) -> Vec<u8> {
    match session.drive(spec.pause_at(at)).unwrap().outcome {
        RunOutcome::Paused(s) => {
            assert_eq!(s.now(), at, "pause must land exactly at t={at}");
            s.checkpoint().as_bytes().to_vec()
        }
        RunOutcome::Done(_) => panic!("run finished before the t={at} pause"),
    }
}

pub(super) fn run(args: &FaultArgs) -> Report {
    let default_waves = if args.smoke { 2_000 } else { 20_000 };
    let waves = args.waves.unwrap_or(default_waves);
    let mut rep = Report::new(
        "FASTFORWARD: skipping steady-state hyperperiods analytically",
        Some("§4 steady state (rate 1/2) + Fig. 6"),
    );

    let compiled = compile_source(&fig6_src(M), &CompileOptions::default()).unwrap();
    let exe = compiled.executable();
    let arrays = inputs_for_compiled(&compiled);
    let inputs = stream_inputs(&compiled, &arrays, waves);
    let max_steps = 16 * (M as u64 + 2) * waves as u64;

    // Claim 1: bit-identical RunResult on every kernel.
    let mut identical = true;
    let mut reference: Option<(RunResult, valpipe_machine::FastForwardStats, f64, f64)> = None;
    for kernel in [Kernel::Scan, Kernel::EventDriven] {
        let t0 = Instant::now();
        let exact = session(&exe, &inputs, kernel, max_steps)
            .drive(RunSpec::new())
            .unwrap()
            .result();
        let t_exact = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let driven = session(&exe, &inputs, kernel, max_steps)
            .drive(RunSpec::new().fast_forward(1))
            .unwrap();
        let t_ff = t0.elapsed().as_secs_f64();
        let stats = driven.fast_forward.clone();
        let ff = driven.result();
        let same = ff == exact;
        identical &= same;
        let executed = ff.steps - stats.skipped_steps;
        println!("{kernel:?}: {} steps, {} executed, {} skipped, period {:?}, exact {:.1}ms vs ff {:.1}ms ({})",
            ff.steps,
            executed,
            stats.skipped_steps,
            stats.period,
            t_exact * 1e3,
            t_ff * 1e3,
            if same { "identical" } else { "DIVERGED" },
        );
        if kernel == Kernel::EventDriven {
            reference = Some((ff, stats, t_exact, t_ff));
        }
    }
    let (ff, stats, t_exact, t_ff) = reference.unwrap();
    rep.claim(
        "fast-forwarded results are bit-identical to exact execution on every kernel",
        identical,
    );

    // Claim 2: a post-skip snapshot is byte-identical to the exact
    // kernel's snapshot at the same instruction time (mid steady state,
    // far past the point where windows were skipped).
    let pause = ff.steps / 2;
    let exact_bytes = pause_bytes(
        session(&exe, &inputs, Kernel::EventDriven, max_steps),
        RunSpec::new(),
        pause,
    );
    let ff_bytes = pause_bytes(
        session(&exe, &inputs, Kernel::EventDriven, max_steps),
        RunSpec::new().fast_forward(0),
        pause,
    );
    rep.claim(
        "the post-skip snapshot is byte-identical to the exact snapshot",
        exact_bytes == ff_bytes,
    );

    // Claim 3: the engine simulates >= 100x fewer instruction times.
    let executed = ff.steps - stats.skipped_steps;
    println!("\nsteady-state accounting: {} of {} instruction times simulated ({} hyperperiods of {:?} skipped, {} verified), wall speedup {:.1}x",
        executed,
        ff.steps,
        stats.windows - stats.verified_windows,
        stats.period,
        stats.verified_windows,
        t_exact / t_ff,
    );
    rep.claim(
        "fast-forward simulates >= 100x fewer instruction times than the run spans",
        executed * 100 <= ff.steps,
    );
    rep
}
