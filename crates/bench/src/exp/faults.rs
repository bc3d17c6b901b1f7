//! FLT — robustness: graceful degradation and stall diagnosis under
//! injected faults.
//!
//! The static architecture's acknowledge protocol is what guarantees the
//! paper's rates — and it is also the failure surface: a delayed packet
//! only slows the pipe, but a *lost* packet (result or acknowledge)
//! permanently wedges its arc, and the wedge spreads backwards through
//! the acknowledge chain until the whole pipeline is quiet. This
//! experiment measures both regimes on the Fig. 6 workload:
//!
//! 1. **delay faults** — rate degrades smoothly with the delay
//!    probability, and values are never corrupted (data-driven execution
//!    is timing-independent);
//! 2. **freeze faults** — a cell frozen for a window stalls the pipe and
//!    then recovers, again with identical values;
//! 3. **loss faults** — a single lost acknowledge deadlocks the run, and
//!    the watchdog names the blocked cells, the arcs holding
//!    unacknowledged tokens, and the wait cycle.
//!
//! `--fault-plan <spec>` replaces the built-in sweep with one run of the
//! given plan; `--step-budget <n>` bounds it.

use crate::workloads::{fig6_src, inputs_for_compiled};
use crate::{FaultArgs, Report};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source_limited, CompileLimits, CompileOptions};
use valpipe_ir::Graph;
use valpipe_machine::{
    render_stall, FaultPlan, ProgramInputs, RunResult, SimConfig, Simulator, WatchdogConfig,
};

fn run_plan(exe: &Graph, inputs: &ProgramInputs, plan: Option<FaultPlan>) -> RunResult {
    let cfg = SimConfig::new()
        .max_steps(3_000_000)
        .fault_plan_opt(plan)
        .watchdog(WatchdogConfig {
            step_budget: 2_000_000,
            ..Default::default()
        })
        .check_invariants(true);
    Simulator::builder(exe)
        .inputs(inputs.clone())
        .config(cfg)
        .run()
        .unwrap()
}

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "FLT: fault injection — degradation curves and stall diagnosis",
        None,
    );
    let src = fig6_src(64);
    let compiled = compile_source_limited(
        &src,
        "fig6.val",
        &CompileOptions::paper(),
        &CompileLimits::unbounded(),
    )
    .expect("compiles");
    let exe = compiled.executable();
    let arrays = inputs_for_compiled(&compiled);
    let inputs = stream_inputs(&compiled, &arrays, 20);

    let clean = run_plan(&exe, &inputs, None);
    assert!(clean.sources_exhausted, "clean run must drain");
    let clean_vals = clean.values("A");
    let clean_iv = clean.timing("A").interval().expect("steady");

    if args.active() {
        // User-specified plan: one diagnostic run.
        let cfg = args
            .apply(SimConfig::new().max_steps(3_000_000))
            .check_invariants(true);
        let r = Simulator::builder(&exe)
            .inputs(inputs.clone())
            .config(cfg)
            .run()
            .unwrap();
        println!(
            "steps {}   packets on A: {}   sources drained: {}",
            r.steps,
            r.values("A").len(),
            r.sources_exhausted
        );
        match &r.stall_report {
            Some(report) => print!("{}", render_stall(report, &exe, &compiled.prov)),
            None => println!(
                "run completed; interval {:.3} (clean {:.3}), values {}",
                r.timing("A").interval().unwrap_or(f64::NAN),
                clean_iv,
                if r.values("A") == clean_vals {
                    "identical"
                } else {
                    "DIFFER"
                },
            ),
        }
        return rep;
    }

    // 1. Delay faults: the degradation curve.
    println!();
    println!("-- result-packet delay faults (max extra = 4 instruction times) --");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "probability", "interval", "rate", "values"
    );
    let mut last_iv = 0.0f64;
    let mut monotone = true;
    let mut all_identical = true;
    for prob in [0.0, 0.01, 0.05, 0.1, 0.25, 0.5] {
        let plan = FaultPlan {
            seed: 7,
            delay_result: prob,
            delay_result_max: 4,
            ..Default::default()
        };
        let r = run_plan(&exe, &inputs, Some(plan));
        assert!(
            r.sources_exhausted,
            "delays must never wedge the pipe (p={prob})"
        );
        let iv = r.timing("A").interval().expect("steady");
        let same = r.values("A") == clean_vals;
        println!(
            "{prob:<12} {iv:>10.3} {:>10.4} {:>10}",
            1.0 / iv,
            if same { "identical" } else { "DIFFER" }
        );
        // Small tolerance: position-keyed draws are not nested across
        // probabilities, so tiny non-monotonicities are sampling noise.
        if iv + 0.05 < last_iv {
            monotone = false;
        }
        last_iv = iv.max(last_iv);
        all_identical &= same;
    }
    rep.claim(
        "delayed packets only slow the pipe: values bit-identical at every probability",
        all_identical,
    );
    rep.claim(
        "rate degrades gracefully (interval grows with delay probability)",
        monotone && last_iv > clean_iv,
    );

    // 2. Freeze fault: stall and recover.
    println!();
    println!("-- cell freeze (cell 0 frozen for 300 instruction times) --");
    let plan = FaultPlan {
        freezes: vec![valpipe_machine::CellFreeze {
            node: 0,
            from: 100,
            until: 400,
        }],
        ..Default::default()
    };
    let r = run_plan(&exe, &inputs, Some(plan));
    let frozen_ok = r.sources_exhausted && r.values("A") == clean_vals && r.steps > clean.steps;
    println!(
        "steps {} (clean {}), values {}",
        r.steps,
        clean.steps,
        if r.values("A") == clean_vals {
            "identical"
        } else {
            "DIFFER"
        }
    );
    rep.claim(
        "a frozen cell stalls the pipe, which recovers with identical values",
        frozen_ok,
    );

    // 3. Loss faults: the wedge, diagnosed.
    println!();
    println!("-- lost acknowledges (p = 0.002) --");
    let plan = FaultPlan {
        seed: 11,
        drop_ack: 0.002,
        ..Default::default()
    };
    let r = run_plan(&exe, &inputs, Some(plan));
    match &r.stall_report {
        Some(report) => {
            println!(
                "stalled after {} steps; {} packets of {} delivered on A",
                r.steps,
                r.values("A").len(),
                clean_vals.len()
            );
            print!("{}", render_stall(report, &exe, &compiled.prov));
            let diagnosed = !report.blocked_cells.is_empty() && !report.held_arcs.is_empty();
            rep.claim(
                "one lost acknowledge wedges the pipe; the watchdog names blocked cells and held arcs",
                diagnosed,
            );
        }
        None => {
            rep.claim("run with lost acknowledges did not stall", false);
        }
    }

    // 4. Empty plan is bit-identical to no plan.
    let empty = run_plan(&exe, &inputs, Some(FaultPlan::default()));
    let identical = empty.steps == clean.steps
        && empty.values("A") == clean_vals
        && empty.total_fires == clean.total_fires;
    println!();
    rep.claim(
        "the empty fault plan is bit-identical to the fault-free machine",
        identical,
    );
    rep
}
