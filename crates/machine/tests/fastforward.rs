//! Fast-forward equivalence suite: `ExecMode::FastForward` must be an
//! unobservable optimization. Every test drives the same program twice —
//! exactly and fast-forwarded — and requires bit-identical outcomes,
//! plus the engine's own accounting (steps actually skipped, fallbacks
//! taken when the configuration makes windows inexact).

use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::{BinOp, Value};
use valpipe_ir::{CtlStream, Graph};
use valpipe_machine::{
    FaultPlan, Kernel, ProgramInputs, ResourceModel, RunOutcome, RunResult, RunSpec, SimConfig,
    Simulator,
};

fn reals(v: &[f64]) -> Vec<Value> {
    v.iter().map(|&x| Value::Real(x)).collect()
}

/// A periodic input: `waves` repetitions of a fixed 4-element wave.
fn wave_inputs(waves: usize) -> ProgramInputs {
    let wave_a = [1.5, 2.25, 0.75, 3.0];
    let wave_b = [2.0, 0.5, 1.25, 4.0];
    let a: Vec<f64> = (0..waves * 4).map(|i| wave_a[i % 4]).collect();
    let b: Vec<f64> = (0..waves * 4).map(|i| wave_b[i % 4]).collect();
    ProgramInputs::new()
        .bind("a", reals(&a))
        .bind("b", reals(&b))
}

/// Fig. 2's expression pipeline: the paper's maximally pipelined
/// steady-state workload (rate 1/2 once full).
fn pipeline_graph() -> Graph {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let y = g.cell(Opcode::Bin(BinOp::Mul), "mul", &[a.into(), b.into()]);
    let p = g.cell(Opcode::Bin(BinOp::Add), "add2", &[y.into(), 2.0.into()]);
    let q = g.cell(Opcode::Bin(BinOp::Sub), "sub3", &[y.into(), 3.0.into()]);
    let r = g.cell(Opcode::Bin(BinOp::Mul), "join", &[p.into(), q.into()]);
    let _ = g.cell(Opcode::Sink("out".into()), "out", &[r.into()]);
    g
}

/// The pipeline plus a gated tap driven by a periodic control stream —
/// exercises the generator shift-invariance checks.
fn gated_graph() -> Graph {
    let mut g = pipeline_graph();
    let y = g
        .node_ids()
        .find(|n| g.nodes[n.idx()].label == "mul")
        .unwrap();
    let ctl = g.add_node(Opcode::CtlGen(CtlStream::window(4, 1, 2)), "ctl");
    let gate = g.cell(Opcode::TGate, "gate", &[ctl.into(), y.into()]);
    let _ = g.cell(Opcode::Sink("tap".into()), "tap", &[gate.into()]);
    g
}

fn run_exact(g: &Graph, inputs: &ProgramInputs, cfg: &SimConfig, kernel: Kernel) -> RunResult {
    Simulator::builder(g)
        .inputs(inputs.clone())
        .config(cfg.clone().kernel(kernel))
        .run()
        .unwrap()
}

fn drive_ff(
    g: &Graph,
    inputs: &ProgramInputs,
    cfg: &SimConfig,
    kernel: Kernel,
    verify: u64,
) -> (RunResult, valpipe_machine::FastForwardStats) {
    let driven = Simulator::builder(g)
        .inputs(inputs.clone())
        .config(cfg.clone().kernel(kernel))
        .build()
        .unwrap()
        .drive(RunSpec::new().fast_forward(verify))
        .unwrap();
    let stats = driven.fast_forward.clone();
    (driven.result(), stats)
}

#[test]
fn fastforward_is_bit_identical_on_all_kernels() {
    let g = pipeline_graph();
    let inputs = wave_inputs(500);
    let cfg = SimConfig::new();
    for kernel in [Kernel::Scan, Kernel::EventDriven] {
        let exact = run_exact(&g, &inputs, &cfg, kernel);
        let (ff, stats) = drive_ff(&g, &inputs, &cfg, kernel, 0);
        assert_eq!(ff, exact, "fast-forward diverged on {kernel:?}");
        assert!(
            stats.skipped_steps > 0,
            "expected engagement on {kernel:?}, stats: {stats:?}"
        );
        assert!(stats.period.is_some());
    }
}

#[test]
fn fastforward_keeps_generator_phases_across_partial_waves() {
    // An alternating 70-packet control wave is shift-invariant by 2, so
    // a jump may advance its cursor by less than a wave; the derived
    // wave phase must follow the cursor (checked after every jump).
    let mut g = pipeline_graph();
    let y = g
        .node_ids()
        .find(|n| g.nodes[n.idx()].label == "mul")
        .unwrap();
    let ctl = g.add_node(
        Opcode::CtlGen(CtlStream::from_runs(
            (0..35).flat_map(|_| [(true, 1), (false, 1)]),
        )),
        "ctl",
    );
    let gate = g.cell(Opcode::TGate, "gate", &[ctl.into(), y.into()]);
    let _ = g.cell(Opcode::Sink("tap".into()), "tap", &[gate.into()]);
    let inputs = wave_inputs(400);
    let cfg = SimConfig::new().check_invariants(true);
    for kernel in [Kernel::Scan, Kernel::EventDriven] {
        let exact = run_exact(&g, &inputs, &cfg, kernel);
        let (ff, stats) = drive_ff(&g, &inputs, &cfg, kernel, 0);
        assert_eq!(ff, exact, "fast-forward diverged on {kernel:?}");
        assert!(stats.skipped_steps > 0, "stats: {stats:?}");
    }
}

#[test]
fn fastforward_handles_control_generators() {
    let g = gated_graph();
    let inputs = wave_inputs(400);
    let cfg = SimConfig::new();
    for kernel in [Kernel::Scan, Kernel::EventDriven] {
        let exact = run_exact(&g, &inputs, &cfg, kernel);
        let (ff, stats) = drive_ff(&g, &inputs, &cfg, kernel, 0);
        assert_eq!(ff, exact, "gated fast-forward diverged on {kernel:?}");
        assert!(stats.skipped_steps > 0, "stats: {stats:?}");
    }
}

#[test]
fn verified_windows_replay_identically() {
    let g = pipeline_graph();
    let inputs = wave_inputs(300);
    let cfg = SimConfig::new();
    let exact = run_exact(&g, &inputs, &cfg, Kernel::EventDriven);
    let (ff, stats) = drive_ff(&g, &inputs, &cfg, Kernel::EventDriven, 2);
    assert_eq!(ff, exact);
    assert!(stats.verified_windows > 0, "stats: {stats:?}");
    assert_eq!(stats.fallbacks, 0, "verification must not miscompare");
}

#[test]
fn post_skip_snapshot_matches_exact_snapshot() {
    let g = pipeline_graph();
    let inputs = wave_inputs(400);
    let cfg = SimConfig::new();
    // Pause both runs at the same mid-steady-state instruction time;
    // the serialized machine states must be byte-identical.
    for pause in [801u64, 1502, 2203] {
        let spec_exact = RunSpec::new().pause_at(pause);
        let spec_ff = RunSpec::new().fast_forward(0).pause_at(pause);
        let build = || {
            Simulator::builder(&g)
                .inputs(inputs.clone())
                .config(cfg.clone())
                .build()
                .unwrap()
        };
        let exact = match build().drive(spec_exact).unwrap().outcome {
            RunOutcome::Paused(s) => s,
            RunOutcome::Done(_) => panic!("exact run finished before t={pause}"),
        };
        let ff = match build().drive(spec_ff).unwrap().outcome {
            RunOutcome::Paused(s) => s,
            RunOutcome::Done(_) => panic!("ff run finished before t={pause}"),
        };
        assert_eq!(exact.now(), pause);
        assert_eq!(ff.now(), pause);
        assert_eq!(
            exact.checkpoint().as_bytes(),
            ff.checkpoint().as_bytes(),
            "snapshot diverged at pause t={pause}"
        );
        // And both resume to the same completed run.
        assert_eq!(
            exact.drive(RunSpec::new()).unwrap().result(),
            ff.drive(RunSpec::new().fast_forward(1)).unwrap().result(),
            "resumed runs diverged from pause t={pause}"
        );
    }
}

#[test]
fn stop_outputs_target_is_reached_exactly() {
    let g = pipeline_graph();
    let inputs = wave_inputs(400);
    let cfg = SimConfig::new().stop_outputs(vec![("out".to_string(), 611)]);
    let exact = run_exact(&g, &inputs, &cfg, Kernel::EventDriven);
    let (ff, stats) = drive_ff(&g, &inputs, &cfg, Kernel::EventDriven, 1);
    assert_eq!(ff, exact);
    assert_eq!(ff.outputs["out"].len(), exact.outputs["out"].len());
    assert!(stats.skipped_steps > 0, "stats: {stats:?}");
}

#[test]
fn faults_and_throttles_force_exact_fallback() {
    let g = pipeline_graph();
    let inputs = wave_inputs(50);
    let faulted = SimConfig::new().fault_plan(FaultPlan {
        seed: 7,
        delay_result: 0.05,
        delay_result_max: 2,
        ..Default::default()
    });
    let exact = run_exact(&g, &inputs, &faulted, Kernel::EventDriven);
    let (ff, stats) = drive_ff(&g, &inputs, &faulted, Kernel::EventDriven, 0);
    assert_eq!(ff, exact);
    assert_eq!(stats.skipped_steps, 0);
    assert_eq!(stats.fallbacks, 1, "ineligible config must be recorded");

    let throttled = SimConfig::new().resources(ResourceModel {
        unit_of: vec![0; g.nodes.len()],
        capacity: vec![2],
    });
    let exact = run_exact(&g, &inputs, &throttled, Kernel::EventDriven);
    let (ff, stats) = drive_ff(&g, &inputs, &throttled, Kernel::EventDriven, 0);
    assert_eq!(ff, exact);
    assert_eq!(stats.skipped_steps, 0);
    assert_eq!(stats.fallbacks, 1);
}

#[test]
fn active_checkpoint_cadence_forces_exact_fallback() {
    let g = pipeline_graph();
    let inputs = wave_inputs(60);
    let cfg = SimConfig::new().checkpoint_every(16);
    let mut snaps_exact = Vec::new();
    let exact = Simulator::builder(&g)
        .inputs(inputs.clone())
        .config(cfg.clone())
        .build()
        .unwrap()
        .drive_with(RunSpec::new(), |s| snaps_exact.push(s.step()))
        .unwrap()
        .result();
    let mut snaps_ff = Vec::new();
    let driven = Simulator::builder(&g)
        .inputs(inputs.clone())
        .config(cfg.clone())
        .build()
        .unwrap()
        .drive_with(RunSpec::new().fast_forward(0), |s| snaps_ff.push(s.step()))
        .unwrap();
    assert_eq!(driven.fast_forward.skipped_steps, 0);
    assert_eq!(driven.fast_forward.fallbacks, 1);
    assert_eq!(driven.result(), exact);
    assert_eq!(snaps_ff, snaps_exact, "every periodic checkpoint observed");
}

#[test]
fn watchdogged_runs_still_fast_forward() {
    let g = pipeline_graph();
    let inputs = wave_inputs(300);
    let cfg = SimConfig::new().watchdog(valpipe_machine::WatchdogConfig {
        step_budget: 1_000_000,
        progress_window: 10_000,
    });
    let exact = run_exact(&g, &inputs, &cfg, Kernel::EventDriven);
    let (ff, stats) = drive_ff(&g, &inputs, &cfg, Kernel::EventDriven, 1);
    assert_eq!(ff, exact);
    assert!(stats.skipped_steps > 0, "stats: {stats:?}");
}

#[test]
fn skipped_windows_dominate_long_steady_state() {
    // The acceptance-criteria shape in miniature: the simulated
    // (non-skipped) step count must be a small fraction of the run.
    let g = pipeline_graph();
    let inputs = wave_inputs(25_000);
    let cfg = SimConfig::new().max_steps(1_000_000);
    let exact = run_exact(&g, &inputs, &cfg, Kernel::EventDriven);
    let (ff, stats) = drive_ff(&g, &inputs, &cfg, Kernel::EventDriven, 1);
    assert_eq!(ff, exact);
    let executed = ff.steps - stats.skipped_steps;
    assert!(
        executed * 100 <= ff.steps,
        "simulated {executed} of {} steps (skipped {})",
        ff.steps,
        stats.skipped_steps
    );
}
