//! Robustness integration tests: fault injection, the watchdog's stall
//! taxonomy (deadlock / livelock / budget exhaustion), invariant
//! checking, and the bit-identity guarantee of the empty fault plan.

use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::{BinOp, Value};
use valpipe_ir::{CtlStream, Graph};
use valpipe_machine::{
    ArcDelays, CellFreeze, FaultPlan, Kernel, MachineError, ProgramInputs, ResourceModel,
    RunResult, RunSpec, Session, SimConfig, Simulator, StallKind, StopReason, WatchdogConfig,
};

fn reals(v: &[f64]) -> Vec<Value> {
    v.iter().map(|&x| Value::Real(x)).collect()
}

fn ramp(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64).collect()
}

/// Run with invariant checking on and an optional fault plan.
fn run_checked(g: &Graph, inputs: &ProgramInputs, plan: Option<FaultPlan>) -> RunResult {
    let mut cfg = SimConfig::new().check_invariants(true);
    if let Some(plan) = plan {
        cfg = cfg.fault_plan(plan);
    }
    Simulator::builder(g)
        .inputs(inputs.clone())
        .config(cfg)
        .run()
        .unwrap()
}

// ---------------------------------------------------------------------
// The ISSUE acceptance test: a wedged graph terminates within the step
// budget and the stall report names at least one blocked cell and one
// arc holding tokens.
// ---------------------------------------------------------------------

#[test]
fn wedged_graph_terminates_within_budget_with_diagnosis() {
    // A join whose left arm passes through a cell that is frozen for the
    // whole run: the right arm's token sits in front of the join forever.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let left = g.cell(Opcode::Id, "left_arm", &[a.into()]);
    let add = g.cell(
        Opcode::Bin(BinOp::Add),
        "the_join",
        &[left.into(), b.into()],
    );
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);

    let budget = 5_000;
    let r = Simulator::builder(&g)
        .inputs(
            ProgramInputs::new()
                .bind("a", reals(&ramp(8)))
                .bind("b", reals(&ramp(8))),
        )
        .config(
            SimConfig::new()
                .fault_plan(FaultPlan {
                    freezes: vec![CellFreeze {
                        node: left.idx(),
                        from: 0,
                        until: 1 << 40,
                    }],
                    ..Default::default()
                })
                .watchdog(WatchdogConfig {
                    step_budget: budget,
                    ..Default::default()
                })
                .check_invariants(true),
        )
        .run()
        .unwrap();

    assert_eq!(r.stop, StopReason::Stalled);
    assert!(
        r.steps <= budget,
        "terminated at step {} > budget {budget}",
        r.steps
    );
    assert!(!r.sources_exhausted);
    let report = r
        .stall_report
        .expect("wedged run must carry a stall report");
    let join = report
        .blocked_cells
        .iter()
        .find(|c| c.label == "the_join")
        .expect("report must name the starved join");
    assert_eq!(join.missing_ports, vec![0], "join waits on the frozen arm");
    assert!(
        !report.held_arcs.is_empty(),
        "report must name at least one held arc"
    );
    assert!(
        report.held_arcs.iter().any(|h| h.tokens > 0),
        "some arc must hold a queued token"
    );
    let text = report.to_string();
    assert!(text.contains("the_join"), "{text}");
    assert!(text.contains("token(s) queued"), "{text}");
}

#[test]
fn lost_acknowledges_deadlock_with_named_cells_and_arcs() {
    // Probabilistic ack loss on a two-armed join: one arm wedges before
    // the other, leaving the join starved with a token queued in front
    // of it. The seed is fixed, so the run is reproducible.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let add = g.cell(Opcode::Bin(BinOp::Add), "join", &[a.into(), b.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);

    let plan = FaultPlan {
        seed: 11,
        drop_ack: 0.3,
        ..Default::default()
    };
    let r = run_checked(
        &g,
        &ProgramInputs::new()
            .bind("a", reals(&ramp(40)))
            .bind("b", reals(&ramp(40))),
        Some(plan),
    );

    assert!(
        !r.sources_exhausted,
        "lost acknowledges must wedge the pipe"
    );
    let report = r.stall_report.expect("deadlocked run must carry a report");
    assert_eq!(report.kind, StallKind::Deadlock);
    assert!(!report.blocked_cells.is_empty(), "{report}");
    let held = report
        .held_arcs
        .iter()
        .find(|h| h.unacked > 0)
        .expect("some arc must hold an unacknowledged slot");
    assert!(held.arc < g.arc_count());
}

// ---------------------------------------------------------------------
// Bit-identity: the empty fault plan shares the fault-free code path,
// so the paper's rate measurements are untouched by the robustness
// machinery.
// ---------------------------------------------------------------------

fn assert_bit_identical(g: &Graph, inputs: &ProgramInputs) -> RunResult {
    let clean = run_checked(g, inputs, None);
    let empty = run_checked(g, inputs, Some(FaultPlan::default()));
    assert_eq!(clean.steps, empty.steps);
    assert_eq!(clean.stop, empty.stop);
    assert_eq!(clean.outputs, empty.outputs);
    assert_eq!(clean.fires, empty.fires);
    assert_eq!(clean.total_fires, empty.total_fires);
    assert_eq!(clean.source_emit_times, empty.source_emit_times);
    clean
}

#[test]
fn empty_plan_bit_identical_on_max_pipelined_chain() {
    // Fig. 2 regime: an acknowledged chain runs at the paper's maximum
    // rate of 1/2 — and the empty plan must not move it by a single step.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let mut prev = a;
    for k in 0..4 {
        prev = g.cell(Opcode::Id, format!("s{k}"), &[prev.into()]);
    }
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[prev.into()]);
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(64)));
    let r = assert_bit_identical(&g, &inputs);
    let iv = r.timing("y").interval().unwrap();
    assert!(
        (iv - 2.0).abs() < 1e-9,
        "rate-1/2 chain measured at interval {iv}"
    );
}

#[test]
fn empty_plan_bit_identical_on_three_cycle_loop() {
    // Todd's counterexample regime: a 3-cycle pins everything to rate
    // 1/3; again the measurement must be bit-identical under the empty
    // plan.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let j = g.add_node(Opcode::Bin(BinOp::Add), "join");
    g.connect(a, j, 0);
    let l1 = g.cell(Opcode::Id, "l1", &[j.into()]);
    let l2 = g.cell(Opcode::Id, "l2", &[l1.into()]);
    g.connect_init(l2, j, 1, Value::Real(0.0));
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[l2.into()]);
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(80)));
    let r = assert_bit_identical(&g, &inputs);
    let iv = r.timing("y").interval().unwrap();
    assert!((iv - 3.0).abs() < 1e-9, "3-cycle measured at interval {iv}");
}

// ---------------------------------------------------------------------
// Control skew: gates and merges under fault-delayed streams.
// ---------------------------------------------------------------------

#[test]
fn gate_discards_under_control_skew_never_jam() {
    // TGate/FGate pair fed from one source; injected delays skew the
    // control stream against the data stream. The gates' discard rule
    // (acknowledge without forwarding) must keep the pipe draining, and
    // the selected values must be exactly the clean run's.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let ct = g.add_node(Opcode::CtlGen(CtlStream::window(4, 1, 2)), "ct");
    let cf = g.add_node(Opcode::CtlGen(CtlStream::window(4, 1, 2)), "cf");
    let tg = g.cell(Opcode::TGate, "t", &[ct.into(), a.into()]);
    let _ = g.cell(Opcode::Sink("t".into()), "st", &[tg.into()]);
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let fg = g.cell(Opcode::FGate, "f", &[cf.into(), b.into()]);
    let _ = g.cell(Opcode::Sink("f".into()), "sf", &[fg.into()]);
    let inputs = ProgramInputs::new()
        .bind("a", reals(&ramp(48)))
        .bind("b", reals(&ramp(48)));

    let clean = run_checked(&g, &inputs, None);
    let plan = FaultPlan {
        seed: 23,
        delay_result: 0.35,
        delay_result_max: 5,
        delay_ack: 0.2,
        delay_ack_max: 3,
        ..Default::default()
    };
    let skewed = run_checked(&g, &inputs, Some(plan));
    assert!(
        skewed.sources_exhausted,
        "gate discards must never block upstream"
    );
    assert!(skewed.stall_report.is_none());
    assert_eq!(skewed.values("t"), clean.values("t"));
    assert_eq!(skewed.values("f"), clean.values("f"));
}

#[test]
fn merge_ordering_survives_a_delayed_arm() {
    // A conditional (gate pair, distinct arms, merge) under heavy result
    // delays: the merge's control stream dictates the output order, so
    // the sequence must match the clean run even when one arm's tokens
    // arrive late.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let ctl = g.add_node(
        Opcode::CtlGen(CtlStream::from_runs([(true, 2), (false, 1)])),
        "ctl",
    );
    let tg = g.cell(Opcode::TGate, "tg", &[ctl.into(), a.into()]);
    let fg = g.cell(Opcode::FGate, "fg", &[ctl.into(), a.into()]);
    let t_arm = g.cell(Opcode::Bin(BinOp::Add), "t_arm", &[tg.into(), 100.0.into()]);
    let f_arm = g.cell(
        Opcode::Bin(BinOp::Mul),
        "f_arm",
        &[fg.into(), (-1.0).into()],
    );
    let m = g.add_node(Opcode::Merge, "m");
    g.connect(ctl, m, 0);
    g.connect(t_arm, m, 1);
    g.connect(f_arm, m, 2);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[m.into()]);
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(45)));

    let clean = run_checked(&g, &inputs, None);
    assert!(clean.sources_exhausted);
    let expected = clean.values("y");
    // Analytic oracle: control (T,T,F) repeating, so wave i takes the
    // true arm (+100) unless i % 3 == 2, which takes the false arm (-x).
    let oracle: Vec<Value> = (0..45)
        .map(|i| {
            Value::Real(if i % 3 < 2 {
                i as f64 + 100.0
            } else {
                -(i as f64)
            })
        })
        .collect();
    assert_eq!(expected, oracle, "clean machine run must match the oracle");

    for seed in [1u64, 7, 42] {
        let plan = FaultPlan {
            seed,
            delay_result: 0.4,
            delay_result_max: 6,
            ..Default::default()
        };
        let r = run_checked(&g, &inputs, Some(plan));
        assert!(r.sources_exhausted, "seed {seed}: delays must never wedge");
        assert_eq!(r.values("y"), expected, "seed {seed}: merge order broke");
    }
}

// ---------------------------------------------------------------------
// Watchdog taxonomy: livelock and budget exhaustion.
// ---------------------------------------------------------------------

#[test]
fn spinning_token_loop_is_reported_as_livelock() {
    // Two identity cells passing one token around forever: firings keep
    // happening but no sink ever receives and no source ever emits.
    let mut g = Graph::new();
    let n1 = g.add_node(Opcode::Id, "spin1");
    let n2 = g.add_node(Opcode::Id, "spin2");
    g.connect(n1, n2, 0);
    g.connect_init(n2, n1, 0, Value::Real(1.0));

    let r = Simulator::builder(&g)
        .config(
            SimConfig::new()
                .watchdog(WatchdogConfig {
                    step_budget: 100_000,
                    progress_window: 64,
                })
                .check_invariants(true),
        )
        .run()
        .unwrap();
    assert_eq!(r.stop, StopReason::Stalled);
    let report = r.stall_report.expect("livelocked run must carry a report");
    assert_eq!(report.kind, StallKind::Livelock);
    assert!(
        report.fires_in_window > 0,
        "livelock means firings without progress"
    );
    assert!(
        r.steps < 100_000,
        "livelock must be caught well before the budget"
    );
    assert!(report.to_string().contains("livelock"), "{report}");
}

#[test]
fn productive_run_out_of_budget_is_reported_as_such() {
    // A healthy pipeline cut off mid-stream: the watchdog must not call
    // it deadlocked or livelocked.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let id = g.cell(Opcode::Id, "id", &[a.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[id.into()]);
    let r = Simulator::builder(&g)
        .inputs(ProgramInputs::new().bind("a", reals(&ramp(200))))
        .config(SimConfig::new().watchdog(WatchdogConfig {
            step_budget: 40,
            ..Default::default()
        }))
        .run()
        .unwrap();
    assert_eq!(r.stop, StopReason::Stalled);
    assert_eq!(r.steps, 40);
    let report = r
        .stall_report
        .expect("budget-killed run must carry a report");
    assert_eq!(report.kind, StallKind::BudgetExhausted);
    assert!(report.to_string().contains("budget"), "{report}");
}

// ---------------------------------------------------------------------
// Invariant checker: silent on healthy runs, including under the
// latency/capacity knobs the experiments use.
// ---------------------------------------------------------------------

#[test]
fn invariant_checker_is_silent_on_healthy_runs() {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let i1 = g.cell(Opcode::Id, "i1", &[a.into()]);
    let i2 = g.cell(Opcode::Id, "i2", &[i1.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[i2.into()]);
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(50)));
    for cap in [1usize, 2, 4] {
        let r = Simulator::builder(&g)
            .inputs(inputs.clone())
            .config(
                SimConfig::new()
                    .arc_capacity(cap)
                    .delays(valpipe_machine::ArcDelays {
                        forward: vec![2; g.arc_count()],
                        ack: vec![2; g.arc_count()],
                    })
                    .check_invariants(true),
            )
            .run()
            .unwrap();
        assert!(r.sources_exhausted, "cap {cap}");
        assert_eq!(r.reals("y"), ramp(50), "cap {cap}");
    }
}

/// Compile-time proof that sessions and every snapshot-carrying type can
/// migrate across worker threads — the property the multi-tenant
/// simulation service's worker pool depends on. If any field regresses
/// to a non-`Send` type (an `Rc`, a raw pointer without its manual
/// impl), this test stops compiling.
#[test]
fn sessions_and_snapshot_state_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<valpipe_machine::Session<'static>>();
    assert_send::<valpipe_machine::RunOutcome<'static>>();
    assert_send::<valpipe_machine::Snapshot>();
    assert_send::<valpipe_machine::SnapshotError>();
    assert_send::<valpipe_machine::SimConfig>();
    assert_send::<RunResult>();
    // A `&Graph` crosses threads with the session, so the graph itself
    // must also be shareable.
    fn assert_sync<T: Sync>() {}
    assert_sync::<Graph>();
}

// ---------------------------------------------------------------------
// One validator: a config the machine cannot realize is a typed error
// at build, on both kernels, never a panic or a silently wrong run; and
// the nearest config that does build also checkpoints and restores.
// ---------------------------------------------------------------------

/// Source → `stages` identity cells → sink.
fn chain(stages: usize) -> Graph {
    let mut g = Graph::new();
    let mut prev = g.add_node(Opcode::Source("a".into()), "a");
    for k in 0..stages {
        prev = g.cell(Opcode::Id, format!("s{k}"), &[prev.into()]);
    }
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[prev.into()]);
    g
}

fn chain_inputs() -> ProgramInputs {
    ProgramInputs::new().bind("a", reals(&ramp(20)))
}

/// Building `cfg` over `g` fails with `InvalidConfig` on both kernels.
fn assert_invalid(g: &Graph, cfg: &SimConfig, what: &str) {
    for kernel in [Kernel::Scan, Kernel::EventDriven] {
        let built = Simulator::builder(g)
            .inputs(chain_inputs())
            .config(cfg.clone().kernel(kernel))
            .build();
        match built {
            Err(MachineError::InvalidConfig(_)) => {}
            Err(e) => panic!("{what} on {kernel:?}: unexpected error {e}"),
            Ok(_) => panic!("{what} on {kernel:?}: built"),
        }
    }
}

/// `cfg` checkpoints at step 5 and resumes on both kernels to the
/// uninterrupted run.
fn assert_checkpoint_restores(g: &Graph, cfg: &SimConfig) {
    let reference = Simulator::builder(g)
        .inputs(chain_inputs())
        .config(cfg.clone())
        .run()
        .unwrap();
    assert_eq!(reference.reals("y"), ramp(20));
    let mut session = Simulator::builder(g)
        .inputs(chain_inputs())
        .config(cfg.clone())
        .build()
        .unwrap();
    for _ in 0..5 {
        session.step().unwrap();
    }
    let snap = session.checkpoint();
    for kernel in [Kernel::Scan, Kernel::EventDriven] {
        let resumed = Session::restore_with_kernel(g, &snap, kernel)
            .unwrap()
            .drive(RunSpec::new())
            .unwrap()
            .result();
        assert_eq!(resumed, reference, "resumed on {kernel:?}");
    }
}

#[test]
fn short_or_out_of_range_resource_model_is_invalid_config() {
    let g = chain(4);
    let n = g.node_count();
    let model = |unit_of: Vec<u32>, units: usize| {
        SimConfig::new().resources(ResourceModel {
            unit_of,
            capacity: vec![1; units],
        })
    };
    assert_invalid(&g, &model(vec![0; n - 1], 1), "a table one cell short");
    assert_invalid(
        &g,
        &model(vec![1; n], 1),
        "a unit beyond the capacity table",
    );
    assert_checkpoint_restores(&g, &model(vec![0; n], 1));
}

#[test]
fn zero_latency_delays_are_invalid_config() {
    let g = chain(4);
    let arcs = g.arc_count();
    let delays = |forward: u64, ack: u64| {
        let mut d = ArcDelays::uniform(arcs);
        d.forward[2] = forward;
        d.ack[2] = ack;
        SimConfig::new().delays(d)
    };
    assert_invalid(&g, &delays(0, 1), "a zero result latency");
    assert_invalid(&g, &delays(1, 0), "a zero acknowledge latency");
    assert_checkpoint_restores(&g, &delays(1, 1));
}

#[test]
fn non_finite_fault_probability_is_invalid_config() {
    let g = chain(4);
    let plan = |p: f64| {
        SimConfig::new().fault_plan(FaultPlan {
            seed: 9,
            delay_result: p,
            delay_result_max: 2,
            ..Default::default()
        })
    };
    assert_invalid(&g, &plan(f64::NAN), "a NaN probability");
    assert_invalid(&g, &plan(f64::INFINITY), "an infinite probability");
    assert_checkpoint_restores(&g, &plan(0.25));
}
