//! Kernel equivalence: the event-driven and parallel kernels must
//! reproduce the scan kernel's `RunResult` *bit for bit* — same step
//! count, same stop reason, same output packets at the same instruction
//! times, same per-cell fire counts — on every regime the simulator
//! supports: clean pipelines, feedback loops, gates and merges, fault
//! plans (drops, duplicates, delays, freezes, link faults), resource
//! throttling, watchdog stalls, arc capacities, link latencies, and
//! early stop conditions. `ParallelEvent` is exercised at 1, 2, and 4
//! workers; wide-graph tests push hundreds of cells per tick through
//! it, so clean runs batch epochs across shards and every other run
//! takes its sequential event-step fallback.
//!
//! `RunResult` derives `PartialEq`, so each test is a single whole-run
//! comparison — nothing is projected out, nothing can drift silently.

use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::{BinOp, Value};
use valpipe_ir::{CtlStream, Graph};
use valpipe_machine::{
    CellFreeze, FaultPlan, Kernel, LinkFault, ProgramInputs, RunResult, RunSpec, SimConfig,
    Simulator, StopReason, WatchdogConfig,
};

fn reals(v: &[f64]) -> Vec<Value> {
    v.iter().map(|&x| Value::Real(x)).collect()
}

fn ramp(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64).collect()
}

/// Every kernel the simulator ships, in one sweep.
const ALL_KERNELS: [Kernel; 5] = [
    Kernel::Scan,
    Kernel::EventDriven,
    Kernel::ParallelEvent(1),
    Kernel::ParallelEvent(2),
    Kernel::ParallelEvent(4),
];

/// Run the same program under every kernel and assert whole-run equality.
fn assert_equivalent(g: &Graph, inputs: &ProgramInputs, cfg: SimConfig) -> RunResult {
    let run = |kernel: Kernel| {
        Simulator::builder(g)
            .inputs(inputs.clone())
            .config(cfg.clone().kernel(kernel))
            .run()
            .unwrap()
    };
    let scan = run(Kernel::Scan);
    for kernel in &ALL_KERNELS[1..] {
        let other = run(*kernel);
        assert_eq!(scan, other, "{kernel:?} must agree with Scan bit-for-bit");
    }
    scan
}

/// Fig. 2 regime: an acknowledged identity chain.
fn chain(stages: usize) -> Graph {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let mut prev = a;
    for k in 0..stages {
        prev = g.cell(Opcode::Id, format!("s{k}"), &[prev.into()]);
    }
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[prev.into()]);
    g
}

/// Todd's counterexample regime: a source feeding a 3-cycle feedback loop.
fn three_cycle() -> Graph {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let j = g.add_node(Opcode::Bin(BinOp::Add), "join");
    g.connect(a, j, 0);
    let l1 = g.cell(Opcode::Id, "l1", &[j.into()]);
    let l2 = g.cell(Opcode::Id, "l2", &[l1.into()]);
    g.connect_init(l2, j, 1, Value::Real(0.0));
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[l2.into()]);
    g
}

/// A conditional: gate pair, distinct arms, control-paced merge.
fn conditional() -> Graph {
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
    g
}

#[test]
fn clean_chain_and_loop_and_conditional() {
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(64)));
    let r = assert_equivalent(&chain(8), &inputs, SimConfig::new());
    assert!(r.sources_exhausted);
    assert!((r.timing("y").interval().unwrap() - 2.0).abs() < 1e-9);

    let r = assert_equivalent(&three_cycle(), &inputs, SimConfig::new());
    assert!((r.timing("y").interval().unwrap() - 3.0).abs() < 1e-9);

    let r = assert_equivalent(&conditional(), &inputs, SimConfig::new());
    assert!(r.sources_exhausted);
    assert_eq!(r.values("y").len(), 64);
}

#[test]
fn fire_time_recording_matches() {
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(32)));
    let r = assert_equivalent(&chain(5), &inputs, SimConfig::new().record_fire_times(true));
    assert!(r.fire_times.is_some());
}

#[test]
fn capacities_and_link_latencies_match() {
    let g = chain(4);
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(50)));
    for cap in [1usize, 2, 4] {
        for (fwd, ack) in [(1u64, 1u64), (2, 2), (3, 1)] {
            let cfg = SimConfig::new()
                .arc_capacity(cap)
                .delays(valpipe_machine::ArcDelays {
                    forward: vec![fwd; g.arc_count()],
                    ack: vec![ack; g.arc_count()],
                });
            let r = assert_equivalent(&g, &inputs, cfg);
            assert!(r.sources_exhausted, "cap {cap} fwd {fwd} ack {ack}");
        }
    }
}

#[test]
fn resource_throttling_matches() {
    // One shared unit with budget 1: only one cell may initiate per
    // instruction time, so the scan order (= node index order) is the
    // arbitration order. The event kernel must arbitrate identically.
    let g = conditional();
    let n = g.node_count();
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(45)));
    for budget in [1u32, 2, 3] {
        let cfg = SimConfig::new().resources(valpipe_machine::ResourceModel {
            unit_of: vec![0; n],
            capacity: vec![budget],
        });
        let r = assert_equivalent(&g, &inputs, cfg);
        assert!(r.sources_exhausted, "budget {budget}");
    }
}

#[test]
fn probabilistic_fault_plans_match() {
    // Faults are seeded per (arc, step), so a fate decided at the same
    // instruction time lands identically under both kernels.
    let g = conditional();
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(40)));
    for seed in [1u64, 7, 23, 42] {
        let plan = FaultPlan {
            seed,
            delay_result: 0.3,
            delay_result_max: 5,
            delay_ack: 0.2,
            delay_ack_max: 3,
            dup_result: 0.05,
            ..Default::default()
        };
        let r = assert_equivalent(&g, &inputs, SimConfig::new().fault_plan(plan));
        assert!(r.sources_exhausted, "seed {seed}");
    }
}

#[test]
fn lossy_fault_plans_and_deadlocks_match() {
    // Dropped results/acks wedge the pipe; the deadlock step and the
    // stall report must agree exactly.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let add = g.cell(Opcode::Bin(BinOp::Add), "join", &[a.into(), b.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
    let inputs = ProgramInputs::new()
        .bind("a", reals(&ramp(40)))
        .bind("b", reals(&ramp(40)));
    for (drop_result, drop_ack) in [(0.0, 0.3), (0.2, 0.0), (0.1, 0.1)] {
        let plan = FaultPlan {
            seed: 11,
            drop_result,
            drop_ack,
            ..Default::default()
        };
        let cfg = SimConfig::new().fault_plan(plan).check_invariants(true);
        let r = assert_equivalent(&g, &inputs, cfg);
        assert!(!r.sources_exhausted);
        assert!(r.stall_report.is_some());
    }
}

#[test]
fn cell_freezes_and_link_faults_match() {
    let g = chain(6);
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(24)));
    // Transient freeze: cell 3 is out for steps 10..60, then recovers.
    let plan = FaultPlan {
        freezes: vec![CellFreeze {
            node: 3,
            from: 10,
            until: 60,
        }],
        ..Default::default()
    };
    let r = assert_equivalent(&g, &inputs, SimConfig::new().fault_plan(plan));
    assert!(
        r.sources_exhausted,
        "a transient freeze must drain eventually"
    );

    // Overlapping freezes on two cells.
    let plan = FaultPlan {
        freezes: vec![
            CellFreeze {
                node: 2,
                from: 5,
                until: 40,
            },
            CellFreeze {
                node: 3,
                from: 20,
                until: 70,
            },
        ],
        ..Default::default()
    };
    assert_equivalent(&g, &inputs, SimConfig::new().fault_plan(plan));

    // A link outage on the first chain arc.
    let plan = FaultPlan {
        link_faults: vec![LinkFault {
            stage: 1,
            port: 0,
            from: 8,
            until: 30,
        }],
        ..Default::default()
    };
    assert_equivalent(&g, &inputs, SimConfig::new().fault_plan(plan));
}

/// Run under every kernel, checkpointing after every one of the first
/// `window` steps, then drive to completion; assert the checkpoint bytes
/// at each step and the whole `RunResult` agree with the scan kernel's.
fn assert_equivalent_stepwise(g: &Graph, inputs: &ProgramInputs, cfg: SimConfig, window: u64) {
    let run = |kernel: Kernel| {
        let mut s = Simulator::builder(g)
            .inputs(inputs.clone())
            .config(cfg.clone().kernel(kernel))
            .build()
            .unwrap();
        let mut snaps = Vec::new();
        for _ in 0..window {
            s.step().unwrap();
            snaps.push(s.checkpoint().as_bytes().to_vec());
        }
        (snaps, s.drive(RunSpec::new()).unwrap().result())
    };
    let (scan_snaps, scan) = run(Kernel::Scan);
    for kernel in &ALL_KERNELS[1..] {
        let (snaps, other) = run(*kernel);
        for (k, (a, b)) in scan_snaps.iter().zip(&snaps).enumerate() {
            assert!(a == b, "{kernel:?} snapshot after step {} differs", k + 1);
        }
        assert_eq!(scan, other, "{kernel:?} must agree with Scan bit-for-bit");
    }
}

/// Non-uniform delays over `g`'s arcs, a fixed pattern per arc.
fn skewed_delays(g: &Graph) -> valpipe_machine::ArcDelays {
    valpipe_machine::ArcDelays {
        forward: (0..g.arc_count()).map(|i| 1 + (i % 3) as u64).collect(),
        ack: (0..g.arc_count()).map(|i| 1 + (i * 5 % 7) as u64).collect(),
    }
}

#[test]
fn acknowledge_release_on_frozen_producers_matches() {
    // An acknowledge slot is released when its producer is due, so a
    // producer frozen across the slot's expiry must still release it on
    // time: every checkpoint taken inside the freeze window must be
    // byte-identical to the scan kernel's, which releases every arc.
    let g = chain(6);
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(24)));
    for (cap, node) in [(1usize, 2usize), (2, 2), (2, 4), (3, 1)] {
        let plan = FaultPlan {
            freezes: vec![CellFreeze {
                node,
                from: 12,
                until: 41,
            }],
            ..Default::default()
        };
        let cfg = SimConfig::new()
            .arc_capacity(cap)
            .delays(skewed_delays(&g))
            .fault_plan(plan);
        assert_equivalent_stepwise(&g, &inputs, cfg, 60);
    }
}

#[test]
fn gates_refire_with_full_outputs_under_capacity() {
    // A discarding gate fires with its output arc full, so a gate that
    // has just filled its output must still be re-examined while tokens
    // queue on its inputs (arc capacity > 1). Here the gate's consumer
    // waits on a second operand paced by a slow acknowledge, so the
    // gate spends most of the run blocked on a full output with full
    // input queues, and each pass is followed by discards.
    for (t_run, f_run) in [(1u32, 1u32), (1, 3), (2, 2)] {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let ctl = g.add_node(
            Opcode::CtlGen(CtlStream::from_runs([(true, t_run), (false, f_run)])),
            "ctl",
        );
        let b = g.add_node(Opcode::Source("b".into()), "b");
        let tg = g.cell(Opcode::TGate, "tg", &[ctl.into(), a.into()]);
        let sum = g.cell(Opcode::Bin(BinOp::Add), "sum", &[tg.into(), b.into()]);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[sum.into()]);
        let paced = g.nodes[b.idx()].outputs[0].idx();
        let inputs = ProgramInputs::new()
            .bind("a", reals(&ramp(48)))
            .bind("b", reals(&ramp(48)));
        for cap in [1usize, 2, 3] {
            for slow in [3u64, 5] {
                let mut delays = valpipe_machine::ArcDelays {
                    forward: vec![1; g.arc_count()],
                    ack: vec![1; g.arc_count()],
                };
                delays.ack[paced] = slow;
                let cfg = SimConfig::new().arc_capacity(cap).delays(delays);
                assert_equivalent_stepwise(&g, &inputs, cfg, 40);
            }
        }
    }
}

#[test]
fn permanent_freeze_watchdog_stall_matches() {
    // A cell frozen forever wedges the run; the watchdog fires at the
    // same step with the same diagnosis under both kernels.
    let g = chain(4);
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(8)));
    let cfg = SimConfig::new()
        .fault_plan(FaultPlan {
            freezes: vec![CellFreeze {
                node: 2,
                from: 0,
                until: 1 << 40,
            }],
            ..Default::default()
        })
        .watchdog(WatchdogConfig {
            step_budget: 3_000,
            ..Default::default()
        })
        .check_invariants(true);
    let r = assert_equivalent(&g, &inputs, cfg);
    assert_eq!(r.stop, StopReason::Stalled);
}

#[test]
fn livelock_and_budget_exhaustion_match() {
    // Livelock: a closed spinning loop fires forever without progress.
    let mut g = Graph::new();
    let n1 = g.add_node(Opcode::Id, "spin1");
    let n2 = g.add_node(Opcode::Id, "spin2");
    g.connect(n1, n2, 0);
    g.connect_init(n2, n1, 0, Value::Real(1.0));
    let cfg = SimConfig::new().watchdog(WatchdogConfig {
        step_budget: 50_000,
        progress_window: 64,
    });
    let r = assert_equivalent(&g, &ProgramInputs::new(), cfg);
    assert_eq!(r.stop, StopReason::Stalled);

    // Budget exhaustion: a healthy pipe cut off mid-stream.
    let g = chain(2);
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(200)));
    let cfg = SimConfig::new().watchdog(WatchdogConfig {
        step_budget: 40,
        ..Default::default()
    });
    let r = assert_equivalent(&g, &inputs, cfg);
    assert_eq!(r.steps, 40);
}

#[test]
fn stop_outputs_and_max_steps_match() {
    // Early stop on output count.
    let g = three_cycle();
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(100)));
    let cfg = SimConfig::new().stop_outputs(vec![("y".into(), 20)]);
    let r = assert_equivalent(&g, &inputs, cfg);
    assert_eq!(r.stop, StopReason::OutputsReached);
    assert!(r.values("y").len() >= 20);

    // Hard step cap mid-flight.
    let r = assert_equivalent(&g, &inputs, SimConfig::new().max_steps(37));
    assert_eq!(r.stop, StopReason::MaxSteps);
    assert_eq!(r.steps, 37);
}

/// A wide program — `chains` independent pipelines side by side — so a
/// steady-state tick has hundreds of cells due and a clean parallel run
/// batches epochs across several populated shards.
fn wide(chains: usize, stages: usize) -> (Graph, ProgramInputs) {
    let mut g = Graph::new();
    let mut inputs = ProgramInputs::new();
    for c in 0..chains {
        let name = format!("a{c}");
        let a = g.add_node(Opcode::Source(name.clone()), &name);
        let mut prev = a;
        for k in 0..stages {
            prev = if (c + k) % 2 == 0 {
                g.cell(Opcode::Id, format!("s{c}_{k}"), &[prev.into()])
            } else {
                g.cell(
                    Opcode::Bin(BinOp::Add),
                    format!("s{c}_{k}"),
                    &[prev.into(), (c as f64).into()],
                )
            };
        }
        let _ = g.cell(
            Opcode::Sink(format!("y{c}")),
            format!("y{c}"),
            &[prev.into()],
        );
        inputs = inputs.bind(&name, reals(&ramp(24)));
    }
    (g, inputs)
}

#[test]
fn wide_clean_pipeline_matches_across_workers() {
    let (g, inputs) = wide(128, 6);
    assert!(
        g.node_count() >= 1000,
        "must be wide enough to populate every shard"
    );
    let r = assert_equivalent(&g, &inputs, SimConfig::new().check_invariants(true));
    assert!(r.sources_exhausted);
    assert_eq!(r.values("y17").len(), 24);
}

#[test]
fn wide_faulted_throttled_latent_pipeline_matches() {
    let (g, inputs) = wide(96, 5);
    let n = g.node_count();
    let cfg = SimConfig::new()
        .fault_plan(FaultPlan {
            seed: 99,
            delay_result: 0.2,
            delay_result_max: 4,
            delay_ack: 0.1,
            delay_ack_max: 3,
            dup_result: 0.04,
            ..Default::default()
        })
        .resources(valpipe_machine::ResourceModel {
            unit_of: (0..n as u32).map(|i| i % 4).collect(),
            capacity: vec![64; 4],
        })
        .arc_capacity(2)
        .delays(valpipe_machine::ArcDelays {
            forward: vec![2; g.arc_count()],
            ack: vec![1; g.arc_count()],
        })
        .check_invariants(true);
    let r = assert_equivalent(&g, &inputs, cfg);
    assert!(r.sources_exhausted);
}

#[test]
fn wide_watchdog_stall_matches() {
    // Freeze a band of cells forever: the run wedges and every kernel
    // must report the identical stall at the identical step.
    let (g, inputs) = wide(100, 4);
    let cfg = SimConfig::new()
        .fault_plan(FaultPlan {
            freezes: (0..40)
                .map(|i| CellFreeze {
                    node: 7 + 6 * i,
                    from: 12,
                    until: 1 << 40,
                })
                .collect(),
            ..Default::default()
        })
        .watchdog(WatchdogConfig {
            step_budget: 2_000,
            ..Default::default()
        })
        .check_invariants(true);
    let r = assert_equivalent(&g, &inputs, cfg);
    assert_eq!(r.stop, StopReason::Stalled);
}

#[test]
fn wide_planning_error_surfaces_identically() {
    // Adding a boolean is a planning-time Eval error; the parallel
    // kernel must surface the same first error the sequential plan
    // order would, from the same step, with no partial firing.
    let (mut g, inputs) = wide(110, 3);
    let ctl = g.add_node(Opcode::CtlGen(CtlStream::from_runs([(true, 1)])), "badctl");
    let bad = g.cell(Opcode::Bin(BinOp::Add), "bad", &[ctl.into(), 1.0.into()]);
    let _ = g.cell(Opcode::Sink("z".into()), "z", &[bad.into()]);
    let errs: Vec<String> = [
        Kernel::Scan,
        Kernel::EventDriven,
        Kernel::ParallelEvent(2),
        Kernel::ParallelEvent(4),
    ]
    .into_iter()
    .map(|kernel| {
        Simulator::builder(&g)
            .inputs(inputs.clone())
            .config(SimConfig::new().kernel(kernel))
            .run()
            .unwrap_err()
            .to_string()
    })
    .collect();
    for e in &errs[1..] {
        assert_eq!(&errs[0], e, "kernels must report the same first error");
    }
}

#[test]
fn faults_plus_throttling_plus_latency_compose() {
    // The unholy trinity: seeded delays, a shared-unit throttle, and
    // non-unit link latencies, all at once.
    let g = conditional();
    let n = g.node_count();
    let inputs = ProgramInputs::new().bind("a", reals(&ramp(30)));
    let cfg = SimConfig::new()
        .fault_plan(FaultPlan {
            seed: 5,
            delay_result: 0.25,
            delay_result_max: 4,
            ..Default::default()
        })
        .resources(valpipe_machine::ResourceModel {
            unit_of: vec![0; n],
            capacity: vec![2],
        })
        .arc_capacity(2)
        .delays(valpipe_machine::ArcDelays {
            forward: vec![2; g.arc_count()],
            ack: vec![1; g.arc_count()],
        })
        .check_invariants(true);
    let r = assert_equivalent(&g, &inputs, cfg);
    assert!(r.sources_exhausted);
}
