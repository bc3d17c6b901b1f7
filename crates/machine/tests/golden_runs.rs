//! Golden runs: the whole `RunResult` and the final machine state of a
//! fixed set of configurations, pinned as digests. `kernel_equivalence`
//! checks the kernels against each other; these digests check both
//! against the machine as it was when they were recorded, so a change
//! to the step loop or the arc layout that moves both kernels in step
//! still fails here.
//!
//! The cases cover arc capacities 1, 2 and 3; dropped, duplicated and
//! delayed results; dropped and delayed acknowledges; cell freezes;
//! resource throttling; skewed per-arc latencies; fire-time recording;
//! and watchdog stalls. Each case runs on both kernels. The final state
//! is the checkpoint of a session stepped exactly as many instruction
//! times as the run took.
//!
//! After an intentional semantic change, print the new table with
//! `cargo test -p valpipe-machine --test golden_runs -- --nocapture`
//! and paste it over `GOLDEN`.

use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::{BinOp, UnOp, Value};
use valpipe_ir::{CtlStream, Graph};
use valpipe_machine::{
    ArcDelays, CellFreeze, FaultPlan, Kernel, ProgramInputs, ResourceModel, RunResult, SimConfig,
    Simulator, WatchdogConfig,
};
use valpipe_util::checksum64;

fn reals(v: &[f64]) -> Vec<Value> {
    v.iter().map(|&x| Value::Real(x)).collect()
}

/// An unbalanced diamond (paths of 3 and 1 cells into one join) with a
/// gated tap, next to a conditional (a gate pair, two arms and a
/// control-paced merge): with capacity above 1 the short path's arcs
/// queue several tokens, and the gates discard packets.
fn diamond() -> Graph {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let y = g.cell(Opcode::Bin(BinOp::Mul), "mul", &[a.into(), b.into()]);
    let l1 = g.cell(Opcode::Bin(BinOp::Add), "l1", &[y.into(), 2.0.into()]);
    let l2 = g.cell(Opcode::Id, "l2", &[l1.into()]);
    let l3 = g.cell(Opcode::Un(UnOp::Neg), "l3", &[l2.into()]);
    let join = g.cell(Opcode::Bin(BinOp::Sub), "join", &[l3.into(), y.into()]);
    let _ = g.cell(Opcode::Sink("out".into()), "out", &[join.into()]);
    let ctl = g.add_node(Opcode::CtlGen(CtlStream::window(4, 1, 2)), "ctl");
    let gate = g.cell(Opcode::TGate, "gate", &[ctl.into(), y.into()]);
    let _ = g.cell(Opcode::Sink("tap".into()), "tap", &[gate.into()]);
    let mctl = g.add_node(
        Opcode::CtlGen(CtlStream::from_runs([(true, 2), (false, 1)])),
        "mctl",
    );
    let tg = g.cell(Opcode::TGate, "tg", &[mctl.into(), b.into()]);
    let fg = g.cell(Opcode::FGate, "fg", &[mctl.into(), b.into()]);
    let t_arm = g.cell(Opcode::Bin(BinOp::Add), "t_arm", &[tg.into(), 100.0.into()]);
    let f_arm = g.cell(
        Opcode::Bin(BinOp::Mul),
        "f_arm",
        &[fg.into(), (-1.0).into()],
    );
    let m = g.add_node(Opcode::Merge, "merge");
    g.connect(mctl, m, 0);
    g.connect(t_arm, m, 1);
    g.connect(f_arm, m, 2);
    let _ = g.cell(Opcode::Sink("merged".into()), "merged", &[m.into()]);
    g
}

/// A source feeding a 3-cycle feedback loop (rate 1/3) next to a
/// 6-stage identity chain.
fn loop_and_chain() -> Graph {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let j = g.add_node(Opcode::Bin(BinOp::Add), "join");
    g.connect(a, j, 0);
    let l1 = g.cell(Opcode::Id, "l1", &[j.into()]);
    let l2 = g.cell(Opcode::Id, "l2", &[l1.into()]);
    g.connect_init(l2, j, 1, Value::Real(0.0));
    let _ = g.cell(Opcode::Sink("acc".into()), "acc", &[l2.into()]);
    let mut prev = a;
    for k in 0..6 {
        prev = g.cell(Opcode::Id, format!("s{k}"), &[prev.into()]);
    }
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[prev.into()]);
    g
}

fn inputs(n: usize) -> ProgramInputs {
    let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
    let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos() + 2.0).collect();
    ProgramInputs::new()
        .bind("a", reals(&xs))
        .bind("b", reals(&ys))
}

fn watchdog() -> WatchdogConfig {
    WatchdogConfig {
        step_budget: 4_000,
        progress_window: 200,
    }
}

fn skewed(arcs: usize) -> ArcDelays {
    ArcDelays {
        forward: (0..arcs).map(|i| 1 + (i as u64 * 7 % 4)).collect(),
        ack: (0..arcs).map(|i| 1 + (i as u64 * 5 % 3)).collect(),
    }
}

/// Every golden configuration, by name.
fn cases() -> Vec<(&'static str, Graph, SimConfig)> {
    let d = diamond();
    let l = loop_and_chain();
    let (da, la) = (d.arc_count(), l.arc_count());
    let dn = d.nodes.len();
    let throttle = ResourceModel {
        unit_of: (0..dn as u32).map(|i| i % 3).collect(),
        capacity: vec![1, 2, 1],
    };
    let results = FaultPlan {
        seed: 11,
        delay_result: 0.2,
        delay_result_max: 3,
        dup_result: 0.1,
        ..Default::default()
    };
    let acks = FaultPlan {
        seed: 12,
        delay_ack: 0.25,
        delay_ack_max: 4,
        ..Default::default()
    };
    vec![
        ("cap1", d.clone(), SimConfig::new()),
        ("cap2", d.clone(), SimConfig::new().arc_capacity(2)),
        ("cap3", d.clone(), SimConfig::new().arc_capacity(3)),
        (
            "loop_cap1_fire_times",
            l.clone(),
            SimConfig::new().record_fire_times(true),
        ),
        ("loop_cap3", l.clone(), SimConfig::new().arc_capacity(3)),
        (
            "result_delay_dup_cap1",
            d.clone(),
            SimConfig::new().fault_plan(results.clone()),
        ),
        (
            "result_delay_dup_cap3",
            d.clone(),
            SimConfig::new().arc_capacity(3).fault_plan(results),
        ),
        (
            "ack_delay_cap2",
            d.clone(),
            SimConfig::new().arc_capacity(2).fault_plan(acks),
        ),
        (
            "result_drop",
            d.clone(),
            SimConfig::new().watchdog(watchdog()).fault_plan(FaultPlan {
                seed: 13,
                drop_result: 0.01,
                ..Default::default()
            }),
        ),
        (
            "ack_drop_cap2",
            l.clone(),
            SimConfig::new()
                .arc_capacity(2)
                .watchdog(watchdog())
                .fault_plan(FaultPlan {
                    seed: 14,
                    drop_ack: 0.05,
                    ..Default::default()
                }),
        ),
        (
            "freezes",
            d.clone(),
            SimConfig::new().fault_plan(FaultPlan {
                seed: 15,
                freezes: vec![
                    CellFreeze {
                        node: 2,
                        from: 5,
                        until: 40,
                    },
                    CellFreeze {
                        node: 7,
                        from: 30,
                        until: 200,
                    },
                    CellFreeze {
                        node: 9,
                        from: 0,
                        until: 90,
                    },
                ],
                ..Default::default()
            }),
        ),
        (
            "throttled_cap2",
            d.clone(),
            SimConfig::new().arc_capacity(2).resources(throttle.clone()),
        ),
        (
            "skewed_delays",
            l.clone(),
            SimConfig::new().delays(skewed(la)),
        ),
        (
            "everything_cap2",
            d,
            SimConfig::new()
                .arc_capacity(2)
                .delays(skewed(da))
                .resources(throttle)
                .record_fire_times(true)
                .check_invariants(true)
                .watchdog(watchdog())
                .fault_plan(FaultPlan {
                    seed: 16,
                    delay_result: 0.15,
                    delay_result_max: 2,
                    dup_result: 0.1,
                    delay_ack: 0.15,
                    delay_ack_max: 3,
                    freezes: vec![CellFreeze {
                        node: 4,
                        from: 10,
                        until: 70,
                    }],
                    ..Default::default()
                }),
        ),
    ]
}

/// Digest of every field of a run, hash maps in name order.
fn result_digest(r: &RunResult) -> u64 {
    let mut outputs: Vec<_> = r.outputs.iter().collect();
    outputs.sort_by(|a, b| a.0.cmp(b.0));
    let mut emits: Vec<_> = r.source_emit_times.iter().collect();
    emits.sort_by(|a, b| a.0.cmp(b.0));
    let text = format!(
        "{} {:?} {:?} {:?} {:?} {} {} {} {} {:?} {:?}",
        r.steps,
        r.stop,
        outputs,
        r.fires,
        emits,
        r.sources_exhausted,
        r.total_fires,
        r.am_fires,
        r.fu_fires,
        r.fire_times,
        r.stall_report,
    );
    checksum64(text.as_bytes())
}

/// `(steps, result digest, final-state snapshot digest)` of one case.
fn golden(g: &Graph, cfg: &SimConfig, kernel: Kernel) -> (u64, u64, u64) {
    let cfg = cfg.clone().kernel(kernel);
    let r = Simulator::builder(g)
        .inputs(inputs(48))
        .config(cfg.clone())
        .run()
        .unwrap();
    let mut session = Simulator::builder(g)
        .inputs(inputs(48))
        .config(cfg)
        .build()
        .unwrap();
    while session.now() < r.steps {
        session.step().unwrap();
    }
    let snap = checksum64(session.checkpoint().as_bytes());
    (r.steps, result_digest(&r), snap)
}

/// `(case, steps, result digest, final-state snapshot digest)`,
/// recorded before the one-pass step and the inline arc slots.
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("cap1", 244, 0xd713ddc4dae4c601, 0x0624a1aca3ff0fa6),
    ("cap2", 125, 0xa62f1bedd9ac335b, 0x3d5e4d3473f8a6fa),
    ("cap3", 86, 0xeb47f0810feac59e, 0x49f6fbb23691c9a7),
    (
        "loop_cap1_fire_times",
        150,
        0xcf43dcd45b2aa72e,
        0xbec6a37c09d015ea,
    ),
    ("loop_cap3", 148, 0xa0b79988a9907908, 0x667f152e9bd4ecc9),
    (
        "result_delay_dup_cap1",
        318,
        0xa46a19e90c08d56e,
        0x4ec5cf0cfb085372,
    ),
    (
        "result_delay_dup_cap3",
        94,
        0x0e6f08a5416d941c,
        0x18955c57fcab9e5e,
    ),
    (
        "ack_delay_cap2",
        147,
        0xb12577ec23545672,
        0x6fbd9ba2f3e18dd4,
    ),
    ("result_drop", 64, 0xd0b1c2439c4d78ac, 0x798f01f7b9b14172),
    ("ack_drop_cap2", 25, 0x63422329df740205, 0x827f56c3427767a1),
    ("freezes", 430, 0x95db1431f5971b60, 0xc2088034e56a27b3),
    (
        "throttled_cap2",
        279,
        0x70ba44ed66d9418f,
        0x407591a789b22a0d,
    ),
    ("skewed_delays", 441, 0xb6fa55e52b5ce417, 0x9adb344f932a192e),
    (
        "everything_cap2",
        382,
        0xd8d2cfd9037b9aa8,
        0x0adb951fbb7f8d29,
    ),
];

#[test]
fn golden_runs_match_on_both_kernels() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (i, (name, g, cfg)) in cases().into_iter().enumerate() {
        let scan = golden(&g, &cfg, Kernel::Scan);
        let event = golden(&g, &cfg, Kernel::EventDriven);
        assert_eq!(scan, event, "{name}: kernels disagree");
        let (steps, result, snap) = scan;
        table += &format!("    (\"{name}\", {steps}, {result:#018x}, {snap:#018x}),\n");
        match GOLDEN.get(i) {
            Some(&(n, s, r, c)) if (n, s, r, c) == (name, steps, result, snap) => {}
            pinned => mismatches.push(format!("{name}: pinned {pinned:?}")),
        }
    }
    println!("const GOLDEN: &[(&str, u64, u64, u64)] = &[\n{table}];");
    assert!(
        mismatches.is_empty() && GOLDEN.len() == cases().len(),
        "golden runs moved:\n{}\nnew table:\n{table}",
        mismatches.join("\n")
    );
}
