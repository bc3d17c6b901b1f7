//! Checkpoint/restore: a snapshot taken mid-run — under faults, gates,
//! non-uniform delays, and a watchdog — must resume to the *bit-identical*
//! `RunResult` of an uninterrupted run, on either kernel and across a
//! kernel switch at the restore boundary. The committed golden fixture
//! pins the on-disk format: byte-for-byte stability is asserted, so any
//! format change must bump `SNAPSHOT_VERSION` and regenerate the fixture.

use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::{BinOp, Value};
use valpipe_ir::{CtlStream, Graph};
use valpipe_machine::{
    ArcDelays, FaultPlan, Kernel, ProgramInputs, RunResult, RunSpec, Session, SimConfig, Simulator,
    Snapshot, SnapshotError, WatchdogConfig, SNAPSHOT_VERSION,
};

fn reals(v: &[f64]) -> Vec<Value> {
    v.iter().map(|&x| Value::Real(x)).collect()
}

/// Fig. 2's expression pipeline plus a gated tap: exercises binary
/// cells, literals, a control generator, gate pass/discard accounting,
/// and two sinks.
fn workload_graph() -> Graph {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let y = g.cell(Opcode::Bin(BinOp::Mul), "mul", &[a.into(), b.into()]);
    let p = g.cell(Opcode::Bin(BinOp::Add), "add2", &[y.into(), 2.0.into()]);
    let q = g.cell(Opcode::Bin(BinOp::Sub), "sub3", &[y.into(), 3.0.into()]);
    let r = g.cell(Opcode::Bin(BinOp::Mul), "join", &[p.into(), q.into()]);
    let _ = g.cell(Opcode::Sink("out".into()), "out", &[r.into()]);
    let ctl = g.add_node(Opcode::CtlGen(CtlStream::window(4, 1, 2)), "ctl");
    let gate = g.cell(Opcode::TGate, "gate", &[ctl.into(), y.into()]);
    let _ = g.cell(Opcode::Sink("tap".into()), "tap", &[gate.into()]);
    g
}

fn workload_inputs(n: usize) -> ProgramInputs {
    let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
    let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos() + 2.0).collect();
    ProgramInputs::new()
        .bind("a", reals(&xs))
        .bind("b", reals(&ys))
}

/// A deliberately hostile configuration: non-uniform link latencies,
/// injected delays and duplicates, a watchdog, and fire-time recording.
/// (No drops: a dropped packet wedges its arc permanently, which is a
/// stall test, not a recovery test.)
fn faulted_config(arcs: usize) -> SimConfig {
    SimConfig::new()
        .max_steps(50_000)
        .delays(ArcDelays {
            forward: (0..arcs).map(|i| 1 + (i as u64 % 3)).collect(),
            ack: (0..arcs).map(|i| 1 + ((i as u64 + 1) % 2)).collect(),
        })
        .fault_plan(FaultPlan {
            seed: 0xC0FFEE,
            delay_result: 0.2,
            delay_result_max: 3,
            delay_ack: 0.1,
            delay_ack_max: 2,
            dup_result: 0.05,
            ..Default::default()
        })
        .watchdog(WatchdogConfig {
            step_budget: 40_000,
            progress_window: 1_000,
        })
        .record_fire_times(true)
}

fn straight_run(g: &Graph, inputs: &ProgramInputs, cfg: &SimConfig, kernel: Kernel) -> RunResult {
    Simulator::builder(g)
        .inputs(inputs.clone())
        .config(cfg.clone().kernel(kernel))
        .run()
        .unwrap()
}

/// Step to instruction time `k` under `run_kernel`, checkpoint, throw the
/// session away (the "crash"), restore under `resume_kernel`, run out.
fn crash_and_recover(
    g: &Graph,
    inputs: &ProgramInputs,
    cfg: &SimConfig,
    run_kernel: Kernel,
    resume_kernel: Kernel,
    k: u64,
) -> RunResult {
    let mut session = Simulator::builder(g)
        .inputs(inputs.clone())
        .config(cfg.clone().kernel(run_kernel))
        .build()
        .unwrap();
    while session.now() < k {
        session.step().unwrap();
    }
    let snap = session.checkpoint();
    drop(session);
    assert_eq!(snap.step(), k);
    let restored = Session::restore_with_kernel(g, &snap, resume_kernel).unwrap();
    assert_eq!(restored.now(), k);
    assert_eq!(restored.kernel(), resume_kernel);
    restored.drive(RunSpec::new()).unwrap().result()
}

#[test]
fn recovery_is_bit_identical_across_kernel_pairs() {
    let g = workload_graph();
    let inputs = workload_inputs(48);
    let cfg = faulted_config(g.arcs.len());
    let pairs = [
        (Kernel::Scan, Kernel::Scan),
        (Kernel::Scan, Kernel::EventDriven),
        (Kernel::EventDriven, Kernel::Scan),
        (Kernel::EventDriven, Kernel::EventDriven),
        (Kernel::Scan, Kernel::ParallelEvent(2)),
        (Kernel::EventDriven, Kernel::ParallelEvent(4)),
        (Kernel::ParallelEvent(2), Kernel::Scan),
        (Kernel::ParallelEvent(2), Kernel::EventDriven),
        (Kernel::ParallelEvent(2), Kernel::ParallelEvent(2)),
    ];
    for (run_k, resume_k) in pairs {
        let reference = straight_run(&g, &inputs, &cfg, resume_k);
        assert!(reference.steps > 100, "workload too short to crash into");
        for k in [0, 1, 13, 50, reference.steps / 2, reference.steps - 1] {
            let recovered = crash_and_recover(&g, &inputs, &cfg, run_k, resume_k, k);
            assert_eq!(
                recovered, reference,
                "recovered run diverged: crash at {k}, {run_k:?} -> {resume_k:?}"
            );
        }
    }
}

#[test]
fn default_restore_resumes_on_default_kernel() {
    let g = workload_graph();
    let inputs = workload_inputs(16);
    let cfg = SimConfig::new();
    let mut session = Simulator::builder(&g)
        .inputs(inputs.clone())
        .config(cfg.clone().kernel(Kernel::Scan))
        .build()
        .unwrap();
    for _ in 0..20 {
        session.step().unwrap();
    }
    let snap = session.checkpoint();
    let restored = Session::restore(&g, &snap).unwrap();
    assert_eq!(restored.kernel(), Kernel::default());
    assert_eq!(
        restored.drive(RunSpec::new()).unwrap().result(),
        straight_run(&g, &inputs, &cfg, Kernel::default())
    );
}

#[test]
fn drive_with_checkpoints_every_snapshot_resumes_identically() {
    let g = workload_graph();
    let inputs = workload_inputs(32);
    let cfg = faulted_config(g.arcs.len()).checkpoint_every(25);
    let session = Simulator::builder(&g)
        .inputs(inputs.clone())
        .config(cfg.clone())
        .build()
        .unwrap();
    let mut snaps = Vec::new();
    let reference = session
        .drive_with(RunSpec::new(), |s| snaps.push(s))
        .unwrap()
        .result();
    assert!(
        snaps.len() >= 4,
        "expected several periodic checkpoints, got {}",
        snaps.len()
    );
    for snap in &snaps {
        assert_eq!(snap.step() % 25, 0);
        let recovered = Session::restore(&g, snap)
            .unwrap()
            .drive(RunSpec::new())
            .unwrap()
            .result();
        assert_eq!(recovered, reference, "checkpoint at step {}", snap.step());
    }
}

#[test]
fn checkpoint_file_survives_crash_and_restores() {
    let g = workload_graph();
    let inputs = workload_inputs(32);
    let path = std::env::temp_dir().join(format!("valpipe_ckpt_{}.snap", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let cfg = faulted_config(g.arcs.len())
        .checkpoint_every(40)
        .checkpoint_path(path_str.clone());
    let reference = Simulator::builder(&g)
        .inputs(inputs.clone())
        .config(cfg.clone())
        .run()
        .unwrap();
    // The file holds the latest periodic checkpoint of the finished run;
    // pretend the process died right after it was written.
    let snap = Snapshot::read_from(&path).unwrap();
    assert!(snap.step() > 0 && snap.step() <= reference.steps);
    let recovered = Session::restore(&g, &snap)
        .unwrap()
        .drive(RunSpec::new())
        .unwrap()
        .result();
    assert_eq!(recovered, reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn unreadable_and_truncated_files_are_typed_errors() {
    let missing = std::env::temp_dir().join("valpipe_no_such_checkpoint.snap");
    assert!(matches!(
        Snapshot::read_from(&missing),
        Err(SnapshotError::Io(_))
    ));

    let g = workload_graph();
    let mut session = Simulator::builder(&g)
        .inputs(workload_inputs(8))
        .build()
        .unwrap();
    for _ in 0..5 {
        session.step().unwrap();
    }
    let bytes = session.checkpoint().as_bytes().to_vec();
    let path = std::env::temp_dir().join(format!("valpipe_trunc_{}.snap", std::process::id()));
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(Snapshot::read_from(&path), Err(SnapshotError::Truncated));
    std::fs::remove_file(&path).ok();
}

#[test]
fn stalled_runs_checkpoint_and_recover_too() {
    // An acknowledge-dropping plan wedges the pipe; the watchdog turns
    // that into a stall report. A run recovered from mid-flight must
    // reproduce the stall verdict bit for bit, report included.
    let g = workload_graph();
    let inputs = workload_inputs(64);
    let cfg = SimConfig::new()
        .fault_plan(FaultPlan {
            seed: 3,
            drop_ack: 0.02,
            ..Default::default()
        })
        .watchdog(WatchdogConfig {
            step_budget: 5_000,
            progress_window: 300,
        });
    let reference = straight_run(&g, &inputs, &cfg, Kernel::EventDriven);
    assert!(
        reference.stall_report.is_some(),
        "plan should wedge the pipe"
    );
    for k in [10, reference.steps / 2, reference.steps - 1] {
        let recovered = crash_and_recover(&g, &inputs, &cfg, Kernel::EventDriven, Kernel::Scan, k);
        assert_eq!(recovered, reference, "crash at {k}");
    }
}

// --- Golden fixture: pins snapshot format v1 byte for byte. ---

const GOLDEN_STEPS: u64 = 60;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v1.snap")
}

fn golden_snapshot() -> (Graph, ProgramInputs, SimConfig) {
    let g = workload_graph();
    let inputs = workload_inputs(40);
    let cfg = faulted_config(g.arcs.len())
        .stop_outputs(vec![("out".into(), 40), ("tap".into(), 20)])
        .checkpoint_every(500);
    (g, inputs, cfg)
}

fn capture_golden() -> (Graph, ProgramInputs, SimConfig, Snapshot) {
    let (g, inputs, cfg) = golden_snapshot();
    let snap = {
        let mut session = Simulator::builder(&g)
            .inputs(inputs.clone())
            .config(cfg.clone())
            .build()
            .unwrap();
        while session.now() < GOLDEN_STEPS {
            session.step().unwrap();
        }
        session.checkpoint()
    };
    (g, inputs, cfg, snap)
}

/// Regenerate the committed fixture after an intentional format change:
/// `cargo test -p valpipe-machine --test snapshot -- --ignored regenerate`
#[test]
#[ignore = "writes the golden fixture; run only on an intentional format bump"]
fn regenerate_golden_fixture() {
    let (_, _, _, snap) = capture_golden();
    std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
    std::fs::write(golden_path(), snap.as_bytes()).unwrap();
}

#[test]
fn golden_fixture_bytes_are_stable() {
    let (_, _, _, fresh) = capture_golden();
    let committed = std::fs::read(golden_path())
        .expect("fixture missing — run the ignored regenerate_golden_fixture test");
    assert_eq!(
        fresh.as_bytes(),
        &committed[..],
        "snapshot encoding changed; bump SNAPSHOT_VERSION and regenerate the fixture"
    );
}

#[test]
fn golden_fixture_restores_and_finishes() {
    let (g, inputs, cfg) = golden_snapshot();
    let snap = Snapshot::read_from(golden_path())
        .expect("fixture missing — run the ignored regenerate_golden_fixture test");
    assert_eq!(snap.version(), SNAPSHOT_VERSION);
    assert_eq!(snap.step(), GOLDEN_STEPS);
    assert_eq!(snap.fingerprint(), g.fingerprint());
    let reference = straight_run(&g, &inputs, &cfg, Kernel::EventDriven);
    assert_eq!(reference.stop, valpipe_machine::StopReason::OutputsReached);
    for kernel in [Kernel::Scan, Kernel::EventDriven, Kernel::ParallelEvent(2)] {
        let recovered = Session::restore_with_kernel(&g, &snap, kernel)
            .unwrap()
            .drive(RunSpec::new())
            .unwrap()
            .result();
        assert_eq!(recovered, reference, "fixture resumed on {kernel:?}");
    }
}
