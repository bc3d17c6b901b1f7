//! Generator tables: every `CtlGen` emits `CtlStream::at(k)` and every
//! `IdxGen` emits `lo + k mod len`, for `k` over at least three waves —
//! exactly, across a mid-wave checkpoint and restore, and across a
//! fast-forward jump.

use valpipe_ir::graph::Graph;
use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::Value;
use valpipe_ir::CtlStream;
use valpipe_machine::{
    Driven, Kernel, RunOutcome, RunResult, RunSpec, Session, SimConfig, Simulator,
};

/// The session a drive paused with.
fn paused(driven: Driven<'_>) -> Box<Session<'_>> {
    match driven.outcome {
        RunOutcome::Paused(s) => s,
        RunOutcome::Done(_) => panic!("the run must still be going at the pause"),
    }
}

/// One generator per entry, each feeding its own sink `s{k}`.
fn generators(ops: &[Opcode]) -> Graph {
    let mut g = Graph::new();
    for (k, op) in ops.iter().enumerate() {
        let gen = g.add_node(op.clone(), format!("gen{k}"));
        let _ = g.cell(
            Opcode::Sink(format!("s{k}")),
            format!("s{k}"),
            &[gen.into()],
        );
    }
    g
}

/// The packet generator `op` emits at cursor position `k`.
fn expected(op: &Opcode, k: u64) -> Value {
    match op {
        Opcode::CtlGen(s) => Value::Bool(s.at(k)),
        Opcode::IdxGen { lo, hi } => Value::Int(lo + (k % (hi - lo + 1) as u64) as i64),
        _ => unreachable!("not a generator"),
    }
}

fn wave_len(op: &Opcode) -> u64 {
    match op {
        Opcode::CtlGen(s) => s.wave_len() as u64,
        Opcode::IdxGen { lo, hi } => (hi - lo + 1) as u64,
        _ => unreachable!("not a generator"),
    }
}

/// Stop once every sink holds `waves` waves and one packet.
fn stops(ops: &[Opcode], waves: usize) -> Vec<(String, usize)> {
    ops.iter()
        .enumerate()
        .map(|(k, op)| (format!("s{k}"), waves * wave_len(op) as usize + 1))
        .collect()
}

fn assert_streams(ops: &[Opcode], r: &RunResult, ctx: &str) {
    for (k, op) in ops.iter().enumerate() {
        let got = r.values(&format!("s{k}"));
        assert!(
            got.len() as u64 > 3 * wave_len(op),
            "{ctx}: sink s{k} saw only {} packets",
            got.len()
        );
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, expected(op, i as u64), "{ctx}: generator {k} at {i}");
        }
    }
}

fn mixed() -> Vec<Opcode> {
    vec![
        // Wave lengths that are not multiples of 64, one that is, and a
        // single-run wave.
        Opcode::CtlGen(CtlStream::window(70, 3, 60)),
        Opcode::CtlGen(CtlStream::from_runs([(true, 100), (false, 29)])),
        Opcode::CtlGen(CtlStream::from_runs([(false, 1), (true, 62), (false, 1)])),
        Opcode::CtlGen(CtlStream::constant(true, 5)),
        Opcode::IdxGen { lo: -3, hi: 1 },
        Opcode::IdxGen { lo: 10, hi: 76 },
    ]
}

#[test]
fn generators_emit_their_streams_on_every_kernel() {
    let ops = mixed();
    let g = generators(&ops);
    for kernel in [Kernel::Scan, Kernel::EventDriven] {
        let r = Simulator::builder(&g)
            .config(SimConfig::new().stop_outputs(stops(&ops, 3)).kernel(kernel))
            .run()
            .unwrap();
        assert_streams(&ops, &r, &format!("{kernel:?}"));
    }
}

#[test]
fn generators_resume_mid_wave_after_checkpoint_and_restore() {
    let ops = mixed();
    let g = generators(&ops);
    let reference = Simulator::builder(&g)
        .config(SimConfig::new().stop_outputs(stops(&ops, 3)))
        .run()
        .unwrap();
    // Step 101 is mid-wave for every generator above (each fires every
    // second instruction time).
    let session = Simulator::builder(&g)
        .config(SimConfig::new().stop_outputs(stops(&ops, 3)))
        .build()
        .unwrap();
    let snap = paused(session.drive(RunSpec::new().pause_at(101)).unwrap()).checkpoint();
    for kernel in [Kernel::Scan, Kernel::EventDriven] {
        let resumed = Session::restore_with_kernel(&g, &snap, kernel)
            .unwrap()
            .drive(RunSpec::new())
            .unwrap()
            .result();
        assert_eq!(resumed, reference, "{kernel:?}: restored run differs");
        assert_streams(&ops, &resumed, &format!("restored on {kernel:?}"));
    }
}

#[test]
fn generators_survive_a_fast_forward_jump() {
    // Fast-forward proves a period only when skipping a window leaves
    // every generator's stream unchanged, so these streams repeat one
    // packet; the snapshot after the jump pins their cursors exactly.
    let ops = vec![
        Opcode::CtlGen(CtlStream::constant(false, 67)),
        Opcode::CtlGen(CtlStream::constant(true, 130)),
        Opcode::IdxGen { lo: 5, hi: 5 },
    ];
    let g = generators(&ops);
    let build = || {
        Simulator::builder(&g)
            .config(SimConfig::new().stop_outputs(stops(&ops, 40)))
            .build()
            .unwrap()
    };
    // Pause mid-wave, well after the jump.
    let at = 4001;
    let exact = paused(build().drive(RunSpec::new().pause_at(at)).unwrap());
    let driven = build()
        .drive(RunSpec::new().fast_forward(1).pause_at(at))
        .unwrap();
    assert!(
        driven.fast_forward.skipped_steps > 0,
        "fast-forward never jumped: {:?}",
        driven.fast_forward
    );
    let jumped = paused(driven);
    assert_eq!(
        jumped.checkpoint().as_bytes(),
        exact.checkpoint().as_bytes(),
        "generator cursors differ after the jump"
    );
    let jumped = jumped.drive(RunSpec::new()).unwrap().result();
    let exact = exact.drive(RunSpec::new()).unwrap().result();
    assert_eq!(jumped, exact, "fast-forwarded run differs from exact");
    assert_streams(&ops, &jumped, "fast-forward");
}
