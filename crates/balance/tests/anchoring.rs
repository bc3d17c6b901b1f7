//! Tests of source anchoring: inputs with different index origins start
//! at the same absolute machine time, so joins across differently-ranged
//! arrays need real skew buffers — while delaying a single source is free.

use valpipe_balance::{problem, solve};
use valpipe_ir::value::BinOp;
use valpipe_ir::{Graph, NodeId, Opcode};

/// One source fanning out to two taps at different offsets (the
/// compiler's Fig. 4 situation), joined elementwise.
fn fanout_tap_graph(phase_a: i32, phase_b: i32) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let src = g.add_node(Opcode::Source("c".into()), "c");
    let ta = g.add_node(Opcode::Id, "ta");
    g.connect_phase(src, ta, 0, phase_a);
    let tb = g.add_node(Opcode::Id, "tb");
    g.connect_phase(src, tb, 0, phase_b);
    let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[ta.into(), tb.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
    (g, src)
}

#[test]
fn fanout_tap_skew_is_fully_buffered() {
    // C[i] + C[i+2]: taps at phases 0 and 4 off the SAME stream. The
    // shared source cannot slide for one consumer only — the early branch
    // must buffer the whole 4-instruction-time skew (Fig. 4's FIFOs).
    let (g, src) = fanout_tap_graph(0, 4);
    let p = problem::extract_anchored(&g, &[(src, 0)]).unwrap();
    let opt = solve::solve_optimal(&p).unwrap();
    assert!(opt.is_feasible(&p));
    assert_eq!(opt.total_buffers, 4, "skew of 4 must be fully buffered");
}

#[test]
fn independent_sources_slide_for_free() {
    // Two different arrays joined with a phase difference: each source has
    // one consumer, so the late branch is absorbed by starting the other
    // source's stream later (a one-off transient) — no buffers at all.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let ta = g.add_node(Opcode::Id, "ta");
    g.connect_phase(a, ta, 0, 0);
    let tb = g.add_node(Opcode::Id, "tb");
    g.connect_phase(b, tb, 0, 4);
    let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[ta.into(), tb.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
    let p = problem::extract_anchored(&g, &[(a, 0), (b, 0)]).unwrap();
    let opt = solve::solve_optimal(&p).unwrap();
    assert!(opt.is_feasible(&p));
    assert_eq!(
        opt.total_buffers, 0,
        "single-consumer sources slide for free"
    );
}

#[test]
fn single_consumer_slide_is_free() {
    // One source feeding one deep chain and another source feeding a
    // shallow chain, joined at the end: the shallow source just starts
    // later (zero-cost anchor slack), no buffers needed.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let mut prev = a;
    for k in 0..6 {
        prev = g.cell(Opcode::Id, format!("d{k}"), &[prev.into()]);
    }
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let sh = g.cell(Opcode::Id, "sh", &[b.into()]);
    let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[prev.into(), sh.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
    let p = problem::extract(&g).unwrap();
    let opt = solve::solve_optimal(&p).unwrap();
    assert_eq!(
        opt.total_buffers, 0,
        "sliding the shallow source later costs nothing"
    );
    // ASAP (which pins everything early) needs real buffers instead.
    let asap = solve::solve_asap(&p).unwrap();
    assert_eq!(asap.total_buffers, 5);
}

#[test]
fn fanout_prevents_free_slide() {
    // The same shallow source ALSO feeds its own sink directly: now it
    // cannot slide freely (its other consumer runs at phase 0), so the
    // optimum must buffer the deep join's shallow branch.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let mut prev = a;
    for k in 0..6 {
        prev = g.cell(Opcode::Id, format!("d{k}"), &[prev.into()]);
    }
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let sh = g.cell(Opcode::Id, "sh", &[b.into()]);
    let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[prev.into(), sh.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
    let _ = g.cell(Opcode::Sink("b_raw".into()), "b_raw", &[b.into()]);
    let p = problem::extract(&g).unwrap();
    let opt = solve::solve_optimal(&p).unwrap();
    // b fans out: one branch must absorb the depth difference. (Sinks are
    // free-floating consumers, so the slide is still free here — unless a
    // sink is anchored. The invariant we check: optimal stays feasible and
    // no worse than ASAP.)
    let asap = solve::solve_asap(&p).unwrap();
    assert!(opt.is_feasible(&p));
    assert!(opt.total_buffers <= asap.total_buffers);
}

#[test]
fn contracted_negative_weights_solve() {
    // A loop supernode fed by two inputs at different interior stages
    // produces negative contracted weights; all solvers must handle them.
    let mut g = Graph::new();
    let s1 = g.add_node(Opcode::Source("s1".into()), "s1");
    let s2 = g.add_node(Opcode::Source("s2".into()), "s2");
    let n1 = g.add_node(Opcode::Bin(BinOp::Add), "n1");
    g.connect(s1, n1, 1);
    let n2 = g.add_node(Opcode::Bin(BinOp::Add), "n2");
    g.connect(n1, n2, 0);
    g.connect(s2, n2, 1);
    let n3 = g.cell(Opcode::Id, "n3", &[n2.into()]);
    g.connect_init(n3, n1, 0, valpipe_ir::Value::Real(0.0));
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[n3.into()]);
    let p = problem::extract(&g).unwrap();
    // s2 enters the loop one stage later than s1 → its contracted weight
    // is 1 + rel(n1) − rel(n2) = 0 relative… just assert solvability.
    for sol in [
        solve::solve_asap(&p),
        solve::solve_heuristic(&p, 32),
        solve::solve_optimal(&p),
    ] {
        assert!(sol.unwrap().is_feasible(&p));
    }
}

#[test]
fn alap_feasible_and_slack_nonnegative() {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let i1 = g.cell(Opcode::Id, "i1", &[a.into()]);
    let i2 = g.cell(Opcode::Id, "i2", &[i1.into()]);
    let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[i2.into(), a.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
    let p = problem::extract(&g).unwrap();
    let asap = solve::solve_asap(&p).unwrap();
    let alap = solve::solve_alap(&p).unwrap();
    assert!(alap.is_feasible(&p));
    // Every supernode's ALAP potential ≥ its ASAP potential (slack ≥ 0),
    // up to the common translation fixed by the shared horizon.
    for n in 0..p.n {
        assert!(
            alap.potential[n] >= asap.potential[n],
            "node {n}: alap {} < asap {}",
            alap.potential[n],
            asap.potential[n]
        );
    }
}
