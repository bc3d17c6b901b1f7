//! Semantic tests of the machine model: firing rules, acknowledge
//! pacing, gate discards, merge selection, stop conditions, and the
//! capacity/latency knobs used by the detailed-machine experiments.

use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::{BinOp, Value};
use valpipe_ir::{CtlStream, Graph};
use valpipe_machine::{ProgramInputs, SimConfig, Simulator, StopReason, Timing};

fn reals(v: &[f64]) -> Vec<Value> {
    v.iter().map(|&x| Value::Real(x)).collect()
}

#[test]
fn chain_latency_is_depth_plus_one() {
    // First packet arrives after (stages + 1) hops of 1 instruction time.
    for stages in [1usize, 5, 17] {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let mut prev = a;
        for k in 0..stages {
            prev = g.cell(Opcode::Id, format!("s{k}"), &[prev.into()]);
        }
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[prev.into()]);
        let r = Simulator::builder(&g)
            .inputs(ProgramInputs::new().bind("a", reals(&[1.0])))
            .run()
            .unwrap();
        let (t, _) = r.outputs["y"][0];
        // Source fires at 0; each cell adds one instruction time; the sink
        // records at its own firing.
        assert_eq!(t, stages as u64 + 1, "stages = {stages}");
    }
}

#[test]
fn merge_with_two_literal_operands_paced_by_control() {
    let mut g = Graph::new();
    let ctl = g.add_node(
        Opcode::CtlGen(CtlStream::from_runs([(true, 2), (false, 1)])),
        "ctl",
    );
    let m = g.add_node(Opcode::Merge, "m");
    g.connect(ctl, m, 0);
    g.set_lit(m, 1, Value::Real(1.0));
    g.set_lit(m, 2, Value::Real(2.0));
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[m.into()]);
    let r = Simulator::builder(&g)
        .config(SimConfig::new().stop_outputs(vec![("y".into(), 9)]))
        .run()
        .unwrap();
    assert_eq!(r.stop, StopReason::OutputsReached);
    assert_eq!(
        r.reals("y")[..9],
        [1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0]
    );
}

#[test]
fn fgate_complements_tgate() {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let ct = g.add_node(Opcode::CtlGen(CtlStream::window(4, 1, 2)), "ct");
    let cf = g.add_node(Opcode::CtlGen(CtlStream::window(4, 1, 2)), "cf");
    let tg = g.cell(Opcode::TGate, "t", &[ct.into(), a.into()]);
    let _ = g.cell(Opcode::Sink("t".into()), "st", &[tg.into()]);
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let fg = g.cell(Opcode::FGate, "f", &[cf.into(), b.into()]);
    let _ = g.cell(Opcode::Sink("f".into()), "sf", &[fg.into()]);
    let data = [0., 1., 2., 3., 4., 5., 6., 7.];
    let r = Simulator::builder(&g)
        .inputs(
            ProgramInputs::new()
                .bind("a", reals(&data))
                .bind("b", reals(&data)),
        )
        .run()
        .unwrap();
    assert_eq!(r.reals("t"), vec![1., 2., 5., 6.]);
    assert_eq!(r.reals("f"), vec![0., 3., 4., 7.]);
}

#[test]
fn capacity_two_links_halve_the_interval_under_latency() {
    // With forward/ack latency 2 each, capacity-1 links run at interval 4;
    // capacity-2 links restore pipelining across the in-flight gap.
    let build = || {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let i1 = g.cell(Opcode::Id, "i1", &[a.into()]);
        let i2 = g.cell(Opcode::Id, "i2", &[i1.into()]);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[i2.into()]);
        g
    };
    let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
    let mut ivs = Vec::new();
    for cap in [1usize, 2] {
        let g = build();
        let r = Simulator::builder(&g)
            .inputs(ProgramInputs::new().bind("a", reals(&data)))
            .config(
                SimConfig::new()
                    .arc_capacity(cap)
                    .delays(valpipe_machine::ArcDelays {
                        forward: vec![2; g.arc_count()],
                        ack: vec![2; g.arc_count()],
                    }),
            )
            .run()
            .unwrap();
        let t: Vec<u64> = r.outputs["y"].iter().map(|&(t, _)| t).collect();
        ivs.push(Timing::of(t).interval().unwrap());
    }
    assert!((ivs[0] - 4.0).abs() < 0.1, "cap1 interval {}", ivs[0]);
    assert!((ivs[1] - 2.0).abs() < 0.1, "cap2 interval {}", ivs[1]);
}

#[test]
fn fire_counts_and_times_recorded() {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let id = g.cell(Opcode::Id, "id", &[a.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[id.into()]);
    let r = Simulator::builder(&g)
        .inputs(ProgramInputs::new().bind("a", reals(&[1., 2., 3.])))
        .config(SimConfig::new().record_fire_times(true))
        .run()
        .unwrap();
    assert_eq!(r.fires, vec![3, 3, 3]);
    let ft = r.fire_times.unwrap();
    assert_eq!(ft[1].len(), 3);
    // Identity fires strictly after the source each round.
    assert!(ft[1][0] > ft[0][0]);
    assert_eq!(r.total_fires, 9);
}

#[test]
fn deadlocked_program_reports_unexhausted_sources() {
    // A join whose second operand never arrives.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[a.into(), b.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
    let r = Simulator::builder(&g)
        .inputs(
            ProgramInputs::new()
                .bind("a", reals(&[1., 2., 3., 4.]))
                .bind("b", reals(&[10.])),
        )
        .run()
        .unwrap();
    assert_eq!(r.stop, StopReason::Quiescent);
    assert!(!r.sources_exhausted);
    assert_eq!(r.reals("y"), vec![11.0]);
}

#[test]
fn source_emit_times_track_backpressure() {
    // A slow consumer (3-cell loop alternately blocking) should stretch
    // the source's emission spacing beyond 2.
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    // 3-cycle with one token between the source and sink: the loop's
    // merge-free structure forces interval 3 on everything upstream.
    let j = g.add_node(Opcode::Bin(BinOp::Add), "join");
    g.connect(a, j, 0);
    let l1 = g.cell(Opcode::Id, "l1", &[j.into()]);
    let l2 = g.cell(Opcode::Id, "l2", &[l1.into()]);
    g.connect_init(l2, j, 1, Value::Real(0.0));
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[l2.into()]);
    let data: Vec<f64> = (0..80).map(|i| i as f64).collect();
    let r = Simulator::builder(&g)
        .inputs(ProgramInputs::new().bind("a", reals(&data)))
        .run()
        .unwrap();
    let iv = r.source_timing("a").interval().unwrap();
    assert!(
        (iv - 3.0).abs() < 0.1,
        "source paced at {iv}, expected 3 (loop-limited)"
    );
}

#[test]
fn values_independent_of_issue_order() {
    // Same program under an aggressive resource throttle produces the same
    // value sequence (determinism + data-driven semantics).
    let build = || {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let b = g.add_node(Opcode::Source("b".into()), "b");
        let m = g.cell(Opcode::Bin(BinOp::Mul), "m", &[a.into(), b.into()]);
        let p = g.cell(Opcode::Bin(BinOp::Add), "p", &[m.into(), 1.0.into()]);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[p.into()]);
        g
    };
    let data: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
    let inputs = ProgramInputs::new()
        .bind("a", reals(&data))
        .bind("b", reals(&data));
    let free_g = build();
    let free = Simulator::builder(&free_g)
        .inputs(inputs.clone())
        .run()
        .unwrap();
    let throttled_g = build();
    let throttled = Simulator::builder(&throttled_g)
        .inputs(inputs)
        .config(SimConfig::new().resources(valpipe_machine::ResourceModel {
            unit_of: vec![0; 5],
            capacity: vec![1],
        }))
        .run()
        .unwrap();
    assert_eq!(free.values("y"), throttled.values("y"));
    assert!(throttled.steps > free.steps);
}

#[test]
fn stall_report_names_the_blocked_join() {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let b = g.add_node(Opcode::Source("b".into()), "b");
    let add = g.cell(Opcode::Bin(BinOp::Add), "the_join", &[a.into(), b.into()]);
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
    let r = Simulator::builder(&g)
        .inputs(
            ProgramInputs::new()
                .bind("a", reals(&[1., 2., 3.]))
                .bind("b", reals(&[])),
        )
        .run()
        .unwrap();
    assert!(!r.sources_exhausted);
    let report = r.stall_report.expect("stalled run must carry a report");
    assert_eq!(report.kind, valpipe_machine::StallKind::Deadlock);
    let join = report
        .blocked_cells
        .iter()
        .find(|c| c.label == "the_join")
        .expect("report must name the blocked join");
    assert_eq!(join.missing_ports, vec![1]);
    let text = report.to_string();
    assert!(text.contains("the_join"), "{text}");
    assert!(text.contains("port(s) [1]"), "{text}");
}

#[test]
fn successful_run_has_no_stall_report() {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let _ = g.cell(Opcode::Sink("y".into()), "y", &[a.into()]);
    let r = Simulator::builder(&g)
        .inputs(ProgramInputs::new().bind("a", reals(&[1.0])))
        .run()
        .unwrap();
    assert!(r.sources_exhausted);
    assert!(r.stall_report.is_none());
}
