//! Integration tests: the paper's published examples end-to-end across
//! every crate — parse → classify → compile → simulate → oracle → rate.

use std::collections::HashMap;
use valpipe::compiler::verify::{check_against_oracle, run};
use valpipe::val::parser::{parse_block_body, EXAMPLE_1, EXAMPLE_2, FIG3_PROGRAM};
use valpipe::SimConfig;
use valpipe::{compile_source, ArrayVal, CompileOptions, ForIterScheme};

fn fig3_inputs(m: usize) -> HashMap<String, ArrayVal> {
    let b: Vec<f64> = (0..m + 2).map(|i| 0.5 + (i as f64 * 0.37).sin()).collect();
    let c: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.21).cos()).collect();
    let mut h = HashMap::new();
    h.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    h.insert("C".to_string(), ArrayVal::from_reals(0, &c));
    h
}

#[test]
fn published_examples_parse_and_classify() {
    use valpipe::ir::Value;
    use valpipe::val::classify::{check_primitive_forall, check_primitive_foriter, NameEnv};
    use valpipe::val::BlockBody;

    let mut params = valpipe::val::fold::Bindings::new();
    params.insert("m".into(), Value::Int(32));
    let env = NameEnv::new(
        None,
        std::iter::empty(),
        ["A", "B", "C"].map(str::to_string),
        params,
    );

    let BlockBody::Forall(f) = parse_block_body(EXAMPLE_1).unwrap() else {
        panic!("Example 1 must parse as forall");
    };
    let pf = check_primitive_forall(&f, &env).unwrap();
    assert_eq!((pf.lo, pf.hi), (0, 33));

    let BlockBody::ForIter(fi) = parse_block_body(EXAMPLE_2).unwrap() else {
        panic!("Example 2 must parse as for-iter");
    };
    let pfi = check_primitive_foriter(&fi, &env).unwrap();
    assert_eq!(pfi.range(), (0, 31));
    // And it is a *simple* for-iter: the companion function is derivable.
    let lf = valpipe::val::extract_linear(&pfi.step_inlined(), &pfi.acc).unwrap();
    assert!(lf.alpha.mentions("A"));
    assert!(lf.beta.mentions("B"));
}

#[test]
fn fig3_program_full_stack() {
    let compiled = compile_source(FIG3_PROGRAM, &CompileOptions::default()).unwrap();
    // The for-iter got the companion scheme automatically.
    assert_eq!(
        compiled.stats.schemes["X"],
        valpipe::compiler::UsedScheme::Companion
    );
    let report = check_against_oracle(&compiled, &fig3_inputs(32), 25, 1e-9).unwrap();
    assert!(report.max_rel_err < 1e-9);
    let iv_a = report.run.timing("A").interval().unwrap();
    assert!((iv_a - 2.0).abs() < 0.1, "A interval {iv_a}");
}

#[test]
fn fig3_program_with_todd_is_slower_but_correct() {
    let mut opts = CompileOptions::default();
    opts.scheme = ForIterScheme::Todd;
    let compiled = compile_source(FIG3_PROGRAM, &opts).unwrap();
    let report = check_against_oracle(&compiled, &fig3_inputs(32), 25, 1e-9).unwrap();
    let iv_x = report.run.timing("X").interval().unwrap();
    assert!(iv_x > 3.5, "Todd X interval {iv_x} should be cycle-limited");
    // The slow loop back-pressures the whole upstream pipeline through the
    // acknowledgment discipline: even A's sink sees the degraded rate.
    // This is exactly why the paper needs the companion scheme — one
    // unpipelined recurrence throttles the entire program.
    let iv_a = report.run.timing("A").interval().unwrap();
    assert!(
        iv_a > 3.0,
        "A interval {iv_a} should be dragged down by the loop"
    );
}

#[test]
fn rates_stable_across_sizes() {
    for m in [8usize, 24, 64] {
        let src = FIG3_PROGRAM.replace("param m = 32;", &format!("param m = {m};"));
        let compiled = compile_source(&src, &CompileOptions::default()).unwrap();
        let report = check_against_oracle(&compiled, &fig3_inputs(m), 20, 1e-9).unwrap();
        let iv = report.run.timing("A").interval().unwrap();
        assert!(
            (iv - 2.0).abs() < 0.1,
            "m={m}: interval {iv} — the rate must not depend on array size"
        );
    }
}

#[test]
fn machine_code_listing_and_dot_cover_all_cells() {
    let compiled = compile_source(FIG3_PROGRAM, &CompileOptions::default()).unwrap();
    let listing = valpipe::ir::pretty::listing(&compiled.graph);
    assert_eq!(listing.lines().count(), compiled.graph.node_count());
    let dot = valpipe::ir::dot::to_dot(&compiled.graph, "fig3");
    assert_eq!(
        dot.matches("\n  n").count(),
        compiled.graph.node_count() + compiled.graph.arc_count()
    );
}

#[test]
fn executable_graph_has_no_symbolic_fifos() {
    let compiled = compile_source(FIG3_PROGRAM, &CompileOptions::default()).unwrap();
    let exe = compiled.executable();
    assert!(exe
        .nodes
        .iter()
        .all(|n| !matches!(n.op, valpipe::ir::Opcode::Fifo(_))));
    assert!(valpipe::ir::validate::validate(&exe).is_empty());
}

#[test]
fn detailed_machine_model_matches_values() {
    use valpipe::machine::{MachineConfig, Placement, Simulator};

    let compiled = compile_source(FIG3_PROGRAM, &CompileOptions::default()).unwrap();
    let exe = compiled.executable();
    let placement = Placement::round_robin(&exe, MachineConfig::default());
    let inputs = valpipe::compiler::verify::stream_inputs(&compiled, &fig3_inputs(32), 5);
    let r = Simulator::builder(&exe)
        .inputs(inputs)
        .config(placement.sim_config(&exe, 4).max_steps(2_000_000))
        .run()
        .unwrap();
    assert!(r.sources_exhausted, "detailed machine must drain all input");
    // Values identical to the idealized run (timing differs, data doesn't).
    let ideal = run(&compiled, &fig3_inputs(32), 5, SimConfig::new()).unwrap();
    let take = ideal.values("X").len().min(r.values("X").len());
    assert!(take > 0);
    assert_eq!(r.values("X")[..take], ideal.values("X")[..take]);
}

#[test]
fn rejects_non_pipelinable_programs() {
    // Nested forall (disallowed by the pipe-structured definition).
    let bad = "
param m = 4;
input B : array[real] [0, m];
A : array[real] := forall i in [0, m] construct B[2*i] endall;
output A;
";
    assert!(compile_source(bad, &CompileOptions::default()).is_err());

    // Dynamic range.
    let bad2 = "
input B : array[real] [0, 4];
A : array[real] := forall i in [0, B[0]] construct B[i] endall;
output A;
";
    assert!(compile_source(bad2, &CompileOptions::default()).is_err());
}

#[test]
fn latency_grows_with_depth_but_rate_does_not() {
    // §3's pipelining tradeoff, quantified: fill latency is linear in the
    // block count, throughput per input wave is constant.
    use valpipe::compiler::verify::run;
    let mut fills = Vec::new();
    for blocks in [4usize, 16] {
        let m = 2 * blocks + 12;
        let mut src = format!("param m = {m};\ninput S0 : array[real] [0, m+1];\n");
        for k in 1..=blocks {
            src.push_str(&format!(
                "S{k} : array[real] := forall i in [{k}, m+1-{k}] construct 0.5*(S{}[i-1] + S{}[i+1]) endall;\n",
                k - 1, k - 1
            ));
        }
        src.push_str(&format!("output S{blocks};\n"));
        let compiled = compile_source(&src, &CompileOptions::default()).unwrap();
        let vals: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut arrays = HashMap::new();
        arrays.insert("S0".to_string(), ArrayVal::from_reals(0, &vals));
        let r = run(&compiled, &arrays, 6, SimConfig::new()).unwrap();
        fills.push(r.fill_latency(&format!("S{blocks}")).unwrap());
    }
    assert!(
        fills[1] > 2 * fills[0],
        "deeper pipe must take longer to fill: {fills:?}"
    );
}

#[test]
fn closed_loop_machine_runs_feedback_loops() {
    // The companion-scheme loop (initial tokens + merge-seeded feedback)
    // must work when every packet crosses a real network.
    use valpipe_machine::{run_closed_loop, ClosedLoopOptions, MachineConfig, Placement};
    let compiled = compile_source(FIG3_PROGRAM, &CompileOptions::default()).unwrap();
    let exe = compiled.executable();
    let inputs = valpipe::compiler::verify::stream_inputs(&compiled, &fig3_inputs(32), 6);
    let ideal =
        valpipe::compiler::verify::run(&compiled, &fig3_inputs(32), 6, SimConfig::new()).unwrap();
    let placement = Placement::round_robin(
        &exe,
        MachineConfig {
            pes: 8,
            ..Default::default()
        },
    );
    let r = run_closed_loop(
        &exe,
        &inputs,
        &placement.pe_of,
        &ClosedLoopOptions {
            pes: 8,
            arc_capacity: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(r.sources_exhausted);
    for out in ["A", "X"] {
        let take = ideal.values(out).len().min(r.values(out).len());
        assert!(take > 100, "{out}: {take}");
        assert_eq!(r.values(out)[..take], ideal.values(out)[..take], "{out}");
    }
}
