//! End-to-end compiler tests: the paper's examples, compiled, simulated,
//! checked against the interpreter, and measured at the predicted rates.

use crate::options::{CompileOptions, ForIterScheme};
use crate::program::compile_source;
use crate::verify::check_against_oracle;
use std::collections::HashMap;
use valpipe_balance::BalanceMode;
use valpipe_val::interp::ArrayVal;
use valpipe_val::parser::FIG3_PROGRAM;

fn arrays(m: usize) -> HashMap<String, ArrayVal> {
    let b: Vec<f64> = (0..m + 2).map(|i| 0.5 + (i as f64 * 0.37).sin()).collect();
    let c: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.21).cos()).collect();
    let mut h = HashMap::new();
    h.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    h.insert("C".to_string(), ArrayVal::from_reals(0, &c));
    h
}

/// Example 1 wrapped as a standalone program.
fn example1_src(m: usize) -> String {
    format!(
        "
param m = {m};
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real :=
      if (i = 0)|(i = m+1) then C[i]
      else
        0.25 * (C[i-1] + 2.*C[i] + C[i+1])
      endif;
  construct
    B[i]*(P*P)
  endall;
output A;
"
    )
}

/// Example 2 wrapped as a standalone program (A, B as inputs).
fn example2_src(m: usize) -> String {
    format!(
        "
param m = {m};
input A : array[real] [0, m+1];
input B : array[real] [0, m+1];
X : array[real] :=
  for
    i : integer := 1;
    T : array[real] := [0: 0.]
  do
    let P : real := A[i]*T[i-1] + B[i]
    in
      if i < m then
        iter T := T[i: P]; i := i + 1 enditer
      else T
      endif
    endlet
  endfor;
output X;
"
    )
}

fn ex2_arrays(m: usize) -> HashMap<String, ArrayVal> {
    let a: Vec<f64> = (0..m + 2)
        .map(|i| 0.9 + 0.01 * (i as f64 * 0.7).sin())
        .collect();
    let b: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.13).cos()).collect();
    let mut h = HashMap::new();
    h.insert("A".to_string(), ArrayVal::from_reals(0, &a));
    h.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    h
}

#[test]
fn fig4_stencil_correct_and_fully_pipelined() {
    let src = "
param m = 16;
input C : array[real] [0, m+1];
S : array[real] := forall i in [1, m] construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endall;
output S;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    let c: Vec<f64> = (0..18).map(|i| (i as f64 * 0.4).sin()).collect();
    let mut inputs = HashMap::new();
    inputs.insert("C".to_string(), ArrayVal::from_reals(0, &c));
    let report = check_against_oracle(&compiled, &inputs, 30, 1e-12).unwrap();
    let iv = report.run.timing("S").interval().expect("enough packets");
    // 16 useful elements per 18-element input wave → interval 18/16 · 2.
    let expected = 2.0 * 18.0 / 16.0;
    assert!(
        (iv - expected).abs() < 0.15,
        "stencil interval {iv}, expected ≈ {expected}"
    );
}

#[test]
fn fig6_example1_forall_correct_and_pipelined() {
    let m = 16;
    let compiled = compile_source(&example1_src(m), &CompileOptions::default()).unwrap();
    let report = check_against_oracle(&compiled, &arrays(m), 30, 1e-12).unwrap();
    // Output has m+2 elements per wave of m+2 inputs → full rate 1/2.
    let iv = report.run.timing("A").interval().unwrap();
    assert!((iv - 2.0).abs() < 0.1, "Example 1 interval {iv} ≉ 2");
}

#[test]
fn fig6_example1_unbalanced_ablation_is_slower() {
    let m = 16;
    let mut opts = CompileOptions::default();
    opts.balance = BalanceMode::None;
    let compiled = compile_source(&example1_src(m), &opts).unwrap();
    // Still correct…
    let report = check_against_oracle(&compiled, &arrays(m), 30, 1e-12).unwrap();
    // …but no longer at the maximum rate.
    let iv = report.run.timing("A").interval().unwrap();
    assert!(
        iv > 2.2,
        "unbalanced Example 1 interval {iv} should exceed 2"
    );
}

#[test]
fn fig7_example2_todd_rate_one_quarter() {
    let m = 16;
    let mut opts = CompileOptions::default();
    opts.scheme = ForIterScheme::Todd;
    let compiled = compile_source(&example2_src(m), &opts).unwrap();
    let report = check_against_oracle(&compiled, &ex2_arrays(m), 30, 1e-9).unwrap();
    // Cycle of 4 cells (MULT, ADD, MERGE, feedback gate), one circulating
    // value → one element per 4 instruction times. (The paper's Fig. 7
    // counts 3 because its output switch is a destination condition, not
    // a separate cell.)
    let iv = report.run.timing("X").interval().unwrap();
    assert!(
        (iv - 4.0).abs() < 0.2,
        "Todd scheme interval {iv}, expected ≈ 4"
    );
}

#[test]
fn fig8_example2_companion_rate_one_half() {
    let m = 16;
    let mut opts = CompileOptions::default();
    opts.scheme = ForIterScheme::Companion;
    let compiled = compile_source(&example2_src(m), &opts).unwrap();
    // Companion reassociates float products: tolerance, not equality.
    let report = check_against_oracle(&compiled, &ex2_arrays(m), 30, 1e-9).unwrap();
    // Output wave has m elements per m+2 input wave: interval (m+2)/m · 2.
    let iv = report.run.timing("X").interval().unwrap();
    let expected = 2.0 * (m as f64 + 2.0) / m as f64;
    assert!(
        (iv - expected).abs() < 0.2,
        "companion interval {iv}, expected ≈ {expected}"
    );
}

#[test]
fn auto_scheme_picks_companion_for_linear() {
    let m = 12;
    let compiled = compile_source(&example2_src(m), &CompileOptions::default()).unwrap();
    assert_eq!(
        compiled.stats.schemes["X"],
        crate::foriter::UsedScheme::Companion
    );
}

#[test]
fn nonlinear_recurrence_falls_back_to_todd_and_is_correct() {
    let m = 10;
    let src = format!(
        "
param m = {m};
input B : array[real] [0, m+1];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.5]
  do
    if i < m then
      iter T := T[i: T[i-1]*T[i-1] + B[i]*0.1]; i := i + 1 enditer
    else T
    endif
  endfor;
output X;
"
    );
    let compiled = compile_source(&src, &CompileOptions::default()).unwrap();
    assert_eq!(
        compiled.stats.schemes["X"],
        crate::foriter::UsedScheme::Todd
    );
    let b: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.3).sin()).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    check_against_oracle(&compiled, &inputs, 10, 1e-9).unwrap();
}

#[test]
fn companion_requested_on_nonlinear_fails_cleanly() {
    let src = "
param m = 6;
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 1.]
  do
    if i < m then iter T := T[i: T[i-1]*T[i-1]]; i := i + 1 enditer else T endif
  endfor;
output X;
";
    let mut opts = CompileOptions::default();
    opts.scheme = ForIterScheme::Companion;
    let err = compile_source(src, &opts).unwrap_err();
    assert!(matches!(err, crate::error::CompileError::Unsupported(_)));
}

#[test]
fn fig3_whole_program_correct_and_pipelined() {
    let compiled = compile_source(FIG3_PROGRAM, &CompileOptions::default()).unwrap();
    let report = check_against_oracle(&compiled, &arrays(32), 20, 1e-9).unwrap();
    assert!(report.packets_checked > 0);
    // Both outputs flow at full rate (per their wave lengths): A has m+2
    // elements per wave, X has m.
    let iv_a = report.run.timing("A").interval().unwrap();
    assert!((iv_a - 2.0).abs() < 0.1, "A interval {iv_a}");
    let iv_x = report.run.timing("X").interval().unwrap();
    let expected_x = 2.0 * 34.0 / 32.0;
    assert!(
        (iv_x - expected_x).abs() < 0.2,
        "X interval {iv_x}, expected ≈ {expected_x}"
    );
}

#[test]
fn dynamic_conditional_correct_and_pipelined() {
    // Fig. 5's shape: the condition depends on data, not on the index.
    let src = "
param m = 15;
input A : array[real] [0, m];
input B : array[real] [0, m];
input C : array[real] [0, m];
Y : array[real] :=
  forall i in [0, m]
  construct
    if C[i] > 0. then -(A[i] + B[i]) else 5.*(A[i]*B[i] + 2.) endif
  endall;
output Y;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    let n = 16;
    let mut inputs = HashMap::new();
    inputs.insert(
        "A".to_string(),
        ArrayVal::from_reals(0, &(0..n).map(|i| i as f64 * 0.5).collect::<Vec<_>>()),
    );
    inputs.insert(
        "B".to_string(),
        ArrayVal::from_reals(0, &(0..n).map(|i| 3.0 - i as f64 * 0.2).collect::<Vec<_>>()),
    );
    inputs.insert(
        "C".to_string(),
        ArrayVal::from_reals(
            0,
            &(0..n).map(|i| (i as f64 * 1.7).sin()).collect::<Vec<_>>(),
        ),
    );
    let report = check_against_oracle(&compiled, &inputs, 30, 1e-12).unwrap();
    let iv = report.run.timing("Y").interval().unwrap();
    assert!(
        (iv - 2.0).abs() < 0.1,
        "dynamic conditional interval {iv} ≉ 2"
    );
}

#[test]
fn pure_sum_recurrence_prefix_sums() {
    // x_i = x_{i-1} + B[i]: prefix sums via the companion scheme.
    let m = 20;
    let src = format!(
        "
param m = {m};
input B : array[real] [0, m];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    if i < m then iter T := T[i: T[i-1] + B[i]]; i := i + 1 enditer else T endif
  endfor;
output X;
"
    );
    let compiled = compile_source(&src, &CompileOptions::default()).unwrap();
    assert_eq!(
        compiled.stats.schemes["X"],
        crate::foriter::UsedScheme::Companion
    );
    let b: Vec<f64> = (0..m + 1).map(|i| i as f64).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    let report = check_against_oracle(&compiled, &inputs, 20, 1e-9).unwrap();
    let iv = report.run.timing("X").interval().unwrap();
    let expected = 2.0 * (m as f64 + 1.0) / m as f64;
    assert!((iv - expected).abs() < 0.2, "prefix-sum interval {iv}");
}

#[test]
fn loop_without_feedback_compiles_straight() {
    let src = "
param m = 8;
input B : array[real] [0, m];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 7.]
  do
    if i < m then iter T := T[i: 2.*B[i]]; i := i + 1 enditer else T endif
  endfor;
output X;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    assert_eq!(
        compiled.stats.schemes["X"],
        crate::foriter::UsedScheme::Straight
    );
    let b: Vec<f64> = (0..9).map(|i| i as f64).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    check_against_oracle(&compiled, &inputs, 8, 1e-12).unwrap();
}

#[test]
fn dead_blocks_eliminated() {
    let src = "
param m = 4;
input B : array[real] [0, m];
DEAD : array[real] := forall i in [0, m] construct B[i] * 100. endall;
Y : array[real] := forall i in [0, m] construct B[i] + 1. endall;
output Y;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    assert_eq!(compiled.stats.dead_blocks, vec!["DEAD".to_string()]);
    let mut inputs = HashMap::new();
    inputs.insert(
        "B".to_string(),
        ArrayVal::from_reals(0, &[0., 1., 2., 3., 4.]),
    );
    check_against_oracle(&compiled, &inputs, 4, 1e-12).unwrap();
}

#[test]
fn am_boundary_routes_traffic_through_array_memories() {
    let m = 16;
    let mut opts = CompileOptions::default();
    opts.am_boundary = true;
    let compiled = compile_source(&example1_src(m), &opts).unwrap();
    let report = check_against_oracle(&compiled, &arrays(m), 10, 1e-12).unwrap();
    let frac = report.run.am_traffic_fraction();
    assert!(frac > 0.0, "AM cells must fire");
    assert!(
        frac <= 0.125 + 1e-9,
        "paper §2: at most one eighth of operation packets to AMs, got {frac}"
    );
}

#[test]
fn integer_program_is_exact() {
    let src = "
param m = 10;
input K : array[integer] [0, m];
S : array[integer] :=
  for i : integer := 1; T : array[integer] := [0: 0]
  do
    if i < m then iter T := T[i: T[i-1] + K[i]]; i := i + 1 enditer else T endif
  endfor;
output S;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    let mut inputs = HashMap::new();
    inputs.insert(
        "K".to_string(),
        ArrayVal::from_ints(0, &(0..11).collect::<Vec<_>>()),
    );
    // tol 0: integer data must match exactly even after the companion
    // transformation.
    check_against_oracle(&compiled, &inputs, 6, 0.0).unwrap();
}

#[test]
fn multi_block_chain_stays_fully_pipelined() {
    // Theorem 4 at a small scale: a chain of stencil blocks.
    let src = "
param m = 12;
input C : array[real] [0, m+1];
S1 : array[real] := forall i in [1, m] construct 0.5 * (C[i-1] + C[i+1]) endall;
S2 : array[real] := forall i in [2, m-1] construct 0.5 * (S1[i-1] + S1[i+1]) endall;
S3 : array[real] := forall i in [3, m-2] construct S2[i] + S2[i-1] endall;
output S3;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    let c: Vec<f64> = (0..14).map(|i| (i as f64 * 0.33).sin()).collect();
    let mut inputs = HashMap::new();
    inputs.insert("C".to_string(), ArrayVal::from_reals(0, &c));
    let report = check_against_oracle(&compiled, &inputs, 40, 1e-12).unwrap();
    let iv = report.run.timing("S3").interval().unwrap();
    // 8 outputs per 14-element input wave.
    let expected = 2.0 * 14.0 / 8.0;
    assert!(
        (iv - expected).abs() < 0.3,
        "chain interval {iv} ≉ {expected}"
    );
}

#[test]
fn balance_modes_all_correct_with_decreasing_buffers() {
    let m = 16;
    let mut buffers = Vec::new();
    for mode in [BalanceMode::Asap, BalanceMode::Optimal] {
        let mut opts = CompileOptions::default();
        opts.balance = mode;
        let compiled = compile_source(&example1_src(m), &opts).unwrap();
        check_against_oracle(&compiled, &arrays(m), 8, 1e-12).unwrap();
        buffers.push(compiled.stats.global_buffers);
    }
    assert!(buffers[1] <= buffers[0], "{buffers:?}");
}

#[test]
fn synthesized_generators_end_to_end() {
    // Full fidelity: no primitive generator cells anywhere — every control
    // stream and index stream is a circuit of ordinary cells — and the
    // program still matches the oracle at the maximum rate.
    let m = 16;
    let mut opts = CompileOptions::default();
    opts.synthesize_generators = true;
    let compiled = compile_source(&example1_src(m), &opts).unwrap();
    assert!(compiled.stats.synthesized_generators > 0);
    let exe = compiled.executable();
    assert!(
        exe.nodes.iter().all(|n| !matches!(
            n.op,
            valpipe_ir::Opcode::CtlGen(_) | valpipe_ir::Opcode::IdxGen { .. }
        )),
        "no primitive generators may remain"
    );
    let report = check_against_oracle(&compiled, &arrays(m), 25, 1e-12).unwrap();
    let iv = report.run.timing("A").interval().unwrap();
    assert!(
        (iv - 2.0).abs() < 0.1,
        "synthesized Example 1 interval {iv}"
    );
}

#[test]
fn synthesized_fig3_program_correct() {
    let mut opts = CompileOptions::default();
    opts.synthesize_generators = true;
    let compiled = compile_source(FIG3_PROGRAM, &opts).unwrap();
    let report = check_against_oracle(&compiled, &arrays(32), 15, 1e-9).unwrap();
    assert!(report.packets_checked > 0);
    let iv = report.run.timing("A").interval().unwrap();
    assert!((iv - 2.0).abs() < 0.1, "synthesized Fig. 3 interval {iv}");
}

#[test]
fn jacobi_2d_fully_pipelined() {
    // §9: "The extension of this work to array values of multiple
    // dimension is straightforward." A 2-D Jacobi sweep flattens to
    // row-major streams with constant-offset taps (±1 for columns, ±W for
    // rows) and runs fully pipelined.
    let (n, m) = (6usize, 8usize);
    let src = format!(
        "
param n = {n};
param m = {m};
input U : array[array[real]] [0, n+1][0, m+1];
V : array[array[real]] :=
  forall i in [0, n+1], j in [0, m+1]
  construct
    if (i = 0)|(i = n+1)|(j = 0)|(j = m+1) then U[i][j]
    else 0.25 * (U[i-1][j] + U[i+1][j] + U[i][j-1] + U[i][j+1])
    endif
  endall;
output V;
"
    );
    let compiled = compile_source(&src, &CompileOptions::default()).unwrap();
    let shape = compiled.dims.shapes["V"];
    assert_eq!(
        (shape.height(), shape.width()),
        (n as i64 + 2, m as i64 + 2)
    );
    let rows: Vec<Vec<f64>> = (0..n + 2)
        .map(|i| {
            (0..m + 2)
                .map(|j| (i as f64 * 0.31).sin() + (j as f64 * 0.17).cos())
                .collect()
        })
        .collect();
    let mut inputs = HashMap::new();
    inputs.insert("U".to_string(), ArrayVal::from_grid(&rows));
    let report = check_against_oracle(&compiled, &inputs, 20, 1e-12).unwrap();
    let iv = report.run.timing("V").interval().unwrap();
    assert!((iv - 2.0).abs() < 0.1, "2-D Jacobi interval {iv} ≉ 2");
}

#[test]
fn two_d_feeding_one_d_recurrence() {
    // A 2-D block flattens to a 1-D stream that a for-iter can consume —
    // e.g. a running sum over the flattened sweep.
    let (n, m) = (4usize, 5usize);
    let src = format!(
        "
param n = {n};
param m = {m};
param len = {};
input U : array[array[real]] [0, n][0, m];
S : array[array[real]] :=
  forall i in [0, n], j in [0, m]
  construct 2. * U[i][j]
  endall;
T : array[real] :=
  for k : integer := 1; T : array[real] := [0: 0.]
  do
    if k < len then iter T := T[k: T[k-1] + S[k]]; k := k + 1 enditer else T endif
  endfor;
output T;
",
        (n + 1) * (m + 1)
    );
    let compiled = compile_source(&src, &CompileOptions::default()).unwrap();
    let rows: Vec<Vec<f64>> = (0..n + 1)
        .map(|i| (0..m + 1).map(|j| (i * 10 + j) as f64 * 0.1).collect())
        .collect();
    let mut inputs = HashMap::new();
    inputs.insert("U".to_string(), ArrayVal::from_grid(&rows));
    check_against_oracle(&compiled, &inputs, 12, 1e-9).unwrap();
}

#[test]
fn index_variable_as_value_stream() {
    // `construct B[i] * i` needs the index itself as a runtime stream
    // (an IdxGen cell, or a counter circuit under synthesis).
    let src = "
param m = 9;
input B : array[real] [0, m];
Y : array[real] := forall i in [0, m] construct B[i] * i endall;
output Y;
";
    for synth in [false, true] {
        let mut opts = CompileOptions::default();
        opts.synthesize_generators = synth;
        let compiled = compile_source(src, &opts).unwrap();
        let b: Vec<f64> = (0..10).map(|i| 1.0 + i as f64 * 0.1).collect();
        let mut inputs = HashMap::new();
        inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
        let report = check_against_oracle(&compiled, &inputs, 16, 1e-12).unwrap();
        let iv = report.run.timing("Y").interval().unwrap();
        assert!((iv - 2.0).abs() < 0.1, "synth={synth} interval {iv}");
    }
}

#[test]
fn repeated_taps_share_one_gate() {
    // B[i] used three times must produce ONE tap fanned out, not three
    // separate gates off the source.
    let src = "
param m = 6;
input B : array[real] [0, m];
Y : array[real] := forall i in [0, m] construct B[i] * B[i] + B[i] endall;
output Y;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    // Window == full range at offset 0 → tap is the source itself; the
    // source node must fan out to exactly the two cells that consume it
    // (MULT twice → same cell ports count as arcs).
    let hist = compiled.graph.opcode_histogram();
    assert_eq!(
        hist.get("TGATE").copied().unwrap_or(0),
        0,
        "no gate needed for a full window"
    );
    let src_node = compiled.graph.sources()[0].0;
    assert_eq!(
        compiled.graph.out_arcs(src_node).len(),
        3,
        "three consuming ports, one stream"
    );
}

#[test]
fn shifted_taps_share_per_offset() {
    let src = "
param m = 8;
input B : array[real] [0, m+1];
Y : array[real] := forall i in [1, m] construct (B[i-1] + B[i-1]) + (B[i+1] + B[i+1]) endall;
output Y;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    // Exactly two window gates (one per distinct offset), each fanned out.
    let hist = compiled.graph.opcode_histogram();
    assert_eq!(hist.get("TGATE").copied().unwrap_or(0), 2);
}

#[test]
fn statically_dead_arm_is_not_compiled() {
    // Condition false at every index: the then-arm must vanish entirely —
    // no merge, no gates for it.
    let src = "
param m = 5;
input B : array[real] [0, m];
Y : array[real] :=
  forall i in [0, m]
  construct if i > m then 999. else B[i] endif
  endall;
output Y;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    assert_eq!(
        compiled
            .graph
            .opcode_histogram()
            .get("MERG")
            .copied()
            .unwrap_or(0),
        0
    );
    let b: Vec<f64> = (0..6).map(|i| i as f64).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    let report = check_against_oracle(&compiled, &inputs, 10, 0.0).unwrap();
    assert_eq!(report.packets_checked, 60);
}

#[test]
fn nested_static_conditionals_compose_selections() {
    // Three-way static split by index bands; each band via nested ifs.
    let src = "
param m = 11;
input B : array[real] [0, m];
Y : array[real] :=
  forall i in [0, m]
  construct
    if i < 4 then B[i] * 10.
    else if i < 8 then B[i] * 100. else B[i] * 1000. endif
    endif
  endall;
output Y;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    let b: Vec<f64> = (0..12).map(|i| 1.0 + i as f64).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    let report = check_against_oracle(&compiled, &inputs, 16, 1e-12).unwrap();
    let iv = report.run.timing("Y").interval().unwrap();
    assert!((iv - 2.0).abs() < 0.1, "banded conditional interval {iv}");
}

#[test]
fn dynamic_condition_inside_static_arm() {
    // Static boundary test; dynamic limiter inside the interior arm.
    let src = "
param m = 9;
input B : array[real] [0, m+1];
Y : array[real] :=
  forall i in [0, m+1]
  construct
    if (i = 0)|(i = m+1) then 0.
    else if B[i] > 0.5 then B[i-1] else B[i+1] endif
    endif
  endall;
output Y;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    let b: Vec<f64> = (0..11).map(|i| ((i * 7) % 11) as f64 / 11.0).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    let report = check_against_oracle(&compiled, &inputs, 20, 1e-12).unwrap();
    let iv = report.run.timing("Y").interval().unwrap();
    assert!(
        (iv - 2.0).abs() < 0.15,
        "mixed static/dynamic interval {iv}"
    );
}

#[test]
fn gate_fusion_shrinks_banded_conditionals() {
    // A definition-part local pulled into nested static bands passes
    // through a gate per band level (array taps already get composed
    // windows via the tap shortcut); fusion collapses the cascades.
    let src = "
param m = 11;
input B : array[real] [0, m];
Y : array[real] :=
  forall i in [0, m]
    P : real := B[i] * 2.;
  construct
    if i < 4 then P + 1.
    else if i < 8 then P + 2. else P + 3. endif
    endif
  endall;
output Y;
";
    let out = crate::QueryEngine::new()
        .run_source(
            &CompileOptions::default(),
            &crate::CompileLimits::default(),
            &[],
            src,
            "<source>",
        )
        .unwrap();
    let fuse = out.pass_stats.iter().find(|s| s.name == "fuse").unwrap();
    assert!(
        fuse.nodes_after < fuse.nodes_before,
        "fusion must shrink the program ({} -> {})",
        fuse.nodes_before,
        fuse.nodes_after
    );
    let fused = out.compiled;
    assert!(fused.stats.fused_gates > 0, "bands must fuse");
    // The fused program still computes the oracle's results.
    let b: Vec<f64> = (0..12).map(|i| 1.0 + i as f64).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    let report = check_against_oracle(&fused, &inputs, 12, 1e-12).unwrap();
    let iv = report.run.timing("Y").interval().unwrap();
    assert!((iv - 2.0).abs() < 0.1, "fused interval {iv}");
}

#[test]
fn run_timesteps_diffuses_and_accounts_traffic() {
    let m = 24;
    let src = format!(
        "
param m = {m};
input U : array[real] [0, m+1];
V : array[real] :=
  forall i in [0, m+1]
  construct
    if (i = 0)|(i = m+1) then U[i]
    else U[i] + 0.25 * (U[i-1] - 2.*U[i] + U[i+1])
    endif
  endall;
output V;
"
    );
    let mut opts = CompileOptions::default();
    opts.am_boundary = true;
    let compiled = compile_source(&src, &opts).unwrap();
    let mut u = vec![0.0; m + 2];
    u[m / 2] = 64.0;
    let mut initial = HashMap::new();
    initial.insert("U".to_string(), ArrayVal::from_reals(0, &u));
    let (finals, total, am) =
        crate::verify::run_timesteps(&compiled, &initial, &[("V", "U")], 10).unwrap();
    let v = finals["U"].to_reals();
    // Mass conserved (fixed zero boundaries), peak reduced.
    let mass: f64 = v.iter().sum();
    assert!((mass - 64.0).abs() < 1e-9);
    assert!(v[m / 2] < 30.0 && v[m / 2] > 1.0);
    assert!(am > 0 && (am as f64 / total as f64) <= 0.125);
}

#[test]
fn deep_nesting_is_a_typed_limit_breach() {
    // The parser's stack-safety ceiling applies even to unbounded
    // compiles, and reports as a resource limit, not a syntax error.
    let depth = valpipe_val::parser::DEFAULT_MAX_NESTING_DEPTH + 1;
    let src = format!(
        "input P : array[real] [0, 4];\nY : array[real] := forall i in [0, 4] construct {}P[i]{} endall;\noutput Y;\n",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    match compile_source(&src, &CompileOptions::default()) {
        Err(crate::CompileError::Limit(crate::LimitBreach::NestingDepth { limit })) => {
            assert_eq!(limit, valpipe_val::parser::DEFAULT_MAX_NESTING_DEPTH)
        }
        Err(e) => panic!("expected a nesting-depth limit breach, got: {e}"),
        Ok(_) => panic!("a program nested {depth} deep must not compile"),
    }
}
