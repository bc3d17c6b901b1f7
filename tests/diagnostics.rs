//! Source-level diagnostics, end to end: a compiled paper example run
//! under a fault plan produces stall reports and machine errors that name
//! the Val statement (`file:line:col` + expression text) of every cell
//! involved — plus the provenance-totality property behind the guarantee.

use std::collections::HashMap;
use valpipe::compiler::verify::{check_against_oracle_with, VerifyError};
use valpipe::ir::opcode::Opcode;
use valpipe::ir::value::{BinOp, Value};
use valpipe::machine::fault::CellFreeze;
use valpipe::machine::{FaultPlan, WatchdogConfig};
use valpipe::{
    compile_source_limited, render_error, ArrayVal, CompileLimits, CompileOptions, Compiled,
    ForIterScheme, ProgramInputs, SimConfig, Simulator,
};
use valpipe_util::Rng;

/// The paper's Example 1 (Fig. 6): a forall with a named definition and a
/// boundary conditional.
fn fig6_src(m: usize) -> String {
    format!(
        "param m = {m};
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real :=
      if (i = 0)|(i = m+1) then C[i]
      else 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
      endif;
  construct B[i]*(P*P)
  endall;
output A;"
    )
}

fn fig6_inputs(m: usize) -> HashMap<String, ArrayVal> {
    let b: Vec<f64> = (0..m + 2).map(|k| 1.0 + (k as f64) * 0.25).collect();
    let c: Vec<f64> = (0..m + 2).map(|k| (k as f64 * 0.4).sin()).collect();
    let mut h = HashMap::new();
    h.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    h.insert("C".to_string(), ArrayVal::from_reals(0, &c));
    h
}

/// Compile trusted test source under `file`, with no resource limits.
fn compile_named(src: &str, file: &str, opts: &CompileOptions) -> Compiled {
    compile_source_limited(src, file, opts, &CompileLimits::unbounded())
        .unwrap_or_else(|e| panic!("compile failed: {e}\nsource:\n{src}"))
}

/// Acceptance: freeze a multiplier mid-run; the stall diagnosis must name
/// the Val source location of *every* blocked cell it lists.
#[test]
fn stall_report_names_the_source_of_every_blocked_cell() {
    let m = 8;
    let src = fig6_src(m);
    let compiled = compile_named(&src, "fig6.val", &CompileOptions::paper());
    let exe = compiled.executable();
    let victim = exe
        .nodes
        .iter()
        .position(|n| matches!(n.op, Opcode::Bin(BinOp::Mul)))
        .expect("fig6 has a multiplier");
    let plan = FaultPlan {
        freezes: vec![CellFreeze {
            node: victim,
            from: 40,
            until: u64::MAX,
        }],
        ..Default::default()
    };
    let cfg = SimConfig::new().fault_plan(plan).watchdog(WatchdogConfig {
        step_budget: 50_000,
        ..Default::default()
    });
    let err = check_against_oracle_with(&compiled, &fig6_inputs(m), 16, 1e-9, cfg)
        .expect_err("frozen multiplier must stall the pipeline");
    let VerifyError::Stalled {
        report: Some(report),
        ..
    } = err
    else {
        panic!("expected a stall diagnosis, got: {err:?}");
    };
    assert!(
        report.contains("fig6.val:"),
        "no source location in:\n{report}"
    );
    // Every `cell N (...) blocked:` line must be followed by its source.
    let lines: Vec<&str> = report.lines().collect();
    let mut blocked = 0;
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("cell ") && line.contains("blocked:") {
            blocked += 1;
            let next = lines.get(i + 1).copied().unwrap_or("");
            assert!(
                next.trim_start().starts_with("at fig6.val:"),
                "blocked cell without source:\n{line}\n{next}\nfull report:\n{report}"
            );
        }
    }
    assert!(
        blocked > 0,
        "stall report listed no blocked cells:\n{report}"
    );
}

/// Acceptance: a runtime type fault inside the forall body renders with
/// the faulting statement's `file:line:col` and expression text.
#[test]
fn machine_error_names_the_faulting_statement() {
    let m = 8;
    let src = fig6_src(m);
    let compiled = compile_named(&src, "fig6.val", &CompileOptions::paper());
    let exe = compiled.executable();
    // Poison one element of C: a boolean in real arithmetic faults the
    // first arithmetic cell it reaches.
    let mut c_vals: Vec<Value> = (0..m + 2).map(|k| Value::Real(k as f64 * 0.1)).collect();
    c_vals[4] = Value::Bool(true);
    let b_vals: Vec<Value> = (0..m + 2).map(|k| Value::Real(1.0 + k as f64)).collect();
    let err = Simulator::builder(&exe)
        .inputs(ProgramInputs::new().bind("C", c_vals).bind("B", b_vals))
        .max_steps(100_000)
        .run()
        .expect_err("boolean in real arithmetic must fault");
    let rendered = render_error(&err, &exe, &compiled.prov);
    assert!(
        rendered.contains("\n  at fig6.val:"),
        "no source annotation in:\n{rendered}"
    );
    assert!(
        rendered.contains("in definition 'P' in block 'A'")
            || rendered.contains("in forall body of block 'A'"),
        "annotation does not name the statement:\n{rendered}"
    );
}

/// A compiled program's diagnostics would be useless if any cell fell
/// back to the whole-program entry: provenance must be *total* — every
/// executable cell (including balancer FIFO stages, synthesized generator
/// circuits, drain sinks) resolves to a real statement.
#[test]
fn provenance_is_total_over_random_compiled_programs() {
    const M: usize = 10;
    for case in 0..48u64 {
        let mut r = Rng::seed(0x6001).fork(case);
        // Random primitive forall body over P and Q, with optional
        // conditionals so some cases compile gates and merges.
        fn body(r: &mut Rng, depth: usize) -> String {
            if depth == 0 || r.chance(0.3) {
                return match r.below(4) {
                    0 => format!("({}.5)", r.range_i64(0, 9)),
                    1 => format!("P[i-{}]", r.range_i64(0, 2)),
                    2 => format!("Q[i+{}]", r.range_i64(0, 2)),
                    _ => "P[i]".to_string(),
                };
            }
            match r.below(5) {
                0 => format!("({} + {})", body(r, depth - 1), body(r, depth - 1)),
                1 => format!("({} * {})", body(r, depth - 1), body(r, depth - 1)),
                2 => format!("({} - {})", body(r, depth - 1), body(r, depth - 1)),
                3 => format!(
                    "(if i < {} then {} else {} endif)",
                    r.range_i64(1, M as i64),
                    body(r, depth - 1),
                    body(r, depth - 1)
                ),
                _ => format!("(-{})", body(r, depth - 1)),
            }
        }
        let src = if r.chance(0.25) {
            // A for-iter recurrence exercises the Todd/companion lowering.
            format!(
                "param m = {M};
input A : array[real] [0, m+1];
input B : array[real] [0, m+1];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := A[i]*T[i-1] + B[i]
    in
      if i < m then iter T := T[i: P]; i := i + 1 enditer else T endif
    endlet
  endfor;
output X;"
            )
        } else {
            format!(
                "param m = {M};
input P : array[real] [0, m+2];
input Q : array[real] [0, m+2];
Y : array[real] := forall i in [2, m] construct {} endall;
output Y;",
                body(&mut r, 3)
            )
        };
        let mut opts = CompileOptions::paper();
        if r.flip() {
            opts.synthesize_generators = true;
        }
        if r.chance(0.3) {
            opts.scheme = ForIterScheme::Todd;
        }
        let compiled = compile_named(&src, "prop.val", &opts);
        for g in [&compiled.graph, &compiled.executable()] {
            for (i, n) in g.nodes.iter().enumerate() {
                assert!(
                    compiled.prov.is_resolved(n.src),
                    "cell {i} ('{}', {:?}) has unresolved provenance (src={}) in:\n{src}",
                    n.label,
                    n.op,
                    n.src
                );
            }
        }
    }
}
