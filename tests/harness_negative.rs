//! Negative tests of the verification harness itself: a corrupted machine
//! program must be *caught*, not silently accepted — otherwise every rate
//! measurement in EXPERIMENTS.md would be meaningless.

use std::collections::HashMap;
use valpipe::compiler::verify::{check_against_oracle, VerifyError};
use valpipe::ir::{Opcode, PortBinding, Value};
use valpipe::{compile_source, ArrayVal, CompileOptions};

fn setup() -> (valpipe::Compiled, HashMap<String, ArrayVal>) {
    let src = "
param m = 8;
input B : array[real] [0, m];
Y : array[real] := forall i in [0, m] construct B[i] * 2. + 1. endall;
output Y;
";
    let compiled = compile_source(src, &CompileOptions::default()).unwrap();
    let b: Vec<f64> = (0..9).map(|i| i as f64).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    (compiled, inputs)
}

#[test]
fn oracle_catches_a_corrupted_literal() {
    let (mut compiled, inputs) = setup();
    // Flip the `* 2.` literal to `* 2.000001`.
    let mut tampered = false;
    for node in &mut compiled.graph.nodes {
        for b in &mut node.inputs {
            if let PortBinding::Lit(Value::Real(x)) = b {
                if *x == 2.0 {
                    *b = PortBinding::Lit(Value::Real(2.000001));
                    tampered = true;
                }
            }
        }
    }
    assert!(tampered);
    let err = check_against_oracle(&compiled, &inputs, 4, 1e-9).unwrap_err();
    assert!(matches!(err, VerifyError::Mismatch { .. }), "{err}");
}

#[test]
fn oracle_catches_a_rewired_opcode() {
    let (mut compiled, inputs) = setup();
    let mut tampered = false;
    for node in &mut compiled.graph.nodes {
        if matches!(node.op, Opcode::Bin(valpipe::ir::BinOp::Add)) {
            node.op = Opcode::Bin(valpipe::ir::BinOp::Sub);
            tampered = true;
            break;
        }
    }
    assert!(tampered);
    let err = check_against_oracle(&compiled, &inputs, 4, 1e-9).unwrap_err();
    assert!(matches!(err, VerifyError::Mismatch { .. }), "{err}");
}

#[test]
fn oracle_catches_a_dropped_control_run() {
    // Corrupt a window-selection control stream: the program now emits the
    // wrong number of packets (or the wrong elements) and must be flagged.
    let src = "
param m = 8;
input B : array[real] [0, m+1];
Y : array[real] := forall i in [1, m] construct B[i-1] + B[i+1] endall;
output Y;
";
    let mut compiled = compile_source(src, &CompileOptions::default()).unwrap();
    let mut tampered = false;
    for node in &mut compiled.graph.nodes {
        if let Opcode::CtlGen(s) = &node.op {
            // Shift a window whose selection starts late back to position
            // 0 — the tap now passes the wrong elements.
            let n = s.wave_len();
            let trues = s.trues_per_wave();
            let starts_late = !s.at(0);
            if trues < n && starts_late && !tampered {
                node.op = Opcode::CtlGen(valpipe::ir::CtlStream::window(n, 0, trues));
                tampered = true;
            }
        }
    }
    assert!(tampered);
    let b: Vec<f64> = (0..10).map(|i| (i * i) as f64).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    let err = check_against_oracle(&compiled, &inputs, 4, 1e-9).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::Mismatch { .. }
                | VerifyError::WrongLength { .. }
                | VerifyError::Stalled { .. }
        ),
        "{err}"
    );
}

#[test]
fn removing_buffers_jams_the_two_tap_stencil() {
    // The paper's §5 warning made literal: without the skew FIFOs the
    // two-tap stencil DEADLOCKS — the early tap's passed element blocks
    // the shared source, so the late tap never receives the element it
    // must discard. ("The elements of the incoming array not used in the
    // computation must be discarded so they do not cause jams.")
    let src = "
param m = 16;
input C : array[real] [0, m+1];
S : array[real] := forall i in [1, m] construct C[i-1] + C[i+1] endall;
output S;
";
    let balanced = compile_source(src, &CompileOptions::default()).unwrap();
    let mut unbalanced_opts = CompileOptions::default();
    unbalanced_opts.balance = valpipe::balance::BalanceMode::None;
    let unbalanced = compile_source(src, &unbalanced_opts).unwrap();
    let c: Vec<f64> = (0..18).map(|i| (i as f64).sqrt()).collect();
    let mut inputs = HashMap::new();
    inputs.insert("C".to_string(), ArrayVal::from_reals(0, &c));
    let rb = check_against_oracle(&balanced, &inputs, 20, 1e-12).unwrap();
    assert!((rb.run.timing("S").interval().unwrap() - 2.25).abs() < 0.15);
    let err = check_against_oracle(&unbalanced, &inputs, 20, 1e-12).unwrap_err();
    assert!(matches!(err, VerifyError::Stalled { .. }), "{err}");
    // The stall report must finger a blocked gate.
    let run =
        valpipe::compiler::verify::run(&unbalanced, &inputs, 2, valpipe::SimConfig::new()).unwrap();
    let report = run.stall_report.expect("jammed run carries a report");
    assert_eq!(report.kind, valpipe::machine::StallKind::Deadlock);
    assert!(!report.blocked_cells.is_empty());
    assert!(!report.held_arcs.is_empty());
    let text = report.to_string();
    assert!(text.contains("blocked"), "{text}");
}
