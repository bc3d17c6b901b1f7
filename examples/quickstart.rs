//! Quickstart: compile the paper's Example 1 (a boundary-aware smoothing
//! `forall`) to static dataflow machine code, run it on the simulated
//! machine, check it against the interpreter, and measure the pipeline
//! rate.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::collections::HashMap;
use valpipe::compiler::verify::check_against_oracle;
use valpipe::{compile_source, ArrayVal, CompileOptions};

const SRC: &str = "
param m = 64;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];

% The paper's Example 1: a forall with boundary conditions.
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
";

fn main() {
    // 1. Compile to a balanced machine-level data flow program.
    let compiled = compile_source(SRC, &CompileOptions::default()).expect("compiles");
    println!("== machine code summary ==");
    println!("{}", valpipe::ir::pretty::summary(&compiled.graph));
    println!(
        "loop buffers: {}, global balancing buffers: {}",
        compiled.stats.loop_buffers, compiled.stats.global_buffers
    );

    // 2. Feed 50 waves of input arrays through the pipe and compare every
    //    output packet against the reference interpreter.
    let m = 64usize;
    let b: Vec<f64> = (0..m + 2).map(|i| 0.5 + (i as f64 * 0.37).sin()).collect();
    let c: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.21).cos()).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    inputs.insert("C".to_string(), ArrayVal::from_reals(0, &c));
    let report = check_against_oracle(&compiled, &inputs, 50, 1e-12).expect("matches oracle");

    // 3. Report.
    println!("\n== execution ==");
    println!(
        "packets checked against interpreter: {}",
        report.packets_checked
    );
    println!("max relative error: {:.3e}", report.max_rel_err);
    let iv = report
        .run
        .timing("A")
        .interval()
        .expect("steady state reached");
    println!("steady-state initiation interval: {iv:.3} instruction times");
    println!("(fully pipelined = 2.0 — one result per two instruction times)");
    assert!((iv - 2.0).abs() < 0.1);
    println!("\nFully pipelined ✓");
}
