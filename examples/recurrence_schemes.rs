//! The paper's §7 head-to-head: compile the Example 2 first-order linear
//! recurrence with **Todd's scheme** (Fig. 7) and with the **companion
//! pipeline** (Fig. 8), verify both against the interpreter, and compare
//! their steady-state rates — the companion scheme reaches the maximum
//! rate, Todd's is bounded by the feedback cycle.
//!
//! ```sh
//! cargo run --release --example recurrence_schemes
//! ```

use std::collections::HashMap;
use valpipe::compiler::verify::check_against_oracle;
use valpipe::{compile_source, ArrayVal, CompileOptions, ForIterScheme};

fn source(m: usize) -> String {
    format!(
        "
param m = {m};
input A : array[real] [0, m+1];
input B : array[real] [0, m+1];

% The paper's Example 2: x_i = A[i]*x_(i-1) + B[i].
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

fn main() {
    let m = 48usize;
    let a: Vec<f64> = (0..m + 2)
        .map(|i| 0.9 + 0.01 * (i as f64 * 0.7).sin())
        .collect();
    let b: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.13).cos()).collect();
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), ArrayVal::from_reals(0, &a));
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));

    println!("Example 2 recurrence, m = {m}, 60 waves\n");
    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>12}",
        "scheme", "cells", "interval", "rate", "max rel err"
    );
    let mut intervals = Vec::new();
    for (label, scheme) in [
        ("todd", ForIterScheme::Todd),
        ("companion", ForIterScheme::Companion),
    ] {
        let mut opts = CompileOptions::default();
        opts.scheme = scheme;
        let compiled = compile_source(&source(m), &opts).expect("compiles");
        let report = check_against_oracle(&compiled, &inputs, 60, 1e-9).expect("oracle");
        let iv = report.run.timing("X").interval().expect("steady state");
        println!(
            "{:<12} {:>8} {:>10.3} {:>12.4} {:>12.2e}",
            label,
            compiled.graph.node_count(),
            iv,
            1.0 / iv,
            report.max_rel_err
        );
        intervals.push(iv);
    }
    let speedup = intervals[0] / intervals[1];
    println!("\ncompanion speedup over Todd: {speedup:.2}×");
    println!("(the companion pipeline restores the maximum rate by making");
    println!(" x_i depend on x_(i-2) through G(a_i, a_(i-1)) — Theorem 3)");
}
