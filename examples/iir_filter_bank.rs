//! A signal-processing workload: a bank of first-order IIR low-pass
//! filters over one input signal, each a `for-iter` linear recurrence
//! `y_i = (1-α)·y_(i-1) + α·x_i` — exactly the class Theorem 3 fully
//! pipelines via the companion function. All filters share the input
//! stream (one producer fanning out, §4's producer/consumer links) and
//! run concurrently at the maximum rate.
//!
//! ```sh
//! cargo run --release --example iir_filter_bank
//! ```

use std::collections::HashMap;
use valpipe::compiler::verify::check_against_oracle;
use valpipe::{compile_source, ArrayVal, CompileOptions};

fn source(m: usize, alphas: &[f64]) -> String {
    let mut s = format!("param m = {m};\ninput X : array[real] [0, m];\n");
    for (k, &a) in alphas.iter().enumerate() {
        s.push_str(&format!(
            "Y{k} : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    if i < m then
      iter T := T[i: {:.4}*T[i-1] + {a:.4}*X[i]]; i := i + 1 enditer
    else T
    endif
  endfor;\n",
            1.0 - a
        ));
    }
    s.push_str("output ");
    s.push_str(
        &(0..alphas.len())
            .map(|k| format!("Y{k}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    s.push_str(";\n");
    s
}

fn main() {
    let m = 64usize;
    let alphas = [0.05, 0.15, 0.4, 0.8];
    let compiled =
        compile_source(&source(m, &alphas), &CompileOptions::default()).expect("compiles");
    println!(
        "== IIR filter bank: {} filters over one signal ==",
        alphas.len()
    );
    println!(
        "machine code: {}",
        valpipe::ir::pretty::summary(&compiled.graph)
    );
    for (name, scheme) in &compiled.stats.schemes {
        println!("  {name}: {scheme:?} scheme");
    }

    // A noisy step signal.
    let x: Vec<f64> = (0..m + 1)
        .map(|i| if i > m / 2 { 1.0 } else { 0.0 } + 0.1 * ((i * 37) as f64).sin())
        .collect();
    let mut inputs = HashMap::new();
    inputs.insert("X".to_string(), ArrayVal::from_reals(0, &x));
    let report = check_against_oracle(&compiled, &inputs, 40, 1e-9).expect("oracle");
    println!("\npackets checked: {}", report.packets_checked);
    for (k, &alpha) in alphas.iter().enumerate() {
        let out = format!("Y{k}");
        let iv = report.run.timing(&out).interval().unwrap();
        println!(
            "filter α={alpha:<5}: interval {iv:.3} instruction times (rate {:.3})",
            1.0 / iv
        );
        assert!(iv < 2.2, "every filter must run at the maximum rate");
    }
    // Smoothing sanity: the slowest filter ends well below the step level,
    // the fastest close to it.
    let last = |k: usize| *report.run.reals(&format!("Y{k}")).get(m - 1).unwrap() as f64;
    assert!(last(0) < last(3), "heavier smoothing lags the step");
    println!(
        "\nAll {} recurrences fully pipelined concurrently ✓",
        alphas.len()
    );
}
