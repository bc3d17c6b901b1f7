//! An application-shaped workload (paper §2): one time step of a 1-D
//! "physics" code built from several pipe-structured blocks — flux
//! stencil, limiter with a data-dependent conditional, state update, and
//! a running diagnostic recurrence — with the long-lived state routed
//! through the **array memories** between time steps.
//!
//! Reproduces the §2 packet-traffic claim: *"one eighth or less of the
//! operation packets would be sent to the array memories."*
//!
//! ```sh
//! cargo run --release --example physics_step
//! ```

use std::collections::HashMap;
use valpipe::compiler::verify::check_against_oracle;
use valpipe::{compile_source, ArrayVal, CompileOptions};

fn source(m: usize) -> String {
    format!(
        "
param m = {m};
input U : array[real] [0, m+1];   % state from the previous time step
input K : array[real] [0, m+1];   % spatially varying coefficient

% Flux stencil.
F : array[real] :=
  forall i in [1, m]
  construct K[i] * (U[i+1] - U[i-1]) * 0.5
  endall;

% Data-dependent limiter (dynamic conditional).
G : array[real] :=
  forall i in [1, m]
  construct
    if F[i] > 1. then 1. else if F[i] < -1. then -1. else F[i] endif endif
  endall;

% State update with boundary handling.
V : array[real] :=
  forall i in [0, m+1]
  construct
    if (i = 0)|(i = m+1) then U[i]
    else U[i] + 0.1 * (G[i])
    endif
  endall;

% Running diagnostic: d_i = 0.5*d_(i-1) + V[i] (a linear recurrence the
% compiler maps with the companion pipeline).
D : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    if i < m then iter T := T[i: 0.5*T[i-1] + V[i]]; i := i + 1 enditer else T endif
  endfor;

output V, D;
"
    )
}

fn main() {
    let m = 64usize;
    let mut opts = CompileOptions::default();
    opts.am_boundary = true; // inputs come from / outputs go to array memory
    let compiled = compile_source(&source(m), &opts).expect("compiles");

    let u: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.11).sin() * 3.0).collect();
    let k: Vec<f64> = (0..m + 2)
        .map(|i| 0.8 + 0.2 * (i as f64 * 0.05).cos())
        .collect();
    let mut inputs = HashMap::new();
    inputs.insert("U".to_string(), ArrayVal::from_reals(0, &u));
    inputs.insert("K".to_string(), ArrayVal::from_reals(0, &k));

    let report = check_against_oracle(&compiled, &inputs, 30, 1e-9).expect("oracle");

    println!("== physics step over {} waves ==", 30);
    println!(
        "machine code: {}",
        valpipe::ir::pretty::summary(&compiled.graph)
    );
    println!("packets checked: {}", report.packets_checked);
    for out in ["V", "D"] {
        let iv = report.run.timing(out).interval().unwrap();
        println!("output {out}: interval {iv:.3} instruction times");
    }
    let frac = report.run.am_traffic_fraction();
    println!(
        "\noperation packets to array memories: {:.2}% of {}",
        frac * 100.0,
        report.run.total_fires
    );
    println!(
        "paper §2 claim: ≤ 12.5%  →  {}",
        if frac <= 0.125 {
            "holds ✓"
        } else {
            "VIOLATED ✗"
        }
    );
    assert!(frac <= 0.125);
}
