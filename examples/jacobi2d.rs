//! §9's multi-dimensional extension: a 2-D Jacobi relaxation sweep with
//! boundary conditions, compiled to a fully pipelined row-major stream
//! program (column neighbours are ±1 taps, row neighbours ±W taps — the
//! same Fig. 4 window machinery, wider skew FIFOs).
//!
//! ```sh
//! cargo run --release --example jacobi2d
//! ```

use std::collections::HashMap;
use valpipe::compiler::verify::check_against_oracle;
use valpipe::{compile_source, ArrayVal, CompileOptions};

fn source(n: usize, m: usize) -> String {
    format!(
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
    )
}

fn main() {
    let (n, m) = (14usize, 18usize);
    let compiled = compile_source(&source(n, m), &CompileOptions::default()).expect("compiles");
    let shape = compiled.dims.shapes["V"];
    println!(
        "== 2-D Jacobi sweep, {}×{} grid ==",
        shape.height(),
        shape.width()
    );
    println!(
        "machine code: {}",
        valpipe::ir::pretty::summary(&compiled.graph)
    );
    println!(
        "row-neighbour taps carry offset ±{} (the row-major stride); the balancer",
        shape.width()
    );
    println!("inserts the matching skew FIFOs automatically.\n");

    let rows: Vec<Vec<f64>> = (0..n + 2)
        .map(|i| {
            (0..m + 2)
                .map(|j| (i as f64 * 0.31).sin() + (j as f64 * 0.17).cos())
                .collect()
        })
        .collect();
    let mut inputs = HashMap::new();
    inputs.insert("U".to_string(), ArrayVal::from_grid(&rows));
    let report = check_against_oracle(&compiled, &inputs, 20, 1e-12).expect("oracle");

    println!(
        "packets checked: {} (20 grid sweeps)",
        report.packets_checked
    );
    let iv = report.run.timing("V").interval().unwrap();
    println!("steady-state interval: {iv:.3} instruction times (max rate = 2.0)");
    assert!((iv - 2.0).abs() < 0.1);
    println!("\n2-D arrays as row-major packet streams: fully pipelined ✓");
}
