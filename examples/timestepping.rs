//! Multi-time-step driving (§2's array-memory story): the physics step is
//! one pipe-structured program; between steps the state array lives in the
//! **array memories** — "data that must be held for a long time interval
//! before being consumed by further computational blocks, for example, the
//! data produced by one time step of a physics simulation".
//!
//! This driver runs T time steps, each as one fully pipelined machine run,
//! feeding the produced state back as next step's input, and accounts the
//! operation-packet traffic: only the AM boundary cells ever touch the
//! array memories.
//!
//! ```sh
//! cargo run --release --example timestepping
//! ```

use std::collections::HashMap;
use valpipe::compiler::verify::run;
use valpipe::SimConfig;
use valpipe::{compile_source, ArrayVal, CompileOptions};

fn source(m: usize) -> String {
    format!(
        "
param m = {m};
input U : array[real] [0, m+1];
V : array[real] :=
  forall i in [0, m+1]
  construct
    if (i = 0)|(i = m+1) then U[i]
    else U[i] + 0.2 * (U[i-1] - 2.*U[i] + U[i+1])
    endif
  endall;
output V;
"
    )
}

fn main() {
    let m = 48usize;
    let steps = 12usize;
    let mut opts = CompileOptions::default();
    opts.am_boundary = true;
    let compiled = compile_source(&source(m), &opts).expect("compiles");
    println!("== diffusion over {steps} time steps, m = {m} ==");
    println!(
        "machine code: {}",
        valpipe::ir::pretty::summary(&compiled.graph)
    );

    // Initial condition: a spike in the middle.
    let mut u: Vec<f64> = vec![0.0; m + 2];
    u[(m + 2) / 2] = 100.0;

    let mut total_fires = 0u64;
    let mut am_fires = 0u64;
    for step in 0..steps {
        let mut arrays = HashMap::new();
        arrays.insert("U".to_string(), ArrayVal::from_reals(0, &u));
        let r = run(&compiled, &arrays, 1, SimConfig::new()).expect("step runs");
        assert!(r.sources_exhausted);
        let v = r.reals("V");
        total_fires += r.total_fires;
        am_fires += r.am_fires;
        // Conservation (boundaries fixed at 0 ⇒ interior mass decays only
        // through them; early steps conserve to numerical accuracy).
        let mass: f64 = v.iter().sum();
        if step < 3 {
            let before: f64 = u.iter().sum();
            assert!((mass - before).abs() < 1e-9, "diffusion must conserve mass");
        }
        u = v;
    }

    let peak = u.iter().cloned().fold(f64::MIN, f64::max);
    println!("peak after {steps} steps: {peak:.3} (spreads out from 100.0)");
    assert!(peak < 40.0 && peak > 1.0);
    let frac = am_fires as f64 / total_fires as f64;
    println!(
        "operation packets to array memories across all steps: {:.2}% of {}",
        frac * 100.0,
        total_fires
    );
    assert!(frac <= 0.125, "§2: at most one eighth to the AMs");
    println!("\nState crosses time steps only through the array memories ✓");
}
