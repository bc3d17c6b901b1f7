//! The paper's Fig. 3 pipe-structured program: Example 1 (forall) feeding
//! Example 2 (for-iter), compiled as ONE fully pipelined machine program
//! (Theorem 4). Prints the instruction-cell listing and writes a Graphviz
//! rendering next to the binary.
//!
//! ```sh
//! cargo run --release --example smoothing_pipeline
//! ```

use std::collections::HashMap;
use valpipe::compiler::verify::check_against_oracle;
use valpipe::val::parser::FIG3_PROGRAM;
use valpipe::{compile_source, ArrayVal, CompileOptions};

fn main() {
    let compiled = compile_source(FIG3_PROGRAM, &CompileOptions::paper()).expect("compiles");

    println!("== Fig. 3 pipe-structured program ==\n");
    println!("flow dependency graph:");
    for (p, c) in &compiled.flow.edges {
        println!("  {p} → {c}");
    }
    println!("\nblocks:");
    for b in &compiled.flow.blocks {
        println!(
            "  {} over [{}, {}], consumes {:?}",
            b.name, b.range.0, b.range.1, b.consumes
        );
    }

    println!(
        "\n== machine code ({}) ==",
        valpipe::ir::pretty::summary(&compiled.graph)
    );
    let listing = valpipe::ir::pretty::listing(&compiled.graph);
    for line in listing.lines().take(25) {
        println!("{line}");
    }
    println!("  … ({} cells total)", compiled.graph.node_count());

    // Graphviz export of the full program.
    let dot = valpipe::ir::dot::to_dot(&compiled.graph, "fig3");
    let path = std::env::temp_dir().join("valpipe_fig3.dot");
    std::fs::write(&path, dot).expect("write dot");
    println!("\nGraphviz written to {}", path.display());

    // Execute 40 waves with firing traces and verify.
    let m = 32usize;
    let b: Vec<f64> = (0..m + 2).map(|i| 0.5 + (i as f64 * 0.37).sin()).collect();
    let c: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.21).cos()).collect();
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), ArrayVal::from_reals(0, &b));
    inputs.insert("C".to_string(), ArrayVal::from_reals(0, &c));
    let report = check_against_oracle(&compiled, &inputs, 40, 1e-9).expect("oracle");
    println!("\n== execution over 40 waves ==");
    println!("packets checked: {}", report.packets_checked);
    for out in ["A", "X"] {
        let iv = report.run.timing(out).interval().unwrap();
        println!(
            "output {out}: interval {iv:.3} instruction times (rate {:.3})",
            1.0 / iv
        );
    }

    // Occupancy + Chrome trace of a short traced run.
    let exe = compiled.executable();
    let sim_inputs = valpipe::compiler::verify::stream_inputs(&compiled, &inputs, 6);
    let traced = valpipe::Simulator::builder(&exe)
        .inputs(sim_inputs)
        .config(valpipe::SimConfig::new().record_fire_times(true))
        .run()
        .expect("run");
    println!("\n== occupancy (6 waves) ==");
    print!("{}", valpipe::machine::occupancy_chart(&traced, 64));
    let trace = valpipe::machine::chrome_trace(&exe, &traced).expect("trace");
    let tpath = std::env::temp_dir().join("valpipe_fig3_trace.json");
    std::fs::write(&tpath, trace).expect("write trace");
    println!("Chrome/Perfetto trace written to {}", tpath.display());
    println!("\nThe whole producer/consumer pipeline runs fully pipelined (Theorem 4) ✓");
}
