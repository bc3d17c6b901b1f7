//! Bench: simulator throughput (instruction times and packets per wall
//! second) on the paper's workloads.

use valpipe_bench::timing::{bench_throughput, iters};
use valpipe_bench::workloads::{example2_src, fig3_src, fig6_src, inputs_for_compiled};
use valpipe_core::verify::{run, stream_inputs};
use valpipe_core::{compile_source, CompileOptions, ForIterScheme};
use valpipe_machine::{SimConfig, Simulator};

fn main() {
    let waves = 10usize;
    for (name, src, opts) in [
        ("fig6", fig6_src(64), CompileOptions::default()),
        ("fig3", fig3_src(64), CompileOptions::default()),
        ("fig8_companion", example2_src(64), {
            let mut o = CompileOptions::default();
            o.scheme = ForIterScheme::Companion;
            o
        }),
        ("fig7_todd", example2_src(64), {
            let mut o = CompileOptions::default();
            o.scheme = ForIterScheme::Todd;
            o
        }),
    ] {
        let compiled = compile_source(&src, &opts).unwrap();
        let exe = compiled.executable();
        let arrays = inputs_for_compiled(&compiled);
        let inputs = stream_inputs(&compiled, &arrays, waves);
        // Packets processed per run (measure once for throughput units).
        let probe = run(&compiled, &arrays, waves, SimConfig::new()).unwrap();
        bench_throughput(
            &format!("simulate/{name}/64"),
            iters(10),
            probe.total_fires,
            || {
                Simulator::builder(&exe)
                    .inputs(inputs.clone())
                    .run()
                    .unwrap()
            },
        );
    }
}
