//! Bench: compiler wall time — frontend + classification + graph
//! construction + balancing — across workloads and sizes, plus the
//! query engine's cold-vs-warm incremental recompile phases.
//!
//! The incremental rows land in the machine bench trajectory
//! (`BENCH_machine.json` under `--json`) with `steps` = source bytes, so
//! `steps_per_sec` reads as compile throughput in bytes/s and the
//! regression gate can watch both the cold pipeline and the warm
//! single-block-edit path. Per-pass wall times ride along as a nested
//! `passes` object (milliseconds).

use valpipe_bench::timing::{bench, iters, json_mode, median_secs, smoke_mode, BenchLog};
use valpipe_bench::workloads::{chain_src, fig3_src, fig6_src};
use valpipe_core::{
    compile_source, CompileLimits, CompileOptions, ForIterScheme, PipelineOutput, QueryEngine,
};
use valpipe_util::Json;

fn engine_compile(engine: &mut QueryEngine, src: &str) -> PipelineOutput {
    engine
        .run_source(
            &CompileOptions::default(),
            &CompileLimits::unbounded(),
            &[],
            src,
            "bench.val",
        )
        .unwrap()
}

/// Per-pass wall times of one run, as a `{name: ms}` JSON object.
fn pass_millis(out: &PipelineOutput) -> Json {
    Json::Obj(
        out.pass_stats
            .iter()
            .map(|s| (s.name.to_string(), Json::Float(s.wall_s * 1e3)))
            .collect(),
    )
}

/// Cold compile, warm no-op recompile, and warm single-block-edit
/// recompile of one workload, recorded into the trajectory. The edit
/// swaps one block's literal for a fresh value each iteration, so every
/// timed run pays the true steady-state cost of one changed block.
///
/// Iteration counts deliberately ignore smoke mode (smoke already trims
/// the *workload* via `big`): these rows feed the bench_gate regression
/// comparison, and a single-sample median of a ~30 ms warm recompile is
/// too jittery for a 15% threshold. Warm phases are cheap, so they get
/// extra samples.
fn incremental_phases(log: &mut BenchLog, label: &str, src: &str, n: usize) {
    let n_warm = n.max(15);
    let bytes = src.len() as u64;
    let reference = engine_compile(&mut QueryEngine::new(), src);
    let (cells, arcs) = (
        reference.compiled.graph.node_count(),
        reference.compiled.graph.arcs.len(),
    );

    let t_cold = median_secs(n, || {
        engine_compile(&mut QueryEngine::new(), src);
    });
    println!("compile/{label}/cold: {:.3} ms", t_cold * 1e3);
    log.record_with(
        label,
        cells,
        arcs,
        "compile-cold",
        1,
        bytes,
        t_cold,
        [
            ("src_bytes", Json::Int(bytes as i64)),
            ("ns_per_byte", Json::Float(t_cold * 1e9 / bytes as f64)),
            ("passes", pass_millis(&reference)),
        ],
    );

    let mut engine = QueryEngine::new();
    engine_compile(&mut engine, src);
    let t_noop = median_secs(n_warm, || {
        engine_compile(&mut engine, src);
    });
    let noop_stats = (engine.stats().total(), engine.stats().executed());
    println!("compile/{label}/warm-noop: {:.3} ms", t_noop * 1e3);
    log.record_with(
        label,
        cells,
        arcs,
        "compile-warm-noop",
        1,
        bytes,
        t_noop,
        [
            ("src_bytes", Json::Int(bytes as i64)),
            ("ns_per_byte", Json::Float(t_noop * 1e9 / bytes as f64)),
            ("queries_total", Json::Int(noop_stats.0 as i64)),
            ("queries_executed", Json::Int(noop_stats.1 as i64)),
        ],
    );

    // One length-preserving literal edit per timed run, each with a fresh
    // value so the edited block's queries genuinely re-execute.
    assert!(
        src.contains("0.5"),
        "workload must carry an editable literal"
    );
    let mut serial = 0usize;
    let t_edit = median_secs(n_warm, || {
        serial += 1;
        let lit = format!("0.{}", 51 + (serial % 49)); // 0.51 ..= 0.99
        let edited = src.replacen("0.5", &lit, 1);
        engine_compile(&mut engine, &edited);
    });
    let edit_stats = (engine.stats().total(), engine.stats().executed());
    println!("compile/{label}/warm-edit: {:.3} ms", t_edit * 1e3);
    log.record_with(
        label,
        cells,
        arcs,
        "compile-warm-edit",
        1,
        bytes,
        t_edit,
        [
            ("src_bytes", Json::Int(bytes as i64)),
            ("ns_per_byte", Json::Float(t_edit * 1e9 / bytes as f64)),
            ("queries_total", Json::Int(edit_stats.0 as i64)),
            ("queries_executed", Json::Int(edit_stats.1 as i64)),
        ],
    );
}

fn main() {
    for m in [32usize, 256, 1024] {
        let src = fig6_src(m);
        bench(&format!("compile/fig6_forall/{m}"), iters(20), || {
            compile_source(&src, &CompileOptions::default()).unwrap()
        });
        let src = fig3_src(m);
        bench(&format!("compile/fig3_program/{m}"), iters(20), || {
            compile_source(&src, &CompileOptions::default()).unwrap()
        });
    }
    for blocks in [10usize, 40] {
        let src = chain_src(2 * blocks + 16, blocks);
        bench(&format!("compile/chain_blocks/{blocks}"), iters(20), || {
            compile_source(&src, &CompileOptions::default()).unwrap()
        });
    }
    let mut todd = CompileOptions::default();
    todd.scheme = ForIterScheme::Todd;
    let src = fig3_src(256);
    bench("compile/fig3_todd_m256", iters(20), || {
        compile_source(&src, &todd).unwrap()
    });

    // Incremental phases: small, medium, and the §4 "several hundred
    // blocks" shape (trimmed in smoke mode to keep CI fast).
    let mut log = BenchLog::new();
    let big = if smoke_mode() { 250 } else { 1000 };
    incremental_phases(&mut log, "incr_small_chain4", &chain_src(24, 4), 20);
    incremental_phases(
        &mut log,
        "incr_medium_chain40",
        &chain_src(96, 40),
        iters(10),
    );
    incremental_phases(
        &mut log,
        &format!("incr_large_chain{big}"),
        &chain_src(2 * big + 16, big),
        iters(3),
    );

    if json_mode() {
        let path = log
            .write("compile")
            .expect("bench trajectory must be writable");
        println!("compile: wrote bench trajectory to {path}");
    }
}
