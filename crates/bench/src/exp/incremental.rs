//! INCR — query-based incremental recompilation: fingerprint-keyed
//! per-block queries across the whole pass pipeline, measured on the §4
//! "several hundred blocks" pipe-structure shape.
//!
//! Claims checked:
//!
//! 1. editing one block of a 1000-block program re-executes fewer than
//!    5% of the compile queries (parse, typecheck, analyze,
//!    lower-region, balance);
//! 2. the warm recompile after that edit is at least 10× faster than a
//!    cold compile of the same source;
//! 3. a warm engine's output is bit-identical to a fresh engine's — same
//!    graph fingerprint, same stage dumps, same diagnostics — across the
//!    workload suite and every committed corpus repro.
//!
//! Flags: `--blocks <n>` (default 1000) sizes the edit workload.

use std::time::Instant;

use super::committed_corpus;
use crate::workloads::{chain_src, fig3_src, fig6_src, physics_src};
use crate::{FaultArgs, Report};
use valpipe_core::{CompileError, CompileLimits, CompileOptions, QueryEngine, Stage};

/// Deterministic digest of one compile outcome: every stage dump plus
/// the graph fingerprint on success, the rendered diagnostic on failure.
fn digest(result: Result<valpipe_core::PipelineOutput, CompileError>) -> String {
    match result {
        Ok(out) => {
            let mut s = format!("fingerprint {:016x}\n", out.compiled.graph.fingerprint());
            for (stage, dump) in &out.dumps {
                s.push_str(&format!("==== {stage} ====\n{dump}"));
            }
            s
        }
        Err(e) => format!("error: {e}\n"),
    }
}

fn engine_compile(
    engine: &mut QueryEngine,
    src: &str,
    file: &str,
    limits: &CompileLimits,
    emit: &[Stage],
) -> Result<valpipe_core::PipelineOutput, CompileError> {
    engine.run_source(&CompileOptions::paper(), limits, emit, src, file)
}

/// Replace the first `0.5` literal inside block `S<k>`'s statement with
/// `0.7` — a length-preserving single-block edit.
fn edit_block(src: &str, k: usize) -> String {
    let needle = format!("S{k} : array[real]");
    let at = src.find(&needle).expect("workload block present");
    let lit = src[at..].find("0.5").expect("editable literal") + at;
    let mut s = src.to_string();
    s.replace_range(lit..lit + 3, "0.7");
    s
}

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "INCR: query-based incremental recompilation",
        Some("engineering suite (no paper figure); §4 pipe structures of several hundred blocks"),
    );

    let blocks = args.blocks.unwrap_or(1000);
    let m = 2 * blocks + 16;
    let src = chain_src(m, blocks);
    let limits = CompileLimits::unbounded();
    println!();
    println!(
        "workload: {blocks}-block stencil chain over [0, {}] ({} bytes of Val)",
        m + 1,
        src.len()
    );

    // ---- cold compile --------------------------------------------------
    let mut engine = QueryEngine::new();
    let t0 = Instant::now();
    let cold = engine_compile(&mut engine, &src, "chain.val", &limits, &[]).unwrap();
    let t_cold = t0.elapsed().as_secs_f64();
    let cold_queries = engine.stats().total();
    rep.observe("cells", cold.compiled.graph.node_count());
    rep.observe("arcs", cold.compiled.graph.arcs.len());
    rep.observe("cold compile", format!("{:.1} ms", t_cold * 1e3));
    rep.observe(
        "cold compile per block",
        format!("{:.4} ms", t_cold * 1e3 / blocks as f64),
    );
    rep.observe("queries (cold)", engine.stats().render());
    rep.observe(
        "memo-key bytes per block (cold)",
        engine.stats().key_bytes.total() / blocks,
    );

    // ---- one-block edit, warm recompile --------------------------------
    let edited = edit_block(&src, blocks / 2);
    assert_eq!(edited.len(), src.len(), "edit must preserve length");
    let t0 = Instant::now();
    let warm = engine_compile(&mut engine, &edited, "chain.val", &limits, &[]).unwrap();
    let t_warm = t0.elapsed().as_secs_f64();
    let executed = engine.stats().executed();
    let total = engine.stats().total();
    let frac = executed as f64 / total as f64;
    rep.observe(
        "warm recompile after 1-block edit",
        format!("{:.1} ms", t_warm * 1e3),
    );
    rep.observe("queries (warm)", engine.stats().render());
    rep.observe(
        "re-executed fraction",
        format!("{executed}/{total} = {:.3}%", frac * 100.0),
    );
    rep.observe("speedup (cold/warm)", format!("{:.1}x", t_cold / t_warm));

    // The warm artifact must equal a cold compile of the edited source.
    let cold_edited =
        engine_compile(&mut QueryEngine::new(), &edited, "chain.val", &limits, &[]).unwrap();
    let warm_identical =
        warm.compiled.graph.fingerprint() == cold_edited.compiled.graph.fingerprint();
    rep.observe(
        "warm output vs cold-of-edited",
        if warm_identical {
            "identical fingerprints"
        } else {
            "MISMATCH"
        },
    );

    // ---- fresh engine vs warm engine, bit for bit ----------------------
    let mut suite: Vec<(String, String)> = vec![
        ("fig3/m32".into(), fig3_src(32)),
        ("fig3/m256".into(), fig3_src(256)),
        ("fig6/m64".into(), fig6_src(64)),
        ("physics/m48".into(), physics_src(48)),
        ("chain/8".into(), chain_src(40, 8)),
        ("chain/8-edited".into(), edit_block(&chain_src(40, 8), 4)),
    ];
    let corpus = committed_corpus();
    if corpus.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(&corpus)
            .unwrap()
            .filter_map(|f| f.ok().map(|f| f.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "val"))
            .collect();
        files.sort();
        for p in files {
            let name = format!("corpus/{}", p.file_name().unwrap().to_string_lossy());
            suite.push((name, std::fs::read_to_string(&p).unwrap()));
        }
    }

    println!();
    let default_limits = CompileLimits::default();
    let mut mismatches = 0usize;
    for (name, text) in &suite {
        // A second run on the same engine answers from the memo; it must
        // replay the fresh engine's output, not approximate it.
        let mut engine = QueryEngine::new();
        let fresh = digest(engine_compile(
            &mut engine,
            text,
            name,
            &default_limits,
            &Stage::ALL,
        ));
        let warm = digest(engine_compile(
            &mut engine,
            text,
            name,
            &default_limits,
            &Stage::ALL,
        ));
        let ok = fresh == warm;
        if !ok {
            mismatches += 1;
        }
        rep.observe(
            name,
            if ok {
                "warm bit-identical to fresh engine"
            } else {
                "MISMATCH"
            },
        );
    }

    println!();
    rep.claim(
        format!(
            "a single-block edit of a {blocks}-block program re-executes <5% of \
             compile queries ({executed}/{total} = {:.3}%)",
            frac * 100.0
        ),
        frac < 0.05 && cold_queries > 0,
    );
    rep.claim(
        format!(
            "the warm recompile is >=10x faster than cold ({:.1} ms vs {:.1} ms, {:.1}x)",
            t_warm * 1e3,
            t_cold * 1e3,
            t_cold / t_warm
        ),
        t_cold / t_warm >= 10.0 && warm_identical,
    );
    rep.claim(
        format!(
            "cold and warm engine output is bit-identical across {} workloads \
             and corpus repros",
            suite.len()
        ),
        mismatches == 0 && !suite.is_empty(),
    );
    rep
}
