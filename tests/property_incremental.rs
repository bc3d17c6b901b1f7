//! Property suite for the incremental query engine: warm recompiles must
//! be byte-identical to cold compiles — for arbitrary random programs,
//! random single-block edits, cell-count edits, aliased providers, memo
//! eviction, and corrupted mutants (typed errors included).

use valpipe::compiler::{PipelineOutput, QueryEngine};
use valpipe::{CompileError, CompileLimits, CompileOptions, Stage};
use valpipe_fuzz::{generate, mutate};
use valpipe_util::Rng;

fn compile(
    engine: &mut QueryEngine,
    src: &str,
    opts: &CompileOptions,
) -> Result<PipelineOutput, CompileError> {
    engine.run_source(
        opts,
        &CompileLimits::default(),
        &Stage::ALL,
        src,
        "prop.val",
    )
}

/// Deterministic digest of a compile outcome: stage dumps plus graph
/// fingerprint on success, rendered diagnostic on failure.
fn digest(r: &Result<PipelineOutput, CompileError>) -> String {
    match r {
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

/// Pass-stat invariants: the warm run must replicate the cold run's pass
/// sequence and graph sizes exactly (wall times are the only freedom).
fn assert_stats_match(cold: &PipelineOutput, warm: &PipelineOutput) {
    let names = |o: &PipelineOutput| o.pass_stats.iter().map(|s| s.name).collect::<Vec<_>>();
    assert_eq!(names(cold), names(warm));
    for (c, w) in cold.pass_stats.iter().zip(&warm.pass_stats) {
        assert_eq!(
            (c.nodes_before, c.arcs_before, c.nodes_after, c.arcs_after),
            (w.nodes_before, w.arcs_before, w.nodes_after, w.arcs_after),
            "pass {} sizes diverge between cold and warm",
            c.name
        );
    }
}

/// A small chain program with an editable literal per block.
fn chain(blocks: usize, lits: &[&str]) -> String {
    let m = 2 * blocks + 8;
    let mut s = format!("param m = {m};\ninput S0 : array[real] [0, m+1];\n");
    for k in 1..=blocks {
        s.push_str(&format!(
            "S{k} : array[real] := forall i in [{k}, m+1-{k}] construct {} * (S{}[i-1] + S{}[i+1]) endall;\n",
            lits[(k - 1) % lits.len()],
            k - 1,
            k - 1
        ));
    }
    s.push_str(&format!("output S{blocks};\n"));
    s
}

#[test]
fn single_block_edits_recompile_byte_identically_and_sparsely() {
    let base = chain(8, &["0.5"]);
    let opts = CompileOptions::paper();
    let mut engine = QueryEngine::new();
    compile(&mut engine, &base, &opts).unwrap();

    let mut r = Rng::seed(0x1AC1);
    for trial in 0..12u64 {
        // Edit one random block to one random (length-preserving) literal.
        let k = 1 + r.below(8);
        let lit = format!("0.{}", 51 + r.below(49));
        let mut lits = vec!["0.5"; 8];
        lits[k - 1] = &lit;
        let edited = chain(8, &lits);

        let warm = compile(&mut engine, &edited, &opts).unwrap();
        let executed = engine.stats().executed();
        let total = engine.stats().total();
        let cold = compile(&mut QueryEngine::new(), &edited, &opts).unwrap();
        assert_eq!(
            digest(&Ok(cold.clone())),
            digest(&Ok(warm.clone())),
            "trial {trial}: warm artifact diverged from cold"
        );
        assert_stats_match(&cold, &warm);
        assert!(
            executed * 4 < total,
            "trial {trial}: edit of 1/8 blocks re-executed {executed}/{total} queries"
        );
    }
}

/// Drop the `0.5 * ` scale from block `S<k>` of a [`chain`] program: the
/// block loses its multiply cell, so every later block's cells, arcs and
/// labels sit at different ids than before.
fn drop_scale(src: &str, k: usize) -> String {
    let at = src
        .find(&format!("S{k} : array[real]"))
        .expect("block present");
    let end = at + src[at..].find('\n').expect("one line per block");
    let line = src[at..end].replacen("0.5 * ", "", 1);
    assert_ne!(line, src[at..end], "block S{k} carries a scale");
    format!("{}{line}{}", &src[..at], &src[end..])
}

#[test]
fn cell_count_edits_reexecute_only_the_edited_block() {
    let base = chain(8, &["0.5"]);
    let opts = CompileOptions::paper();
    let cold_base = compile(&mut QueryEngine::new(), &base, &opts).unwrap();
    let mut engine = QueryEngine::new();
    compile(&mut engine, &base, &opts).unwrap();

    // Every block once, in a seeded order, so each edit is new to the
    // engine.
    let mut r = Rng::seed(0x1AC5);
    let mut ks: Vec<usize> = (1..=8).collect();
    for i in (1..ks.len()).rev() {
        ks.swap(i, r.below(i + 1));
    }
    for (trial, k) in ks.into_iter().enumerate() {
        let edited = drop_scale(&base, k);
        let cold = compile(&mut QueryEngine::new(), &edited, &opts).unwrap();
        assert_ne!(
            cold.compiled.graph.node_count(),
            cold_base.compiled.graph.node_count(),
            "the edit changes the cell count"
        );
        let warm = compile(&mut engine, &edited, &opts).unwrap();
        let s = engine.stats().clone();
        assert_eq!(
            digest(&Ok(cold.clone())),
            digest(&Ok(warm.clone())),
            "trial {trial} (S{k}): warm artifact diverged from cold"
        );
        assert_stats_match(&cold, &warm);
        // Only block k's own queries re-execute, plus the whole-graph
        // one: the balance problem changed.
        assert_eq!(
            (s.typed.1, s.analyze.1, s.region.1),
            (1, 1, 1),
            "trial {trial} (S{k}): {}",
            s.render()
        );
        assert_eq!(s.balance.1, 1, "{}", s.render());

        // And back: the original program is fully memoized, and every
        // downstream region replays at its old position again.
        let warm_base = compile(&mut engine, &base, &opts).unwrap();
        assert_eq!(engine.stats().executed(), 0, "{}", engine.stats().render());
        assert_eq!(
            digest(&Ok(cold_base.clone())),
            digest(&Ok(warm_base.clone()))
        );
        assert_stats_match(&cold_base, &warm_base);
    }
}

#[test]
fn prepended_lines_move_every_statement_without_reexecuting() {
    let base = chain(8, &["0.5"]);
    let shifted = format!("% moved down one line\n{base}");
    let opts = CompileOptions::paper();
    let mut engine = QueryEngine::new();
    let before = compile(&mut engine, &base, &opts).unwrap();
    let warm = compile(&mut engine, &shifted, &opts).unwrap();
    let s = engine.stats().clone();
    let cold = compile(&mut QueryEngine::new(), &shifted, &opts).unwrap();
    // The digest includes the machine dump's provenance table, so every
    // source location must be the shifted one.
    assert_ne!(digest(&Ok(before)), digest(&Ok(warm.clone())));
    assert_eq!(digest(&Ok(cold.clone())), digest(&Ok(warm.clone())));
    assert_stats_match(&cold, &warm);
    assert_eq!(
        (s.typed.1, s.analyze.1, s.region.1, s.balance.1),
        (0, 0, 0, 0),
        "{}",
        s.render()
    );
}

#[test]
fn aliased_providers_are_part_of_the_region_key() {
    // In the first program `B` is a bare copy of `A`, so both names
    // stream from one cell; in the second `B` has a cell of its own.
    // `C` reads both with identical text, ranges and types: only the
    // aliasing of its providers tells its two regions apart.
    let prog = |b: &str| {
        format!(
            "param m = 6;\ninput A : array[real] [0, m];\n\
             B : array[real] := forall i in [0, m] construct {b} endall;\n\
             C : array[real] := forall i in [0, m] construct A[i] * B[i] endall;\n\
             output C;\n"
        )
    };
    let opts = CompileOptions::paper();
    let mut engine = QueryEngine::new();
    for src in [prog("A[i]"), prog("2. * A[i]"), prog("A[i]")] {
        let warm = compile(&mut engine, &src, &opts);
        let cold = compile(&mut QueryEngine::new(), &src, &opts);
        assert_eq!(digest(&cold), digest(&warm), "{src}");
    }
}

#[test]
fn memo_cap_eviction_keeps_warm_output_equal_to_cold() {
    let opts = CompileOptions::paper();
    let base = chain(6, &["0.5"]);
    let mut engine = QueryEngine::new();
    engine.set_memo_cap(4);
    let mut r = Rng::seed(0x1AC6);
    let mut sources = Vec::new();
    for i in 0..10 {
        // A distinct chain: a fresh literal in one block, and sometimes a
        // dropped scale in another.
        let k = 1 + r.below(6);
        let lit = format!("0.{}", 51 + i);
        let mut lits = vec!["0.5"; 6];
        lits[k - 1] = &lit;
        let mut src = chain(6, &lits);
        let j = 1 + r.below(6);
        if j != k && r.below(2) == 0 {
            src = drop_scale(&src, j);
        }
        sources.push(src);
    }
    sources.push(base);
    for (i, src) in sources.iter().enumerate() {
        let warm = compile(&mut engine, src, &opts);
        let cold = compile(&mut QueryEngine::new(), src, &opts);
        assert_eq!(digest(&cold), digest(&warm), "compile {i}");
        assert_stats_match(&cold.unwrap(), &warm.unwrap());
    }
}

#[test]
fn random_programs_and_mutants_match_cold_including_typed_errors() {
    let mut engine = QueryEngine::new();
    let mut r = Rng::seed(0x1AC2);
    let mut errors_seen = 0usize;
    for seed in 0..25u64 {
        let case = generate(seed);
        // Valid program: cold-vs-warm through the shared engine.
        let cold = compile(&mut QueryEngine::new(), &case.src, &case.opts);
        let warm = compile(&mut engine, &case.src, &case.opts);
        assert_eq!(digest(&cold), digest(&warm), "seed {seed} (original)");

        // Corrupted mutant: the shared warm engine must agree with a cold
        // compile — especially on the diagnostic when the mutant is
        // rejected (cached type errors must re-resolve locations).
        let mutant = mutate(&case.src, &mut r);
        let cold_m = compile(&mut QueryEngine::new(), &mutant, &case.opts);
        let warm_m = compile(&mut engine, &mutant, &case.opts);
        assert_eq!(digest(&cold_m), digest(&warm_m), "seed {seed} (mutant)");
        if cold_m.is_err() {
            errors_seen += 1;
        }
        // And again: the second warm compile of the same mutant answers
        // from the memo and must still render identically.
        let warm_m2 = compile(&mut engine, &mutant, &case.opts);
        assert_eq!(
            digest(&cold_m),
            digest(&warm_m2),
            "seed {seed} (mutant, memoized)"
        );
    }
    assert!(errors_seen > 0, "mutation never produced a rejection");
}
