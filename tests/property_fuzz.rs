//! Property tests for the fuzzing subsystem (`crates/fuzz`).
//!
//! * **Generator validity** — every generated program parses, type
//!   checks, and (when the compiler accepts it) terminates under the
//!   interpreter within its iteration guard; rejections stay inside the
//!   known gating-limitation footprint.
//! * **Mutator safety** — corrupted sources never panic the frontend or
//!   the limited compile path; every answer is a typed error or a valid
//!   compilation.
//! * **Differential smoke** — the oracle-vs-matrix executor passes on a
//!   spread of seeds (the deep campaign lives in `valpipe-exp fuzz`).
//! * **Shrinker contract** — reduction preserves the failure predicate
//!   end-to-end through the real differential executor.

use std::panic::{catch_unwind, AssertUnwindSafe};

use valpipe::{compile_source_limited, CompileError, CompileLimits, CompileOptions};
use valpipe_fuzz::{generate, mutate, run_case, shrink, CaseSpec, Outcome};
use valpipe_util::Rng;
use valpipe_val::interp;

#[test]
fn generated_programs_parse_typecheck_and_terminate() {
    for seed in 0..64u64 {
        let case = generate(seed);
        let prog = valpipe_val::parse_program(&case.src)
            .unwrap_or_else(|e| panic!("seed {seed} does not parse: {e}\n{}", case.src));
        valpipe_val::check_program(&prog)
            .unwrap_or_else(|e| panic!("seed {seed} does not typecheck: {e}\n{}", case.src));
        // Every generated program compiles: the historical reconvergent-
        // gating rejection (phantom deadlock out of gate fusion) is fixed
        // and anchored by tests/corpus/fixed-*.val.
        let compiled =
            compile_source_limited(&case.src, "<gen>", &case.opts, &CompileLimits::default())
                .unwrap_or_else(|e| panic!("seed {seed}: unexpected rejection: {e}\n{}", case.src));
        // Terminates with a value under the interpreter's own iteration
        // guard — the generator's declared budget.
        let arrays = valpipe_fuzz::diff::standard_arrays(&compiled);
        interp::run_program(&compiled.program, &arrays).unwrap_or_else(|e| {
            panic!("seed {seed} does not terminate cleanly: {e}\n{}", case.src)
        });
    }
}

#[test]
fn mutants_never_panic_the_compiler() {
    let opts = CompileOptions::default();
    let limits = CompileLimits::service();
    let mut r = Rng::seed(0xFA22);
    for seed in 0..32u64 {
        let case = generate(seed);
        for round in 0..4 {
            let mutant = mutate(&case.src, &mut r);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                compile_source_limited(&mutant, "<mutant>", &opts, &limits).map(|_| ())
            }));
            match outcome {
                Ok(_) => {} // typed error or clean compile — both fine
                Err(_) => panic!("seed {seed} mutant {round} panicked the compiler:\n{mutant}"),
            }
        }
    }
}

#[test]
fn mutants_over_limits_get_limit_errors_not_panics() {
    // Force the over-limit paths: tiny budgets make almost every mutant
    // (and the original) breach something; all breaches must surface as
    // CompileError::Limit, never a panic.
    let opts = CompileOptions::default();
    let tight = CompileLimits {
        max_source_bytes: 200,
        max_nesting_depth: 4,
        max_cells: 12,
        max_arcs: 20,
        max_fifo_depth: 2,
        ..CompileLimits::default()
    };
    let mut r = Rng::seed(0x717E);
    let mut limit_hits = 0usize;
    for seed in 0..16u64 {
        let case = generate(seed);
        for _ in 0..2 {
            let mutant = mutate(&case.src, &mut r);
            if let Err(CompileError::Limit(_)) =
                compile_source_limited(&mutant, "<tight>", &opts, &tight)
            {
                limit_hits += 1;
            }
        }
    }
    assert!(limit_hits > 0, "tight budgets never tripped a limit");
}

#[test]
fn differential_matrix_smoke() {
    for seed in 0..16u64 {
        let case = generate(seed);
        let outcome = run_case(&CaseSpec::from_gen(&case));
        assert!(
            !outcome.is_failure(),
            "seed {seed}: {}\n{}",
            outcome.line(),
            case.src
        );
    }
}

#[test]
fn shrinker_preserves_failures_through_the_executor() {
    // A real over-limit failure mode: the shrunk repro must still trip
    // the same rejection line through the full differential pipeline.
    let deep = format!(
        "param m = 8;\ninput P : array[real] [0, m+1];\n\
         Y : array[real] := forall i in [1, m] construct {}P[i]{} endall;\noutput Y;\n",
        "(".repeat(120),
        ")".repeat(120)
    );
    let want = run_case(&CaseSpec::replay(deep.clone())).line();
    assert!(want.starts_with("rejected[limit]"), "got {want}");
    let small = shrink(&deep, |s| run_case(&CaseSpec::replay(s)).line() == want);
    assert!(small.len() < deep.len(), "no reduction achieved");
    assert_eq!(run_case(&CaseSpec::replay(small)).line(), want);
}

#[test]
fn outcome_classification_covers_the_triad() {
    // One of each: pass, typed rejection, resource-limit rejection.
    let pass = run_case(&CaseSpec::replay(
        "param m = 8;\ninput P : array[real] [0, m+1];\n\
         Y : array[real] := forall i in [1, m] construct P[i] endall;\noutput Y;\n",
    ));
    assert!(matches!(pass, Outcome::Pass { .. }), "got {}", pass.line());
    let garbage = run_case(&CaseSpec::replay("endall endfor ]]"));
    assert!(
        matches!(
            garbage,
            Outcome::Rejected {
                stage: "compile",
                ..
            }
        ),
        "got {}",
        garbage.line()
    );
    let over = run_case(&CaseSpec::replay(format!(
        "param m = 8;\ninput P : array[real] [0, m+1];\n\
         Y : array[real] := forall i in [1, m] construct {}P[i]{} endall;\noutput Y;\n",
        "(".repeat(200),
        ")".repeat(200)
    )));
    assert!(
        matches!(over, Outcome::Rejected { stage: "limit", .. }),
        "got {}",
        over.line()
    );
}
