//! Golden `--emit` stage dumps for the paper's figures.
//!
//! The dumps are deterministic by construction (no wall times, no hash
//! iteration order), so they are committed verbatim under `tests/golden/`
//! and any drift — in the compiler's output graphs, the dump format, or
//! the provenance tables — fails here with a diff-able artifact.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_emit
//! ```

use valpipe::{CompileLimits, CompileOptions, QueryEngine, Stage};

fn fig2_src(m: usize) -> String {
    format!(
        "param m = {m};
input A : array[real] [0, m];
input B : array[real] [0, m];
Y : array[real] :=
  forall i in [0, m]
    y : real := A[i] * B[i];
  construct (y + 2.) * (y - 3.)
  endall;
output Y;"
    )
}

fn fig6_src(m: usize) -> String {
    format!(
        "param m = {m};
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real :=
      if (i = 0)|(i = m+1) then C[i]
      else 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
      endif;
  construct B[i]*(P*P)
  endall;
output A;"
    )
}

fn fig3_src(m: usize) -> String {
    valpipe::val::parser::FIG3_PROGRAM.replace("param m = 32;", &format!("param m = {m};"))
}

/// Dump the requested stages and compare against (or update) the golden
/// file.
fn check(name: &str, src: &str, file: &str, stages: &[Stage]) {
    let out = QueryEngine::new()
        .run_source(
            &CompileOptions::default(),
            &CompileLimits::unbounded(),
            stages,
            src,
            file,
        )
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
    let mut got = String::new();
    for (stage, dump) in &out.dumps {
        got.push_str(&format!("==== {stage} ====\n"));
        got.push_str(dump);
        if !dump.ends_with('\n') {
            got.push('\n');
        }
    }
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e} (run with UPDATE_GOLDEN=1)"));
    assert!(
        got == want,
        "{name}: dump drifted from {path}.\n\
         If the change is intentional, rerun with UPDATE_GOLDEN=1.\n\
         --- got ---\n{got}\n--- want ---\n{want}"
    );
}

/// Fig. 2's scalar pipeline: every stage dump, locking the format of all
/// five artifacts.
#[test]
fn fig2_all_stages() {
    check("fig2_all", &fig2_src(4), "fig2.val", &Stage::ALL);
}

/// Fig. 3 (Example 1 feeding Example 2): the final machine program with
/// its provenance table.
#[test]
fn fig3_machine() {
    check("fig3_machine", &fig3_src(8), "fig3.val", &[Stage::Machine]);
}

/// Fig. 6 (Example 1 standalone): balanced IR and machine program.
#[test]
fn fig6_balanced_and_machine() {
    check(
        "fig6_machine",
        &fig6_src(4),
        "fig6.val",
        &[Stage::Balanced, Stage::Machine],
    );
}
