//! FUZZ — differential fuzzing: random well-typed pipe programs through
//! the interpreter oracle and the full machine matrix (3 kernels exact,
//! scan and event under fast-forward, kill-and-restore-from-snapshot),
//! plus corrupted mutants through the never-panic check, plus byte-exact
//! replay of the committed regression corpus in `tests/corpus/`.
//!
//! Claims checked:
//!
//! 1. every valid generated program agrees across the oracle and every
//!    machine leg — zero divergences, zero panics;
//! 2. corrupted sources always answer with typed errors, never panics or
//!    bit-identity breaks;
//! 3. no generated program is rejected at all (the historical gating
//!    phantom-deadlock class is fixed; see `tests/corpus/fixed-*.val`);
//! 4. every committed corpus repro replays byte-identically.
//!
//! Flags: `--trials <n>` (default 500), `--seed <n>` (default 0xD1FF,
//! hex ok), `--shrink` (delta-debug findings), `--corpus <dir>` (where
//! shrunk repros go; default `tests/corpus` for replay, findings are
//! only written when `--shrink` and `--corpus` are both given).

use std::path::PathBuf;

use super::committed_corpus;
use crate::{FaultArgs, Report};
use valpipe_fuzz::{replay_dir, run_campaign, with_quiet_panics, CampaignConfig};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "FUZZ: differential fuzzing — oracle vs. machine matrix vs. corpus",
        Some("robustness suite (no paper figure); Dennis–Gao pipelinable class"),
    );

    let cfg = CampaignConfig {
        trials: args.trials.unwrap_or(500) as usize,
        seed: args.seed.unwrap_or(0xD1FF),
        mutants_per_trial: 2,
        shrink: args.shrink,
        corpus_dir: args.corpus.as_ref().map(PathBuf::from),
    };
    println!();
    println!(
        "campaign: {} trials from seed {:#x}, {} mutants/trial{}",
        cfg.trials,
        cfg.seed,
        cfg.mutants_per_trial,
        if cfg.shrink {
            ", shrinking findings"
        } else {
            ""
        }
    );

    let report = with_quiet_panics(|| run_campaign(&cfg, |line| println!("{line}")));

    println!();
    rep.observe("generated programs", report.trials);
    rep.observe("full-matrix passes", report.passes);
    rep.observe("output packets compared", report.packets);
    rep.observe(
        "typed rejections (expected zero)",
        report.generated_rejections,
    );
    rep.observe("mutants run", report.mutant_runs);
    rep.observe(
        "mutants rejected with typed errors",
        report.mutant_rejections,
    );
    rep.observe("mutants passing (benign damage)", report.mutant_passes);
    rep.observe("mutant budget blowups (not defects)", report.mutant_stalls);
    rep.observe("findings", report.findings.len());
    for f in &report.findings {
        println!("  finding ({}, seed {}): {}", f.origin, f.seed, f.line);
    }

    let generated_findings = report
        .findings
        .iter()
        .filter(|f| f.origin == "generated")
        .count();
    let mutant_findings = report
        .findings
        .iter()
        .filter(|f| f.origin == "mutant")
        .count();

    // Corpus replay: every committed repro must reproduce its recorded
    // outcome line byte-for-byte under the pinned replay profile.
    let corpus = committed_corpus();
    let (replayed, replay_ok) = if corpus.is_dir() {
        match with_quiet_panics(|| replay_dir(&corpus)) {
            Ok(results) => {
                println!();
                for r in &results {
                    let name = r
                        .path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    if r.ok {
                        rep.observe(&format!("corpus {name}"), &r.expect);
                    } else {
                        rep.observe(
                            &format!("corpus {name} MISMATCH"),
                            format!("expect '{}', actual '{}'", r.expect, r.actual),
                        );
                    }
                }
                let ok = results.iter().all(|r| r.ok);
                (results.len(), ok)
            }
            Err(e) => {
                rep.observe("corpus replay error", e);
                (0, false)
            }
        }
    } else {
        rep.observe("corpus", "tests/corpus/ not found; replay skipped");
        (0, false)
    };

    println!();
    rep.claim(
        format!(
            "every valid generated program agrees across oracle, {} machine legs, \
             and kill-restore ({}/{} pass, 0 divergences, 0 panics)",
            valpipe_fuzz::diff::matrix().len(),
            report.passes,
            report.trials
        ),
        generated_findings == 0 && report.passes + report.generated_rejections == report.trials,
    );
    rep.claim(
        format!(
            "corrupted sources answer with typed errors, never panics \
             ({} mutants, {} typed rejections)",
            report.mutant_runs, report.mutant_rejections
        ),
        mutant_findings == 0,
    );
    rep.claim(
        format!(
            "no generated program is rejected — the reconvergent-gating class \
             compiles since the fusion fix ({}/{} trials rejected)",
            report.generated_rejections, report.trials
        ),
        report.acceptable_rejection_rate(),
    );
    rep.claim(
        format!("all {replayed} committed corpus repros replay byte-identically"),
        replay_ok && replayed > 0,
    );
    rep
}
