//! Campaign driver: generate → differentiate → (optionally) shrink →
//! record, shared by the `valpipe-fuzz` binary and the `valpipe-exp fuzz`
//! reporter.
//!
//! Each trial runs one *valid* generated program through the full
//! differential matrix, then a handful of corrupted mutants of the same
//! program through the never-panic check. Valid-program trials must pass;
//! any rejection of a generated program is counted separately because the
//! generator promises validity by construction, so a rejection there is a
//! generator or compiler defect worth eyes. Mutants may be rejected (the
//! expected answer) or even pass (the damage was benign), but must never
//! panic or break bit-identity.

use std::path::PathBuf;

use valpipe_util::Rng;

use crate::corpus::{write_repro, Repro};
use crate::diff::{run_case, CaseSpec, FailureKind, Outcome};
use crate::gen::generate;
use crate::mutate::mutate;
use crate::shrink::shrink;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of generated programs to differentiate.
    pub trials: usize,
    /// Base seed; trial `t` derives its case from `seed + t`.
    pub seed: u64,
    /// Corrupted mutants per trial for the never-panic check.
    pub mutants_per_trial: usize,
    /// Shrink findings to minimal repros.
    pub shrink: bool,
    /// Directory to write shrunk repros into (only findings that
    /// reproduce under the pinned replay profile are recorded).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 100,
            seed: 0xD1FF,
            mutants_per_trial: 2,
            shrink: false,
            corpus_dir: None,
        }
    }
}

/// One failure the campaign uncovered.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Seed of the trial that produced it.
    pub seed: u64,
    /// `"generated"` or `"mutant"`.
    pub origin: &'static str,
    /// The stable outcome line (see [`Outcome::line`]).
    pub line: String,
    /// The offending source.
    pub src: String,
    /// Minimal reproduction, if shrinking ran.
    pub shrunk: Option<String>,
    /// Where the repro was written, if it reproduces under the pinned
    /// replay profile and a corpus directory was given.
    pub repro: Option<PathBuf>,
}

/// Aggregate campaign results.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Generated-program trials run.
    pub trials: usize,
    /// Trials whose full matrix agreed.
    pub passes: usize,
    /// Output packets compared across all passing trials.
    pub packets: usize,
    /// Generated programs rejected before the matrix. The generator
    /// promises validity by construction, so any rejection is compiler
    /// behavior worth eyes. The one historical class (a phantom gating
    /// deadlock under reconvergent fanout, fixed in the gate-fusion pass
    /// and anchored by `tests/corpus/fixed-*.val`) is gone; the count is
    /// expected to be zero and
    /// [`CampaignReport::acceptable_rejection_rate`] trips on any drift.
    pub generated_rejections: usize,
    /// Mutants run through the never-panic check.
    pub mutant_runs: usize,
    /// Mutants answered with a typed rejection.
    pub mutant_rejections: usize,
    /// Mutants that still passed the full matrix (benign damage).
    pub mutant_passes: usize,
    /// Mutants that blew a run budget — not a defect (corruption can
    /// legitimately inflate the workload past the harness budget).
    pub mutant_stalls: usize,
    /// Real findings: panics, divergences, stalls on valid programs.
    pub findings: Vec<Finding>,
}

impl CampaignReport {
    /// Whether the compiler rejected no generated program at all. The
    /// generator emits only valid programs and the compiler accepts the
    /// whole class since the reconvergent-fanout fusion fix, so a single
    /// typed rejection is a regression even though it is not a panic.
    pub fn acceptable_rejection_rate(&self) -> bool {
        self.generated_rejections == 0
    }
}

/// Is this failure kind a finding when it appears on a *mutant*? Panics,
/// internal compiler errors and bit-identity breaks always are; stalls
/// are not (damage can inflate the workload past any fixed budget on a
/// program that is still valid).
fn mutant_failure_counts(kind: FailureKind) -> bool {
    !matches!(kind, FailureKind::Stall)
}

/// A failure as it comes off the executor, before shrinking/recording.
struct Found<'a> {
    seed: u64,
    origin: &'static str,
    src: &'a str,
    kind: FailureKind,
    line: String,
}

fn record(
    cfg: &CampaignConfig,
    report: &mut CampaignReport,
    found: Found<'_>,
    log: &mut impl FnMut(&str),
) {
    let Found {
        seed,
        origin,
        src,
        kind,
        line,
    } = found;
    log(&format!("  finding ({origin}, seed {seed}): {line}"));
    let mut finding = Finding {
        seed,
        origin,
        line,
        src: src.to_string(),
        shrunk: None,
        repro: None,
    };
    if cfg.shrink {
        // Shrink under the pinned replay profile so the minimal repro is
        // committable; the predicate is "same failure kind".
        let same_kind = |s: &str| match run_case(&CaseSpec::replay(s)) {
            Outcome::Failure { kind: k, .. } => k == kind,
            _ => false,
        };
        if same_kind(src) {
            let small = shrink(src, same_kind);
            let outcome = run_case(&CaseSpec::replay(small.clone()));
            log(&format!(
                "  shrunk {} -> {} bytes: {}",
                src.len(),
                small.len(),
                outcome.line()
            ));
            if let Some(dir) = &cfg.corpus_dir {
                let repro = Repro {
                    seed: format!("{:#x}/{seed}", cfg.seed),
                    expect: outcome.line(),
                    src: small.clone(),
                };
                match write_repro(dir, &repro) {
                    Ok(p) => {
                        log(&format!("  wrote {}", p.display()));
                        finding.repro = Some(p);
                    }
                    Err(e) => log(&format!("  corpus write failed: {e}")),
                }
            }
            finding.shrunk = Some(small);
        } else {
            log("  (not reproducible under the pinned replay profile; kept unshrunk)");
        }
    }
    report.findings.push(finding);
}

/// Run a campaign. `log` receives human-oriented progress lines; the
/// returned report carries everything machine-checkable.
pub fn run_campaign(cfg: &CampaignConfig, mut log: impl FnMut(&str)) -> CampaignReport {
    let mut report = CampaignReport::default();
    for t in 0..cfg.trials {
        let case_seed = cfg.seed.wrapping_add(t as u64);
        let case = generate(case_seed);
        let spec = CaseSpec::from_gen(&case);
        report.trials += 1;
        match run_case(&spec) {
            Outcome::Pass { packets } => {
                report.passes += 1;
                report.packets += packets;
            }
            Outcome::Rejected { stage, error } => {
                report.generated_rejections += 1;
                log(&format!(
                    "  suspicious: generated seed {case_seed} rejected[{stage}]: {error}"
                ));
            }
            Outcome::Failure { kind, detail } => {
                let line = Outcome::Failure { kind, detail }.line();
                let found = Found {
                    seed: case_seed,
                    origin: "generated",
                    src: &case.src,
                    kind,
                    line,
                };
                record(cfg, &mut report, found, &mut log);
            }
        }

        // Never-panic check on corrupted variants of the same program.
        let mut mr = Rng::seed(0x0BAD).fork(case_seed);
        for _ in 0..cfg.mutants_per_trial {
            let mutant = mutate(&case.src, &mut mr);
            report.mutant_runs += 1;
            match run_case(&CaseSpec::replay(mutant.clone())) {
                Outcome::Pass { .. } => report.mutant_passes += 1,
                Outcome::Rejected { .. } => report.mutant_rejections += 1,
                Outcome::Failure { kind, detail } => {
                    if mutant_failure_counts(kind) {
                        let line = Outcome::Failure { kind, detail }.line();
                        let found = Found {
                            seed: case_seed,
                            origin: "mutant",
                            src: &mutant,
                            kind,
                            line,
                        };
                        record(cfg, &mut report, found, &mut log);
                    } else {
                        report.mutant_stalls += 1;
                    }
                }
            }
        }
        if (t + 1) % 100 == 0 {
            log(&format!(
                "  {} trials: {} pass, {} mutants rejected, {} findings",
                t + 1,
                report.passes,
                report.mutant_rejections,
                report.findings.len()
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_compile_errors_count_on_mutants() {
        assert!(mutant_failure_counts(FailureKind::CompileInternal));
        assert!(!mutant_failure_counts(FailureKind::Stall));
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let cfg = CampaignConfig {
            trials: 4,
            seed: 0xD1FF,
            mutants_per_trial: 1,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg, |_| {});
        let b = run_campaign(&cfg, |_| {});
        assert_eq!(a.trials, 4);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.mutant_rejections, b.mutant_rejections);
    }
}
