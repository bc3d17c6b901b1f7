//! The experiment report: the banner, claim verdicts and shared table
//! lines of one `valpipe-exp` experiment, printed to stdout as the
//! experiment runs (its tables and observations go there directly too),
//! and whether every claim its data supports holds. This is the only
//! code that formats the banner, a `CLAIM` verdict line or the
//! skipped-claims note.

use crate::cli::FaultArgs;
use crate::measure::Measurement;

/// One experiment's report. Everything goes to stdout as it is
/// produced, so a run that dies part-way still leaves every line it
/// printed.
#[derive(Debug, Default)]
pub struct Report {
    /// Some claim did not hold.
    failed: bool,
}

impl Report {
    /// Print the banner — title and the paper artifact reproduced — and
    /// start the report.
    pub fn new(title: &str, reproduces: Option<&str>) -> Report {
        let rule = "=".repeat(64);
        println!("{rule}\n{title}");
        if let Some(paper) = reproduces {
            println!("reproduces: {paper}");
        }
        println!("{rule}");
        Report::default()
    }

    /// Print the verdict line of a claim computed from the data.
    pub fn claim(&mut self, text: impl std::fmt::Display, holds: bool) {
        self.failed |= !holds;
        println!("CLAIM [{}] {text}", if holds { "HOLDS" } else { "FAILS" });
    }

    /// Whether every claim holds (vacuously true with none).
    pub fn all_hold(&self) -> bool {
        !self.failed
    }

    /// The paper's claims are about the clean machine: under an active
    /// fault plan or step budget, note that they are skipped and return
    /// true so the experiment stops before computing them.
    pub fn skip_claims(&mut self, args: &FaultArgs) -> bool {
        if args.active() {
            println!("(fault plan active: claims skipped)");
        }
        args.active()
    }

    /// Print a table of measurements with the standard columns.
    pub fn table(&mut self, rows: &[Measurement]) {
        println!(
            "{:<22} {:>7} {:>8} {:>9} {:>8} {:>11} {:>8}",
            "config", "cells", "buffers", "interval", "rate", "max_rel_err", "am%"
        );
        for r in rows {
            println!(
                "{:<22} {:>7} {:>8} {:>9.3} {:>8.4} {:>11.2e} {:>8.2}",
                r.label,
                r.cells,
                r.buffers,
                r.interval,
                1.0 / r.interval,
                r.max_rel_err,
                r.am_fraction * 100.0
            );
        }
    }

    /// Print a key/value observation line.
    pub fn observe(&mut self, name: &str, value: impl std::fmt::Display) {
        println!("  {name}: {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_claim_fails_the_report_and_a_budget_skips_claims() {
        let mut r = Report::default();
        r.claim("holds", true);
        assert!(r.all_hold());
        r.claim("fails", false);
        r.claim("holds again", true);
        assert!(!r.all_hold());

        let budget = FaultArgs {
            step_budget: Some(5),
            ..FaultArgs::default()
        };
        assert!(r.skip_claims(&budget));
        assert!(!r.skip_claims(&FaultArgs::default()));
    }
}
