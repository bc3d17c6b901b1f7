//! valpipe-fuzz — randomized robustness testing for the whole toolchain.
//!
//! Four cooperating pieces:
//!
//! * [`gen`] — a seeded generator emitting random *valid* pipe-structured
//!   Val programs (forall chains, for-iter recurrences, both schemes);
//! * [`mutate`] — a corruption mutator injecting syntactic/semantic
//!   damage for never-panic testing;
//! * [`diff`] — the differential executor: interpreter oracle vs. every
//!   kernel × execution mode, plus a kill-and-restore-from-snapshot leg;
//! * [`shrink`] + [`corpus`] — delta-debugging reduction of findings to
//!   minimal `.val` repros, committed under `tests/corpus/` and replayed
//!   byte-exactly by CI.
//!
//! [`campaign`] ties them together; the `valpipe-fuzz` binary and the
//! `valpipe-exp fuzz` reporter are thin front-ends over it.

pub mod campaign;
pub mod corpus;
pub mod diff;
pub mod gen;
pub mod mutate;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, Finding};
pub use corpus::{replay_dir, replay_file, write_repro, ReplayResult, Repro};
pub use diff::{run_case, with_quiet_panics, CaseSpec, FailureKind, Outcome};
pub use gen::{generate, GenCase};
pub use mutate::mutate;
pub use shrink::shrink;
