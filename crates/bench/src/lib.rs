//! # valpipe-bench — experiment harness
//!
//! Workload generators, measurement routines, and the experiments behind
//! the `valpipe-exp <name>` binary (one per paper figure/claim — see
//! EXPERIMENTS.md), plus the timing harness of the wall-clock benches.

#![warn(missing_docs)]

pub mod cli;
pub mod exp;
pub mod measure;
pub mod report;
pub mod timing;
pub mod workloads;

pub use cli::FaultArgs;
pub use measure::Measurement;
pub use report::Report;
