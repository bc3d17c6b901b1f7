//! # valpipe — Maximum Pipelining of Array Operations on a Static Data Flow Machine
//!
//! A full reproduction of Dennis & Gao (ICPP 1983): a compiler from
//! pipe-structured **Val** programs (`forall` / `for-iter` blocks over
//! arrays) to machine-level **static data flow** code that runs *fully
//! pipelined* — one result per two instruction times — together with the
//! machine simulator, balancing algorithms, and reference interpreter
//! needed to demonstrate it.
//!
//! The facade re-exports the per-crate APIs:
//!
//! * [`val`] — language frontend (parser, type checker, classifiers,
//!   companion-function derivation, interpreter oracle);
//! * [`ir`] — the dataflow instruction-graph IR;
//! * [`machine`] — token/acknowledge simulator + detailed PE/FU/AM model;
//! * [`balance`] — ASAP / heuristic / optimal (min-cost-flow dual)
//!   pipeline balancing;
//! * [`compiler`] — the paper's contribution: Theorems 1–4 as code.
//!
//! See `examples/quickstart.rs` for a three-minute tour.

#![warn(missing_docs)]

pub use valpipe_balance as balance;
pub use valpipe_core as compiler;
pub use valpipe_ir as ir;
pub use valpipe_machine as machine;
pub use valpipe_val as val;

pub use valpipe_core::{
    compile_source, compile_source_limited, CompileError, CompileLimits, CompileOptions, Compiled,
    ForIterScheme, LimitBreach, QueryEngine, QueryStats, Stage,
};
pub use valpipe_machine::{
    render_error, render_stall, Driven, ExecMode, FastForwardStats, Kernel, ProgramInputs,
    RunResult, RunSpec, Session, SessionBuilder, SimConfig, Simulator, Snapshot, SnapshotError,
    Timing,
};
pub use valpipe_val::interp::ArrayVal;
