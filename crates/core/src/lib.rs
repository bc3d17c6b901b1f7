//! # valpipe-core — the maximum-pipelining compiler
//!
//! Implementation of the central result of Dennis & Gao, *Maximum
//! Pipelining of Array Operations on Static Data Flow Machine* (ICPP
//! 1983): a compiler from pipe-structured Val programs to machine-level
//! data flow code that operates **fully pipelined** — every instruction
//! cell firing once per two instruction times.
//!
//! * [`builder`] — primitive expressions → balanced-ready instruction
//!   graphs (Theorem 1), including the array-window gating of Fig. 4 and
//!   the conditional gating/merging of Fig. 5;
//! * [`forall`] — primitive `forall` blocks (Theorem 2, Fig. 6);
//! * [`foriter`] — `for-iter` recurrences, via Todd's scheme (Fig. 7) or
//!   the companion-pipeline scheme (Theorem 3, Fig. 8);
//! * [`loops`] — local balancing of feedback-loop interiors;
//! * [`pipeline`] — the staged pass pipeline's stages, per-pass stats,
//!   stage dumps and per-block lowering;
//! * [`query`] — the query engine, the one compile driver: it runs the
//!   pass sequence and memoizes every stage for incremental recompiles;
//! * [`program`] — whole-program composition + global balancing
//!   (Theorem 4) and the one-shot [`compile_source`] entry points;
//! * [`verify`] — compile → simulate → compare against the reference
//!   interpreter.
//!
//! ## Quick example
//!
//! ```
//! use valpipe_core::{compile_source, CompileOptions};
//! use valpipe_core::verify::check_against_oracle;
//! use valpipe_val::interp::ArrayVal;
//! use std::collections::HashMap;
//!
//! let src = "
//! param m = 8;
//! input C : array[real] [0, m];
//! A : array[real] := forall i in [0, m] construct 2. * C[i] endall;
//! output A;
//! ";
//! let compiled = compile_source(src, &CompileOptions::default()).unwrap();
//! let mut inputs = HashMap::new();
//! inputs.insert("C".to_string(), ArrayVal::from_reals(0, &[0., 1., 2., 3., 4., 5., 6., 7., 8.]));
//! let report = check_against_oracle(&compiled, &inputs, 4, 1e-12).unwrap();
//! assert_eq!(report.packets_checked, 9 * 4);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod error;
pub mod forall;
pub mod foriter;
pub mod fuse;
pub mod limits;
pub mod loops;
pub mod options;
pub mod pipeline;
pub mod predict;
pub mod program;
pub mod query;
pub mod synth;
#[cfg(test)]
mod tests;
pub mod timestep;
pub mod verify;

pub use builder::{BlockBuilder, Compiler, Provider};
pub use error::CompileError;
pub use foriter::UsedScheme;
pub use limits::{CompileLimits, LimitBreach};
pub use options::{CompileOptions, ForIterScheme};
pub use pipeline::{dump_graph, render_pass_stats, PassStat, PipelineOutput, Stage};
pub use program::{compile_source, compile_source_limited, CompileStats, Compiled};
pub use query::{QueryEngine, QueryStats};
