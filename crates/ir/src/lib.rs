//! # valpipe-ir — dataflow instruction-graph IR
//!
//! The machine-level program representation for the static data flow
//! architecture of Dennis & Gao, *Maximum Pipelining of Array Operations on
//! Static Data Flow Machine* (ICPP 1983). A program is a directed graph of
//! **instruction cells** connected by **destination links**; each link also
//! stands for the reverse acknowledge path that paces fully pipelined
//! execution at one firing per two instruction times.
//!
//! The IR provides:
//! * scalar [`Value`]s and the instruction-level arithmetic semantics,
//! * run-length-encoded periodic boolean [`CtlStream`]s (the `F T…T F`
//!   control sequences of the paper's figures),
//! * the cell [`Opcode`] set including gated identities, `MERGE`, symbolic
//!   `FIFO` buffers and control-stream generators,
//! * the [`Graph`] itself with builder, query, FIFO-lowering and
//!   FIFO-insertion operations,
//! * structural [`validate::validate`] checks, a machine-code
//!   [`pretty::listing`], and [`dot::to_dot`] export.

#![warn(missing_docs)]

pub mod ctl;
pub mod dot;
pub mod graph;
pub mod opcode;
pub mod pretty;
pub mod prov;
pub mod region;
mod serialize;
pub mod validate;
pub mod value;

pub use ctl::{CtlStream, Run};
pub use graph::{ArcId, Edge, Graph, In, Node, NodeId, PortBinding};
pub use opcode::{Opcode, GATE_CTL, GATE_DATA, MERGE_CTL, MERGE_FALSE, MERGE_TRUE};
pub use prov::{Provenance, SourceInfo, Span};
pub use region::{GraphDelta, Mark};
pub use value::{apply_bin, apply_un, BinOp, EvalError, UnOp, Value};
