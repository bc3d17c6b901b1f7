//! Whole-program compilation (paper §8, Theorem 4).
//!
//! A pipe-structured program's blocks are compiled in dependency order
//! into one instruction graph; each block's output stream feeds its
//! consumers' window gates directly, and the declared outputs get sink
//! cells. Loop interiors are balanced locally, then the whole acyclic
//! interconnection is balanced globally ([`valpipe_balance`]) so the
//! complete program runs fully pipelined.
//!
//! This module holds the compiled artifact ([`Compiled`]) and the two
//! one-shot entry points, [`compile_source`] and
//! [`compile_source_limited`]. Both are one call on a fresh
//! [`QueryEngine`], the workspace's only compile driver.

use crate::error::CompileError;
use crate::foriter::UsedScheme;
use crate::limits::CompileLimits;
use crate::options::CompileOptions;
use crate::query::QueryEngine;
use std::collections::HashMap;
use valpipe_ir::prov::Provenance;
use valpipe_ir::Graph;
use valpipe_val::ast::Program;
use valpipe_val::deps::FlowGraph;

/// Compilation statistics.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Instruction cells before buffer insertion.
    pub cells_before_balance: usize,
    /// Buffer stages inserted inside feedback loops.
    pub loop_buffers: u64,
    /// Buffer stages inserted by global balancing.
    pub global_buffers: u64,
    /// Scheme used per for-iter block.
    pub schemes: HashMap<String, UsedScheme>,
    /// Blocks skipped as dead code.
    pub dead_blocks: Vec<String>,
    /// Generator cells lowered to ordinary circuits (when
    /// `synthesize_generators` is set).
    pub synthesized_generators: usize,
    /// Static gate pairs fused by the optimizer.
    pub fused_gates: usize,
}

/// A compiled pipe-structured program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The balanced machine-level program (symbolic FIFOs not yet
    /// expanded; call [`Compiled::executable`] before simulation).
    pub graph: Graph,
    /// The type-checked source program.
    pub program: Program,
    /// The flow dependency graph (block ranges, edges).
    pub flow: FlowGraph,
    /// Original shapes of flattened two-dimensional arrays.
    pub dims: valpipe_val::dims::FlattenInfo,
    /// Source-to-cell provenance table; every node's `src` field indexes
    /// into it (see `valpipe_ir::prov`).
    pub prov: Provenance,
    /// Statistics.
    pub stats: CompileStats,
}

impl Compiled {
    /// The graph with symbolic FIFOs lowered to identity chains — the form
    /// the machine actually loads.
    pub fn executable(&self) -> Graph {
        let mut g = self.graph.clone();
        g.expand_fifos();
        g
    }

    /// Manifest range of a named array (input or block).
    pub fn range_of(&self, name: &str) -> Option<(i64, i64)> {
        self.flow.range_of(name)
    }
}

/// Compile a program given as source text, with no resource limits.
/// Parse positions are carried through to machine-level provenance, so
/// diagnostics point back at this text.
pub fn compile_source(src: &str, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    compile_source_limited(src, "<source>", opts, &CompileLimits::unbounded())
}

/// Compile untrusted source text under resource budgets: parse failures
/// come back as [`CompileError::Parse`] and any exceeded budget as
/// [`CompileError::Limit`], never a panic. Callers that compile
/// repeatedly should hold a [`QueryEngine`] themselves to get incremental
/// recompilation.
pub fn compile_source_limited(
    src: &str,
    file: &str,
    opts: &CompileOptions,
    limits: &CompileLimits,
) -> Result<Compiled, CompileError> {
    Ok(QueryEngine::new()
        .run_source(opts, limits, &[], src, file)?
        .compiled)
}
