//! Pipelined mapping of primitive `forall` expressions (paper §6,
//! Theorem 2, Fig. 6).
//!
//! The instruction graph is the cascade of the definition-part graphs and
//! the accumulation-part graph: definitions compile once into the block's
//! root scope (they are evaluated for every index value, exactly as the
//! paper prescribes), then the accumulation expression consumes them. All
//! gating, merging and skew is handled by the expression compiler
//! ([`crate::builder`]); the result is one cell whose output stream *is*
//! the constructed array.

use crate::builder::{BlockBuilder, BlockProv, Compiler, Provider};
use crate::error::CompileError;
use valpipe_ir::NodeId;
use valpipe_val::ast::Forall;
use valpipe_val::fold::simplify;

/// Compile a primitive forall over manifest range `[lo, hi]`; returns the
/// cell producing the constructed array's stream. Cells are stamped with
/// the provenance id of the definition or body statement they realize.
pub fn compile_forall(
    c: &mut Compiler,
    name: &str,
    f: &Forall,
    lo: i64,
    hi: i64,
    src: &BlockProv,
) -> Result<NodeId, CompileError> {
    c.g.set_provenance(src.header);
    let mut b = BlockBuilder::new(c, name, &f.index_var, lo, hi);
    for d in &f.defs {
        let def_src = src.defs.get(&d.name).copied().unwrap_or(src.header);
        b.c.g.set_provenance(def_src);
        let v = b.compile(&simplify(&d.value))?;
        b.define_local(&d.name, v);
    }
    b.c.g.set_provenance(src.body);
    let out = b.compile(&simplify(&f.body))?;
    let node = b.materialize(out);
    c.provide(name, Provider { node, lo, hi });
    Ok(node)
}
