//! Flow-dependency analysis of pipe-structured programs (§4, §8).
//!
//! Builds the paper's *flow dependency graph*: one node per `forall` /
//! `for-iter` block, one edge per producer→consumer array link. The graph
//! is acyclic by the applicative nature of Val (a block may only reference
//! inputs and earlier blocks). Analysis also performs the compile-time
//! range checking that pipelined gating relies on: every array access must
//! stay within the producer's manifest range *for every index at which the
//! access is actually evaluated* — accesses guarded by index-static
//! conditions (like Example 1's boundary test) are checked only where the
//! guard holds.

use crate::ast::*;
use crate::classify::{
    check_primitive_forall, check_primitive_foriter, index_offset, NameEnv, PrimitiveForIter,
    Violation,
};
use crate::fold::{eval_manifest_int, eval_static, is_static_in, Bindings};
use std::collections::{HashMap, HashSet};
use std::fmt;
use valpipe_ir::value::Value;

/// An array access together with the conjunction of the `if` conditions
/// guarding it.
#[derive(Debug, Clone)]
pub struct GuardedAccess {
    /// Array name.
    pub array: String,
    /// Manifest offset in `A[i + m]`.
    pub offset: i64,
    /// Conditions on the path to the access (empty = unconditional). A
    /// `(cond, taken)` pair means the access sits in the `taken` arm.
    pub guards: Vec<(Expr, bool)>,
}

impl GuardedAccess {
    /// Evaluate whether this access executes at index `i`, when every
    /// guard is static in the index variable. `None` if some guard is
    /// dynamic (depends on data).
    pub fn active_at(&self, index_var: &str, i: i64, params: &Bindings) -> Option<bool> {
        let mut env = params.clone();
        env.insert(index_var.to_string(), Value::Int(i));
        for (cond, taken) in &self.guards {
            match eval_static(cond, &env) {
                Some(Value::Bool(b)) => {
                    if b != *taken {
                        return Some(false);
                    }
                }
                _ => return None,
            }
        }
        Some(true)
    }
}

/// Collect array accesses with their guard paths from a (primitive)
/// expression.
pub fn collect_guarded(expr: &Expr, index_var: &str, params: &Bindings) -> Vec<GuardedAccess> {
    let mut out = Vec::new();
    let mut guards = Vec::new();
    walk(expr, index_var, params, &mut guards, &mut out);
    out
}

fn walk(
    e: &Expr,
    iv: &str,
    params: &Bindings,
    guards: &mut Vec<(Expr, bool)>,
    out: &mut Vec<GuardedAccess>,
) {
    match e {
        Expr::Index(name, idx) => {
            if let Some(offset) = index_offset(idx, iv, params) {
                out.push(GuardedAccess {
                    array: name.clone(),
                    offset,
                    guards: guards.clone(),
                });
            }
        }
        Expr::Bin(_, a, b) => {
            walk(a, iv, params, guards, out);
            walk(b, iv, params, guards, out);
        }
        Expr::Un(_, a) => walk(a, iv, params, guards, out),
        Expr::If(c, t, f) => {
            walk(c, iv, params, guards, out);
            guards.push(((**c).clone(), true));
            walk(t, iv, params, guards, out);
            guards.pop();
            guards.push(((**c).clone(), false));
            walk(f, iv, params, guards, out);
            guards.pop();
        }
        Expr::Let(defs, body) => {
            for d in defs {
                walk(&d.value, iv, params, guards, out);
            }
            walk(body, iv, params, guards, out);
        }
        Expr::Append(_, i, v) => {
            walk(i, iv, params, guards, out);
            walk(v, iv, params, guards, out);
        }
        Expr::ArrayInit(i, v) => {
            walk(i, iv, params, guards, out);
            walk(v, iv, params, guards, out);
        }
        Expr::Iter(binds) => {
            for (_, e) in binds {
                walk(e, iv, params, guards, out);
            }
        }
        _ => {}
    }
}

/// Classification of one block within a program.
#[derive(Debug, Clone)]
pub enum BlockClass {
    /// A primitive forall with manifest range.
    Forall {
        /// Manifest index range.
        lo: i64,
        /// Manifest index range.
        hi: i64,
    },
    /// A primitive for-iter (canonical first-order recurrence loop).
    ForIter(PrimitiveForIter),
}

/// Analyzed block.
#[derive(Debug, Clone)]
pub struct BlockNode {
    /// Block name.
    pub name: String,
    /// Classification.
    pub class: BlockClass,
    /// Manifest range of the produced array.
    pub range: (i64, i64),
    /// External arrays consumed, with offsets (deduplicated).
    pub consumes: Vec<(String, i64)>,
}

/// The flow dependency graph of a pipe-structured program.
#[derive(Debug, Clone)]
pub struct FlowGraph {
    /// Declared inputs with manifest ranges.
    pub inputs: Vec<(String, (i64, i64))>,
    /// Blocks in (topological = source) order.
    pub blocks: Vec<BlockNode>,
    /// Producer → consumer edges (producer may be an input).
    pub edges: Vec<(String, String)>,
}

impl FlowGraph {
    /// Range of a named array (input or block).
    pub fn range_of(&self, name: &str) -> Option<(i64, i64)> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, r)| r)
            .or_else(|| self.blocks.iter().find(|b| b.name == name).map(|b| b.range))
    }
}

/// Analysis failure.
#[derive(Debug, Clone)]
pub enum AnalyzeError {
    /// A block fails the structural classification.
    NotPipelinable {
        /// Block name.
        block: String,
        /// The specific violation.
        violation: Violation,
    },
    /// A reference to an array that is neither an input nor an earlier
    /// block (includes forward references, which would make the flow
    /// dependency graph cyclic).
    Unresolved {
        /// Block name.
        block: String,
        /// Referenced array.
        array: String,
    },
    /// An access that can fall outside the producer's range.
    OutOfRange {
        /// Consumer block.
        block: String,
        /// Accessed array.
        array: String,
        /// Access offset.
        offset: i64,
        /// First violating index.
        at_index: i64,
    },
    /// Other structural errors (range arithmetic, empty ranges…).
    Other(String),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::NotPipelinable { block, violation } => {
                write!(f, "block '{block}' is not pipelinable: {violation}")
            }
            AnalyzeError::Unresolved { block, array } => {
                write!(f, "block '{block}' references undefined array '{array}'")
            }
            AnalyzeError::OutOfRange {
                block,
                array,
                offset,
                at_index,
            } => write!(
                f,
                "block '{block}': access {array}[i{offset:+}] leaves the producer's range at i = {at_index}"
            ),
            AnalyzeError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// The first index of `span` at which the unconditional access
/// `A[i + offset]` leaves `producer`'s range, or `None`. The indices it
/// may run at form the interval `[lo − offset, hi − offset]`, so only the
/// ends of `span` need checking: the first index if it falls outside, else
/// the first past the interval's upper end.
fn first_out_of_range(span: (i64, i64), offset: i64, producer: (i64, i64)) -> Option<i64> {
    let (first, last) = span;
    let (lo, hi) = (producer.0 - offset, producer.1 - offset);
    if last < first {
        None
    } else if first < lo || first > hi {
        Some(first)
    } else if last > hi {
        Some(hi + 1)
    } else {
        None
    }
}

/// Every name a block's expressions mention — as a scalar, an indexed
/// or appended array — including its range and loop-bound expressions,
/// sorted and deduplicated. Local bindings are not subtracted, so this is
/// a superset of the block's free names: everything the type checker and
/// [`analyze_block`] can look up in the program around the block. The
/// incremental compiler keys each block's queries on the bindings of
/// these names, not on the whole program.
pub fn block_names(block: &BlockDecl) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut visit = |e: &Expr| {
        e.walk(&mut |x| match x {
            Expr::Var(n) | Expr::Index(n, _) | Expr::Index2(n, ..) | Expr::Append(n, ..) => {
                names.push(n.clone())
            }
            _ => {}
        })
    };
    match &block.body {
        BlockBody::Forall(f) => {
            visit(&f.range.0);
            visit(&f.range.1);
            if let Some((_, (lo, hi))) = &f.second {
                visit(lo);
                visit(hi);
            }
            f.defs.iter().for_each(|d| visit(&d.value));
            visit(&f.body);
        }
        BlockBody::ForIter(fi) => {
            fi.inits.iter().for_each(|d| visit(&d.value));
            visit(&fi.body);
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// What one block's analysis reads from the program around it: the
/// parameters and the arrays (inputs and earlier blocks) among the names
/// it mentions ([`block_names`]), each in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockScope {
    /// Mentioned parameters with their values.
    pub params: Vec<(String, i64)>,
    /// Mentioned arrays with their manifest ranges.
    pub arrays: Vec<(String, (i64, i64))>,
}

/// Classify one block and range-check its accesses against the arrays in
/// `scope`. The result depends only on `block` and `scope`.
pub fn analyze_block(block: &BlockDecl, scope: &BlockScope) -> Result<BlockNode, AnalyzeError> {
    let params: Bindings = scope
        .params
        .iter()
        .map(|(n, v)| (n.clone(), Value::Int(*v)))
        .collect();
    let known: HashMap<&str, (i64, i64)> =
        scope.arrays.iter().map(|(n, r)| (n.as_str(), *r)).collect();
    let env = NameEnv::new(
        None,
        [],
        scope.arrays.iter().map(|(n, _)| n.clone()),
        params.clone(),
    );
    let fail = |violation| AnalyzeError::NotPipelinable {
        block: block.name.clone(),
        violation,
    };

    let (class, range, index_var, index_span, exprs): (_, _, String, (i64, i64), Vec<Expr>) =
        match &block.body {
            BlockBody::Forall(fa) => {
                let pf = check_primitive_forall(fa, &env).map_err(fail)?;
                if pf.hi < pf.lo {
                    return Err(AnalyzeError::Other(format!(
                        "block '{}' has empty range [{}, {}]",
                        block.name, pf.lo, pf.hi
                    )));
                }
                // Defs then body, in evaluation order, wrapped so the
                // guard analysis sees the def conditions.
                let mut exprs: Vec<Expr> = fa.defs.iter().map(|d| d.value.clone()).collect();
                exprs.push(fa.body.clone());
                (
                    BlockClass::Forall {
                        lo: pf.lo,
                        hi: pf.hi,
                    },
                    (pf.lo, pf.hi),
                    fa.index_var.clone(),
                    (pf.lo, pf.hi),
                    exprs,
                )
            }
            BlockBody::ForIter(fi) => {
                let pfi = check_primitive_foriter(fi, &env).map_err(fail)?;
                let range = pfi.range();
                let step = pfi.step_inlined();
                let init = pfi.init_expr.clone();
                let iv = pfi.index_var.clone();
                let span = (pfi.start, pfi.bound - 1);
                (BlockClass::ForIter(pfi), range, iv, span, vec![init, step])
            }
        };

    // Range-check every guarded access of every constituent expression.
    let acc_name = match &class {
        BlockClass::ForIter(p) => Some(p.acc.clone()),
        _ => None,
    };
    let mut consumes: Vec<(String, i64)> = Vec::new();
    for e in &exprs {
        for ga in collect_guarded(e, &index_var, &params) {
            let producer_range = if Some(&ga.array) == acc_name.as_ref() {
                // Self-access of the accumulator: guaranteed by the
                // first-order check; skip.
                continue;
            } else {
                match known.get(ga.array.as_str()) {
                    Some(&r) => r,
                    None => {
                        return Err(AnalyzeError::Unresolved {
                            block: block.name.clone(),
                            array: ga.array.clone(),
                        })
                    }
                }
            };
            // Check bounds for every index at which the access runs:
            // both ends suffice for an unconditional access, a guarded
            // one is checked index by index.
            let violation = if ga.guards.is_empty() {
                first_out_of_range(index_span, ga.offset, producer_range)
            } else {
                (index_span.0..=index_span.1).find(|&i| {
                    let at = i + ga.offset;
                    (at < producer_range.0 || at > producer_range.1)
                        && ga.active_at(&index_var, i, &params).unwrap_or(true)
                })
            };
            if let Some(at_index) = violation {
                return Err(AnalyzeError::OutOfRange {
                    block: block.name.clone(),
                    array: ga.array.clone(),
                    offset: ga.offset,
                    at_index,
                });
            }
            if !consumes.contains(&(ga.array.clone(), ga.offset)) {
                consumes.push((ga.array.clone(), ga.offset));
            }
        }
    }
    consumes.sort();
    Ok(BlockNode {
        name: block.name.clone(),
        class,
        range,
        consumes,
    })
}

/// Analyze a (type-checked) program into its flow dependency graph,
/// classifying every block and range-checking every access.
pub fn analyze(prog: &Program) -> Result<FlowGraph, AnalyzeError> {
    analyze_with(prog, analyze_block)
}

/// [`analyze`] with the per-block step supplied by the caller, which gets
/// each block with its [`BlockScope`] and must return what
/// [`analyze_block`] would; the incremental compiler answers it from a
/// memo. Blocks are visited in source order and the first error wins.
pub fn analyze_with(
    prog: &Program,
    mut per_block: impl FnMut(&BlockDecl, &BlockScope) -> Result<BlockNode, AnalyzeError>,
) -> Result<FlowGraph, AnalyzeError> {
    let mut params: HashMap<&str, i64> = HashMap::new();
    let mut bindings = Bindings::new();
    for (n, v) in &prog.params {
        params.insert(n, *v);
        bindings.insert(n.clone(), Value::Int(*v));
    }
    let mut inputs = Vec::new();
    let mut known: HashMap<String, (i64, i64)> = HashMap::new();
    for d in &prog.inputs {
        let lo = eval_manifest_int(&d.range.0, &bindings).map_err(AnalyzeError::Other)?;
        let hi = eval_manifest_int(&d.range.1, &bindings).map_err(AnalyzeError::Other)?;
        if hi < lo {
            return Err(AnalyzeError::Other(format!(
                "input '{}' has empty range [{lo}, {hi}]",
                d.name
            )));
        }
        inputs.push((d.name.clone(), (lo, hi)));
        known.insert(d.name.clone(), (lo, hi));
    }

    let mut blocks = Vec::with_capacity(prog.blocks.len());
    let mut edges = Vec::new();
    let mut edge_set: HashSet<(String, String)> = HashSet::new();
    for block in &prog.blocks {
        let mut scope = BlockScope::default();
        for n in block_names(block) {
            if let Some(&v) = params.get(n.as_str()) {
                scope.params.push((n.clone(), v));
            }
            if let Some(&r) = known.get(&n) {
                scope.arrays.push((n, r));
            }
        }
        let node = per_block(block, &scope)?;
        for (a, _) in &node.consumes {
            let edge = (a.clone(), block.name.clone());
            if edge_set.insert(edge.clone()) {
                edges.push(edge);
            }
        }
        known.insert(block.name.clone(), node.range);
        blocks.push(node);
    }

    // Outputs must resolve.
    for o in &prog.outputs {
        if !known.contains_key(o) {
            return Err(AnalyzeError::Other(format!("output '{o}' is undefined")));
        }
    }
    Ok(FlowGraph {
        inputs,
        blocks,
        edges,
    })
}

/// Convenience: does any guard of any access in `expr` depend on data
/// (i.e. is not static in the index variable and parameters)?
pub fn has_dynamic_guards(expr: &Expr, index_var: &str, params: &Bindings) -> bool {
    let allowed = |n: &str| n == index_var || params.contains_key(n);
    let mut dynamic = false;
    expr.walk(&mut |e| {
        if let Expr::If(c, _, _) = e {
            if !is_static_in(c, &allowed) {
                dynamic = true;
            }
        }
    });
    dynamic
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program, FIG3_PROGRAM};

    #[test]
    fn unguarded_range_check_matches_the_per_index_loop() {
        let per_index = |span: (i64, i64), offset: i64, producer: (i64, i64)| {
            (span.0..=span.1).find(|&i| i + offset < producer.0 || i + offset > producer.1)
        };
        let cases = [
            // Negative offset: the low end falls off first.
            ((0, 10), -1, (0, 10)),
            ((3, 10), -2, (0, 10)),
            ((5, 9), -7, (0, 10)),
            // Positive offset: runs off the high end partway through.
            ((0, 10), 1, (0, 10)),
            ((0, 10), 3, (0, 11)),
            ((0, 4), 20, (0, 10)),
            // In range throughout.
            ((1, 9), -1, (0, 10)),
            ((0, 8), 2, (0, 10)),
            // Empty range: no index runs, so nothing can violate.
            ((5, 4), -100, (0, 10)),
            ((0, -1), 50, (0, 10)),
        ];
        for (span, offset, producer) in cases {
            assert_eq!(
                first_out_of_range(span, offset, producer),
                per_index(span, offset, producer),
                "span {span:?}, offset {offset}, producer {producer:?}"
            );
        }
        assert_eq!(first_out_of_range((0, 10), -1, (0, 10)), Some(0));
        assert_eq!(first_out_of_range((0, 10), 1, (0, 10)), Some(10));
        assert_eq!(first_out_of_range((5, 4), -100, (0, 10)), None);
        for lo in -3..3 {
            for hi in lo - 1..lo + 5 {
                for offset in -4..5 {
                    let (span, producer) = ((lo, hi), (0, 3));
                    assert_eq!(
                        first_out_of_range(span, offset, producer),
                        per_index(span, offset, producer)
                    );
                }
            }
        }
    }

    #[test]
    fn fig3_analyzes() {
        let prog = parse_program(FIG3_PROGRAM).unwrap();
        let fg = analyze(&prog).unwrap();
        assert_eq!(fg.blocks.len(), 2);
        assert_eq!(fg.blocks[0].range, (0, 33)); // [0, m+1], m = 32
        assert_eq!(fg.blocks[1].range, (0, 31)); // [0, m-1]
                                                 // Edges: B→A, C→A, A→X, B→X.
        let mut edges = fg.edges.clone();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                ("A".to_string(), "X".to_string()),
                ("B".to_string(), "A".to_string()),
                ("B".to_string(), "X".to_string()),
                ("C".to_string(), "A".to_string()),
            ]
        );
        assert_eq!(fg.range_of("B"), Some((0, 33)));
    }

    #[test]
    fn guarded_boundary_access_passes_range_check() {
        // Example 1's C[i-1] at i=0 would be out of range, but the guard
        // `(i=0)|(i=m+1)` keeps it in the interior arm only.
        let prog = parse_program(FIG3_PROGRAM).unwrap();
        assert!(analyze(&prog).is_ok());
    }

    #[test]
    fn unguarded_out_of_range_detected() {
        let src = "
param m = 8;
input C : array[real] [0, m];
A : array[real] := forall i in [0, m] construct C[i+1] endall;
output A;
";
        let prog = parse_program(src).unwrap();
        match analyze(&prog) {
            Err(AnalyzeError::OutOfRange {
                array,
                offset,
                at_index,
                ..
            }) => {
                assert_eq!(array, "C");
                assert_eq!(offset, 1);
                assert_eq!(at_index, 8);
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn forward_reference_rejected() {
        let src = "
param m = 4;
A : array[real] := forall i in [0, m] construct Z[i] endall;
Z : array[real] := forall i in [0, m] construct 1. endall;
output A;
";
        let prog = parse_program(src).unwrap();
        // The classifier reports the unknown name before range analysis
        // would; either error identifies the forward reference.
        assert!(matches!(
            analyze(&prog),
            Err(AnalyzeError::Unresolved { .. } | AnalyzeError::NotPipelinable { .. })
        ));
    }

    #[test]
    fn guards_collected_with_polarity() {
        let e = parse_expr("if i = 0 then C[i] else C[i-1] endif").unwrap();
        let params = Bindings::new();
        let gs = collect_guarded(&e, "i", &params);
        assert_eq!(gs.len(), 2);
        assert!(gs[0].guards[0].1);
        assert!(!gs[1].guards[0].1);
        assert_eq!(gs[1].offset, -1);
        // At i=0 the else-arm access is inactive.
        assert_eq!(gs[1].active_at("i", 0, &params), Some(false));
        assert_eq!(gs[1].active_at("i", 3, &params), Some(true));
    }

    #[test]
    fn dynamic_guard_detection() {
        let params = Bindings::new();
        let stat = parse_expr("if i < 3 then C[i] else C[i-1] endif").unwrap();
        assert!(!has_dynamic_guards(&stat, "i", &params));
        let dyn_ = parse_expr("if C[i] > 0. then A[i] else B[i] endif").unwrap();
        assert!(has_dynamic_guards(&dyn_, "i", &params));
    }
}
