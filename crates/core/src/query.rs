//! Incremental compilation against the previous compile — the
//! workspace's only compile driver.
//!
//! Every compile runs through [`QueryEngine::run_source`]:
//! [`crate::compile_source`] and [`crate::compile_source_limited`] are one
//! call on a fresh engine, and the CLI, the service, the fuzzer and the
//! benches hold engines of their own. The pass sequence is the classic
//! straight line (parse the whole file, check the whole program, lower
//! every block, balance the whole graph), but the per-block stages and
//! the balance solve are posed as **queries**: per-block type checks,
//! analyses and lowered regions, and one balance solution. The parse is
//! not a query: every run parses the whole file once.
//!
//! The engine retains what its previous run computed: for each block, in
//! source order, the inputs each stage read beside the output it
//! produced, and the balance problem beside its solution. A query of the
//! next run is answered from that record when every one of its inputs
//! equals the previous run's, and executes otherwise. A block is compared
//! with the block at the same position in the previous compile. Equality
//! is exact: the syntax tree compares real literals by their bits, so
//! `0.0` and `-0.0` are different blocks. A cold compile compares nothing
//! and builds no key; a warm one pays one equality test per stage of
//! each unchanged block. Outputs are shared (`Arc`) or moved, never
//! copied, and the engine holds one compile's worth of memory: a longer
//! history is not kept, so after A→B→A the return to A re-executes the
//! blocks where B differed.
//!
//! **Bit-identity is the contract.** A warm [`QueryEngine::run_source`]
//! must produce exactly the artifacts of a cold one: same graph
//! fingerprint, same stage dumps byte-for-byte, same pass-stat sequence,
//! same typed errors. Each query's inputs are everything its result
//! depends on:
//!
//! * warm and cold runs parse with the same whole-file parser, so the
//!   program and its source map are the cold ones;
//! * per-block queries read what the block reads, not the program around
//!   it (the paper's Theorem 4 composes a program from per-block graphs
//!   over the flow-dependency graph, so a block's code depends only on
//!   the blocks it reads). The **typed** query reads the flattened block
//!   and the types bound to the names it mentions
//!   ([`valpipe_val::deps::block_names`]); a type error is kept without
//!   its source location, which is attached at use time from the current
//!   source map;
//! * the **analyze** query also reads the block's
//!   [`valpipe_val::deps::BlockScope`]: the values of the parameters it
//!   mentions and the ranges of the arrays it reads;
//! * the lowered **region** ([`valpipe_ir::GraphDelta`]) also reads the
//!   lowering options, the block's provenance ids and each *direct*
//!   provider's aliasing (the index of the first direct provider sharing
//!   its cell) and range. Deltas are position-independent — local cell
//!   ids, relative arc ids and label numbers, providers named by position
//!   — and are rebased at splice, so an edit that changes one block's
//!   cell count does not re-lower any other block (provenance ids stay
//!   absolute, so an edit that adds or removes a statement re-lowers the
//!   blocks after it);
//! * the **balance** query reads the constraint problem's structure; the
//!   solvers are deterministic, so an equal problem has an equal
//!   solution.
//!
//! A stage that re-executes discards the block's later stages, so a
//! block's record is always one consistent chain of inputs and outputs.
//!
//! The `--emit=machine` listing is not a query: it is rendered from the
//! balanced graph whenever it is asked for.

use crate::builder::{BlockProv, Compiler, Provider};
use crate::error::CompileError;
use crate::foriter::UsedScheme;
use crate::limits::{CompileLimits, LimitBreach};
use crate::options::{CompileOptions, ForIterScheme};
use crate::pipeline::{
    build_prov, dump_graph, live_blocks, lower_block, lower_epilogue, lower_inputs, PassStat,
    PipelineOutput, Stage,
};
use crate::program::{CompileStats, Compiled};
use std::sync::Arc;
use std::time::Instant;
use valpipe_balance::problem::BalanceProblem;
use valpipe_balance::{problem, solve, BalanceMode, BalanceSolution};
use valpipe_ir::opcode::Opcode;
use valpipe_ir::region::{Frame, GraphDelta, Mark};
use valpipe_ir::validate::validate;
use valpipe_ir::value::Value;
use valpipe_ir::NodeId;
use valpipe_val::ast::{BlockDecl, Program, Type};
use valpipe_val::deps::{
    analyze_block, analyze_with, block_names, AnalyzeError, BlockNode, BlockScope, FlowGraph,
};
use valpipe_val::fold::Bindings;
use valpipe_val::parser::{parse_program_mapped_limited, ParseErrorKind};
use valpipe_val::srcmap::SourceMap;
use valpipe_val::typeck::{attach_loc, check_block, program_prelude_env, TypeError};

/// Per-run query accounting, by query kind: how many were posed and how
/// many actually executed (the rest were answered from the previous
/// compile).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Per-block type-check queries (posed, executed).
    pub typed: (usize, usize),
    /// Per-block flow-analysis queries.
    pub analyze: (usize, usize),
    /// Per-block lowered-region queries.
    pub region: (usize, usize),
    /// Balance-solution queries.
    pub balance: (usize, usize),
}

impl QueryStats {
    fn tables(&self) -> [(usize, usize); 4] {
        [self.typed, self.analyze, self.region, self.balance]
    }

    /// Total queries posed this run.
    pub fn total(&self) -> usize {
        self.tables().iter().map(|t| t.0).sum()
    }

    /// Queries that executed this run.
    pub fn executed(&self) -> usize {
        self.tables().iter().map(|t| t.1).sum()
    }

    /// Queries answered from the previous compile this run.
    pub fn hits(&self) -> usize {
        self.total() - self.executed()
    }

    /// One-line human rendering (for test and experiment diagnostics).
    pub fn render(&self) -> String {
        format!(
            "queries: {} total, {} executed, {} reused \
             (typed {}/{}, analyze {}/{}, region {}/{}, balance {}/{})",
            self.total(),
            self.executed(),
            self.hits(),
            self.typed.1,
            self.typed.0,
            self.analyze.1,
            self.analyze.0,
            self.region.1,
            self.region.0,
            self.balance.1,
            self.balance.0,
        )
    }
}

/// One block of the previous compile: the type check's inputs and
/// output, and the later stages it reached.
#[derive(Debug)]
struct BlockRecord {
    /// The flattened block.
    block: Arc<BlockDecl>,
    /// The names it mentions ([`block_names`]). Checking keeps every
    /// name, so these are also the checked block's names.
    names: Vec<String>,
    /// The type bound to each of `names` when the block was checked.
    types: Vec<Option<Type>>,
    /// The checked block, or its type error without a location.
    checked: Result<Arc<BlockDecl>, TypeError>,
    analyzed: Option<AnalyzeRecord>,
}

/// The flow analysis of a checked block: its scope and result.
#[derive(Debug)]
struct AnalyzeRecord {
    scope: BlockScope,
    node: Result<Arc<BlockNode>, AnalyzeError>,
    lowered: Option<RegionRecord>,
}

/// The lowering of an analyzed block: what it read besides the block and
/// its analysis, and the region it produced.
#[derive(Debug)]
struct RegionRecord {
    inputs: RegionInputs,
    entry: RegionEntry,
}

#[derive(Debug, PartialEq)]
struct RegionInputs {
    scheme: ForIterScheme,
    am_boundary: bool,
    prov: BlockProv,
    /// Each direct provider in name order: the index of the first one
    /// sharing its cell, and its range (`None` when undefined).
    providers: Vec<Option<(usize, i64, i64)>>,
}

/// Result of lowering one block: the graph region it appended plus
/// every other piece of compiler state the block's lowering touched, all
/// in the delta's local cell ids (see [`valpipe_ir::region`]).
#[derive(Debug)]
struct RegionEntry {
    delta: GraphDelta,
    /// Streams the block registered, in registration order.
    providers: Vec<(String, Provider)>,
    /// Balance anchors the block appended.
    anchors: Vec<(NodeId, i64)>,
    /// Recurrence scheme used (for-iter blocks only).
    scheme: Option<UsedScheme>,
}

/// The previous balance solve.
#[derive(Debug)]
struct BalanceRecord {
    mode: BalanceMode,
    problem: BalanceProblem,
    solution: BalanceSolution,
}

/// The incremental compile engine: the previous compile's per-block
/// records and balance solve. One engine instance per logical
/// compilation session; a fresh engine performs exactly the cold
/// pipeline.
#[derive(Debug, Default)]
pub struct QueryEngine {
    /// The previous compile's blocks, in source order. A run updates
    /// each record in place as it reaches the block.
    blocks: Vec<BlockRecord>,
    balance: Option<BalanceRecord>,
    stats: QueryStats,
}

impl QueryEngine {
    /// Fresh engine with no previous compile.
    pub fn new() -> QueryEngine {
        QueryEngine::default()
    }

    /// Query accounting for the most recent [`QueryEngine::run_source`].
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Compile source text through the staged pipeline, reusing each
    /// stage of the previous compile whose inputs are unchanged. The
    /// output is bit-identical to a fresh engine's with the same options,
    /// limits, and emit list. Stage dumps come back in `emit` order.
    pub fn run_source(
        &mut self,
        opts: &CompileOptions,
        limits: &CompileLimits,
        emit: &[Stage],
        src: &str,
        file: &str,
    ) -> Result<PipelineOutput, CompileError> {
        self.stats = QueryStats::default();
        if src.len() > limits.max_source_bytes {
            return Err(LimitBreach::SourceBytes {
                got: src.len(),
                limit: limits.max_source_bytes,
            }
            .into());
        }
        let (prog0, map) = parse(src, file, limits.max_nesting_depth)?;
        self.drive(opts, limits, emit, &prog0, &map)
    }

    // ---- the staged driver ----------------------------------------------

    /// The pass sequence, with the per-block stages answered by queries.
    /// Every pass ends with an artifact-size and wall-budget check, so a
    /// hostile program is cut off at the first pass that blows a budget.
    fn drive(
        &mut self,
        opts: &CompileOptions,
        limits: &CompileLimits,
        emit: &[Stage],
        prog0: &Program,
        map: &SourceMap,
    ) -> Result<PipelineOutput, CompileError> {
        let mut stats: Vec<PassStat> = Vec::new();
        let mut dumps: Vec<(Stage, String)> = Vec::new();
        let empty = valpipe_ir::Graph::new();
        let t_compile = Instant::now();
        let limits_v = *limits;

        macro_rules! pass {
            ($name:literal, $g:expr, $body:expr) => {{
                let t0 = Instant::now();
                let (nb, ab) = {
                    let g: &valpipe_ir::Graph = $g;
                    (g.node_count(), g.arcs.len())
                };
                let r = $body;
                let (na, aa) = {
                    let g: &valpipe_ir::Graph = $g;
                    (g.node_count(), g.arcs.len())
                };
                stats.push(PassStat {
                    name: $name,
                    wall_s: t0.elapsed().as_secs_f64(),
                    nodes_before: nb,
                    arcs_before: ab,
                    nodes_after: na,
                    arcs_after: aa,
                });
                if na > limits_v.max_cells {
                    return Err(LimitBreach::Cells {
                        pass: $name,
                        got: na,
                        limit: limits_v.max_cells,
                    }
                    .into());
                }
                if aa > limits_v.max_arcs {
                    return Err(LimitBreach::Arcs {
                        pass: $name,
                        got: aa,
                        limit: limits_v.max_arcs,
                    }
                    .into());
                }
                let elapsed = t_compile.elapsed();
                if elapsed > limits_v.compile_budget() {
                    return Err(LimitBreach::CompileWall {
                        elapsed_ms: elapsed.as_millis() as u64,
                        limit_ms: limits_v.max_compile_millis,
                    }
                    .into());
                }
                r
            }};
        }

        if emit.contains(&Stage::Ast) {
            dumps.push((Stage::Ast, valpipe_val::pretty::program_to_source(prog0)));
        }

        // ---- AST → TypedAst --------------------------------------------
        let (prog, dims) = pass!("flatten", &empty, {
            valpipe_val::dims::flatten_program(prog0).map_err(CompileError::Unsupported)?
        });
        let prog = pass!("typecheck", &empty, self.typecheck(&prog, map)?);
        let flow = pass!("analyze", &empty, self.analyze(&prog)?);
        let (prov, ids) = build_prov(&prog, map);

        if emit.contains(&Stage::Typed) {
            dumps.push((Stage::Typed, valpipe_val::pretty::program_to_source(&prog)));
        }

        // ---- TypedAst → Ir ---------------------------------------------
        let mut params = Bindings::new();
        for (n, v) in &prog.params {
            params.insert(n.clone(), Value::Int(*v));
        }
        let mut c = Compiler::new(params);
        let mut cstats = CompileStats::default();

        pass!("lower", &c.g, {
            lower_inputs(&mut c, opts, &flow, &ids.inputs);
            let live = live_blocks(&flow, &prog.outputs);
            let blocks = flow.blocks.iter().zip(&prog.blocks).zip(ids.blocks);
            for (i, ((block, decl), bp)) in blocks.enumerate() {
                if !live.contains(&block.name) {
                    cstats.dead_blocks.push(block.name.clone());
                    continue;
                }
                self.lower_block_query(i, &mut c, &mut cstats, opts, decl, block, bp)?;
            }
            lower_epilogue(&mut c, opts, &prog, ids.output)?;
        });

        pass!("fuse", &c.g, {
            let fused = crate::fuse::fuse_static_gates(&mut c.g);
            cstats.fused_gates = fused.fused;
            if fused.fused > 0 {
                crate::fuse::sweep_dead(&mut c.g);
            }
        });

        if opts.synthesize_generators {
            pass!("synth", &c.g, {
                let synth = crate::synth::synthesize_generators(&mut c.g);
                cstats.synthesized_generators = synth.ctl_generators + synth.index_generators;
            });
        }

        cstats.cells_before_balance = c.g.node_count();
        if emit.contains(&Stage::Ir) {
            dumps.push((Stage::Ir, dump_graph(&c.g, &prov)));
        }

        // ---- Ir → BalancedIr -------------------------------------------
        pass!("loop-balance", &c.g, {
            cstats.loop_buffers = crate::loops::balance_loop_interiors(&mut c.g);
        });

        pass!("validate", &c.g, {
            let defects = validate(&c.g);
            if !defects.is_empty() {
                let msg = defects
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ");
                return Err(CompileError::Internal(format!(
                    "generated invalid machine code: {msg}"
                )));
            }
        });

        if opts.balance != BalanceMode::None {
            pass!("global-balance", &c.g, {
                let p = problem::extract_anchored(&c.g, &c.anchors)?;
                let r = self.balance_query(p, opts.balance)?;
                cstats.global_buffers = problem::apply(&mut c.g, &r.problem, &r.solution);
            });
        }

        // Balancing decides FIFO depths symbolically; expansion multiplies
        // each `Fifo(d)` into `d` identity cells. Check both the deepest
        // single FIFO and the total expanded cell count now, before
        // `Compiled::executable` would materialize the blow-up.
        let mut expanded_cells = c.g.node_count();
        let mut deepest = 0usize;
        for n in &c.g.nodes {
            if let Opcode::Fifo(d) = n.op {
                deepest = deepest.max(d as usize);
                expanded_cells += (d as usize).saturating_sub(1);
            }
        }
        if deepest > limits_v.max_fifo_depth {
            return Err(LimitBreach::FifoDepth {
                got: deepest,
                limit: limits_v.max_fifo_depth,
            }
            .into());
        }
        if expanded_cells > limits_v.max_cells {
            return Err(LimitBreach::Cells {
                pass: "fifo-expand",
                got: expanded_cells,
                limit: limits_v.max_cells,
            }
            .into());
        }

        if emit.contains(&Stage::Balanced) {
            dumps.push((Stage::Balanced, dump_graph(&c.g, &prov)));
        }

        let compiled = Compiled {
            graph: c.g,
            program: prog,
            flow,
            dims,
            prov,
            stats: cstats,
        };

        // ---- BalancedIr → MachineProgram -------------------------------
        if emit.contains(&Stage::Machine) {
            dumps.push((
                Stage::Machine,
                dump_graph(&compiled.executable(), &compiled.prov),
            ));
        }

        // Dumps come back in the order requested, not pipeline order.
        dumps.sort_by_key(|(s, _)| emit.iter().position(|e| e == s));

        Ok(PipelineOutput {
            compiled,
            pass_stats: stats,
            dumps,
        })
    }

    // ---- typed and analyze queries ---------------------------------------

    /// Per-block replication of `check_program_mapped`: same environment
    /// evolution, same first-error-wins order, same output check. A
    /// block's check is reused when the block and the types of the names
    /// it mentions equal the previous compile's; type errors are kept
    /// location-free and resolved against the current source map.
    fn typecheck(&mut self, prog: &Program, map: &SourceMap) -> Result<Program, CompileError> {
        let mut env = program_prelude_env(prog).map_err(|e| attach_loc(e, map))?;
        self.blocks.truncate(prog.blocks.len());
        let mut blocks = Vec::with_capacity(prog.blocks.len());
        for (i, block) in prog.blocks.iter().enumerate() {
            self.stats.typed.0 += 1;
            let same = self.blocks.get(i).is_some_and(|r| {
                r.block == *block
                    && r.names
                        .iter()
                        .map(|n| env.get(n))
                        .eq(r.types.iter().map(Option::as_ref))
            });
            if !same {
                self.stats.typed.1 += 1;
                let names = block_names(block);
                let record = BlockRecord {
                    types: names.iter().map(|n| env.get(n).cloned()).collect(),
                    names,
                    checked: check_block(block, &env).map(Arc::new),
                    block: Arc::clone(block),
                    analyzed: None,
                };
                match self.blocks.get_mut(i) {
                    Some(r) => *r = record,
                    None => self.blocks.push(record),
                }
            }
            let checked = self.blocks[i].checked.as_ref();
            blocks.push(Arc::clone(checked.map_err(|e| attach_loc(e.clone(), map))?));
            env.bind(&block.name, block.ty.clone());
        }
        for o in &prog.outputs {
            if env.get(o).is_none() {
                return Err(attach_loc(
                    TypeError {
                        message: format!("output '{o}' is not a declared block or input"),
                        block: None,
                        def: None,
                        loc: None,
                    },
                    map,
                )
                .into());
            }
        }
        Ok(Program {
            params: prog.params.clone(),
            inputs: prog.inputs.clone(),
            blocks,
            outputs: prog.outputs.clone(),
        })
    }

    /// The flow analysis with each block's step reused when the block's
    /// type check was and its [`BlockScope`] equals the previous
    /// compile's.
    fn analyze(&mut self, prog: &Program) -> Result<FlowGraph, CompileError> {
        let (records, stats) = (&mut self.blocks, &mut self.stats);
        let mut records = records.iter_mut();
        Ok(analyze_with(prog, |block, visible| {
            let r = records.next().expect("a record per checked block");
            let scope = visible.scope(&r.names);
            stats.analyze.0 += 1;
            let a = match &mut r.analyzed {
                Some(a) if a.scope == scope => a,
                slot => {
                    stats.analyze.1 += 1;
                    slot.insert(AnalyzeRecord {
                        node: analyze_block(block, &scope).map(Arc::new),
                        scope,
                        lowered: None,
                    })
                }
            };
            a.node.clone()
        })?)
    }

    // ---- region queries --------------------------------------------------

    /// Lower block `i`, reusing the previous compile's region when the
    /// block's analysis was reused and the lowering options, its
    /// provenance ids and its direct providers' aliasing and ranges are
    /// unchanged. A reused region is spliced at the graph's end, wired to
    /// the providers' current cells; otherwise the block is lowered cold
    /// and its delta captured.
    #[allow(clippy::too_many_arguments)]
    fn lower_block_query(
        &mut self,
        i: usize,
        c: &mut Compiler,
        cstats: &mut CompileStats,
        opts: &CompileOptions,
        decl: &BlockDecl,
        block: &BlockNode,
        prov: BlockProv,
    ) -> Result<(), CompileError> {
        // The direct providers, in name order (`consumes` is sorted): the
        // region's external cells.
        let mut ext: Vec<NodeId> = Vec::new();
        let mut providers = Vec::new();
        let mut prev: Option<&str> = None;
        for (name, _) in &block.consumes {
            if prev == Some(name.as_str()) {
                continue;
            }
            prev = Some(name);
            providers.push(c.providers.get(name).map(|p| {
                let alias = ext.iter().position(|&n| n == p.node).unwrap_or(ext.len());
                ext.push(p.node);
                (alias, p.lo, p.hi)
            }));
        }
        let inputs = RegionInputs {
            scheme: opts.scheme,
            am_boundary: opts.am_boundary,
            prov,
            providers,
        };
        self.stats.region.0 += 1;
        let analyzed = self.blocks[i].analyzed.as_mut().ok_or_else(|| {
            CompileError::Internal(format!("block '{}' lowered unanalyzed", block.name))
        })?;
        let mark = Mark::of(&c.g, c.label_seq());
        let frame = Frame {
            base: mark.nodes,
            ext: &ext,
        };

        if let Some(r) = analyzed.lowered.as_ref().filter(|r| r.inputs == inputs) {
            let entry = &r.entry;
            entry
                .delta
                .splice(&mut c.g, mark.labels, &ext)
                .map_err(CompileError::Internal)?;
            for (name, p) in &entry.providers {
                let node = frame.global(p.node);
                c.providers.insert(name.clone(), Provider { node, ..*p });
            }
            c.anchors
                .extend(entry.anchors.iter().map(|&(n, w)| (frame.global(n), w)));
            c.set_label_seq(mark.labels + entry.delta.labels);
            if let Some(used) = entry.scheme {
                cstats.schemes.insert(block.name.clone(), used);
            }
            return Ok(());
        }

        self.stats.region.1 += 1;
        let anchors_base = c.anchors.len();
        let lowered = lower_block(c, opts, decl, block, &inputs.prov)?;
        if let Some(u) = lowered.scheme {
            cstats.schemes.insert(block.name.clone(), u);
        }
        let internal = |e: String| CompileError::Internal(format!("block '{}': {e}", block.name));
        let local = |n: NodeId| {
            frame
                .local(n)
                .ok_or_else(|| internal(format!("cell {} is outside the region", n.0)))
        };
        let entry = RegionEntry {
            delta: GraphDelta::capture(&c.g, mark, c.label_seq(), &ext).map_err(internal)?,
            providers: lowered
                .provided
                .into_iter()
                .map(|(name, p)| {
                    Ok((
                        name,
                        Provider {
                            node: local(p.node)?,
                            ..p
                        },
                    ))
                })
                .collect::<Result<_, CompileError>>()?,
            anchors: c.anchors[anchors_base..]
                .iter()
                .map(|&(n, w)| Ok((local(n)?, w)))
                .collect::<Result<_, CompileError>>()?,
            scheme: lowered.scheme,
        };
        analyzed.lowered = Some(RegionRecord { inputs, entry });
        Ok(())
    }

    // ---- balance queries -------------------------------------------------

    /// Solve a balance problem, or reuse the previous compile's solution
    /// when the mode and the problem's structure are unchanged: the
    /// solvers are deterministic functions of that structure. Returns
    /// the problem with its solution.
    fn balance_query(
        &mut self,
        p: BalanceProblem,
        mode: BalanceMode,
    ) -> Result<&BalanceRecord, CompileError> {
        self.stats.balance.0 += 1;
        match &mut self.balance {
            Some(r) if r.mode == mode && r.problem.n == p.n && r.problem.arcs == p.arcs => {
                r.problem = p;
            }
            slot => {
                self.stats.balance.1 += 1;
                let solution = solve::solve(&p, mode)
                    .map_err(|e| CompileError::Internal(format!("balance solver: {e}")))?
                    .ok_or_else(|| {
                        CompileError::Internal("balance pass entered with BalanceMode::None".into())
                    })?;
                *slot = Some(BalanceRecord {
                    mode,
                    problem: p,
                    solution,
                });
            }
        }
        Ok(self.balance.as_ref().expect("just recorded"))
    }
}

/// Parse the whole file, classifying a nesting-depth overrun as a
/// limit breach and anything else as a parse error.
fn parse(src: &str, file: &str, max_depth: usize) -> Result<(Program, SourceMap), CompileError> {
    parse_program_mapped_limited(src, file, max_depth).map_err(|e| match e.kind {
        ParseErrorKind::DepthLimit => LimitBreach::NestingDepth {
            limit: max_depth.min(valpipe_val::parser::DEFAULT_MAX_NESTING_DEPTH),
        }
        .into(),
        ParseErrorKind::Syntax => CompileError::Parse(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use valpipe_val::parser::FIG3_PROGRAM;
    use valpipe_val::typeck::check_program_mapped;

    /// A program whose only block reads an undeclared name.
    const BAD_SRC: &str = "\ninput B : array[real] [0, 10];\n\nA : array[real] :=\n  forall i in [0, 10]\n  construct\n    B[i] + Q\n  endall;\n\noutput A;\n";

    fn all_stages() -> Vec<Stage> {
        Stage::ALL.to_vec()
    }

    fn cold(src: &str) -> PipelineOutput {
        run(&mut QueryEngine::new(), src)
    }

    fn run(engine: &mut QueryEngine, src: &str) -> PipelineOutput {
        engine
            .run_source(
                &CompileOptions::default(),
                &CompileLimits::default(),
                &all_stages(),
                src,
                "fig3.val",
            )
            .unwrap()
    }

    fn assert_identical(a: &PipelineOutput, b: &PipelineOutput) {
        assert_eq!(
            a.compiled.graph.fingerprint(),
            b.compiled.graph.fingerprint()
        );
        assert_eq!(a.dumps, b.dumps, "stage dumps must be byte-identical");
        let names = |o: &PipelineOutput| o.pass_stats.iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(a), names(b));
        for (sa, sb) in a.pass_stats.iter().zip(&b.pass_stats) {
            assert_eq!(
                (
                    sa.nodes_before,
                    sa.arcs_before,
                    sa.nodes_after,
                    sa.arcs_after
                ),
                (
                    sb.nodes_before,
                    sb.arcs_before,
                    sb.nodes_after,
                    sb.arcs_after
                ),
                "pass {} sizes diverge",
                sa.name
            );
        }
        assert_eq!(a.compiled.stats.schemes, b.compiled.stats.schemes);
        assert_eq!(a.compiled.stats.dead_blocks, b.compiled.stats.dead_blocks);
    }

    #[test]
    fn malformed_balance_problem_is_an_internal_error() {
        let arc = |u, v| problem::BArc {
            u,
            v,
            w: 1,
            cost: 1,
            arc: None,
        };
        let cyclic = problem::BalanceProblem {
            n: 2,
            arcs: vec![arc(0, 1), arc(1, 0)],
            comp_of: vec![0, 1],
            rel: vec![0, 0],
        };
        for mode in [BalanceMode::Asap, BalanceMode::Optimal] {
            match QueryEngine::new().balance_query(cyclic.clone(), mode) {
                Err(CompileError::Internal(m)) => assert!(m.contains("cycle"), "{m}"),
                other => panic!("{mode:?}: want an internal error, got {other:?}"),
            }
        }
        // The heuristic is no compile mode, but its solver must still
        // reject the problem with a typed error.
        assert_eq!(
            valpipe_balance::solve_heuristic(&cyclic, 64).unwrap_err(),
            problem::ProblemError::ContractedCycle
        );
    }

    #[test]
    fn warm_recompile_is_bit_identical_and_fully_cached() {
        let mut e = QueryEngine::new();
        let a = run(&mut e, FIG3_PROGRAM);
        assert!(e.stats().executed() > 0, "cold run executes queries");
        let b = run(&mut e, FIG3_PROGRAM);
        assert_identical(&a, &b);
        assert_eq!(
            e.stats().executed(),
            0,
            "unchanged source must reuse every query: {}",
            e.stats().render()
        );
        assert!(e.stats().total() > 0);
    }

    #[test]
    fn single_block_edit_recompiles_only_that_block() {
        let edited = FIG3_PROGRAM.replace("0.25", "0.75");
        assert_ne!(edited, FIG3_PROGRAM);

        let mut e = QueryEngine::new();
        run(&mut e, FIG3_PROGRAM);
        let warm = run(&mut e, &edited);
        assert_identical(&cold(&edited), &warm);

        let s = e.stats();
        assert_eq!(s.typed.1, 1, "only the edited block re-checks");
        assert_eq!(s.analyze.1, 1, "only the edited block re-analyzes");
        assert_eq!(s.region.1, 1, "only the edited block re-lowers");
        assert_eq!(
            s.balance.1, 0,
            "a literal swap leaves the balance problem structurally unchanged"
        );
    }

    #[test]
    fn engine_matches_cold_pipeline_on_examples() {
        let edited = FIG3_PROGRAM.replace("0.25", "0.75");
        for src in [FIG3_PROGRAM, edited.as_str()] {
            let mut e = QueryEngine::new();
            assert_identical(&cold(src), &run(&mut e, src));
        }
    }

    #[test]
    fn cached_type_errors_resolve_locations_each_run() {
        let bad = BAD_SRC;
        let opts = CompileOptions::default();
        let limits = CompileLimits::default();
        let mut e = QueryEngine::new();
        let e1 = e
            .run_source(&opts, &limits, &[], bad, "bad.val")
            .unwrap_err();
        assert_eq!(e.stats().typed.1, 1, "the failing block executed");
        let e2 = e
            .run_source(&opts, &limits, &[], bad, "bad.val")
            .unwrap_err();
        assert_eq!(e.stats().typed.1, 0, "the recorded error was reused");
        assert_eq!(e1.to_string(), e2.to_string());
        assert!(e1.to_string().contains("bad.val:"), "{e1}");

        // Prepending lines moves every statement without changing its
        // text: the cached error is reused and located at its new line.
        let shifted = format!("% a comment\n\n{bad}");
        let e3 = e
            .run_source(&opts, &limits, &[], &shifted, "bad.val")
            .unwrap_err();
        assert_eq!(e.stats().typed.1, 0, "the recorded error was reused");
        let cold = QueryEngine::new()
            .run_source(&opts, &limits, &[], &shifted, "bad.val")
            .unwrap_err();
        assert_eq!(e3.to_string(), cold.to_string());
        assert_ne!(e3.to_string(), e1.to_string());
        let line = |e: &CompileError| {
            let m = e.to_string();
            let at = m.find("bad.val:").expect("located error") + "bad.val:".len();
            m[at..].split(':').next().unwrap().parse::<u32>().unwrap()
        };
        assert_eq!(line(&e3), line(&e1) + 2, "{e1} / {e3}");
    }

    #[test]
    fn a_block_differing_only_in_the_sign_of_zero_is_rechecked() {
        use valpipe_val::ast::{BlockBody, Expr, Forall};
        let block = |zero: f64| {
            Arc::new(BlockDecl {
                name: "A".into(),
                ty: Type::Array(Box::new(Type::Real)),
                body: BlockBody::Forall(Forall {
                    index_var: "i".into(),
                    range: (Expr::IntLit(0), Expr::IntLit(3)),
                    second: None,
                    defs: Vec::new(),
                    body: Expr::RealLit(zero),
                }),
            })
        };
        assert_ne!(block(0.0), block(-0.0));
        assert_eq!(block(-0.0), block(-0.0));
        let prog = |zero: f64| Program {
            params: Vec::new(),
            inputs: Vec::new(),
            blocks: vec![block(zero)],
            outputs: vec!["A".into()],
        };
        let map = SourceMap::default();
        let mut e = QueryEngine::new();
        for (zero, executed) in [(0.0, 1), (0.0, 0), (-0.0, 1)] {
            e.stats = QueryStats::default();
            let checked = e.typecheck(&prog(zero), &map).unwrap();
            assert_eq!(e.stats().typed, (1, executed), "{zero:?}");
            let Expr::RealLit(got) = (match &checked.blocks[0].body {
                BlockBody::Forall(f) => &f.body,
                BlockBody::ForIter(_) => unreachable!(),
            }) else {
                panic!("a literal body stays a literal");
            };
            assert_eq!(got.to_bits(), zero.to_bits());
        }
    }

    #[test]
    fn malformed_source_is_a_parse_error() {
        let mut e = QueryEngine::new();
        let err = e
            .run_source(
                &CompileOptions::default(),
                &CompileLimits::default(),
                &[],
                "this is ( not val",
                "x.val",
            )
            .unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)), "{err}");
    }

    /// The engine's per-block type check is the only type checker the
    /// compile path runs, so it is checked against the whole-program
    /// checker as an independent reference: same program, same errors.
    #[test]
    fn per_block_typecheck_matches_whole_program_typecheck() {
        let mut cases = vec![
            ("fig3.val".to_string(), FIG3_PROGRAM.to_string()),
            (
                "fig3-edit.val".to_string(),
                FIG3_PROGRAM.replace("0.25", "0.75"),
            ),
            ("bad.val".to_string(), BAD_SRC.to_string()),
        ];
        let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&corpus)
            .unwrap()
            .map(|f| f.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "val"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no corpus repros under {corpus:?}");
        for p in files {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            cases.push((name, std::fs::read_to_string(&p).unwrap()));
        }

        let depth = CompileLimits::default().max_nesting_depth;
        let mut type_errors = 0;
        for (file, src) in &cases {
            let mut e = QueryEngine::new();
            let Ok((prog, map)) = parse_program_mapped_limited(src, file, depth) else {
                continue;
            };
            let Ok((flat, _)) = valpipe_val::dims::flatten_program(&prog) else {
                continue;
            };
            match (e.typecheck(&flat, &map), check_program_mapped(&flat, &map)) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{file}: typecheck diverges"),
                (Err(CompileError::Type(got)), Err(want)) => {
                    assert_eq!(got, want, "{file}: type error diverges");
                    type_errors += 1;
                }
                (got, want) => panic!("{file}: typecheck outcomes diverge: {got:?} vs {want:?}"),
            }
        }
        assert!(
            type_errors > 0,
            "the type-error source must reach the checker"
        );
    }
}
