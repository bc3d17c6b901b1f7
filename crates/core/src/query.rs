//! Query-based incremental compilation — the workspace's only compile
//! driver.
//!
//! Every compile runs through [`QueryEngine::run_source`]:
//! [`crate::compile_source`] and [`crate::compile_source_limited`] are one
//! call on a fresh engine, and the CLI, the service, the fuzzer and the
//! benches hold engines of their own. The pass sequence is the classic
//! straight line (parse the whole file, check the whole program, lower
//! every block, balance the whole graph), but each stage is posed as a
//! set of **queries** — per-block type checks, analyses and lowered
//! regions, whole-problem balance solutions — each memoized under a key
//! of *everything that can influence its result*. The parse is not a
//! query: every run parses the whole file once.
//! Re-running a compile after an edit re-executes only the queries whose
//! inputs changed; everything else is revalidated green-for-free because
//! its key still matches (red–green with early cutoff: a downstream key
//! embeds the upstream *value* fingerprints, so an upstream re-execution
//! that reproduces the same value leaves the downstream keys untouched).
//!
//! Memo hits are **exact-match**, not hash-match: every memo table is
//! keyed by the full canonical key string, so a hit proves the inputs
//! are byte-identical. No 64-bit fingerprint collision — accidental or
//! adversarially constructed (the engine is shared across tenants in
//! the serve registry) — can splice one compilation's artifact into
//! another's.
//!
//! Memo tables live in memory only, for the engine's lifetime, and are
//! bounded: after each run, entries not touched within the retention cap
//! are swept (generation-based LRU), so a long-lived shared engine fed
//! arbitrary programs holds bounded memory.
//!
//! **Bit-identity is the contract.** A warm [`QueryEngine::run_source`]
//! must produce exactly the artifacts of a cold one: same graph
//! fingerprint, same stage dumps byte-for-byte, same pass-stat sequence,
//! same typed errors. The engine guarantees this by construction:
//!
//! * warm and cold runs parse with the same whole-file parser, so the
//!   program and its source map are the cold ones;
//! * per-block queries are keyed by what the block reads, not by the
//!   program around it (the paper's Theorem 4 composes a program from
//!   per-block graphs over the flow-dependency graph, so a block's code
//!   depends only on the blocks it reads). The **typed** key is the
//!   flattened block plus the types bound to the names it mentions
//!   ([`valpipe_val::deps::block_names`]); cached type errors carry no
//!   source location — it is attached at use time from the current
//!   source map;
//! * the per-block **analyze** key extends the typed key with the
//!   block's [`valpipe_val::deps::BlockScope`]: the values of the
//!   parameters it mentions and the ranges of the arrays it reads;
//! * the per-block lowered **region** ([`valpipe_ir::GraphDelta`]) key
//!   extends the analyze key with the lowering options, the block's
//!   provenance ids and each *direct* provider's name, aliasing (the
//!   index of the first direct provider sharing its cell) and range.
//!   Deltas are position-independent — local cell ids, relative arc ids
//!   and label numbers, providers named by position — and are rebased
//!   at splice, so an edit that changes one block's cell count does not
//!   miss any other block's region (provenance ids stay absolute, so an
//!   edit that adds or removes a statement re-keys the blocks after it);
//! * balance solutions are keyed by the full constraint-problem
//!   structure; the solvers are deterministic, so an equal problem has an
//!   equal solution.
//!
//! Building a block's keys therefore costs O(block), cold or warm;
//! [`QueryStats::key_bytes`] counts the bytes built per table.
//!
//! The `--emit=machine` listing is not a query: it is rendered from the
//! balanced graph whenever it is asked for.

use crate::builder::{Compiler, Provider};
use crate::error::CompileError;
use crate::foriter::UsedScheme;
use crate::limits::{CompileLimits, LimitBreach};
use crate::options::CompileOptions;
use crate::pipeline::{
    block_prov, build_prov, dump_graph, live_blocks, lower_block, lower_epilogue, lower_inputs,
    PassStat, PipelineOutput, Stage,
};
use crate::program::{CompileStats, Compiled};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::time::Instant;
use valpipe_balance::{problem, solve, BalanceMode, BalanceSolution};
use valpipe_ir::opcode::Opcode;
use valpipe_ir::region::{Frame, GraphDelta, Mark};
use valpipe_ir::validate::validate;
use valpipe_ir::value::Value;
use valpipe_ir::NodeId;
use valpipe_val::ast::{BlockDecl, Program};
use valpipe_val::deps::{
    analyze_block, analyze_with, block_names, AnalyzeError, BlockNode, FlowGraph,
};
use valpipe_val::fold::Bindings;
use valpipe_val::parser::{parse_program_mapped_limited, ParseErrorKind};
use valpipe_val::srcmap::{SourceMap, StmtKey};
use valpipe_val::typeck::{attach_loc, check_block, program_prelude_env, TypeError};

/// Per-run query accounting, by query kind: how many were posed and how
/// many actually executed (the rest were memo hits).
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
    /// Memo-key bytes built this run, per table.
    pub key_bytes: KeyBytes,
}

/// Bytes of memo keys built in one run, per query table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyBytes {
    /// Per-block type-check keys.
    pub typed: usize,
    /// Per-block flow-analysis keys.
    pub analyze: usize,
    /// Per-block region keys.
    pub region: usize,
    /// Balance-problem keys.
    pub balance: usize,
}

impl KeyBytes {
    /// All tables together.
    pub fn total(&self) -> usize {
        self.typed + self.analyze + self.region + self.balance
    }
}

impl QueryStats {
    fn tables(&self) -> [(usize, usize); 4] {
        [self.typed, self.analyze, self.region, self.balance]
    }

    /// Total queries posed this run.
    pub fn total(&self) -> usize {
        self.tables().iter().map(|t| t.0).sum()
    }

    /// Queries that executed (missed the memo) this run.
    pub fn executed(&self) -> usize {
        self.tables().iter().map(|t| t.1).sum()
    }

    /// Queries answered from the memo this run.
    pub fn hits(&self) -> usize {
        self.total() - self.executed()
    }

    /// One-line human rendering (for test and experiment diagnostics).
    pub fn render(&self) -> String {
        let k = &self.key_bytes;
        format!(
            "queries: {} total, {} executed, {} cached \
             (typed {}/{}, analyze {}/{}, region {}/{}, balance {}/{}); \
             key bytes {} (typed {}, analyze {}, region {}, balance {})",
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
            k.total(),
            k.typed,
            k.analyze,
            k.region,
            k.balance,
        )
    }
}

/// Cached result of lowering one block: the graph region it appended plus
/// every other piece of compiler state the block's lowering touched, all
/// in the delta's local cell ids (see [`valpipe_ir::region`]).
#[derive(Debug, Clone, PartialEq)]
struct RegionEntry {
    delta: GraphDelta,
    /// Streams the block registered, in registration order.
    providers: Vec<(String, Provider)>,
    /// Balance anchors the block appended.
    anchors: Vec<(NodeId, i64)>,
    /// Recurrence scheme used (for-iter blocks only).
    scheme: Option<UsedScheme>,
}

/// A memoized value plus the run generation that last touched it (for
/// the post-run LRU sweep).
#[derive(Debug, Clone)]
struct Memo<V> {
    value: V,
    gen: u64,
}

/// Look `key` up in `table`, refreshing a hit's generation; on a miss run
/// the query and memoize its value unless it fails. `count` tallies
/// (posed, executed).
fn answer<V: Clone, E>(
    table: &mut HashMap<String, Memo<V>>,
    gen: u64,
    count: &mut (usize, usize),
    key: &str,
    run: impl FnOnce() -> Result<V, E>,
) -> Result<V, E> {
    count.0 += 1;
    if let Some(hit) = table.get_mut(key) {
        hit.gen = gen;
        return Ok(hit.value.clone());
    }
    count.1 += 1;
    let value = run()?;
    table.insert(
        key.to_string(),
        Memo {
            value: value.clone(),
            gen,
        },
    );
    Ok(value)
}

/// Default per-table memo retention: generous enough that a 1000-block
/// program's working set stays resident, small enough to bound a
/// long-lived shared engine fed arbitrary distinct programs.
const DEFAULT_MEMO_CAP: usize = 16_384;

/// The incremental compile engine: in-memory memo tables for every query
/// kind. One engine instance per logical compilation session; a fresh
/// engine performs exactly the cold pipeline.
///
/// Every memo table is keyed by the full canonical key string — a hit
/// requires byte-identical inputs, so no hash collision can cross-wire
/// two compilations (see the module docs).
#[derive(Debug)]
pub struct QueryEngine {
    typed_memo: HashMap<String, Memo<Result<BlockDecl, TypeError>>>,
    analyze_memo: HashMap<String, Memo<Result<BlockNode, AnalyzeError>>>,
    region_memo: HashMap<String, Memo<RegionEntry>>,
    balance_memo: HashMap<String, Memo<BalanceSolution>>,
    stats: QueryStats,
    /// Current run generation; bumped at every [`QueryEngine::run_source`].
    gen: u64,
    /// Per-table entry cap enforced after each run.
    memo_cap: usize,
}

impl Default for QueryEngine {
    fn default() -> QueryEngine {
        QueryEngine {
            typed_memo: HashMap::new(),
            analyze_memo: HashMap::new(),
            region_memo: HashMap::new(),
            balance_memo: HashMap::new(),
            stats: QueryStats::default(),
            gen: 0,
            memo_cap: DEFAULT_MEMO_CAP,
        }
    }
}

impl QueryEngine {
    /// Fresh engine with empty memos.
    pub fn new() -> QueryEngine {
        QueryEngine::default()
    }

    /// Cap each memo table at roughly `cap` entries. After every run,
    /// entries least recently touched (by run generation) are swept
    /// until the table fits; entries touched by the current run are
    /// never swept, so a single program larger than the cap still
    /// compiles warm within a run. Long-lived shared engines (the serve
    /// registry) rely on this to bound memory against arbitrary
    /// distinct submissions.
    pub fn set_memo_cap(&mut self, cap: usize) {
        self.memo_cap = cap.max(1);
    }

    /// Query accounting for the most recent [`QueryEngine::run_source`].
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Compile source text through the staged pipeline, answering every
    /// stage from the memo tables where the inputs are unchanged. The
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
        self.gen += 1;
        let out = self.run_source_inner(opts, limits, emit, src, file);
        // Sweep cold memo entries whether the compile succeeded or not —
        // failed compiles populate memos too.
        self.evict();
        out
    }

    fn run_source_inner(
        &mut self,
        opts: &CompileOptions,
        limits: &CompileLimits,
        emit: &[Stage],
        src: &str,
        file: &str,
    ) -> Result<PipelineOutput, CompileError> {
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

    /// Trim each memo table to the retention cap, dropping the entries
    /// least recently touched. Entries touched this run share the
    /// current (maximal) generation and always survive.
    fn evict(&mut self) {
        fn trim<V>(m: &mut HashMap<String, Memo<V>>, cap: usize) {
            if m.len() <= cap {
                return;
            }
            let mut gens: Vec<u64> = m.values().map(|e| e.gen).collect();
            gens.sort_unstable();
            let cutoff = gens[m.len() - cap];
            m.retain(|_, e| e.gen >= cutoff);
        }
        let cap = self.memo_cap;
        trim(&mut self.typed_memo, cap);
        trim(&mut self.analyze_memo, cap);
        trim(&mut self.region_memo, cap);
        trim(&mut self.balance_memo, cap);
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
        let (prog, typed_keys) = pass!("typecheck", &empty, self.typecheck(&prog, map)?);
        let (flow, block_keys) = pass!("analyze", &empty, self.analyze(&prog, typed_keys)?);
        let (prov, src_ids) = build_prov(&prog, map);

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
            lower_inputs(&mut c, opts, &flow, &src_ids);
            let live = live_blocks(&flow, &prog.outputs);
            let blocks = flow.blocks.iter().zip(&prog.blocks).zip(block_keys);
            for ((block, decl), key) in blocks {
                if !live.contains(&block.name) {
                    cstats.dead_blocks.push(block.name.clone());
                    continue;
                }
                self.lower_block_query(&mut c, &mut cstats, opts, decl, block, &src_ids, key)?;
            }
            lower_epilogue(&mut c, opts, &prog, &src_ids)?;
        });

        if opts.fuse_gates {
            pass!("fuse", &c.g, {
                let fused = crate::fuse::fuse_static_gates(&mut c.g);
                cstats.fused_gates = fused.fused;
                if fused.fused > 0 {
                    crate::fuse::sweep_dead(&mut c.g);
                }
            });
        }

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
                let sol = self.balance_query(&p, opts.balance)?;
                cstats.global_buffers = problem::apply(&mut c.g, &p, &sol);
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
    /// evolution, same first-error-wins order, same output check. Cached
    /// type errors are stored location-free and resolved against the
    /// current source map at use time. Returns the checked program and
    /// each block's typed key, which the analyze and region keys extend.
    fn typecheck(
        &mut self,
        prog: &Program,
        map: &SourceMap,
    ) -> Result<(Program, Vec<String>), CompileError> {
        let mut env = program_prelude_env(prog).map_err(|e| attach_loc(e, map))?;
        let mut blocks = Vec::with_capacity(prog.blocks.len());
        let mut keys = Vec::with_capacity(prog.blocks.len());
        for block in &prog.blocks {
            let mut key = format!("typed|{block:?}|");
            for name in block_names(block) {
                if let Some(ty) = env.get(&name) {
                    let _ = write!(key, "{name}:{ty};");
                }
            }
            self.stats.key_bytes.typed += key.len();
            let Ok(checked) = answer(
                &mut self.typed_memo,
                self.gen,
                &mut self.stats.typed,
                &key,
                || Ok::<_, Infallible>(check_block(block, &env)),
            );
            blocks.push(checked.map_err(|e| attach_loc(e, map))?);
            env.bind(&block.name, block.ty.clone());
            keys.push(key);
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
        let prog = Program {
            params: prog.params.clone(),
            inputs: prog.inputs.clone(),
            blocks,
            outputs: prog.outputs.clone(),
        };
        Ok((prog, keys))
    }

    /// The flow analysis with each block's step answered per block, keyed
    /// by its typed key (which determines the checked block) plus its
    /// [`valpipe_val::deps::BlockScope`]. Returns the flow graph and each
    /// block's analyze key, which the region key extends.
    fn analyze(
        &mut self,
        prog: &Program,
        mut keys: Vec<String>,
    ) -> Result<(FlowGraph, Vec<String>), CompileError> {
        let (memo, stats, gen) = (&mut self.analyze_memo, &mut self.stats, self.gen);
        let mut bi = 0;
        let flow = analyze_with(prog, |block, scope| {
            let key = &mut keys[bi];
            bi += 1;
            let _ = write!(key, "|analyze|{scope:?}");
            stats.key_bytes.analyze += key.len();
            let Ok(node) = answer(memo, gen, &mut stats.analyze, key, || {
                Ok::<_, Infallible>(analyze_block(block, scope))
            });
            node
        })?;
        Ok((flow, keys))
    }

    // ---- region queries --------------------------------------------------

    /// Lower one block, answering from the region memo when its key — the
    /// block's analyze key, the lowering options, its provenance ids and
    /// its direct providers' names, aliasing and ranges — is unchanged. A
    /// memo hit splices the cached region at the graph's end, wired to
    /// the providers' current cells; a miss lowers cold and captures the
    /// delta.
    #[allow(clippy::too_many_arguments)]
    fn lower_block_query(
        &mut self,
        c: &mut Compiler,
        cstats: &mut CompileStats,
        opts: &CompileOptions,
        decl: &BlockDecl,
        block: &BlockNode,
        src_ids: &HashMap<StmtKey, u32>,
        mut key: String,
    ) -> Result<(), CompileError> {
        let bp = block_prov(decl, src_ids);
        let _ = write!(
            key,
            "|region|scheme:{:?}|am:{}|bp:{}:{}:",
            opts.scheme, opts.am_boundary, bp.header, bp.body,
        );
        let mut defs: Vec<_> = bp.defs.iter().collect();
        defs.sort();
        for (name, id) in defs {
            let _ = write!(key, "{name}={id},");
        }
        // The direct providers, in name order (`consumes` is sorted): the
        // region's external cells. A provider sharing a cell with an
        // earlier one is keyed by that one's index.
        let mut ext: Vec<NodeId> = Vec::new();
        let mut prev: Option<&str> = None;
        for (name, _) in &block.consumes {
            if prev == Some(name.as_str()) {
                continue;
            }
            prev = Some(name);
            match c.providers.get(name) {
                Some(p) => {
                    let alias = ext.iter().position(|&n| n == p.node).unwrap_or(ext.len());
                    let _ = write!(key, "|{name}:{alias}:{}..{}", p.lo, p.hi);
                    ext.push(p.node);
                }
                None => {
                    let _ = write!(key, "|{name}:-");
                }
            }
        }
        self.stats.key_bytes.region += key.len();
        self.stats.region.0 += 1;
        let mark = Mark::of(&c.g, c.label_seq());
        let frame = Frame {
            base: mark.nodes,
            ext: &ext,
        };

        if let Some(hit) = self.region_memo.get_mut(&key) {
            hit.gen = self.gen;
            let entry = &hit.value;
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
        let lowered = lower_block(c, opts, decl, block, src_ids)?;
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
        self.region_memo.insert(
            key,
            Memo {
                value: entry,
                gen: self.gen,
            },
        );
        Ok(())
    }

    // ---- balance queries -------------------------------------------------

    /// Solve (or recall) a balance problem. The solvers are deterministic
    /// functions of the problem structure, so an exact key match is a
    /// proof the cached solution equals a fresh solve.
    fn balance_query(
        &mut self,
        p: &problem::BalanceProblem,
        mode: BalanceMode,
    ) -> Result<BalanceSolution, CompileError> {
        let mut key = format!("balance|{mode:?}|n:{}", p.n);
        for a in &p.arcs {
            let _ = write!(
                key,
                "|{}>{}w{}c{}a{:?}",
                a.u,
                a.v,
                a.w,
                a.cost,
                a.arc.map(|x| x.0)
            );
        }
        self.stats.key_bytes.balance += key.len();
        answer(
            &mut self.balance_memo,
            self.gen,
            &mut self.stats.balance,
            &key,
            || {
                solve::solve(p, mode)
                    .map_err(|e| CompileError::Internal(format!("balance solver: {e}")))?
                    .ok_or_else(|| {
                        CompileError::Internal("balance pass entered with BalanceMode::None".into())
                    })
            },
        )
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
                &CompileOptions::paper(),
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
        for mode in [
            BalanceMode::Asap,
            BalanceMode::Heuristic,
            BalanceMode::Optimal,
        ] {
            match QueryEngine::new().balance_query(&cyclic, mode) {
                Err(CompileError::Internal(m)) => assert!(m.contains("cycle"), "{m}"),
                other => panic!("{mode:?}: want an internal error, got {other:?}"),
            }
        }
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
            "unchanged source must answer every query from the memo: {}",
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
        let opts = CompileOptions::paper();
        let limits = CompileLimits::default();
        let mut e = QueryEngine::new();
        let e1 = e
            .run_source(&opts, &limits, &[], bad, "bad.val")
            .unwrap_err();
        assert_eq!(e.stats().typed.1, 1, "the failing block executed");
        let e2 = e
            .run_source(&opts, &limits, &[], bad, "bad.val")
            .unwrap_err();
        assert_eq!(e.stats().typed.1, 0, "the cached error was reused");
        assert_eq!(e1.to_string(), e2.to_string());
        assert!(e1.to_string().contains("bad.val:"), "{e1}");

        // Prepending lines moves every statement without changing its
        // text: the cached error is reused and located at its new line.
        let shifted = format!("% a comment\n\n{bad}");
        let e3 = e
            .run_source(&opts, &limits, &[], &shifted, "bad.val")
            .unwrap_err();
        assert_eq!(e.stats().typed.1, 0, "the cached error was reused");
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
    fn memo_cap_sweeps_entries_untouched_by_recent_runs() {
        let edited = FIG3_PROGRAM.replace("0.25", "0.75");
        let mut e = QueryEngine::new();
        e.set_memo_cap(1);
        run(&mut e, FIG3_PROGRAM);
        // Compiling a different program bumps shared entries but leaves
        // the first program's unique entries at the old generation; the
        // post-run sweep (cap 1) drops them.
        run(&mut e, &edited);
        run(&mut e, FIG3_PROGRAM);
        assert!(
            e.stats().executed() > 0,
            "swept entries must re-execute, not resurrect: {}",
            e.stats().render()
        );
        // Correctness is unaffected: output still matches a cold compile.
        let mut fresh = QueryEngine::new();
        assert_identical(&cold(FIG3_PROGRAM), &run(&mut fresh, FIG3_PROGRAM));
    }

    #[test]
    fn memo_cap_never_sweeps_the_current_runs_working_set() {
        let mut e = QueryEngine::new();
        e.set_memo_cap(1);
        run(&mut e, FIG3_PROGRAM);
        let b = run(&mut e, FIG3_PROGRAM);
        assert_eq!(
            e.stats().executed(),
            0,
            "entries touched by the previous run survive a cap of 1: {}",
            e.stats().render()
        );
        assert_identical(&cold(FIG3_PROGRAM), &b);
    }

    /// The 1-D stencil chain of the scaling workloads: `blocks` blocks,
    /// each reading its predecessor at offsets -1 and +1.
    fn chain_src(blocks: usize) -> String {
        let mut s = format!(
            "param m = {};\ninput S0 : array[real] [0, m+1];\n",
            2 * blocks + 16
        );
        for k in 1..=blocks {
            let _ = writeln!(
                s,
                "S{k} : array[real] := forall i in [{k}, m+1-{k}] construct 0.5 * (S{p}[i-1] + S{p}[i+1]) endall;",
                p = k - 1
            );
        }
        let _ = writeln!(s, "output S{blocks};");
        s
    }

    #[test]
    fn key_bytes_per_block_do_not_grow_with_the_program() {
        let per_block = |blocks: usize| {
            let mut e = QueryEngine::new();
            e.run_source(
                &CompileOptions::paper(),
                &CompileLimits::unbounded(),
                &[],
                &chain_src(blocks),
                "chain.val",
            )
            .unwrap();
            let k = e.stats().key_bytes;
            assert!(k.typed > 0 && k.analyze > 0 && k.region > 0 && k.balance > 0);
            k.total() as f64 / blocks as f64
        };
        let (small, large) = (per_block(50), per_block(200));
        assert!(
            large <= 1.25 * small,
            "memo-key bytes per block grew from {small:.0} (50 blocks) to {large:.0} (200 blocks)"
        );
    }

    #[test]
    fn malformed_source_is_a_parse_error() {
        let mut e = QueryEngine::new();
        let err = e
            .run_source(
                &CompileOptions::paper(),
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
            match (
                e.typecheck(&flat, &map).map(|(p, _)| p),
                check_program_mapped(&flat, &map),
            ) {
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
