//! The staged pass pipeline's vocabulary: AST → TypedAst → Ir →
//! BalancedIr → MachineProgram.
//!
//! The pass sequence itself lives in exactly one place, the query
//! engine's driver ([`crate::query::QueryEngine::run_source`]): a fixed
//! sequence of named passes with typed artifacts between the stages,
//! each gated by its validator (type checking, the flow analysis,
//! [`valpipe_ir::validate`], the balancer's anchoring extraction) and
//! instrumented with wall time and node/arc growth ([`PassStat`]). This
//! module holds what that driver shares with its callers: the stage
//! names, the per-pass statistics, the [`PipelineOutput`] it returns,
//! and the cold lowering helpers it replays per block.
//!
//! Stage artifacts can be dumped as deterministic text
//! ([`Stage`], [`dump_graph`]) — the CLI exposes this as
//! `--emit=ast,typed,ir,balanced,machine`, and the golden tests in
//! `tests/` diff the dumps. Wall times are deliberately confined to
//! [`PassStat`] (rendered on stderr) so every dump is byte-stable.

use crate::builder::{BlockProv, Compiler, Provider};
use crate::error::CompileError;
use crate::forall::compile_forall;
use crate::foriter::compile_foriter;
use crate::options::CompileOptions;
use crate::program::Compiled;
use std::collections::{HashMap, HashSet};
use std::fmt;
use valpipe_ir::opcode::Opcode;
use valpipe_ir::prov::Provenance;
use valpipe_ir::{Graph, PortBinding};
use valpipe_val::ast::{BlockBody, BlockDecl, Program};
use valpipe_val::deps::{BlockClass, FlowGraph};
use valpipe_val::srcmap::{SourceMap, StmtKey};

/// The pipeline's observable artifacts, in stage order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The program as written (pretty-printed source).
    Ast,
    /// After flattening and type checking (annotated, `~` disambiguated).
    Typed,
    /// The lowered instruction graph before any balancing.
    Ir,
    /// After loop-interior and global balancing (symbolic FIFOs).
    Balanced,
    /// The executable machine program (FIFOs expanded to identity chains).
    Machine,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Ast,
        Stage::Typed,
        Stage::Ir,
        Stage::Balanced,
        Stage::Machine,
    ];

    /// The stage's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ast => "ast",
            Stage::Typed => "typed",
            Stage::Ir => "ir",
            Stage::Balanced => "balanced",
            Stage::Machine => "machine",
        }
    }

    /// Parse a CLI stage name.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|st| st.name() == s)
    }

    /// Parse a comma-separated `--emit` list (e.g. `ir,machine`; `all`
    /// selects every stage).
    pub fn parse_list(s: &str) -> Result<Vec<Stage>, String> {
        if s == "all" {
            return Ok(Stage::ALL.to_vec());
        }
        let mut out = Vec::new();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let st = Stage::parse(part).ok_or_else(|| {
                format!("unknown stage '{part}' (want ast,typed,ir,balanced,machine)")
            })?;
            if !out.contains(&st) {
                out.push(st);
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall time and graph growth of one pass.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Pass name (e.g. `lower`, `global-balance`).
    pub name: &'static str,
    /// Wall-clock seconds spent in the pass.
    pub wall_s: f64,
    /// Cells before the pass ran.
    pub nodes_before: usize,
    /// Arcs before the pass ran.
    pub arcs_before: usize,
    /// Cells after.
    pub nodes_after: usize,
    /// Arcs after.
    pub arcs_after: usize,
}

impl PassStat {
    /// Net cell growth (negative when the pass removed cells).
    pub fn node_growth(&self) -> i64 {
        self.nodes_after as i64 - self.nodes_before as i64
    }

    /// Net arc growth.
    pub fn arc_growth(&self) -> i64 {
        self.arcs_after as i64 - self.arcs_before as i64
    }
}

/// Render pass statistics as an aligned table (intended for stderr: the
/// wall times are nondeterministic).
pub fn render_pass_stats(stats: &[PassStat]) -> String {
    let mut out = String::from("pass              wall_ms    cells   +cells     arcs    +arcs\n");
    let mut total = 0.0;
    for s in stats {
        total += s.wall_s;
        out.push_str(&format!(
            "{:<16} {:>8.3} {:>8} {:>+8} {:>8} {:>+8}\n",
            s.name,
            s.wall_s * 1e3,
            s.nodes_after,
            s.node_growth(),
            s.arcs_after,
            s.arc_growth(),
        ));
    }
    out.push_str(&format!("{:<16} {:>8.3}\n", "total", total * 1e3));
    out
}

/// Result of a pipeline run: the compiled program plus whatever
/// instrumentation was requested.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The compiled program (same value [`crate::compile_source`]
    /// returns).
    pub compiled: Compiled,
    /// Per-pass wall time and growth, in execution order.
    pub pass_stats: Vec<PassStat>,
    /// Requested stage dumps, in the order the emit list gave them.
    pub dumps: Vec<(Stage, String)>,
}

/// Lower the program's input declarations: one anchored `Source` cell per
/// input (element `i` of an array over `[lo, hi]` cannot arrive before
/// `2·(i − lo)` instruction times, hence the `−2·lo` anchor), optionally
/// routed through an array-memory read cell.
pub(crate) fn lower_inputs(c: &mut Compiler, opts: &CompileOptions, flow: &FlowGraph, ids: &[u32]) {
    for ((name, (lo, hi)), &id) in flow.inputs.iter().zip(ids) {
        c.g.set_provenance(id);
        let src = c.g.add_node(Opcode::Source(name.clone()), name.clone());
        c.anchors.push((src, -2 * lo));
        let node = if opts.am_boundary {
            let l = c.label(&format!("{name}.amr"));
            c.g.cell(Opcode::AmRead, l, &[src.into()])
        } else {
            src
        };
        c.providers.insert(
            name.clone(),
            Provider {
                node,
                lo: *lo,
                hi: *hi,
            },
        );
    }
}

/// What lowering one block left in the compiler besides its cells: the
/// recurrence scheme (for-iter blocks) and the streams it registered.
pub(crate) struct Lowered {
    pub scheme: Option<crate::foriter::UsedScheme>,
    pub provided: Vec<(String, Provider)>,
}

/// Lower one block to its circuit (Theorems 1–3).
pub(crate) fn lower_block(
    c: &mut Compiler,
    opts: &CompileOptions,
    decl: &BlockDecl,
    block: &valpipe_val::deps::BlockNode,
    bp: &BlockProv,
) -> Result<Lowered, CompileError> {
    let scheme = match (&block.class, &decl.body) {
        (BlockClass::Forall { lo, hi }, BlockBody::Forall(f)) => {
            compile_forall(c, &block.name, f, *lo, *hi, bp)?;
            None
        }
        (BlockClass::ForIter(pfi), _) => {
            let (_, used) = compile_foriter(c, &block.name, pfi, opts.scheme, bp)?;
            Some(used)
        }
        _ => {
            return Err(CompileError::Internal(format!(
                "classification mismatch for block '{}'",
                block.name
            )))
        }
    };
    Ok(Lowered {
        scheme,
        provided: c.take_provided(),
    })
}

/// Lower the program epilogue: output sinks (optionally through
/// array-memory write cells) and structural drain sinks for any stream
/// left unconsumed.
pub(crate) fn lower_epilogue(
    c: &mut Compiler,
    opts: &CompileOptions,
    prog: &Program,
    output: u32,
) -> Result<(), CompileError> {
    c.g.set_provenance(output);
    for name in &prog.outputs {
        let p = *c
            .providers
            .get(name)
            .ok_or_else(|| CompileError::Internal(format!("no provider for output '{name}'")))?;
        let node = if opts.am_boundary {
            let l = c.label(&format!("{name}.amw"));
            c.g.cell(Opcode::AmWrite, l, &[p.node.into()])
        } else {
            p.node
        };
        let l = c.label(&format!("{name}.out"));
        c.g.cell(Opcode::Sink(name.clone()), l, &[node.into()]);
    }

    // Any stream that ends up unconsumed still needs a consumer to be
    // structurally valid.
    for id in c.g.node_ids().collect::<Vec<_>>() {
        if c.g.nodes[id.idx()].op.produces_output() && c.g.nodes[id.idx()].outputs.is_empty() {
            // The drain sink belongs to whatever statement produced
            // the unconsumed stream.
            c.g.set_provenance(c.g.nodes[id.idx()].src);
            let label = format!("__drain.{}", id.idx());
            let sink = c.g.add_node(Opcode::Sink(label.clone()), label);
            c.g.connect(id, sink, 0);
        }
    }
    c.g.set_provenance(0);
    Ok(())
}

/// The provenance ids lowering tags its cells with, one per statement.
pub(crate) struct ProvIds {
    /// Each input declaration's id, in declaration order.
    pub inputs: Vec<u32>,
    /// Each block's ids, in program order.
    pub blocks: Vec<BlockProv>,
    /// The `output` declaration's id.
    pub output: u32,
}

/// Build the provenance table for a program from its statement source
/// map, in deterministic program order, with the ids lowering reads.
/// Statements absent from the map fall back to provenance id 0 (the
/// whole-program entry).
pub(crate) fn build_prov(prog: &Program, map: &SourceMap) -> (Provenance, ProvIds) {
    let mut prov = Provenance::new(&map.file);
    let mut put = |key: StmtKey, role: String| {
        map.span(&key)
            .map(|span| prov.add(role, span, map.snippet(span)))
    };
    for (n, _) in &prog.params {
        put(StmtKey::Param(n.clone()), format!("param '{n}'"));
    }
    let inputs = prog
        .inputs
        .iter()
        .map(|i| {
            let role = format!("input declaration '{}'", i.name);
            put(StmtKey::Input(i.name.clone()), role).unwrap_or(0)
        })
        .collect();
    let mut blocks = Vec::with_capacity(prog.blocks.len());
    for b in &prog.blocks {
        let name = &b.name;
        let header = put(
            StmtKey::BlockHeader(name.clone()),
            format!("header of block '{name}'"),
        );
        let mut defs = HashMap::new();
        let (stmts, key, role, body): (_, fn(String, String) -> StmtKey, _, _) = match &b.body {
            BlockBody::Forall(f) => (&f.defs, StmtKey::BlockDef, "definition", "forall body"),
            BlockBody::ForIter(fi) => (&fi.inits, StmtKey::BlockInit, "loop init", "loop body"),
        };
        for d in stmts {
            let role = format!("{role} '{}' in block '{name}'", d.name);
            if let Some(id) = put(key(name.clone(), d.name.clone()), role) {
                defs.insert(d.name.clone(), id);
            }
        }
        let body = put(
            StmtKey::BlockBody(name.clone()),
            format!("{body} of block '{name}'"),
        );
        blocks.push(BlockProv {
            header: header.unwrap_or(0),
            defs,
            body: body.unwrap_or(0),
        });
    }
    let output = put(StmtKey::Output, "output declaration".to_string()).unwrap_or(0);
    (
        prov,
        ProvIds {
            inputs,
            blocks,
            output,
        },
    )
}

pub(crate) fn live_blocks(flow: &FlowGraph, outputs: &[String]) -> HashSet<String> {
    // Walk producer edges backwards from the outputs.
    let mut preds: HashMap<&str, Vec<&str>> = HashMap::new();
    for (prod, cons) in &flow.edges {
        preds.entry(cons.as_str()).or_default().push(prod.as_str());
    }
    let mut live: HashSet<String> = HashSet::new();
    let mut stack: Vec<&str> = outputs.iter().map(|s| s.as_str()).collect();
    while let Some(name) = stack.pop() {
        if live.insert(name.to_string()) {
            if let Some(ps) = preds.get(name) {
                stack.extend(ps.iter().copied());
            }
        }
    }
    live
}

/// Deterministic textual listing of an instruction graph with its
/// provenance table — the `--emit=ir,balanced,machine` dump format used
/// by the golden tests. Contains no wall times or other nondeterminism.
pub fn dump_graph(g: &Graph, prov: &Provenance) -> String {
    let mut out = format!("cells {}  arcs {}\n", g.node_count(), g.arcs.len());
    for (i, n) in g.nodes.iter().enumerate() {
        let ins = n
            .inputs
            .iter()
            .map(|b| match b {
                PortBinding::Unbound => "unbound".to_string(),
                PortBinding::Lit(v) => format!("#{v}"),
                PortBinding::Wired(a) => {
                    let e = &g.arcs[a.idx()];
                    let mut s = format!("n{}", e.src.idx());
                    if e.phase != 0 {
                        s.push_str(&format!("@{:+}", e.phase));
                    }
                    if e.back {
                        s.push('^');
                    }
                    if let Some(v) = &e.initial {
                        s.push_str(&format!("!{v}"));
                    }
                    s
                }
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "n{i:<5} {:<14} {:<28} [{ins}]",
            n.op.mnemonic(),
            n.label
        ));
        if prov.is_resolved(n.src) {
            out.push_str(&format!("  ; src{}", n.src));
        }
        out.push('\n');
    }
    if prov.entries.len() > 1 {
        out.push_str("provenance:\n");
        for i in 1..prov.entries.len() {
            out.push_str(&format!("  src{i}: {}\n", prov.describe(i as u32)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::CompileLimits;
    use crate::query::QueryEngine;
    use valpipe_val::parser::FIG3_PROGRAM;

    fn run(emit: &[Stage], file: &str) -> PipelineOutput {
        QueryEngine::new()
            .run_source(
                &CompileOptions::default(),
                &CompileLimits::unbounded(),
                emit,
                FIG3_PROGRAM,
                file,
            )
            .unwrap()
    }

    #[test]
    fn pipeline_matches_compile_source() {
        let direct =
            crate::program::compile_source(FIG3_PROGRAM, &CompileOptions::default()).unwrap();
        let piped = run(&[], "<source>");
        assert_eq!(
            direct.graph.fingerprint(),
            piped.compiled.graph.fingerprint()
        );
    }

    #[test]
    fn stage_dumps_are_deterministic_and_ordered() {
        let emit = [Stage::Machine, Stage::Ast, Stage::Ir];
        let a = run(&emit, "fig3.val");
        let b = run(&emit, "fig3.val");
        let sa: Vec<_> = a.dumps.iter().map(|(s, _)| *s).collect();
        assert_eq!(sa, emit);
        assert_eq!(a.dumps, b.dumps, "dumps must be byte-stable");
        let machine = &a.dumps[0].1;
        assert!(machine.starts_with("cells "));
        assert!(machine.contains("provenance:"));
        assert!(machine.contains("fig3.val:"));
    }

    #[test]
    fn pass_stats_cover_the_pipeline() {
        let out = run(&[], "<source>");
        let names: Vec<_> = out.pass_stats.iter().map(|s| s.name).collect();
        // Generator synthesis is off by default.
        assert_eq!(
            names,
            vec![
                "flatten",
                "typecheck",
                "analyze",
                "lower",
                "fuse",
                "loop-balance",
                "validate",
                "global-balance"
            ]
        );
        let lower = &out.pass_stats[3];
        assert!(lower.node_growth() > 0, "lowering creates cells");
        let rendered = render_pass_stats(&out.pass_stats);
        assert!(rendered.contains("global-balance"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn stage_list_parsing() {
        assert_eq!(
            Stage::parse_list("ir,machine").unwrap(),
            vec![Stage::Ir, Stage::Machine]
        );
        assert_eq!(Stage::parse_list("all").unwrap().len(), 5);
        assert!(Stage::parse_list("bogus").is_err());
    }
}
