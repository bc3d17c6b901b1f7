//! Extraction of a balancing problem from a machine-level program.
//!
//! Fully pipelined operation requires every path through the instruction
//! graph to carry equal delay (paper §3). We formalize this as a system of
//! difference constraints: assign each cell a *potential* `π` (its firing
//! phase within a wave, in instruction times) such that for every forward
//! arc `u → v` with weight `w`,
//!
//! ```text
//! π(v) = π(u) + w + d(e),        d(e) ≥ 0
//! ```
//!
//! where `d(e)` is the FIFO depth inserted on the arc. The weight is the
//! producing cell's latency (1) plus the arc's *stream-phase* lead (an
//! array tap whose selection window starts `s` positions into the wave is
//! `2·s` instruction times early, because consecutive elements of a fully
//! pipelined stream are 2 instruction times apart — the paper's Fig. 4
//! skew).
//!
//! Arcs carrying initial tokens are loop back-edges and are excluded.
//! Forward arcs *inside* a feedback loop (detected as arcs whose endpoints
//! share a strongly connected component of the full graph) are **frozen**:
//! buffering them would stretch the cycle and destroy the loop's rate, so
//! they become equality constraints. Frozen regions are contracted into
//! supernodes with fixed internal offsets before solving.

use valpipe_ir::graph::Graph;
use valpipe_ir::ArcId;

/// One constraint arc of the balancing problem (already contracted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BArc {
    /// Source supernode.
    pub u: usize,
    /// Target supernode.
    pub v: usize,
    /// Weight `w` (may be negative after contraction).
    pub w: i64,
    /// Buffer cost per slack unit: 1 for real arcs (a FIFO stage is an
    /// identity cell), 0 for virtual anchor arcs (a source starting late
    /// is free — backpressure absorbs it without buffers).
    pub cost: u32,
    /// The original graph arc this constraint came from (`None` for
    /// virtual anchor arcs — no FIFO can be inserted there).
    pub arc: Option<ArcId>,
}

/// A contracted balancing problem.
#[derive(Debug, Clone)]
pub struct BalanceProblem {
    /// Number of supernodes.
    pub n: usize,
    /// Constraint arcs (bufferable).
    pub arcs: Vec<BArc>,
    /// Supernode of each original cell.
    pub comp_of: Vec<usize>,
    /// Fixed offset of each original cell within its supernode.
    pub rel: Vec<i64>,
}

/// Why a problem could not be extracted or solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// The forward graph (initial-token arcs removed) has a cycle, i.e. an
    /// unseeded feedback loop.
    ForwardCycle,
    /// A feedback loop's interior is itself unbalanced: two frozen paths
    /// between the same cells disagree on delay, so no FIFO placement
    /// outside the loop can fix it.
    InconsistentLoop {
        /// A cell where the disagreement was detected.
        node: usize,
    },
    /// A constraint arc names a supernode `≥ n` (a malformed hand-built
    /// problem; `extract` never produces one).
    ArcOutOfRange {
        /// Index of the arc in `BalanceProblem::arcs`.
        arc: usize,
    },
    /// The contracted constraint graph has a cycle (a malformed hand-built
    /// problem; `extract` contracts every loop interior).
    ContractedCycle,
    /// The optimal solver's result failed its optimality certificate — a
    /// solver bug, reported with the first violated condition.
    NotOptimal(String),
    /// A potential assignment does not give one potential per supernode.
    PotentialCount {
        /// Supernodes in the problem.
        expected: usize,
        /// Potentials given.
        got: usize,
    },
    /// A potential assignment leaves a constraint arc with a slack (its
    /// FIFO depth) that is negative — the potentials are infeasible — or
    /// does not fit a `u32`.
    SlackOutOfRange {
        /// Index of the arc in `BalanceProblem::arcs`.
        arc: usize,
        /// `π_v − π_u − w` on that arc.
        slack: i128,
    },
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::ForwardCycle => write!(f, "unseeded feedback cycle"),
            ProblemError::InconsistentLoop { node } => {
                write!(f, "feedback loop interior is unbalanced at cell {node}")
            }
            ProblemError::ArcOutOfRange { arc } => {
                write!(f, "constraint arc {arc} names a supernode out of range")
            }
            ProblemError::ContractedCycle => write!(f, "contracted constraint graph has a cycle"),
            ProblemError::NotOptimal(why) => write!(f, "optimality certificate failed: {why}"),
            ProblemError::PotentialCount { expected, got } => {
                write!(f, "{got} potentials for {expected} supernodes")
            }
            ProblemError::SlackOutOfRange { arc, slack } => {
                write!(
                    f,
                    "constraint arc {arc} has slack {slack}, outside 0..=u32::MAX"
                )
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// Tarjan strongly-connected components over the *full* graph (including
/// initial-token arcs). Returns the component index per node.
pub fn sccs(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    // Iterative Tarjan to avoid recursion limits on long pipelines.
    enum Frame {
        Enter(usize),
        Resume(usize, usize), // (node, next successor position)
    }
    let succs: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            g.nodes[i]
                .outputs
                .iter()
                .map(|a| g.arcs[a.idx()].dst.idx())
                .collect()
        })
        .collect();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames = vec![Frame::Enter(start)];
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut k) => {
                    let mut descended = false;
                    while k < succs[v].len() {
                        let wnode = succs[v][k];
                        k += 1;
                        if index[wnode] == usize::MAX {
                            frames.push(Frame::Resume(v, k));
                            frames.push(Frame::Enter(wnode));
                            descended = true;
                            break;
                        } else if on_stack[wnode] {
                            low[v] = low[v].min(index[wnode]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w] = false;
                            comp[w] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                    // Propagate lowlink to parent (next Resume on the stack).
                    if let Some(Frame::Resume(parent, _)) = frames.last() {
                        let p = *parent;
                        low[p] = low[p].min(low[v]);
                    }
                }
            }
        }
    }
    comp
}

/// The balancing weight of a forward arc: producer latency 1 plus the
/// stream-phase lead recorded by the compiler.
pub fn arc_weight(g: &Graph, a: ArcId) -> i64 {
    1 + g.arcs[a.idx()].phase as i64
}

/// Extract and contract the balancing problem for `g`, anchoring every
/// `Source` cell at start time 0 (see [`extract_anchored`]).
pub fn extract(g: &Graph) -> Result<BalanceProblem, ProblemError> {
    let anchors: Vec<(valpipe_ir::NodeId, i64)> = g
        .node_ids()
        .filter(|n| matches!(g.nodes[n.idx()].op, valpipe_ir::Opcode::Source(_)))
        .map(|n| (n, 0))
        .collect();
    extract_anchored(g, &anchors)
}

/// Extract and contract the balancing problem for `g`.
///
/// `anchors` pins the earliest possible firing phase of generator cells
/// relative to a common origin: a pair `(node, a)` adds the zero-cost
/// constraint `π(node) ≥ π(origin) + a`. The compiler anchors each input
/// `Source` of an array over `[lo, hi]` at `a = −2·lo`, expressing that
/// the machine starts feeding every input at absolute time 0, so the
/// element for index `i` cannot arrive before `2·(i − lo)`. Sliding a
/// source *later* costs nothing (the first-token stall is a transient the
/// pipeline absorbs), which is why anchor arcs carry cost 0.
pub fn extract_anchored(
    g: &Graph,
    anchors: &[(valpipe_ir::NodeId, i64)],
) -> Result<BalanceProblem, ProblemError> {
    if g.forward_topo_order().is_none() {
        return Err(ProblemError::ForwardCycle);
    }
    let scc = sccs(g);
    let n = g.node_count();

    // Union nodes connected by frozen arcs (forward arcs inside an SCC).
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let mut frozen = vec![false; g.arc_count()];
    for (ai, e) in g.arcs.iter().enumerate() {
        if e.is_forward() && scc[e.src.idx()] == scc[e.dst.idx()] {
            frozen[ai] = true;
            let (ru, rv) = (
                find(&mut parent, e.src.idx()),
                find(&mut parent, e.dst.idx()),
            );
            if ru != rv {
                parent[ru] = rv;
            }
        }
    }

    // Number the supernodes and compute intra-component offsets by
    // propagating equalities along frozen arcs.
    let mut comp_of = vec![usize::MAX; n];
    let mut next = 0usize;
    for i in 0..n {
        let r = find(&mut parent, i);
        if comp_of[r] == usize::MAX {
            comp_of[r] = next;
            next += 1;
        }
        comp_of[i] = comp_of[r];
    }
    let mut rel = vec![i64::MIN; n];
    // BFS within each frozen component along frozen arcs (both directions).
    let mut adj: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    for (ai, e) in g.arcs.iter().enumerate() {
        if frozen[ai] {
            let w = arc_weight(g, ArcId(ai as u32));
            adj[e.src.idx()].push((e.dst.idx(), w));
            adj[e.dst.idx()].push((e.src.idx(), -w));
        }
    }
    for start in 0..n {
        if rel[start] != i64::MIN {
            continue;
        }
        rel[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &(v, w) in &adj[u] {
                let want = rel[u] + w;
                if rel[v] == i64::MIN {
                    rel[v] = want;
                    queue.push_back(v);
                } else if rel[v] != want {
                    return Err(ProblemError::InconsistentLoop { node: v });
                }
            }
        }
    }

    let mut arcs: Vec<BArc> = g
        .arc_ids()
        .filter(|a| g.arcs[a.idx()].is_forward() && !frozen[a.idx()])
        .map(|a| {
            let e = &g.arcs[a.idx()];
            BArc {
                u: comp_of[e.src.idx()],
                v: comp_of[e.dst.idx()],
                w: arc_weight(g, a) + rel[e.src.idx()] - rel[e.dst.idx()],
                cost: 1,
                arc: Some(a),
            }
        })
        .collect();
    // Virtual origin node anchoring the generators.
    if !anchors.is_empty() {
        let origin = next;
        for &(node, a) in anchors {
            arcs.push(BArc {
                u: origin,
                v: comp_of[node.idx()],
                w: a - rel[node.idx()],
                cost: 0,
                arc: None,
            });
        }
        return Ok(BalanceProblem {
            n: next + 1,
            arcs,
            comp_of,
            rel,
        });
    }

    Ok(BalanceProblem {
        n: next,
        arcs,
        comp_of,
        rel,
    })
}

/// A potential assignment (per supernode) plus the implied FIFO depths.
#[derive(Debug, Clone)]
pub struct BalanceSolution {
    /// Potential per supernode.
    pub potential: Vec<i64>,
    /// FIFO depth per constraint arc (same order as `BalanceProblem::arcs`).
    pub depths: Vec<u32>,
    /// Total inserted buffer stages.
    pub total_buffers: u64,
}

impl BalanceSolution {
    /// Build a solution from potentials, computing depths. Fails if the
    /// count is not one per supernode, an arc names a supernode out of
    /// range, or an arc's slack is negative (infeasible potentials) or
    /// exceeds `u32`.
    pub fn from_potentials(
        problem: &BalanceProblem,
        potential: Vec<i64>,
    ) -> Result<Self, ProblemError> {
        if potential.len() != problem.n {
            return Err(ProblemError::PotentialCount {
                expected: problem.n,
                got: potential.len(),
            });
        }
        let depths: Vec<u32> = problem
            .arcs
            .iter()
            .enumerate()
            .map(|(arc, a)| {
                let (Some(&pv), Some(&pu)) = (potential.get(a.v), potential.get(a.u)) else {
                    return Err(ProblemError::ArcOutOfRange { arc });
                };
                // i128: hostile potentials must not overflow the subtraction.
                let slack = pv as i128 - pu as i128 - a.w as i128;
                u32::try_from(slack).map_err(|_| ProblemError::SlackOutOfRange { arc, slack })
            })
            .collect::<Result<_, _>>()?;
        let total_buffers = problem
            .arcs
            .iter()
            .zip(&depths)
            .map(|(a, &d)| a.cost as u64 * d as u64)
            .sum();
        Ok(BalanceSolution {
            potential,
            depths,
            total_buffers,
        })
    }

    /// Check feasibility of the solution against the problem.
    pub fn is_feasible(&self, problem: &BalanceProblem) -> bool {
        problem
            .arcs
            .iter()
            .zip(&self.depths)
            .all(|(a, &d)| self.potential[a.v] - self.potential[a.u] == a.w + d as i64)
    }
}

/// Insert the solution's FIFOs into the graph. Returns the number of
/// buffer *stages* added (equal to `solution.total_buffers`).
pub fn apply(g: &mut Graph, problem: &BalanceProblem, solution: &BalanceSolution) -> u64 {
    let mut added = 0u64;
    for (barc, &d) in problem.arcs.iter().zip(&solution.depths) {
        if d > 0 {
            if let Some(arc) = barc.arc {
                g.insert_fifo_on_arc(arc, d);
                added += d as u64;
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use valpipe_ir::opcode::Opcode;
    use valpipe_ir::value::{BinOp, Value};
    use valpipe_ir::Graph;

    fn diamond() -> Graph {
        // a → b → d ; a → d   (unbalanced diamond)
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let b = g.cell(Opcode::Id, "b", &[a.into()]);
        let d = g.cell(Opcode::Bin(BinOp::Add), "d", &[b.into(), a.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[d.into()]);
        g
    }

    #[test]
    fn extract_diamond() {
        let g = diamond();
        let p = extract(&g).unwrap();
        assert_eq!(p.n, 5); // 4 supernodes + the anchoring origin
        assert_eq!(p.arcs.len(), 5); // 4 real arcs + 1 source anchor
        assert_eq!(p.arcs.iter().filter(|a| a.cost == 1).count(), 4);
    }

    #[test]
    fn scc_finds_loop() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Id, "a");
        let b = g.cell(Opcode::Id, "b", &[a.into()]);
        let c = g.cell(Opcode::Id, "c", &[b.into()]);
        g.connect_init(c, a, 0, Value::Int(0));
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[c.into()]);
        let comp = sccs(&g);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn loop_interior_frozen_and_contracted() {
        // Loop a→b→c→(init)→a plus an external source feeding b? No — keep
        // the canonical shape: loop cells merge into one supernode.
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Bin(BinOp::Add), "a");
        let src = g.add_node(Opcode::Source("in".into()), "in");
        g.connect(src, a, 1);
        let b = g.cell(Opcode::Id, "b", &[a.into()]);
        g.connect_init(b, a, 0, Value::Int(0));
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[b.into()]);
        let p = extract(&g).unwrap();
        // a and b share a supernode; src and sink have their own.
        assert_eq!(p.comp_of[0], p.comp_of[2]);
        assert_ne!(p.comp_of[0], p.comp_of[1]);
        // b is one stage after a inside the loop.
        assert_eq!(p.rel[2] - p.rel[0], 1);
        // The frozen arc a→b is not a constraint arc.
        assert_eq!(p.arcs.iter().filter(|a| a.arc.is_some()).count(), 2); // src→a, b→sink
    }

    #[test]
    fn inconsistent_loop_detected() {
        // Loop with an internal diamond of unequal arm lengths: a→b→c→a
        // (init) and a→c directly. Both a→b→c and a→c are frozen, but they
        // disagree (2 vs 1).
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Id, "a");
        let b = g.cell(Opcode::Id, "b", &[a.into()]);
        let c = g.add_node(Opcode::Bin(BinOp::Add), "c");
        g.connect(b, c, 0);
        g.connect(a, c, 1);
        g.connect_init(c, a, 0, Value::Int(0));
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[c.into()]);
        assert!(matches!(
            extract(&g),
            Err(ProblemError::InconsistentLoop { .. })
        ));
    }

    #[test]
    fn phase_contributes_to_weight() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let b = g.add_node(Opcode::Id, "b");
        g.connect_phase(a, b, 0, 4);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[b.into()]);
        let p = extract(&g).unwrap();
        let arc = p.arcs.iter().find(|x| x.w == 5).expect("weight 1 + 4");
        assert_eq!(arc.w, 5);
    }

    #[test]
    fn apply_inserts_fifos() {
        let mut g = diamond();
        let p = extract(&g).unwrap();
        let sol = crate::solve::solve_asap(&p).unwrap();
        assert_eq!(sol.total_buffers, 1); // slack on the short diamond arm
        let before = g.node_count();
        apply(&mut g, &p, &sol);
        assert_eq!(g.node_count(), before + 1);
        assert!(g.nodes.iter().any(|n| matches!(n.op, Opcode::Fifo(1))));
    }

    #[test]
    fn hostile_potentials_are_typed_errors() {
        let p = extract(&diamond()).unwrap();
        let good = crate::solve::solve_asap(&p).unwrap().potential;
        let ok = BalanceSolution::from_potentials(&p, good.clone()).unwrap();
        assert!(ok.is_feasible(&p));

        // Wrong length, either way.
        for len in [0, p.n - 1, p.n + 1] {
            let err = BalanceSolution::from_potentials(&p, vec![0; len]).unwrap_err();
            assert_eq!(
                err,
                ProblemError::PotentialCount {
                    expected: p.n,
                    got: len
                }
            );
        }
        // Infeasible: everything at 0 gives every weighted arc negative slack.
        let err = BalanceSolution::from_potentials(&p, vec![0; p.n]).unwrap_err();
        assert!(
            matches!(err, ProblemError::SlackOutOfRange { slack, .. } if slack < 0),
            "{err:?}"
        );
        // Extremes: slack past u32, and potentials whose difference
        // overflows i64.
        let (u, v) = (p.arcs[0].u, p.arcs[0].v);
        let mut wide = good.clone();
        wide[v] = wide[u] + p.arcs[0].w + u32::MAX as i64 + 1;
        assert_eq!(
            BalanceSolution::from_potentials(&p, wide).unwrap_err(),
            ProblemError::SlackOutOfRange {
                arc: 0,
                slack: u32::MAX as i128 + 1
            }
        );
        let mut wild = good.clone();
        wild[v] = i64::MAX;
        wild[u] = i64::MIN;
        assert!(matches!(
            BalanceSolution::from_potentials(&p, wild).unwrap_err(),
            ProblemError::SlackOutOfRange { arc: 0, .. }
        ));
        // An arc naming a supernode out of range.
        let mut bad = p.clone();
        bad.arcs[1].v = p.n + 7;
        assert_eq!(
            BalanceSolution::from_potentials(&bad, good).unwrap_err(),
            ProblemError::ArcOutOfRange { arc: 1 }
        );
    }
}
