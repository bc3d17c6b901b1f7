//! Balancing solvers.
//!
//! Three algorithms matching the paper's §8 conclusions:
//!
//! 1. **ASAP** (`solve_asap`) — topological longest path, the classical
//!    Montz/Gao polynomial balancing. Always feasible, often wasteful.
//! 2. **Heuristic reduction** (`solve_heuristic`) — coordinate descent on
//!    the cell potentials, "effectively reducing the buffering in many
//!    cases" (§8 conclusion 2).
//! 3. **Optimal** (`solve_optimal`) — minimum total buffer stages. The
//!    problem is the linear-programming dual of a min-cost flow (§8
//!    conclusion 3, Theorem 4). [`optimal_flow`] solves the flow side by
//!    successive shortest paths: Dijkstra over reduced costs, starting
//!    from the ASAP schedule as the dual, one excess supernode at a time
//!    in reverse topological order. The potentials are then read back off
//!    the final residual network as the least non-negative feasible ones.
//!
//!    By complementary slackness, the duals that complement *any* optimal
//!    flow are exactly the optimal potentials, and their least
//!    non-negative element is unique. So the output — potentials, FIFO
//!    depths, compiled graphs — does not depend on which optimal flow the
//!    search happens to find. [`certify`] checks that claim on every
//!    solve: conservation, primal feasibility, complementary slackness and
//!    least-ness against the flow.
//!
//! Every solver rejects a malformed problem (an arc endpoint out of range,
//! a cycle in the contracted graph) with a [`ProblemError`], never a
//! panic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::problem::{BArc, BalanceProblem, BalanceSolution, ProblemError};
use crate::BalanceMode;

/// Solve `p` with the algorithm `mode` selects; `Ok(None)` for
/// [`BalanceMode::None`], which inserts no buffers.
pub fn solve(
    p: &BalanceProblem,
    mode: BalanceMode,
) -> Result<Option<BalanceSolution>, ProblemError> {
    Ok(Some(match mode {
        BalanceMode::Asap => solve_asap(p)?,
        BalanceMode::Heuristic => solve_heuristic(p, 64)?,
        BalanceMode::Optimal => solve_optimal(p)?,
        BalanceMode::None => return Ok(None),
    }))
}

/// Topological order of the contracted constraint graph. `extract` only
/// produces DAGs (frozen regions are whole SCC interiors); a hand-built
/// problem with a cycle or an out-of-range endpoint is an error.
fn topo_order(p: &BalanceProblem) -> Result<Vec<usize>, ProblemError> {
    if let Some(arc) = p.arcs.iter().position(|a| a.u >= p.n || a.v >= p.n) {
        return Err(ProblemError::ArcOutOfRange { arc });
    }
    let mut indeg = vec![0usize; p.n];
    for a in &p.arcs {
        indeg[a.v] += 1;
    }
    let out = Adjacency::new(p, |a| a.u);
    let mut stack: Vec<usize> = (0..p.n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(p.n);
    while let Some(u) = stack.pop() {
        order.push(u);
        for &k in out.of(u) {
            let v = p.arcs[k].v;
            indeg[v] -= 1;
            if indeg[v] == 0 {
                stack.push(v);
            }
        }
    }
    if order.len() != p.n {
        return Err(ProblemError::ContractedCycle);
    }
    Ok(order)
}

/// Arc indices grouped by one endpoint (compressed rows).
struct Adjacency {
    start: Vec<usize>,
    arcs: Vec<usize>,
}

impl Adjacency {
    /// Group `p`'s arcs by the endpoint `end` picks.
    fn new(p: &BalanceProblem, end: impl Fn(&BArc) -> usize) -> Adjacency {
        let mut start = vec![0usize; p.n + 1];
        for a in &p.arcs {
            start[end(a) + 1] += 1;
        }
        for x in 0..p.n {
            start[x + 1] += start[x];
        }
        let mut fill = start.clone();
        let mut arcs = vec![0usize; p.arcs.len()];
        for (k, a) in p.arcs.iter().enumerate() {
            arcs[fill[end(a)]] = k;
            fill[end(a)] += 1;
        }
        Adjacency { start, arcs }
    }

    /// The arcs whose endpoint is `x`.
    fn of(&self, x: usize) -> &[usize] {
        &self.arcs[self.start[x]..self.start[x + 1]]
    }
}

/// ASAP potentials along a topological `order`.
fn asap_potentials(p: &BalanceProblem, order: &[usize]) -> Vec<i64> {
    let in_arcs = Adjacency::new(p, |a| a.v);
    let mut pot = vec![0i64; p.n];
    for &v in order {
        let lb = in_arcs
            .of(v)
            .iter()
            .map(|&k| pot[p.arcs[k].u] + p.arcs[k].w)
            .max();
        if let Some(lb) = lb {
            pot[v] = lb;
        }
    }
    pot
}

/// ASAP balancing: every supernode fires as early as its latest input
/// allows.
pub fn solve_asap(p: &BalanceProblem) -> Result<BalanceSolution, ProblemError> {
    let order = topo_order(p)?;
    BalanceSolution::from_potentials(p, asap_potentials(p, &order))
}

/// ALAP balancing: every supernode fires as late as its earliest consumer
/// allows (the mirror of ASAP; useful as a second feasible baseline and
/// in slack analyses — slack(n) = π_alap(n) − π_asap(n)).
pub fn solve_alap(p: &BalanceProblem) -> Result<BalanceSolution, ProblemError> {
    let order = topo_order(p)?;
    let asap = asap_potentials(p, &order);
    let out_arcs = Adjacency::new(p, |a| a.u);
    // Anchor the latest possible completion at the ASAP horizon so the
    // two schedules are directly comparable.
    let horizon = asap.iter().copied().max().unwrap_or(0);
    let mut pot = vec![horizon; p.n];
    for &u in order.iter().rev() {
        let ub = out_arcs
            .of(u)
            .iter()
            .map(|&k| pot[p.arcs[k].v] - p.arcs[k].w)
            .min();
        if let Some(ub) = ub {
            pot[u] = ub;
        }
    }
    BalanceSolution::from_potentials(p, pot)
}

/// Coordinate-descent improvement over ASAP: slide each supernode within
/// its slack window in the direction that reduces total buffering, until a
/// fixpoint (or `max_passes`).
pub fn solve_heuristic(
    p: &BalanceProblem,
    max_passes: usize,
) -> Result<BalanceSolution, ProblemError> {
    let order = topo_order(p)?;
    let mut pot = asap_potentials(p, &order);
    let in_arcs = Adjacency::new(p, |a| a.v);
    let out_arcs = Adjacency::new(p, |a| a.u);
    for _ in 0..max_passes {
        let mut changed = false;
        // Sweep in reverse topological order (sliding consumers first
        // opens slack for producers), then forward.
        for &sweep_rev in &[true, false] {
            let iter: Box<dyn Iterator<Item = &usize>> = if sweep_rev {
                Box::new(order.iter().rev())
            } else {
                Box::new(order.iter())
            };
            for &n in iter {
                let lb = in_arcs
                    .of(n)
                    .iter()
                    .map(|&k| pot[p.arcs[k].u] + p.arcs[k].w)
                    .max();
                let ub = out_arcs
                    .of(n)
                    .iter()
                    .map(|&k| pot[p.arcs[k].v] - p.arcs[k].w)
                    .min();
                let indeg: i64 = in_arcs.of(n).iter().map(|&k| p.arcs[k].cost as i64).sum();
                let outdeg: i64 = out_arcs.of(n).iter().map(|&k| p.arcs[k].cost as i64).sum();
                // Moving π(n) up by 1 changes the cost by indeg − outdeg.
                let target = if outdeg > indeg {
                    ub
                } else if indeg > outdeg {
                    lb
                } else {
                    None
                };
                if let Some(t) = target {
                    if t != pot[n] {
                        // Clamp into the feasible window.
                        let lo = lb.unwrap_or(i64::MIN);
                        let hi = ub.unwrap_or(i64::MAX);
                        let t = t.clamp(lo, hi);
                        if t != pot[n] {
                            pot[n] = t;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    BalanceSolution::from_potentials(p, pot)
}

/// Optimal balancing via the min-cost-flow dual.
///
/// The LP `min Σ_e cost_e·(π_v − π_u − w_e)` subject to `π_v − π_u ≥ w_e`
/// has the dual `max Σ w_e f_e` subject to `f ≥ 0` and a net outflow of
/// `Σ cost_out − Σ cost_in` at every supernode. [`optimal_flow`] finds an
/// optimal `f`; the potentials are then the longest distances in its
/// residual network (forward arcs always, backward arcs where `f > 0`),
/// i.e. the least `π ≥ 0` feasible there. Complementary slackness makes
/// those potentials both feasible and optimal for the primal, and the same
/// for every optimal flow, so the result is unique. [`certify`] checks it
/// before it is returned.
pub fn solve_optimal(p: &BalanceProblem) -> Result<BalanceSolution, ProblemError> {
    let flow = optimal_flow(p)?;

    // Longest distances over the final residual network.
    let mut dist = vec![0i64; p.n];
    for _ in 0..=p.n {
        let mut changed = false;
        for (k, a) in p.arcs.iter().enumerate() {
            if dist[a.u] + a.w > dist[a.v] {
                dist[a.v] = dist[a.u] + a.w;
                changed = true;
            }
            if flow[k] > 0 && dist[a.v] - a.w > dist[a.u] {
                dist[a.u] = dist[a.v] - a.w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let sol = BalanceSolution::from_potentials(p, dist)?;
    certify(p, &sol, &flow).map_err(ProblemError::NotOptimal)?;
    Ok(sol)
}

/// An optimal flow for the dual of `p`'s balancing LP, by successive
/// shortest paths.
///
/// The flow starts at 0, so supernode `x` holds an excess of
/// `Σ cost_out − Σ cost_in` (negative: a deficit). Residual arcs are every
/// constraint arc forward (unbounded) and every arc carrying flow
/// backward. The dual `π` starts at the ASAP potentials, which are
/// feasible, so every reduced cost is non-negative: the slack
/// `π_v − π_u − w` forward, and 0 backward (flow only ever moves along
/// tight arcs). Excess supernodes are drained in reverse topological
/// order — draining downstream first keeps each augmenting path short.
/// Each augmentation runs Dijkstra from the excess supernode to the first
/// deficit it settles (or relaxes at the current minimum distance), lifts
/// the settled supernodes' potentials by `d(t) − d(v)`, which keeps every
/// reduced cost non-negative and makes the path tight, and pushes the
/// smallest of the excess, the deficit and the backward flows on the
/// path. Stamped `dist`/`seen`/`done` arrays make one search cost only
/// what it touches.
pub fn optimal_flow(p: &BalanceProblem) -> Result<Vec<i64>, ProblemError> {
    let order = topo_order(p)?;
    let mut pi = asap_potentials(p, &order);
    let mut excess = vec![0i64; p.n];
    for a in &p.arcs {
        excess[a.u] += a.cost as i64;
        excess[a.v] -= a.cost as i64;
    }
    let out_arcs = Adjacency::new(p, |a| a.u);
    let in_arcs = Adjacency::new(p, |a| a.v);
    let mut flow = vec![0i64; p.arcs.len()];

    let mut dist = vec![0i64; p.n];
    let mut seen = vec![0u32; p.n];
    let mut done = vec![0u32; p.n];
    // pred[y] = (arc, forward?) of the residual arc that reached y.
    let mut pred = vec![(0usize, false); p.n];
    let mut settled = Vec::new();
    let mut heap = BinaryHeap::new();
    let mut stamp = 0u32;
    for &s in order.iter().rev() {
        while excess[s] > 0 {
            stamp += 1;
            heap.clear();
            settled.clear();
            dist[s] = 0;
            seen[s] = stamp;
            heap.push(Reverse((0i64, s)));
            let t = 'search: loop {
                let Some(Reverse((d, x))) = heap.pop() else {
                    return Err(ProblemError::NotOptimal(format!(
                        "the excess at supernode {s} reaches no deficit"
                    )));
                };
                if done[x] == stamp {
                    continue;
                }
                done[x] = stamp;
                settled.push(x);
                if excess[x] < 0 {
                    break x;
                }
                let forward = out_arcs.of(x).iter().map(|&k| (k, true));
                let backward = in_arcs
                    .of(x)
                    .iter()
                    .filter(|&&k| flow[k] > 0)
                    .map(|&k| (k, false));
                for (k, fwd) in forward.chain(backward) {
                    let a = &p.arcs[k];
                    let (y, reduced) = if fwd {
                        (a.v, pi[a.v] - pi[x] - a.w)
                    } else {
                        (a.u, pi[a.u] + a.w - pi[x])
                    };
                    let dy = d + reduced;
                    if done[y] == stamp || (seen[y] == stamp && dist[y] <= dy) {
                        continue;
                    }
                    dist[y] = dy;
                    seen[y] = stamp;
                    pred[y] = (k, fwd);
                    if dy == d && excess[y] < 0 {
                        // Nothing unsettled is nearer: y is settled too.
                        done[y] = stamp;
                        settled.push(y);
                        break 'search y;
                    }
                    heap.push(Reverse((dy, y)));
                }
            };

            let dt = dist[t];
            for &x in &settled {
                pi[x] += dt - dist[x];
            }
            let mut delta = excess[s].min(-excess[t]);
            let mut y = t;
            while y != s {
                let (k, fwd) = pred[y];
                if fwd {
                    y = p.arcs[k].u;
                } else {
                    delta = delta.min(flow[k]);
                    y = p.arcs[k].v;
                }
            }
            let mut y = t;
            while y != s {
                let (k, fwd) = pred[y];
                if fwd {
                    flow[k] += delta;
                    y = p.arcs[k].u;
                } else {
                    flow[k] -= delta;
                    y = p.arcs[k].v;
                }
            }
            excess[s] -= delta;
            excess[t] += delta;
        }
    }
    Ok(flow)
}

/// The optimality certificate of [`solve_optimal`]: checks that `sol` is
/// its unique output for `p`, with `flow` as the witness. Verifies
///
/// * the flow: `f ≥ 0`, and every supernode's net outflow equals
///   `Σ cost_out − Σ cost_in`;
/// * primal feasibility: every slack `π_v − π_u − w` is ≥ 0 and equals the
///   arc's FIFO depth, and `total_buffers` is their cost-weighted sum;
/// * complementary slackness: `f > 0` implies slack 0 — with the two
///   above, `π` and `f` are both optimal;
/// * least-ness: `π ≥ 0`, and every supernode is reachable from one with
///   `π = 0` along tight residual arcs (forward with slack 0, backward
///   with `f > 0`). Any optimal dual `π'` ≥ 0 satisfies every residual
///   constraint, so `π' ≥ π` along those paths: `π` is the pointwise-least
///   optimum, which is unique.
///
/// Returns the first violated condition.
pub fn certify(p: &BalanceProblem, sol: &BalanceSolution, flow: &[i64]) -> Result<(), String> {
    let m = p.arcs.len();
    let pot = &sol.potential;
    if pot.len() != p.n || sol.depths.len() != m || flow.len() != m {
        return Err(format!(
            "shape mismatch: {} potentials, {} depths, {} flows for {} supernodes and {m} arcs",
            pot.len(),
            sol.depths.len(),
            flow.len(),
            p.n
        ));
    }
    let mut imbalance = vec![0i64; p.n];
    let mut total = 0u64;
    let mut tight = vec![false; m];
    for (k, a) in p.arcs.iter().enumerate() {
        if a.u >= p.n || a.v >= p.n {
            return Err(format!("arc {k}: endpoint out of range"));
        }
        if flow[k] < 0 {
            return Err(format!("arc {k}: negative flow {}", flow[k]));
        }
        let surplus = flow[k] - a.cost as i64;
        imbalance[a.u] += surplus;
        imbalance[a.v] -= surplus;
        let slack = pot[a.v] - pot[a.u] - a.w;
        if slack < 0 {
            return Err(format!("arc {k}: infeasible, slack {slack}"));
        }
        if slack != sol.depths[k] as i64 {
            return Err(format!(
                "arc {k}: depth {} but slack {slack}",
                sol.depths[k]
            ));
        }
        if flow[k] > 0 && slack > 0 {
            return Err(format!(
                "arc {k}: complementary slackness fails, flow {} on slack {slack}",
                flow[k]
            ));
        }
        tight[k] = slack == 0;
        total += a.cost as u64 * slack as u64;
    }
    if let Some(x) = imbalance.iter().position(|&e| e != 0) {
        return Err(format!(
            "supernode {x}: flow not conserved (off by {})",
            imbalance[x]
        ));
    }
    if total != sol.total_buffers {
        return Err(format!(
            "total_buffers {} but the depths sum to {total}",
            sol.total_buffers
        ));
    }
    if let Some(x) = pot.iter().position(|&v| v < 0) {
        return Err(format!("supernode {x}: negative potential {}", pot[x]));
    }
    let out_arcs = Adjacency::new(p, |a| a.u);
    let in_arcs = Adjacency::new(p, |a| a.v);
    let mut reached: Vec<bool> = pot.iter().map(|&v| v == 0).collect();
    let mut stack: Vec<usize> = (0..p.n).filter(|&x| reached[x]).collect();
    while let Some(x) = stack.pop() {
        let forward = out_arcs
            .of(x)
            .iter()
            .filter(|&&k| tight[k])
            .map(|&k| p.arcs[k].v);
        let backward = in_arcs
            .of(x)
            .iter()
            .filter(|&&k| flow[k] > 0)
            .map(|&k| p.arcs[k].u);
        for y in forward.chain(backward) {
            if !reached[y] {
                reached[y] = true;
                stack.push(y);
            }
        }
    }
    if let Some(x) = reached.iter().position(|&r| !r) {
        return Err(format!(
            "supernode {x}: potential {} is not the least optimum (no tight residual path from a zero)",
            pot[x]
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{extract, BArc, BalanceProblem};
    use valpipe_ir::opcode::Opcode;
    use valpipe_ir::value::BinOp;
    use valpipe_ir::Graph;

    /// Hand-built problem: the classic "join of three chains" where ASAP
    /// over-buffers but shifting a shared producer is cheaper.
    fn chains_problem() -> BalanceProblem {
        // s → a (w1); s → b1 → b2 → b3 (w1 each); a → t; b3 → t.
        // ASAP pins s=0: a=1, b3=3, t=4 ⇒ slack 2 on a→t.
        // Optimal slides a to 3 (slack 2 moved onto s→a? no: s has two
        // consumers, so the slack must be buffered somewhere — total is 2
        // either way here; see the fan test below for a real gap).
        let mut g = Graph::new();
        let s = g.add_node(Opcode::Source("s".into()), "s");
        let a = g.cell(Opcode::Id, "a", &[s.into()]);
        let b1 = g.cell(Opcode::Id, "b1", &[s.into()]);
        let b2 = g.cell(Opcode::Id, "b2", &[b1.into()]);
        let b3 = g.cell(Opcode::Id, "b3", &[b2.into()]);
        let t = g.cell(Opcode::Bin(BinOp::Add), "t", &[a.into(), b3.into()]);
        let _ = g.cell(Opcode::Sink("o".into()), "o", &[t.into()]);
        extract(&g).unwrap()
    }

    /// A graph where the optimum genuinely beats ASAP: one producer fans
    /// out to K parallel deep consumers plus one shallow consumer. ASAP
    /// buffers every deep branch; the optimum delays the producer's
    /// shallow branch only.
    fn fan_graph(k: usize, depth: usize) -> Graph {
        let mut g = Graph::new();
        let s = g.add_node(Opcode::Source("s".into()), "s");
        let shallow = g.cell(Opcode::Id, "sh", &[s.into()]);
        let mut join_inputs = vec![shallow];
        let deep_src = g.add_node(Opcode::Source("d".into()), "d");
        for kk in 0..k {
            let mut prev = deep_src;
            for dd in 0..depth {
                prev = g.cell(Opcode::Id, format!("c{kk}_{dd}"), &[prev.into()]);
            }
            join_inputs.push(prev);
        }
        // Pairwise joins (ADD) down to one output.
        let mut cur = join_inputs[0];
        for (j, &other) in join_inputs[1..].iter().enumerate() {
            cur = g.cell(
                Opcode::Bin(BinOp::Add),
                format!("j{j}"),
                &[cur.into(), other.into()],
            );
        }
        let _ = g.cell(Opcode::Sink("o".into()), "o", &[cur.into()]);
        g
    }

    #[test]
    fn asap_feasible_on_chains() {
        let p = chains_problem();
        let sol = solve_asap(&p).unwrap();
        assert!(sol.is_feasible(&p));
        assert_eq!(sol.total_buffers, 2);
    }

    #[test]
    fn optimal_feasible_and_no_worse() {
        let p = chains_problem();
        let asap = solve_asap(&p).unwrap();
        let opt = solve_optimal(&p).unwrap();
        assert!(opt.is_feasible(&p));
        assert!(opt.total_buffers <= asap.total_buffers);
    }

    #[test]
    fn optimal_beats_asap_on_fan() {
        let g = fan_graph(3, 4);
        let p = extract(&g).unwrap();
        let asap = solve_asap(&p).unwrap();
        let opt = solve_optimal(&p).unwrap();
        let heur = solve_heuristic(&p, 50).unwrap();
        assert!(opt.is_feasible(&p));
        assert!(heur.is_feasible(&p));
        assert!(
            opt.total_buffers < asap.total_buffers,
            "opt {} !< asap {}",
            opt.total_buffers,
            asap.total_buffers
        );
        assert!(heur.total_buffers <= asap.total_buffers);
        assert!(opt.total_buffers <= heur.total_buffers);
    }

    #[test]
    fn optimal_on_empty_and_single() {
        let p = BalanceProblem {
            n: 1,
            arcs: vec![],
            comp_of: vec![0],
            rel: vec![0],
        };
        let sol = solve_optimal(&p).unwrap();
        assert_eq!(sol.total_buffers, 0);
    }

    #[test]
    fn heuristic_is_fixpoint_stable() {
        let g = fan_graph(2, 3);
        let p = extract(&g).unwrap();
        let h1 = solve_heuristic(&p, 50).unwrap();
        // Re-running from the heuristic's result must not change it.
        let h2 = solve_heuristic(&p, 50).unwrap();
        assert_eq!(h1.total_buffers, h2.total_buffers);
    }

    fn arc(u: usize, v: usize, w: i64) -> BArc {
        BArc {
            u,
            v,
            w,
            cost: 1,
            arc: None,
        }
    }

    fn hand_built(n: usize, arcs: Vec<BArc>) -> BalanceProblem {
        BalanceProblem {
            n,
            arcs,
            comp_of: (0..n).collect(),
            rel: vec![0; n],
        }
    }

    #[test]
    fn cyclic_problem_is_an_error_in_every_mode() {
        let p = hand_built(3, vec![arc(0, 1, 1), arc(1, 2, 1), arc(2, 0, 1)]);
        for mode in [
            BalanceMode::Asap,
            BalanceMode::Heuristic,
            BalanceMode::Optimal,
        ] {
            assert_eq!(
                solve(&p, mode).unwrap_err(),
                ProblemError::ContractedCycle,
                "{mode:?}"
            );
        }
        assert_eq!(solve_alap(&p).unwrap_err(), ProblemError::ContractedCycle);
        assert_eq!(optimal_flow(&p).unwrap_err(), ProblemError::ContractedCycle);
        assert!(solve(&p, BalanceMode::None).unwrap().is_none());
    }

    #[test]
    fn out_of_range_arc_is_an_error_in_every_mode() {
        let p = hand_built(2, vec![arc(0, 1, 1), arc(1, 2, 1)]);
        for mode in [
            BalanceMode::Asap,
            BalanceMode::Heuristic,
            BalanceMode::Optimal,
        ] {
            assert_eq!(
                solve(&p, mode).unwrap_err(),
                ProblemError::ArcOutOfRange { arc: 1 },
                "{mode:?}"
            );
        }
    }

    #[test]
    fn certificate_accepts_the_optimum_and_rejects_near_misses() {
        let p = extract(&fan_graph(3, 4)).unwrap();
        let flow = optimal_flow(&p).unwrap();
        let opt = solve_optimal(&p).unwrap();
        certify(&p, &opt, &flow).unwrap();

        // ASAP is feasible but not optimal: slackness fails somewhere.
        let asap = solve_asap(&p).unwrap();
        assert!(certify(&p, &asap, &flow).is_err());

        // Shifting the optimum up by one keeps it optimal but not least.
        let shifted: Vec<i64> = opt.potential.iter().map(|&x| x + 1).collect();
        let shifted = BalanceSolution::from_potentials(&p, shifted).unwrap();
        assert_eq!(shifted.total_buffers, opt.total_buffers);
        let err = certify(&p, &shifted, &flow).unwrap_err();
        assert!(err.contains("not the least optimum"), "{err}");

        // A flow that breaks conservation is caught.
        let mut bad = flow.clone();
        bad[0] += 1;
        assert!(certify(&p, &opt, &bad).is_err());
    }
}
