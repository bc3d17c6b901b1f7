//! Property tests for the balancing algorithms (paper §8): on random
//! layered DAGs, all three solvers produce feasible potentials, the
//! optimum never uses more buffers than the heuristic, which never uses
//! more than ASAP — and applying any of them yields a machine program that
//! actually runs at the maximum rate. Every optimal solve is checked by
//! its dual certificate, and on tiny hand-built problems against a
//! brute-force enumeration of integer potentials.

use valpipe::balance::problem::{BArc, BalanceProblem, BalanceSolution};
use valpipe::balance::{problem, solve};
use valpipe::ir::{Graph, Opcode, Value};
use valpipe::machine::{ProgramInputs, Simulator};
use valpipe_util::Rng;

/// A random layered DAG of arithmetic cells: layer 0 is `srcs` sources;
/// every later node reads 1–2 earlier nodes; terminal nodes each get a
/// sink. `picks` drives the random wiring.
fn build_dag(srcs: usize, layers: &[Vec<(usize, usize)>]) -> Graph {
    let mut g = Graph::new();
    let mut pool: Vec<valpipe::ir::NodeId> = (0..srcs)
        .map(|k| g.add_node(Opcode::Source(format!("s{k}")), format!("s{k}")))
        .collect();
    for (li, layer) in layers.iter().enumerate() {
        let mut next = Vec::new();
        for (ni, &(p1, p2)) in layer.iter().enumerate() {
            let a = pool[p1 % pool.len()];
            let b = pool[p2 % pool.len()];
            let node = if p1 % 3 == 0 || a == b {
                g.cell(Opcode::Id, format!("n{li}_{ni}"), &[a.into()])
            } else {
                g.cell(
                    Opcode::Bin(valpipe::ir::BinOp::Add),
                    format!("n{li}_{ni}"),
                    &[a.into(), b.into()],
                )
            };
            next.push(node);
        }
        // Keep earlier nodes reachable as inputs for later layers.
        pool.extend(next);
    }
    // Terminal nodes (no consumers) each drain into a sink.
    for id in g.node_ids().collect::<Vec<_>>() {
        if g.nodes[id.idx()].op.produces_output() && g.nodes[id.idx()].outputs.is_empty() {
            let name = format!("out{}", id.idx());
            let s = g.add_node(Opcode::Sink(name.clone()), name);
            g.connect(id, s, 0);
        }
    }
    g
}

fn random_layers(r: &mut Rng, max_layers: usize, max_width: usize) -> Vec<Vec<(usize, usize)>> {
    (0..r.range(1, max_layers))
        .map(|_| {
            (0..r.range(1, max_width))
                .map(|_| (r.below(64), r.below(64)))
                .collect()
        })
        .collect()
}

/// `solve_optimal`'s result, checked by the certificate against the
/// solver's flow.
fn certified_optimum(p: &BalanceProblem) -> BalanceSolution {
    let sol = solve::solve_optimal(p).unwrap();
    let flow = solve::optimal_flow(p).unwrap();
    if let Err(why) = solve::certify(p, &sol, &flow) {
        panic!("certificate failed: {why}\nproblem: {p:?}");
    }
    sol
}

/// A random DAG problem on `n` supernodes: up to five arcs running
/// forward in a random node order, with weights in [-2, 2] and costs in
/// {0, 1, 2}.
fn tiny_problem(r: &mut Rng, n: usize) -> BalanceProblem {
    let mut rank: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rank.swap(i, r.below(i + 1));
    }
    let arcs = if n < 2 {
        Vec::new()
    } else {
        (0..r.range(1, 6))
            .map(|_| {
                let lo = r.below(n - 1);
                BArc {
                    u: rank[lo],
                    v: rank[r.range(lo + 1, n)],
                    w: r.range_i64(-2, 3),
                    cost: r.below(3) as u32,
                    arc: None,
                }
            })
            .collect()
    };
    BalanceProblem {
        n,
        arcs,
        comp_of: (0..n).collect(),
        rel: vec![0; n],
    }
}

/// Brute-force oracle: the minimum total cost over every integer
/// potential vector in `[0, Σ|w|]ⁿ` (a box that holds the least optimum),
/// and the pointwise minimum of all vectors attaining it.
fn brute_force(p: &BalanceProblem) -> (u64, Vec<i64>) {
    let bound: i64 = p.arcs.iter().map(|a| a.w.abs()).sum();
    let mut pot = vec![0i64; p.n];
    let mut best: Option<(u64, Vec<i64>)> = None;
    loop {
        let feasible = p.arcs.iter().all(|a| pot[a.v] - pot[a.u] >= a.w);
        if feasible {
            let cost: u64 = p
                .arcs
                .iter()
                .map(|a| a.cost as u64 * (pot[a.v] - pot[a.u] - a.w) as u64)
                .sum();
            match &mut best {
                Some((c, least)) if cost == *c => {
                    for (l, &x) in least.iter_mut().zip(&pot) {
                        *l = (*l).min(x);
                    }
                }
                Some((c, _)) if cost > *c => {}
                _ => best = Some((cost, pot.clone())),
            }
        }
        // Odometer step over the box.
        let Some(i) = pot.iter().position(|&x| x < bound) else {
            break;
        };
        pot[i] += 1;
        for x in &mut pot[..i] {
            *x = 0;
        }
    }
    best.expect("a DAG problem is feasible")
}

#[test]
fn tiny_problems_match_the_brute_force_oracle() {
    for case in 0..150u64 {
        let mut r = Rng::seed(0x3003).fork(case);
        let n = r.range(1, 6);
        let p = tiny_problem(&mut r, n);
        let sol = certified_optimum(&p);
        let (cost, least) = brute_force(&p);
        assert_eq!(sol.total_buffers, cost, "minimum cost, problem {p:?}");
        assert_eq!(sol.potential, least, "least optimum, problem {p:?}");
    }
}

#[test]
fn solver_hierarchy_feasible_and_ordered() {
    for case in 0..40u64 {
        let mut r = Rng::seed(0x3001).fork(case);
        let srcs = r.range(1, 4);
        let layers = random_layers(&mut r, 5, 5);
        let g = build_dag(srcs, &layers);
        let p = problem::extract(&g).expect("acyclic");
        let asap = solve::solve_asap(&p).unwrap();
        let heur = solve::solve_heuristic(&p, 64).unwrap();
        let opt = certified_optimum(&p);
        assert!(asap.is_feasible(&p));
        assert!(heur.is_feasible(&p));
        assert!(opt.is_feasible(&p));
        assert!(
            heur.total_buffers <= asap.total_buffers,
            "heuristic {} > asap {}",
            heur.total_buffers,
            asap.total_buffers
        );
        assert!(
            opt.total_buffers <= heur.total_buffers,
            "optimal {} > heuristic {}",
            opt.total_buffers,
            heur.total_buffers
        );
    }
}

#[test]
fn optimally_balanced_dag_runs_at_maximum_rate() {
    for case in 0..40u64 {
        let mut r = Rng::seed(0x3002).fork(case);
        let srcs = r.range(1, 3);
        let layers = random_layers(&mut r, 4, 4);
        let mut g = build_dag(srcs, &layers);
        let p = problem::extract(&g).expect("acyclic");
        let sol = certified_optimum(&p);
        problem::apply(&mut g, &p, &sol);
        g.expand_fifos();

        let n = 120usize;
        let mut inputs = ProgramInputs::new();
        for (_, name) in g.sources() {
            inputs = inputs.bind(
                name.clone(),
                (0..n).map(|k| Value::Real(k as f64 * 0.01)).collect(),
            );
        }
        let run = Simulator::builder(&g).inputs(inputs).run().unwrap();
        assert!(run.sources_exhausted, "balanced DAG must drain");
        // Every sink sees the fully pipelined interval of 2.
        for (_, name) in g.sinks() {
            if let Some(iv) = run.timing(&name).interval() {
                assert!(
                    (iv - 2.0).abs() < 0.05,
                    "sink {name} interval {iv} after optimal balancing"
                );
            }
        }
    }
}
