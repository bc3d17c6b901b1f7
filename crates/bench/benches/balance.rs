//! Bench: balancing-solver scaling (§8's polynomial-time claim) — ASAP,
//! heuristic, and the min-cost-flow-dual optimum on growing random DAGs.

use valpipe_balance::{problem, solve};
use valpipe_bench::timing::{bench, iters};
use valpipe_ir::value::BinOp;
use valpipe_ir::{Graph, Opcode};
use valpipe_util::Rng;

fn random_dag(width: usize, layers: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed(seed);
    let mut g = Graph::new();
    let mut pool: Vec<valpipe_ir::NodeId> = (0..width)
        .map(|k| g.add_node(Opcode::Source(format!("s{k}")), format!("s{k}")))
        .collect();
    for li in 0..layers {
        let mut next = Vec::new();
        for ni in 0..width {
            let a = pool[rng.below(pool.len())];
            let b = pool[rng.below(pool.len())];
            let node = if a == b || rng.chance(0.3) {
                g.cell(Opcode::Id, format!("n{li}_{ni}"), &[a.into()])
            } else {
                g.cell(
                    Opcode::Bin(BinOp::Add),
                    format!("n{li}_{ni}"),
                    &[a.into(), b.into()],
                )
            };
            next.push(node);
        }
        pool.extend(next);
    }
    for id in g.node_ids().collect::<Vec<_>>() {
        if g.nodes[id.idx()].op.produces_output() && g.nodes[id.idx()].outputs.is_empty() {
            let name = format!("out{}", id.idx());
            let s = g.add_node(Opcode::Sink(name.clone()), name);
            g.connect(id, s, 0);
        }
    }
    g
}

fn main() {
    for (width, layers) in [(4usize, 8usize), (8, 12), (12, 24)] {
        let g = random_dag(width, layers, 7);
        let p = problem::extract(&g).unwrap();
        let n = g.node_count();
        bench(&format!("balance/asap/{n}"), iters(10), || {
            solve::solve_asap(&p).unwrap()
        });
        bench(&format!("balance/heuristic/{n}"), iters(10), || {
            solve::solve_heuristic(&p, 64).unwrap()
        });
        bench(&format!("balance/optimal_mcmf/{n}"), iters(10), || {
            solve::solve_optimal(&p).unwrap()
        });
    }
    // Larger instances for the polynomial-scaling picture.
    for (width, layers) in [(16usize, 50usize), (24, 80)] {
        let g = random_dag(width, layers, 7);
        let p = problem::extract(&g).unwrap();
        let n = g.node_count();
        bench(&format!("balance/asap_large/{n}"), iters(10), || {
            solve::solve_asap(&p).unwrap()
        });
        bench(&format!("balance/heuristic_large/{n}"), iters(10), || {
            solve::solve_heuristic(&p, 64).unwrap()
        });
        bench(
            &format!("balance/optimal_mcmf_large/{n}"),
            iters(10),
            || solve::solve_optimal(&p).unwrap(),
        );
    }
}
