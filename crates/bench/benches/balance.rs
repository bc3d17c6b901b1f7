//! Bench: balancing-solver scaling (§8's polynomial-time claim) — ASAP,
//! heuristic, and the min-cost-flow-dual optimum on growing random DAGs.

use valpipe_balance::{problem, solve};
use valpipe_bench::timing::{bench, iters};
use valpipe_bench::workloads::random_dag;

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
