//! BAL — §8 conclusions (1)–(3): balancing algorithms.
//!
//! Claims reproduced:
//! 1. acyclic flow-dependency graphs admit polynomial-time balancing
//!    (measured: near-linear wall time for ASAP/heuristic on growing
//!    random DAGs);
//! 2. a polynomial buffer-reduction algorithm "effectively reduces the
//!    buffering in many cases" (heuristic vs ASAP buffer counts);
//! 3. optimum balancing = the LP dual of min-cost flow (on every
//!    instance the optimal potentials pass the certificate against the
//!    solver's flow: conservation, primal feasibility, complementary
//!    slackness, least-ness — and the optimum is never beaten).

use crate::workloads::random_dag;
use crate::{FaultArgs, Report};
use std::time::Instant;
use valpipe_balance::{problem, solve};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "BAL: balancing algorithms on random flow-dependency DAGs",
        Some(
            "§8 conclusions (1) polynomial balancing,\n            \
             (2) buffer reduction, (3) optimal = min-cost-flow dual",
        ),
    );
    // Flags are accepted for interface uniformity with the other
    // experiments, but this one never simulates the machine.
    if args.active() {
        println!("(this reporter is purely analytic: fault flags have no effect)");
    }
    println!(
        "{:<16} {:>6} {:>6} | {:>8} {:>8} {:>8} | {:>9} {:>9} {:>9}",
        "graph", "cells", "arcs", "asap", "heur", "opt", "t_asap", "t_heur", "t_opt"
    );

    let mut heur_saves = 0usize;
    let mut opt_saves_over_heur = 0usize;
    let mut certified = 0usize;
    let mut cases = 0usize;
    let mut sizes_times: Vec<(usize, f64)> = Vec::new();
    for (width, layers) in [(4usize, 6usize), (8, 12), (12, 25), (16, 50), (24, 80)] {
        for seed in 0..3u64 {
            let g = random_dag(width, layers, 42 + seed);
            let p = problem::extract(&g).expect("random DAG extracts");
            let t0 = Instant::now();
            let asap = solve::solve_asap(&p).expect("random DAG solves");
            let t_asap = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let heur = solve::solve_heuristic(&p, 64).expect("random DAG solves");
            let t_heur = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let opt = solve::solve_optimal(&p);
            let t_opt = t0.elapsed().as_secs_f64();
            cases += 1;
            let opt = match opt {
                Ok(opt) => opt,
                Err(e) => {
                    println!("{width}x{layers} #{seed}: {e}");
                    continue;
                }
            };
            assert!(asap.is_feasible(&p) && heur.is_feasible(&p));
            assert!(heur.total_buffers <= asap.total_buffers);
            let flow = solve::optimal_flow(&p).expect("random DAG solves");
            match solve::certify(&p, &opt, &flow) {
                Ok(()) if opt.total_buffers <= heur.total_buffers => certified += 1,
                Ok(()) => println!("  optimum beaten by the heuristic"),
                Err(why) => println!("  certificate failed: {why}"),
            }
            println!(
                "{:<16} {:>6} {:>6} | {:>8} {:>8} {:>8} | {:>8.2}ms {:>8.2}ms {:>8.2}ms",
                format!("{width}x{layers} #{seed}"),
                g.node_count(),
                g.arc_count(),
                asap.total_buffers,
                heur.total_buffers,
                opt.total_buffers,
                t_asap * 1e3,
                t_heur * 1e3,
                t_opt * 1e3
            );
            if heur.total_buffers < asap.total_buffers {
                heur_saves += 1;
            }
            if opt.total_buffers < heur.total_buffers {
                opt_saves_over_heur += 1;
            }
            sizes_times.push((g.node_count(), t_opt));
        }
    }
    println!();
    println!("heuristic reduced buffers in {heur_saves}/{cases} cases");
    println!("optimum beat the heuristic in {opt_saves_over_heur}/{cases} cases");

    // Crude polynomial check: time ratio vs size ratio between the largest
    // and smallest instances.
    let (n0, t0) = sizes_times[0];
    let (n1, t1) = *sizes_times.last().unwrap();
    let growth = (t1.max(1e-6) / t0.max(1e-6)).log2() / ((n1 as f64 / n0 as f64).log2());
    println!("empirical time-growth exponent of the optimal solver: {growth:.2}");
    rep.claim("balancing runs in polynomial time (§8.1)", growth < 4.0);
    rep.claim(
        "buffer reduction is effective in many cases (§8.2)",
        heur_saves * 2 >= cases,
    );
    println!("optimality certificate held on {certified}/{cases} instances");
    rep.claim(
        "optimum = LP dual of min-cost flow (§8.3; certified by the dual on every instance)",
        certified == cases,
    );
    rep
}
