//! # valpipe-balance — pipeline balancing for data flow instruction graphs
//!
//! Fully pipelined operation requires every path through an instruction
//! graph to carry equal delay (Dennis & Gao, ICPP 1983, §3). This crate
//! extracts the balancing constraint system from a program
//! ([`problem::extract`]), solves it three ways — ASAP longest path, a
//! buffer-reducing heuristic, and the provably optimal min-cost-flow dual
//! ([`solve::solve_optimal`], §8 conclusions 1–3) — and inserts the
//! resulting FIFO buffers back into the graph ([`problem::apply`]).
//!
//! The compiler balances with the optimal solver ([`BalanceMode`]'s
//! default); ASAP is its ablation baseline. The heuristic
//! ([`solve::solve_heuristic`]) is not a compile mode: it is the solver
//! the §8 buffer-reduction experiments compare against the other two.
//!
//! The optimum is found by successive shortest paths on the flow side
//! ([`solve::optimal_flow`]); the cell potentials are then the least
//! non-negative duals feasible on the final residual network. Every
//! optimal flow admits exactly the same optimal duals, so that least
//! element is unique and the compiled graph does not depend on which
//! optimal flow was found. Each optimal solve is checked by
//! [`solve::certify`] before it is returned.
//!
//! Feedback loops (for-iter bodies) are detected as strongly connected
//! components, frozen (buffering a loop arc would stretch the cycle and
//! destroy its rate), and contracted into supernodes before solving.

#![warn(missing_docs)]

pub mod problem;
pub mod solve;

pub use problem::{apply, extract, BalanceProblem, BalanceSolution, ProblemError};
pub use solve::{certify, optimal_flow, solve_asap, solve_heuristic, solve_optimal};

/// Which balancing algorithm the compiler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalanceMode {
    /// Longest-path ASAP balancing (baseline).
    Asap,
    /// Optimal (minimum total buffer stages) via the min-cost-flow dual.
    #[default]
    Optimal,
    /// Insert no buffers (for ablation experiments).
    None,
}
