//! Structured error taxonomy for the machine simulators.
//!
//! Every way a simulation can fail is a [`MachineError`] variant, so
//! callers (in particular `valpipe-core`'s oracle verifier) can report
//! *why* a compiled program diverged instead of aborting on a panic. The
//! taxonomy distinguishes:
//!
//! * **program faults** — the simulated program itself misbehaved
//!   ([`MachineError::Eval`], [`MachineError::NonBoolControl`]);
//! * **usage errors** — the caller handed the simulator something it
//!   cannot run ([`MachineError::MissingInput`],
//!   [`MachineError::UnexpandedFifo`], [`MachineError::InvalidConfig`],
//!   [`MachineError::DelayTableMismatch`]);
//! * **invariant violations** — the optional runtime checkers (see
//!   `SimConfig::check_invariants`) caught the simulator in an
//!   inconsistent state ([`MachineError::InvariantViolation`]).
//!
//! `panic!` remains only for true internal invariant violations on paths
//! where returning an error is impossible; every such message names the
//! cell and step.

use std::fmt;

/// Hard simulation fault.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// An instruction evaluated to a type error / division by zero.
    Eval {
        /// Faulting cell.
        node: usize,
        /// Cell label.
        label: String,
        /// Underlying error.
        message: String,
    },
    /// A control operand was not a boolean packet.
    NonBoolControl {
        /// Faulting cell.
        node: usize,
        /// Cell label.
        label: String,
    },
    /// A `Source` port has no bound input sequence.
    MissingInput(String),
    /// The program contains a symbolic FIFO (call `expand_fifos` first).
    UnexpandedFifo(usize),
    /// A simulator/machine configuration parameter is unusable (e.g. a
    /// zero packet latency, a resource model that does not cover the
    /// graph, a non-finite fault probability, or a closed-loop machine
    /// with a non-power-of-two PE count).
    InvalidConfig(String),
    /// A supplied [`crate::sim::ArcDelays`] table does not cover every arc.
    DelayTableMismatch {
        /// Arcs in the graph.
        expected: usize,
        /// Entries in the delay table.
        got: usize,
    },
    /// A runtime invariant checker (token conservation, arc capacity,
    /// acknowledge accounting, gate discard accounting) found the machine
    /// in an inconsistent state.
    InvariantViolation {
        /// Instruction time at which the violation was detected.
        step: u64,
        /// What was violated, naming the cell/arc involved.
        detail: String,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Eval {
                node,
                label,
                message,
            } => {
                write!(f, "cell {node} ({label}): {message}")
            }
            MachineError::NonBoolControl { node, label } => {
                write!(f, "cell {node} ({label}): non-boolean control packet")
            }
            MachineError::MissingInput(name) => write!(f, "no input bound for source '{name}'"),
            MachineError::UnexpandedFifo(node) => {
                write!(
                    f,
                    "cell {node}: symbolic FIFO not lowered (call expand_fifos)"
                )
            }
            MachineError::InvalidConfig(msg) => write!(f, "invalid machine configuration: {msg}"),
            MachineError::DelayTableMismatch { expected, got } => {
                write!(
                    f,
                    "arc delay table has {got} entries but the graph has {expected} arcs"
                )
            }
            MachineError::InvariantViolation { step, detail } => {
                write!(f, "machine invariant violated at step {step}: {detail}")
            }
        }
    }
}

impl std::error::Error for MachineError {}
