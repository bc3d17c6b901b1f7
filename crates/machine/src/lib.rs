//! # valpipe-machine — static data flow machine simulator
//!
//! Executable model of the machine described in §2–3 of Dennis & Gao
//! (ICPP 1983): instruction cells activated by data, result packets and
//! acknowledge packets, and — in the detailed model — processing elements,
//! function units, array memories and a packet-switched routing network
//! (the paper's Fig. 1).
//!
//! * [`sim`] is the cycle-level token/acknowledge simulator used for every
//!   throughput claim (rate 1/2 fully pipelined, 1/3 for an unbalanced
//!   3-cycle, …).
//! * [`code`] is the executable form every kernel fires from: per-cell
//!   opcode tags, operand ports and destination arcs, built once per
//!   graph.
//! * [`arch`] maps a program onto machine units and derives per-arc packet
//!   latencies and per-unit contention budgets for the detailed model.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arc;
pub mod arch;
pub mod closedloop;
pub mod code;
pub mod diag;
pub mod error;
pub mod fastforward;
pub mod fault;
pub mod network;
pub mod scheduler;
pub mod session;
pub mod sim;
pub mod snapshot;
pub mod trace;
pub mod watchdog;

pub use arch::{MachineConfig, Placement};
pub use closedloop::{run_closed_loop, ClosedLoopOptions, ClosedLoopResult};
pub use code::MachineCode;
pub use diag::{render_error, render_stall};
pub use error::MachineError;
pub use fastforward::FastForwardStats;
pub use fault::{CellFreeze, FaultPlan, LinkFault};
pub use network::{OmegaNetwork, Packet};
pub use scheduler::Kernel;
pub use session::{Driven, ExecMode, RunOutcome, RunSpec, Session, SessionBuilder, SimConfig};
pub use sim::{ArcDelays, ProgramInputs, ResourceModel, RunResult, Simulator, StopReason, Timing};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use trace::{chrome_trace, occupancy_chart};
pub use watchdog::{BlockedCell, HeldArc, ProgressTracker, StallKind, StallReport, WatchdogConfig};
