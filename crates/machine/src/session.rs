//! The simulator's session API: one fluent entry point for every run.
//!
//! Historically the crate grew several overlapping ways to start a
//! simulation (a bare constructor with a hand-filled options struct,
//! convenience free functions, per-experiment wrappers in the bench
//! crate). This module replaces all of them with one surface:
//!
//! ```
//! use valpipe_machine::{ProgramInputs, SimConfig, Simulator};
//! # use valpipe_ir::graph::Graph;
//! # use valpipe_ir::opcode::Opcode;
//! # let mut g = Graph::new();
//! # let a = g.add_node(Opcode::Source("a".into()), "a");
//! # let id = g.cell(Opcode::Id, "id", &[a.into()]);
//! # let _ = g.cell(Opcode::Sink("out".into()), "out", &[id.into()]);
//! let result = Simulator::builder(&g)
//!     .inputs(ProgramInputs::new().bind_reals("a", &[1.0, 2.0, 3.0]))
//!     .config(SimConfig::new().max_steps(100_000))
//!     .run()
//!     .unwrap();
//! assert_eq!(result.reals("out"), vec![1.0, 2.0, 3.0]);
//! ```
//!
//! * [`SimConfig`] is the one configuration surface: every run-shaping
//!   knob (step limits, arc capacity, per-arc delays, contention, fault
//!   plan, watchdog, invariant checking, kernel selection, checkpoint
//!   cadence) with fluent setters. It is reusable across graphs — the
//!   verification harness and experiment reporters thread one through
//!   compile-run-compare pipelines.
//! * [`SessionBuilder`] binds a config ([`SessionBuilder::config`]) and
//!   inputs to a graph; [`SessionBuilder::build`] checks the config
//!   against the graph once and assembles the machine, and
//!   [`SessionBuilder::run`] is the one-call convenience (it also
//!   transparently expands FIFO pseudo-cells).
//! * [`Session`] is a prepared machine: [`Session::step`] for manual
//!   single-stepping (traces, closed-loop experiments) and
//!   [`Session::drive`], the one run loop, for everything else —
//!   completion or a pause boundary, exactly or with fast-forward, as
//!   described by a [`RunSpec`]. Periodic checkpoints leave the run only
//!   through [`Session::drive_with`]'s sink; the caller decides where
//!   they go (e.g. [`Snapshot::write_to`]).

use std::sync::Arc;

use valpipe_ir::graph::Graph;
use valpipe_ir::opcode::Opcode;

use crate::code::MachineCode;
use crate::error::MachineError;
use crate::fastforward::{FastForward, FastForwardStats};
use crate::fault::FaultPlan;
use crate::scheduler::Kernel;
use crate::sim::{ArcDelays, ProgramInputs, ResourceModel, RunPhase, RunResult, Simulator};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::watchdog::{StallKind, StallReport, WatchdogConfig};

/// Run-shaping configuration, built fluently.
///
/// Every setter consumes and returns the config, so options chain:
///
/// ```
/// use valpipe_machine::{Kernel, SimConfig};
/// let cfg = SimConfig::new()
///     .max_steps(50_000)
///     .arc_capacity(2)
///     .check_invariants(true)
///     .kernel(Kernel::Scan);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hard step limit (guards against livelock in buggy programs).
    pub(crate) max_steps: u64,
    /// Arc capacity (tokens simultaneously buffered per link).
    pub(crate) arc_capacity: usize,
    /// Per-arc latencies; `None` = uniform 1/1.
    pub(crate) delays: Option<ArcDelays>,
    /// Optional contention model.
    pub(crate) resources: Option<ResourceModel>,
    /// Record the firing time of every firing of every cell.
    pub(crate) record_fire_times: bool,
    /// Stop once every listed sink has received this many packets.
    pub(crate) stop_outputs: Option<Vec<(String, usize)>>,
    /// Optional fault-injection plan.
    pub(crate) fault_plan: Option<FaultPlan>,
    /// Optional watchdog (step budget + livelock detection).
    pub(crate) watchdog: Option<WatchdogConfig>,
    /// Verify conservation invariants after every step.
    pub(crate) check_invariants: bool,
    /// Step-loop implementation.
    pub(crate) kernel: Kernel,
    /// Hand a checkpoint to [`Session::drive_with`]'s sink every this
    /// many instruction times (0 = never).
    pub(crate) checkpoint_every: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_steps: 10_000_000,
            arc_capacity: 1,
            delays: None,
            resources: None,
            record_fire_times: false,
            stop_outputs: None,
            fault_plan: None,
            watchdog: None,
            check_invariants: false,
            kernel: Kernel::default(),
            checkpoint_every: 0,
        }
    }
}

impl SimConfig {
    /// The default configuration: 10M-step limit, capacity-1 arcs,
    /// uniform 1/1 delays, no contention, no faults, event-driven kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hard step limit (guards against livelock in buggy programs).
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }

    /// Arc capacity: tokens simultaneously buffered per link. The static
    /// architecture's base rule is 1; the detailed-machine experiments
    /// raise it to model buffered links.
    pub fn arc_capacity(mut self, capacity: usize) -> Self {
        self.arc_capacity = capacity;
        self
    }

    /// Per-arc result/acknowledge latencies (defaults to uniform 1/1).
    pub fn delays(mut self, delays: ArcDelays) -> Self {
        self.delays = Some(delays);
        self
    }

    /// Per-unit instruction-initiation budgets (contention modeling).
    pub fn resources(mut self, resources: ResourceModel) -> Self {
        self.resources = Some(resources);
        self
    }

    /// Record the firing time of every firing of every cell (costly;
    /// used by the utilization and network-replay experiments).
    pub fn record_fire_times(mut self, record: bool) -> Self {
        self.record_fire_times = record;
        self
    }

    /// Stop once every listed sink has received at least the paired
    /// number of packets — needed for programs whose outputs do not
    /// depend on any input (control generators regenerate forever).
    pub fn stop_outputs(mut self, outputs: Vec<(String, usize)>) -> Self {
        self.stop_outputs = Some(outputs);
        self
    }

    /// Install a fault-injection plan. An empty plan leaves the run
    /// bit-identical to the fault-free machine.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Bound the run with a watchdog: a step budget plus livelock
    /// detection producing a structured stall report.
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Verify token/acknowledge/gate conservation invariants after every
    /// step; violations surface as `MachineError::InvariantViolation`.
    pub fn check_invariants(mut self, check: bool) -> Self {
        self.check_invariants = check;
        self
    }

    /// Select the step-loop kernel (defaults to [`Kernel::EventDriven`];
    /// both produce bit-identical results).
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Hand a checkpoint to the sink of [`Session::drive_with`] every
    /// `every` instruction times (0 disables periodic checkpointing).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }
}

/// Fluent builder binding a [`SimConfig`] and inputs to a graph.
/// Constructed by [`Simulator::builder`]; options are set on the
/// [`SimConfig`] and bound with [`SessionBuilder::config`].
#[derive(Debug, Clone)]
pub struct SessionBuilder<'g> {
    g: &'g Graph,
    inputs: ProgramInputs,
    cfg: SimConfig,
}

impl<'g> SessionBuilder<'g> {
    pub(crate) fn new(g: &'g Graph) -> Self {
        SessionBuilder {
            g,
            inputs: ProgramInputs::new(),
            cfg: SimConfig::default(),
        }
    }

    /// Bind the packet sequences fed to the program's `Source` ports.
    pub fn inputs(mut self, inputs: ProgramInputs) -> Self {
        self.inputs = inputs;
        self
    }

    /// Bind the run-shaping configuration (the default config if never
    /// called).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Prepare a [`Session`] for manual stepping. The graph must already
    /// be FIFO-expanded, and the config must fit it (`sim::check_config`):
    /// an unusable one is a typed [`MachineError`], never a later panic.
    pub fn build(self) -> Result<Session<'g>, MachineError> {
        Ok(Session {
            sim: Simulator::with_config(self.g, &self.inputs, self.cfg)?,
        })
    }

    /// Run to completion: [`SessionBuilder::build`] then
    /// [`Session::drive`] with the default [`RunSpec`]. FIFO pseudo-cells
    /// are expanded on a private copy of the graph first, so callers can
    /// run a compiled program directly.
    pub fn run(self) -> Result<RunResult, MachineError> {
        let expanded;
        let g = if self.g.nodes.iter().any(|n| matches!(n.op, Opcode::Fifo(_))) {
            let mut g = self.g.clone();
            g.expand_fifos();
            expanded = g;
            &expanded
        } else {
            self.g
        };
        let session = SessionBuilder {
            g,
            inputs: self.inputs,
            cfg: self.cfg,
        }
        .build()?;
        Ok(session.drive(RunSpec::new())?.result())
    }
}

/// A prepared simulation: the single run/step surface over both kernels.
///
/// Obtained from [`SessionBuilder::build`]. Step manually for traces and
/// closed-loop experiments, or [`Session::drive`] to completion.
pub struct Session<'g> {
    sim: Simulator<'g>,
}

/// Outcome of a driven run: the run either reached one of its stopping
/// conditions (quiescence, step limit, output target, watchdog stall)
/// and produced its [`RunResult`], or it hit the caller's pause boundary
/// first and hands the live session back for later resumption.
pub enum RunOutcome<'g> {
    /// The run stopped for one of the machine's own reasons. Boxed,
    /// like [`RunOutcome::Paused`], to keep the enum small.
    Done(Box<RunResult>),
    /// The pause boundary arrived first; the session can keep running,
    /// be checkpointed, or be dropped. Resuming (directly or through a
    /// checkpoint) continues bit-identically to an uninterrupted run.
    /// Boxed: a live session is large next to a [`RunResult`].
    Paused(Box<Session<'g>>),
}

/// How [`Session::drive`] executes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Simulate every instruction time on the configured kernel.
    #[default]
    Exact,
    /// Detect the periodic steady state and skip whole hyperperiods
    /// analytically (see [`crate::fastforward`]). The result is
    /// bit-identical to [`ExecMode::Exact`]; runs whose configuration
    /// makes a skipped window inexact (fault plans, resource throttles,
    /// active checkpoint cadences) fall back to exact stepping.
    FastForward {
        /// Re-verify this many leading windows of every engagement by
        /// shadow-replaying them on the event kernel and comparing
        /// snapshots byte-for-byte. `0` trusts the periodicity proof;
        /// a mismatch at any verified window abandons fast-forward for
        /// the rest of the run and keeps the exactly-stepped state.
        verify_window: u64,
    },
}

/// Everything that shapes one [`Session::drive`] call, as plain data:
/// the execution mode and an optional pause boundary. Defaults drive
/// the run to completion in [`ExecMode::Exact`]. Everything else that
/// shapes a run (step limit, watchdog, checkpoint cadence) is the
/// session's [`SimConfig`].
///
/// ```
/// use valpipe_machine::RunSpec;
/// let spec = RunSpec::new().fast_forward(1).pause_at(10_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    mode: ExecMode,
    pause_at: Option<u64>,
}

impl RunSpec {
    /// The default spec: run to completion, exactly.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for [`ExecMode::FastForward`] with the given
    /// per-engagement verification budget.
    pub fn fast_forward(self, verify_window: u64) -> Self {
        self.mode(ExecMode::FastForward { verify_window })
    }

    /// Pause (yielding [`RunOutcome::Paused`]) once the instruction time
    /// reaches `at`, unless the run stops for its own reasons first.
    pub fn pause_at(mut self, at: u64) -> Self {
        self.pause_at = Some(at);
        self
    }
}

/// What one [`Session::drive`] call produced: the run outcome plus the
/// fast-forward statistics (all zeros under [`ExecMode::Exact`]).
pub struct Driven<'g> {
    /// Whether the run completed or paused, and the resulting state.
    pub outcome: RunOutcome<'g>,
    /// What fast-forward accomplished (steps skipped, windows verified,
    /// fallbacks taken).
    pub fast_forward: FastForwardStats,
}

impl<'g> Driven<'g> {
    /// Unwrap a completed run's [`RunResult`].
    ///
    /// # Panics
    ///
    /// Panics if the run paused instead of completing — only call this
    /// on drives without a pause boundary, or after
    /// matching on [`Driven::outcome`].
    pub fn result(self) -> RunResult {
        match self.outcome {
            RunOutcome::Done(r) => *r,
            RunOutcome::Paused(_) => panic!("drive paused; match on Driven::outcome instead"),
        }
    }
}

impl<'g> Session<'g> {
    /// Advance one instruction time. Returns how many cells fired.
    ///
    /// Each kernel visits its cells once, in ascending id order, and
    /// fires each enabled cell as it visits it. A step that returns a
    /// program fault ([`MachineError::Eval`], [`MachineError::NonBoolControl`])
    /// therefore stops mid-step: the enabled cells before the faulting
    /// one have fired at [`Session::now`], the cells after it have not,
    /// and the clock has not advanced. Both kernels leave the identical
    /// state, which serves diagnosis ([`Session::checkpoint`],
    /// [`Session::stall_report`]); do not step on from it.
    pub fn step(&mut self) -> Result<usize, MachineError> {
        self.sim.step()
    }

    /// Drive the run as described by `spec`: to quiescence, the step
    /// limit, the output-count target, or a watchdog stall — or to the
    /// spec's pause boundary, whichever comes first.
    /// Stopping wins ties: a pause boundary landing exactly on the final
    /// step still yields [`RunOutcome::Done`]. Because every stopping
    /// decision in the run loop is made from machine state at the top of
    /// the loop, a paused session resumed later (even via
    /// checkpoint/restore on another kernel or host) produces a
    /// [`RunResult`] bit-identical to an uninterrupted run — the
    /// property the multi-tenant service's budgeted jobs and hibernation
    /// are built on. [`ExecMode::FastForward`] preserves the same
    /// bit-identity while skipping provably periodic windows (see
    /// [`crate::fastforward`]).
    pub fn drive(self, spec: RunSpec) -> Result<Driven<'g>, MachineError> {
        self.drive_inner(spec, None)
    }

    /// [`Session::drive`], handing every periodic checkpoint (see
    /// [`SimConfig::checkpoint_every`]) to `sink` as it is taken.
    pub fn drive_with(
        self,
        spec: RunSpec,
        mut sink: impl FnMut(Snapshot),
    ) -> Result<Driven<'g>, MachineError> {
        self.drive_inner(spec, Some(&mut sink))
    }

    fn drive_inner(
        self,
        spec: RunSpec,
        sink: Option<&mut dyn FnMut(Snapshot)>,
    ) -> Result<Driven<'g>, MachineError> {
        let mut stats = FastForwardStats::default();
        let mut ff = match spec.mode {
            ExecMode::Exact => None,
            ExecMode::FastForward { verify_window } => {
                let f = FastForward::new(&self.sim, verify_window, sink.is_some());
                if f.is_none() {
                    // Requested but ineligible (faults / throttles /
                    // checkpoint cadence): record the fallback.
                    stats.fallbacks = 1;
                }
                f
            }
        };
        let phase = self.sim.run_inner(spec.pause_at, sink, ff.as_mut())?;
        if let Some(f) = ff {
            stats = f.into_stats();
        }
        Ok(Driven {
            outcome: match phase {
                RunPhase::Done(r) => RunOutcome::Done(r),
                RunPhase::Paused(sim) => RunOutcome::Paused(Box::new(Session { sim: *sim })),
            },
            fast_forward: stats,
        })
    }

    /// Diagnose the machine's current wait structure as a structured
    /// [`StallReport`] of the given kind — the same report the watchdog
    /// builds when it declares a run stalled. The service layer uses this
    /// to surface exhausted per-job step budgets and wall-clock deadlines
    /// through the existing stall taxonomy without mutating the run.
    pub fn stall_report(&self, kind: StallKind) -> StallReport {
        self.sim
            .build_stall_report(kind, self.sim.tracker.fires_since_progress())
    }

    /// Serialize the complete machine state at the current instruction
    /// time. The snapshot is kernel-neutral: restoring it on either
    /// kernel continues the run bit-identically (see [`crate::snapshot`]).
    pub fn checkpoint(&self) -> Snapshot {
        Snapshot::capture(&self.sim)
    }

    /// Rebuild a session from a snapshot of a run over `g`, resuming on
    /// the default kernel. Fails with
    /// [`SnapshotError::ProgramMismatch`] if `g` is not the program the
    /// snapshot was taken from.
    pub fn restore(g: &'g Graph, snap: &Snapshot) -> Result<Session<'g>, SnapshotError> {
        Self::restore_with_kernel(g, snap, Kernel::default())
    }

    /// [`Session::restore`] with an explicit kernel choice — a checkpoint
    /// taken under one kernel resumes on the other bit-identically.
    pub fn restore_with_kernel(
        g: &'g Graph,
        snap: &Snapshot,
        kernel: Kernel,
    ) -> Result<Session<'g>, SnapshotError> {
        Self::restore_with_code(g, &Arc::new(MachineCode::new(g)), snap, kernel)
    }

    /// [`Session::restore_with_kernel`] over an executable form already
    /// built from `g` (`MachineCode::new(g)`, or [`Session::code`] of a
    /// session over `g`), so a caller restoring one program many times
    /// builds its form once.
    pub fn restore_with_code(
        g: &'g Graph,
        code: &Arc<MachineCode>,
        snap: &Snapshot,
        kernel: Kernel,
    ) -> Result<Session<'g>, SnapshotError> {
        Ok(Session {
            sim: snap.rebuild(g, Arc::clone(code), kernel)?,
        })
    }

    /// The executable form this session fires from, shareable with
    /// [`Session::restore_with_code`].
    pub fn code(&self) -> &Arc<MachineCode> {
        &self.sim.code
    }

    /// Current instruction time.
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// Which kernel drives this session.
    pub fn kernel(&self) -> Kernel {
        self.sim.kernel()
    }
}
