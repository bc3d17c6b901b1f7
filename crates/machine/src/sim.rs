//! Synchronous simulator for machine-level data flow programs.
//!
//! The model follows the paper's §2–3 exactly:
//!
//! * an instruction cell is **enabled** when every operand is present *and*
//!   every destination has acknowledged the previous result;
//! * a result packet takes one *instruction time* to reach its destination,
//!   and the acknowledge packet takes one instruction time back, so an
//!   isolated cell in a pipeline fires at most once per **two instruction
//!   times** — the paper's maximum (fully pipelined) rate of 1/2;
//! * each arc holds at most one data token (capacity can be raised to model
//!   buffered links in the detailed-machine experiments);
//! * gated identities (`TGate`/`FGate`) consume their operands every firing
//!   but only produce a result when selected — discarded packets need no
//!   destination acknowledgment, which is what keeps unused array elements
//!   from jamming the pipe;
//! * `MERGE` consumes its control operand and the selected data operand,
//!   leaving the other data operand untouched.
//!
//! The simulator is deterministic: all enabled cells fire simultaneously in
//! each step (optionally throttled by a [`ResourceModel`]), and ties are
//! broken by cell index.
//!
//! Two step-loop kernels implement these semantics (see
//! [`crate::scheduler`]): the reference [`Kernel::Scan`] loop re-examines
//! every cell each instruction time; the default [`Kernel::EventDriven`]
//! loop examines only cells woken by token, acknowledge, thaw, or firing
//! events — O(fired + woken) per step instead of O(cells). Both produce
//! bit-identical [`RunResult`]s.
//!
//! Construct runs with [`Simulator::builder`] (see [`crate::session`]).

use std::collections::HashMap;
use std::mem;
use std::sync::Arc;

use valpipe_ir::graph::{Graph, PortBinding};
use valpipe_ir::opcode::{Opcode, GATE_CTL, GATE_DATA, MERGE_CTL, MERGE_FALSE, MERGE_TRUE};
use valpipe_ir::value::{apply_bin, apply_un, Value};

use crate::arc::{
    consume_one, consume_token, emit_one, emit_token, release_acks, release_one, ArcState,
};
use crate::code::{CellCode, MachineCode, Op, Port};
use crate::error::MachineError;
use crate::fault::{AckFate, FaultPlan, ResultFate};
use crate::scheduler::{Kernel, Scheduler};
use crate::session::{SessionBuilder, SimConfig};
use crate::watchdog::{
    shortest_cycle, BlockedCell, HeldArc, ProgressTracker, StallKind, StallReport,
};

/// Input data: for each `Source` port name, the full sequence of packets to
/// feed (one array per wave, concatenated across waves).
#[derive(Debug, Clone, Default)]
pub struct ProgramInputs {
    map: HashMap<String, Vec<Value>>,
}

impl ProgramInputs {
    /// Empty input set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a packet sequence to a source port, replacing any previous one.
    pub fn bind(mut self, name: impl Into<String>, values: Vec<Value>) -> Self {
        self.map.insert(name.into(), values);
        self
    }

    /// Bind a sequence of reals.
    pub fn bind_reals(self, name: impl Into<String>, values: &[f64]) -> Self {
        self.bind(name, values.iter().map(|&v| Value::Real(v)).collect())
    }

    /// Look up a bound sequence.
    pub fn get(&self, name: &str) -> Option<&[Value]> {
        self.map.get(name).map(|v| v.as_slice())
    }
}

/// Per-unit instruction-initiation budget for contention modeling (used by
/// the detailed machine model; `None` in the idealized model).
#[derive(Debug, Clone)]
pub struct ResourceModel {
    /// Unit index for each cell.
    pub unit_of: Vec<u32>,
    /// How many cells each unit may fire per instruction time.
    pub capacity: Vec<u32>,
}

/// Per-arc packet latencies (instruction times). Defaults to 1/1 — the
/// idealized machine where every hop costs one instruction time.
#[derive(Debug, Clone)]
pub struct ArcDelays {
    /// Result-packet delivery latency per arc.
    pub forward: Vec<u64>,
    /// Acknowledge-packet latency per arc.
    pub ack: Vec<u64>,
}

impl ArcDelays {
    /// Uniform 1/1 delays for a graph with `arcs` arcs.
    pub fn uniform(arcs: usize) -> Self {
        ArcDelays {
            forward: vec![1; arcs],
            ack: vec![1; arcs],
        }
    }
}

/// Why the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No cell can ever fire again (normal completion or deadlock; check
    /// [`RunResult::sources_exhausted`] to tell which).
    Quiescent,
    /// Step limit hit.
    MaxSteps,
    /// The requested number of output packets arrived (see
    /// [`SimConfig::stop_outputs`]).
    OutputsReached,
    /// The watchdog declared the run stalled (livelock or budget
    /// exhaustion); [`RunResult::stall_report`] says why.
    Stalled,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Quiescent => write!(f, "quiescent"),
            StopReason::MaxSteps => write!(f, "step limit reached"),
            StopReason::OutputsReached => write!(f, "requested outputs reached"),
            StopReason::Stalled => write!(f, "stalled (see stall report)"),
        }
    }
}

/// Result of a simulation run.
///
/// Implements `PartialEq` so whole runs can be compared — the
/// kernel-equivalence suite asserts the scan and event-driven kernels
/// produce bit-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Instruction times elapsed.
    pub steps: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// For each sink port: `(arrival time, value)` per packet, in order.
    pub outputs: HashMap<String, Vec<(u64, Value)>>,
    /// Firing count per cell.
    pub fires: Vec<u64>,
    /// For each source port: the time of each packet emission.
    pub source_emit_times: HashMap<String, Vec<u64>>,
    /// Whether every source emitted its whole bound sequence.
    pub sources_exhausted: bool,
    /// Total firings (≙ operation packets processed).
    pub total_fires: u64,
    /// Firings of array-memory cells (operation packets sent to AMs).
    pub am_fires: u64,
    /// Firings shipped to function units.
    pub fu_fires: u64,
    /// Firing times per cell, if requested.
    pub fire_times: Option<Vec<Vec<u64>>>,
    /// For runs that stalled (quiescence before the sources drained, a
    /// watchdog livelock, or an exhausted step budget): a structured
    /// diagnosis naming the blocked cells, the arcs holding
    /// unacknowledged tokens, and the wait cycle if one exists. Render
    /// with `Display` for a human-readable report.
    pub stall_report: Option<StallReport>,
}

impl RunResult {
    /// Values (without timestamps) received on a sink port.
    pub fn values(&self, port: &str) -> Vec<Value> {
        self.outputs
            .get(port)
            .map(|v| v.iter().map(|&(_, x)| x).collect())
            .unwrap_or_default()
    }

    /// Real-typed values on a sink port (panics on non-numeric packets).
    pub fn reals(&self, port: &str) -> Vec<f64> {
        self.values(port)
            .into_iter()
            .map(|v| v.as_real().expect("non-numeric output packet"))
            .collect()
    }

    /// Arrival-time report for a sink port: steady-state interval, rate,
    /// and fill latency in one place. An unknown port yields an empty
    /// (all-`None`) report.
    pub fn timing(&self, port: &str) -> Timing {
        Timing::of(
            self.outputs
                .get(port)
                .map(|v| v.iter().map(|&(t, _)| t).collect::<Vec<_>>())
                .unwrap_or_default(),
        )
    }

    /// Emission-time report for a source port.
    pub fn source_timing(&self, name: &str) -> Timing {
        Timing::of(
            self.source_emit_times
                .get(name)
                .cloned()
                .unwrap_or_default(),
        )
    }

    /// Pipeline fill latency of an output: instruction times from the
    /// machine start to the first packet on the port.
    pub fn fill_latency(&self, port: &str) -> Option<u64> {
        self.timing(port).fill_latency()
    }

    /// Fraction of operation packets destined to array memories.
    pub fn am_traffic_fraction(&self) -> f64 {
        if self.total_fires == 0 {
            0.0
        } else {
            self.am_fires as f64 / self.total_fires as f64
        }
    }
}

/// Arrival-time analysis of one packet stream (a sink's arrivals or a
/// source's emissions), unifying the steady-state interval, rate, and
/// fill-latency accessors that used to be free functions.
///
/// Full pipelining ⇔ `interval()` ≈ 2 instruction times.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Timing {
    times: Vec<u64>,
}

impl Timing {
    /// Analysis of a monotone event-time sequence.
    pub fn of(times: impl Into<Vec<u64>>) -> Self {
        Timing {
            times: times.into(),
        }
    }

    /// The raw event times.
    pub fn arrivals(&self) -> &[u64] {
        &self.times
    }

    /// Number of events observed.
    pub fn count(&self) -> usize {
        self.times.len()
    }

    /// Whether no events were observed.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Steady-state mean inter-event spacing over the middle of the run
    /// (the first and last 20% are dropped to exclude fill/drain
    /// transients). `None` if fewer than 8 events.
    pub fn interval(&self) -> Option<f64> {
        if self.times.len() < 8 {
            return None;
        }
        let lo = self.times.len() / 5;
        let hi = self.times.len() - self.times.len() / 5;
        let span = self.times[hi - 1] - self.times[lo];
        Some(span as f64 / (hi - 1 - lo) as f64)
    }

    /// Computation rate = events per instruction time (inverse of
    /// [`Timing::interval`]).
    pub fn rate(&self) -> Option<f64> {
        self.interval().map(|iv| 1.0 / iv)
    }

    /// Instruction times from machine start to the first event.
    pub fn fill_latency(&self) -> Option<u64> {
        self.times.first().copied()
    }
}

/// Sentinel in [`Cells::sink_slot`]/[`Cells::src_slot`] for cells that
/// are not sinks/sources.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Per-cell machine state in struct-of-arrays layout, indexed by `u32`
/// cell id. Sink arrivals and source emission times live in dense slot
/// vectors (`outputs`/`emit_times`, in cell order) instead of
/// name-keyed hash maps, so the firing path never hashes a port name;
/// cells sharing a port name share a slot, which preserves the merged
/// per-name streams the maps used to hold.
#[derive(Debug)]
pub(crate) struct Cells {
    pub(crate) src_pos: Vec<usize>,
    pub(crate) src_data: Vec<Option<Vec<Value>>>,
    pub(crate) ctl_pos: Vec<u64>,
    /// Each generator's wave phase, `ctl_pos` modulo its wave length
    /// (zero for other cells): what a generator's firing reads. Derived
    /// from `ctl_pos` ([`Cells::rephase`]) wherever cursors are set
    /// from outside the firing path, and never snapshotted.
    pub(crate) ctl_phase: Vec<u64>,
    pub(crate) fires: Vec<u64>,
    /// Per-cell gate pass/discard counts (zero for non-gates); feeds the
    /// gate-accounting invariant and the stall report.
    pub(crate) gate_passes: Vec<u64>,
    pub(crate) gate_discards: Vec<u64>,
    pub(crate) fire_times: Option<Vec<Vec<u64>>>,
    /// Slot of each sink cell in `outputs` (`NO_SLOT` otherwise).
    pub(crate) sink_slot: Vec<u32>,
    /// Slot of each source cell in `emit_times` (`NO_SLOT` otherwise).
    pub(crate) src_slot: Vec<u32>,
    /// Per sink port: `(arrival time, value)` packets, in order.
    pub(crate) outputs: Vec<(String, Vec<(u64, Value)>)>,
    /// Per source port: the time of each packet emission.
    pub(crate) emit_times: Vec<(String, Vec<u64>)>,
}

impl Cells {
    pub(crate) fn empty(n: usize, record_fire_times: bool) -> Cells {
        Cells {
            src_pos: vec![0; n],
            src_data: vec![None; n],
            ctl_pos: vec![0; n],
            ctl_phase: vec![0; n],
            fires: vec![0; n],
            gate_passes: vec![0; n],
            gate_discards: vec![0; n],
            fire_times: record_fire_times.then(|| vec![Vec::new(); n]),
            sink_slot: vec![NO_SLOT; n],
            src_slot: vec![NO_SLOT; n],
            outputs: Vec::new(),
            emit_times: Vec::new(),
        }
    }

    /// Recompute every generator's wave phase from its cursor, after a
    /// build, a restore or a fast-forward jump set the cursors.
    pub(crate) fn rephase(&mut self, code: &MachineCode) {
        for (i, cell) in code.cells.iter().enumerate() {
            if cell.op == Op::Gen {
                self.ctl_phase[i] = code.gens[cell.aux as usize].phase(self.ctl_pos[i]);
            }
        }
    }

    /// Slot index for a port name in a slot vector, creating it on
    /// first sight (cells sharing a name share the slot) with the
    /// history `named` holds for the port, if any.
    pub(crate) fn name_slot<T: Default>(
        slots: &mut Vec<(String, T)>,
        named: &mut HashMap<String, T>,
        name: &str,
    ) -> u32 {
        match slots.iter().position(|(p, _)| p == name) {
            Some(s) => s as u32,
            None => {
                slots.push((name.to_string(), named.remove(name).unwrap_or_default()));
                (slots.len() - 1) as u32
            }
        }
    }

    /// Packets delivered + packets emitted so far — the run's progress
    /// measure, derived rather than stored so a restore can never
    /// disagree with the canonical state.
    pub(crate) fn derived_progress(&self) -> u64 {
        let sunk: u64 = self.outputs.iter().map(|(_, v)| v.len() as u64).sum();
        let emitted: u64 = self.emit_times.iter().map(|(_, v)| v.len() as u64).sum();
        sunk + emitted
    }
}

/// [`SimConfig::stop_outputs`] precompiled against the sink slots, so
/// the per-step stopping test never hashes a name.
#[derive(Debug, Clone)]
pub(crate) enum StopSlots {
    /// No output target configured.
    Inactive,
    /// A listed port has no sink cell, so the target can never be met
    /// (the run falls through to quiescence or the step limit, exactly
    /// like the old name-keyed lookup miss).
    Never,
    /// `(slot, count)` targets into [`Cells::outputs`]; the run stops
    /// once every slot holds at least its count.
    Watch(Vec<(u32, usize)>),
}

impl StopSlots {
    pub(crate) fn compile(stop: &Option<Vec<(String, usize)>>, cells: &Cells) -> StopSlots {
        let Some(list) = stop else {
            return StopSlots::Inactive;
        };
        let mut watch = Vec::with_capacity(list.len());
        for (name, count) in list {
            match cells.outputs.iter().position(|(p, _)| p == name) {
                Some(s) => watch.push((s as u32, *count)),
                None => return StopSlots::Never,
            }
        }
        StopSlots::Watch(watch)
    }
}

/// The canonical state a machine is assembled around: the zeroed state
/// of a fresh build, or everything a snapshot holds. Port histories
/// are keyed by name; [`Simulator::assemble`] lays them out in slots.
#[derive(Debug)]
pub(crate) struct MachineState {
    /// Per-cell cursors, counters and source data. The port slot fields
    /// are left empty for [`Simulator::assemble`] to fill.
    pub(crate) cells: Cells,
    /// Per sink port: `(arrival time, value)` packets so far.
    pub(crate) outputs: HashMap<String, Vec<(u64, Value)>>,
    /// Per source port: the emission time of each packet so far.
    pub(crate) emit_times: HashMap<String, Vec<u64>>,
    /// Per-arc tokens, acknowledge slots and counters (capacity is the
    /// config's, set on assembly).
    pub(crate) arcs: Vec<ArcState>,
    pub(crate) now: u64,
    pub(crate) idle: u64,
    pub(crate) tracker: ProgressTracker,
    pub(crate) am_fires: u64,
    pub(crate) fu_fires: u64,
}

impl MachineState {
    /// The state of a machine that has not run yet: every source bound
    /// to its input sequence, every arc holding only its initial token.
    fn fresh(
        g: &Graph,
        inputs: &ProgramInputs,
        record_fire_times: bool,
    ) -> Result<Self, MachineError> {
        let mut cells = Cells::empty(g.nodes.len(), record_fire_times);
        for (i, node) in g.nodes.iter().enumerate() {
            if let Opcode::Source(name) = &node.op {
                let data = inputs
                    .get(name)
                    .ok_or_else(|| MachineError::MissingInput(name.clone()))?;
                cells.src_data[i] = Some(data.to_vec());
            }
        }
        let arcs = g
            .arcs
            .iter()
            .map(|e| {
                let mut st = ArcState::default();
                if let Some(v) = e.initial {
                    st.queue.push_back((v, 0));
                    st.sent += 1;
                }
                st
            })
            .collect();
        Ok(MachineState {
            cells,
            outputs: HashMap::new(),
            emit_times: HashMap::new(),
            arcs,
            now: 0,
            idle: 0,
            tracker: ProgressTracker::new(0),
            am_fires: 0,
            fu_fires: 0,
        })
    }
}

/// Whether `cfg` describes a machine that can run `g` — decided here
/// and nowhere else, so every config that builds also restores. The
/// machine's physical limits (§2, Fig. 1): every cell is a real
/// instruction (no symbolic FIFO), every result and acknowledge packet
/// takes at least one instruction time to cross the network, every cell
/// issues on a unit that exists, and injected faults name real cells
/// with finite probabilities.
pub(crate) fn check_config(g: &Graph, cfg: &SimConfig) -> Result<(), MachineError> {
    let (cells, arcs) = (g.nodes.len(), g.arcs.len());
    if let Some(i) = g.nodes.iter().position(|n| matches!(n.op, Opcode::Fifo(_))) {
        return Err(MachineError::UnexpandedFifo(i));
    }
    if let Some(d) = &cfg.delays {
        for table in [&d.forward, &d.ack] {
            if table.len() != arcs {
                return Err(MachineError::DelayTableMismatch {
                    expected: arcs,
                    got: table.len(),
                });
            }
        }
        for (kind, table) in [("result", &d.forward), ("acknowledge", &d.ack)] {
            if let Some(a) = table.iter().position(|&t| t == 0) {
                return Err(MachineError::InvalidConfig(format!(
                    "arc {a} has a zero {kind} latency; every packet takes at least one instruction time"
                )));
            }
        }
    }
    if let Some(res) = &cfg.resources {
        if res.unit_of.len() != cells {
            return Err(MachineError::InvalidConfig(format!(
                "resource model covers {} cells but the graph has {cells}",
                res.unit_of.len()
            )));
        }
        let units = res.capacity.len();
        if let Some(i) = res.unit_of.iter().position(|&u| u as usize >= units) {
            return Err(MachineError::InvalidConfig(format!(
                "resource model puts cell {i} on unit {} but has {units} units",
                res.unit_of[i]
            )));
        }
    }
    if let Some(plan) = &cfg.fault_plan {
        if let Some(fz) = plan.freezes.iter().find(|fz| fz.node >= cells) {
            return Err(MachineError::InvalidConfig(format!(
                "fault plan freezes cell {} but the graph has {cells} cells",
                fz.node
            )));
        }
        for (name, p) in [
            ("drop_result", plan.drop_result),
            ("dup_result", plan.dup_result),
            ("delay_result", plan.delay_result),
            ("drop_ack", plan.drop_ack),
            ("delay_ack", plan.delay_ack),
        ] {
            if !p.is_finite() {
                return Err(MachineError::InvalidConfig(format!(
                    "fault plan probability {name} is {p}, not finite"
                )));
            }
        }
    }
    Ok(())
}

/// The wakeup wheel of a machine at `now` over `arcs`, rebuilt from
/// canonical state alone: every cell seeded at `now` (anything enabled
/// fires exactly as a scan would), then the future wakeups the state
/// implies — token deliveries and acknowledge expiries still in flight.
/// Every construction and every fast-forward jump seeds the wheel here,
/// which is what makes a snapshot kernel-neutral and a jump a restore at
/// a future time (see [`crate::scheduler`]).
pub(crate) fn reseed_wheel(
    kernel: Kernel,
    code: &MachineCode,
    arcs: &[ArcState],
    now: u64,
) -> Scheduler {
    let mut sched = Scheduler::resume(kernel, code.cell_count(), now);
    for (i, st) in arcs.iter().enumerate() {
        for &(_, ready) in st.queue.iter() {
            if ready > now {
                sched.wake(code.arc_dst[i], ready);
            }
        }
        for &t in st.freeing.iter() {
            if t >= now {
                sched.wake(code.arc_src[i], t);
            }
        }
    }
    sched
}

/// Per-step buffers reused across the whole run so the hot loop never
/// reallocates: the due list and the resource budget. Not part of
/// canonical machine state (never snapshotted).
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    pub(crate) due_nodes: Vec<u32>,
    pub(crate) budget: Vec<u32>,
}

enum Operand {
    FromArc(u32, Value),
    Literal(Value),
}

impl Operand {
    fn value(&self) -> Value {
        match self {
            Operand::FromArc(_, v) | Operand::Literal(v) => *v,
        }
    }
}

#[inline]
fn port_operand(sim: &Simulator<'_>, now: u64, port: Port) -> Option<Operand> {
    match port {
        Port::Lit(v) => Some(Operand::Literal(v)),
        Port::Arc(a) => sim.arcs[a as usize]
            .peek(now)
            .map(|v| Operand::FromArc(a, v)),
        Port::Unbound => None,
    }
}

#[inline]
fn outputs_free(code: &MachineCode, sim: &Simulator<'_>, cell: &CellCode) -> bool {
    code.outs(cell).iter().all(|&a| {
        let st = &sim.arcs[a as usize];
        st.occupied() < st.cap
    })
}

/// A program fault found by [`plan_cell`]. The faulting cell's label
/// lives in the [`Graph`], off the firing path; [`Fault::at`] attaches
/// it where the error leaves the machine.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Fault {
    /// An operator rejected its operands (type error, division by zero).
    Eval(String),
    /// A gate or merge control operand was not a boolean packet.
    NonBoolControl,
}

impl Fault {
    /// The machine error for this fault at cell `node` of `g`.
    pub(crate) fn at(self, g: &Graph, node: u32) -> MachineError {
        let label = g.nodes[node as usize].label.clone();
        let node = node as usize;
        match self {
            Fault::Eval(message) => MachineError::Eval {
                node,
                label,
                message,
            },
            Fault::NonBoolControl => MachineError::NonBoolControl { node, label },
        }
    }
}

/// Determine whether cell `n` can fire at `now` and, if so, what it
/// does. Reads the machine without changing it — the single planning
/// implementation, shared verbatim by both kernels' cell visits and
/// the closed-loop networked machine (`closedloop.rs`), so they cannot
/// drift.
#[inline(always)]
pub(crate) fn plan_cell(
    code: &MachineCode,
    sim: &Simulator<'_>,
    now: u64,
    n: u32,
) -> Result<Option<FirePlan>, Fault> {
    let cell = code.cell(n);
    let operand = |port: usize| port_operand(sim, now, cell.ports[port]);
    let plan = match cell.op {
        Op::Bin(op) => {
            let (Some(a), Some(b)) = (operand(0), operand(1)) else {
                return Ok(None);
            };
            if !outputs_free(code, sim, cell) {
                return Ok(None);
            }
            let v = apply_bin(op, a.value(), b.value()).map_err(|e| Fault::Eval(e.0))?;
            Some(FirePlan::consume2(a, b).emit(v))
        }
        Op::Un(op) => {
            let Some(a) = operand(0) else {
                return Ok(None);
            };
            if !outputs_free(code, sim, cell) {
                return Ok(None);
            }
            let v = apply_un(op, a.value()).map_err(|e| Fault::Eval(e.0))?;
            Some(FirePlan::consume1(a).emit(v))
        }
        Op::Id => {
            let Some(a) = operand(0) else {
                return Ok(None);
            };
            if !outputs_free(code, sim, cell) {
                return Ok(None);
            }
            let v = a.value();
            Some(FirePlan::consume1(a).emit(v))
        }
        Op::TGate | Op::FGate => {
            let (Some(c), Some(d)) = (operand(GATE_CTL), operand(GATE_DATA)) else {
                return Ok(None);
            };
            let ctl = c.value().as_bool().ok_or(Fault::NonBoolControl)?;
            if ctl == (cell.op == Op::TGate) {
                if !outputs_free(code, sim, cell) {
                    return Ok(None);
                }
                let v = d.value();
                Some(FirePlan::consume2(c, d).emit(v))
            } else {
                // Discard: no destination needed — the essential
                // "no jams" behaviour of the paper's §5.
                Some(FirePlan::consume2(c, d))
            }
        }
        Op::Merge => {
            let Some(c) = operand(MERGE_CTL) else {
                return Ok(None);
            };
            let ctl = c.value().as_bool().ok_or(Fault::NonBoolControl)?;
            let Some(d) = operand(if ctl { MERGE_TRUE } else { MERGE_FALSE }) else {
                return Ok(None);
            };
            if !outputs_free(code, sim, cell) {
                return Ok(None);
            }
            let v = d.value();
            Some(FirePlan::consume2(c, d).emit(v))
        }
        Op::Gen => {
            if !outputs_free(code, sim, cell) {
                return Ok(None);
            }
            let v = code.gens[cell.aux as usize].at_phase(sim.cells.ctl_phase[n as usize]);
            Some(FirePlan::new().emit(v))
        }
        Op::Source => {
            let i = n as usize;
            let data = sim.cells.src_data[i].as_deref().unwrap_or_else(|| {
                panic!("cell {i}: source data unbound at step {now} despite construction check")
            });
            let pos = sim.cells.src_pos[i];
            if pos >= data.len() || !outputs_free(code, sim, cell) {
                return Ok(None);
            }
            Some(FirePlan::new().emit(data[pos]))
        }
        Op::Sink => {
            let Some(a) = operand(0) else {
                return Ok(None);
            };
            let v = a.value();
            Some(FirePlan::consume1(a).emit(v)) // "emit" records to the sink
        }
        Op::Fifo => unreachable!("rejected at construction"),
    };
    Ok(plan)
}

/// Whether cell `n`, having just fired, may be enabled at the next step
/// with no further event — the test for its re-examination wakeup. It
/// cannot be while an output arc is full, unless it is a gate (a
/// discarding gate fires with its outputs full): only an acknowledge
/// frees a slot, and every acknowledge wakes its producer when the slot
/// frees. Nor while an input arc that every firing reads (a merge reads
/// only its control port every time) holds no token: only a delivery
/// refills it, and every delivery wakes its consumer. Arc occupancy is
/// settled once the cell's own emits are applied, since a consume
/// leaves it unchanged, so the answer does not depend on the order the
/// step's other firings are applied in.
#[inline(always)]
pub(crate) fn may_refire(code: &MachineCode, sim: &Simulator<'_>, n: u32) -> bool {
    let cell = code.cell(n);
    let gate = matches!(cell.op, Op::TGate | Op::FGate);
    if !gate && !outputs_free(code, sim, cell) {
        return false;
    }
    cell.ports[..cell.op.arity()]
        .iter()
        .enumerate()
        .all(|(port, p)| match *p {
            Port::Arc(a) => {
                (cell.op == Op::Merge && port != MERGE_CTL)
                    || !sim.arcs[a as usize].queue.is_empty()
            }
            Port::Lit(_) => true,
            Port::Unbound => false,
        })
}

/// Per-cell effects of one firing: gate accounting, sink/source/
/// control-generator cursors and fire counters (fire times are the
/// kernels' to record, when asked to). Returns the value to launch on
/// the cell's output arcs, if any. Arc mutations stay with the caller:
/// the kernels post wakeups to the wheel, the closed loop routes packets
/// through its network. Shared by both kernels' fire path and the
/// closed loop.
#[inline(always)]
pub(crate) fn note_fire_cell(
    code: &MachineCode,
    sim: &mut Simulator<'_>,
    now: u64,
    n: u32,
    plan: &FirePlan,
) -> Option<Value> {
    let i = n as usize;
    let cell = code.cell(n);
    let cells = &mut sim.cells;
    if matches!(cell.op, Op::TGate | Op::FGate) {
        if plan.emit.is_some() {
            cells.gate_passes[i] += 1;
        } else {
            cells.gate_discards[i] += 1;
        }
    }
    let mut launch = None;
    if let Some(v) = plan.emit {
        match cell.op {
            Op::Sink => {
                // "emit" records to the sink; nothing is launched.
                cells.outputs[cells.sink_slot[i] as usize].1.push((now, v));
                sim.progress += 1;
            }
            Op::Source => {
                cells.src_pos[i] += 1;
                cells.emit_times[cells.src_slot[i] as usize].1.push(now);
                sim.progress += 1;
                launch = Some(v);
            }
            Op::Gen => {
                cells.ctl_pos[i] += 1;
                cells.ctl_phase[i] = code.gens[cell.aux as usize].next_phase(cells.ctl_phase[i]);
                launch = Some(v);
            }
            _ => launch = Some(v),
        }
    }
    cells.fires[i] += 1;
    if cell.am {
        sim.am_fires += 1;
    }
    if cell.fu {
        sim.fu_fires += 1;
    }
    launch
}

/// Outcome of one pass through the run loop: either the run reached a
/// stopping decision and produced its [`RunResult`], or it hit a caller
/// pause boundary and hands the live machine back.
pub(crate) enum RunPhase<'g> {
    /// The run stopped; the machine has been consumed into its result.
    /// Boxed, like [`RunPhase::Paused`], to keep the enum small.
    Done(Box<RunResult>),
    /// The pause boundary was reached first; the machine is untouched
    /// beyond it and can be resumed, snapshotted, or dropped. Boxed: a
    /// live machine is large next to a [`RunResult`].
    Paused(Box<Simulator<'g>>),
}

/// The simulation engine. Construct through [`Simulator::builder`], which
/// yields a [`crate::session::Session`]; the session's `step` and `drive`
/// delegate to the engine's `step` and its one run loop.
pub struct Simulator<'g> {
    /// The program as built: labels, port names and provenance for
    /// errors, stall reports and snapshots. Never read on the firing path.
    pub(crate) g: &'g Graph,
    /// The executable form every kernel plans and fires from.
    pub(crate) code: Arc<MachineCode>,
    /// The config as given; its delay tables, when it names any, are
    /// the per-arc latencies (absent means every latency is 1).
    pub(crate) cfg: SimConfig,
    pub(crate) arcs: Vec<ArcState>,
    /// Per-cell state, struct-of-arrays by `u32` cell id.
    pub(crate) cells: Cells,
    pub(crate) now: u64,
    pub(crate) am_fires: u64,
    pub(crate) fu_fires: u64,
    /// Normalized fault plan: `None` when no plan was given *or* the
    /// given plan is empty, so the empty plan shares the exact fault-free
    /// code path (bit-identical runs).
    pub(crate) fault: Option<FaultPlan>,
    /// Wakeup wheel (inert for the scan kernel).
    pub(crate) sched: Scheduler,
    /// `stop_outputs` precompiled to sink slots.
    pub(crate) stop_slots: StopSlots,
    /// Source emissions + sink arrivals so far — maintained incrementally
    /// so the watchdog's progress probe is O(1) per step.
    pub(crate) progress: u64,
    /// Consecutive steps with zero firings. Lives on the machine (not as
    /// a `run` local) so a checkpoint captures it and a restored run
    /// reaches the quiescence decision at the identical instruction time.
    pub(crate) idle: u64,
    /// Watchdog progress bookkeeping; on the machine for the same reason
    /// as `idle`, and so manual stepping and `run` observe identically.
    pub(crate) tracker: ProgressTracker,
    /// Reusable per-step buffers (not machine state, never snapshotted).
    pub(crate) scratch: StepScratch,
}

impl<'g> Simulator<'g> {
    /// Fluent entry point for every simulation: bind inputs and a
    /// [`SimConfig`], then [`crate::session::SessionBuilder::build`] a steppable session
    /// or [`crate::session::SessionBuilder::run`] to completion.
    pub fn builder(g: &'g Graph) -> SessionBuilder<'g> {
        SessionBuilder::new(g)
    }

    /// A fresh machine over `g`: the zeroed state with `inputs` bound,
    /// assembled by [`Simulator::assemble`].
    pub(crate) fn with_config(
        g: &'g Graph,
        inputs: &ProgramInputs,
        cfg: SimConfig,
    ) -> Result<Self, MachineError> {
        let state = MachineState::fresh(g, inputs, cfg.record_fire_times)?;
        Self::assemble(g, Arc::new(MachineCode::new(g)), cfg, state)
    }

    /// The one machine constructor, shared by fresh builds and snapshot
    /// restores: check `cfg` against `g` ([`check_config`]), lay the
    /// port histories out in slots, fix the arc capacities, normalize
    /// the fault plan, compile the output target and seed the wakeup
    /// wheel ([`reseed_wheel`]). The state's vectors and the config are
    /// moved in, never copied; a config without delay tables allocates
    /// none.
    pub(crate) fn assemble(
        g: &'g Graph,
        code: Arc<MachineCode>,
        cfg: SimConfig,
        state: MachineState,
    ) -> Result<Self, MachineError> {
        check_config(g, &cfg)?;
        let MachineState {
            mut cells,
            mut outputs,
            mut emit_times,
            mut arcs,
            now,
            idle,
            tracker,
            am_fires,
            fu_fires,
        } = state;
        // Slots are numbered by one walk in cell order; cells sharing a
        // port name share a slot.
        for (i, node) in g.nodes.iter().enumerate() {
            match &node.op {
                Opcode::Source(name) => {
                    cells.src_slot[i] =
                        Cells::name_slot(&mut cells.emit_times, &mut emit_times, name);
                }
                Opcode::Sink(name) => {
                    cells.sink_slot[i] = Cells::name_slot(&mut cells.outputs, &mut outputs, name);
                }
                _ => {}
            }
        }
        for st in &mut arcs {
            st.cap = cfg.arc_capacity;
        }
        cells.rephase(&code);
        let fault = cfg.fault_plan.clone().filter(|p| !p.is_empty());
        let stop_slots = StopSlots::compile(&cfg.stop_outputs, &cells);
        let sched = reseed_wheel(cfg.kernel, &code, &arcs, now);
        // Progress is the packets that visibly moved: derived from the
        // histories, never stored.
        let progress = cells.derived_progress();
        Ok(Simulator {
            g,
            code,
            cfg,
            arcs,
            cells,
            now,
            am_fires,
            fu_fires,
            fault,
            sched,
            stop_slots,
            progress,
            idle,
            tracker,
            scratch: StepScratch::default(),
        })
    }

    /// Current instruction time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Which kernel drives this simulation.
    pub fn kernel(&self) -> Kernel {
        self.cfg.kernel
    }

    /// Determine whether `n` can fire now and, if so, what it does.
    /// Delegates to [`plan_cell`] — the single planning implementation.
    #[inline(always)]
    fn plan(&self, code: &MachineCode, n: u32) -> Result<Option<FirePlan>, MachineError> {
        plan_cell(code, self, self.now, n).map_err(|f| f.at(self.g, n))
    }

    /// Fire cell `n` by `plan`: consume its operands and start their
    /// acknowledges, launch its result (each packet's fate drawn from
    /// the fault plan), and post the wakeups these events imply.
    /// `STATIC` is the idealized capacity-1 machine: every packet takes
    /// one instruction time and is delivered, so every arc is one
    /// packet register ([`consume_one`], [`emit_one`]) and every wakeup
    /// lands at the next step ([`Scheduler::wake_next`]).
    #[inline(always)]
    fn fire<const STATIC: bool>(&mut self, code: &MachineCode, n: u32, plan: FirePlan) {
        let now = self.now;
        for arc in plan.consumes() {
            let a = arc as usize;
            // The freed slot re-enables the arc's producer; its wakeup
            // also releases the slot (see `visit`).
            if STATIC {
                consume_one(&mut self.arcs[a], now + 1);
                self.sched.wake_next(code.arc_src[a]);
                continue;
            }
            let ack_at = now + self.cfg.delays.as_ref().map_or(1, |d| d.ack[a]);
            let fate = self
                .fault
                .as_ref()
                .map_or(AckFate::Deliver, |f| f.ack_fate(a, now));
            if let Some(t) = consume_token(&mut self.arcs[a], ack_at, fate) {
                self.sched.wake(code.arc_src[a], t);
            }
        }
        let cell = code.cell(n);
        if let Some(v) = note_fire_cell(code, self, now, n, &plan) {
            for &arc in code.outs(cell) {
                let a = arc as usize;
                if STATIC {
                    emit_one(&mut self.arcs[a], v, now + 1);
                    self.sched.wake_next(code.arc_dst[a]);
                    continue;
                }
                let ready = now + self.cfg.delays.as_ref().map_or(1, |d| d.forward[a]);
                let fate = self
                    .fault
                    .as_ref()
                    .map_or(ResultFate::Deliver, |f| f.result_fate(a, now));
                if let Some(t) = emit_token(&mut self.arcs[a], v, ready, fate) {
                    self.sched.wake(code.arc_dst[a], t);
                }
            }
        }
        if !STATIC {
            if let Some(ft) = &mut self.cells.fire_times {
                ft[n as usize].push(now);
            }
        }
        // Re-examine a fired cell next step if it may be enabled again
        // with no new event (buffered output arcs, queued operands). On
        // the capacity-1 machine the cell's code already says whether it
        // can be.
        if STATIC && !cell.refire_check {
            debug_assert!(
                !may_refire(code, self, n),
                "cell {n} refires at capacity 1 but its code skips the test"
            );
        } else if self.sched.is_event_driven() && may_refire(code, self, n) {
            if STATIC {
                self.sched.wake_next(n);
            } else {
                self.sched.wake(n, now + 1);
            }
        }
    }

    /// Visit cell `n` in the one-pass step: release the acknowledges
    /// expiring now on its output arcs, then plan it, charge its unit's
    /// budget and fire it at once. Returns whether it fired.
    ///
    /// Firing a cell before the cells after it are planned selects the
    /// same firings as planning them all first: a firing changes only
    /// the heads of its own input arcs (which no other cell reads) and
    /// the occupancy of its own output arcs (which only it tests), and
    /// every token or acknowledge it creates lands at `now + 1` or later
    /// (every latency is at least 1, see [`check_config`]), so no cell
    /// visited after it this step can see one. Fault fates hash
    /// `(arc, step)` alone, so the order draws nothing different.
    #[inline(always)]
    fn visit<const STATIC: bool>(
        &mut self,
        code: &MachineCode,
        n: u32,
        budget: &mut [u32],
    ) -> Result<bool, MachineError> {
        let now = self.now;
        for &a in code.outs(code.cell(n)) {
            let st = &mut self.arcs[a as usize];
            if STATIC {
                release_one(st, now);
            } else {
                release_acks(st, now);
            }
        }
        if !STATIC {
            if let Some(f) = &self.fault {
                if f.frozen(n as usize, now) {
                    // The scan re-examines every cell every step; the
                    // event kernel defers a frozen cell to its thaw.
                    if self.sched.is_event_driven() {
                        let at = f.thaw_time(n as usize, now);
                        self.sched.wake(n, at);
                    }
                    return Ok(false);
                }
            }
        }
        let Some(plan) = self.plan(code, n)? else {
            return Ok(false);
        };
        if !STATIC {
            if let Some(res) = &self.cfg.resources {
                let u = res.unit_of[n as usize] as usize;
                if budget[u] == 0 {
                    // Throttled: still enabled, so examined again next
                    // step.
                    self.sched.wake(n, now + 1);
                    return Ok(false);
                }
                budget[u] -= 1;
            }
        }
        self.fire::<STATIC>(code, n, plan);
        Ok(true)
    }

    /// Visit `cells` (ascending) in one pass; returns how many fired.
    fn visit_all<const STATIC: bool>(
        &mut self,
        code: &MachineCode,
        cells: impl Iterator<Item = u32>,
        budget: &mut [u32],
    ) -> Result<usize, MachineError> {
        let mut fired = 0;
        for n in cells {
            fired += self.visit::<STATIC>(code, n, budget)? as usize;
        }
        Ok(fired)
    }

    /// One instruction time. `STATIC` (decided once per step, see
    /// [`Simulator::step`]) compiles the one body for the idealized
    /// machine of the paper's §2–3 — every arc one packet register,
    /// every packet one instruction time — with no fault, throttle,
    /// fire-time or latency-table test in its consumes and emits. The
    /// scan kernel visits every cell; the event kernel visits only the
    /// cells with a wakeup due now (see [`crate::scheduler`] for the
    /// invariant). Both visit in ascending id order, which the resource
    /// throttle and first-error selection depend on.
    fn step_with<const STATIC: bool>(&mut self, code: &MachineCode) -> Result<usize, MachineError> {
        let mut budget = mem::take(&mut self.scratch.budget);
        budget.clear();
        if let Some(res) = &self.cfg.resources {
            budget.extend_from_slice(&res.capacity);
        }
        let fired = match self.cfg.kernel {
            Kernel::Scan => {
                self.visit_all::<STATIC>(code, 0..code.cell_count() as u32, &mut budget)
            }
            Kernel::EventDriven => {
                let mut due = mem::take(&mut self.scratch.due_nodes);
                self.sched.due_nodes(self.now, &mut due);
                let fired = self.visit_all::<STATIC>(code, due.iter().copied(), &mut budget);
                self.scratch.due_nodes = due;
                fired
            }
        };
        self.scratch.budget = budget;
        let fired = fired?;
        self.now += 1;
        Ok(fired)
    }

    /// Advance one instruction time. Returns how many cells fired. See
    /// [`crate::session::Session::step`] for the state a step that
    /// returns a program fault leaves.
    pub fn step(&mut self) -> Result<usize, MachineError> {
        let code = Arc::clone(&self.code);
        // The static machine: no fault plan, no resource model, no
        // latency tables (every packet takes one instruction time), no
        // fire times, and arcs of capacity 1.
        let is_static = self.fault.is_none()
            && self.cfg.resources.is_none()
            && self.cfg.delays.is_none()
            && self.cells.fire_times.is_none()
            && self.cfg.arc_capacity == 1;
        let fired = if is_static {
            self.step_with::<true>(&code)?
        } else {
            self.step_with::<false>(&code)?
        };
        // Progress/idle bookkeeping happens here — not in `run` — so
        // manual stepping, `run`, and a checkpoint-restored machine all
        // observe the identical per-step history.
        self.tracker.observe(self.now, fired as u64, self.progress);
        if fired == 0 {
            self.idle += 1;
        } else {
            self.idle = 0;
        }
        Ok(fired)
    }

    /// The longest result or acknowledge latency of any arc.
    pub(crate) fn max_latency(&self) -> u64 {
        self.cfg.delays.as_ref().map_or(1, |d| {
            d.forward
                .iter()
                .chain(d.ack.iter())
                .copied()
                .max()
                .unwrap_or(1)
        })
    }

    pub(crate) fn outputs_reached(&self) -> bool {
        match &self.stop_slots {
            StopSlots::Inactive | StopSlots::Never => false,
            StopSlots::Watch(list) => list
                .iter()
                .all(|&(slot, count)| self.cells.outputs[slot as usize].1.len() >= count),
        }
    }

    /// The shared run loop. With `pause_at = Some(t)`, the loop suspends
    /// and hands the machine back once `now >= t` — *after* re-checking
    /// every stopping condition, so a pause boundary that coincides with
    /// the final step still completes. Because every stopping decision is
    /// state-based (top of the loop), a paused machine resumed later
    /// continues bit-identically to an uninterrupted run; this is what
    /// the serve crate's budgeted jobs and hibernation lean on.
    /// `ff`, when present, is the steady-state fast-forward engine
    /// (see [`crate::fastforward`]): it observes every step's fired
    /// count and may advance the machine by whole hyperperiods in
    /// place. Every stopping decision still happens at the top of the
    /// loop from machine state alone, so a jump is indistinguishable
    /// from having stepped the same window exactly.
    pub(crate) fn run_inner(
        mut self,
        pause_at: Option<u64>,
        mut sink: Option<&mut dyn FnMut(crate::snapshot::Snapshot)>,
        mut ff: Option<&mut crate::fastforward::FastForward>,
    ) -> Result<RunPhase<'g>, MachineError> {
        let wd = self.cfg.watchdog;
        let step_limit = match wd {
            Some(w) => self.cfg.max_steps.min(w.step_budget),
            None => self.cfg.max_steps,
        };
        // Injected delays and freeze windows extend how long a token can
        // legitimately stay in flight; widen the quiescence test to match.
        let (delay_slack, freeze_end) = match &self.fault {
            Some(f) => {
                let mut slack = 0u64;
                if f.delay_result > 0.0 {
                    slack = slack.max(f.delay_result_max);
                }
                if f.delay_ack > 0.0 {
                    slack = slack.max(f.delay_ack_max);
                }
                (slack, f.freezes.iter().map(|z| z.until).max().unwrap_or(0))
            }
            None => (0, 0),
        };
        let max_lat = self.max_latency() + delay_slack;
        let mut stop = StopReason::Quiescent;
        let mut stall_kind: Option<StallKind> = None;
        // Every stopping decision is made at the *top* of the loop from
        // machine state alone (the idle counter and progress tracker live
        // on the machine). A run restored from a checkpoint therefore
        // re-evaluates exactly the test the uninterrupted run would have
        // made next, even when the checkpoint landed on the final step.
        loop {
            if self.outputs_reached() {
                stop = StopReason::OutputsReached;
                break;
            }
            if let Some(w) = wd {
                if self.tracker.livelocked(self.now, w.progress_window) {
                    stop = StopReason::Stalled;
                    stall_kind = Some(StallKind::Livelock);
                    break;
                }
            }
            // Tokens may still be in flight (delay > 1); quiesce only
            // after the longest latency passes without any firing —
            // counted strictly after the last freeze window ends, or a
            // thawing cell would be declared dead at the instant it
            // wakes.
            if self.idle > max_lat && self.now > freeze_end.saturating_add(max_lat) {
                break;
            }
            if self.now >= step_limit {
                break;
            }
            if pause_at.is_some_and(|p| self.now >= p) {
                return Ok(RunPhase::Paused(Box::new(self)));
            }
            let fired = self.step()?;
            if self.cfg.check_invariants {
                self.check_invariants()?;
            }
            if let Some(f) = ff.as_deref_mut() {
                f.after_step(&mut self, fired as u64, pause_at, step_limit)?;
            }
            if let Some(sink) = sink.as_mut() {
                let every = self.cfg.checkpoint_every;
                if every != 0 && self.now.is_multiple_of(every) {
                    sink(crate::snapshot::Snapshot::capture(&self));
                }
            }
        }
        if stop == StopReason::Quiescent && self.now >= step_limit {
            if wd.is_some() {
                stop = StopReason::Stalled;
                stall_kind = Some(StallKind::BudgetExhausted);
            } else {
                stop = StopReason::MaxSteps;
            }
        }
        let sources_exhausted = self
            .g
            .node_ids()
            .all(|n| match &self.cells.src_data[n.idx()] {
                Some(d) => self.cells.src_pos[n.idx()] >= d.len(),
                None => true,
            });
        if stop == StopReason::Quiescent && !sources_exhausted {
            stall_kind = Some(StallKind::Deadlock);
        }
        if self.cfg.check_invariants {
            // Complete any in-flight acknowledges before the final audit.
            let now = self.now;
            for st in &mut self.arcs {
                release_acks(st, now);
            }
            self.check_invariants()?;
            if stop == StopReason::Quiescent && sources_exhausted && self.fault.is_none() {
                // A cleanly completed fault-free run must have settled
                // every acknowledge.
                for (i, st) in self.arcs.iter().enumerate() {
                    if !st.freeing.is_empty() || st.lost_result != 0 || st.lost_ack != 0 {
                        return Err(MachineError::InvariantViolation {
                            step: self.now,
                            detail: format!(
                                "completed run left arc {i} with {} unsettled acknowledge slot(s)",
                                st.freeing.len() + (st.lost_result + st.lost_ack) as usize
                            ),
                        });
                    }
                }
            }
        }
        let total_fires = self.cells.fires.iter().sum();
        let stall_report = stall_kind
            .map(|kind| self.build_stall_report(kind, self.tracker.fires_since_progress()));
        // Slot names are unique (cells sharing a port share a slot), so
        // collecting into the result maps loses nothing.
        let Cells {
            fires,
            fire_times,
            outputs,
            emit_times,
            ..
        } = self.cells;
        Ok(RunPhase::Done(Box::new(RunResult {
            steps: self.now,
            stop,
            outputs: outputs.into_iter().collect(),
            fires,
            source_emit_times: emit_times.into_iter().collect(),
            sources_exhausted,
            total_fires,
            am_fires: self.am_fires,
            fu_fires: self.fu_fires,
            fire_times,
            stall_report,
        })))
    }

    /// Diagnose a stalled machine: which cells hold pending work they
    /// cannot complete, which arcs still hold tokens or unfreed slots,
    /// and the shortest circular wait, if any.
    pub(crate) fn build_stall_report(&self, kind: StallKind, fires_in_window: u64) -> StallReport {
        let n_cells = self.g.nodes.len();
        let mut blocked_cells = Vec::new();
        // Wait-for graph: cell -> cells it is waiting on (the producer of
        // a missing operand, or the consumer that has not acknowledged a
        // full output arc).
        let mut waits: Vec<Vec<usize>> = vec![Vec::new(); n_cells];
        for n in self.g.node_ids() {
            let node = &self.g.nodes[n.idx()];
            let mut missing = Vec::new();
            let mut has_ready = false;
            for (port, b) in node.inputs.iter().enumerate() {
                match b {
                    PortBinding::Wired(a) => {
                        if self.arcs[a.idx()].peek(self.now).is_some() {
                            has_ready = true;
                        } else {
                            missing.push(port);
                            waits[n.idx()].push(self.g.arcs[a.idx()].src.idx());
                        }
                    }
                    PortBinding::Lit(_) => {}
                    PortBinding::Unbound => missing.push(port),
                }
            }
            let full_output_arcs: Vec<usize> = node
                .outputs
                .iter()
                .filter(|a| self.arcs[a.idx()].occupied() >= self.arcs[a.idx()].cap)
                .map(|a| a.idx())
                .collect();
            for &a in &full_output_arcs {
                waits[n.idx()].push(self.g.arcs[a].dst.idx());
            }
            if has_ready && (!missing.is_empty() || !full_output_arcs.is_empty()) {
                blocked_cells.push(BlockedCell {
                    node: n.idx(),
                    label: node.label.clone(),
                    opcode: format!("{:?}", node.op),
                    missing_ports: missing,
                    full_output_arcs,
                });
            }
        }
        for w in &mut waits {
            w.sort_unstable();
            w.dedup();
        }
        let held_arcs = self
            .g
            .arcs
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let st = &self.arcs[i];
                (st.occupied() > 0).then(|| HeldArc {
                    arc: i,
                    src: e.src.idx(),
                    dst: e.dst.idx(),
                    tokens: st.queue.len(),
                    unacked: st.freeing.len() + (st.lost_result + st.lost_ack) as usize,
                })
            })
            .collect();
        StallReport {
            step: self.now,
            kind,
            blocked_cells,
            held_arcs,
            cycle: shortest_cycle(&waits),
            fires_in_window,
        }
    }

    /// Verify the machine's conservation invariants. Called after every
    /// step when [`SimConfig::check_invariants`] is set (and after every
    /// fast-forward jump); these hold by construction today and exist to
    /// catch future regressions in the firing rules.
    pub(crate) fn check_invariants(&self) -> Result<(), MachineError> {
        let step = self.now;
        for (i, st) in self.arcs.iter().enumerate() {
            let e = &self.g.arcs[i];
            let loc = format!("arc {i} (cell {} -> cell {})", e.src.idx(), e.dst.idx());
            if st.sent != st.queue.len() as u64 + st.consumed + st.lost_result {
                return Err(MachineError::InvariantViolation {
                    step,
                    detail: format!(
                        "token conservation broken on {loc}: sent {} != queued {} + consumed {} + lost {}",
                        st.sent,
                        st.queue.len(),
                        st.consumed,
                        st.lost_result
                    ),
                });
            }
            if st.consumed != st.acked + st.freeing.len() as u64 + st.lost_ack {
                return Err(MachineError::InvariantViolation {
                    step,
                    detail: format!(
                        "acknowledge conservation broken on {loc}: consumed {} != acked {} + pending {} + lost {}",
                        st.consumed,
                        st.acked,
                        st.freeing.len(),
                        st.lost_ack
                    ),
                });
            }
            // Occupancy is read off the counters, so it is checked once
            // they are known to agree with the queues.
            if st.occupied() > st.cap {
                return Err(MachineError::InvariantViolation {
                    step,
                    detail: format!(
                        "{loc} holds {} token slot(s), capacity {}",
                        st.occupied(),
                        st.cap
                    ),
                });
            }
        }
        for n in self.g.node_ids() {
            let node = &self.g.nodes[n.idx()];
            if matches!(node.op, Opcode::TGate | Opcode::FGate) {
                let (p, d) = (
                    self.cells.gate_passes[n.idx()],
                    self.cells.gate_discards[n.idx()],
                );
                if p + d != self.cells.fires[n.idx()] {
                    return Err(MachineError::InvariantViolation {
                        step,
                        detail: format!(
                            "gate accounting broken on cell {} ({}): {} firings != {} passes + {} discards",
                            n.idx(),
                            node.label,
                            self.cells.fires[n.idx()],
                            p,
                            d
                        ),
                    });
                }
            }
        }
        for (i, cell) in self.code.cells.iter().enumerate() {
            if cell.op != Op::Gen {
                continue;
            }
            let (pos, phase) = (self.cells.ctl_pos[i], self.cells.ctl_phase[i]);
            if phase != self.code.gens[cell.aux as usize].phase(pos) {
                return Err(MachineError::InvariantViolation {
                    step,
                    detail: format!(
                        "generator cell {i} ({}) reads wave phase {phase} at cursor {pos}",
                        self.g.nodes[i].label
                    ),
                });
            }
        }
        Ok(())
    }
}

/// What a planned firing does: which input arcs it consumes (at most
/// two — the widest opcode arity that consumes, `Merge`, takes control
/// plus one selected data operand) and the value it emits, if any.
/// `Copy` with inline consume slots, so a plan never allocates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FirePlan {
    pub(crate) consume: [Option<u32>; 2],
    pub(crate) emit: Option<Value>,
}

impl FirePlan {
    fn new() -> Self {
        FirePlan {
            consume: [None; 2],
            emit: None,
        }
    }
    fn consume1(a: Operand) -> Self {
        let mut p = Self::new();
        p.push(a);
        p
    }
    fn consume2(a: Operand, b: Operand) -> Self {
        let mut p = Self::new();
        p.push(a);
        p.push(b);
        p
    }
    fn push(&mut self, op: Operand) {
        if let Operand::FromArc(a, _) = op {
            if self.consume[0].is_none() {
                self.consume[0] = Some(a);
            } else {
                debug_assert!(
                    self.consume[1].is_none(),
                    "an opcode consumes at most two arcs"
                );
                self.consume[1] = Some(a);
            }
        }
    }
    fn emit(mut self, v: Value) -> Self {
        self.emit = Some(v);
        self
    }
    /// The consumed arcs, in operand-port order.
    pub(crate) fn consumes(&self) -> impl Iterator<Item = u32> + '_ {
        self.consume.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valpipe_ir::value::BinOp;
    use valpipe_ir::CtlStream;

    fn reals(vals: &[f64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Real(v)).collect()
    }

    fn run_defaults(g: &Graph, inputs: ProgramInputs) -> Result<RunResult, MachineError> {
        Simulator::builder(g).inputs(inputs).run()
    }

    /// The paper's Fig. 2 program: y = a*b; (y+2)*(y-3).
    fn fig2() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let b = g.add_node(Opcode::Source("b".into()), "b");
        let y = g.cell(Opcode::Bin(BinOp::Mul), "cell1", &[a.into(), b.into()]);
        let p = g.cell(Opcode::Bin(BinOp::Add), "cell2", &[y.into(), 2.0.into()]);
        let q = g.cell(Opcode::Bin(BinOp::Sub), "cell3", &[y.into(), 3.0.into()]);
        let r = g.cell(Opcode::Bin(BinOp::Mul), "cell4", &[p.into(), q.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[r.into()]);
        g
    }

    #[test]
    fn fig2_values_correct() {
        let g = fig2();
        let inputs = ProgramInputs::new()
            .bind("a", reals(&[1.0, 2.0, 3.0]))
            .bind("b", reals(&[4.0, 5.0, 6.0]));
        let r = run_defaults(&g, inputs).unwrap();
        let expect: Vec<f64> = [4.0, 10.0, 18.0]
            .iter()
            .map(|y| (y + 2.0) * (y - 3.0))
            .collect();
        assert_eq!(r.reals("out"), expect);
        assert!(r.sources_exhausted);
        assert_eq!(r.stop, StopReason::Quiescent);
    }

    #[test]
    fn both_kernels_agree_on_fig2() {
        let g = fig2();
        let inputs = ProgramInputs::new()
            .bind("a", reals(&[1.0, 2.0, 3.0]))
            .bind("b", reals(&[4.0, 5.0, 6.0]));
        let scan = Simulator::builder(&g)
            .inputs(inputs.clone())
            .config(SimConfig::new().kernel(Kernel::Scan))
            .run()
            .unwrap();
        let event = Simulator::builder(&g)
            .inputs(inputs)
            .config(SimConfig::new().kernel(Kernel::EventDriven))
            .run()
            .unwrap();
        assert_eq!(scan, event);
    }

    #[test]
    fn fig2_fully_pipelined_rate_one_half() {
        let g = fig2();
        let n = 200;
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let inputs = ProgramInputs::new()
            .bind("a", reals(&data))
            .bind("b", reals(&data));
        let r = run_defaults(&g, inputs).unwrap();
        let iv = r.timing("out").interval().unwrap();
        assert!((iv - 2.0).abs() < 0.05, "interval {iv} ≉ 2");
    }

    #[test]
    fn unbalanced_diamond_runs_slower_than_one_half() {
        // a → id1 → id2 → add ; a → add  (paths of length 2 and 0).
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let i1 = g.cell(Opcode::Id, "i1", &[a.into()]);
        let i2 = g.cell(Opcode::Id, "i2", &[i1.into()]);
        let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[i2.into(), a.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[add.into()]);
        let data: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let r = run_defaults(&g, ProgramInputs::new().bind("a", reals(&data))).unwrap();
        let iv = r.timing("out").interval().unwrap();
        assert!(iv > 2.5, "unbalanced diamond interval {iv} should exceed 2");
        // Values are still correct — imbalance costs speed, not correctness.
        assert_eq!(
            r.reals("out"),
            data.iter().map(|x| x + x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn three_cycle_rate_one_third() {
        // Feedback loop of 3 cells, 1 initial token: x_{k+1} = x_k + 1.
        let mut g = Graph::new();
        let add = g.add_node(Opcode::Bin(BinOp::Add), "add");
        g.set_lit(add, 1, Value::Int(1));
        let i1 = g.cell(Opcode::Id, "i1", &[add.into()]);
        let i2 = g.cell(Opcode::Id, "i2", &[i1.into()]);
        g.connect_init(i2, add, 0, Value::Int(0));
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[i2.into()]);
        let r = Simulator::builder(&g)
            .config(SimConfig::new().max_steps(2000))
            .run()
            .unwrap();
        // Runs forever (no sources), so we hit the step limit.
        assert_eq!(r.stop, StopReason::MaxSteps);
        let iv = r.timing("out").interval().unwrap();
        assert!((iv - 3.0).abs() < 0.05, "3-cycle interval {iv} ≉ 3");
        let vals = r.values("out");
        assert_eq!(vals[0], Value::Int(1));
        assert_eq!(vals[1], Value::Int(2));
    }

    #[test]
    fn four_cycle_two_tokens_full_rate() {
        // 4-cell loop with 2 initial tokens → interval 2 (paper §7's
        // even-length requirement for maximum pipelining).
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Bin(BinOp::Add), "a");
        g.set_lit(a, 1, Value::Int(1));
        let b = g.cell(Opcode::Id, "b", &[a.into()]);
        let c = g.add_node(Opcode::Bin(BinOp::Add), "c");
        g.set_lit(c, 1, Value::Int(1));
        g.connect_init(b, c, 0, Value::Int(100));
        let d = g.cell(Opcode::Id, "d", &[c.into()]);
        g.connect_init(d, a, 0, Value::Int(0));
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[d.into()]);
        let r = Simulator::builder(&g)
            .config(SimConfig::new().max_steps(2000))
            .run()
            .unwrap();
        let iv = r.timing("out").interval().unwrap();
        assert!((iv - 2.0).abs() < 0.05, "4-cycle/2-token interval {iv} ≉ 2");
    }

    #[test]
    fn tgate_discards_without_jamming() {
        // Select the middle of each 4-wave: <F T T F>.
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let ctl = g.add_node(Opcode::CtlGen(CtlStream::window(4, 1, 2)), "ctl");
        let gate = g.cell(Opcode::TGate, "g", &[ctl.into(), a.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[gate.into()]);
        let r = run_defaults(
            &g,
            ProgramInputs::new().bind("a", reals(&[0., 1., 2., 3., 4., 5., 6., 7.])),
        )
        .unwrap();
        assert_eq!(r.reals("out"), vec![1., 2., 5., 6.]);
        assert!(
            r.sources_exhausted,
            "discarded packets must not jam the source"
        );
    }

    #[test]
    fn merge_reassembles_order() {
        // Two sources merged under control <T F>: t0, f0, t1, f1, …
        let mut g = Graph::new();
        let t = g.add_node(Opcode::Source("t".into()), "t");
        let f = g.add_node(Opcode::Source("f".into()), "f");
        let ctl = g.add_node(
            Opcode::CtlGen(CtlStream::from_runs([(true, 1), (false, 1)])),
            "ctl",
        );
        let m = g.cell(Opcode::Merge, "m", &[ctl.into(), t.into(), f.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[m.into()]);
        let r = run_defaults(
            &g,
            ProgramInputs::new()
                .bind("t", reals(&[10., 11., 12.]))
                .bind("f", reals(&[20., 21., 22.])),
        )
        .unwrap();
        assert_eq!(r.reals("out"), vec![10., 20., 11., 21., 12., 22.]);
    }

    #[test]
    fn missing_input_reported() {
        let g = fig2();
        let err = run_defaults(&g, ProgramInputs::new().bind("a", reals(&[1.0]))).unwrap_err();
        assert_eq!(err, MachineError::MissingInput("b".into()));
    }

    #[test]
    fn type_fault_reported() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let and = g.cell(Opcode::Bin(BinOp::And), "and", &[a.into(), true.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[and.into()]);
        let err = run_defaults(&g, ProgramInputs::new().bind("a", reals(&[1.0]))).unwrap_err();
        assert!(matches!(err, MachineError::Eval { .. }));
    }

    #[test]
    fn non_bool_control_reported() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let b = g.add_node(Opcode::Source("b".into()), "b");
        let gate = g.cell(Opcode::TGate, "g", &[a.into(), b.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[gate.into()]);
        let err = run_defaults(
            &g,
            ProgramInputs::new()
                .bind("a", reals(&[1.0]))
                .bind("b", reals(&[2.0])),
        )
        .unwrap_err();
        assert!(matches!(err, MachineError::NonBoolControl { .. }));
    }

    #[test]
    fn pipeline_rate_independent_of_stage_count() {
        // Chains of 5 vs 50 identity cells: same steady-state interval (§3:
        // "the computation rate of a pipeline is not dependent on the
        // number of stages").
        let mut ivs = Vec::new();
        for stages in [5usize, 50] {
            let mut g = Graph::new();
            let a = g.add_node(Opcode::Source("a".into()), "a");
            let mut prev = a;
            for k in 0..stages {
                prev = g.cell(Opcode::Id, format!("s{k}"), &[prev.into()]);
            }
            let _ = g.cell(Opcode::Sink("out".into()), "out", &[prev.into()]);
            let data: Vec<f64> = (0..300).map(|i| i as f64).collect();
            let r = run_defaults(&g, ProgramInputs::new().bind("a", reals(&data))).unwrap();
            ivs.push(r.timing("out").interval().unwrap());
        }
        assert!((ivs[0] - ivs[1]).abs() < 0.02, "{ivs:?}");
        assert!((ivs[0] - 2.0).abs() < 0.05);
    }

    #[test]
    fn degenerate_cells_refire_identically_on_both_bodies() {
        // Sources and generators without destinations, a sink on a
        // literal, and gates and binary cells on literals only: the
        // cells whose refiring the per-cell flag leaves to `may_refire`
        // (and, in debug builds, the cells whose skipped test `fire`
        // re-asks), on the static body and on the general one.
        let mut g = Graph::new();
        let _ = g.add_node(Opcode::Source("a".into()), "src");
        let _ = g.add_node(
            Opcode::CtlGen(CtlStream::from_runs([(true, 1), (false, 2)])),
            "ctl",
        );
        let _ = g.add_node(Opcode::IdxGen { lo: 0, hi: 3 }, "idx");
        let _ = g.cell(Opcode::Sink("lit".into()), "lit", &[1.0.into()]);
        let tg = g.cell(Opcode::TGate, "tg", &[true.into(), 2.0.into()]);
        let fg = g.cell(Opcode::FGate, "fg", &[true.into(), 2.0.into()]);
        let _ = g.cell(Opcode::Sink("t".into()), "t", &[tg.into()]);
        let _ = g.cell(Opcode::Sink("f".into()), "f", &[fg.into()]);
        let _ = g.cell(Opcode::Bin(BinOp::Add), "bare", &[1.0.into(), 2.0.into()]);
        let filled = g.cell(Opcode::Bin(BinOp::Mul), "filled", &[3.0.into(), 2.0.into()]);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[filled.into()]);
        let inputs = ProgramInputs::new().bind("a", reals(&[1.0, 2.0, 3.0]));
        let run = |kernel: Kernel, general: bool| {
            let mut r = Simulator::builder(&g)
                .inputs(inputs.clone())
                .config(
                    SimConfig::new()
                        .kernel(kernel)
                        .max_steps(40)
                        .record_fire_times(general),
                )
                .run()
                .unwrap();
            r.fire_times = None;
            r
        };
        let reference = run(Kernel::Scan, true);
        assert_eq!(reference.values("lit").len(), 40);
        assert_eq!(reference.values("y").len(), 20);
        for (kernel, general) in [
            (Kernel::Scan, false),
            (Kernel::EventDriven, false),
            (Kernel::EventDriven, true),
        ] {
            assert_eq!(
                run(kernel, general),
                reference,
                "{kernel:?}, general {general}"
            );
        }
    }

    #[test]
    fn fifo_expansion_required_for_manual_stepping() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let f = g.cell(Opcode::Fifo(2), "f", &[a.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[f.into()]);
        let err = Simulator::builder(&g)
            .inputs(ProgramInputs::new().bind("a", reals(&[1.0])))
            .build();
        assert!(matches!(err, Err(MachineError::UnexpandedFifo(_))));
        // … but the all-in-one run path expands them transparently.
        let r = Simulator::builder(&g)
            .inputs(ProgramInputs::new().bind("a", reals(&[1.0, 2.0])))
            .run()
            .unwrap();
        assert_eq!(r.reals("out"), vec![1.0, 2.0]);
    }
}
