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
//! Three step-loop kernels implement these semantics (see
//! [`crate::scheduler`]): the legacy [`Kernel::Scan`] loop re-examines
//! every cell each instruction time; the default [`Kernel::EventDriven`]
//! loop examines only cells woken by token, acknowledge, thaw, or firing
//! events — O(fired + woken) per step instead of O(cells); and
//! [`Kernel::ParallelEvent`] runs the event-driven loop but, inside an
//! eligible `run`, batches whole epochs of steps across worker threads
//! (`par.rs`). All three produce bit-identical [`RunResult`]s.
//!
//! Construct runs with [`Simulator::builder`] (see [`crate::session`]).

use std::collections::{HashMap, VecDeque};
use std::mem;

use valpipe_ir::graph::{Graph, PortBinding};
use valpipe_ir::opcode::{Opcode, GATE_CTL, GATE_DATA, MERGE_CTL, MERGE_FALSE, MERGE_TRUE};
use valpipe_ir::value::{apply_bin, apply_un, Value};
use valpipe_ir::{ArcId, NodeId};

use crate::error::MachineError;
pub use crate::error::SimError;
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

#[derive(Debug)]
pub(crate) struct ArcState {
    /// In-flight and deliverable tokens: `(value, ready_at)`.
    pub(crate) queue: VecDeque<(Value, u64)>,
    /// Times at which consumed-token slots become free again (acks).
    /// Kept as an unordered list: injected acknowledge delays break the
    /// monotonicity a front-pop queue would rely on.
    pub(crate) freeing: Vec<u64>,
    pub(crate) cap: usize,
    /// Tokens that entered the arc (queued or lost in transit).
    pub(crate) sent: u64,
    /// Tokens consumed off the queue by the destination cell.
    pub(crate) consumed: u64,
    /// Consumed-token slots whose acknowledge completed.
    pub(crate) acked: u64,
    /// Result packets lost to injected faults. The producer's slot is
    /// never acknowledged, so each loss permanently occupies capacity —
    /// the realistic wedge a lost packet causes on this architecture.
    pub(crate) lost_result: u64,
    /// Acknowledge packets lost to injected faults; each permanently
    /// occupies the slot it should have freed.
    pub(crate) lost_ack: u64,
}

impl ArcState {
    fn occupied(&self) -> usize {
        self.queue.len() + self.freeing.len() + (self.lost_result + self.lost_ack) as usize
    }
    fn peek(&self, now: u64) -> Option<Value> {
        self.queue
            .front()
            .and_then(|&(v, t)| (t <= now).then_some(v))
    }
}

/// Release the acknowledge slots of `st` that expire at or before
/// `now`. The list is unordered (injected acknowledge delays can
/// overtake each other), so filter rather than front-pop.
#[inline]
pub(crate) fn release_acks(st: &mut ArcState, now: u64) {
    match st.freeing[..] {
        [] => return,
        // A unit-capacity arc holds at most one slot: skip `retain`.
        [t] => {
            if t <= now {
                st.freeing.clear();
                st.acked += 1;
            }
            return;
        }
        _ => {}
    }
    let before = st.freeing.len();
    st.freeing.retain(|&t| t > now);
    st.acked += (before - st.freeing.len()) as u64;
}

/// Consume the head token of `st` and start its acknowledge with the
/// given fault fate. Returns the slot-free time to post wakeups at, if
/// the acknowledge survives.
#[inline]
pub(crate) fn consume_token(st: &mut ArcState, ack_at: u64, fate: AckFate) -> Option<u64> {
    st.queue.pop_front();
    st.consumed += 1;
    match fate {
        AckFate::Deliver => {
            st.freeing.push(ack_at);
            Some(ack_at)
        }
        AckFate::Delay(extra) => {
            st.freeing.push(ack_at + extra);
            Some(ack_at + extra)
        }
        // A lost acknowledge never frees the producer's slot.
        AckFate::Drop => {
            st.lost_ack += 1;
            None
        }
    }
}

/// Launch a result packet onto `st` with the given fault fate. Returns
/// the delivery time to post the destination's wakeup at, if the packet
/// survives.
#[inline]
pub(crate) fn emit_token(st: &mut ArcState, v: Value, ready: u64, fate: ResultFate) -> Option<u64> {
    st.sent += 1;
    match fate {
        ResultFate::Deliver => {
            st.queue.push_back((v, ready));
            Some(ready)
        }
        // A dropped result leaves its slot permanently occupied: the
        // destination never consumes it, so it is never acknowledged.
        ResultFate::Drop => {
            st.lost_result += 1;
            None
        }
        // A delayed packet still holds its place in FIFO order, so a
        // slow packet blocks the ones behind it (head-of-line).
        ResultFate::Delay(extra) => {
            st.queue.push_back((v, ready + extra));
            Some(ready + extra)
        }
        ResultFate::Duplicate => {
            st.queue.push_back((v, ready));
            // The duplicate is delivered only if the link has a free
            // slot; capacity is a physical property of the arc and
            // must hold even under faults.
            if st.occupied() < st.cap {
                st.queue.push_back((v, ready));
                st.sent += 1;
            }
            Some(ready)
        }
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

    /// Slot index for a port name in a slot vector, creating it on
    /// first sight (cells sharing a name share the slot).
    pub(crate) fn name_slot<T: Default>(slots: &mut Vec<(String, T)>, name: &str) -> u32 {
        match slots.iter().position(|(p, _)| p == name) {
            Some(s) => s as u32,
            None => {
                slots.push((name.to_string(), T::default()));
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

/// Per-step buffers reused across the whole run so the hot loop never
/// reallocates: due lists, fire plans, thaw/throttle lists, and the
/// resource budget. Not part of canonical machine state (never
/// snapshotted).
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    pub(crate) due_nodes: Vec<u32>,
    pub(crate) plans: Vec<(u32, FirePlan)>,
    pub(crate) thawing: Vec<(u32, u64)>,
    pub(crate) throttled: Vec<u32>,
    pub(crate) budget: Vec<u32>,
}

enum Operand {
    FromArc(ArcId, Value),
    Literal(Value),
}

impl Operand {
    fn value(&self) -> Value {
        match self {
            Operand::FromArc(_, v) | Operand::Literal(v) => *v,
        }
    }
}

/// Read-only view of exactly the machine state cell planning touches:
/// arc states and the source/control cursors. The `Simulator`
/// implements it over its own storage (which the closed-loop networked
/// machine, `closedloop.rs`, also plans over); the epoch engine's
/// per-shard views (`par.rs`) implement it over disjointly-aliased
/// slices — so [`plan_cell`] is the *single* planning implementation
/// shared by every kernel, the epoch engine and the closed loop, and
/// cannot drift.
pub(crate) trait PlanView {
    /// State of arc `a`.
    fn arc(&self, a: usize) -> &ArcState;
    /// Control-generator cursor of cell `i`.
    fn ctl_pos(&self, i: usize) -> u64;
    /// Source cursor of cell `i`.
    fn src_pos(&self, i: usize) -> usize;
    /// Bound source data of cell `i`.
    fn src_data(&self, i: usize) -> Option<&[Value]>;
}

fn view_operand<V: PlanView + ?Sized>(
    g: &Graph,
    view: &V,
    now: u64,
    n: NodeId,
    port: usize,
) -> Option<Operand> {
    match g.nodes[n.idx()].inputs[port] {
        PortBinding::Lit(v) => Some(Operand::Literal(v)),
        PortBinding::Wired(a) => view.arc(a.idx()).peek(now).map(|v| Operand::FromArc(a, v)),
        PortBinding::Unbound => None,
    }
}

fn view_outputs_free<V: PlanView + ?Sized>(g: &Graph, view: &V, n: NodeId) -> bool {
    g.nodes[n.idx()].outputs.iter().all(|a| {
        let st = view.arc(a.idx());
        st.occupied() < st.cap
    })
}

/// Determine whether `n` can fire at `now` and, if so, what it does.
/// Pure over the view — shared verbatim by every kernel's planning
/// phase, the epoch engine's shard workers, and the closed loop.
pub(crate) fn plan_cell<V: PlanView + ?Sized>(
    g: &Graph,
    view: &V,
    now: u64,
    n: NodeId,
) -> Result<Option<FirePlan>, SimError> {
    let node = &g.nodes[n.idx()];
    let fault_ctl = || SimError::NonBoolControl {
        node: n.idx(),
        label: node.label.clone(),
    };
    let plan = match &node.op {
        Opcode::Bin(op) => {
            let (Some(a), Some(b)) = (
                view_operand(g, view, now, n, 0),
                view_operand(g, view, now, n, 1),
            ) else {
                return Ok(None);
            };
            if !view_outputs_free(g, view, n) {
                return Ok(None);
            }
            let v = apply_bin(*op, a.value(), b.value()).map_err(|e| SimError::Eval {
                node: n.idx(),
                label: node.label.clone(),
                message: e.0,
            })?;
            Some(FirePlan::consume2(a, b).emit(v))
        }
        Opcode::Un(op) => {
            let Some(a) = view_operand(g, view, now, n, 0) else {
                return Ok(None);
            };
            if !view_outputs_free(g, view, n) {
                return Ok(None);
            }
            let v = apply_un(*op, a.value()).map_err(|e| SimError::Eval {
                node: n.idx(),
                label: node.label.clone(),
                message: e.0,
            })?;
            Some(FirePlan::consume1(a).emit(v))
        }
        Opcode::Id | Opcode::AmWrite | Opcode::AmRead => {
            let Some(a) = view_operand(g, view, now, n, 0) else {
                return Ok(None);
            };
            if !view_outputs_free(g, view, n) {
                return Ok(None);
            }
            let v = a.value();
            Some(FirePlan::consume1(a).emit(v))
        }
        Opcode::TGate | Opcode::FGate => {
            let (Some(c), Some(d)) = (
                view_operand(g, view, now, n, GATE_CTL),
                view_operand(g, view, now, n, GATE_DATA),
            ) else {
                return Ok(None);
            };
            let ctl = c.value().as_bool().ok_or_else(fault_ctl)?;
            let pass = if matches!(node.op, Opcode::TGate) {
                ctl
            } else {
                !ctl
            };
            if pass {
                if !view_outputs_free(g, view, n) {
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
        Opcode::Merge => {
            let Some(c) = view_operand(g, view, now, n, MERGE_CTL) else {
                return Ok(None);
            };
            let ctl = c.value().as_bool().ok_or_else(fault_ctl)?;
            let port = if ctl { MERGE_TRUE } else { MERGE_FALSE };
            let Some(d) = view_operand(g, view, now, n, port) else {
                return Ok(None);
            };
            if !view_outputs_free(g, view, n) {
                return Ok(None);
            }
            let v = d.value();
            Some(FirePlan::consume2(c, d).emit(v))
        }
        Opcode::CtlGen(stream) => {
            if !view_outputs_free(g, view, n) {
                return Ok(None);
            }
            Some(FirePlan::new().emit(Value::Bool(stream.at(view.ctl_pos(n.idx())))))
        }
        Opcode::IdxGen { lo, hi } => {
            if !view_outputs_free(g, view, n) {
                return Ok(None);
            }
            let len = (hi - lo + 1) as u64;
            let v = lo + (view.ctl_pos(n.idx()) % len) as i64;
            Some(FirePlan::new().emit(Value::Int(v)))
        }
        Opcode::Source(_) => {
            let data = view.src_data(n.idx()).unwrap_or_else(|| {
                panic!(
                    "cell {} ({}): source data unbound at step {} despite construction check",
                    n.idx(),
                    node.label,
                    now
                )
            });
            if view.src_pos(n.idx()) >= data.len() || !view_outputs_free(g, view, n) {
                return Ok(None);
            }
            Some(FirePlan::new().emit(data[view.src_pos(n.idx())]))
        }
        Opcode::Sink(_) => {
            let Some(a) = view_operand(g, view, now, n, 0) else {
                return Ok(None);
            };
            let v = a.value();
            Some(FirePlan::consume1(a).emit(v)) // "emit" records to the sink
        }
        Opcode::Fifo(_) => unreachable!("rejected at construction"),
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
pub(crate) fn may_refire<V: PlanView + ?Sized>(g: &Graph, view: &V, n: u32) -> bool {
    let node = &g.nodes[n as usize];
    if !matches!(node.op, Opcode::TGate | Opcode::FGate) && !view_outputs_free(g, view, NodeId(n)) {
        return false;
    }
    node.inputs.iter().enumerate().all(|(port, b)| match b {
        PortBinding::Wired(a) => {
            (matches!(node.op, Opcode::Merge) && port != MERGE_CTL)
                || !view.arc(a.idx()).queue.is_empty()
        }
        PortBinding::Lit(_) => true,
        PortBinding::Unbound => false,
    })
}

/// Mutation sink for the per-cell effects of one firing. The
/// `Simulator` implements it over its own storage; the epoch engine's
/// shard views implement it over disjointly-aliased slices plus local
/// counters — so [`note_fire_cell`] is the single bookkeeping
/// implementation shared by the sequential fire path, the parallel
/// merge, the epoch workers, and the closed-loop networked machine.
pub(crate) trait NoteSink {
    /// Count a gate pass (`pass`) or discard (`!pass`) on gate cell `i`.
    fn bump_gate(&mut self, i: usize, pass: bool);
    /// Record `v` arriving at sink cell `i` at time `t`.
    fn record_output(&mut self, i: usize, t: u64, v: Value);
    /// Advance source cell `i`'s cursor and record its emission at `t`.
    fn advance_source(&mut self, i: usize, t: u64);
    /// Advance generator cell `i`'s control cursor.
    fn advance_ctl(&mut self, i: usize);
    /// Count the firing of cell `i` at time `t` (`am`/`fu`: whether the
    /// cell is an array-memory / function-unit instruction).
    fn count_fire(&mut self, i: usize, t: u64, am: bool, fu: bool);
}

/// Per-cell effects of one firing: gate accounting, sink/source/
/// control-generator cursors, fire counters, and fire-time recording.
/// Returns the value to launch on the cell's output arcs, if any. Arc
/// mutations stay with the caller: the sequential kernels post wakeups
/// to the global wheel, an epoch shard to its private one.
pub(crate) fn note_fire_cell<S: NoteSink + ?Sized>(
    g: &Graph,
    sink: &mut S,
    now: u64,
    n: NodeId,
    plan: &FirePlan,
) -> Option<Value> {
    let i = n.idx();
    let node = &g.nodes[i];
    if matches!(node.op, Opcode::TGate | Opcode::FGate) {
        sink.bump_gate(i, plan.emit.is_some());
    }
    let mut launch = None;
    if let Some(v) = plan.emit {
        match &node.op {
            Opcode::Sink(_) => {
                // "emit" records to the sink; nothing is launched.
                sink.record_output(i, now, v);
            }
            Opcode::Source(_) => {
                sink.advance_source(i, now);
                launch = Some(v);
            }
            Opcode::CtlGen(_) | Opcode::IdxGen { .. } => {
                sink.advance_ctl(i);
                launch = Some(v);
            }
            _ => launch = Some(v),
        }
    }
    sink.count_fire(
        i,
        now,
        node.op.is_array_memory(),
        node.op.is_function_unit(),
    );
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
    pub(crate) g: &'g Graph,
    pub(crate) cfg: SimConfig,
    pub(crate) arcs: Vec<ArcState>,
    /// Per-cell state, struct-of-arrays by `u32` cell id.
    pub(crate) cells: Cells,
    pub(crate) now: u64,
    pub(crate) fwd_delay: Vec<u64>,
    pub(crate) ack_delay: Vec<u64>,
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
    /// Lazily created worker pool for [`Kernel::ParallelEvent`]; `None`
    /// until the first epoch.
    pub(crate) pool: Option<crate::par::Pool>,
    /// Whether `run_inner` proved the whole run free of the features
    /// (faults, throttles, watchdogs, fast-forward, invariant checking,
    /// periodic checkpoints) that make the epoch horizon unprovable —
    /// set at run entry, cleared on pause, always false for manual
    /// stepping. See DESIGN.md §16.
    pub(crate) allow_epochs: bool,
    /// The step the current `run_inner` call must not run past (pause
    /// boundary / step limit); epochs clamp their horizon to it.
    pub(crate) epoch_stop_cap: u64,
    /// Lazily built epoch engine (shard map + per-shard wheels); like
    /// `scratch`, an optimization artifact, never snapshotted.
    pub(crate) epoch: Option<Box<crate::par::EpochEngine>>,
}

impl PlanView for Simulator<'_> {
    fn arc(&self, a: usize) -> &ArcState {
        &self.arcs[a]
    }
    fn ctl_pos(&self, i: usize) -> u64 {
        self.cells.ctl_pos[i]
    }
    fn src_pos(&self, i: usize) -> usize {
        self.cells.src_pos[i]
    }
    fn src_data(&self, i: usize) -> Option<&[Value]> {
        self.cells.src_data[i].as_deref()
    }
}

impl NoteSink for Simulator<'_> {
    fn bump_gate(&mut self, i: usize, pass: bool) {
        if pass {
            self.cells.gate_passes[i] += 1;
        } else {
            self.cells.gate_discards[i] += 1;
        }
    }
    fn record_output(&mut self, i: usize, t: u64, v: Value) {
        self.cells.outputs[self.cells.sink_slot[i] as usize]
            .1
            .push((t, v));
        self.progress += 1;
    }
    fn advance_source(&mut self, i: usize, t: u64) {
        self.cells.src_pos[i] += 1;
        self.cells.emit_times[self.cells.src_slot[i] as usize]
            .1
            .push(t);
        self.progress += 1;
    }
    fn advance_ctl(&mut self, i: usize) {
        self.cells.ctl_pos[i] += 1;
    }
    fn count_fire(&mut self, i: usize, t: u64, am: bool, fu: bool) {
        self.cells.fires[i] += 1;
        if am {
            self.am_fires += 1;
        }
        if fu {
            self.fu_fires += 1;
        }
        if let Some(ft) = &mut self.cells.fire_times {
            ft[i].push(t);
        }
    }
}

impl<'g> Simulator<'g> {
    /// Fluent entry point for every simulation: bind inputs, set options,
    /// then [`crate::session::SessionBuilder::build`] a steppable session
    /// or [`crate::session::SessionBuilder::run`] to completion.
    pub fn builder(g: &'g Graph) -> SessionBuilder<'g> {
        SessionBuilder::new(g)
    }

    pub(crate) fn with_config(
        g: &'g Graph,
        inputs: &ProgramInputs,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        let n = g.nodes.len();
        let mut cells = Cells::empty(n, cfg.record_fire_times);
        for (i, node) in g.nodes.iter().enumerate() {
            match &node.op {
                Opcode::Fifo(_) => return Err(SimError::UnexpandedFifo(i)),
                Opcode::Source(name) => {
                    let data = inputs
                        .get(name)
                        .ok_or_else(|| SimError::MissingInput(name.clone()))?;
                    cells.src_data[i] = Some(data.to_vec());
                    cells.src_slot[i] = Cells::name_slot(&mut cells.emit_times, name);
                }
                Opcode::Sink(name) => {
                    cells.sink_slot[i] = Cells::name_slot(&mut cells.outputs, name);
                }
                _ => {}
            }
        }
        let (fwd_delay, ack_delay) = match &cfg.delays {
            Some(d) => {
                if d.forward.len() != g.arcs.len() {
                    return Err(MachineError::DelayTableMismatch {
                        expected: g.arcs.len(),
                        got: d.forward.len(),
                    });
                }
                if d.ack.len() != g.arcs.len() {
                    return Err(MachineError::DelayTableMismatch {
                        expected: g.arcs.len(),
                        got: d.ack.len(),
                    });
                }
                (d.forward.clone(), d.ack.clone())
            }
            None => (vec![1; g.arcs.len()], vec![1; g.arcs.len()]),
        };
        let arcs = g
            .arcs
            .iter()
            .map(|e| {
                let mut st = ArcState {
                    queue: VecDeque::new(),
                    freeing: Vec::new(),
                    cap: cfg.arc_capacity,
                    sent: 0,
                    consumed: 0,
                    acked: 0,
                    lost_result: 0,
                    lost_ack: 0,
                };
                if let Some(v) = e.initial {
                    st.queue.push_back((v, 0));
                    st.sent += 1;
                }
                st
            })
            .collect();
        if let Some(fz) = cfg
            .fault_plan
            .iter()
            .flat_map(|p| p.freezes.iter())
            .find(|fz| fz.node >= n)
        {
            return Err(MachineError::InvalidConfig(format!(
                "fault plan freezes cell {} but the graph has {} cells",
                fz.node, n
            )));
        }
        let fault = cfg.fault_plan.clone().filter(|p| !p.is_empty());
        let sched = Scheduler::new(cfg.kernel, n);
        let stop_slots = StopSlots::compile(&cfg.stop_outputs, &cells);
        Ok(Simulator {
            g,
            cfg,
            arcs,
            cells,
            now: 0,
            fwd_delay,
            ack_delay,
            am_fires: 0,
            fu_fires: 0,
            fault,
            sched,
            stop_slots,
            progress: 0,
            idle: 0,
            tracker: ProgressTracker::new(0),
            scratch: StepScratch::default(),
            pool: None,
            allow_epochs: false,
            epoch_stop_cap: 0,
            epoch: None,
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
    /// Delegates to [`plan_cell`] — the single planning implementation
    /// shared with the epoch engine's shard workers.
    fn plan(&self, n: NodeId) -> Result<Option<FirePlan>, SimError> {
        plan_cell(self.g, self, self.now, n)
    }

    /// Launch a result packet onto `a`, consulting the fault plan for
    /// its fate. Posts the destination's wakeup at the delivery time.
    fn emit_on(&mut self, a: ArcId, v: Value) {
        let ready = self.now + self.fwd_delay[a.idx()];
        let fate = match &self.fault {
            Some(f) => f.result_fate(a.idx(), self.now),
            None => ResultFate::Deliver,
        };
        let dst = self.g.arcs[a.idx()].dst.idx() as u32;
        if let Some(t) = emit_token(&mut self.arcs[a.idx()], v, ready, fate) {
            self.sched.wake(dst, t);
        }
    }

    fn fire(&mut self, n: NodeId, plan: FirePlan) {
        let now = self.now;
        for arc in plan.consumes() {
            let fate = match &self.fault {
                Some(f) => f.ack_fate(arc.idx(), now),
                None => AckFate::Deliver,
            };
            let src = self.g.arcs[arc.idx()].src.idx() as u32;
            let ack_at = now + self.ack_delay[arc.idx()];
            if let Some(t) = consume_token(&mut self.arcs[arc.idx()], ack_at, fate) {
                // The freed slot re-enables the arc's producer; its
                // wakeup also releases the slot (see `step_event`).
                self.sched.wake(src, t);
            }
        }
        let g = self.g;
        if let Some(v) = note_fire_cell(g, self, now, n, &plan) {
            for &a in &g.nodes[n.idx()].outputs {
                self.emit_on(a, v);
            }
        }
        // Re-examine a fired cell next step if it may be enabled again
        // with no new event (buffered output arcs, queued operands).
        if self.sched.is_event_driven() && may_refire(self.g, self, n.idx() as u32) {
            self.sched.wake(n.idx() as u32, now + 1);
        }
    }

    /// Advance one instruction time. Returns how many cells fired.
    ///
    /// Inside an eligible `run` (see [`Self::run_inner`]'s gate) the
    /// parallel kernel may instead execute a whole multi-step *epoch*
    /// and advance `now` by the proven horizon; the epoch path does its
    /// own per-sub-step tracker/idle bookkeeping, so it returns before
    /// the shared observation below. Every other parallel-kernel step
    /// is the sequential event step.
    pub fn step(&mut self) -> Result<usize, SimError> {
        if self.allow_epochs {
            if let Kernel::ParallelEvent(w) = self.cfg.kernel {
                if let Some(fired) = self.try_step_epoch(w)? {
                    return Ok(fired);
                }
            }
        }
        let fired = match self.cfg.kernel {
            Kernel::Scan => self.step_scan()?,
            Kernel::EventDriven | Kernel::ParallelEvent(_) => self.step_event()?,
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

    /// Contention throttling over the planned firings (in cell order).
    /// A throttled cell is still enabled and must be re-examined next
    /// step; the wakeup is a no-op for the scan kernel, which re-scans
    /// everything anyway.
    fn apply_throttle(&mut self, plans: &mut Vec<(u32, FirePlan)>) {
        let Some(res) = &self.cfg.resources else {
            return;
        };
        let mut budget = mem::take(&mut self.scratch.budget);
        budget.clear();
        budget.extend_from_slice(&res.capacity);
        let mut throttled = mem::take(&mut self.scratch.throttled);
        throttled.clear();
        plans.retain(|&(nid, _)| {
            let u = res.unit_of[nid as usize] as usize;
            if budget[u] > 0 {
                budget[u] -= 1;
                true
            } else {
                throttled.push(nid);
                false
            }
        });
        let now = self.now;
        for &nid in &throttled {
            self.sched.wake(nid, now + 1);
        }
        self.scratch.budget = budget;
        self.scratch.throttled = throttled;
    }

    /// The legacy O(cells) step: re-scan every cell.
    fn step_scan(&mut self) -> Result<usize, SimError> {
        let now = self.now;
        for st in &mut self.arcs {
            release_acks(st, now);
        }
        // Snapshot-enabled cells. Frozen cells need no thaw wakeup: the
        // scan re-examines everything every step.
        let mut plans = mem::take(&mut self.scratch.plans);
        plans.clear();
        for n in self.g.node_ids() {
            if let Some(f) = &self.fault {
                if f.frozen(n.idx(), now) {
                    continue;
                }
            }
            if let Some(p) = self.plan(n)? {
                plans.push((n.idx() as u32, p));
            }
        }
        self.apply_throttle(&mut plans);
        let count = plans.len();
        for &(nid, plan) in &plans {
            self.fire(NodeId(nid), plan);
        }
        self.scratch.plans = plans;
        self.now += 1;
        Ok(count)
    }

    /// The event-driven O(fired + woken) step: examine only cells with a
    /// pending wakeup (see [`crate::scheduler`] for the invariant).
    fn step_event(&mut self) -> Result<usize, SimError> {
        let (g, now) = (self.g, self.now);
        let mut due = mem::take(&mut self.scratch.due_nodes);
        self.sched.due_nodes(now, &mut due);
        // Release the acknowledge slots expiring now on the output arcs
        // of every due cell, frozen ones included. Every acknowledge
        // wakes its producer at the instant its slot frees, so the
        // producers of all slots expiring now are due, and every slot of
        // an arc expired before now was released at its own expiry: this
        // leaves the same state the scan kernel's release over every arc
        // does.
        for &nid in &due {
            for &a in &g.nodes[nid as usize].outputs {
                release_acks(&mut self.arcs[a.idx()], now);
            }
        }
        // Examine woken cells in index order (the scan order, which the
        // resource throttle and first-error selection depend on). A plan
        // error propagates before the thaw wakeups are posted and before
        // anything fires — planning has no side effects, so the machine
        // state is exactly the sequential error state. Frozen cells are
        // deferred to their thaw time.
        let mut plans = mem::take(&mut self.scratch.plans);
        let mut thaw = mem::take(&mut self.scratch.thawing);
        plans.clear();
        thaw.clear();
        for &nid in &due {
            if let Some(f) = &self.fault {
                if f.frozen(nid as usize, now) {
                    thaw.push((nid, f.thaw_time(nid as usize, now)));
                    continue;
                }
            }
            if let Some(p) = self.plan(NodeId(nid))? {
                plans.push((nid, p));
            }
        }
        self.scratch.due_nodes = due;
        for &(nid, at) in &thaw {
            self.sched.wake(nid, at);
        }
        self.apply_throttle(&mut plans);
        let count = plans.len();
        for &(nid, plan) in &plans {
            self.fire(NodeId(nid), plan);
        }
        self.scratch.plans = plans;
        self.scratch.thawing = thaw;
        self.now += 1;
        Ok(count)
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
    /// `epochs_out`, when present, receives the epoch engine's
    /// cumulative [`crate::shard::EpochStats`] before the call returns
    /// (both on completion and on pause).
    pub(crate) fn run_inner(
        mut self,
        pause_at: Option<u64>,
        mut sink: Option<&mut dyn FnMut(crate::snapshot::Snapshot)>,
        mut ff: Option<&mut crate::fastforward::FastForward>,
        epochs_out: Option<&mut crate::shard::EpochStats>,
    ) -> Result<RunPhase<'g>, SimError> {
        let wd = self.cfg.watchdog;
        let step_limit = match wd {
            Some(w) => self.cfg.max_steps.min(w.step_budget),
            None => self.cfg.max_steps,
        };
        // Epoch batching is legal only when every per-step decision the
        // run loop makes between epoch boundaries is provably inert:
        // no faults (freezes/fates), no resource throttle, no watchdog
        // straddle, no fast-forward observer, no per-step invariant
        // audit, no periodic checkpoint. Anything else falls back to
        // the sequential event step (H=1 behavior). See DESIGN.md §16.
        self.epoch_stop_cap = pause_at.map_or(step_limit, |p| step_limit.min(p));
        self.allow_epochs = matches!(self.cfg.kernel, Kernel::ParallelEvent(w) if w >= 2)
            && self.cfg.epoch_cap >= 2
            && ff.is_none()
            && self.fault.is_none()
            && self.cfg.resources.is_none()
            && wd.is_none()
            && !self.cfg.check_invariants
            && !(self.cfg.checkpoint_every != 0
                && (self.cfg.checkpoint_path.is_some() || sink.is_some()));
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
        let max_lat = self
            .fwd_delay
            .iter()
            .chain(self.ack_delay.iter())
            .copied()
            .max()
            .unwrap_or(1)
            + delay_slack;
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
                // Manual stepping of a paused machine must not epoch
                // (no run-scope legality proof covers it); the next
                // `run_inner` re-derives the gate.
                self.allow_epochs = false;
                if let Some(out) = epochs_out {
                    if let Some(eng) = &self.epoch {
                        *out = eng.stats.clone();
                    }
                }
                return Ok(RunPhase::Paused(Box::new(self)));
            }
            let fired = self.step()?;
            if self.cfg.check_invariants {
                self.check_invariants()?;
            }
            if let Some(f) = ff.as_deref_mut() {
                f.after_step(&mut self, fired as u64, pause_at, step_limit)?;
            }
            if self.cfg.checkpoint_every != 0
                && self.now.is_multiple_of(self.cfg.checkpoint_every)
                && (self.cfg.checkpoint_path.is_some() || sink.is_some())
            {
                let snap = crate::snapshot::Snapshot::capture(&self);
                if let Some(path) = &self.cfg.checkpoint_path {
                    snap.write_to(path)
                        .map_err(|e| MachineError::CheckpointIo {
                            path: path.clone(),
                            detail: e.to_string(),
                        })?;
                }
                if let Some(sink) = sink.as_mut() {
                    sink(snap);
                }
            }
        }
        if let Some(out) = epochs_out {
            if let Some(eng) = &self.epoch {
                *out = eng.stats.clone();
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
    pub(crate) fn check_invariants(&self) -> Result<(), SimError> {
        let step = self.now;
        for (i, st) in self.arcs.iter().enumerate() {
            let e = &self.g.arcs[i];
            let loc = format!("arc {i} (cell {} -> cell {})", e.src.idx(), e.dst.idx());
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
        Ok(())
    }
}

/// What a planned firing does: which input arcs it consumes (at most
/// two — the widest opcode arity that consumes, `Merge`, takes control
/// plus one selected data operand) and the value it emits, if any.
/// `Copy` with inline consume slots, so the per-step plan buffers never
/// allocate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FirePlan {
    pub(crate) consume: [Option<ArcId>; 2],
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
    pub(crate) fn consumes(&self) -> impl Iterator<Item = ArcId> + '_ {
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

    fn run_defaults(g: &Graph, inputs: ProgramInputs) -> Result<RunResult, SimError> {
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
            .kernel(Kernel::Scan)
            .run()
            .unwrap();
        let event = Simulator::builder(&g)
            .inputs(inputs)
            .kernel(Kernel::EventDriven)
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
        let r = Simulator::builder(&g).max_steps(2000).run().unwrap();
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
        let r = Simulator::builder(&g).max_steps(2000).run().unwrap();
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
        assert_eq!(err, SimError::MissingInput("b".into()));
    }

    #[test]
    fn type_fault_reported() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let and = g.cell(Opcode::Bin(BinOp::And), "and", &[a.into(), true.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[and.into()]);
        let err = run_defaults(&g, ProgramInputs::new().bind("a", reals(&[1.0]))).unwrap_err();
        assert!(matches!(err, SimError::Eval { .. }));
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
        assert!(matches!(err, SimError::NonBoolControl { .. }));
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
    fn fifo_expansion_required_for_manual_stepping() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let f = g.cell(Opcode::Fifo(2), "f", &[a.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[f.into()]);
        let err = Simulator::builder(&g)
            .inputs(ProgramInputs::new().bind("a", reals(&[1.0])))
            .build();
        assert!(matches!(err, Err(SimError::UnexpandedFifo(_))));
        // … but the all-in-one run path expands them transparently.
        let r = Simulator::builder(&g)
            .inputs(ProgramInputs::new().bind("a", reals(&[1.0, 2.0])))
            .run()
            .unwrap();
        assert_eq!(r.reals("out"), vec![1.0, 2.0]);
    }
}
