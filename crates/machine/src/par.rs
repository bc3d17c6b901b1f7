//! The parallel event-driven step: [`Kernel::ParallelEvent`]'s phased
//! execution of one instruction time across a persistent worker pool.
//!
//! # Why this is deterministic (DESIGN.md §11 carries the full argument)
//!
//! The machine is tick-synchronous: whether a cell fires at instruction
//! time `t`, and what it does, depends only on machine state at the
//! *start* of `t` — all enabled cells fire simultaneously. That makes
//! one tick's work embarrassingly parallel provided the phases stay
//! separated and the mutations merge in a canonical order:
//!
//! 1. **Release** — acknowledge slots expiring now are released on the
//!    output arcs of the due cells, sequentially on the calling thread
//!    (a handful of arcs per step; see `Simulator::release_due_acks`).
//! 2. **Plan** — the drained ready set (ascending cell ids) is split
//!    into contiguous chunks; planning is read-only, so workers share
//!    `&Simulator`. Concatenating the per-worker plan buffers in worker
//!    order restores exactly the sequential ascending-cell-id plan
//!    list. The first planning error in worker order is the error the
//!    sequential loop would have hit first (all lower cells planned
//!    clean), and it propagates before any wakeup or firing side
//!    effect — planning has no side effects, so the error state is
//!    bit-identical to the sequential kernels'.
//! 3. **Fire** — arc mutations are partitioned by *arc ownership*:
//!    every worker walks the full plan list in order and applies only
//!    the consumes/emits landing on arcs in its contiguous range. An
//!    arc sees at most one consume (its unique destination cell) and
//!    one emit (its unique source cell) per tick, and a consume moves a
//!    slot from `queue` to `freeing` without changing `occupied()`, so
//!    the two commute — including the `Duplicate` fault's capacity
//!    check. Fault fates are position-keyed (`hash_mix(seed, arc,
//!    step)`), not draw-order-keyed, so every worker resolves the same
//!    fates the sequential kernels do with no RNG coordination.
//!    Per-cell bookkeeping ([`Simulator::note_fire`] — the exact
//!    function the sequential `fire` uses) then runs sequentially over
//!    the plans in cell order, and buffered wakeups merge afterwards;
//!    wheel insertion order is irrelevant because posting a wakeup is
//!    an idempotent bit-set and a drain reads the bitmap in id order.
//!
//! The pool blocks workers on a condvar between ticks (never spins), so
//! oversubscribing a small machine degrades gracefully; ticks below
//! [`PAR_MIN_WORK`] ready items skip the fan-out entirely and run the
//! sequential step body, which produces identical results by the same
//! argument with one worker.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use valpipe_ir::graph::Graph;
use valpipe_ir::value::Value;
use valpipe_ir::NodeId;

use crate::error::SimError;
use crate::fault::{AckFate, ResultFate};
use crate::scheduler::{Kernel, Wheel};
use crate::shard::{EpochStats, ShardMap};
use crate::sim::{
    consume_token, emit_token, launch_value, may_refire, note_fire_cell, plan_cell, release_acks,
    ArcState, Cells, FirePlan, NoteSink, PlanView, Simulator, StopSlots, NO_SLOT,
};

/// Below this many due cells a tick runs the sequential step body
/// instead of dispatching to the pool: the phase barriers cost more than
/// the work. Results are identical either way.
pub(crate) const PAR_MIN_WORK: usize = 96;

/// Hard cap on `ParallelEvent(w)`; a worker beyond this adds only
/// scheduling overhead on any machine this simulator targets.
pub(crate) const MAX_WORKERS: usize = 32;

/// Per-worker buffers for one tick, reused across the whole run.
#[derive(Debug, Default)]
pub(crate) struct WorkerBuf {
    /// Plans from this worker's chunk of the ready set (phase 2).
    plans: Vec<(u32, FirePlan)>,
    /// Frozen cells deferred to their thaw time (phase 2).
    thaw: Vec<(u32, u64)>,
    /// First planning error in this worker's chunk (phase 2).
    err: Option<SimError>,
    /// Wakeups for cells, from acks freeing producer slots and packets
    /// reaching consumers on arcs this worker owns (phase 3).
    node_wakes: Vec<(u32, u64)>,
}

impl WorkerBuf {
    fn clear(&mut self) {
        self.plans.clear();
        self.thaw.clear();
        self.err = None;
        self.node_wakes.clear();
    }
}

/// Contiguous even partition of `0..len` into `parts` ranges (the first
/// `len % parts` ranges get the extra element).
fn chunk_ranges(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    let base = len / parts;
    let extra = len % parts;
    let mut start = 0;
    (0..parts).map(move |i| {
        let size = base + usize::from(i < extra);
        let r = start..start + size;
        start += size;
        r
    })
}

/// Split a slice into `parts` contiguous `(base index, sub-slice)`
/// shards — disjoint `&mut` views, one per worker.
fn split_shards<T>(items: &mut [T], parts: usize) -> Vec<(usize, &mut [T])> {
    let mut out = Vec::with_capacity(parts);
    let total = items.len();
    let mut rest = items;
    let mut base = 0;
    for r in chunk_ranges(total, parts) {
        let (head, tail) = rest.split_at_mut(r.len());
        out.push((base, head));
        base += r.len();
        rest = tail;
    }
    out
}

/// The job handed to workers: a borrowed closure with its lifetime
/// erased. Sound because [`Pool::run`] does not return until every
/// worker has finished the call, so the borrow outlives all uses.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared across workers by construction)
// and the pointer is only dereferenced while `Pool::run` keeps the
// referent alive.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per dispatched job so sleeping workers can tell a
    /// new job from the one they already ran.
    epoch: u64,
    /// Workers still running the current job.
    remaining: usize,
    /// A worker's job panicked (re-raised on the main thread).
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
}

/// A persistent pool of `workers − 1` blocked threads; the calling
/// thread acts as worker 0, so `ParallelEvent(w)` uses exactly `w`
/// threads during a tick and zero CPU between ticks.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    pub(crate) fn new(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..workers.max(1))
            .map(|wi| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("valpipe-par-{wi}"))
                    .spawn(move || worker_loop(&shared, wi))
                    .expect("spawn parallel kernel worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Total worker count, including the calling thread.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Run `f(worker_index)` once per worker, concurrently; returns
    /// after every call finished. Re-raises worker panics here.
    pub(crate) fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            f(0);
            return;
        }
        // SAFETY: erases `f`'s borrow lifetime from the stored pointer.
        // Sound because this function clears the job and does not return
        // until `remaining` hits zero, so no worker touches the pointer
        // after `f`'s borrow ends.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            st.job = Some(job);
            st.epoch += 1;
            st.remaining = self.handles.len();
        }
        self.shared.start.notify_all();
        f(0);
        let mut st = self.shared.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        if std::mem::take(&mut st.panicked) {
            drop(st);
            panic!("parallel kernel worker panicked");
        }
    }

    /// Run `f(worker_index, &mut shard[worker_index])` once per worker.
    /// Each worker locks only its own shard's mutex (uncontended), so
    /// this is plain safe Rust handing each worker exclusive access to
    /// its slice of the machine.
    pub(crate) fn run_sharded<T: Send>(&self, shards: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        debug_assert_eq!(shards.len(), self.workers());
        let slots: Vec<Mutex<&mut T>> = shards.iter_mut().map(Mutex::new).collect();
        self.run(&|wi| {
            let mut slot = slots[wi].lock().unwrap();
            f(wi, &mut slot);
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.start.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, wi: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    break;
                }
                st = shared.start.wait(st).unwrap();
            }
            seen = st.epoch;
            st.job.expect("job present while epoch advanced")
        };
        // SAFETY: `Pool::run` keeps the closure alive until `remaining`
        // reaches zero, which happens strictly after this call returns.
        let outcome = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.0 })(wi)));
        let mut st = shared.state.lock().unwrap();
        if outcome.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

impl Simulator<'_> {
    /// One instruction time under [`Kernel::ParallelEvent`].
    pub(crate) fn step_parallel(&mut self, workers: usize) -> Result<usize, SimError> {
        let mut due = std::mem::take(&mut self.scratch.due_nodes);
        self.sched.due_nodes(self.now, &mut due);
        let w = workers.clamp(1, MAX_WORKERS);
        let r = if w < 2 || due.len() < PAR_MIN_WORK {
            self.step_ready(&due)
        } else {
            self.step_ready_parallel(w, &due)
        };
        self.scratch.due_nodes = due;
        r
    }

    fn step_ready_parallel(&mut self, w: usize, due: &[u32]) -> Result<usize, SimError> {
        debug_assert!(matches!(self.cfg.kernel, Kernel::ParallelEvent(_)));
        let now = self.now;
        if self.pool.as_ref().is_none_or(|p| p.workers() != w) {
            self.pool = Some(Pool::new(w));
        }
        let mut bufs = std::mem::take(&mut self.scratch.bufs);
        bufs.resize_with(w, WorkerBuf::default);
        for b in &mut bufs {
            b.clear();
        }

        // Phase 1: release the acknowledge slots expiring now.
        self.release_due_acks(due);

        // Phase 2: plan, read-only over the whole machine; the ready
        // set is chunked contiguously so concatenation preserves the
        // ascending cell order.
        {
            let this: &Simulator = self;
            let pool = self.pool.as_ref().expect("pool created above");
            let mut shards: Vec<(Range<usize>, &mut WorkerBuf)> =
                chunk_ranges(due.len(), w).zip(bufs.iter_mut()).collect();
            pool.run_sharded(&mut shards, |_wi, (range, buf)| {
                if let Err(e) = this.plan_due(&due[range.clone()], &mut buf.plans, &mut buf.thaw) {
                    buf.err = Some(e);
                }
            });
        }
        let mut first_err = None;
        for b in &mut bufs {
            let e = b.err.take();
            if first_err.is_none() {
                first_err = e;
            }
        }
        if let Some(e) = first_err {
            self.scratch.bufs = bufs;
            return Err(e);
        }
        let mut plans = std::mem::take(&mut self.scratch.plans);
        plans.clear();
        for b in &bufs {
            plans.extend_from_slice(&b.plans);
        }
        for b in &bufs {
            for &(nid, at) in &b.thaw {
                self.sched.wake(nid, at);
            }
        }
        self.apply_throttle(&mut plans);

        // Phase 3: fire. Every worker walks the full plan list in order
        // and applies the consume/emit operations landing on its arc
        // range; wakeups are buffered per worker.
        {
            let g = self.g;
            let fault = &self.fault;
            let fwd = &self.fwd_delay;
            let ack = &self.ack_delay;
            let plans: &[(u32, FirePlan)] = &plans;
            let pool = self.pool.as_ref().expect("pool created above");
            let mut shards: Vec<((usize, &mut [_]), &mut WorkerBuf)> =
                split_shards(&mut self.arcs, w)
                    .into_iter()
                    .zip(bufs.iter_mut())
                    .collect();
            pool.run_sharded(&mut shards, |_wi, ((base, slice), buf)| {
                let (base, end) = (*base, *base + slice.len());
                for &(nid, plan) in plans {
                    for arc in plan.consumes() {
                        let i = arc.idx();
                        if i < base || i >= end {
                            continue;
                        }
                        let fate = match fault {
                            Some(f) => f.ack_fate(i, now),
                            None => AckFate::Deliver,
                        };
                        if let Some(t) = consume_token(&mut slice[i - base], now + ack[i], fate) {
                            // The freed slot re-enables the arc's producer.
                            buf.node_wakes.push((g.arcs[i].src.idx() as u32, t));
                        }
                    }
                    if let Some(v) = launch_value(g, nid, &plan) {
                        for &a in &g.nodes[nid as usize].outputs {
                            let i = a.idx();
                            if i < base || i >= end {
                                continue;
                            }
                            let fate = match fault {
                                Some(f) => f.result_fate(i, now),
                                None => ResultFate::Deliver,
                            };
                            if let Some(t) = emit_token(&mut slice[i - base], v, now + fwd[i], fate)
                            {
                                buf.node_wakes.push((g.arcs[i].dst.idx() as u32, t));
                            }
                        }
                    }
                }
            });
        }

        // Merge: per-cell bookkeeping in plan (= cell) order — the same
        // `note_fire` the sequential fire loop runs — then the buffered
        // wakeups (insertion order is irrelevant: posting is an
        // idempotent bit-set).
        let count = plans.len();
        for &(nid, plan) in &plans {
            self.note_fire(NodeId(nid), &plan);
            // Re-examine a fired cell next step if it may be enabled
            // again with no new event.
            if may_refire(self.g, &*self, nid) {
                self.sched.wake(nid, now + 1);
            }
        }
        for b in &bufs {
            for &(n, t) in &b.node_wakes {
                self.sched.wake(n, t);
            }
        }
        plans.clear();
        self.scratch.plans = plans;
        self.scratch.bufs = bufs;
        self.now += 1;
        Ok(count)
    }
}

// ---------------------------------------------------------------------------
// Epoch-batched execution (DESIGN.md §16).
//
// The per-step parallel kernel above pays two barrier handoffs per
// instruction time. The epoch engine amortizes them: the global wheel
// knows the earliest pending wakeup, and influence spreads at most one
// undirected hop per step (every result and acknowledge delay is ≥ 1),
// so a BFS distance from each cell to the nearest shard boundary turns
// the pending-wakeup set into a proven horizon `h` during which no
// inter-shard token can land. Each shard then runs `h` whole steps on
// its own private wheels with zero synchronization, and the merge
// replays per-sub-step bookkeeping canonically — bit-identical to the
// sequential kernels.

/// Interior-mutability wrapper for machine state shared across shard
/// workers. Soundness contract: the shard map partitions cells and arcs,
/// every worker only dereferences entries its shard owns (checked by
/// `debug_assert` in the accessors below), and the proven horizon
/// guarantees no cross-shard entry is touched at all.
#[repr(transparent)]
struct ShardCell<T>(UnsafeCell<T>);

// SAFETY: disjoint access per the shard map; see the type's contract.
unsafe impl<T: Send> Sync for ShardCell<T> {}

impl<T> ShardCell<T> {
    fn get(&self) -> *mut T {
        self.0.get()
    }
}

/// Reinterpret an exclusively borrowed slice as shard-shareable cells.
/// `ShardCell<T>` is `repr(transparent)` over `UnsafeCell<T>`, which is
/// `repr(transparent)` over `T`, so the layouts match exactly.
fn share<T>(xs: &mut [T]) -> &[ShardCell<T>] {
    unsafe { &*(xs as *mut [T] as *const [ShardCell<T>]) }
}

/// One sink's output record: port name plus `(arrival time, value)` log.
type OutputLog = (String, Vec<(u64, Value)>);

/// Every piece of machine state a shard worker reads or writes during an
/// epoch, pre-split into disjointly-owned (`ShardCell`) and genuinely
/// read-only slices.
struct MachineShared<'a> {
    g: &'a Graph,
    arcs: &'a [ShardCell<ArcState>],
    src_pos: &'a [ShardCell<usize>],
    ctl_pos: &'a [ShardCell<u64>],
    fires: &'a [ShardCell<u64>],
    gate_passes: &'a [ShardCell<u64>],
    gate_discards: &'a [ShardCell<u64>],
    fire_times: Option<&'a [ShardCell<Vec<u64>>]>,
    outputs: &'a [ShardCell<OutputLog>],
    emit_times: &'a [ShardCell<(String, Vec<u64>)>],
    src_data: &'a [Option<Vec<Value>>],
    sink_slot: &'a [u32],
    src_slot: &'a [u32],
    fwd: &'a [u64],
    ack: &'a [u64],
}

/// One shard's view of the machine during an epoch: implements the same
/// [`PlanView`]/[`NoteSink`] traits the `Simulator` does, over the
/// shared slices, so `plan_cell`/`note_fire_cell` are shared verbatim.
struct ShardExec<'a> {
    shared: &'a MachineShared<'a>,
    map: &'a ShardMap,
    shard: u32,
    /// Source emissions + sink arrivals this sub-step (delta, merged
    /// into `Simulator::progress` during replay).
    progress: u64,
    am: u64,
    fu: u64,
}

impl ShardExec<'_> {
    #[inline]
    fn check_cell(&self, i: usize) {
        debug_assert_eq!(
            self.map.cell_shard[i], self.shard,
            "shard touched a cell it does not own"
        );
    }
}

impl PlanView for ShardExec<'_> {
    fn arc(&self, a: usize) -> &ArcState {
        debug_assert_eq!(self.map.arc_shard[a], self.shard);
        debug_assert!(!self.map.arc_cross[a], "epoch touched a cross arc");
        unsafe { &*self.shared.arcs[a].get() }
    }
    fn ctl_pos(&self, i: usize) -> u64 {
        self.check_cell(i);
        unsafe { *self.shared.ctl_pos[i].get() }
    }
    fn src_pos(&self, i: usize) -> usize {
        self.check_cell(i);
        unsafe { *self.shared.src_pos[i].get() }
    }
    fn src_data(&self, i: usize) -> Option<&[Value]> {
        self.shared.src_data[i].as_deref()
    }
}

impl NoteSink for ShardExec<'_> {
    fn bump_gate(&mut self, i: usize, pass: bool) {
        self.check_cell(i);
        unsafe {
            if pass {
                *self.shared.gate_passes[i].get() += 1;
            } else {
                *self.shared.gate_discards[i].get() += 1;
            }
        }
    }
    fn record_output(&mut self, i: usize, t: u64, v: Value) {
        self.check_cell(i);
        let slot = self.shared.sink_slot[i] as usize;
        unsafe { (*self.shared.outputs[slot].get()).1.push((t, v)) };
        self.progress += 1;
    }
    fn advance_source(&mut self, i: usize, t: u64) {
        self.check_cell(i);
        let slot = self.shared.src_slot[i] as usize;
        unsafe {
            *self.shared.src_pos[i].get() += 1;
            (*self.shared.emit_times[slot].get()).1.push(t);
        }
        self.progress += 1;
    }
    fn advance_ctl(&mut self, i: usize) {
        self.check_cell(i);
        unsafe { *self.shared.ctl_pos[i].get() += 1 };
    }
    fn count_fire(&mut self, i: usize, t: u64, am: bool, fu: bool) {
        self.check_cell(i);
        unsafe {
            *self.shared.fires[i].get() += 1;
            if let Some(ft) = self.shared.fire_times {
                (*ft[i].get()).push(t);
            }
        }
        if am {
            self.am += 1;
        }
        if fu {
            self.fu += 1;
        }
    }
}

/// One shard's private execution state, reused across epochs.
struct ShardState {
    wheel: Wheel,
    due: Vec<u32>,
    plans: Vec<(u32, FirePlan)>,
    /// Per sub-step `(fired, progress delta)` — the canonical replay
    /// feed for tracker/idle bookkeeping on the merge side.
    log: Vec<(u32, u32)>,
    /// First error this shard hit: `(sub-step, cell id, error)`.
    err: Option<(u64, u32, SimError)>,
    am: u64,
    fu: u64,
}

impl ShardState {
    fn new(cells: usize) -> ShardState {
        ShardState {
            wheel: Wheel::new(0, cells),
            due: Vec::new(),
            plans: Vec::new(),
            log: Vec::new(),
            err: None,
            am: 0,
            fu: 0,
        }
    }
}

/// The epoch engine: topology shard map plus per-shard wheels and
/// scratch. Like `StepScratch`, an execution-strategy artifact — never
/// snapshotted, rebuilt lazily after a restore.
pub(crate) struct EpochEngine {
    map: ShardMap,
    /// Longest packet latency (fault-free, so no slack term) — the
    /// quiescence window, mirroring `run`'s `max_lat`.
    max_lat: u64,
    /// Per output slot: how many sink cells feed it (bounds how fast a
    /// `stop_outputs` target can fill).
    sink_feeders: Vec<u32>,
    shards: Vec<ShardState>,
    pending: Vec<(u32, u64)>,
    pub(crate) stats: EpochStats,
}

impl EpochEngine {
    fn new(
        g: &Graph,
        cells: &Cells,
        policy: crate::shard::ShardPolicy,
        workers: usize,
        fwd: &[u64],
        ack: &[u64],
    ) -> EpochEngine {
        let map = ShardMap::build(g, policy, workers);
        let max_lat = fwd.iter().chain(ack.iter()).copied().max().unwrap_or(1);
        let mut sink_feeders = vec![0u32; cells.outputs.len()];
        for &s in &cells.sink_slot {
            if s != NO_SLOT {
                sink_feeders[s as usize] += 1;
            }
        }
        let stats = EpochStats {
            shards: workers as u32,
            cross_arcs: map.cross_arcs,
            shard_cells: map.shard_cells.clone(),
            ..EpochStats::default()
        };
        EpochEngine {
            map,
            max_lat,
            sink_feeders,
            shards: (0..workers)
                .map(|_| ShardState::new(g.nodes.len()))
                .collect(),
            pending: Vec::new(),
            stats,
        }
    }
}

/// Upper bound on the epoch length such that a `stop_outputs` target
/// cannot become satisfied strictly *inside* the epoch (the run loop
/// only checks it at step boundaries). Every watched slot must reach its
/// count, and a slot with `f` feeder cells gains at most `f` packets per
/// step, so the slot needing the most steps governs: `ceil(r / f)` steps
/// keep the target unmet for the first `ceil(r / f) - 1 + 1` loop-top
/// checks. Returns 1 (forcing fallback) if the target is already met.
fn output_horizon_bound(
    stop: &StopSlots,
    outputs: &[(String, Vec<(u64, Value)>)],
    feeders: &[u32],
) -> u64 {
    let StopSlots::Watch(watch) = stop else {
        // No reachable target: `Inactive` never stops, `Never` never
        // fills. Either way the bound is vacuous.
        return u64::MAX;
    };
    let mut bound = u64::MAX;
    let mut unfilled = false;
    for &(slot, count) in watch {
        let have = outputs[slot as usize].1.len();
        if have >= count {
            continue;
        }
        unfilled = true;
        let remaining = (count - have) as u64;
        let f = feeders[slot as usize] as u64;
        if f == 0 {
            continue; // can never fill; no constraint from this slot
        }
        bound = bound.min(remaining.div_ceil(f));
    }
    if unfilled {
        bound
    } else {
        1 // target already met: the loop top must see it now
    }
}

/// Run shard `s` alone for `h` sub-steps starting at `t0`. Pure shard
/// work: private wheels, owned cells/arcs, no fault hooks (the epoch
/// gate proved the run fault-free). Errors stop the shard; the merge
/// side picks the canonical first error across shards.
fn run_shard(
    shared: &MachineShared<'_>,
    map: &ShardMap,
    s: u32,
    st: &mut ShardState,
    t0: u64,
    h: u64,
) {
    let mut exec = ShardExec {
        shared,
        map,
        shard: s,
        progress: 0,
        am: 0,
        fu: 0,
    };
    for k in 0..h {
        let t = t0 + k;
        // Due cells come out distinct and ascending — the canonical
        // tie-break order.
        st.wheel.drain(t, &mut st.due);
        // Phase 1: release the acknowledge slots expiring now on the
        // due cells' output arcs. A due cell is interior (dist > 0), so
        // none of its arcs crosses a shard.
        for &nid in &st.due {
            debug_assert_eq!(map.cell_shard[nid as usize], s);
            debug_assert!(
                map.dist[nid as usize] > 0,
                "boundary cell examined inside a proven horizon"
            );
            for &a in &shared.g.nodes[nid as usize].outputs {
                debug_assert!(!map.arc_cross[a.idx()]);
                release_acks(unsafe { &mut *shared.arcs[a.idx()].get() }, t);
            }
        }
        // Phase 2: plan the due cells.
        st.plans.clear();
        for &nid in &st.due {
            match plan_cell(shared.g, &exec, t, NodeId(nid)) {
                Ok(Some(plan)) => st.plans.push((nid, plan)),
                Ok(None) => {}
                Err(e) => {
                    st.err = Some((k, nid, e));
                    return;
                }
            }
        }
        // Phase 3: fire in ascending cell order.
        let progress_before = exec.progress;
        for i in 0..st.plans.len() {
            let (nid, plan) = st.plans[i];
            for arc in plan.consumes() {
                let a = arc.idx();
                let src = shared.g.arcs[a].src.idx() as u32;
                let ack_at = t + shared.ack[a];
                let arc_st = unsafe { &mut *shared.arcs[a].get() };
                if let Some(ft) = consume_token(arc_st, ack_at, AckFate::Deliver) {
                    st.wheel.push(src, ft);
                }
            }
            if let Some(v) = note_fire_cell(shared.g, &mut exec, t, NodeId(nid), &plan) {
                for &a in &shared.g.nodes[nid as usize].outputs {
                    let ai = a.idx();
                    debug_assert!(!map.arc_cross[ai], "epoch emitted onto a cross arc");
                    let dst = shared.g.arcs[ai].dst.idx() as u32;
                    let ready = t + shared.fwd[ai];
                    let arc_st = unsafe { &mut *shared.arcs[ai].get() };
                    if let Some(rt) = emit_token(arc_st, v, ready, ResultFate::Deliver) {
                        st.wheel.push(dst, rt);
                    }
                }
            }
            if may_refire(shared.g, &exec, nid) {
                st.wheel.push(nid, t + 1);
            }
        }
        st.log.push((
            st.plans.len() as u32,
            (exec.progress - progress_before) as u32,
        ));
    }
    st.am = exec.am;
    st.fu = exec.fu;
}

impl Simulator<'_> {
    /// Attempt an epoch-batched multi-step advance (DESIGN.md §16).
    /// Returns `Ok(None)` when no horizon ≥ 2 is provable right now —
    /// the caller falls back to the ordinary per-step parallel kernel
    /// for exactly one step. `Ok(Some(fired))` reports the fire count
    /// of the *last* sub-step executed, matching what a sequence of
    /// `step()` calls would have returned last.
    pub(crate) fn try_step_epoch(&mut self, workers: usize) -> Result<Option<usize>, SimError> {
        let w = workers.clamp(2, MAX_WORKERS);
        if self.epoch.is_none() {
            self.epoch = Some(Box::new(EpochEngine::new(
                self.g,
                &self.cells,
                self.cfg.shard_policy,
                w,
                &self.fwd_delay,
                &self.ack_delay,
            )));
        }
        let mut eng = self.epoch.take().expect("engine just installed");
        let res = self.epoch_step(&mut eng, w);
        self.epoch = Some(eng);
        res
    }

    fn epoch_step(&mut self, eng: &mut EpochEngine, w: usize) -> Result<Option<usize>, SimError> {
        if !eng.map.viable {
            return Ok(None);
        }
        let t0 = self.now;
        // The epoch may not run past the pause/step-limit boundary, and
        // may not let a stop_outputs target fill strictly inside it.
        let cap = self
            .cfg
            .epoch_cap
            .min(self.epoch_stop_cap.saturating_sub(t0))
            .min(output_horizon_bound(
                &self.stop_slots,
                &self.cells.outputs,
                &eng.sink_feeders,
            ));
        if cap < 2 {
            eng.stats.horizon_fallbacks += 1;
            return Ok(None);
        }
        // Horizon probe: the earliest step at which any pending wakeup
        // could influence a boundary cell. A wakeup at (i, t) reaches
        // the boundary no earlier than t + dist[i]. A pending
        // acknowledge is a wakeup of its producer, so one on a cross
        // arc scores t: its producer is a boundary cell. All delays are
        // ≥ 1 and influence moves one undirected hop per step
        // (DESIGN.md §16 for the induction).
        let horizon_limit = t0.saturating_add(cap);
        let mut q = u64::MAX;
        let mut deferred: u64 = 0;
        let dist = &eng.map.dist;
        self.sched.for_each_pending(|id, t| {
            let score = t.saturating_add(dist[id as usize]);
            if score < horizon_limit {
                deferred += 1;
            }
            q = q.min(score);
        });
        let h = cap.min(q.saturating_sub(t0));
        if h < 2 {
            eng.stats.horizon_fallbacks += 1;
            return Ok(None);
        }
        // `deferred` counted wakeups scoring inside the *cap* window;
        // only those inside the proven horizon were actually deferred.
        let deferred = if h < cap { deferred } else { 0 };

        // Route the global wheel's contents onto per-shard wheels.
        let mut pending = std::mem::take(&mut eng.pending);
        pending.clear();
        self.sched.take_all(&mut pending);
        for st in &mut eng.shards {
            st.wheel.reset(t0);
            st.log.clear();
            st.err = None;
            st.am = 0;
            st.fu = 0;
        }
        for &(id, t) in &pending {
            let s = eng.map.cell_shard[id as usize] as usize;
            eng.shards[s].wheel.push(id, t);
        }

        if self.pool.as_ref().is_none_or(|p| p.workers() != w) {
            self.pool = Some(Pool::new(w));
        }

        // Split the machine into disjointly-aliased shared slices and
        // run every shard for `h` steps with no synchronization.
        {
            let Cells {
                src_pos,
                src_data,
                ctl_pos,
                fires,
                gate_passes,
                gate_discards,
                fire_times,
                sink_slot,
                src_slot,
                outputs,
                emit_times,
            } = &mut self.cells;
            let shared = MachineShared {
                g: self.g,
                arcs: share(self.arcs.as_mut_slice()),
                src_pos: share(src_pos.as_mut_slice()),
                ctl_pos: share(ctl_pos.as_mut_slice()),
                fires: share(fires.as_mut_slice()),
                gate_passes: share(gate_passes.as_mut_slice()),
                gate_discards: share(gate_discards.as_mut_slice()),
                fire_times: fire_times.as_mut().map(|v| share(v.as_mut_slice())),
                outputs: share(outputs.as_mut_slice()),
                emit_times: share(emit_times.as_mut_slice()),
                src_data: src_data.as_slice(),
                sink_slot: sink_slot.as_slice(),
                src_slot: src_slot.as_slice(),
                fwd: self.fwd_delay.as_slice(),
                ack: self.ack_delay.as_slice(),
            };
            let map = &eng.map;
            let pool = self.pool.as_ref().expect("pool just ensured");
            pool.run_sharded(&mut eng.shards, |s, st| {
                run_shard(&shared, map, s as u32, st, t0, h);
            });
        }

        // Canonical first error: the sequential kernels would have hit
        // the (sub-step, cell id)-minimal error first and stopped there.
        // Overrun mutations from other shards are unobservable — the
        // erroring run is consumed by `run_inner` and dropped.
        if let Some(best) = eng
            .shards
            .iter_mut()
            .filter_map(|st| st.err.take())
            .min_by_key(|&(k, nid, _)| (k, nid))
        {
            eng.pending = pending;
            return Err(best.2);
        }

        // Replay the per-sub-step bookkeeping exactly as `h` ordinary
        // `step()` calls inside `run` would have: observe after each
        // step, and stop early where `run`'s loop top would have broken
        // for quiescence (fault-free, so its freeze window is zero).
        let mut executed = h;
        let mut truncated = false;
        let mut last_fired: usize = 0;
        for k in 0..h {
            if self.idle > eng.max_lat && (t0 + k) > eng.max_lat {
                executed = k;
                truncated = true;
                break;
            }
            let mut fired: u64 = 0;
            let mut prog: u64 = 0;
            for st in &eng.shards {
                let (f, p) = st.log[k as usize];
                fired += f as u64;
                prog += p as u64;
            }
            self.progress += prog;
            self.tracker.observe(t0 + k + 1, fired, self.progress);
            if fired == 0 {
                self.idle += 1;
            } else {
                self.idle = 0;
            }
            last_fired = fired as usize;
        }
        self.now = t0 + executed;
        for st in &eng.shards {
            self.am_fires += st.am;
            self.fu_fires += st.fu;
        }

        if truncated {
            // Quiescence truncation (DESIGN.md §16): past the break
            // point every sub-step fired nothing and mutated nothing,
            // and all wakeups from earlier fires had already drained —
            // the shard wheels hold nothing the truncated timeline can
            // still owe. Discard defensively and rebase.
            for st in &mut eng.shards {
                st.wheel.reset(0);
            }
            self.sched.rebase(self.now);
        } else {
            // Merge leftover shard wakeups (all ≥ t0 + h by the drain
            // loop) back onto the rebased global wheel.
            self.sched.rebase(self.now);
            for st in &mut eng.shards {
                pending.clear();
                st.wheel.take_all(&mut pending);
                for &(id, at) in &pending {
                    self.sched.wake(id, at);
                }
            }
        }

        eng.stats.epochs += 1;
        eng.stats.batched_steps += executed;
        eng.stats.cross_wakes_deferred += deferred;
        eng.pending = pending;
        Ok(Some(last_fired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_worker_and_is_reusable() {
        let pool = Pool::new(4);
        assert_eq!(pool.workers(), 4);
        for round in 1..=3usize {
            let hits = AtomicUsize::new(0);
            let mask = AtomicUsize::new(0);
            pool.run(&|wi| {
                hits.fetch_add(1, Ordering::SeqCst);
                mask.fetch_or(1 << wi, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 4, "round {round}");
            assert_eq!(
                mask.load(Ordering::SeqCst),
                0b1111,
                "each worker ran exactly once"
            );
        }
    }

    #[test]
    fn single_worker_pool_spawns_no_threads() {
        let pool = Pool::new(1);
        assert_eq!(pool.workers(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(&|wi| {
            assert_eq!(wi, 0);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn run_sharded_hands_each_worker_its_own_shard() {
        let pool = Pool::new(3);
        let mut shards = vec![0usize; 3];
        pool.run_sharded(&mut shards, |wi, v| *v = wi + 10);
        assert_eq!(shards, vec![10, 11, 12]);
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for (len, parts) in [(0, 3), (5, 2), (7, 3), (8, 4), (3, 8)] {
            let ranges: Vec<_> = chunk_ranges(len, parts).collect();
            assert_eq!(ranges.len(), parts);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous");
                covered = r.end;
            }
            assert_eq!(covered, len, "complete for len={len} parts={parts}");
        }
    }

    #[test]
    fn split_shards_bases_match_offsets() {
        let mut items: Vec<u32> = (0..10).collect();
        let shards = split_shards(&mut items, 3);
        for (base, slice) in &shards {
            for (k, v) in slice.iter().enumerate() {
                assert_eq!(*v as usize, base + k);
            }
        }
    }
}
