//! The parallel mechanism of
//! [`Kernel::ParallelEvent`](crate::scheduler::Kernel::ParallelEvent):
//! epoch-batched execution (DESIGN.md §16) on a persistent worker pool.
//!
//! The machine is tick-synchronous and each cell does very little work
//! per tick, so synchronizing workers every instruction time costs more
//! than the tick's fires. The epoch engine synchronizes once per epoch
//! instead: it proves a horizon during which no token can cross a shard
//! boundary, runs every shard that many whole steps with no
//! synchronization, then replays the per-step bookkeeping canonically.
//! A step for which no horizon of at least 2 is provable — and every
//! step of a run whose features make the horizon unprovable (faults,
//! throttles, watchdogs, fast-forward, checkpoints, `epoch_cap < 2`) —
//! runs the sequential event-driven step body, so it is bit-identical
//! by construction.
//!
//! The pool blocks workers on a condvar between epochs (never spins), so
//! oversubscribing a small machine degrades gracefully.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use valpipe_ir::graph::Graph;
use valpipe_ir::value::Value;

use crate::code::MachineCode;
use crate::error::SimError;
use crate::fault::{AckFate, ResultFate};
use crate::scheduler::Wheel;
use crate::shard::{EpochStats, ShardMap};
use crate::sim::{
    consume_token, emit_token, may_refire, note_fire_cell, plan_cell, release_acks, ArcState,
    Cells, Fault, FirePlan, NoteSink, PlanView, Simulator, StopSlots, NO_SLOT,
};

/// Hard cap on `ParallelEvent(w)`; a worker beyond this adds only
/// scheduling overhead on any machine this simulator targets.
pub(crate) const MAX_WORKERS: usize = 32;

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
/// threads during an epoch and zero CPU between epochs.
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

// ---------------------------------------------------------------------------
// Epoch-batched execution (DESIGN.md §16).
//
// One pool dispatch per epoch, not per instruction time: the global
// wheel knows the earliest pending wakeup, and influence spreads at most one
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
    code: &'a MachineCode,
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
    /// First fault this shard hit: `(sub-step, cell id, fault)`.
    err: Option<(u64, u32, Fault)>,
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
    let code = shared.code;
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
            for &a in code.outs(code.cell(nid)) {
                debug_assert!(!map.arc_cross[a as usize]);
                release_acks(unsafe { &mut *shared.arcs[a as usize].get() }, t);
            }
        }
        // Phase 2: plan the due cells.
        st.plans.clear();
        for &nid in &st.due {
            match plan_cell(code, &exec, t, nid) {
                Ok(Some(plan)) => st.plans.push((nid, plan)),
                Ok(None) => {}
                Err(f) => {
                    st.err = Some((k, nid, f));
                    return;
                }
            }
        }
        // Phase 3: fire in ascending cell order.
        let progress_before = exec.progress;
        for i in 0..st.plans.len() {
            let (nid, plan) = st.plans[i];
            for arc in plan.consumes() {
                let a = arc as usize;
                let ack_at = t + shared.ack[a];
                let arc_st = unsafe { &mut *shared.arcs[a].get() };
                if let Some(ft) = consume_token(arc_st, ack_at, AckFate::Deliver) {
                    st.wheel.push(code.arc_src[a], ft);
                }
            }
            if let Some(v) = note_fire_cell(code, &mut exec, t, nid, &plan) {
                for &a in code.outs(code.cell(nid)) {
                    let ai = a as usize;
                    debug_assert!(!map.arc_cross[ai], "epoch emitted onto a cross arc");
                    let ready = t + shared.fwd[ai];
                    let arc_st = unsafe { &mut *shared.arcs[ai].get() };
                    if let Some(rt) = emit_token(arc_st, v, ready, ResultFate::Deliver) {
                        st.wheel.push(code.arc_dst[ai], rt);
                    }
                }
            }
            if may_refire(code, &exec, nid) {
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
    /// the caller runs the sequential event step for exactly one step. `Ok(Some(fired))` reports the fire count
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
                code: &self.code,
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
            return Err(best.2.at(self.g, best.1));
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

    use valpipe_ir::opcode::Opcode;
    use valpipe_ir::value::BinOp;

    use crate::fastforward::FastForward;
    use crate::fault::FaultPlan;
    use crate::scheduler::Kernel;
    use crate::session::SimConfig;
    use crate::sim::{ProgramInputs, RunPhase, RunResult};
    use crate::watchdog::WatchdogConfig;

    /// `chains` independent pipelines side by side: hundreds of cells
    /// are due every steady-state step.
    fn dense(chains: usize, stages: usize) -> (Graph, ProgramInputs) {
        let mut g = Graph::new();
        let mut inputs = ProgramInputs::new();
        for c in 0..chains {
            let name = format!("a{c}");
            let mut prev = g.add_node(Opcode::Source(name.clone()), &name);
            for k in 0..stages {
                prev = g.cell(
                    Opcode::Bin(BinOp::Add),
                    format!("s{c}_{k}"),
                    &[prev.into(), (k as f64).into()],
                );
            }
            let _ = g.cell(
                Opcode::Sink(format!("y{c}")),
                format!("y{c}"),
                &[prev.into()],
            );
            let vals: Vec<f64> = (0..32).map(|i| (i * c) as f64).collect();
            inputs = inputs.bind_reals(&name, &vals);
        }
        (g, inputs)
    }

    /// Run `cfg` to completion, pausing every 8 steps; returns whether
    /// the worker pool existed at any pause, the result, and the epoch
    /// engine's cumulative stats.
    fn run_watching_pool(
        g: &Graph,
        inputs: &ProgramInputs,
        cfg: SimConfig,
        fast_forward: bool,
    ) -> (bool, RunResult, EpochStats) {
        let mut sim = Simulator::with_config(g, inputs, cfg).expect("valid config");
        let mut ff = fast_forward
            .then(|| FastForward::new(&sim, 1, false).expect("fault-free run admits fast-forward"));
        let mut pooled = false;
        let mut stats = EpochStats::default();
        loop {
            let pause = sim.now() + 8;
            match sim
                .run_inner(Some(pause), None, ff.as_mut(), Some(&mut stats))
                .expect("run succeeds")
            {
                RunPhase::Paused(s) => {
                    pooled |= s.pool.is_some();
                    sim = *s;
                }
                RunPhase::Done(r) => return (pooled, *r, stats),
            }
        }
    }

    #[test]
    fn runs_that_cannot_batch_never_start_the_pool() {
        let (g, inputs) = dense(128, 6);
        let par4 = || SimConfig::new().kernel(Kernel::ParallelEvent(4));
        let fault = FaultPlan::parse("seed=7,delay_result=0.001").expect("valid fault spec");
        for (name, cfg, ff) in [
            ("fault plan", par4().fault_plan(fault), false),
            (
                "watchdog",
                par4().watchdog(WatchdogConfig::default()),
                false,
            ),
            ("epoch_cap 1", par4().epoch_cap(1), false),
            ("fast-forward", par4(), true),
            ("default", par4(), false),
        ] {
            let event = cfg.clone().kernel(Kernel::EventDriven);
            let (_, reference, _) = run_watching_pool(&g, &inputs, event, ff);
            let (pooled, r, stats) = run_watching_pool(&g, &inputs, cfg, ff);
            assert_eq!(r, reference, "{name}: differs from the event kernel");
            if name == "default" {
                assert!(pooled, "a default-config run must batch on the pool");
                assert!(stats.epochs > 0, "a default-config run must record epochs");
            } else {
                assert!(!pooled, "{name}: a run that cannot batch started the pool");
                assert_eq!(stats.epochs, 0, "{name}");
            }
        }
    }

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
}
