//! Steady-state fast-forward: detect a periodic machine state and skip
//! whole hyperperiods analytically.
//!
//! The paper's central result is that a balanced pipe-structured
//! program reaches a *periodic* steady state — every cell fires once
//! per two instruction times, every token on every arc is re-created
//! two steps later, one period further along its input stream. Event
//! simulation pays for every one of those steps even though each window
//! is a time-shifted copy of the previous one. This module makes that
//! observation executable: it watches the run for a period `P` at which
//! the machine state is a pure time-shift of itself, proves the shift
//! exact, and then advances `K·P` steps in closed form — bumping fire
//! counters, token timestamps, acknowledge clocks, histories, and the
//! progress tracker by per-window deltas — instead of simulating them.
//!
//! # The periodicity proof
//!
//! A window `[t₀, t₀+P)` may be skipped only when replaying it is
//! *provably* identical (as a time-shift) to the window just simulated.
//! The machine's future behavior is a function of exactly four things,
//! and each is pinned by a separate check:
//!
//! 1. **Arc state** (token queues with delivery times, acknowledge
//!    slots with expiry times): captured in a *rebased fingerprint* —
//!    the snapshot subsystem's canonical byte encoding with every
//!    timestamp rewritten relative to `now`. Fingerprint equality at
//!    two consecutive period boundaries means the arc state at `t₀+P`
//!    is byte-for-byte the state at `t₀` shifted by `P`. Tokens older
//!    than one period are encoded as a "deliverable since forever"
//!    sentinel: their exact age can never influence behavior (delivery
//!    only compares `ready ≤ now`), and a jump leaves their absolute
//!    bytes untouched — exactly what exact execution does to a token
//!    nothing consumes.
//! 2. **Source cursors and data**: the fingerprint carries each
//!    source's *enablement* (packets remaining > 0); the per-window
//!    cursor advance `e` is measured, and the jump width is capped by a
//!    horizon scan proving the next `K·e` input values bitwise repeat
//!    the window's values (`data[pos+o] == data[pos+o−e]`). Repeated
//!    waves — the paper's steady-state workloads — satisfy this for the
//!    whole input.
//! 3. **Control generators**: `CtlGen`/`IdxGen` cursors advance
//!    monotonically, so instead of fingerprinting them the engine
//!    checks *shift invariance*: the stream must be unchanged under
//!    rotation by the window's cursor advance (`∀q: at(q) = at(q+Δ)`),
//!    otherwise the very next window would emit different values and
//!    the engagement is refused.
//! 4. **Everything step-indexed**: fault plans key their hazards on
//!    absolute step numbers and are never periodic — fast-forward
//!    refuses to run at all under a fault plan, a resource throttle
//!    (contention reshuffles firing sets per step), or an active
//!    checkpoint cadence (a checkpoint is an observation of a step the
//!    jump would skip).
//!
//! With (1)–(4) established, a `K`-window jump is semantically a
//! *snapshot restore at a future time*: the canonical state is
//! materialized directly and the scheduler wheel is rebuilt by the
//! same `sim::reseed_wheel` every machine construction uses — so the
//! post-jump machine inherits the proven kernel-neutral resume
//! invariant, and both the final [`RunResult`] and any later snapshot
//! are bit-identical to exact replay.
//!
//! # Stop conditions inside a window
//!
//! The run loop makes every stopping decision at the top of the loop
//! from machine state; a jump must therefore never skip *over* a state
//! in which the exact run would have stopped. The jump width `K` is
//! capped so that the step limit, the pause boundary, and every watched
//! `stop_outputs` target are reached in the exact epilogue, never
//! inside a skipped window; quiescence cannot trigger mid-window unless
//! the window contains a zero-fire run longer than the maximum packet
//! latency (refused); and a watchdog livelock cannot trigger unless the
//! window's largest gap between progress events reaches the progress
//! window (refused).
//!
//! [`RunResult`]: crate::sim::RunResult

use std::sync::Arc;

use valpipe_ir::value::Value;
use valpipe_util::checksum64;

use crate::code::Op;
use crate::error::MachineError;
use crate::sim::{reseed_wheel, Simulator, StopSlots};
use crate::snapshot::{Snapshot, Writer};
use crate::watchdog::ProgressTracker;

/// Longest period the detector searches for. The paper's fully
/// pipelined machines run at period 2; conditional programs with
/// control waves cycle at `2 · wave_len`, so 64 covers every workload
/// the compiler emits for wave lengths up to 32.
pub(crate) const PMAX: usize = 64;
/// Per-step history ring: two full maximal periods.
const RING: usize = 2 * PMAX;
/// Consecutive fingerprint mismatches at one candidate period before
/// the detector moves on to the next larger period.
const MISS_LIMIT: u32 = 2;
/// Steps to wait after a refused engagement before fingerprinting again.
const COOLDOWN: u64 = 4 * PMAX as u64;

/// What fast-forward accomplished during one [`Session::drive`] call.
///
/// Deliberately *not* part of [`RunResult`](crate::sim::RunResult):
/// the result of a fast-forwarded run is bit-identical to the exact
/// run, including under `PartialEq`, and these statistics describe how
/// the run was executed, not what it computed.
///
/// [`Session::drive`]: crate::session::Session::drive
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Instruction times advanced analytically instead of simulated.
    pub skipped_steps: u64,
    /// Hyperperiods (windows) skipped across all engagements.
    pub windows: u64,
    /// Windows re-verified by shadow replay on the event kernel (the
    /// `verify_window` budget of [`ExecMode::FastForward`]).
    ///
    /// [`ExecMode::FastForward`]: crate::session::ExecMode::FastForward
    pub verified_windows: u64,
    /// Times fast-forward declined or abandoned an engagement and fell
    /// back to exact stepping (ineligible config, non-periodic input,
    /// or a shadow-verification mismatch).
    pub fallbacks: u64,
    /// The detected hyperperiod, if the machine ever proved periodic.
    pub period: Option<u64>,
}

/// Machine state captured at a candidate period boundary: the rebased
/// fingerprint plus every monotone counter and history length needed to
/// measure per-window deltas when the next boundary matches.
struct Boundary {
    at: u64,
    fp_sum: u64,
    fp_bytes: Vec<u8>,
    fires: Vec<u64>,
    gate_passes: Vec<u64>,
    gate_discards: Vec<u64>,
    ctl_pos: Vec<u64>,
    src_pos: Vec<usize>,
    /// Per arc: `[sent, consumed, acked, lost_result, lost_ack]`.
    arc_counts: Vec<[u64; 5]>,
    out_lens: Vec<usize>,
    emit_lens: Vec<usize>,
    ft_lens: Option<Vec<usize>>,
    am_fires: u64,
    fu_fires: u64,
    progress: u64,
}

/// Measured per-window deltas between two fingerprint-equal boundaries,
/// plus the window's history segments (cloned once, replayed `K` times
/// with shifted timestamps).
struct WindowDelta {
    fires: Vec<u64>,
    gate_passes: Vec<u64>,
    gate_discards: Vec<u64>,
    ctl_pos: Vec<u64>,
    src_pos: Vec<usize>,
    arc_counts: Vec<[u64; 5]>,
    out_segs: Vec<Vec<(u64, Value)>>,
    emit_segs: Vec<Vec<u64>>,
    ft_segs: Option<Vec<Vec<u64>>>,
    am_fires: u64,
    fu_fires: u64,
    progress: u64,
    fires_total: u64,
}

enum Mode {
    /// Scanning the fired-count ring for a candidate period.
    Hunt,
    /// A candidate boundary is held; waiting one period to compare.
    Armed(Box<Boundary>, u64),
}

/// The fast-forward engine threaded through the run loop (one per
/// [`Session::drive`] call in [`ExecMode::FastForward`]).
///
/// [`Session::drive`]: crate::session::Session::drive
/// [`ExecMode::FastForward`]: crate::session::ExecMode::FastForward
pub struct FastForward {
    verify_window: u64,
    /// Per-step fired counts / progress deltas, newest-last ring.
    ring_fired: [u64; RING],
    ring_prog: [u64; RING],
    head: usize,
    filled: usize,
    last_progress: u64,
    /// Periods below this already failed fingerprint comparison.
    min_period: u64,
    misses: u32,
    cooldown_until: u64,
    disabled: bool,
    mode: Mode,
    stats: FastForwardStats,
}

impl FastForward {
    /// Build an engine for `sim` if the configuration admits exact
    /// fast-forward at all. Fault plans key hazards on absolute steps,
    /// resource throttles reshuffle firing sets per step, and an active
    /// checkpoint cadence observes steps a jump would skip — each makes
    /// a window inexact, so the run falls back to exact stepping.
    pub(crate) fn new(
        sim: &Simulator<'_>,
        verify_window: u64,
        sink_present: bool,
    ) -> Option<FastForward> {
        if sim.fault.is_some() || sim.cfg.resources.is_some() {
            return None;
        }
        if sim.cfg.checkpoint_every != 0 && sink_present {
            return None;
        }
        Some(FastForward {
            verify_window,
            ring_fired: [0; RING],
            ring_prog: [0; RING],
            head: 0,
            filled: 0,
            last_progress: sim.progress,
            min_period: 1,
            misses: 0,
            cooldown_until: 0,
            disabled: false,
            mode: Mode::Hunt,
            stats: FastForwardStats::default(),
        })
    }

    /// Consume the engine into its run statistics.
    pub(crate) fn into_stats(self) -> FastForwardStats {
        self.stats
    }

    /// Ring entry `j` steps ago (`j = 1` is the step just executed):
    /// `(fired, progress delta)`.
    fn entry(&self, j: usize) -> (u64, u64) {
        let i = (self.head + RING - j) % RING;
        (self.ring_fired[i], self.ring_prog[i])
    }

    /// Observe one executed step and, when the state proves periodic,
    /// advance the machine by whole hyperperiods in place. Called by
    /// the run loop after every `step()`.
    pub(crate) fn after_step(
        &mut self,
        sim: &mut Simulator<'_>,
        fired: u64,
        pause_at: Option<u64>,
        step_limit: u64,
    ) -> Result<(), MachineError> {
        let prog_delta = sim.progress - self.last_progress;
        self.last_progress = sim.progress;
        self.ring_fired[self.head] = fired;
        self.ring_prog[self.head] = prog_delta;
        self.head = (self.head + 1) % RING;
        self.filled = (self.filled + 1).min(RING);
        if self.disabled {
            return Ok(());
        }
        match std::mem::replace(&mut self.mode, Mode::Hunt) {
            Mode::Hunt => {
                if sim.now >= self.cooldown_until {
                    if let Some(p) = self.find_candidate() {
                        self.mode = Mode::Armed(Box::new(self.boundary(sim, p)), p);
                    }
                }
            }
            Mode::Armed(b0, p) => {
                if sim.now < b0.at + p {
                    self.mode = Mode::Armed(b0, p);
                    return Ok(());
                }
                let b1 = self.boundary(sim, p);
                if b1.fp_sum == b0.fp_sum && b1.fp_bytes == b0.fp_bytes {
                    self.misses = 0;
                    let engaged = self.try_engage(sim, &b0, p, pause_at, step_limit)?;
                    // A jump (or a verification takeover) moved `progress`
                    // without going through the ring bookkeeping above.
                    self.last_progress = sim.progress;
                    if self.disabled {
                        return Ok(());
                    }
                    if engaged {
                        // The jump is an exact time-shift; keep riding the
                        // steady state from the fresh boundary (counters
                        // changed, so recapture — the fingerprint is cheap
                        // next to the window just saved).
                        self.mode = Mode::Armed(Box::new(self.boundary(sim, p)), p);
                    } else {
                        // Periodic but uncappable right now (e.g. a stop
                        // target lands within the next window): back off.
                        self.cooldown_until = sim.now + COOLDOWN;
                    }
                } else {
                    // Periodic fired counts but shifting values — the true
                    // period is longer (or the state is not periodic).
                    self.misses += 1;
                    if self.misses >= MISS_LIMIT {
                        self.misses = 0;
                        self.min_period = p + 1;
                    } else {
                        self.mode = Mode::Armed(Box::new(b1), p);
                    }
                }
            }
        }
        Ok(())
    }

    /// Smallest candidate period `P ∈ [min_period, PMAX]` whose last
    /// `2P` per-step records are pairwise equal with at least one
    /// firing per window. A cheap pre-filter: only candidates that pass
    /// are fingerprinted.
    fn find_candidate(&self) -> Option<u64> {
        let max_p = (self.filled / 2).min(PMAX);
        'periods: for p in (self.min_period as usize)..=max_p {
            let mut any_fire = false;
            for j in 1..=p {
                let a = self.entry(j);
                if a != self.entry(j + p) {
                    continue 'periods;
                }
                if a.0 > 0 {
                    any_fire = true;
                }
            }
            if any_fire {
                return Some(p as u64);
            }
        }
        None
    }

    /// Capture the rebased fingerprint and every monotone counter at
    /// the current step.
    fn boundary(&self, sim: &Simulator<'_>, p: u64) -> Boundary {
        let (fp_bytes, fp_sum) = rebased_fingerprint(sim, p);
        Boundary {
            at: sim.now,
            fp_sum,
            fp_bytes,
            fires: sim.cells.fires.clone(),
            gate_passes: sim.cells.gate_passes.clone(),
            gate_discards: sim.cells.gate_discards.clone(),
            ctl_pos: sim.cells.ctl_pos.clone(),
            src_pos: sim.cells.src_pos.clone(),
            arc_counts: sim
                .arcs
                .iter()
                .map(|st| [st.sent, st.consumed, st.acked, st.lost_result, st.lost_ack])
                .collect(),
            out_lens: sim.cells.outputs.iter().map(|(_, v)| v.len()).collect(),
            emit_lens: sim.cells.emit_times.iter().map(|(_, v)| v.len()).collect(),
            ft_lens: sim
                .cells
                .fire_times
                .as_ref()
                .map(|ft| ft.iter().map(Vec::len).collect()),
            am_fires: sim.am_fires,
            fu_fires: sim.fu_fires,
            progress: sim.progress,
        }
    }

    /// Two consecutive boundaries matched: measure the window, apply
    /// every engagement guard and jump cap, optionally verify by shadow
    /// replay, and advance. Returns whether at least one window was
    /// skipped.
    fn try_engage(
        &mut self,
        sim: &mut Simulator<'_>,
        b0: &Boundary,
        p: u64,
        pause_at: Option<u64>,
        step_limit: u64,
    ) -> Result<bool, MachineError> {
        let now = sim.now;
        let pu = p as usize;
        let n = sim.code.cell_count();

        // The run loop stops at the top of the next iteration if the
        // output target is already met — a jump here would overshoot it.
        if sim.outputs_reached() {
            return Ok(false);
        }

        // The measured window's per-step records, oldest first.
        let win_fired: Vec<u64> = (0..pu).map(|k| self.entry(pu - k).0).collect();
        let win_prog: Vec<u64> = (0..pu).map(|k| self.entry(pu - k).1).collect();
        let fires_total: u64 = win_fired.iter().sum();
        if fires_total == 0 {
            return Ok(false);
        }
        let d_prog = sim.progress - b0.progress;

        // Quiescence guard: the exact run stops after `max_lat + 1`
        // consecutive zero-fire steps; a window containing (circularly,
        // to cover the wrap between adjacent windows) a zero-fire run
        // that long would stop mid-jump.
        let max_lat = sim.max_latency();
        if max_circular_run(&win_fired, |&f| f == 0) > max_lat as usize {
            return Ok(false);
        }

        // Livelock guard: with a watchdog installed, the window must
        // make progress, and no (circular) gap between progress events
        // may reach the progress window.
        if let Some(wd) = sim.cfg.watchdog {
            if d_prog == 0 {
                return Ok(false);
            }
            let gap = max_circular_run(&win_prog, |&d| d == 0);
            if gap as u64 + 1 >= wd.progress_window {
                return Ok(false);
            }
        }

        // Generator shift-invariance: the skipped windows read the
        // control streams one cursor-advance further each window; the
        // streams must be unchanged under that rotation.
        for (i, cell) in sim.code.cells.iter().enumerate() {
            if cell.op == Op::Gen {
                let d = sim.cells.ctl_pos[i] - b0.ctl_pos[i];
                if !sim.code.gens[cell.aux as usize].shift_invariant(d) {
                    return Ok(false);
                }
            }
        }

        // Jump caps: land on a boundary at or before every stop the
        // exact run could reach, so the epilogue reaches it exactly.
        let mut max_k = (step_limit - now) / p;
        if let Some(pa) = pause_at {
            max_k = max_k.min(pa.saturating_sub(now) / p);
        }
        if let StopSlots::Watch(list) = &sim.stop_slots {
            for &(slot, count) in list {
                let len_now = sim.cells.outputs[slot as usize].1.len();
                if len_now >= count {
                    continue; // already met; another slot is the binding one
                }
                let ds = len_now - b0.out_lens[slot as usize];
                if let Some(spare) = (count - 1 - len_now).checked_div(ds) {
                    max_k = max_k.min(spare as u64);
                }
            }
        }
        // Source caps: enough packets must remain, and the next K·e of
        // them must bitwise repeat the measured window's slice.
        for i in 0..n {
            let Some(data) = &sim.cells.src_data[i] else {
                continue;
            };
            let pos = sim.cells.src_pos[i];
            let e = pos - b0.src_pos[i];
            if e == 0 {
                continue;
            }
            max_k = max_k.min(((data.len() - pos) / e) as u64);
            let horizon = (max_k as usize).saturating_mul(e);
            let mut m = 0usize;
            while m < horizon && value_key(data[pos + m]) == value_key(data[pos + m - e]) {
                m += 1;
            }
            max_k = max_k.min((m / e) as u64);
        }
        if max_k == 0 {
            return Ok(false);
        }

        let delta = measure_window(sim, b0);
        let k = max_k;
        if self.verify_window > 0 {
            // Shadow replay: rebuild an exact copy from a snapshot, step
            // it V whole windows, and require the analytically jumped
            // machine to snapshot byte-identically.
            let v = self.verify_window.min(k);
            let snap = Snapshot::capture(sim);
            let Ok(mut shadow) = snap.rebuild(sim.g, Arc::clone(&sim.code), sim.cfg.kernel) else {
                self.disabled = true;
                self.stats.fallbacks += 1;
                return Ok(false);
            };
            for _ in 0..v * p {
                shadow.step()?;
            }
            apply_jump(sim, &delta, p, v, 0);
            if Snapshot::capture(sim).as_bytes() == Snapshot::capture(&shadow).as_bytes() {
                self.stats.verified_windows += v;
                if k > v {
                    apply_jump(sim, &delta, p, k - v, v);
                }
                self.stats.skipped_steps += (k - v) * p;
            } else {
                // The proof missed something: discard the jumped state,
                // keep the exactly stepped shadow, and never engage again.
                *sim = shadow;
                self.disabled = true;
                self.stats.fallbacks += 1;
                return Ok(false);
            }
        } else {
            apply_jump(sim, &delta, p, k, 0);
            self.stats.skipped_steps += k * p;
        }
        self.stats.windows += k;
        if self.stats.period.is_none() {
            self.stats.period = Some(p);
        }
        if sim.cfg.check_invariants {
            sim.check_invariants()?;
        }
        Ok(true)
    }
}

/// Canonical bytes of the machine's behavior-relevant state with every
/// timestamp rebased to `now` (and a checksum for cheap pre-compare).
/// Excluded on purpose: monotone counters and histories (measured as
/// per-window deltas), generator cursors (covered by shift-invariance
/// checks), and the scheduler wheel (not canonical state).
fn rebased_fingerprint(sim: &Simulator<'_>, p: u64) -> (Vec<u8>, u64) {
    let mut w = Writer::default();
    w.u64(p);
    let now = sim.now as i128;
    for st in &sim.arcs {
        w.u64(st.queue.len() as u64);
        for &(v, ready) in st.queue.iter() {
            w.value(v);
            let off = ready as i128 - now;
            if off < -(p as i128) {
                // Stale token: deliverable "since forever". Its exact age
                // can never influence behavior, and a jump leaves its
                // absolute time untouched.
                w.u64(u64::MAX);
            } else {
                w.u64(off as i64 as u64);
            }
        }
        // Acknowledge slots always expire in the future at a step
        // boundary (due slots were released during the step), so plain
        // rebasing suffices; sort like the snapshot encoder so equal
        // states give equal bytes.
        let mut freeing: Vec<u64> = st
            .freeing
            .iter()
            .map(|&t| t.wrapping_sub(sim.now))
            .collect();
        freeing.sort_unstable();
        w.u64(freeing.len() as u64);
        for t in freeing {
            w.u64(t);
        }
    }
    for i in 0..sim.code.cell_count() {
        if let Some(data) = &sim.cells.src_data[i] {
            w.byte((sim.cells.src_pos[i] < data.len()) as u8);
        }
    }
    let sum = checksum64(&w.bytes);
    (w.bytes, sum)
}

/// Bitwise identity key for a packet value — `NaN`s compare equal to
/// themselves, distinct `NaN` payloads stay distinct, exactly like the
/// snapshot byte encoding.
fn value_key(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Real(x) => (1, x.to_bits()),
        Value::Bool(b) => (2, b as u64),
    }
}

/// Longest run of elements matching `pred` in `win` treated as a circle
/// (adjacent windows wrap: a window's trailing run continues into the
/// next window's leading run).
fn max_circular_run<T>(win: &[T], pred: impl Fn(&T) -> bool) -> usize {
    if win.iter().all(&pred) {
        return win.len();
    }
    let mut best = 0usize;
    let mut run = 0usize;
    // Two passes cover every wrapped run once the all-match case is out.
    for x in win.iter().chain(win.iter()) {
        if pred(x) {
            run += 1;
            best = best.max(run);
        } else {
            run = 0;
        }
    }
    best.min(win.len())
}

/// Measure the window `[b0.at, sim.now)`: per-cell and per-arc counter
/// deltas plus the history segments appended during the window.
fn measure_window(sim: &Simulator<'_>, b0: &Boundary) -> WindowDelta {
    let n = sim.code.cell_count();
    WindowDelta {
        fires: (0..n).map(|i| sim.cells.fires[i] - b0.fires[i]).collect(),
        gate_passes: (0..n)
            .map(|i| sim.cells.gate_passes[i] - b0.gate_passes[i])
            .collect(),
        gate_discards: (0..n)
            .map(|i| sim.cells.gate_discards[i] - b0.gate_discards[i])
            .collect(),
        ctl_pos: (0..n)
            .map(|i| sim.cells.ctl_pos[i] - b0.ctl_pos[i])
            .collect(),
        src_pos: (0..n)
            .map(|i| sim.cells.src_pos[i] - b0.src_pos[i])
            .collect(),
        arc_counts: sim
            .arcs
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let b = &b0.arc_counts[i];
                [
                    st.sent - b[0],
                    st.consumed - b[1],
                    st.acked - b[2],
                    st.lost_result - b[3],
                    st.lost_ack - b[4],
                ]
            })
            .collect(),
        out_segs: sim
            .cells
            .outputs
            .iter()
            .enumerate()
            .map(|(s, (_, v))| v[b0.out_lens[s]..].to_vec())
            .collect(),
        emit_segs: sim
            .cells
            .emit_times
            .iter()
            .enumerate()
            .map(|(s, (_, v))| v[b0.emit_lens[s]..].to_vec())
            .collect(),
        ft_segs: sim.cells.fire_times.as_ref().map(|ft| {
            let lens = b0.ft_lens.as_ref().expect("boundary captured fire times");
            ft.iter()
                .enumerate()
                .map(|(i, v)| v[lens[i]..].to_vec())
                .collect()
        }),
        am_fires: sim.am_fires - b0.am_fires,
        fu_fires: sim.fu_fires - b0.fu_fires,
        progress: sim.progress - b0.progress,
        fires_total: delta_sum(&sim.cells.fires, &b0.fires),
    }
}

fn delta_sum(now: &[u64], before: &[u64]) -> u64 {
    now.iter().zip(before).map(|(a, b)| a - b).sum()
}

/// Materialize the state `k` windows ahead: shift every live timestamp
/// by `k·p`, advance every monotone counter by `k` window-deltas,
/// replay the window's history segments `k` times with shifted times,
/// and rebuild the scheduler wheel exactly as a snapshot restore does.
///
/// `base` is how many windows past the measured one the machine already
/// sits at (non-zero when a verified prefix was applied first): the
/// history segments carry the *measured* window's absolute timestamps,
/// so copy `j` lands at `(base + j)·p` past them.
fn apply_jump(sim: &mut Simulator<'_>, d: &WindowDelta, p: u64, k: u64, base: u64) {
    let shift = k * p;
    let now = sim.now as i128;
    for (i, st) in sim.arcs.iter_mut().enumerate() {
        for (_, ready) in st.queue.iter_mut() {
            // Cycling tokens (age ≤ one period) shift with the machine;
            // stale tokens keep their absolute delivery time, exactly as
            // exact execution would leave them.
            if *ready as i128 - now >= -(p as i128) {
                *ready += shift;
            }
        }
        for t in st.freeing.iter_mut() {
            *t += shift;
        }
        let dc = &d.arc_counts[i];
        st.sent += k * dc[0];
        st.consumed += k * dc[1];
        st.acked += k * dc[2];
        st.lost_result += k * dc[3];
        st.lost_ack += k * dc[4];
    }
    let n = sim.code.cell_count();
    for i in 0..n {
        sim.cells.fires[i] += k * d.fires[i];
        sim.cells.gate_passes[i] += k * d.gate_passes[i];
        sim.cells.gate_discards[i] += k * d.gate_discards[i];
        sim.cells.ctl_pos[i] += k * d.ctl_pos[i];
        sim.cells.src_pos[i] += k as usize * d.src_pos[i];
    }
    sim.cells.rephase(&sim.code);
    for (slot, seg) in d.out_segs.iter().enumerate() {
        let dst = &mut sim.cells.outputs[slot].1;
        dst.reserve(seg.len() * k as usize);
        for j in base + 1..=base + k {
            dst.extend(seg.iter().map(|&(t, v)| (t + j * p, v)));
        }
    }
    for (slot, seg) in d.emit_segs.iter().enumerate() {
        let dst = &mut sim.cells.emit_times[slot].1;
        dst.reserve(seg.len() * k as usize);
        for j in base + 1..=base + k {
            dst.extend(seg.iter().map(|&t| t + j * p));
        }
    }
    if let Some(segs) = &d.ft_segs {
        let ft = sim.cells.fire_times.as_mut().expect("fire times recorded");
        for (i, seg) in segs.iter().enumerate() {
            ft[i].reserve(seg.len() * k as usize);
            for j in base + 1..=base + k {
                ft[i].extend(seg.iter().map(|&t| t + j * p));
            }
        }
    }
    sim.am_fires += k * d.am_fires;
    sim.fu_fires += k * d.fu_fires;
    sim.progress += k * d.progress;
    let (lp, lps, fsp) = sim.tracker.state();
    sim.tracker = ProgressTracker::from_state(if d.progress > 0 {
        // The last progress event recurs at the same offset in the final
        // window; the firings after it are the same tail.
        (lp + k * d.progress, lps + shift, fsp)
    } else {
        (lp, lps, fsp + k * d.fires_total)
    });
    // `idle` is the window's trailing zero-fire run — identical at every
    // boundary of a periodic state, so it carries over unchanged.
    sim.now += shift;

    // Reseed the wakeup wheel exactly as a snapshot restore does: this
    // is what makes the jump a "restore at a future time" and inherits
    // the kernel-neutral resume invariant.
    sim.sched = reseed_wheel(sim.cfg.kernel, &sim.code, &sim.arcs, sim.now);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_run_wraps() {
        // 0 0 1 0 — trailing run (1) wraps onto leading run (2) = 3.
        let w = [0u64, 0, 1, 0];
        assert_eq!(max_circular_run(&w, |&x| x == 0), 3);
        assert_eq!(max_circular_run(&w, |&x| x == 1), 1);
        let all = [0u64; 4];
        assert_eq!(max_circular_run(&all, |&x| x == 0), 4);
        let none = [1u64; 4];
        assert_eq!(max_circular_run(&none, |&x| x == 0), 0);
    }

    #[test]
    fn value_keys_are_bitwise() {
        assert_eq!(
            value_key(Value::Real(f64::NAN)),
            value_key(Value::Real(f64::NAN))
        );
        assert_ne!(value_key(Value::Real(0.0)), value_key(Value::Real(-0.0)));
        assert_ne!(value_key(Value::Int(1)), value_key(Value::Bool(true)));
    }
}
