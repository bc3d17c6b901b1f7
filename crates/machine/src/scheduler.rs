//! Event-driven ready-set scheduling for the simulator.
//!
//! The scan kernel re-examines every instruction cell once per
//! instruction time, which costs O(cells) per step even when only a
//! handful of cells hold deliverable operands — the transient fill and
//! drain phases of a pipe, gated conditional arms, and every throttled
//! or fault-injected run. The event-driven kernel instead maintains the
//! **wakeup invariant**:
//!
//! > a cell is (re-)examined at step `t` iff some event at `t` could
//! > have changed its enablement — a result packet on one of its input
//! > arcs became deliverable, an acknowledge freed a slot on one of its
//! > output arcs, a freeze window ended, the cell was resource-throttled
//! > at `t − 1`, or it fired at `t − 1` and may fire again with no new
//! > event (see `sim::may_refire`).
//!
//! Every state transition that can enable a cell is one of those events,
//! so examining only woken cells selects exactly the same firing set as
//! the full scan; spurious wakeups (the cell is examined and still not
//! enabled) are harmless. There is one time-indexed wheel, of cells to
//! examine. Acknowledge expiry needs no wheel of its own: every
//! acknowledge wakes its producer at the instant its slot frees, so the
//! step body releases expired slots on the output arcs of every due
//! cell (frozen ones included) before planning. Delayed arrivals
//! injected by a [`crate::fault::FaultPlan`] and non-uniform
//! [`crate::sim::ArcDelays`] simply schedule their wakeups further out.
//!
//! The wheel is a power-of-two **ring** of slots: slot `at & (len − 1)`
//! holds the cells due at `at`, as a bitmap over cell ids plus a
//! one-bit-per-word summary of the bitmap words it touched. The step
//! loop drains the wheel at every consecutive instruction time, so every
//! undrained entry satisfies `cursor ≤ at < cursor + len` and a slot
//! only ever holds entries for one time. Posting a wakeup is an
//! idempotent bit-set; draining a slot walks the summary and then the
//! touched words lowest first, so the due cells come out distinct and
//! in ascending id order with no sort and no dedup, and leaves the slot
//! zeroed for reuse; an idle instruction time reads one summary word per
//! 4,096 cells. The rare wakeup beyond the ring horizon (a
//! multi-thousand-step freeze window, a `thaw_time` pushed out to ~2⁴⁰
//! by a permanent-freeze fault) overflows into an ordered far set and
//! migrates back as the cursor catches up; only a drain spanning several
//! slots or the far set sorts its output.
//!
//! The per-step cost becomes O(fired + woken); the bitmaps cost 8 bytes
//! per cell.

use std::collections::BTreeSet;

/// Which step-loop implementation a simulation uses.
///
/// Both kernels implement the identical machine semantics and produce
/// bit-identical [`crate::sim::RunResult`]s — asserted by the
/// `kernel_equivalence` test suite across the paper workloads, fault
/// plans, resource throttling, and watchdog stalls. They differ only in
/// how the set of enabled cells is discovered each instruction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Re-scan every cell each instruction time. O(cells) per step; the
    /// reference implementation.
    Scan,
    /// Examine only cells woken by token, acknowledge, thaw, or firing
    /// events. O(fired + woken) per step.
    #[default]
    EventDriven,
}

/// One time-indexed wakeup wheel: a power-of-two ring of bitmap slots
/// plus a far-overflow set for wakeups beyond the horizon.
#[derive(Debug, Clone)]
struct Wheel {
    /// Next instruction time to be drained; every live ring entry `at`
    /// satisfies `cursor <= at < cursor + WHEEL_SLOTS`.
    cursor: u64,
    /// `u64` words per slot bitmap (one bit per id).
    words: usize,
    /// `u64` words per slot summary (one bit per bitmap word).
    sums: usize,
    /// Slot `s`'s bitmap: `bits[s * words..(s + 1) * words]`; bit `id`
    /// is set iff `id` is due at the slot's time.
    bits: Vec<u64>,
    /// Slot `s`'s summary: `touched[s * sums..(s + 1) * sums]`; bit `w`
    /// is set iff bitmap word `w` of the slot may be non-zero, so an
    /// all-zero summary is an empty slot.
    touched: Vec<u64>,
    /// Wakeups at or beyond `cursor + WHEEL_SLOTS`, as `(time, id)`.
    far: BTreeSet<(u64, u32)>,
}

/// Ring length: covers every delay the machine generates on the hot
/// path (forward/acknowledge delays, fault delay extensions, the +1
/// re-examination after firing) with room to spare; longer horizons
/// (freeze windows) take the far set.
const WHEEL_SLOTS: usize = 64;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// Call `f` with the index of every set bit of `word`, lowest first,
/// offset by `base`.
#[inline]
fn for_each_bit(mut word: u64, base: usize, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(base + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

impl Wheel {
    /// An empty wheel for ids `0..ids` whose first drain is at `cursor`.
    fn new(cursor: u64, ids: usize) -> Self {
        let words = ids.div_ceil(64);
        let sums = words.div_ceil(64);
        Wheel {
            cursor,
            words,
            sums,
            bits: vec![0; WHEEL_SLOTS * words],
            touched: vec![0; WHEEL_SLOTS * sums],
            far: BTreeSet::new(),
        }
    }

    /// Post every id in `0..ids` (the `ids` given to [`Wheel::new`]) at
    /// the cursor: a word fill of the current slot.
    fn fill_current(&mut self, ids: usize) {
        if ids == 0 {
            return;
        }
        let s = (self.cursor & SLOT_MASK) as usize;
        let bits = &mut self.bits[s * self.words..(s + 1) * self.words];
        bits.fill(!0);
        if !ids.is_multiple_of(64) {
            bits[self.words - 1] = (1u64 << (ids % 64)) - 1;
        }
        let sums = &mut self.touched[s * self.sums..(s + 1) * self.sums];
        sums.fill(!0);
        if !self.words.is_multiple_of(64) {
            sums[self.sums - 1] = (1u64 << (self.words % 64)) - 1;
        }
    }

    /// Set `id`'s bit in the slot for time `at`, which must be within
    /// the ring horizon.
    #[inline(always)]
    fn set(&mut self, id: u32, at: u64) {
        debug_assert!((id as usize) < self.words * 64, "id beyond the wheel");
        let s = (at & SLOT_MASK) as usize;
        let w = id as usize >> 6;
        self.bits[s * self.words + w] |= 1 << (id & 63);
        self.touched[s * self.sums + (w >> 6)] |= 1 << (w & 63);
    }

    /// Post `id` at `at`; posting the same `(id, at)` twice is a no-op.
    #[inline(always)]
    fn push(&mut self, id: u32, at: u64) {
        debug_assert!(at >= self.cursor, "wakeup posted into the past");
        if at - self.cursor < WHEEL_SLOTS as u64 {
            self.set(id, at);
        } else {
            self.far.insert((at, id));
        }
    }

    /// Drain slot `s` into `out` (appended, ascending), zeroing it.
    fn take_slot(&mut self, s: usize, out: &mut impl FnMut(u32)) {
        let (words, sums) = (self.words, self.sums);
        let bits = &mut self.bits[s * words..(s + 1) * words];
        for (k, sum) in self.touched[s * sums..(s + 1) * sums]
            .iter_mut()
            .enumerate()
        {
            for_each_bit(std::mem::take(sum), k * 64, |w| {
                for_each_bit(std::mem::take(&mut bits[w]), w * 64, |id| out(id as u32));
            });
        }
    }

    /// Drain every id due at or before `now` into `out` (cleared
    /// first), ascending and distinct. Draining a time earlier than the
    /// cursor finds nothing: taking is destructive.
    fn drain(&mut self, now: u64, out: &mut Vec<u32>) {
        out.clear();
        if now < self.cursor {
            return;
        }
        if now == self.cursor {
            // The hot path: one slot, already distinct and ascending
            // (nothing in the far set is due before `cursor + SLOTS`).
            self.take_slot((now & SLOT_MASK) as usize, &mut |id| out.push(id));
        } else {
            // A cursor jump: every live ring entry is within one ring
            // length of the cursor, so at most `WHEEL_SLOTS` slots can
            // hold due ids, plus whatever the far set holds up to `now`.
            let last = now.min(self.cursor + SLOT_MASK);
            for t in self.cursor..=last {
                self.take_slot((t & SLOT_MASK) as usize, &mut |id| out.push(id));
            }
            while let Some(&(t, id)) = self.far.first() {
                if t > now {
                    break;
                }
                self.far.pop_first();
                out.push(id);
            }
            out.sort_unstable();
            out.dedup();
        }
        self.cursor = now + 1;
        // Migrate far wakeups that the advanced cursor brought inside
        // the ring horizon, so `push` stays O(1) for the common case.
        while let Some(&(t, id)) = self.far.first() {
            if t - self.cursor >= WHEEL_SLOTS as u64 {
                break;
            }
            self.far.pop_first();
            self.push(id, t);
        }
    }
}

/// The time-indexed wakeup wheel for the event-driven kernel.
///
/// A disabled scheduler (scan kernel) accepts and discards every wakeup,
/// so the firing paths can post events unconditionally.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    enabled: bool,
    /// step → cells to examine at that step.
    wheel: Wheel,
}

impl Scheduler {
    /// A scheduler for the given kernel whose first step is `now`.
    ///
    /// The wheel is not serialized — it is an optimization artifact, not
    /// canonical machine state. The event-driven wheel is seeded with
    /// every cell at `now` (a fresh run's first step, a restore's resume
    /// step, a fast-forward jump's landing step): any cell enabled at
    /// `now` is examined, and spurious examinations of disabled cells
    /// are harmless under the wakeup invariant. `sim::reseed_wheel`, the
    /// one caller, then re-posts the *future* wakeups implied by
    /// canonical state (in-flight tokens reaching consumers, pending
    /// acknowledges reaching producers), which is everything the wheel
    /// could have held. This is what makes a snapshot kernel-neutral: a
    /// checkpoint taken under any kernel resumes under any other
    /// bit-identically.
    pub(crate) fn resume(kernel: Kernel, cells: usize, now: u64) -> Self {
        let enabled = kernel == Kernel::EventDriven;
        let mut wheel = Wheel::new(now, if enabled { cells } else { 0 });
        if enabled {
            wheel.fill_current(cells);
        }
        Scheduler { enabled, wheel }
    }

    /// Whether the event-driven kernel drives the step loop.
    #[inline]
    pub(crate) fn is_event_driven(&self) -> bool {
        self.enabled
    }

    /// Examine `node` at step `at`. No-op for the scan kernel.
    #[inline(always)]
    pub(crate) fn wake(&mut self, node: u32, at: u64) {
        if self.enabled {
            self.wheel.push(node, at);
        }
    }

    /// Examine `node` at the step after the one being fired: once the
    /// step at `now` has drained its cells the cursor stands at
    /// `now + 1`, so the wakeup lands in the cursor's slot with no
    /// horizon test. No-op for the scan kernel.
    #[inline(always)]
    pub(crate) fn wake_next(&mut self, node: u32) {
        if self.enabled {
            self.wheel.set(node, self.wheel.cursor);
        }
    }

    /// Drain the cells due at `now` into `out` (cleared first),
    /// ascending and distinct — the scan kernel examines cells in index
    /// order, and the resource throttle and first-error selection depend
    /// on that order.
    pub(crate) fn due_nodes(&mut self, now: u64, out: &mut Vec<u32>) {
        self.wheel.drain(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valpipe_util::Rng;

    fn nodes_at(s: &mut Scheduler, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        s.due_nodes(now, &mut out);
        out
    }

    #[test]
    fn disabled_scheduler_discards_wakeups() {
        let mut s = Scheduler::resume(Kernel::Scan, 4, 0);
        assert!(!s.is_event_driven());
        s.wake(1, 5);
        assert!(nodes_at(&mut s, 5).is_empty());
    }

    #[test]
    fn event_scheduler_seeds_all_cells_at_step_zero() {
        let mut s = Scheduler::resume(Kernel::EventDriven, 3, 0);
        assert_eq!(nodes_at(&mut s, 0), vec![0, 1, 2]);
        assert!(nodes_at(&mut s, 0).is_empty(), "taking is destructive");
    }

    #[test]
    fn seeding_fills_every_word_exactly() {
        // Word and summary-word boundaries: a partial last word, an
        // exact word, a partial summary word, an exact summary word.
        for cells in [1usize, 63, 64, 65, 128, 4095, 4096, 4097, 9000] {
            let mut s = Scheduler::resume(Kernel::EventDriven, cells, 7);
            let want: Vec<u32> = (0..cells as u32).collect();
            assert_eq!(nodes_at(&mut s, 7), want, "{cells} cells");
            assert!(nodes_at(&mut s, 8).is_empty(), "{cells} cells");
        }
    }

    #[test]
    fn wakeups_are_sorted_and_deduplicated() {
        let mut s = Scheduler::resume(Kernel::EventDriven, 200, 0);
        nodes_at(&mut s, 0);
        s.wake(7, 3);
        s.wake(130, 3);
        s.wake(2, 3);
        s.wake(7, 3);
        s.wake(1, 4);
        assert!(nodes_at(&mut s, 2).is_empty());
        assert_eq!(nodes_at(&mut s, 3), vec![2, 7, 130]);
        assert_eq!(nodes_at(&mut s, 4), vec![1]);
        assert!(nodes_at(&mut s, 5).is_empty());
    }

    #[test]
    fn next_step_wakeups_land_after_the_drained_step() {
        let mut s = Scheduler::resume(Kernel::EventDriven, 130, 9);
        nodes_at(&mut s, 9);
        s.wake_next(129);
        s.wake(5, 10);
        s.wake_next(5);
        s.wake_next(64);
        assert_eq!(nodes_at(&mut s, 10), vec![5, 64, 129]);
        assert!(nodes_at(&mut s, 11).is_empty());
        let mut scan = Scheduler::resume(Kernel::Scan, 4, 0);
        scan.wake_next(3);
        assert!(nodes_at(&mut scan, 1).is_empty());
    }

    #[test]
    fn far_wakeups_survive_the_ring_horizon() {
        let mut s = Scheduler::resume(Kernel::EventDriven, 10, 0);
        nodes_at(&mut s, 0);
        // Beyond the ring: a freeze-window thaw and a permanent freeze.
        s.wake(9, WHEEL_SLOTS as u64 + 5);
        s.wake(4, 1 << 40);
        for t in 1..WHEEL_SLOTS as u64 + 5 {
            assert!(nodes_at(&mut s, t).is_empty(), "nothing due at {t}");
        }
        assert_eq!(nodes_at(&mut s, WHEEL_SLOTS as u64 + 5), vec![9]);
        assert_eq!(
            nodes_at(&mut s, 1 << 40),
            vec![4],
            "cursor jump drains the far set"
        );
    }

    #[test]
    fn resume_seeds_at_the_restore_step() {
        let mut s = Scheduler::resume(Kernel::EventDriven, 3, 100);
        s.wake(2, 101);
        assert_eq!(nodes_at(&mut s, 100), vec![0, 1, 2]);
        assert_eq!(nodes_at(&mut s, 101), vec![2]);
    }

    /// The plain reference the bitmap wheel must match: every posted
    /// `(id, at)` in a `Vec`, drained by filter + sort + dedup.
    struct Model {
        cursor: u64,
        pending: Vec<(u32, u64)>,
    }

    impl Model {
        fn drain(&mut self, now: u64) -> Vec<u32> {
            if now < self.cursor {
                return Vec::new();
            }
            let mut due: Vec<u32> = self
                .pending
                .iter()
                .filter(|&&(_, t)| t <= now)
                .map(|&(id, _)| id)
                .collect();
            self.pending.retain(|&(_, t)| t > now);
            due.sort_unstable();
            due.dedup();
            self.cursor = now + 1;
            due
        }
    }

    #[test]
    fn wheel_matches_reference_model() {
        let mut rng = Rng::seed(0x5EED_B175);
        // Id universes straddling word and summary-word boundaries.
        for ids in [1usize, 64, 65, 300, 4200] {
            for trial in 0..40 {
                let start = rng.below(1000) as u64;
                let mut wheel = Wheel::new(start, ids);
                let mut model = Model {
                    cursor: start,
                    pending: Vec::new(),
                };
                let mut out = Vec::new();
                for op in 0..400 {
                    let ctx = format!("ids {ids}, trial {trial}, op {op}");
                    let c = model.cursor;
                    match rng.below(100) {
                        // Posts: mostly near the cursor, some straddling
                        // the ring horizon, some far beyond it.
                        0..=54 => {
                            let id = rng.below(ids) as u32;
                            let at = match rng.below(10) {
                                0..=6 => c + rng.below(4) as u64,
                                7 | 8 => c + rng.range(56, 140) as u64,
                                _ => c + (1u64 << rng.range(8, 41)),
                            };
                            wheel.push(id, at);
                            model.pending.push((id, at));
                        }
                        // Drains: the next step, a stale time, or a
                        // cursor jump across slots and the far set.
                        _ => {
                            let now = match rng.below(10) {
                                0..=6 => c,
                                7 => c.saturating_sub(1 + rng.below(3) as u64),
                                8 => c + rng.range(1, 130) as u64,
                                _ => c + (1u64 << rng.range(8, 42)),
                            };
                            wheel.drain(now, &mut out);
                            assert_eq!(out, model.drain(now), "drain({now}): {ctx}");
                        }
                    }
                }
                // Whatever is left drains exactly, in one final jump.
                wheel.drain(u64::MAX - 1, &mut out);
                assert_eq!(out, model.drain(u64::MAX - 1), "final drain: ids {ids}");
            }
        }
    }
}
