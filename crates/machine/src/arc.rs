//! Per-arc machine state: the token queue, the acknowledge slots and
//! the conservation counters of one arc, and the three operations the
//! firing paths apply to it (release, consume, emit).
//!
//! The paper's machine is static: after FIFO expansion every arc holds
//! at most one result packet and one outstanding acknowledge. Both
//! lists are therefore [`InlineFifo`]s, which keep their first element
//! inline, so a capacity-1 arc is read and written without touching a
//! heap buffer. Only arcs of capacity 2 or more (and duplicate faults
//! on them) spill to the heap. On the idealized capacity-1 machine an
//! arc holds one token, or one pending acknowledge, or neither, and the
//! one-slot operations ([`release_one`], [`consume_one`], [`emit_one`])
//! read and write only the inline slots.

use std::collections::VecDeque;

use valpipe_ir::value::Value;

use crate::fault::{AckFate, ResultFate};

/// A FIFO whose first element lives inline and whose later elements
/// spill to a heap ring that is never allocated while at most one
/// element is held. Invariant: `first` is `None` only when `rest` is
/// empty.
#[derive(Debug)]
pub(crate) struct InlineFifo<T> {
    first: Option<T>,
    rest: VecDeque<T>,
}

impl<T> Default for InlineFifo<T> {
    fn default() -> Self {
        InlineFifo {
            first: None,
            rest: VecDeque::new(),
        }
    }
}

impl<T: Copy> InlineFifo<T> {
    /// Number of held elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.first.is_some() as usize + self.rest.len()
    }

    /// Whether nothing is held.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The oldest element.
    #[inline]
    pub(crate) fn front(&self) -> Option<&T> {
        self.first.as_ref()
    }

    /// Append `x` at the back.
    #[inline]
    pub(crate) fn push_back(&mut self, x: T) {
        if self.first.is_none() {
            self.first = Some(x);
        } else {
            self.rest.push_back(x);
        }
    }

    /// Remove and return the oldest element.
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<T> {
        let x = self.first.take()?;
        self.first = self.rest.pop_front();
        Some(x)
    }

    /// Remove and return the newest element.
    pub(crate) fn pop_back(&mut self) -> Option<T> {
        self.rest.pop_back().or_else(|| self.first.take())
    }

    /// Keep only the elements `keep` accepts, in order; returns how many
    /// were removed. A single held element is tested without touching
    /// the spill ring.
    #[inline]
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) -> usize {
        let Some(first) = self.first else {
            return 0;
        };
        if self.rest.is_empty() {
            if keep(&first) {
                return 0;
            }
            self.first = None;
            return 1;
        }
        let before = self.len();
        let kept = keep(&first);
        self.rest.retain(|x| keep(x));
        if !kept {
            self.first = self.rest.pop_front();
        }
        before - self.len()
    }

    /// The elements, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.first.iter().chain(self.rest.iter())
    }

    /// The elements, oldest first, for in-place update.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.first.iter_mut().chain(self.rest.iter_mut())
    }
}

impl<T: Copy> FromIterator<T> for InlineFifo<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut fifo = InlineFifo::default();
        for x in items {
            fifo.push_back(x);
        }
        fifo
    }
}

#[derive(Debug, Default)]
pub(crate) struct ArcState {
    /// In-flight and deliverable tokens: `(value, ready_at)`.
    pub(crate) queue: InlineFifo<(Value, u64)>,
    /// Times at which consumed-token slots become free again (acks).
    /// Order carries no meaning: injected acknowledge delays break the
    /// monotonicity a front-pop queue would rely on, so expiry filters.
    pub(crate) freeing: InlineFifo<u64>,
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
    /// Token slots held: queued tokens, pending acknowledges and losses.
    /// Token and acknowledge conservation ([`ArcState::conserves`],
    /// checked by `check_invariants` and on restore) make that every
    /// token sent and not yet acknowledged: two counters, read by every
    /// enabling test.
    #[inline]
    pub(crate) fn occupied(&self) -> usize {
        (self.sent - self.acked) as usize
    }

    /// Whether the counters agree with the queued tokens and pending
    /// acknowledges (token and acknowledge conservation).
    pub(crate) fn conserves(&self) -> bool {
        self.sent == self.queue.len() as u64 + self.consumed + self.lost_result
            && self.consumed == self.acked + self.freeing.len() as u64 + self.lost_ack
    }

    /// The head token's value, if it is deliverable at `now`.
    #[inline]
    pub(crate) fn peek(&self, now: u64) -> Option<Value> {
        self.queue
            .front()
            .and_then(|&(v, t)| (t <= now).then_some(v))
    }
}

/// One-slot release: [`release_acks`] for an arc of capacity 1, which
/// holds at most one pending acknowledge, so only the inline slot is
/// read.
#[inline(always)]
pub(crate) fn release_one(st: &mut ArcState, now: u64) {
    debug_assert!(st.freeing.rest.is_empty(), "capacity-1 arc spilled");
    if st.freeing.first.is_some_and(|t| t <= now) {
        st.freeing.first = None;
        st.acked += 1;
    }
}

/// One-slot consume: [`consume_token`] with a delivered acknowledge on
/// an arc of capacity 1. The consumed token was the arc's only held
/// slot, so the token slot empties and the acknowledge slot was free.
#[inline(always)]
pub(crate) fn consume_one(st: &mut ArcState, ack_at: u64) {
    debug_assert!(
        st.queue.rest.is_empty() && st.freeing.is_empty(),
        "capacity-1 arc holds more than its token"
    );
    st.queue.first = None;
    st.consumed += 1;
    st.freeing.first = Some(ack_at);
}

/// One-slot emit: [`emit_token`] with a delivered packet on an arc of
/// capacity 1, which a cell emits onto only while it holds nothing.
#[inline(always)]
pub(crate) fn emit_one(st: &mut ArcState, v: Value, ready: u64) {
    debug_assert!(st.occupied() == 0, "emit onto a full capacity-1 arc");
    st.sent += 1;
    st.queue.first = Some((v, ready));
}

/// Release the acknowledge slots of `st` that expire at or before
/// `now`.
#[inline]
pub(crate) fn release_acks(st: &mut ArcState, now: u64) {
    st.acked += st.freeing.retain(|&t| t > now) as u64;
}

/// Consume the head token of `st` and start its acknowledge with the
/// given fault fate. Returns the slot-free time to post wakeups at, if
/// the acknowledge survives.
#[inline(always)]
pub(crate) fn consume_token(st: &mut ArcState, ack_at: u64, fate: AckFate) -> Option<u64> {
    st.queue.pop_front();
    st.consumed += 1;
    match fate {
        AckFate::Deliver => {
            st.freeing.push_back(ack_at);
            Some(ack_at)
        }
        AckFate::Delay(extra) => {
            st.freeing.push_back(ack_at + extra);
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
#[inline(always)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use valpipe_util::Rng;

    #[test]
    fn fifo_matches_reference_model() {
        let mut rng = Rng::seed(0xF1F0_5107);
        for trial in 0..200 {
            let mut fifo: InlineFifo<u64> = InlineFifo::default();
            let mut model: VecDeque<u64> = VecDeque::new();
            // Small bounds keep the FIFO crossing the one-element line
            // that separates the inline slot from the spill ring.
            let bound = 1 + rng.below(4);
            for op in 0..300 {
                let ctx = format!("trial {trial}, op {op}");
                match rng.below(100) {
                    0..=39 if model.len() < bound => {
                        let x = rng.below(50) as u64;
                        fifo.push_back(x);
                        model.push_back(x);
                    }
                    0..=54 => assert_eq!(fifo.pop_front(), model.pop_front(), "{ctx}"),
                    55..=69 => assert_eq!(fifo.pop_back(), model.pop_back(), "{ctx}"),
                    70..=84 => {
                        let cut = rng.below(50) as u64;
                        let before = model.len();
                        model.retain(|&x| x > cut);
                        assert_eq!(fifo.retain(|&x| x > cut), before - model.len(), "{ctx}");
                    }
                    _ => {
                        let bump = rng.below(3) as u64;
                        for (x, y) in fifo.iter_mut().zip(model.iter_mut()) {
                            *x += bump;
                            *y += bump;
                        }
                    }
                }
                assert_eq!(fifo.len(), model.len(), "{ctx}");
                assert_eq!(fifo.is_empty(), model.is_empty(), "{ctx}");
                assert_eq!(fifo.front(), model.front(), "{ctx}");
                assert!(fifo.iter().eq(model.iter()), "{ctx}");
            }
        }
    }

    #[test]
    fn one_slot_ops_match_the_general_ops_at_capacity_one() {
        let fresh = || ArcState {
            cap: 1,
            ..ArcState::default()
        };
        let (mut one, mut gen) = (fresh(), fresh());
        for t in 0..20u64 {
            let v = Value::Int(t as i64);
            emit_one(&mut one, v, t + 1);
            assert_eq!(
                emit_token(&mut gen, v, t + 1, ResultFate::Deliver),
                Some(t + 1)
            );
            consume_one(&mut one, t + 2);
            assert_eq!(
                consume_token(&mut gen, t + 2, AckFate::Deliver),
                Some(t + 2)
            );
            for now in [t + 1, t + 2] {
                release_one(&mut one, now);
                release_acks(&mut gen, now);
                assert!(one.queue.iter().eq(gen.queue.iter()), "step {t}");
                assert!(one.freeing.iter().eq(gen.freeing.iter()), "step {t}");
                assert_eq!(
                    (one.sent, one.consumed, one.acked),
                    (gen.sent, gen.consumed, gen.acked)
                );
                assert!(one.conserves());
            }
        }
        assert_eq!(one.occupied(), 0);
    }

    #[test]
    fn one_element_never_allocates() {
        let mut fifo: InlineFifo<(Value, u64)> = InlineFifo::default();
        for t in 0..100 {
            fifo.push_back((Value::Int(t as i64), t));
            assert_eq!(fifo.pop_front(), Some((Value::Int(t as i64), t)));
        }
        assert_eq!(fifo.rest.capacity(), 0);
        let collected: InlineFifo<u64> = [3, 1, 2].into_iter().collect();
        assert!(collected.iter().eq([3, 1, 2].iter()));
    }
}
