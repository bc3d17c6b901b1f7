//! Boolean control streams.
//!
//! The constructions in the paper (Figs. 4–8) are driven by *sequences of
//! boolean control values* such as `F T...T F` that select array elements,
//! steer gated identities, and direct MERGE instructions. Todd showed these
//! sequences can be produced by "straightforward arrangements of data flow
//! instructions"; here we represent one symbolically as a **run-length
//! encoded pattern that repeats once per wave** (one wave = one array value
//! flowing through the pipe), which is what the generator circuits emit.

use std::fmt;

/// A maximal run of equal boolean values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    /// The boolean value repeated throughout the run.
    pub value: bool,
    /// Number of repetitions (> 0 in canonical form).
    pub count: u32,
}

/// A periodic boolean control stream: the `pattern` is emitted in order,
/// then repeats from the start for the next wave, indefinitely.
///
/// The canonical form has no zero-length runs and no two adjacent runs with
/// equal value (runs at the pattern boundary may still match, since the
/// boundary is semantically meaningful: it separates waves).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CtlStream {
    pattern: Vec<Run>,
}

impl CtlStream {
    /// Build a stream from runs; zero-count runs are dropped and adjacent
    /// equal runs merged. Panics if the resulting pattern is empty.
    pub fn from_runs<I: IntoIterator<Item = (bool, u32)>>(runs: I) -> Self {
        let mut pattern: Vec<Run> = Vec::new();
        for (value, count) in runs {
            if count == 0 {
                continue;
            }
            match pattern.last_mut() {
                Some(last) if last.value == value => last.count += count,
                _ => pattern.push(Run { value, count }),
            }
        }
        assert!(
            !pattern.is_empty(),
            "control stream pattern must be non-empty"
        );
        CtlStream { pattern }
    }

    /// A constant stream of `value` with wave length `len`.
    pub fn constant(value: bool, len: u32) -> Self {
        Self::from_runs([(value, len)])
    }

    /// Selection of a contiguous window: over a wave of `total` packets,
    /// `true` exactly for positions `sel_start..sel_start + sel_len`
    /// (0-based). This is the `F^a T^b F^c` shape of the paper's Fig. 4.
    pub fn window(total: u32, sel_start: u32, sel_len: u32) -> Self {
        assert!(
            sel_start + sel_len <= total,
            "window [{sel_start}, +{sel_len}) out of wave length {total}"
        );
        Self::from_runs([
            (false, sel_start),
            (true, sel_len),
            (false, total - sel_start - sel_len),
        ])
    }

    /// `F` on the first packet, `T` elsewhere — the `F T...T` merge control
    /// of the paper's Fig. 7 (take the initial value first, then feedback).
    pub fn all_but_first(len: u32) -> Self {
        assert!(len >= 1);
        Self::from_runs([(false, 1), (true, len - 1)])
    }

    /// `T` everywhere except the last packet — the `T...T F` output-switch
    /// control of Fig. 7 (feed back every element but the last).
    pub fn all_but_last(len: u32) -> Self {
        assert!(len >= 1);
        Self::from_runs([(true, len - 1), (false, 1)])
    }

    /// `F` on the first `k` packets of each wave, `T` on the rest.
    pub fn all_but_first_k(len: u32, k: u32) -> Self {
        assert!(k <= len);
        Self::from_runs([(false, k), (true, len - k)])
    }

    /// `T` on all but the last `k` packets of each wave.
    pub fn all_but_last_k(len: u32, k: u32) -> Self {
        assert!(k <= len);
        Self::from_runs([(true, len - k), (false, k)])
    }

    /// Wave length (number of packets emitted per repetition).
    pub fn wave_len(&self) -> u32 {
        self.pattern.iter().map(|r| r.count).sum()
    }

    /// Number of `true` packets per wave.
    pub fn trues_per_wave(&self) -> u32 {
        self.pattern
            .iter()
            .filter(|r| r.value)
            .map(|r| r.count)
            .sum()
    }

    /// The canonical run-length pattern.
    pub fn runs(&self) -> &[Run] {
        &self.pattern
    }

    /// The value at 0-based position `idx` of the infinite stream.
    pub fn at(&self, idx: u64) -> bool {
        let len = self.wave_len() as u64;
        let mut pos = idx % len;
        for run in &self.pattern {
            if pos < run.count as u64 {
                return run.value;
            }
            pos -= run.count as u64;
        }
        unreachable!("position within wave length must fall in some run")
    }

    /// Pointwise negation.
    pub fn negate(&self) -> Self {
        Self::from_runs(self.pattern.iter().map(|r| (!r.value, r.count)))
    }

    /// Pointwise conjunction of two streams with equal wave length.
    pub fn and(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a && b)
    }

    /// Pointwise disjunction of two streams with equal wave length.
    pub fn or(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a || b)
    }

    fn zip_with(&self, other: &Self, f: impl Fn(bool, bool) -> bool) -> Self {
        assert_eq!(
            self.wave_len(),
            other.wave_len(),
            "combining control streams of different wave lengths"
        );
        let mut runs = Vec::new();
        let (mut ia, mut ib) = (0usize, 0usize);
        let (mut ra, mut rb) = (self.pattern[0], other.pattern[0]);
        loop {
            let n = ra.count.min(rb.count);
            runs.push((f(ra.value, rb.value), n));
            ra.count -= n;
            rb.count -= n;
            if ra.count == 0 {
                ia += 1;
                if ia == self.pattern.len() {
                    break;
                }
                ra = self.pattern[ia];
            }
            if rb.count == 0 {
                ib += 1;
                rb = other.pattern[ib];
            }
        }
        Self::from_runs(runs)
    }

    /// The subsequence of this stream at positions where `mask` is `true`.
    /// Both streams must share a wave length; the result's wave length is
    /// `mask.trues_per_wave()`. Used to derive the control a nested gate
    /// sees after an outer gate has already filtered the stream.
    pub fn compress(&self, mask: &Self) -> Self {
        assert_eq!(self.wave_len(), mask.wave_len());
        assert!(
            mask.trues_per_wave() > 0,
            "compressing by an all-false mask"
        );
        let len = self.wave_len() as u64;
        let bits: Vec<(bool, u32)> = (0..len)
            .filter(|&i| mask.at(i))
            .map(|i| (self.at(i), 1))
            .collect();
        Self::from_runs(bits)
    }

    /// Materialize the first `n` values of the infinite stream.
    pub fn take(&self, n: usize) -> Vec<bool> {
        (0..n as u64).map(|i| self.at(i)).collect()
    }
}

impl fmt::Display for CtlStream {
    /// Prints in the paper's notation, e.g. `<F T^4 F>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, run) in self.pattern.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let v = if run.value { "T" } else { "F" };
            if run.count == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}^{}", run.count)?;
            }
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_shape() {
        let s = CtlStream::window(6, 1, 4);
        assert_eq!(s.take(6), vec![false, true, true, true, true, false]);
        assert_eq!(s.wave_len(), 6);
        assert_eq!(s.trues_per_wave(), 4);
        assert_eq!(s.to_string(), "<F T^4 F>");
    }

    #[test]
    fn repeats_per_wave() {
        let s = CtlStream::window(3, 0, 1);
        assert_eq!(
            s.take(7),
            vec![true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn first_last_helpers() {
        assert_eq!(CtlStream::all_but_first(3).take(3), vec![false, true, true]);
        assert_eq!(CtlStream::all_but_last(3).take(3), vec![true, true, false]);
    }

    #[test]
    fn negate_and_and() {
        let a = CtlStream::window(5, 0, 3);
        let b = CtlStream::window(5, 2, 3);
        assert_eq!(a.and(&b).take(5), vec![false, false, true, false, false]);
        assert_eq!(a.negate().take(5), vec![false, false, false, true, true]);
        assert_eq!(a.or(&b).take(5), vec![true; 5]);
    }

    #[test]
    fn canonicalization_merges_runs() {
        let s = CtlStream::from_runs([(true, 1), (true, 2), (false, 0), (false, 3)]);
        assert_eq!(s.runs().len(), 2);
        assert_eq!(
            s.runs()[0],
            Run {
                value: true,
                count: 3
            }
        );
    }

    #[test]
    fn compress_selects_subsequence() {
        // Stream over 6 positions, mask selects positions 1..5.
        let cond = CtlStream::from_runs([(true, 2), (false, 2), (true, 2)]);
        let mask = CtlStream::window(6, 1, 4);
        let sub = cond.compress(&mask);
        assert_eq!(sub.wave_len(), 4);
        assert_eq!(sub.take(4), vec![true, false, false, true]);
    }

    #[test]
    fn all_but_first_k_and_last_k() {
        assert_eq!(
            CtlStream::all_but_first_k(5, 2).take(5),
            vec![false, false, true, true, true]
        );
        assert_eq!(
            CtlStream::all_but_last_k(5, 2).take(5),
            vec![true, true, true, false, false]
        );
    }

    #[test]
    #[should_panic]
    fn window_out_of_range_panics() {
        let _ = CtlStream::window(4, 3, 2);
    }
}
