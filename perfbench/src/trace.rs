//! Phase spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! op it belongs to. Spans stay in memory until the run ends; then they
//! become a per-layer self-time table and a Chrome trace-event file that
//! opens in Perfetto. A disabled tracer records nothing and never reads
//! the clock.

use std::collections::BTreeMap;
use std::time::Instant;

use valpipe_util::Json;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    /// Thread lane in the Perfetto view.
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    lane: u32,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin` (shared by every
    /// thread of a run so their spans line up).
    pub fn new(origin: Instant, lane: u32, enabled: bool) -> Tracer {
        Tracer {
            origin,
            lane,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off (traced and untraced ops interleave).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: parent.map(|p| p.0),
            lane: self.lane,
            start_ns,
            end_ns: start_ns,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Record a span whose duration was measured inside a layer (the
    /// compiler's pass statistics) as a child laid at `start_ns`.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            op,
            parent: parent.map(|p| p.0),
            lane: self.lane,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Start of a recorded span, in nanoseconds from the origin.
    pub fn start_ns(&self, id: Option<SpanId>) -> u64 {
        id.map_or(0, |SpanId(i)| self.spans[i].start_ns)
    }

    /// Append another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the time its children
    /// cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.dur_ms();
            }
        }
        self.spans
            .iter()
            .zip(child_ms)
            .map(|(s, c)| (s.dur_ms() - c).max(0.0))
            .collect()
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Per-op total duration of the spans called `name`, over the ops
    /// that have at least one.
    pub fn per_op(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.dur_ms();
        }
        by_op.into_values().collect()
    }

    /// Per-op self time of the `op` spans: op time no layer span covers.
    pub fn unattributed(&self) -> Vec<f64> {
        let own = self.self_ms();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == "op")
            .map(|(_, t)| t)
            .collect()
    }

    /// Self-time table: one row per span name, ordered by self time, with
    /// the mean self time per span and each name's share of all recorded
    /// self time.
    pub fn self_time_table(&self) -> String {
        let own = self.self_ms();
        let all_ms: f64 = own.iter().sum();
        let mut rows: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&own) {
            let r = rows.entry(s.name).or_default();
            r.0 += 1;
            r.1 += t;
        }
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
        let mut out = format!(
            "{:<24} {:>8} {:>14} {:>14} {:>8}\n",
            "span", "count", "self ms", "self ms/span", "share"
        );
        for (name, (count, total)) in rows {
            out.push_str(&format!(
                "{:<24} {:>8} {:>14.3} {:>14.4} {:>7.2}%\n",
                name,
                count,
                total,
                total / count as f64,
                100.0 * total / all_ms.max(f64::MIN_POSITIVE)
            ));
        }
        out
    }

    /// The span name with the largest total self time, excluding `op`.
    pub fn top_self(&self) -> Option<&'static str> {
        let own = self.self_ms();
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.name != "op" {
                *totals.entry(s.name).or_default() += t;
            }
        }
        totals
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n)
    }

    /// Chrome trace-event JSON (complete "X" events, microseconds).
    pub fn chrome_trace(&self, meta: Json) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str("layer".to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::Float(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(i64::from(s.lane))),
                    ("args", Json::obj([("op", Json::Int(s.op as i64))])),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
            ("otherData", meta),
        ])
        .to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 0, true);
        let op = t.begin("op", 7, None);
        let start = t.start_ns(op);
        t.record("child", 7, op, start, 1_000_000);
        t.end(op);
        // Stretch the op to a known 3 ms.
        t.spans[0].end_ns = t.spans[0].start_ns + 3_000_000;
        assert_eq!(t.unattributed(), vec![2.0]);
        assert_eq!(t.per_op("child"), vec![1.0]);
        assert_eq!(t.top_self(), Some("child"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0, false);
        let op = t.begin("op", 1, None);
        t.record("child", 1, op, 0, 5);
        t.end(op);
        assert!(t.spans.is_empty());
    }
}
