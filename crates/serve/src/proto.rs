//! Wire protocol: line-delimited JSON requests/responses, deterministic
//! result encoding, and the retry-classified error taxonomy.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Successful responses carry `"ok": true`;
//! failures carry `"ok": false` and an `"error"` object whose `kind`,
//! `retryable`, and (for transient failures) `retry_after_ms` members
//! let a client implement retry-with-backoff without pattern-matching
//! message strings:
//!
//! * **transient** (`retryable: true`) — overload, shutdown in progress,
//!   snapshot I/O contention, an exhausted per-job wall-clock deadline
//!   or step budget (progress is preserved; retrying continues the run);
//! * **permanent** (`retryable: false`) — malformed requests, compile
//!   errors, deterministic machine errors, unknown sessions, corrupt
//!   snapshots. Retrying reproduces the same failure.
//!
//! [`run_result_to_json`] is the canonical [`RunResult`] encoding: map
//! keys are emitted in sorted order and floats print in shortest
//! round-trip form, so two bit-identical results always encode to the
//! same bytes — the soak harness compares the encoded strings directly.

use valpipe_ir::value::Value;
use valpipe_machine::{ExecMode, Kernel, RunResult, StallKind, StallReport, StopReason};
use valpipe_util::Json;

/// Render a kernel selection for the wire and hibernation metadata.
pub fn kernel_to_str(k: Kernel) -> String {
    match k {
        Kernel::Scan => "scan".to_string(),
        Kernel::EventDriven => "event".to_string(),
    }
}

/// Parse a kernel selection (`"scan"`, `"event"`).
pub fn kernel_from_str(s: &str) -> Option<Kernel> {
    match s {
        "scan" => Some(Kernel::Scan),
        "event" => Some(Kernel::EventDriven),
        _ => None,
    }
}

/// Render an execution mode for run-job replies (`"exact"` /
/// `"fastforward"`; the verification budget is a tuning knob, not part
/// of the mode's identity on the wire).
pub fn mode_to_str(m: ExecMode) -> &'static str {
    match m {
        ExecMode::Exact => "exact",
        ExecMode::FastForward { .. } => "fastforward",
    }
}

/// Parse a run job's optional execution mode. Absent means `exact`,
/// preserving wire compatibility for existing clients; `verify_window`
/// is the fast-forward verification budget from the request (default 0).
pub fn mode_from_str(s: &str, verify_window: u64) -> Option<ExecMode> {
    match s {
        "exact" => Some(ExecMode::Exact),
        "fastforward" => Some(ExecMode::FastForward { verify_window }),
        _ => None,
    }
}

/// Encode one packet value. Integers, reals, and booleans map onto the
/// corresponding JSON types; `Json`'s printer keeps `2` and `2.0`
/// distinct, so the encoding is lossless.
pub fn value_to_json(v: Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(i),
        Value::Real(r) => Json::Float(r),
        Value::Bool(b) => Json::Bool(b),
    }
}

fn stop_to_str(s: StopReason) -> &'static str {
    match s {
        StopReason::Quiescent => "quiescent",
        StopReason::MaxSteps => "max_steps",
        StopReason::OutputsReached => "outputs_reached",
        StopReason::Stalled => "stalled",
    }
}

/// Canonical JSON encoding of a completed run: sorted port maps, every
/// counter, and the stall report if the run stalled. Two equal
/// [`RunResult`]s encode to byte-identical compact JSON.
pub fn run_result_to_json(r: &RunResult) -> Json {
    let mut outputs: Vec<(&String, &Vec<(u64, Value)>)> = r.outputs.iter().collect();
    outputs.sort_by(|a, b| a.0.cmp(b.0));
    let outputs = Json::Obj(
        outputs
            .into_iter()
            .map(|(port, packets)| {
                (
                    port.clone(),
                    Json::Arr(
                        packets
                            .iter()
                            .map(|&(t, v)| Json::Arr(vec![Json::Int(t as i64), value_to_json(v)]))
                            .collect(),
                    ),
                )
            })
            .collect(),
    );
    let mut sources: Vec<(&String, &Vec<u64>)> = r.source_emit_times.iter().collect();
    sources.sort_by(|a, b| a.0.cmp(b.0));
    let sources = Json::Obj(
        sources
            .into_iter()
            .map(|(name, times)| {
                (
                    name.clone(),
                    Json::Arr(times.iter().map(|&t| Json::Int(t as i64)).collect()),
                )
            })
            .collect(),
    );
    Json::obj([
        ("steps", Json::Int(r.steps as i64)),
        ("stop", Json::Str(stop_to_str(r.stop).to_string())),
        ("sources_exhausted", Json::Bool(r.sources_exhausted)),
        ("total_fires", Json::Int(r.total_fires as i64)),
        ("am_fires", Json::Int(r.am_fires as i64)),
        ("fu_fires", Json::Int(r.fu_fires as i64)),
        (
            "fires",
            Json::Arr(r.fires.iter().map(|&f| Json::Int(f as i64)).collect()),
        ),
        ("outputs", outputs),
        ("source_emit_times", sources),
        (
            "stall",
            r.stall_report
                .as_ref()
                .map_or(Json::Null, stall_report_to_json),
        ),
    ])
}

fn stall_kind_to_str(k: StallKind) -> &'static str {
    match k {
        StallKind::Deadlock => "deadlock",
        StallKind::Livelock => "livelock",
        StallKind::BudgetExhausted => "budget_exhausted",
    }
}

/// Encode a structured stall report (the PR 1 taxonomy) for the wire.
pub fn stall_report_to_json(s: &StallReport) -> Json {
    Json::obj([
        ("kind", Json::Str(stall_kind_to_str(s.kind).to_string())),
        ("step", Json::Int(s.step as i64)),
        ("fires_in_window", Json::Int(s.fires_in_window as i64)),
        (
            "blocked_cells",
            Json::Arr(
                s.blocked_cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("node", Json::Int(c.node as i64)),
                            ("label", Json::Str(c.label.clone())),
                            ("opcode", Json::Str(c.opcode.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "held_arcs",
            Json::Arr(
                s.held_arcs
                    .iter()
                    .map(|a| {
                        Json::obj([
                            ("arc", Json::Int(a.arc as i64)),
                            ("src", Json::Int(a.src as i64)),
                            ("dst", Json::Int(a.dst as i64)),
                            ("tokens", Json::Int(a.tokens as i64)),
                            ("unacked", Json::Int(a.unacked as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cycle",
            s.cycle.as_ref().map_or(Json::Null, |c| {
                Json::Arr(c.iter().map(|&n| Json::Int(n as i64)).collect())
            }),
        ),
    ])
}

/// Failure classification for the wire. Every variant maps to a stable
/// `kind` string plus a retryability verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The bounded job queue is full; retry after the suggested delay.
    Overloaded,
    /// The server is draining for a graceful shutdown.
    ShuttingDown,
    /// The request is malformed (bad JSON, missing fields, bad name).
    BadRequest,
    /// The submitted Val program does not compile.
    CompileError,
    /// The job exceeded a worker resource budget (source size, nesting
    /// depth, graph size, FIFO depth, or compile wall-clock). Permanent:
    /// the same program breaches the same budget on every worker.
    ResourceLimit,
    /// No session with the given name exists.
    NoSuchSession,
    /// A session with this name exists with different source or inputs.
    SessionExists,
    /// The simulated machine hit a deterministic error (reproducible).
    MachineError,
    /// The per-job step budget ran out; progress is preserved.
    Stalled,
    /// The per-job wall-clock deadline passed; progress is preserved.
    DeadlineExceeded,
    /// A snapshot or hibernation container failed validation.
    SnapshotCorrupt,
    /// A disk or socket operation failed (possibly transiently).
    Io,
}

impl ErrorKind {
    /// Stable wire identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::CompileError => "compile_error",
            ErrorKind::ResourceLimit => "resource_limit",
            ErrorKind::NoSuchSession => "no_such_session",
            ErrorKind::SessionExists => "session_exists",
            ErrorKind::MachineError => "machine_error",
            ErrorKind::Stalled => "stalled",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::SnapshotCorrupt => "snapshot_corrupt",
            ErrorKind::Io => "io",
        }
    }

    /// Whether a client retry can succeed. Transient failures carry a
    /// `retry_after_ms` hint; permanent ones reproduce deterministically.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorKind::Overloaded
                | ErrorKind::ShuttingDown
                | ErrorKind::Stalled
                | ErrorKind::DeadlineExceeded
                | ErrorKind::Io
        )
    }
}

/// A structured failure: classification, message, optional retry hint,
/// and (for stalls) the structured stall report.
#[derive(Debug, Clone)]
pub struct ErrorBody {
    /// Failure classification.
    pub kind: ErrorKind,
    /// Human-readable detail (provenance-annotated for machine errors).
    pub message: String,
    /// Suggested retry delay for transient failures.
    pub retry_after_ms: Option<u64>,
    /// Structured stall report for budget/deadline/stall failures.
    pub stall: Option<Json>,
}

impl ErrorBody {
    /// A failure with no retry hint or stall payload.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind,
            message: message.into(),
            retry_after_ms: None,
            stall: None,
        }
    }

    /// Attach a retry-delay hint (transient failures).
    pub fn retry_after(mut self, ms: u64) -> ErrorBody {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Attach a structured stall report.
    pub fn with_stall(mut self, stall: Json) -> ErrorBody {
        self.stall = Some(stall);
        self
    }

    /// The `"error"` member of a failure response.
    pub fn to_json(&self) -> Json {
        let mut m = vec![
            (
                "kind".to_string(),
                Json::Str(self.kind.as_str().to_string()),
            ),
            ("retryable".to_string(), Json::Bool(self.kind.retryable())),
            ("message".to_string(), Json::Str(self.message.clone())),
        ];
        if let Some(ms) = self.retry_after_ms {
            m.push(("retry_after_ms".to_string(), Json::Int(ms as i64)));
        }
        if let Some(stall) = &self.stall {
            m.push(("stall".to_string(), stall.clone()));
        }
        Json::Obj(m)
    }
}

/// Build a success response: `{"ok":true,"op":op,...members}` plus the
/// request's `id`, echoed when present.
pub fn ok_response(op: &str, id: Option<&Json>, members: Vec<(String, Json)>) -> Json {
    let mut m = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::Str(op.to_string())),
    ];
    if let Some(id) = id {
        m.push(("id".to_string(), id.clone()));
    }
    m.extend(members);
    Json::Obj(m)
}

/// Build a failure response: `{"ok":false,"op":op,"error":{...}}` plus
/// the request's `id`, echoed when present.
pub fn err_response(op: &str, id: Option<&Json>, err: &ErrorBody) -> Json {
    let mut m = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("op".to_string(), Json::Str(op.to_string())),
    ];
    if let Some(id) = id {
        m.push(("id".to_string(), id.clone()));
    }
    m.push(("error".to_string(), err.to_json()));
    Json::Obj(m)
}

/// Whether `name` is an acceptable session name: 1–64 characters drawn
/// from `[A-Za-z0-9_-]`. Constrained so a session name can never escape
/// the hibernation directory or collide with temporary-file suffixes.
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_strings_round_trip() {
        for k in [Kernel::Scan, Kernel::EventDriven] {
            assert_eq!(kernel_from_str(&kernel_to_str(k)), Some(k));
        }
        assert_eq!(kernel_from_str("parallel:2"), None);
        assert_eq!(kernel_from_str("turbo"), None);
    }

    #[test]
    fn mode_strings_parse_and_default_to_exact() {
        assert_eq!(mode_from_str("exact", 7), Some(ExecMode::Exact));
        assert_eq!(
            mode_from_str("fastforward", 2),
            Some(ExecMode::FastForward { verify_window: 2 })
        );
        assert_eq!(mode_from_str("warp", 0), None);
        assert_eq!(mode_to_str(ExecMode::Exact), "exact");
        assert_eq!(
            mode_to_str(ExecMode::FastForward { verify_window: 9 }),
            "fastforward"
        );
    }

    #[test]
    fn session_names_are_validated() {
        assert!(valid_session_name("user-42_a"));
        assert!(!valid_session_name(""));
        assert!(!valid_session_name("../escape"));
        assert!(!valid_session_name("a.b"));
        assert!(!valid_session_name(&"x".repeat(65)));
    }

    #[test]
    fn error_kinds_classify_retryability() {
        assert!(ErrorKind::Overloaded.retryable());
        assert!(ErrorKind::DeadlineExceeded.retryable());
        assert!(!ErrorKind::CompileError.retryable());
        assert!(!ErrorKind::MachineError.retryable());
        assert!(!ErrorKind::SnapshotCorrupt.retryable());
    }
}
