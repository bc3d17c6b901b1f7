//! A tenant session: one compiled program plus its machine state,
//! advanced in budgeted increments and serialized for hibernation.
//!
//! The machine's [`valpipe_machine::Session`] borrows its graph, so it
//! cannot be stored across jobs. A [`SessionCore`] instead owns the
//! compiled program, the executable graph, and the latest [`Snapshot`];
//! each job restores a live session from the snapshot, advances it, and
//! re-captures. PR 3's restore-at-any-step guarantee makes this exactly
//! equivalent to keeping the machine live — and it is what makes
//! hibernation and crash recovery free: the in-memory representation
//! *is* the durable representation.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use valpipe_core::verify::stream_inputs;
use valpipe_core::{CompileError, CompileLimits, CompileOptions, Compiled, QueryEngine};
use valpipe_ir::graph::Graph;
use valpipe_machine::{
    render_error, ExecMode, Kernel, MachineCode, RunOutcome, RunSpec, Session, SimConfig,
    Simulator, Snapshot, StallKind,
};
use valpipe_util::Json;
use valpipe_val::interp::ArrayVal;

use crate::hibernate::DiskState;
use crate::proto::{
    run_result_to_json, stall_report_to_json, valid_session_name, ErrorBody, ErrorKind,
};

/// Everything needed to (re)create a session: the client-supplied
/// definition. Two `open` requests conflict only if these differ.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Session name (`[A-Za-z0-9_-]{1,64}`).
    pub name: String,
    /// Val source text.
    pub source: String,
    /// Input arrays: object mapping each declared input to its values.
    pub arrays: Json,
    /// How many waves of each input to stream.
    pub waves: usize,
    /// Simulation kernel.
    pub kernel: Kernel,
    /// Hard step limit for the whole run.
    pub max_steps: u64,
}

impl SessionSpec {
    /// Canonical identity string: two specs with the same identity open
    /// the same deterministic run, so re-opening is idempotent.
    pub fn identity(&self) -> String {
        // Sort the array object so member order on the wire is irrelevant.
        let arrays = match &self.arrays {
            Json::Obj(m) => {
                let mut m = m.clone();
                m.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(m)
            }
            other => other.clone(),
        };
        format!(
            "{}|{}|{}|{}|{}",
            self.source,
            arrays.to_compact(),
            self.waves,
            crate::proto::kernel_to_str(self.kernel),
            self.max_steps
        )
    }
}

/// Per-job execution limits. `until` is an *absolute* instruction-time
/// target, which is what makes retried jobs idempotent: the machine is
/// deterministic, so re-running "advance to t=5000" after a crash
/// converges to the same state no matter how far the first attempt got.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobLimits {
    /// Absolute instruction time to pause at (`None` = run to completion).
    pub until: Option<u64>,
    /// Step budget for *this job* (relative); exhaustion is transient.
    pub step_budget: Option<u64>,
    /// Wall-clock deadline for this job; exceeding it is transient.
    pub deadline: Option<Duration>,
    /// Execution mode for this job. Fast-forward is bit-identical to
    /// exact, so the mode is a per-job tuning knob, not part of the
    /// session's identity — two jobs against one session may differ.
    pub mode: ExecMode,
}

/// What a job did to the session. Every variant carries `skipped`: the
/// instruction times fast-forward advanced analytically during this job
/// (0 under [`ExecMode::Exact`]).
pub enum Advance {
    /// The run reached one of the machine's own stopping conditions;
    /// the canonical result JSON is now cached on the core.
    Done {
        /// Steps skipped by fast-forward in this job.
        skipped: u64,
    },
    /// Paused at the requested instruction time.
    Paused {
        /// Instruction time after the job.
        now: u64,
        /// Steps skipped by fast-forward in this job.
        skipped: u64,
    },
    /// The per-job step budget ran out first. Progress is preserved; the
    /// stall report diagnoses what the machine was doing.
    Budget {
        /// Instruction time after the job.
        now: u64,
        /// Encoded [`valpipe_machine::StallReport`].
        stall: Json,
        /// Steps skipped by fast-forward in this job.
        skipped: u64,
    },
    /// The wall-clock deadline passed between work chunks.
    Deadline {
        /// Instruction time after the job.
        now: u64,
        /// Encoded [`valpipe_machine::StallReport`].
        stall: Json,
        /// Steps skipped by fast-forward in this job.
        skipped: u64,
    },
}

/// One tenant's compiled program and machine state.
pub struct SessionCore {
    /// The defining spec (kept verbatim for idempotent re-open and for
    /// hibernation metadata).
    pub spec: SessionSpec,
    /// The compiled program (provenance used to annotate faults).
    pub compiled: Compiled,
    /// FIFO-expanded executable graph.
    pub exe: Graph,
    /// `exe`'s executable form, built once at open and shared by the
    /// session restored for every job.
    pub code: Arc<MachineCode>,
    /// Latest machine state. Always consistent: jobs capture-after-advance.
    pub snapshot: Snapshot,
    /// Canonical compact-JSON run result, once the run has finished.
    pub final_result: Option<String>,
    /// Write-through bookkeeping ([`crate::hibernate`]): the sequence
    /// number and state of the newest slot on disk, and the rendered meta.
    pub(crate) disk: Mutex<DiskState>,
}

fn bad_request(msg: impl Into<String>) -> ErrorBody {
    ErrorBody::new(ErrorKind::BadRequest, msg)
}

/// Parse the `arrays` object of a spec against the program's declared
/// inputs: every declared input must be present with exactly the
/// manifest number of numeric elements, and no extra keys are allowed.
fn bind_arrays(compiled: &Compiled, arrays: &Json) -> Result<HashMap<String, ArrayVal>, ErrorBody> {
    let Json::Obj(members) = arrays else {
        return Err(bad_request("\"arrays\" must be an object"));
    };
    let mut out = HashMap::new();
    for (name, (lo, hi)) in &compiled.flow.inputs {
        let want = (hi - lo + 1) as usize;
        let Some(v) = members.iter().find(|(k, _)| k == name).map(|(_, v)| v) else {
            return Err(bad_request(format!(
                "missing input array '{name}' ({want} elements over [{lo},{hi}])"
            )));
        };
        let Some(elems) = v.as_arr() else {
            return Err(bad_request(format!("input '{name}' must be an array")));
        };
        if elems.len() != want {
            return Err(bad_request(format!(
                "input '{name}': {} elements, manifest range [{lo},{hi}] needs {want}",
                elems.len()
            )));
        }
        let mut vals = Vec::with_capacity(want);
        for (i, e) in elems.iter().enumerate() {
            match e.as_f64() {
                Some(x) => vals.push(x),
                None => {
                    return Err(bad_request(format!(
                        "input '{name}' element {i} is not a number"
                    )))
                }
            }
        }
        out.insert(name.clone(), ArrayVal::from_reals(*lo, &vals));
    }
    for (k, _) in members {
        if !compiled.flow.inputs.iter().any(|(n, _)| n == k) {
            return Err(bad_request(format!(
                "unknown input array '{k}' (program declares: {})",
                compiled
                    .flow
                    .inputs
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
    }
    Ok(out)
}

impl SessionCore {
    /// Compile and stage a new session at instruction time 0. Compile
    /// errors and input-binding errors are permanent failures.
    pub fn open(spec: SessionSpec) -> Result<SessionCore, ErrorBody> {
        Self::open_with_engine(spec, &mut QueryEngine::new())
    }

    /// [`SessionCore::open`] through a caller-held [`QueryEngine`]: the
    /// registry shares one engine across sessions, so tenants submitting
    /// overlapping programs (re-opens after eviction, fleets of
    /// near-identical jobs) recompile only the blocks that differ. The
    /// compiled artifact is bit-identical to a cold compile.
    pub fn open_with_engine(
        spec: SessionSpec,
        engine: &mut QueryEngine,
    ) -> Result<SessionCore, ErrorBody> {
        if !valid_session_name(&spec.name) {
            return Err(bad_request(format!(
                "invalid session name '{}': need 1-64 chars of [A-Za-z0-9_-]",
                spec.name
            )));
        }
        if spec.waves == 0 {
            return Err(bad_request("\"waves\" must be at least 1"));
        }
        // Untrusted wire source compiles under the service resource
        // profile: limit breaches are a distinct, non-retryable kind so
        // clients can tell "your program is too big" from "doesn't compile".
        let compiled = engine
            .run_source(
                &CompileOptions::default(),
                &CompileLimits::service(),
                &[],
                &spec.source,
                "<session>",
            )
            .map(|o| o.compiled)
            .map_err(|e| match e {
                CompileError::Limit(b) => ErrorBody::new(ErrorKind::ResourceLimit, b.to_string()),
                other => ErrorBody::new(ErrorKind::CompileError, other.to_string()),
            })?;
        let arrays = bind_arrays(&compiled, &spec.arrays)?;
        let exe = compiled.executable();
        let inputs = stream_inputs(&compiled, &arrays, spec.waves);
        let session = Simulator::builder(&exe)
            .inputs(inputs)
            .config(Self::sim_config(&spec))
            .build()
            .map_err(|e| {
                ErrorBody::new(
                    ErrorKind::MachineError,
                    render_error(&e, &exe, &compiled.prov),
                )
            })?;
        let snapshot = session.checkpoint();
        let code = Arc::clone(session.code());
        drop(session);
        Ok(SessionCore {
            spec,
            compiled,
            exe,
            code,
            snapshot,
            final_result: None,
            disk: Mutex::default(),
        })
    }

    fn sim_config(spec: &SessionSpec) -> SimConfig {
        SimConfig::new()
            .max_steps(spec.max_steps)
            .kernel(spec.kernel)
    }

    /// Current instruction time of the staged state.
    pub fn now(&self) -> u64 {
        self.snapshot.step()
    }

    /// Advance the machine under `limits`, restoring from the staged
    /// snapshot and re-capturing afterwards. `chunk` bounds how many
    /// instruction times run between wall-clock deadline checks.
    ///
    /// Machine faults are permanent (`machine_error`, annotated with Val
    /// source provenance). Budget and deadline exhaustion return normally
    /// with the stall diagnosis — the *state advanced*, so the registry
    /// must still persist the core.
    pub fn advance(&mut self, limits: &JobLimits, chunk: u64) -> Result<Advance, ErrorBody> {
        if self.final_result.is_some() {
            // The run already finished; jobs against a finished session
            // are satisfied from the cached result.
            return Ok(Advance::Done { skipped: 0 });
        }
        let chunk = chunk.max(1);
        let started = Instant::now();
        let deadline_hit =
            |started: &Instant| limits.deadline.is_some_and(|d| started.elapsed() >= d);
        let budget_at = limits.step_budget.map(|b| self.now().saturating_add(b));
        let mut session =
            Session::restore_with_code(&self.exe, &self.code, &self.snapshot, self.spec.kernel)
                .map_err(|e| {
                    ErrorBody::new(ErrorKind::SnapshotCorrupt, format!("staged snapshot: {e}"))
                })?;
        let mut skipped = 0u64;
        loop {
            // Next pause boundary: the nearest of chunk end, the job's
            // absolute target, and the budget ceiling.
            let mut pause = session.now().saturating_add(chunk);
            if let Some(u) = limits.until {
                pause = pause.min(u);
            }
            if let Some(b) = budget_at {
                pause = pause.min(b);
            }
            let driven = session
                .drive(RunSpec::new().mode(limits.mode).pause_at(pause))
                .map_err(|e| {
                    ErrorBody::new(
                        ErrorKind::MachineError,
                        render_error(&e, &self.exe, &self.compiled.prov),
                    )
                })?;
            skipped += driven.fast_forward.skipped_steps;
            session = match driven.outcome {
                RunOutcome::Done(result) => {
                    self.snapshot_from_result(&result);
                    return Ok(Advance::Done { skipped });
                }
                RunOutcome::Paused(s) => *s,
            };
            let now = session.now();
            if budget_at.is_some_and(|b| now >= b) {
                let stall = stall_report_to_json(&session.stall_report(StallKind::BudgetExhausted));
                self.snapshot = session.checkpoint();
                return Ok(Advance::Budget {
                    now,
                    stall,
                    skipped,
                });
            }
            if limits.until.is_some_and(|u| now >= u) {
                self.snapshot = session.checkpoint();
                return Ok(Advance::Paused { now, skipped });
            }
            if deadline_hit(&started) {
                let stall = stall_report_to_json(&session.stall_report(StallKind::BudgetExhausted));
                self.snapshot = session.checkpoint();
                return Ok(Advance::Deadline {
                    now,
                    stall,
                    skipped,
                });
            }
        }
    }

    fn snapshot_from_result(&mut self, result: &valpipe_machine::RunResult) {
        // A finished run cannot be resumed (the Session was consumed), so
        // the staged snapshot stays at the last pause point; the cached
        // result is the durable artifact clients read.
        self.final_result = Some(run_result_to_json(result).to_compact());
    }

    /// The cached final result, if the run has completed.
    pub fn final_result_json(&self) -> Option<Json> {
        self.final_result
            .as_ref()
            .map(|s| Json::parse(s).expect("cached result round-trips"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, kernel: Kernel) -> SessionSpec {
        SessionSpec {
            name: name.to_string(),
            source: "param m = 3;\ninput A : array[real] [0, m];\nY : array[real] := forall i in [0, m] construct A[i] + 1. endall;\noutput Y;"
                .to_string(),
            arrays: Json::parse(r#"{"A": [1.0, 2.0, 3.0, 4.0]}"#).unwrap(),
            waves: 2,
            kernel,
            max_steps: 100_000,
        }
    }

    #[test]
    fn open_compiles_and_stages_at_step_zero() {
        let core = SessionCore::open(spec("t1", Kernel::EventDriven)).unwrap();
        assert_eq!(core.now(), 0);
        assert!(core.final_result.is_none());
    }

    #[test]
    fn open_rejects_bad_inputs_permanently() {
        let mut s = spec("t2", Kernel::EventDriven);
        s.arrays = Json::parse(r#"{"A": [1.0]}"#).unwrap();
        let err = SessionCore::open(s).map(|_| ()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(!err.kind.retryable());

        let mut s = spec("t3", Kernel::EventDriven);
        s.source = "output Nope;".to_string();
        let err = SessionCore::open(s).map(|_| ()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::CompileError);
        assert!(!err.kind.retryable());
    }

    #[test]
    fn chunked_advance_matches_single_shot() {
        // Whole run in one job.
        let mut one = SessionCore::open(spec("a", Kernel::EventDriven)).unwrap();
        assert!(matches!(
            one.advance(&JobLimits::default(), 1 << 40).unwrap(),
            Advance::Done { .. }
        ));
        let oracle = one.final_result.clone().unwrap();

        // Same run advanced in tiny chunks with absolute pause targets.
        let mut many = SessionCore::open(spec("a", Kernel::EventDriven)).unwrap();
        let mut target = 3;
        loop {
            let limits = JobLimits {
                until: Some(target),
                ..JobLimits::default()
            };
            match many.advance(&limits, 2).unwrap() {
                Advance::Done { .. } => break,
                Advance::Paused { now, .. } => assert_eq!(now, target),
                _ => panic!("no budget/deadline set"),
            }
            target += 3;
        }
        assert_eq!(many.final_result.unwrap(), oracle);
    }

    #[test]
    fn fastforward_jobs_match_exact_jobs() {
        // The mode is a per-job knob: a fast-forwarded run caches the
        // same canonical result bytes as an exact run of the same spec.
        let mut exact = SessionCore::open(spec("ff-a", Kernel::EventDriven)).unwrap();
        assert!(matches!(
            exact.advance(&JobLimits::default(), 1 << 40).unwrap(),
            Advance::Done { .. }
        ));
        let mut ff = SessionCore::open(spec("ff-b", Kernel::EventDriven)).unwrap();
        let limits = JobLimits {
            mode: ExecMode::FastForward { verify_window: 1 },
            ..JobLimits::default()
        };
        assert!(matches!(
            ff.advance(&limits, 1 << 40).unwrap(),
            Advance::Done { .. }
        ));
        assert_eq!(ff.final_result, exact.final_result);
    }

    #[test]
    fn budget_exhaustion_is_resumable_and_diagnosed() {
        let mut core = SessionCore::open(spec("b", Kernel::Scan)).unwrap();
        let limits = JobLimits {
            step_budget: Some(2),
            ..JobLimits::default()
        };
        match core.advance(&limits, 1).unwrap() {
            Advance::Budget { now, stall, .. } => {
                assert_eq!(now, 2);
                assert!(stall.get("kind").is_some());
            }
            _ => panic!("expected budget exhaustion"),
        }
        // Retrying with no budget finishes the run from where it paused.
        assert!(matches!(
            core.advance(&JobLimits::default(), 1 << 40).unwrap(),
            Advance::Done { .. }
        ));
    }
}
