//! The differential executor: one program, every execution path.
//!
//! A case runs through the interpreter oracle and then across the full
//! machine matrix — both kernels exact and both under fast-forward —
//! plus a kill-and-restore leg that pauses mid-run, round-trips the snapshot
//! through bytes, resumes on a *different* kernel, and drives to
//! completion. Every leg must agree with the oracle within tolerance and
//! with every other leg bit-exactly; every phase runs under
//! `catch_unwind`, so a panic anywhere is itself a reportable finding,
//! not a crashed fuzzer.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use valpipe_core::verify::{compare_outputs, stream_inputs};
use valpipe_core::{compile_source_limited, CompileError, CompileLimits, CompileOptions, Compiled};
use valpipe_ir::value::Value;
use valpipe_machine::{
    ExecMode, Kernel, RunOutcome, RunSpec, Session, SimConfig, Simulator, Snapshot, StopReason,
};
use valpipe_val::interp::{self, ArrayVal};

/// Everything the executor needs to run one case. [`CaseSpec::replay`]
/// builds the fixed profile the committed corpus is recorded under.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Program source text.
    pub src: String,
    /// Compile options.
    pub opts: CompileOptions,
    /// Resource budgets (breaches are a typed rejection, never a panic).
    pub limits: CompileLimits,
    /// Input waves to feed.
    pub waves: usize,
    /// Relative tolerance against the oracle (the companion scheme
    /// reassociates floating arithmetic).
    pub tol: f64,
    /// Machine step budget; exceeding it is a convergence failure.
    pub max_steps: u64,
}

impl CaseSpec {
    /// The pinned profile corpus repros are recorded and replayed under:
    /// paper options, service limits, 8 waves, 1e-9 tolerance.
    pub fn replay(src: impl Into<String>) -> CaseSpec {
        CaseSpec {
            src: src.into(),
            opts: CompileOptions::default(),
            limits: CompileLimits::service(),
            waves: 8,
            tol: 1e-9,
            max_steps: 2_000_000,
        }
    }

    /// A spec for a generated case (see [`crate::gen::generate`]).
    pub fn from_gen(case: &crate::gen::GenCase) -> CaseSpec {
        CaseSpec {
            src: case.src.clone(),
            opts: case.opts.clone(),
            limits: CompileLimits::default(),
            waves: case.waves,
            tol: 1e-9,
            max_steps: case.max_steps,
        }
    }
}

/// What a differential run concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every leg agreed with the oracle and with every other leg.
    Pass {
        /// Output packets compared per leg.
        packets: usize,
    },
    /// The program was rejected with a typed error before any divergence
    /// could be observed — the *correct* answer for corrupt or over-limit
    /// input.
    Rejected {
        /// Which phase rejected: `compile`, `limit`, or `interp`.
        stage: &'static str,
        /// The typed error, rendered.
        error: String,
    },
    /// A real finding: panic, divergence, stall, or machine fault.
    Failure {
        /// Classification.
        kind: FailureKind,
        /// Diagnostic detail (leg name, first mismatching packet, …).
        detail: String,
    },
}

/// Classification of a differential failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The compiler panicked instead of returning a typed error.
    CompilePanic,
    /// The compiler returned [`CompileError::Internal`]: a typed error,
    /// but one that reports a compiler bug, not a bad program.
    CompileInternal,
    /// A machine leg panicked.
    RunPanic,
    /// A machine leg disagreed with the interpreter oracle.
    OracleDivergence,
    /// Two machine legs disagreed with each other (bit-identity broken).
    KernelDivergence,
    /// The kill-and-restore leg diverged from the uninterrupted run.
    SnapshotDivergence,
    /// A leg failed to converge within the step budget, or stalled.
    Stall,
    /// A leg hit a deterministic machine fault on a valid program.
    MachineError,
}

impl FailureKind {
    /// Stable identifier used in corpus expectation lines.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::CompilePanic => "compile-panic",
            FailureKind::CompileInternal => "compile-internal",
            FailureKind::RunPanic => "run-panic",
            FailureKind::OracleDivergence => "oracle-divergence",
            FailureKind::KernelDivergence => "kernel-divergence",
            FailureKind::SnapshotDivergence => "snapshot-divergence",
            FailureKind::Stall => "stall",
            FailureKind::MachineError => "machine-error",
        }
    }
}

impl Outcome {
    /// One stable line classifying the outcome — what corpus repro files
    /// record as their expectation. Only the error's first line is used,
    /// so multi-line diagnostics (stall reports) stay one-line stable.
    pub fn line(&self) -> String {
        match self {
            Outcome::Pass { .. } => "pass".to_string(),
            Outcome::Rejected { stage, error } => {
                format!("rejected[{stage}]: {}", error.lines().next().unwrap_or(""))
            }
            Outcome::Failure { kind, detail } => {
                format!(
                    "failure[{}]: {}",
                    kind.as_str(),
                    detail.lines().next().unwrap_or("")
                )
            }
        }
    }

    /// Whether this outcome is a finding worth shrinking and committing.
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::Failure { .. })
    }
}

/// Deterministic input arrays for every declared input of a compiled
/// program — the same fill the CLI uses, so repros are reproducible from
/// source alone.
pub fn standard_arrays(compiled: &Compiled) -> HashMap<String, ArrayVal> {
    let mut arrays = HashMap::new();
    for (name, (lo, hi)) in &compiled.flow.inputs {
        let len = (hi - lo + 1).max(0) as usize;
        let vals: Vec<f64> = (0..len)
            .map(|i| (i as f64 * 0.37).sin() * 0.5 + 0.5)
            .collect();
        arrays.insert(name.clone(), ArrayVal::from_reals(*lo, &vals));
    }
    arrays
}

/// The machine matrix: both kernels exact and under fast-forward.
pub fn matrix() -> Vec<(&'static str, Kernel, ExecMode)> {
    vec![
        ("scan/exact", Kernel::Scan, ExecMode::Exact),
        ("event/exact", Kernel::EventDriven, ExecMode::Exact),
        (
            "scan/ff",
            Kernel::Scan,
            ExecMode::FastForward { verify_window: 1 },
        ),
        (
            "event/ff",
            Kernel::EventDriven,
            ExecMode::FastForward { verify_window: 1 },
        ),
    ]
}

struct LegResult {
    stop: StopReason,
    sources_exhausted: bool,
    steps: u64,
    outputs: Vec<(String, Vec<Value>)>,
}

fn leg_config(spec: &CaseSpec, kernel: Kernel, stop: &[(String, usize)]) -> SimConfig {
    SimConfig::new()
        .kernel(kernel)
        .max_steps(spec.max_steps)
        .stop_outputs(stop.to_vec())
}

/// Run one leg to completion; `pause_and_restore` optionally kills the
/// session mid-run, round-trips the snapshot through bytes, and resumes
/// on `resume_kernel`.
#[allow(clippy::too_many_arguments)]
fn run_leg(
    compiled: &Compiled,
    spec: &CaseSpec,
    outputs: &[String],
    stop: &[(String, usize)],
    kernel: Kernel,
    mode: ExecMode,
    pause_at: Option<u64>,
    resume_kernel: Kernel,
) -> Result<LegResult, String> {
    let g = compiled.executable();
    let inputs = stream_inputs(compiled, &standard_arrays(compiled), spec.waves);
    let session = Simulator::builder(&g)
        .inputs(inputs)
        .config(leg_config(spec, kernel, stop))
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let mut spec_run = RunSpec::new().mode(mode);
    if let Some(at) = pause_at {
        spec_run = spec_run.pause_at(at);
    }
    let driven = session.drive(spec_run).map_err(|e| format!("drive: {e}"))?;
    let result = match driven.outcome {
        RunOutcome::Done(r) => *r,
        RunOutcome::Paused(sess) => {
            // The kill: serialize, drop the live session, round-trip the
            // bytes, resume on a (possibly different) kernel.
            let bytes = sess.checkpoint().as_bytes().to_vec();
            drop(sess);
            let snap = Snapshot::from_bytes(bytes).map_err(|e| format!("snapshot: {e}"))?;
            let resumed = Session::restore_with_kernel(&g, &snap, resume_kernel)
                .map_err(|e| format!("restore: {e}"))?;
            match resumed
                .drive(RunSpec::new().mode(mode))
                .map_err(|e| format!("resume drive: {e}"))?
                .outcome
            {
                RunOutcome::Done(r) => *r,
                RunOutcome::Paused(_) => return Err("paused twice without a boundary".into()),
            }
        }
    };
    Ok(LegResult {
        stop: result.stop,
        sources_exhausted: result.sources_exhausted,
        steps: result.steps,
        outputs: outputs
            .iter()
            .map(|o| (o.clone(), result.values(o)))
            .collect(),
    })
}

/// What a typed compile error means for a case: an internal error is a
/// compiler bug (a finding); every other error is a correct rejection.
fn compile_outcome(e: CompileError) -> Outcome {
    match e {
        CompileError::Limit(b) => Outcome::Rejected {
            stage: "limit",
            error: b.to_string(),
        },
        CompileError::Internal(_) => Outcome::Failure {
            kind: FailureKind::CompileInternal,
            detail: e.to_string(),
        },
        e => Outcome::Rejected {
            stage: "compile",
            error: e.to_string(),
        },
    }
}

/// Run the full differential matrix over one case.
pub fn run_case(spec: &CaseSpec) -> Outcome {
    // Phase 1: compile, under catch_unwind — a panic here is a finding.
    let compiled = match catch_unwind(AssertUnwindSafe(|| {
        compile_source_limited(&spec.src, "<fuzz>", &spec.opts, &spec.limits)
    })) {
        Err(p) => {
            return Outcome::Failure {
                kind: FailureKind::CompilePanic,
                detail: panic_text(p),
            }
        }
        Ok(Err(e)) => return compile_outcome(e),
        Ok(Ok(c)) => c,
    };

    // Phase 2: the oracle. Cap total input elements first — a program can
    // declare huge manifest ranges that compile to a small graph but would
    // make the harness itself allocate unboundedly. The interpreter's own
    // iteration guard fires too late for that.
    const MAX_INPUT_ELEMS: i64 = 1 << 20;
    let total_elems: i64 = compiled
        .flow
        .inputs
        .iter()
        .map(|(_, (lo, hi))| (hi.saturating_sub(*lo).saturating_add(1)).max(0))
        .sum();
    if total_elems > MAX_INPUT_ELEMS {
        return Outcome::Rejected {
            stage: "limit",
            error: format!("{total_elems} input elements exceed the fuzz harness cap"),
        };
    }
    let arrays = standard_arrays(&compiled);
    let expected = match catch_unwind(AssertUnwindSafe(|| {
        interp::run_program(&compiled.program, &arrays)
    })) {
        Err(p) => {
            return Outcome::Failure {
                kind: FailureKind::CompilePanic,
                detail: format!("interpreter panic: {}", panic_text(p)),
            }
        }
        Ok(Err(e)) => {
            return Outcome::Rejected {
                stage: "interp",
                error: e.to_string(),
            }
        }
        Ok(Ok(v)) => v,
    };

    let outputs: Vec<String> = compiled.program.outputs.clone();
    let stop: Vec<(String, usize)> = outputs
        .iter()
        .map(|name| (name.clone(), expected[name].data.len() * spec.waves))
        .collect();

    // Phase 3: the matrix. First leg is the baseline every other leg must
    // match bit-exactly.
    let mut baseline: Option<LegResult> = None;
    let mut packets = 0usize;
    for (leg_name, kernel, mode) in matrix() {
        let leg = match catch_unwind(AssertUnwindSafe(|| {
            run_leg(&compiled, spec, &outputs, &stop, kernel, mode, None, kernel)
        })) {
            Err(p) => {
                return Outcome::Failure {
                    kind: FailureKind::RunPanic,
                    detail: format!("{leg_name}: {}", panic_text(p)),
                }
            }
            Ok(Err(e)) => {
                return Outcome::Failure {
                    kind: FailureKind::MachineError,
                    detail: format!("{leg_name}: {e}"),
                }
            }
            Ok(Ok(l)) => l,
        };
        let stalled = (leg.stop == StopReason::Quiescent && !leg.sources_exhausted)
            || leg.stop == StopReason::MaxSteps
            || leg.stop == StopReason::Stalled;
        if stalled {
            return Outcome::Failure {
                kind: FailureKind::Stall,
                detail: format!(
                    "{leg_name}: stopped {:?} after {} steps",
                    leg.stop, leg.steps
                ),
            };
        }
        match compare_outputs(&leg.outputs, &expected, spec.waves, spec.tol) {
            Ok((_, p)) => packets = p,
            Err(e) => {
                return Outcome::Failure {
                    kind: FailureKind::OracleDivergence,
                    detail: format!("{leg_name}: {e}"),
                }
            }
        }
        if let Some(base) = &baseline {
            if let Some(diff) = first_difference(base, &leg) {
                return Outcome::Failure {
                    kind: FailureKind::KernelDivergence,
                    detail: format!("{leg_name} vs scan/exact: {diff}"),
                };
            }
        } else {
            baseline = Some(leg);
        }
    }

    // Phase 4: the kill-and-restore leg. Pause mid-run on the event
    // kernel, serialize to bytes, resume on the scan kernel, and require
    // the completed run to match the uninterrupted baseline bit-exactly.
    let base = baseline.expect("matrix ran at least one leg");
    let half = (base.steps / 2).max(1);
    let leg = match catch_unwind(AssertUnwindSafe(|| {
        run_leg(
            &compiled,
            spec,
            &outputs,
            &stop,
            Kernel::EventDriven,
            ExecMode::Exact,
            Some(half),
            Kernel::Scan,
        )
    })) {
        Err(p) => {
            return Outcome::Failure {
                kind: FailureKind::RunPanic,
                detail: format!("restore leg: {}", panic_text(p)),
            }
        }
        Ok(Err(e)) => {
            return Outcome::Failure {
                kind: FailureKind::SnapshotDivergence,
                detail: format!("restore leg: {e}"),
            }
        }
        Ok(Ok(l)) => l,
    };
    if let Some(diff) = first_difference(&base, &leg) {
        return Outcome::Failure {
            kind: FailureKind::SnapshotDivergence,
            detail: format!("restore leg vs scan/exact: {diff}"),
        };
    }

    Outcome::Pass { packets }
}

/// First bit-level difference between two legs' output streams, if any.
fn first_difference(a: &LegResult, b: &LegResult) -> Option<String> {
    for ((name_a, va), (_, vb)) in a.outputs.iter().zip(&b.outputs) {
        if va.len() != vb.len() {
            return Some(format!(
                "output '{name_a}': {} vs {} packets",
                va.len(),
                vb.len()
            ));
        }
        for (k, (x, y)) in va.iter().zip(vb).enumerate() {
            if x != y {
                return Some(format!("output '{name_a}' packet {k}: {x:?} vs {y:?}"));
            }
        }
    }
    None
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Install a no-op panic hook for the duration of `f`, restoring the old
/// hook afterwards — fuzz campaigns catch panics as findings and must not
/// spray backtraces over the report. (Process-global: callers should be
/// single-purpose binaries, not parallel test threads.)
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let old = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(old);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_program_passes_the_matrix() {
        let spec = CaseSpec::replay(
            "param m = 8;\n\
             input P : array[real] [0, m+1];\n\
             input Q : array[real] [0, m+1];\n\
             Y : array[real] := forall i in [1, m] construct P[i] + Q[i-1] endall;\n\
             output Y;\n",
        );
        let out = run_case(&spec);
        assert!(matches!(out, Outcome::Pass { .. }), "got {}", out.line());
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        let out = run_case(&CaseSpec::replay("forall endfor ((( output;"));
        assert!(
            matches!(
                out,
                Outcome::Rejected {
                    stage: "compile",
                    ..
                }
            ),
            "got {}",
            out.line()
        );
    }

    #[test]
    fn over_limit_program_is_a_limit_rejection() {
        let deep = format!(
            "param m = 8;\ninput P : array[real] [0, m+1];\n\
             Y : array[real] := forall i in [1, m] construct {}P[i]{} endall;\noutput Y;\n",
            "(".repeat(120),
            ")".repeat(120)
        );
        let out = run_case(&CaseSpec::replay(deep));
        assert!(
            matches!(out, Outcome::Rejected { stage: "limit", .. }),
            "got {}",
            out.line()
        );
    }

    #[test]
    fn internal_compile_errors_are_findings_not_rejections() {
        let out = compile_outcome(CompileError::Internal("no provider for output 'Y'".into()));
        assert_eq!(
            out,
            Outcome::Failure {
                kind: FailureKind::CompileInternal,
                detail: "internal compiler error: no provider for output 'Y'".into(),
            }
        );
        assert_eq!(
            out.line(),
            "failure[compile-internal]: internal compiler error: no provider for output 'Y'"
        );
        let typed = compile_outcome(CompileError::Unsupported("nonlinear".into()));
        assert!(
            matches!(
                typed,
                Outcome::Rejected {
                    stage: "compile",
                    ..
                }
            ),
            "got {}",
            typed.line()
        );
    }

    #[test]
    fn outcome_lines_are_stable() {
        let out = Outcome::Failure {
            kind: FailureKind::KernelDivergence,
            detail: "event/ff vs scan/exact: output 'Y' packet 3: 1 vs 2\nmore".into(),
        };
        assert_eq!(
            out.line(),
            "failure[kernel-divergence]: event/ff vs scan/exact: output 'Y' packet 3: 1 vs 2"
        );
    }
}
