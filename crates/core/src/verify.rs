//! End-to-end verification harness: compile → simulate → compare against
//! the reference interpreter.
//!
//! Every throughput experiment first passes through this harness, so rate
//! numbers are only ever reported for programs whose pipelined execution
//! provably computes the same values as direct evaluation.

use crate::program::Compiled;
use std::collections::HashMap;
use valpipe_ir::value::Value;
use valpipe_machine::{ProgramInputs, RunResult, SimConfig, Simulator};
use valpipe_val::interp::{self, ArrayVal};

/// Verification failure.
#[derive(Debug, Clone)]
pub enum VerifyError {
    /// The simulator faulted.
    Sim(String),
    /// The interpreter faulted.
    Interp(String),
    /// The run ended without consuming all input (deadlock or jam).
    Stalled {
        /// Steps executed before the stall.
        steps: u64,
        /// The machine's stall diagnosis (blocked cells, held arcs, wait
        /// cycle), rendered; `None` when the run stopped on a bare step
        /// limit with nothing visibly blocked.
        report: Option<String>,
    },
    /// An output mismatched the oracle.
    Mismatch {
        /// Output name.
        output: String,
        /// Wave index.
        wave: usize,
        /// Element position within the wave.
        position: usize,
        /// Simulated value.
        got: f64,
        /// Oracle value.
        want: f64,
    },
    /// An output had the wrong number of packets.
    WrongLength {
        /// Output name.
        output: String,
        /// Packets received.
        got: usize,
        /// Packets expected.
        want: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Sim(m) => write!(f, "simulation fault: {m}"),
            VerifyError::Interp(m) => write!(f, "interpreter fault: {m}"),
            VerifyError::Stalled { steps, report } => {
                write!(
                    f,
                    "pipeline stalled before consuming all input ({steps} steps)"
                )?;
                if let Some(r) = report {
                    write!(f, "\n{r}")?;
                }
                Ok(())
            }
            VerifyError::Mismatch {
                output,
                wave,
                position,
                got,
                want,
            } => write!(
                f,
                "output '{output}' wave {wave} element {position}: got {got}, want {want}"
            ),
            VerifyError::WrongLength { output, got, want } => {
                write!(f, "output '{output}': {got} packets, expected {want}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Build simulator inputs feeding each declared input array `waves` times.
pub fn stream_inputs(
    compiled: &Compiled,
    arrays: &HashMap<String, ArrayVal>,
    waves: usize,
) -> ProgramInputs {
    let mut inputs = ProgramInputs::new();
    for (name, _) in &compiled.flow.inputs {
        if let Some(a) = arrays.get(name) {
            let mut all = Vec::with_capacity(a.data.len() * waves);
            for _ in 0..waves {
                all.extend(a.data.iter().copied());
            }
            inputs = inputs.bind(name.clone(), all);
        }
    }
    inputs
}

/// Run the compiled program on `waves` repetitions of the input arrays.
/// Machine faults come back annotated with the Val source location of the
/// faulting cell (via the program's provenance table).
pub fn run(
    compiled: &Compiled,
    arrays: &HashMap<String, ArrayVal>,
    waves: usize,
    cfg: SimConfig,
) -> Result<RunResult, VerifyError> {
    let g = compiled.executable();
    let inputs = stream_inputs(compiled, arrays, waves);
    Simulator::builder(&g)
        .inputs(inputs)
        .config(cfg)
        .run()
        .map_err(|e| VerifyError::Sim(valpipe_machine::render_error(&e, &g, &compiled.prov)))
}

/// Outcome of a successful oracle check.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Largest relative error observed over all outputs and waves.
    pub max_rel_err: f64,
    /// Total output packets compared.
    pub packets_checked: usize,
    /// The simulation result (for rate measurements).
    pub run: RunResult,
}

/// Compile-run-compare: simulate `waves` waves and check every declared
/// output against the interpreter, element by element, within relative
/// tolerance `tol` (the companion transformation reassociates floating
/// arithmetic, so exact equality is only guaranteed for integer data).
pub fn check_against_oracle(
    compiled: &Compiled,
    arrays: &HashMap<String, ArrayVal>,
    waves: usize,
    tol: f64,
) -> Result<OracleReport, VerifyError> {
    check_against_oracle_with(compiled, arrays, waves, tol, SimConfig::new())
}

/// [`check_against_oracle`] on a caller-supplied simulator config — the
/// hook the experiment reporters use to thread fault plans and watchdog
/// budgets through an oracle-checked measurement. The stop condition is
/// still managed here (`base`'s stop-outputs are overwritten).
pub fn check_against_oracle_with(
    compiled: &Compiled,
    arrays: &HashMap<String, ArrayVal>,
    waves: usize,
    tol: f64,
    base: SimConfig,
) -> Result<OracleReport, VerifyError> {
    let expected = interp::run_program(&compiled.program, arrays)
        .map_err(|e| VerifyError::Interp(e.to_string()))?;
    // Ask the simulator to stop once every output has its packets: a
    // program whose outputs don't depend on the inputs would otherwise
    // regenerate waves forever from its control generators.
    let cfg = base.stop_outputs(
        compiled
            .program
            .outputs
            .iter()
            .map(|name| (name.clone(), expected[name].data.len() * waves))
            .collect(),
    );
    let result = run(compiled, arrays, waves, cfg)?;
    let stalled = (result.stop == valpipe_machine::StopReason::Quiescent
        && !result.sources_exhausted)
        || result.stop == valpipe_machine::StopReason::MaxSteps
        || result.stop == valpipe_machine::StopReason::Stalled;
    if stalled {
        // Render the stall diagnosis against the executable graph (the
        // simulator's cell ids) so every blocked cell names its Val
        // source statement.
        let report = result.stall_report.as_ref().map(|r| {
            let g = compiled.executable();
            valpipe_machine::render_stall(r, &g, &compiled.prov)
        });
        return Err(VerifyError::Stalled {
            steps: result.steps,
            report,
        });
    }
    let got: Vec<(String, Vec<Value>)> = compiled
        .program
        .outputs
        .iter()
        .map(|name| (name.clone(), result.values(name)))
        .collect();
    let (max_rel_err, packets_checked) = compare_outputs(&got, &expected, waves, tol)?;
    Ok(OracleReport {
        max_rel_err,
        packets_checked,
        run: result,
    })
}

/// Compare simulated output streams, `(output name, packets)`, against
/// the oracle's one-wave values repeated `waves` times, element by
/// element within relative tolerance `tol` (relative to `max(|want|,
/// 1)`). Returns the largest relative error and the packets checked.
pub fn compare_outputs(
    got: &[(String, Vec<Value>)],
    expected: &HashMap<String, ArrayVal>,
    waves: usize,
    tol: f64,
) -> Result<(f64, usize), VerifyError> {
    let mut max_rel = 0.0f64;
    let mut checked = 0usize;
    for (name, got) in got {
        let want_wave = &expected[name];
        let want_len = want_wave.data.len() * waves;
        // Open-ended control generators let the pipeline pre-fire a prefix
        // of the (never-fed) next wave — e.g. a for-iter MERGE emits the
        // next initial element from its constant operand. Those trailing
        // packets are legitimate and are checked against the cyclic
        // expectation below; anything shorter than the full run, or a
        // whole extra wave, is a real defect.
        if got.len() < want_len || got.len() >= want_len + want_wave.data.len() {
            return Err(VerifyError::WrongLength {
                output: name.clone(),
                got: got.len(),
                want: want_len,
            });
        }
        for (k, gv) in got.iter().enumerate() {
            let wave = k / want_wave.data.len();
            let pos = k % want_wave.data.len();
            let want = value_as_real(want_wave.data[pos]);
            let gotv = value_as_real(*gv);
            let denom = want.abs().max(1.0);
            let rel = (gotv - want).abs() / denom;
            if rel > tol {
                return Err(VerifyError::Mismatch {
                    output: name.clone(),
                    wave,
                    position: pos,
                    got: gotv,
                    want,
                });
            }
            max_rel = max_rel.max(rel);
            checked += 1;
        }
    }
    Ok((max_rel, checked))
}

fn value_as_real(v: Value) -> f64 {
    match v {
        Value::Int(i) => i as f64,
        Value::Real(r) => r,
        Value::Bool(b) => {
            if b {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// Multi-phase driving (the paper's §2 array-memory story): run the
/// program `steps` times, each time feeding selected outputs back as the
/// next step's inputs (`feedback` maps output name → input name). Returns
/// the final input arrays plus aggregate operation-packet counts.
pub fn run_timesteps(
    compiled: &Compiled,
    initial: &HashMap<String, ArrayVal>,
    feedback: &[(&str, &str)],
    steps: usize,
) -> Result<(HashMap<String, ArrayVal>, u64, u64), VerifyError> {
    let mut arrays = initial.clone();
    let (mut total, mut am) = (0u64, 0u64);
    for _ in 0..steps {
        let r = run(compiled, &arrays, 1, SimConfig::new())?;
        if !r.sources_exhausted {
            return Err(VerifyError::Stalled {
                steps: r.steps,
                report: r.stall_report.as_ref().map(|rep| rep.to_string()),
            });
        }
        total += r.total_fires;
        am += r.am_fires;
        for &(out, input) in feedback {
            let lo = compiled.range_of(input).map(|(lo, _)| lo).unwrap_or(0);
            arrays.insert(
                input.to_string(),
                ArrayVal {
                    lo,
                    data: r.values(out),
                },
            );
        }
    }
    Ok((arrays, total, am))
}
