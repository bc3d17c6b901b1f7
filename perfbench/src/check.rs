//! Output and determinism checks.
//!
//! Every op's outputs are checked against the reference interpreter
//! (`valpipe_val::interp::run_program`), never against the compiler.
//! Ops that share an input set must produce bit-identical outputs (the
//! machine is deterministic), so each op keeps a digest of its outputs
//! and the first op of each input set keeps the arrays themselves: that
//! op is compared with the interpreter element by element, and every
//! other op of the set must match its digest. The interpreter runs only
//! after the timed phase.

use std::collections::HashMap;

use valpipe_ir::value::Value;
use valpipe_util::Checksum64;
use valpipe_val::ast::Program;
use valpipe_val::interp::{self, ArrayVal};

/// Relative tolerance: the companion scheme reassociates floating-point
/// sums, so outputs match the interpreter only to rounding.
pub const TOL: f64 = 1e-8;

/// An op's output streams, in the program's output order.
pub type Outputs = Vec<(String, Vec<f64>)>;

/// Counts that must repeat exactly across the ops of a run and across
/// seeds: they depend on the program's structure, not on input values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub steps: u64,
    pub fires: u64,
    pub buffers: u64,
    pub exe_cells: u64,
    pub elements: u64,
    pub outputs: u64,
}

impl Counts {
    /// Simulated instruction times per element of each output stream.
    pub fn steps_per_element(&self) -> f64 {
        self.steps as f64 / (self.elements as f64 / self.outputs.max(1) as f64).max(1.0)
    }
}

/// What one op left behind for checking.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Which expected result applies (input set or edited program).
    pub set: usize,
    /// `Err` when the op failed outright (compile error, machine error,
    /// stall, error reply).
    pub result: Result<OpOutput, String>,
}

/// A completed op's outputs.
#[derive(Debug, Clone)]
pub struct OpOutput {
    pub digest: u64,
    /// Kept by the first ops of each set; later ones carry only the digest.
    pub outputs: Option<Outputs>,
    pub counts: Counts,
    /// Cells before FIFO expansion (0 where the op cannot see them).
    pub cells: u64,
    /// Queries posed and executed by the op's compile.
    pub queries: (u64, u64),
}

pub fn as_real(v: Value) -> f64 {
    match v {
        Value::Int(i) => i as f64,
        Value::Real(r) => r,
        Value::Bool(b) => f64::from(u8::from(b)),
    }
}

/// Digest of output names, lengths, and value bits.
pub fn digest(out: &Outputs) -> u64 {
    let mut h = Checksum64::new();
    for (name, vals) in out {
        h.update(name.as_bytes());
        h.update(&(vals.len() as u64).to_le_bytes());
        for v in vals {
            h.update(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// Interpret the program on one wave of inputs.
pub fn oracle(
    prog: &Program,
    arrays: &HashMap<String, ArrayVal>,
) -> Result<HashMap<String, ArrayVal>, String> {
    interp::run_program(prog, arrays).map_err(|e| format!("interpreter: {e}"))
}

/// Compare streamed outputs with `waves` repetitions of the expected
/// wave. The length rule is the one `valpipe_core::verify` uses: an
/// output may carry a prefix of the next, never-fed wave (open-ended
/// control generators pre-fire it), but not a whole extra wave and not
/// fewer than `waves` full waves.
pub fn compare(
    got: &Outputs,
    want: &HashMap<String, ArrayVal>,
    waves: usize,
) -> Result<(), String> {
    for (name, vals) in got {
        let wave = &want
            .get(name)
            .ok_or_else(|| format!("output '{name}' missing from the interpreter's result"))?
            .data;
        let want_len = wave.len() * waves;
        if wave.is_empty() || vals.len() < want_len || vals.len() >= want_len + wave.len() {
            return Err(format!(
                "output '{name}': {} packets, expected {want_len}",
                vals.len()
            ));
        }
        for (k, &g) in vals.iter().enumerate() {
            let w = as_real(wave[k % wave.len()]);
            if (g - w).abs() / w.abs().max(1.0) > TOL {
                return Err(format!(
                    "output '{name}' wave {} element {}: got {g}, want {w}",
                    k / wave.len(),
                    k % wave.len()
                ));
            }
        }
    }
    Ok(())
}

/// Count failed ops: outright failures, ops whose digest differs from
/// their set's checked op, and every op of a set whose checked op
/// disagrees with the interpreter. `expected[set]` is the interpreter's
/// result (or its error) for that set. Returns the count and the first
/// failure's message.
pub fn count_failures(
    ops: &[OpRecord],
    expected: &[Result<HashMap<String, ArrayVal>, String>],
    waves: usize,
) -> (usize, Option<String>) {
    // Verdict per set, from its first op that kept its outputs.
    let mut verdict: HashMap<usize, (u64, Result<(), String>)> = HashMap::new();
    for op in ops {
        if let Ok(OpOutput {
            digest,
            outputs: Some(out),
            ..
        }) = &op.result
        {
            verdict.entry(op.set).or_insert_with(|| {
                let v = match &expected[op.set] {
                    Ok(want) => compare(out, want, waves),
                    Err(e) => Err(e.clone()),
                };
                (*digest, v)
            });
        }
    }
    let mut failed = 0;
    let mut first = None;
    for op in ops {
        let why = match &op.result {
            Err(e) => Some(e.clone()),
            Ok(o) => match verdict.get(&op.set) {
                None => Some(format!("set {} has no checked op", op.set)),
                Some((_, Err(e))) => Some(e.clone()),
                Some((d, Ok(()))) if *d != o.digest => {
                    Some(format!("set {}: outputs differ between ops", op.set))
                }
                Some(_) => None,
            },
        };
        if let Some(w) = why {
            failed += 1;
            first.get_or_insert(w);
        }
    }
    (failed, first)
}

/// The counts every op must repeat, or the first drift.
pub fn common_counts(ops: &[OpRecord]) -> Result<Counts, String> {
    let mut it = ops.iter().filter_map(|o| o.result.as_ref().ok());
    let first = it.next().ok_or("no op completed")?.counts;
    match it.find(|o| o.counts != first) {
        Some(o) => Err(format!("counts drifted: {:?} then {:?}", first, o.counts)),
        None => Ok(first),
    }
}

/// Self-test of the checker: corrupting one element of set 0's expected
/// arrays must turn every op of that set into a failure.
pub fn self_test(
    ops: &[OpRecord],
    expected: &[Result<HashMap<String, ArrayVal>, String>],
    waves: usize,
) -> bool {
    let mut corrupted = expected.to_vec();
    let Some(Ok(want)) = corrupted.get_mut(0) else {
        return false;
    };
    let Some(arr) = want.values_mut().find(|a| !a.data.is_empty()) else {
        return false;
    };
    arr.data[0] = Value::Real(as_real(arr.data[0]) + 1.0);
    let in_set0 = ops.iter().filter(|o| o.set == 0).count();
    let (clean, _) = count_failures(ops, expected, waves);
    let (dirty, _) = count_failures(ops, &corrupted, waves);
    in_set0 > 0 && dirty == clean + in_set0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(set: usize, vals: &[f64], keep: bool) -> OpRecord {
        let out: Outputs = vec![("Y".to_string(), vals.to_vec())];
        OpRecord {
            set,
            result: Ok(OpOutput {
                digest: digest(&out),
                outputs: keep.then_some(out),
                counts: Counts::default(),
                cells: 0,
                queries: (0, 0),
            }),
        }
    }

    fn expected(vals: &[f64]) -> Result<HashMap<String, ArrayVal>, String> {
        Ok(HashMap::from([(
            "Y".to_string(),
            ArrayVal::from_reals(0, vals),
        )]))
    }

    #[test]
    fn corrupted_expected_array_counts_as_failed() {
        let ops = vec![
            record(0, &[1.0, 2.0, 1.0, 2.0], true),
            record(0, &[1.0, 2.0, 1.0, 2.0], false),
            record(1, &[3.0, 3.0], true),
        ];
        let want = vec![expected(&[1.0, 2.0]), expected(&[3.0])];
        assert_eq!(count_failures(&ops, &want, 2).0, 0);
        assert!(self_test(&ops, &want, 2));
    }

    #[test]
    fn length_rule_and_digest_drift() {
        let want = vec![expected(&[1.0, 2.0])];
        // One trailing packet of the next wave is allowed; a whole
        // extra wave is not.
        assert_eq!(
            count_failures(&[record(0, &[1.0, 2.0, 1.0], true)], &want, 1).0,
            0
        );
        assert_eq!(
            count_failures(&[record(0, &[1.0, 2.0, 1.0, 2.0], true)], &want, 1).0,
            1
        );
        let drift = [record(0, &[1.0, 2.0], true), record(0, &[1.0, 2.5], false)];
        assert_eq!(count_failures(&drift, &want, 1).0, 1);
    }
}
