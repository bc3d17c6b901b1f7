//! Measurement routines: compile a workload, verify it against the
//! oracle, and extract rate / size / traffic numbers.

use crate::workloads::inputs_for_compiled;
use crate::{FaultArgs, Report};
use valpipe_core::verify::{check_against_oracle_with, VerifyError};
use valpipe_core::{render_pass_stats, CompileLimits, CompileOptions, Compiled, QueryEngine};
use valpipe_machine::SimConfig;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Label (scheme, size, …).
    pub label: String,
    /// Instruction cells in the compiled program (before FIFO expansion).
    pub cells: usize,
    /// Buffer stages inserted by balancing (loop + global).
    pub buffers: u64,
    /// Steady-state initiation interval of the primary output.
    pub interval: f64,
    /// Maximum relative error vs the interpreter.
    pub max_rel_err: f64,
    /// Total operation packets processed.
    pub total_fires: u64,
    /// Fraction of operation packets sent to array memories.
    pub am_fraction: f64,
}

/// Verify `compiled` against the oracle over `waves` waves on the given
/// simulator config and measure the interval on `output`; a stalled or
/// mismatched run comes back as an error, so experiments can report the
/// stall diagnosis under an active fault plan.
pub fn measure_compiled_with(
    label: impl Into<String>,
    compiled: &Compiled,
    output: &str,
    waves: usize,
    sim: SimConfig,
) -> Result<Measurement, VerifyError> {
    let inputs = inputs_for_compiled(compiled);
    let report = check_against_oracle_with(compiled, &inputs, waves, 1e-8, sim)?;
    let interval = report
        .run
        .timing(output)
        .interval()
        .expect("enough packets for a steady-state measurement");
    Ok(Measurement {
        label: label.into(),
        cells: compiled.graph.node_count(),
        buffers: compiled.stats.loop_buffers + compiled.stats.global_buffers,
        interval,
        max_rel_err: report.max_rel_err,
        total_fires: report.run.total_fires,
        am_fraction: report.run.am_traffic_fraction(),
    })
}

impl Report {
    /// Compile `src` and measure it under the flags in `args`. Stage
    /// dumps, compile errors and a stalled run's diagnosis are printed,
    /// and a failed measurement returns `None`, so experiments degrade
    /// to a partial table instead of panicking.
    pub fn measure(
        &mut self,
        args: &FaultArgs,
        label: &str,
        src: &str,
        opts: &CompileOptions,
        output: &str,
        waves: usize,
    ) -> Option<Measurement> {
        let out = match QueryEngine::new().run_source(
            opts,
            &CompileLimits::unbounded(),
            &args.emit,
            src,
            label,
        ) {
            Ok(o) => o,
            Err(e) => {
                println!("{label}: compile error: {e}");
                return None;
            }
        };
        if args.pass_stats {
            eprintln!("{label}:");
            eprint!("{}", render_pass_stats(&out.pass_stats));
        }
        for (stage, dump) in &out.dumps {
            println!("==== {label}: {stage} ====");
            print!("{dump}");
        }
        match measure_compiled_with(label, &out.compiled, output, waves, args.sim_config()) {
            Ok(m) => Some(m),
            Err(e) => {
                println!("{label}: {e}");
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::fig4_src;
    use valpipe_core::compile_source;

    #[test]
    fn measure_produces_sane_numbers() {
        let compiled = compile_source(&fig4_src(16), &CompileOptions::paper()).unwrap();
        let m = measure_compiled_with("fig4", &compiled, "S", 20, SimConfig::new()).unwrap();
        assert!(m.cells > 5);
        assert!(m.interval > 1.9 && m.interval < 3.0);
        assert!(m.max_rel_err < 1e-8);
        assert!(m.am_fraction == 0.0);
    }
}
