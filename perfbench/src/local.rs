//! The in-process workloads. One op takes Val source through
//! `QueryEngine::run_source` → `Compiled::executable` →
//! `Simulator::builder(..).build()` → `Session::drive` → output arrays.

use std::collections::HashMap;
use std::time::Instant;

use valpipe_core::verify::stream_inputs;
use valpipe_core::{CompileLimits, CompileOptions, Compiled, PipelineOutput, QueryEngine};
use valpipe_machine::{render_error, RunSpec, SimConfig, Simulator, StopReason};
use valpipe_util::Rng;
use valpipe_val::interp::ArrayVal;

use crate::check::{self, as_real, Counts, OpOutput, OpRecord, Outputs};
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, Phase, Report, SETUP_REPS};

/// Input sets drawn per seed; ops cycle through them.
const INPUT_SETS: usize = 4;
const FILE: &str = "<bench>";

/// Pass name in `PipelineOutput::pass_stats` → layer span name.
fn pass_span(pass: &str) -> Option<&'static str> {
    Some(match pass {
        "flatten" => "val.flatten",
        "typecheck" => "val.typecheck",
        "analyze" => "val.analyze",
        "lower" => "core.lower",
        "fuse" => "core.fuse",
        "synth" => "core.synth",
        "loop-balance" => "core.loop_balance",
        "validate" => "ir.validate",
        "global-balance" => "balance.global",
        _ => return None,
    })
}

/// `QueryEngine::run_source` under a `core.compile` span. The compiler
/// measures its passes itself; their times are laid end to end as child
/// spans, so the compile span's self time is the engine's own overhead.
pub fn compile_traced(
    engine: &mut QueryEngine,
    (opts, limits): (&CompileOptions, &CompileLimits),
    src: &str,
    file: &str,
    tr: &mut Tracer,
    (id, parent): (u64, Option<SpanId>),
) -> Result<PipelineOutput, String> {
    let c = tr.begin("core.compile", id, parent);
    let out = engine.run_source(opts, limits, &[], src, file);
    tr.end(c);
    let out = out.map_err(|e| format!("compile: {e}"))?;
    let mut at = tr.start_ns(c);
    for p in &out.pass_stats {
        if let Some(name) = pass_span(p.name) {
            let dur = (p.wall_s * 1e9) as u64;
            tr.record(name, id, c, at, dur);
            at += dur;
        }
    }
    Ok(out)
}

pub struct LocalWorkload {
    src: String,
    waves: usize,
    /// Compile every op on a fresh engine instead of the shared one.
    cold: bool,
}

impl LocalWorkload {
    /// The paper's Fig. 3 program streamed 8 waves through one engine.
    pub fn fig3_stream() -> LocalWorkload {
        LocalWorkload {
            src: valpipe_bench::workloads::fig3_src(1024),
            waves: 8,
            cold: false,
        }
    }

    /// The §4 many-block chain, compiled cold for every op.
    pub fn chain_cold() -> LocalWorkload {
        LocalWorkload {
            src: valpipe_bench::workloads::chain_src(216, 100),
            waves: 1,
            cold: true,
        }
    }

    /// Input arrays for the program's declared ranges, drawn from `rng`.
    fn draw_inputs(compiled: &Compiled, rng: &mut Rng) -> HashMap<String, ArrayVal> {
        compiled
            .flow
            .inputs
            .iter()
            .map(|(name, (lo, hi))| {
                let vals: Vec<f64> = (*lo..=*hi).map(|_| rng.f64()).collect();
                (name.clone(), ArrayVal::from_reals(*lo, &vals))
            })
            .collect()
    }

    /// Compile with the options the CLI uses.
    fn compile(
        &self,
        engine: &mut QueryEngine,
        tr: &mut Tracer,
        at: (u64, Option<SpanId>),
    ) -> Result<PipelineOutput, String> {
        let opts = (&CompileOptions::paper(), &CompileLimits::default());
        compile_traced(engine, opts, &self.src, FILE, tr, at)
    }

    /// One op. `keep` retains the output arrays for the oracle check.
    fn op(
        &self,
        engine: &mut QueryEngine,
        arrays: &HashMap<String, ArrayVal>,
        keep: bool,
        tr: &mut Tracer,
        id: u64,
    ) -> Result<OpOutput, String> {
        let root = tr.begin("op", id, None);
        let mut fresh;
        let engine = if self.cold {
            fresh = QueryEngine::new();
            &mut fresh
        } else {
            engine
        };
        let out = self.compile(engine, tr, (id, root))?;
        let queries = (
            engine.stats().total() as u64,
            engine.stats().executed() as u64,
        );
        let compiled = out.compiled;

        let e = tr.begin("ir.expand_fifos", id, root);
        let exe = compiled.executable();
        tr.end(e);

        let b = tr.begin("machine.build", id, root);
        let stops = compiled
            .program
            .outputs
            .iter()
            .filter_map(|n| {
                let (lo, hi) = compiled.range_of(n)?;
                Some((n.clone(), (hi - lo + 1) as usize * self.waves))
            })
            .collect();
        let session = Simulator::builder(&exe)
            .inputs(stream_inputs(&compiled, arrays, self.waves))
            .config(SimConfig::new().stop_outputs(stops))
            .build();
        tr.end(b);
        let session = session.map_err(|e| render_error(&e, &exe, &compiled.prov))?;

        let d = tr.begin("machine.drive", id, root);
        let driven = session.drive(RunSpec::new());
        tr.end(d);
        let r = driven
            .map_err(|e| render_error(&e, &exe, &compiled.prov))?
            .result();
        if (r.stop == StopReason::Quiescent && !r.sources_exhausted)
            || matches!(r.stop, StopReason::MaxSteps | StopReason::Stalled)
        {
            return Err(format!("stalled after {} steps", r.steps));
        }
        let outputs: Outputs = compiled
            .program
            .outputs
            .iter()
            .map(|n| (n.clone(), r.values(n).into_iter().map(as_real).collect()))
            .collect();
        tr.end(root);
        Ok(OpOutput {
            digest: check::digest(&outputs),
            counts: Counts {
                steps: r.steps,
                fires: r.total_fires,
                buffers: compiled.stats.loop_buffers + compiled.stats.global_buffers,
                exe_cells: exe.node_count() as u64,
                elements: outputs.iter().map(|(_, v)| v.len() as u64).sum(),
                outputs: outputs.len() as u64,
            },
            cells: compiled.graph.node_count() as u64,
            queries,
            outputs: keep.then_some(outputs),
        })
    }

    /// Run ops back to back for `seconds`, cycling through the input sets;
    /// with `trace`, every other op is traced.
    fn phase(
        &self,
        engine: &mut QueryEngine,
        sets: &[HashMap<String, ArrayVal>],
        seconds: f64,
        tr: &mut Tracer,
        trace: bool,
    ) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        let mut id = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let traced = trace && id % 2 == 1;
            let set = (id / 2) as usize % sets.len();
            let keep = id < 2 * sets.len() as u64;
            tr.set_enabled(traced);
            let t0 = Instant::now();
            let result = self.op(engine, &sets[set], keep, tr, id);
            phase.push(
                t0.elapsed().as_secs_f64() * 1e3,
                traced,
                OpRecord { set, result },
            );
            id += 1;
        }
        tr.set_enabled(false);
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase
    }

    pub fn run(&self, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
        // Probe compile: learns the declared input ranges (benchmark
        // work, outside every metric).
        let mut tr = Tracer::new(Instant::now(), 0, false);
        let probe = self
            .compile(&mut QueryEngine::new(), &mut tr, (0, None))?
            .compiled;
        let mut rng = Rng::seed(seed);
        let sets: Vec<_> = (0..INPUT_SETS)
            .map(|_| Self::draw_inputs(&probe, &mut rng))
            .collect();
        let other_seed = Self::draw_inputs(&probe, &mut Rng::seed(seed.wrapping_add(1)));

        // Set-up: build the engine and finish one warm-up op through it;
        // timed before the phase (the last engine serves it) and after.
        let mut setup_s = Vec::new();
        let mut set_up = |tr: &mut Tracer| -> Result<QueryEngine, String> {
            let t0 = Instant::now();
            let mut engine = QueryEngine::new();
            self.op(&mut engine, &sets[0], false, tr, 0)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            Ok(engine)
        };
        for _ in 1..SETUP_REPS {
            set_up(&mut tr)?;
        }
        let mut engine = set_up(&mut tr)?;

        let phase = self.phase(&mut engine, &sets, seconds, &mut tr, trace);
        let peak_rss_mb = crate::peak_rss_mb();

        // Determinism across seeds: one op on the next seed's inputs.
        let cross = OpRecord {
            set: INPUT_SETS,
            result: self.op(&mut engine, &other_seed, true, &mut tr, 0),
        };
        for _ in 0..SETUP_REPS {
            set_up(&mut tr)?;
        }

        // Oracle, after the timed phase.
        let mut all_sets = sets;
        all_sets.push(other_seed);
        let program =
            valpipe_val::parser::parse_program(&self.src).map_err(|e| format!("parse: {e}"))?;
        let expected: Vec<_> = all_sets
            .iter()
            .map(|a| check::oracle(&program, a))
            .collect();
        Ok(Report::build(Outcome {
            phase,
            cross,
            tracer: trace.then_some(tr),
            expected,
            waves: self.waves,
            setup_s,
            peak_rss_mb,
            extra: HashMap::new(),
        }))
    }
}
