//! valpipe-perfbench: one end-to-end benchmark, Val source → verified
//! output arrays, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig3_stream|chain_cold|serve_edit> --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it print every metric by name and unit,
//! the run's stamp, and (traced) the self-time table. Traced runs also
//! write a Chrome trace-event file under `.perfbench/`.

mod check;
mod local;
mod serve;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use valpipe_util::Json;
use valpipe_val::interp::ArrayVal;

use check::{Counts, OpRecord};
use stats::{median, min, tail};
use trace::Tracer;

/// Set-ups timed before the timed phase, and again after it, so that the
/// median (`setup_s`) spans the run's host load, not one moment of it.
pub const SETUP_REPS: usize = 5;

/// Where traces and hibernation directories go.
const OUT_DIR: &str = ".perfbench";

const WORKLOADS: [&str; 3] = ["fig3_stream", "chain_cold", "serve_edit"];

/// The end-to-end metrics the result line carries (the gated set in
/// `BENCHMARK.json`). `op_p50_ms`, `op_tail_ms` and `ops_per_s` are
/// printed but not gated: on a shared host they move with other tenants'
/// load by more than any usable bound, while the fastest op does not
/// (interference only adds time). `failed_frac` is printed too; the
/// result line carries it as `failed` of `attempted`.
const GATED: [&str; 5] = [
    "setup_s",
    "op_min_ms",
    "ns_per_element",
    "sim_steps_per_element",
    "peak_rss_mb",
];

/// How a per-layer metric is read.
enum Src {
    /// Median over ops of the op's total time in the named span.
    PerOp(&'static str),
    /// Median over every span of that name.
    PerSpan(&'static str),
    /// Computed from counts or read from the service.
    Value,
}

/// Every per-layer metric: name, unit, source.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("val.flatten_ms", "ms", Src::PerOp("val.flatten")),
    ("val.typecheck_ms", "ms", Src::PerOp("val.typecheck")),
    ("val.analyze_ms", "ms", Src::PerOp("val.analyze")),
    ("core.lower_ms", "ms", Src::PerOp("core.lower")),
    ("core.fuse_ms", "ms", Src::PerOp("core.fuse")),
    (
        "core.loop_balance_ms",
        "ms",
        Src::PerOp("core.loop_balance"),
    ),
    ("ir.validate_ms", "ms", Src::PerOp("ir.validate")),
    ("balance.global_ms", "ms", Src::PerOp("balance.global")),
    ("balance.buffers", "count", Src::Value),
    ("core.compile_ms", "ms", Src::PerOp("core.compile")),
    ("core.queries_total", "count", Src::Value),
    ("core.queries_executed", "count", Src::Value),
    ("ir.expand_fifos_ms", "ms", Src::PerOp("ir.expand_fifos")),
    ("ir.cells", "count", Src::Value),
    ("ir.exe_cells", "count", Src::Value),
    ("machine.build_ms", "ms", Src::PerOp("machine.build")),
    ("machine.drive_ms", "ms", Src::PerOp("machine.drive")),
    ("machine.steps", "count", Src::Value),
    ("machine.fires", "count", Src::Value),
    ("machine.fires_per_step", "fires/step", Src::Value),
    ("machine.ns_per_fire", "ns", Src::Value),
    ("machine.restore_ms", "ms", Src::PerSpan("machine.restore")),
    (
        "machine.checkpoint_ms",
        "ms",
        Src::PerSpan("machine.checkpoint"),
    ),
    ("serve.open_rtt_ms", "ms", Src::PerSpan("serve.open_rtt")),
    ("serve.run_rtt_ms", "ms", Src::PerSpan("serve.run_rtt")),
    ("serve.close_rtt_ms", "ms", Src::PerSpan("serve.close_rtt")),
    ("serve.open_core_ms", "ms", Src::PerSpan("serve.open_core")),
    ("serve.advance_ms", "ms", Src::PerSpan("serve.advance")),
    (
        "serve.hibernate_save_ms",
        "ms",
        Src::PerSpan("serve.hibernate_save"),
    ),
    ("serve.snapshot_bytes", "bytes", Src::Value),
    ("serve.wire_queue_ms", "ms", Src::Value),
    ("serve.overloaded", "count", Src::Value),
    ("serve.hibernations", "count", Src::Value),
    ("serve.resumes", "count", Src::Value),
    ("trace_overhead_frac", "frac", Src::Value),
    ("unattributed_ms", "ms", Src::Value),
];

/// The ops of the timed phase. With tracing on, traced and untraced ops
/// alternate, so both see the same host load and their ratio is the
/// tracing overhead; every end-to-end metric comes from untraced ops.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time of each untraced op.
    pub op_ms: Vec<f64>,
    /// Wall time of each traced op.
    pub traced_ms: Vec<f64>,
    /// Wall seconds from the phase's start to its last completed op.
    pub elapsed_s: f64,
    pub records: Vec<OpRecord>,
}

impl Phase {
    /// Record one op's time and result.
    pub fn push(&mut self, ms: f64, traced: bool, record: OpRecord) {
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.op_ms.push(ms);
        }
        self.records.push(record);
    }
}

/// Everything a workload measured, before it is reduced to metrics.
pub struct Outcome {
    pub phase: Phase,
    /// One op on the next seed's inputs, for the cross-seed check.
    pub cross: OpRecord,
    /// Spans of the traced ops (`--trace 1` only).
    pub tracer: Option<Tracer>,
    /// The interpreter's result per record set.
    pub expected: Vec<Result<HashMap<String, ArrayVal>, String>>,
    pub waves: usize,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Per-layer values the workload read itself (service counters).
    pub extra: HashMap<&'static str, f64>,
}

/// A metric ready to print.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

pub struct Report {
    attempted: usize,
    failed: usize,
    /// Run-level failures: drift, checker self-test, service counters.
    pub problems: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    tracer: Option<Tracer>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

impl Report {
    pub fn build(o: Outcome) -> Report {
        let mut problems = Vec::new();
        let mut records = o.phase.records.clone();
        records.push(o.cross);
        let (failed, first) = check::count_failures(&records, &o.expected, o.waves);
        if let Some(f) = first {
            problems.push(format!("first failed op: {f}"));
        }
        if !check::self_test(&records, &o.expected, o.waves) {
            problems.push("checker self-test: a corrupted expected array was not caught".into());
        }
        let counts = check::common_counts(&records).unwrap_or_else(|e| {
            problems.push(format!("determinism: {e}"));
            Counts::default()
        });

        let ops = &o.phase.op_ms;
        let n = ops.len();
        let completed = n + o.phase.traced_ms.len();
        let fastest = min(ops);
        let p50 = median(ops);
        let (pct, tail_ms) = tail(ops);
        let elements = counts.elements.max(1) as f64;
        let with_note = |mut m: Metric, note: String| {
            m.note = note;
            m
        };
        let end_to_end = vec![
            with_note(
                metric("setup_s", median(&o.setup_s), "s"),
                format!("median of {} set-ups", o.setup_s.len()),
            ),
            with_note(metric("op_min_ms", fastest, "ms"), format!("of {n} ops")),
            metric("op_p50_ms", p50, "ms"),
            with_note(
                metric("op_tail_ms", tail_ms, "ms"),
                format!("p{pct:.1} of {n} ops"),
            ),
            metric(
                "ops_per_s",
                completed as f64 / o.phase.elapsed_s.max(1e-9),
                "1/s",
            ),
            with_note(
                metric("ns_per_element", fastest * 1e6 / elements, "ns"),
                format!("op_min_ms over {} output elements", counts.elements),
            ),
            metric(
                "sim_steps_per_element",
                counts.steps_per_element(),
                "steps/elem",
            ),
            metric("peak_rss_mb", o.peak_rss_mb, "MB"),
        ];

        let per_layer = match &o.tracer {
            Some(tr) => layer_metrics(tr, &counts, &o.phase, &o.extra),
            None => Vec::new(),
        };
        Report {
            attempted: records.len(),
            failed,
            problems,
            end_to_end,
            per_layer,
            tracer: o.tracer,
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn layer_metrics(
    tr: &Tracer,
    counts: &Counts,
    phase: &Phase,
    extra: &HashMap<&'static str, f64>,
) -> Vec<Metric> {
    let first = phase.records.iter().find_map(|r| r.result.as_ref().ok());
    let drive = median(&tr.per_op("machine.drive"));
    let mut values: HashMap<&str, f64> = HashMap::from([
        ("balance.buffers", counts.buffers as f64),
        ("ir.exe_cells", counts.exe_cells as f64),
        ("ir.cells", first.map_or(0.0, |o| o.cells as f64)),
        (
            "core.queries_total",
            first.map_or(0.0, |o| o.queries.0 as f64),
        ),
        (
            "core.queries_executed",
            first.map_or(0.0, |o| o.queries.1 as f64),
        ),
        ("machine.steps", counts.steps as f64),
        ("machine.fires", counts.fires as f64),
        (
            "machine.fires_per_step",
            counts.fires as f64 / counts.steps.max(1) as f64,
        ),
        (
            "machine.ns_per_fire",
            drive * 1e6 / counts.fires.max(1) as f64,
        ),
        (
            "trace_overhead_frac",
            min(&phase.traced_ms) / min(&phase.op_ms).max(1e-12) - 1.0,
        ),
        ("unattributed_ms", median(&tr.unattributed())),
    ]);
    values.extend(extra.iter().map(|(k, v)| (*k, *v)));
    PER_LAYER
        .iter()
        .map(|(name, unit, src)| {
            let value = match src {
                Src::PerOp(span) => median(&tr.per_op(span)),
                Src::PerSpan(span) => median(&tr.durations(span)),
                Src::Value => values.get(name).copied().unwrap_or(0.0),
            };
            metric(name, value, unit)
        })
        .collect()
}

/// Cores the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size so far, from `/proc/self/status` (0 where the
/// file does not exist).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(&format!(" {r}")))
                            .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    match commit.trim() {
        "" => "unknown".to_string(),
        c => c.to_string(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<24} {:>16.6} {:<10} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: valpipe-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let stamp = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc() as i64)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("commit", Json::Str(git_commit())),
    ]);
    println!("stamp {}", stamp.to_compact());

    let report = match args.workload.as_str() {
        "fig3_stream" => {
            local::LocalWorkload::fig3_stream().run(args.seed, args.seconds, args.trace)
        }
        "chain_cold" => local::LocalWorkload::chain_cold().run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace, out_dir),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    print_metrics("end-to-end (untraced)", &report.end_to_end);
    println!(
        "  {:<24} {:>16.6} {:<10} {} of {} ops",
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
        report.failed,
        report.attempted
    );
    for p in &report.problems {
        println!("problem: {p}");
    }
    if let Some(tr) = &report.tracer {
        print_metrics("per-layer (traced)", &report.per_layer);
        println!("self time by span");
        print!("{}", tr.self_time_table());
        println!("largest self time: {}", tr.top_self().unwrap_or("-"));
        let base = out_dir.join(format!("{}-seed{}", args.workload, args.seed));
        let trace_file = base.with_extension("trace.json");
        let table_file = base.with_extension("selftime.txt");
        let written = std::fs::write(&trace_file, tr.chrome_trace(stamp))
            .and_then(|()| std::fs::write(&table_file, tr.self_time_table()));
        match written {
            Ok(()) => println!(
                "wrote {} and {}",
                trace_file.display(),
                table_file.display()
            ),
            Err(e) => println!("problem: writing trace files: {e}"),
        }
    }

    let shown = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics = Json::Obj(
        shown
            .iter()
            .filter(|m| args.trace || GATED.contains(&m.name))
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}
