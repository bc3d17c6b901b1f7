//! Bench: scan vs event-driven vs parallel step-loop kernels.
//!
//! The scan kernel pays O(cells) every instruction time; the event-driven
//! kernel pays O(fired + woken). On a dense, fully pipelined workload the
//! two are close (most cells fire most steps): the fig6 and fig3 dense
//! rows print the event/scan ratio of the fastest runs, so the event
//! kernel's per-fire overhead stays visible. The separation shows on
//! *sparse-activity* workloads — a long pipeline carrying a handful of
//! packets, where the scan kernel re-examines thousands of idle cells per
//! step. That is the acceptance workload: the event kernel must beat the
//! scan kernel by at least 3× there (asserted, not just printed).
//!
//! The parallel kernel's acceptance workload is the opposite regime: a
//! *wide* dense program (>4000 cells, hundreds fireable per tick) swept
//! across worker counts. On a ≥4-core host, 4 workers must beat the
//! event kernel by ≥2.5× and a single parallel worker must stay within
//! 15% of it (asserted when the host has the cores; printed regardless).
//!
//! All kernels must agree bit-for-bit on every workload; the bench
//! asserts that too, so a timing win can never hide a semantics drift.
//! With `--json`, every measurement is also written to
//! `BENCH_machine.json` (or `$BENCH_JSON_PATH`) as the machine-readable
//! bench trajectory.

use std::time::Instant;
use valpipe_bench::timing::{iters, json_mode, median_secs, smoke_mode, BenchLog};
use valpipe_bench::workloads::{fig3_src, fig6_src, inputs_for_compiled};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source, CompileOptions};
use valpipe_ir::value::Value;
use valpipe_ir::{Graph, Opcode};
use valpipe_machine::{
    EpochStats, Kernel, ProgramInputs, RunOutcome, RunResult, RunSpec, ShardPolicy, SimConfig,
    Simulator, DEFAULT_EPOCH_CAP,
};
use valpipe_util::{Json, Rng};

/// An identity chain of `stages` cells: with only a few packets in
/// flight, almost every cell is idle at almost every step.
fn sparse_chain(stages: usize) -> Graph {
    let mut g = Graph::new();
    let a = g.add_node(Opcode::Source("a".into()), "a");
    let mut prev = a;
    for k in 0..stages {
        prev = g.cell(Opcode::Id, format!("s{k}"), &[prev.into()]);
    }
    let _ = g.cell(Opcode::Sink("out".into()), "out", &[prev.into()]);
    g
}

/// A wide dense program — `chains` parallel arithmetic pipelines — so
/// hundreds of cells are fireable every tick: the regime the parallel
/// kernel is built for. Each chain's input stream splits off the one
/// root generator, so the workload is fully determined by the seed.
fn wide_grid(chains: usize, stages: usize, packets: usize) -> (Graph, ProgramInputs) {
    let mut g = Graph::new();
    let mut inputs = ProgramInputs::new();
    let mut root = Rng::seed(0xBEEF);
    for c in 0..chains {
        let mut r = root.split();
        let name = format!("a{c}");
        let a = g.add_node(Opcode::Source(name.clone()), &name);
        let mut prev = a;
        for k in 0..stages {
            prev = g.cell(
                Opcode::Bin(if (c + k) % 2 == 0 {
                    valpipe_ir::value::BinOp::Add
                } else {
                    valpipe_ir::value::BinOp::Mul
                }),
                format!("s{c}_{k}"),
                &[prev.into(), (0.5 + r.f64()).into()],
            );
        }
        let _ = g.cell(
            Opcode::Sink(format!("y{c}")),
            format!("y{c}"),
            &[prev.into()],
        );
        let vals: Vec<f64> = (0..packets).map(|_| r.f64()).collect();
        inputs = inputs.bind_reals(&name, &vals);
    }
    (g, inputs)
}

fn run_kernel(g: &Graph, inputs: &ProgramInputs, kernel: Kernel) -> RunResult {
    Simulator::builder(g)
        .inputs(inputs.clone())
        .kernel(kernel)
        .run()
        .unwrap()
}

/// Run under an explicit config through `Session::drive`, returning the
/// result plus what the epoch engine accomplished.
fn drive_config(g: &Graph, inputs: &ProgramInputs, cfg: SimConfig) -> (RunResult, EpochStats) {
    let driven = Simulator::builder(g)
        .inputs(inputs.clone())
        .config(cfg)
        .build()
        .unwrap()
        .drive(RunSpec::new())
        .unwrap();
    let RunOutcome::Done(result) = driven.outcome else {
        panic!("bench run must complete");
    };
    (*result, driven.epochs)
}

/// Epoch/shard record fields shared by every parallel-kernel bench row.
fn epoch_extras(cap: u64, policy: ShardPolicy, stats: &EpochStats) -> Vec<(&'static str, Json)> {
    vec![
        ("epoch_cap", Json::Int(cap as i64)),
        ("shard_policy", Json::Str(policy.as_str().to_string())),
        ("epochs", Json::Int(stats.epochs as i64)),
        ("batched_steps", Json::Int(stats.batched_steps as i64)),
        ("mean_horizon", Json::Float(stats.mean_horizon())),
        (
            "horizon_fallbacks",
            Json::Int(stats.horizon_fallbacks as i64),
        ),
        (
            "cross_wakes_deferred",
            Json::Int(stats.cross_wakes_deferred as i64),
        ),
        ("cross_arcs", Json::Int(stats.cross_arcs as i64)),
    ]
}

/// One dense workload under both sequential kernels: assert that every
/// kernel agrees bit-for-bit, then time scan and event interleaved and
/// print the event/scan ratio of their fastest runs.
fn dense_row(log: &mut BenchLog, name: &str, g: &Graph, inputs: &ProgramInputs, n: usize) {
    let reference = run_kernel(g, inputs, Kernel::Scan);
    for kernel in [Kernel::EventDriven, Kernel::ParallelEvent(2)] {
        assert_eq!(
            reference,
            run_kernel(g, inputs, kernel),
            "{kernel:?} disagrees with Scan on {name}"
        );
    }
    let kernels = [Kernel::Scan, Kernel::EventDriven];
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..n {
        for (k, &kernel) in kernels.iter().enumerate() {
            let t0 = Instant::now();
            let _ = run_kernel(g, inputs, kernel);
            times[k].push(t0.elapsed().as_secs_f64());
        }
    }
    let [scan, event] = times.map(|mut ts| {
        ts.sort_by(|x, y| x.total_cmp(y));
        (ts[0], ts[ts.len() / 2])
    });
    println!(
        "kernels/{name}/{}cells   scan {:>8.3}ms   event {:>8.3}ms   event/scan {:.2}   (min of {n})",
        g.node_count(),
        scan.0 * 1e3,
        event.0 * 1e3,
        event.0 / scan.0,
    );
    for (tag, (_, median)) in [("scan", scan), ("event", event)] {
        log.record(
            name,
            g.node_count(),
            g.arc_count(),
            tag,
            1,
            reference.steps,
            median,
        );
    }
}

fn kernel_tag(kernel: Kernel) -> (&'static str, usize) {
    match kernel {
        Kernel::Scan => ("scan", 1),
        Kernel::EventDriven => ("event", 1),
        Kernel::ParallelEvent(w) => ("parallel-event", w),
    }
}

fn main() {
    let mut log = BenchLog::new();

    // 1. Sparse-activity acceptance workload: a deep pipe, few packets.
    let stages = if smoke_mode() { 400 } else { 4000 };
    let g = sparse_chain(stages);
    let packets: Vec<f64> = (0..8).map(|i| i as f64).collect();
    let inputs = ProgramInputs::new().bind_reals("a", &packets);

    let scan = run_kernel(&g, &inputs, Kernel::Scan);
    let event = run_kernel(&g, &inputs, Kernel::EventDriven);
    assert_eq!(scan, event, "kernels disagree on the sparse chain");

    let n = iters(10);
    let t_scan = median_secs(n, || {
        let _ = run_kernel(&g, &inputs, Kernel::Scan);
    });
    let t_event = median_secs(n, || {
        let _ = run_kernel(&g, &inputs, Kernel::EventDriven);
    });
    let speedup = t_scan / t_event;
    println!(
        "kernels/sparse_chain/{stages}x8pkts       scan {:>10.3}ms   event {:>10.3}ms   speedup {speedup:>6.2}x",
        t_scan * 1e3,
        t_event * 1e3,
    );
    log.record(
        "sparse_chain",
        g.node_count(),
        g.arc_count(),
        "scan",
        1,
        scan.steps,
        t_scan,
    );
    log.record(
        "sparse_chain",
        g.node_count(),
        g.arc_count(),
        "event",
        1,
        event.steps,
        t_event,
    );
    if !smoke_mode() {
        assert!(
            speedup >= 3.0,
            "event kernel must be >= 3x faster than scan on the sparse workload, got {speedup:.2}x"
        );
    }

    // 2. A cyclic sparse workload: one token circulating a long ring.
    let ring_len = if smoke_mode() { 200 } else { 2000 };
    let mut rg = Graph::new();
    let first = rg.add_node(Opcode::Id, "r0");
    let mut prev = first;
    for k in 1..ring_len {
        prev = rg.cell(Opcode::Id, format!("r{k}"), &[prev.into()]);
    }
    rg.connect_init(prev, first, 0, Value::Int(1));
    let _ = rg.cell(Opcode::Sink("out".into()), "out", &[prev.into()]);
    let ring_run = |kernel: Kernel| {
        Simulator::builder(&rg)
            .max_steps(if smoke_mode() { 20_000 } else { 200_000 })
            .kernel(kernel)
            .run()
            .unwrap()
    };
    let ring_ref = ring_run(Kernel::Scan);
    assert_eq!(
        ring_ref,
        ring_run(Kernel::EventDriven),
        "kernels disagree on the ring"
    );
    let t_scan = median_secs(n, || {
        let _ = ring_run(Kernel::Scan);
    });
    let t_event = median_secs(n, || {
        let _ = ring_run(Kernel::EventDriven);
    });
    println!(
        "kernels/ring/{ring_len}x1token            scan {:>10.3}ms   event {:>10.3}ms   speedup {:>6.2}x",
        t_scan * 1e3,
        t_event * 1e3,
        t_scan / t_event,
    );
    log.record(
        "ring",
        rg.node_count(),
        rg.arc_count(),
        "scan",
        1,
        ring_ref.steps,
        t_scan,
    );
    log.record(
        "ring",
        rg.node_count(),
        rg.arc_count(),
        "event",
        1,
        ring_ref.steps,
        t_event,
    );

    // 3. Dense paper workloads: both sequential kernels where almost
    // everything fires, for the honest "what does it cost when everything
    // fires" number — fig6 and the fig3 program streamed 8 waves.
    for (name, src, waves) in [
        ("fig6_dense", fig6_src(64), 10),
        ("fig3_dense", fig3_src(1024), 8),
    ] {
        let compiled = compile_source(&src, &CompileOptions::paper()).unwrap();
        let exe = compiled.executable();
        let arrays = inputs_for_compiled(&compiled);
        let inputs = stream_inputs(&compiled, &arrays, waves);
        dense_row(&mut log, name, &exe, &inputs, n);
    }

    // 4. Worker sweep on the wide dense grid — the parallel kernel's
    // acceptance workload (>4000 cells, hundreds fireable per tick).
    let (chains, stages, pkts) = if smoke_mode() {
        (48, 8, 12)
    } else {
        (80, 50, 64)
    };
    let (wg, winputs) = wide_grid(chains, stages, pkts);
    if !smoke_mode() {
        assert!(
            wg.node_count() >= 4000,
            "acceptance grid must exceed 4000 cells"
        );
    }
    let reference = run_kernel(&wg, &winputs, Kernel::EventDriven);
    let mut t_of: Vec<(Kernel, f64)> = Vec::new();
    for kernel in [
        Kernel::Scan,
        Kernel::EventDriven,
        Kernel::ParallelEvent(1),
        Kernel::ParallelEvent(2),
        Kernel::ParallelEvent(4),
    ] {
        let (r, stats) = drive_config(&wg, &winputs, SimConfig::new().kernel(kernel));
        assert_eq!(r, reference, "{kernel:?} disagrees on the wide grid");
        let t = median_secs(n, || {
            let _ = run_kernel(&wg, &winputs, kernel);
        });
        let (tag, workers) = kernel_tag(kernel);
        println!(
            "kernels/wide_grid/{}cells/{tag}{workers}   {:>10.3}ms   {:>12.0} steps/s",
            wg.node_count(),
            t * 1e3,
            reference.steps as f64 / t,
        );
        let extras = if matches!(kernel, Kernel::ParallelEvent(_)) {
            epoch_extras(DEFAULT_EPOCH_CAP, ShardPolicy::Topology, &stats)
        } else {
            Vec::new()
        };
        log.record_with(
            "wide_grid",
            wg.node_count(),
            wg.arc_count(),
            tag,
            workers,
            reference.steps,
            t,
            extras,
        );
        t_of.push((kernel, t));
    }
    let t = |k: Kernel| t_of.iter().find(|(kk, _)| *kk == k).unwrap().1;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let par_speedup = t(Kernel::EventDriven) / t(Kernel::ParallelEvent(4));
    let par1_overhead = t(Kernel::ParallelEvent(1)) / t(Kernel::EventDriven);
    println!(
        "kernels/wide_grid summary: event/parallel4 {par_speedup:.2}x, parallel1 overhead {:.1}% ({cores} host cores)",
        (par1_overhead - 1.0) * 100.0,
    );
    if !smoke_mode() {
        assert!(
            par1_overhead <= 1.15,
            "single-worker parallel kernel must stay within 15% of the event kernel, got {:.1}% over",
            (par1_overhead - 1.0) * 100.0
        );
        if cores >= 4 {
            assert!(
                par_speedup >= 2.5,
                "parallel kernel at 4 workers must be >= 2.5x the event kernel on a {cores}-core host, got {par_speedup:.2}x"
            );
        } else {
            println!(
                "kernels/wide_grid: host has {cores} core(s); 4-worker speedup target needs >= 4 — recorded, not asserted"
            );
        }
    }

    // 5. Epoch/shard sweep on the same grid: how the barrier-amortizing
    // horizon cap and the sharding policy shape the 4-worker kernel.
    // cap=1 disables batching, so every step runs the sequential event
    // body (the row prices the parallel kernel's epoch gate against
    // `event1`), and the striped policy cuts chains across shards —
    // both honest baselines.
    for policy in [ShardPolicy::Topology, ShardPolicy::Striped] {
        for cap in [1u64, 4, 16, 64] {
            let cfg = SimConfig::new()
                .kernel(Kernel::ParallelEvent(4))
                .epoch_cap(cap)
                .shard_policy(policy);
            let (r, stats) = drive_config(&wg, &winputs, cfg.clone());
            assert_eq!(
                r, reference,
                "epoch sweep (cap {cap}, {policy:?}) disagrees on the wide grid"
            );
            let t = median_secs(n, || {
                let _ = drive_config(&wg, &winputs, cfg.clone());
            });
            let sequential = if cap < 2 { "-sequential" } else { "" };
            println!(
                "kernels/wide_grid/epoch_sweep/{}/cap{cap}{sequential}   {:>10.3}ms   {:>12.0} steps/s   epochs {} (mean horizon {:.1}, {} fallbacks)",
                policy.as_str(),
                t * 1e3,
                reference.steps as f64 / t,
                stats.epochs,
                stats.mean_horizon(),
                stats.horizon_fallbacks,
            );
            log.record_with(
                "wide_grid",
                wg.node_count(),
                wg.arc_count(),
                "parallel-event",
                4,
                reference.steps,
                t,
                epoch_extras(cap, policy, &stats),
            );
        }
    }

    if json_mode() {
        let path = log
            .write("kernels")
            .expect("bench trajectory must be writable");
        println!("kernels: wrote bench trajectory to {path}");
    }
}
