//! Bench: scan vs event-driven step-loop kernels.
//!
//! The scan kernel pays O(cells) every instruction time; the event-driven
//! kernel pays O(fired + woken). On a dense, fully pipelined workload the
//! two are close (most cells fire most steps): the fig6, fig3 and
//! 100-block chain dense rows time `Session::drive` alone (each run's
//! session is built before its timer starts), interleave scan and event
//! runs for about a second per kernel, and print the event/scan ratio of
//! the fastest runs (recorded as `event_over_scan` in both of the row's
//! JSON entries, next to the run count `runs`) and each kernel's wall
//! time per fired cell, so the per-fire cost stays visible. The
//! separation shows on *sparse-activity* workloads — a long pipeline carrying a handful of
//! packets, where the scan kernel re-examines thousands of idle cells per
//! step. That is the acceptance workload: the event kernel must beat the
//! scan kernel by at least 3× there (asserted, not just printed).
//!
//! A *wide* dense program (>4000 cells, hundreds fireable per tick) gets
//! the same scan-against-event row as the paper workloads.
//!
//! Both kernels must agree bit-for-bit on every workload; the bench
//! asserts that too, so a timing win can never hide a semantics drift.
//! With `--json`, every measurement is also written to
//! `BENCH_machine.json` (or `$BENCH_JSON_PATH`) as the machine-readable
//! bench trajectory.

use std::time::Instant;
use valpipe_bench::timing::{iters, json_mode, median_secs, smoke_mode, BenchLog};
use valpipe_bench::workloads::{chain_src, fig3_src, fig6_src, inputs_for_compiled};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source, CompileOptions};
use valpipe_ir::value::Value;
use valpipe_ir::{Graph, Opcode};
use valpipe_machine::{Kernel, ProgramInputs, RunResult, RunSpec, SimConfig, Simulator};
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

/// A wide dense program — `chains` side-by-side arithmetic pipelines —
/// so hundreds of cells are fireable every tick. Each chain's input
/// stream splits off the one root generator, so the workload is fully
/// determined by the seed.
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
        .config(SimConfig::new().kernel(kernel))
        .run()
        .unwrap()
}

/// Wall seconds of one `drive` of a fresh session on `kernel`; the
/// session is built, and the result dropped, outside the timer.
fn drive_secs(g: &Graph, inputs: &ProgramInputs, kernel: Kernel) -> f64 {
    let session = Simulator::builder(g)
        .inputs(inputs.clone())
        .config(SimConfig::new().kernel(kernel))
        .build()
        .unwrap();
    let t0 = Instant::now();
    let driven = session.drive(RunSpec::new());
    let secs = t0.elapsed().as_secs_f64();
    driven.unwrap();
    secs
}

/// One dense workload under both kernels: assert that they agree
/// bit-for-bit, then time scan and event drives interleaved — one run
/// each in smoke mode, else as many as take about a second per kernel —
/// and print the event/scan ratio of their fastest runs.
fn dense_row(log: &mut BenchLog, name: &str, g: &Graph, inputs: &ProgramInputs) {
    let reference = run_kernel(g, inputs, Kernel::Scan);
    assert_eq!(
        reference,
        run_kernel(g, inputs, Kernel::EventDriven),
        "EventDriven disagrees with Scan on {name}"
    );
    let kernels = [Kernel::Scan, Kernel::EventDriven];
    let n = if smoke_mode() {
        1
    } else {
        let slowest = kernels
            .iter()
            .map(|&k| drive_secs(g, inputs, k))
            .fold(0.0, f64::max);
        (1.0 / slowest).ceil().clamp(10.0, 100_000.0) as usize
    };
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..n {
        for (k, &kernel) in kernels.iter().enumerate() {
            times[k].push(drive_secs(g, inputs, kernel));
        }
    }
    let [scan, event] = times.map(|mut ts| {
        ts.sort_by(|x, y| x.total_cmp(y));
        (ts[0], ts[ts.len() / 2])
    });
    let ns_per_fire = |secs: f64| secs * 1e9 / reference.total_fires.max(1) as f64;
    let event_over_scan = event.0 / scan.0;
    println!(
        "kernels/{name}/{}cells   scan {:>8.3}ms ({:.1} ns/fire)   event {:>8.3}ms ({:.1} ns/fire)   event/scan {event_over_scan:.2}   (min of {n})",
        g.node_count(),
        scan.0 * 1e3,
        ns_per_fire(scan.0),
        event.0 * 1e3,
        ns_per_fire(event.0),
    );
    for (tag, (_, median)) in [("scan", scan), ("event", event)] {
        log.record_with(
            name,
            g.node_count(),
            g.arc_count(),
            tag,
            1,
            reference.steps,
            median,
            [
                ("ns_per_fire", Json::Float(ns_per_fire(median))),
                ("event_over_scan", Json::Float(event_over_scan)),
                ("runs", Json::Int(n as i64)),
            ],
        );
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
            .config(
                SimConfig::new()
                    .max_steps(if smoke_mode() { 20_000 } else { 200_000 })
                    .kernel(kernel),
            )
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
    // fires" number — fig6, the fig3 program streamed 8 waves, and the
    // 100-block chain (1002 cells: the layout-bound case).
    for (name, src, waves) in [
        ("fig6_dense", fig6_src(64), 10),
        ("fig3_dense", fig3_src(1024), 8),
        ("chain100_dense", chain_src(216, 100), 1),
    ] {
        let compiled = compile_source(&src, &CompileOptions::default()).unwrap();
        let exe = compiled.executable();
        let arrays = inputs_for_compiled(&compiled);
        let inputs = stream_inputs(&compiled, &arrays, waves);
        dense_row(&mut log, name, &exe, &inputs);
    }

    // 4. The wide dense grid (>4000 cells, hundreds fireable per tick).
    let (chains, stages, pkts) = if smoke_mode() {
        (48, 8, 12)
    } else {
        (80, 50, 64)
    };
    let (wg, winputs) = wide_grid(chains, stages, pkts);
    dense_row(&mut log, "wide_grid", &wg, &winputs);

    if json_mode() {
        let path = log
            .write("kernels")
            .expect("bench trajectory must be writable");
        println!("kernels: wrote bench trajectory to {path}");
    }
}
