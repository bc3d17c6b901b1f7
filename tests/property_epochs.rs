//! Property test for the epoch-batched parallel kernel (DESIGN.md §16):
//! executing whole multi-step epochs per barrier handoff must be
//! observationally invisible. For random programs and random epoch caps
//! K ∈ {1..16}, the entire `RunResult` must equal the scan kernel's bit
//! for bit — under both shard policies, and also when faults, resource
//! throttles, or watchdogs force the engine to fall back to per-step
//! execution (the horizon is unprovable, and the gate must notice).

mod common;

use common::build_dag;
use std::collections::HashMap;
use valpipe::compiler::verify::stream_inputs;
use valpipe::ir::{BinOp, Graph, Opcode, Value};
use valpipe::machine::{
    ArcDelays, ProgramInputs, ResourceModel, RunOutcome, RunSpec, Simulator, WatchdogConfig,
};
use valpipe::{compile_source, ArrayVal, CompileOptions, Kernel, SimConfig};
use valpipe_machine::{FaultPlan, ShardPolicy};
use valpipe_util::Rng;

/// Wide graph of independent chains — the shape the topology sharder
/// packs with zero cross arcs, so epochs provably engage.
fn build_chains(chains: usize, depth: usize) -> Graph {
    let mut g = Graph::new();
    for c in 0..chains {
        let mut prev = g.add_node(Opcode::Source(format!("a{c}")), format!("a{c}"));
        for d in 0..depth {
            prev = g.cell(
                Opcode::Bin(BinOp::Add),
                format!("c{c}_{d}"),
                &[prev.into(), 1.0.into()],
            );
        }
        let sink = g.add_node(Opcode::Sink(format!("y{c}")), format!("y{c}"));
        g.connect(prev, sink, 0);
    }
    g
}

fn chain_inputs(chains: usize, n: usize) -> ProgramInputs {
    let mut inputs = ProgramInputs::new();
    for c in 0..chains {
        inputs = inputs.bind(
            format!("a{c}"),
            (0..n)
                .map(|k| Value::Real((c * n + k) as f64 * 0.5))
                .collect(),
        );
    }
    inputs
}

/// Fault-free random configuration (delays + capacities only) — the
/// regime where epochs are allowed to engage.
fn clean_config(r: &mut Rng, g: &Graph) -> SimConfig {
    let mut cfg = SimConfig::new()
        .max_steps(200_000)
        .arc_capacity(r.range(1, 4))
        .record_fire_times(r.flip());
    if r.chance(0.5) {
        cfg = cfg.delays(ArcDelays {
            forward: (0..g.arc_count()).map(|_| r.range(1, 4) as u64).collect(),
            ack: (0..g.arc_count()).map(|_| r.range(1, 4) as u64).collect(),
        });
    }
    cfg
}

/// Configuration with at least one epoch-hostile feature (faults,
/// throttles, watchdog, invariant checking) — the gate must force
/// per-step execution and stay bit-identical anyway.
fn hostile_config(r: &mut Rng, g: &Graph) -> SimConfig {
    let mut cfg = clean_config(r, g);
    loop {
        let mut any = false;
        if r.flip() {
            cfg = cfg.fault_plan(FaultPlan {
                seed: r.next_u64(),
                delay_result: 0.25,
                delay_result_max: r.range(1, 6) as u64,
                delay_ack: if r.flip() { 0.15 } else { 0.0 },
                delay_ack_max: r.range(1, 4) as u64,
                dup_result: if r.chance(0.3) { 0.05 } else { 0.0 },
                drop_ack: if r.chance(0.25) { 0.1 } else { 0.0 },
                ..Default::default()
            });
            any = true;
        }
        if r.flip() {
            let units = r.range(1, 3);
            cfg = cfg.resources(ResourceModel {
                unit_of: (0..g.node_count()).map(|_| r.below(units) as u32).collect(),
                capacity: (0..units).map(|_| r.range(1, 4) as u32).collect(),
            });
            any = true;
        }
        if r.flip() {
            cfg = cfg.watchdog(WatchdogConfig {
                step_budget: r.range(2_000, 20_000) as u64,
                progress_window: 64,
            });
            any = true;
        }
        if r.flip() {
            cfg = cfg.check_invariants(true);
            any = true;
        }
        if any {
            return cfg;
        }
    }
}

fn assert_epochs_invisible(g: &Graph, inputs: &ProgramInputs, cfg: SimConfig, ctx: &str) {
    let run = |cfg: SimConfig| {
        Simulator::builder(g)
            .inputs(inputs.clone())
            .config(cfg)
            .run()
            .unwrap()
    };
    let scan = run(cfg.clone().kernel(Kernel::Scan));
    for policy in [ShardPolicy::Topology, ShardPolicy::Striped] {
        let epoch = run(cfg
            .clone()
            .kernel(Kernel::ParallelEvent(4))
            .shard_policy(policy));
        assert_eq!(scan, epoch, "epoch run ({policy:?}) disagrees: {ctx}");
    }
}

#[test]
fn random_epoch_caps_identical_on_random_dags() {
    for case in 0..32u64 {
        let mut r = Rng::seed(0xE70C).fork(case);
        let g = build_dag(&mut r);
        let n = r.range(8, 40);
        let inputs = ProgramInputs::new()
            .bind("s0", (0..n).map(|k| Value::Real(k as f64 * 0.5)).collect())
            .bind(
                "s1",
                (0..n).map(|k| Value::Real(1.0 + k as f64 * 0.25)).collect(),
            );
        let cap = r.range(1, 17) as u64;
        let cfg = clean_config(&mut r, &g).epoch_cap(cap);
        assert_epochs_invisible(&g, &inputs, cfg, &format!("dag case {case} cap {cap}"));
    }
}

#[test]
fn random_epoch_caps_identical_on_compiled_programs() {
    for case in 0..8u64 {
        let mut r = Rng::seed(0xE70D).fork(case);
        let m = r.range(10, 24);
        let c1 = 0.25 + 0.25 * r.below(3) as f64;
        let src = format!(
            "param m = {m};\ninput S0 : array[real] [0, m+1];\nS1 : array[real] :=\n  forall i in [0, m+1]\n    P : real :=\n      if (i = 0)|(i = m+1) then S0[i]\n      else {c1} * (S0[i-1] + 2.0*S0[i] + S0[i+1])\n      endif;\n  construct P endall;\noutput S1;\n"
        );
        let compiled = compile_source(&src, &CompileOptions::paper())
            .unwrap_or_else(|e| panic!("case {case} must compile: {e}"));
        let exe = compiled.executable();
        let vals: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut arrays = HashMap::new();
        arrays.insert("S0".to_string(), ArrayVal::from_reals(0, &vals));
        let inputs = stream_inputs(&compiled, &arrays, r.range(3, 8));
        let cap = r.range(1, 17) as u64;
        let cfg = clean_config(&mut r, &exe).epoch_cap(cap);
        assert_epochs_invisible(
            &exe,
            &inputs,
            cfg,
            &format!("compiled case {case} cap {cap}"),
        );
    }
}

#[test]
fn hostile_configs_force_fallback_and_stay_identical() {
    for case in 0..24u64 {
        let mut r = Rng::seed(0xE70E).fork(case);
        let g = build_dag(&mut r);
        let n = r.range(8, 40);
        let inputs = ProgramInputs::new()
            .bind("s0", (0..n).map(|k| Value::Real(k as f64 * 0.5)).collect())
            .bind(
                "s1",
                (0..n).map(|k| Value::Real(1.0 + k as f64 * 0.25)).collect(),
            );
        let cap = r.range(1, 17) as u64;
        let cfg = hostile_config(&mut r, &g).epoch_cap(cap);
        assert_epochs_invisible(&g, &inputs, cfg, &format!("hostile case {case} cap {cap}"));
    }
}

/// On a wide graph of independent chains the topology sharder packs
/// whole chains per shard (zero cross arcs), so the engine must
/// actually batch: epochs > 0, a mean horizon ≥ 2, and the batched
/// steps must account for (nearly) the whole run.
#[test]
fn epochs_engage_on_partitionable_graphs() {
    let g = build_chains(8, 6);
    let inputs = chain_inputs(8, 32);
    let driven = Simulator::builder(&g)
        .inputs(inputs.clone())
        .config(SimConfig::new().kernel(Kernel::ParallelEvent(4)))
        .build()
        .unwrap()
        .drive(RunSpec::new())
        .unwrap();
    let stats = driven.epochs;
    assert!(stats.epochs > 0, "no epochs ran on a partitionable graph");
    assert!(
        stats.mean_horizon() >= 2.0,
        "mean horizon {} < 2",
        stats.mean_horizon()
    );
    assert!(stats.batched_steps > 0);
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.cross_arcs, 0, "chain packing must not cut chains");
    let RunOutcome::Done(result) = driven.outcome else {
        panic!("run must complete");
    };
    // And the batched run still matches the scan kernel exactly.
    let scan = Simulator::builder(&g)
        .inputs(inputs)
        .config(SimConfig::new().kernel(Kernel::Scan))
        .run()
        .unwrap();
    assert_eq!(scan, *result);
}

/// A pause boundary lands inside what would otherwise be one long
/// epoch; the clamp must stop exactly at the boundary and the resumed
/// run must still be bit-identical.
#[test]
fn pause_inside_epoch_window_resumes_identically() {
    let g = build_chains(6, 5);
    let inputs = chain_inputs(6, 24);
    let cfg = SimConfig::new().kernel(Kernel::ParallelEvent(4));
    let reference = Simulator::builder(&g)
        .inputs(inputs.clone())
        .config(cfg.clone())
        .run()
        .unwrap();
    for pause in [3u64, 7, 13, 29] {
        let driven = Simulator::builder(&g)
            .inputs(inputs.clone())
            .config(cfg.clone())
            .build()
            .unwrap()
            .drive(RunSpec::new().pause_at(pause))
            .unwrap();
        let RunOutcome::Paused(session) = driven.outcome else {
            panic!("pause at {pause} must yield a paused session");
        };
        let resumed = session.drive(RunSpec::new()).unwrap();
        let RunOutcome::Done(result) = resumed.outcome else {
            panic!("resumed run must complete");
        };
        assert_eq!(reference, *result, "pause at {pause} changed the run");
    }
}
