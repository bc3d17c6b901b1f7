//! Property test: the scan and event-driven kernels are observationally
//! identical — for random programs under random simulator
//! configurations, the entire `RunResult` (packets, times, fire counts,
//! step count, stop reason, stall report) must be equal bit for bit.
//!
//! Two program families:
//!  * random layered DAGs over ADD/MUL/ID cells (arbitrary graph shape),
//!  * random pipe-structured Val programs through the full compiler
//!    (generators, gates, merges, FIFOs, feedback loops).
//!
//! Plus the compiled 100-block chain (1002 cells, the `chain_cold`
//! benchmark machine): whole runs, and checkpoints restored across
//! kernels.

mod common;

use common::build_dag;
use std::collections::HashMap;
use valpipe::compiler::verify::stream_inputs;
use valpipe::ir::{Graph, Value};
use valpipe::machine::{
    ArcDelays, ProgramInputs, ResourceModel, RunOutcome, Simulator, WatchdogConfig,
};
use valpipe::{compile_source, ArrayVal, CompileOptions, Kernel, RunSpec, Session, SimConfig};
use valpipe_machine::FaultPlan;
use valpipe_util::Rng;

/// Random simulator configuration: capacities, per-arc latencies,
/// resource throttles, seeded fault plans, watchdogs, stop conditions.
fn random_config(r: &mut Rng, g: &Graph) -> SimConfig {
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
    if r.chance(0.4) {
        let units = r.range(1, 3);
        cfg = cfg.resources(ResourceModel {
            unit_of: (0..g.node_count()).map(|_| r.below(units) as u32).collect(),
            capacity: (0..units).map(|_| r.range(1, 4) as u32).collect(),
        });
    }
    if r.chance(0.4) {
        cfg = cfg.fault_plan(FaultPlan {
            seed: r.next_u64(),
            delay_result: if r.flip() { 0.25 } else { 0.0 },
            delay_result_max: r.range(1, 6) as u64,
            delay_ack: if r.flip() { 0.15 } else { 0.0 },
            delay_ack_max: r.range(1, 4) as u64,
            dup_result: if r.chance(0.3) { 0.05 } else { 0.0 },
            drop_ack: if r.chance(0.25) { 0.1 } else { 0.0 },
            ..Default::default()
        });
    }
    if r.chance(0.3) {
        cfg = cfg.watchdog(WatchdogConfig {
            step_budget: r.range(2_000, 20_000) as u64,
            progress_window: 64,
        });
    }
    cfg = cfg.check_invariants(r.flip());
    cfg
}

fn assert_kernels_agree(g: &Graph, inputs: &ProgramInputs, cfg: SimConfig, ctx: &str) {
    let run = |kernel: Kernel| {
        Simulator::builder(g)
            .inputs(inputs.clone())
            .config(cfg.clone().kernel(kernel))
            .run()
            .unwrap()
    };
    assert_eq!(
        run(Kernel::Scan),
        run(Kernel::EventDriven),
        "EventDriven disagrees with Scan: {ctx}"
    );
}

#[test]
fn random_dags_random_configs_identical_runs() {
    for case in 0..48u64 {
        let mut r = Rng::seed(0x7001).fork(case);
        let g = build_dag(&mut r);
        let n = r.range(8, 40);
        let inputs = ProgramInputs::new()
            .bind("s0", (0..n).map(|k| Value::Real(k as f64 * 0.5)).collect())
            .bind(
                "s1",
                (0..n).map(|k| Value::Real(1.0 + k as f64 * 0.25)).collect(),
            );
        let cfg = random_config(&mut r, &g);
        assert_kernels_agree(&g, &inputs, cfg, &format!("dag case {case}"));
    }
}

/// Random pipe-structured Val program in the paper's Fig. 3 shape: a
/// chain of boundary-conditioned stencil forall blocks (each compiles
/// to gates + a merge), optionally capped by a first-order for-iter
/// recurrence (which the companion scheme turns into a merge-seeded
/// feedback loop). Coefficients and depth are randomized.
fn random_pipe_source(r: &mut Rng) -> (String, usize, String) {
    let blocks = r.range(1, 4);
    let m = r.range(10, 24);
    let mut src = format!("param m = {m};\ninput S0 : array[real] [0, m+1];\n");
    for k in 1..=blocks {
        let c1 = 0.25 + 0.25 * r.below(3) as f64;
        let c2 = 1.0 + r.below(2) as f64;
        src.push_str(&format!(
            "S{k} : array[real] :=\n  forall i in [0, m+1]\n    P : real :=\n      if (i = 0)|(i = m+1) then S{p}[i]\n      else {c1} * (S{p}[i-1] + {c2}*S{p}[i] + S{p}[i+1])\n      endif;\n  construct P endall;\n",
            p = k - 1,
        ));
    }
    let mut out = format!("S{blocks}");
    if r.flip() {
        let c = 0.25 + 0.25 * r.below(3) as f64;
        src.push_str(&format!(
            "X : array[real] :=\n  for\n    i : integer := 1;\n    T : array[real] := [0: 0.]\n  do\n    let P : real := {c}*S{blocks}[i]*T[i-1] + S0[i]\n    in\n      if i < m then\n        iter\n          T := T[i: P];\n          i := i + 1\n        enditer\n      else T\n      endif\n    endlet\n  endfor;\n",
        ));
        out = "X".into();
    }
    src.push_str(&format!("output {out};\n"));
    (src, m, out)
}

#[test]
fn random_compiled_programs_identical_runs() {
    for case in 0..12u64 {
        let mut r = Rng::seed(0x7002).fork(case);
        let (src, m, _) = random_pipe_source(&mut r);
        let compiled = compile_source(&src, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("case {case} must compile: {e}\n{src}"));
        let exe = compiled.executable();
        let vals: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut arrays = HashMap::new();
        arrays.insert("S0".to_string(), ArrayVal::from_reals(0, &vals));
        let waves = r.range(3, 8);
        let inputs = stream_inputs(&compiled, &arrays, waves);
        let cfg = random_config(&mut r, &exe);
        assert_kernels_agree(&exe, &inputs, cfg, &format!("compiled case {case}"));
    }
}

/// The compiled `chain_src(216, 100)` machine and one wave of inputs.
fn chain_machine() -> (Graph, ProgramInputs) {
    let src = valpipe_bench::workloads::chain_src(216, 100);
    let compiled = compile_source(&src, &CompileOptions::default()).expect("chain compiles");
    let exe = compiled.executable();
    let vals: Vec<f64> = (0..218).map(|i| (i as f64 * 0.37).cos()).collect();
    let mut arrays = HashMap::new();
    arrays.insert("S0".to_string(), ArrayVal::from_reals(0, &vals));
    let inputs = stream_inputs(&compiled, &arrays, 1);
    (exe, inputs)
}

#[test]
fn hundred_block_chain_identical_runs() {
    let (g, inputs) = chain_machine();
    assert_eq!(g.node_count(), 1002);
    let run = |kernel: Kernel| {
        Simulator::builder(&g)
            .inputs(inputs.clone())
            .config(SimConfig::new().kernel(kernel))
            .run()
            .unwrap()
    };
    let scan = run(Kernel::Scan);
    assert!(scan.sources_exhausted, "the chain must drain");
    assert_eq!(
        run(Kernel::EventDriven),
        scan,
        "EventDriven disagrees with Scan"
    );
}

#[test]
fn hundred_block_chain_restores_across_kernels() {
    let (g, inputs) = chain_machine();
    let kernels = [Kernel::Scan, Kernel::EventDriven];
    let reference = Simulator::builder(&g).inputs(inputs.clone()).run().unwrap();
    for (i, &from) in kernels.iter().enumerate() {
        let to = kernels[(i + 1) % kernels.len()];
        let session = Simulator::builder(&g)
            .inputs(inputs.clone())
            .config(SimConfig::new().kernel(from))
            .build()
            .unwrap();
        // Mid-fill: the pipe is partly occupied and acknowledges pending.
        let RunOutcome::Paused(paused) =
            session.drive(RunSpec::new().pause_at(301)).unwrap().outcome
        else {
            panic!("{from:?}: the chain must still be running at step 301");
        };
        let resumed = Session::restore_with_kernel(&g, &paused.checkpoint(), to)
            .unwrap()
            .drive(RunSpec::new())
            .unwrap()
            .result();
        assert_eq!(resumed, reference, "{from:?} -> {to:?} restore differs");
    }
}
