//! Property test: `ExecMode::FastForward` is observationally identical
//! to exact execution — for random balanced programs fed periodic
//! (repeated-wave) inputs under random configurations, the entire
//! `RunResult` must be bit-identical on every kernel, whether or not the
//! engine found a periodic window to skip. Configurations that make
//! windows inexact (fault plans, throttles) must fall back to exact
//! stepping and still agree.

mod common;

use common::build_dag;
use std::collections::HashMap;
use valpipe::compiler::verify::stream_inputs;
use valpipe::ir::{Graph, Value};
use valpipe::machine::{ArcDelays, ProgramInputs, ResourceModel, Simulator, WatchdogConfig};
use valpipe::{compile_source, ArrayVal, CompileOptions, Kernel, RunSpec, SimConfig};
use valpipe_machine::FaultPlan;
use valpipe_util::Rng;

/// Periodic inputs: a short random wave repeated many times — the
/// steady-state shape fast-forward exists for.
fn periodic_inputs(r: &mut Rng, waves: usize) -> ProgramInputs {
    let wlen = r.range(2, 6);
    let wave_a: Vec<f64> = (0..wlen).map(|_| 0.25 * r.range(1, 16) as f64).collect();
    let wave_b: Vec<f64> = (0..wlen).map(|_| 0.25 * r.range(1, 16) as f64).collect();
    let n = waves * wlen;
    ProgramInputs::new()
        .bind(
            "s0",
            (0..n).map(|k| Value::Real(wave_a[k % wlen])).collect(),
        )
        .bind(
            "s1",
            (0..n).map(|k| Value::Real(wave_b[k % wlen])).collect(),
        )
}

/// Random configuration. Unlike the kernel property, hazards are tagged:
/// fault plans and throttles are drawn separately so the test can assert
/// the fallback accounting.
fn random_config(r: &mut Rng, g: &Graph, hazards: bool) -> SimConfig {
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
    if r.chance(0.3) {
        cfg = cfg.watchdog(WatchdogConfig {
            step_budget: r.range(20_000, 120_000) as u64,
            progress_window: 1_000,
        });
    }
    if hazards {
        if r.flip() {
            cfg = cfg.fault_plan(FaultPlan {
                seed: r.next_u64(),
                delay_result: 0.25,
                delay_result_max: r.range(1, 6) as u64,
                dup_result: if r.chance(0.3) { 0.05 } else { 0.0 },
                ..Default::default()
            });
        } else {
            let units = r.range(1, 3);
            cfg = cfg.resources(ResourceModel {
                unit_of: (0..g.node_count()).map(|_| r.below(units) as u32).collect(),
                capacity: (0..units).map(|_| r.range(1, 4) as u32).collect(),
            });
        }
    }
    cfg.check_invariants(r.flip())
}

/// Exact run vs fast-forwarded run on every kernel; returns the total
/// steps skipped (to assert engagement happened across the sweep).
fn assert_ff_identical(g: &Graph, inputs: &ProgramInputs, cfg: &SimConfig, ctx: &str) -> u64 {
    let mut skipped = 0;
    for (ki, kernel) in [Kernel::Scan, Kernel::EventDriven].into_iter().enumerate() {
        let exact = Simulator::builder(g)
            .inputs(inputs.clone())
            .config(cfg.clone().kernel(kernel))
            .run()
            .unwrap_or_else(|e| panic!("{ctx}: exact run failed: {e}"));
        // The event kernel re-verifies its first windows against a shadow
        // replay; the scan kernel trusts the periodicity proof outright.
        let verify = if ki == 1 { 2 } else { 0 };
        let driven = Simulator::builder(g)
            .inputs(inputs.clone())
            .config(cfg.clone().kernel(kernel))
            .build()
            .unwrap_or_else(|e| panic!("{ctx}: build failed: {e}"))
            .drive(RunSpec::new().fast_forward(verify))
            .unwrap_or_else(|e| panic!("{ctx}: ff run failed: {e}"));
        // Only hazard-free configs come here (fault plans and throttles
        // are `hazardous_configs_fall_back_and_agree`'s), so nothing may
        // fall back.
        assert_eq!(
            driven.fast_forward.fallbacks, 0,
            "{ctx}: unexpected fallback on {kernel:?}"
        );
        skipped += driven.fast_forward.skipped_steps;
        let ff = driven.result();
        assert_eq!(ff, exact, "{ctx}: fast-forward diverged on {kernel:?}");
    }
    skipped
}

#[test]
fn random_dags_fast_forward_identically() {
    let mut total_skipped = 0u64;
    for case in 0..24u64 {
        let mut r = Rng::seed(0xFF01).fork(case);
        let g = build_dag(&mut r);
        let waves = r.range(60, 200);
        let inputs = periodic_inputs(&mut r, waves);
        let cfg = random_config(&mut r, &g, false);
        total_skipped += assert_ff_identical(&g, &inputs, &cfg, &format!("dag case {case}"));
    }
    assert!(
        total_skipped > 10_000,
        "the sweep must actually engage fast-forward (skipped {total_skipped})"
    );
}

#[test]
fn hazardous_configs_fall_back_and_agree() {
    for case in 0..16u64 {
        let mut r = Rng::seed(0xFF02).fork(case);
        let g = build_dag(&mut r);
        let waves = r.range(20, 60);
        let inputs = periodic_inputs(&mut r, waves);
        let cfg = random_config(&mut r, &g, true);
        for kernel in [Kernel::Scan, Kernel::EventDriven] {
            let exact = Simulator::builder(&g)
                .inputs(inputs.clone())
                .config(cfg.clone().kernel(kernel))
                .run()
                .unwrap();
            let driven = Simulator::builder(&g)
                .inputs(inputs.clone())
                .config(cfg.clone().kernel(kernel))
                .build()
                .unwrap()
                .drive(RunSpec::new().fast_forward(1))
                .unwrap();
            assert_eq!(driven.fast_forward.skipped_steps, 0, "case {case}");
            assert_eq!(driven.fast_forward.fallbacks, 1, "case {case}");
            assert_eq!(driven.result(), exact, "case {case} on {kernel:?}");
        }
    }
}

/// Random pipe-structured Val programs through the full compiler, fed
/// many repetitions of one input wave (`stream_inputs` is periodic by
/// construction) — gates, merges, FIFOs, and feedback loops.
fn random_pipe_source(r: &mut Rng) -> (String, usize) {
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
    src.push_str(&format!("output S{blocks};\n"));
    (src, m)
}

#[test]
fn random_compiled_programs_fast_forward_identically() {
    let mut total_skipped = 0u64;
    for case in 0..8u64 {
        let mut r = Rng::seed(0xFF03).fork(case);
        let (src, m) = random_pipe_source(&mut r);
        let compiled = compile_source(&src, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("case {case} must compile: {e}\n{src}"));
        let exe = compiled.executable();
        let vals: Vec<f64> = (0..m + 2).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut arrays = HashMap::new();
        arrays.insert("S0".to_string(), ArrayVal::from_reals(0, &vals));
        let waves = r.range(20, 40);
        let inputs = stream_inputs(&compiled, &arrays, waves);
        let cfg = SimConfig::new().max_steps(500_000);
        total_skipped += assert_ff_identical(&exe, &inputs, &cfg, &format!("compiled case {case}"));
    }
    assert!(
        total_skipped > 0,
        "at least one compiled case must engage fast-forward"
    );
}
