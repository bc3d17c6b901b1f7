//! Property test: checkpoint/restore is exact at *every* step.
//!
//! For random programs under random configurations (delays, contention,
//! seeded faults, watchdogs), a run is driven with a checkpoint taken
//! every instruction time; each snapshot is then restored — on the same
//! kernel and across a kernel switch — and run to completion. Every
//! recovered `RunResult` must equal the uninterrupted run bit for bit.
//!
//! Two program families, as in `property_kernels`: random layered DAGs,
//! and pipe-structured Val programs through the full compiler (gates,
//! merges, control generators, FIFO expansion, feedback loops).

mod common;

use common::build_dag;
use std::collections::HashMap;
use valpipe::compiler::verify::stream_inputs;
use valpipe::ir::{Graph, Value};
use valpipe::machine::{
    ArcDelays, ProgramInputs, ResourceModel, RunSpec, Session, Simulator, WatchdogConfig,
};
use valpipe::{compile_source, ArrayVal, CompileOptions, Kernel, SimConfig, Snapshot};
use valpipe_machine::FaultPlan;
use valpipe_util::Rng;

/// Random configuration. Acknowledge drops (which wedge arcs forever)
/// are always paired with a watchdog so the run terminates in a stall
/// report — recovering *into* a stall is part of the property.
fn random_config(r: &mut Rng, g: &Graph) -> SimConfig {
    let mut cfg = SimConfig::new()
        .max_steps(50_000)
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
    if r.chance(0.5) {
        let drop_ack = if r.chance(0.25) { 0.05 } else { 0.0 };
        cfg = cfg.fault_plan(FaultPlan {
            seed: r.next_u64(),
            delay_result: if r.flip() { 0.25 } else { 0.0 },
            delay_result_max: r.range(1, 6) as u64,
            delay_ack: if r.flip() { 0.15 } else { 0.0 },
            delay_ack_max: r.range(1, 4) as u64,
            dup_result: if r.chance(0.3) { 0.05 } else { 0.0 },
            drop_ack,
            ..Default::default()
        });
        if drop_ack > 0.0 {
            cfg = cfg.watchdog(WatchdogConfig {
                step_budget: 3_000,
                progress_window: 64,
            });
        }
    }
    cfg.check_invariants(r.flip())
}

/// Drive one full run under `capture_kernel` snapshotting every step,
/// then restore every snapshot on each kernel and run it out; all
/// recovered results must equal the uninterrupted run.
fn assert_recoverable_at_every_step(
    g: &Graph,
    inputs: &ProgramInputs,
    cfg: &SimConfig,
    capture_kernel: Kernel,
    ctx: &str,
) {
    let mut snaps: Vec<Snapshot> = Vec::new();
    let reference = Simulator::builder(g)
        .inputs(inputs.clone())
        .config(cfg.clone().kernel(capture_kernel).checkpoint_every(1))
        .build()
        .unwrap_or_else(|e| panic!("{ctx}: build failed: {e}"))
        .drive_with(RunSpec::new(), |s| snaps.push(s))
        .unwrap_or_else(|e| panic!("{ctx}: run failed: {e}"))
        .result();
    assert!(!snaps.is_empty(), "{ctx}: no checkpoints emitted");
    // Every step was checkpointed; subsample long runs to bound cost,
    // always keeping the first and the final-step snapshot (the final
    // one re-evaluates the stopping decision from restored state alone).
    let stride = snaps.len().div_ceil(48);
    let last = snaps.len() - 1;
    for (i, snap) in snaps.iter().enumerate() {
        if i % stride != 0 && i != last {
            continue;
        }
        for resume_kernel in [Kernel::Scan, Kernel::EventDriven] {
            let recovered = Session::restore_with_kernel(g, snap, resume_kernel)
                .unwrap_or_else(|e| panic!("{ctx}: restore at {} failed: {e}", snap.step()))
                .drive(RunSpec::new())
                .unwrap_or_else(|e| panic!("{ctx}: resumed run at {} failed: {e}", snap.step()))
                .result();
            assert_eq!(
                recovered,
                reference,
                "{ctx}: diverged after restore at step {} ({capture_kernel:?} -> {resume_kernel:?})",
                snap.step()
            );
        }
    }
}

#[test]
fn random_dags_recover_exactly_at_every_step() {
    for case in 0..24u64 {
        let mut r = Rng::seed(0x5A11).fork(case);
        let g = build_dag(&mut r);
        let n = r.range(6, 20);
        let inputs = ProgramInputs::new()
            .bind("s0", (0..n).map(|k| Value::Real(k as f64 * 0.5)).collect())
            .bind(
                "s1",
                (0..n).map(|k| Value::Real(1.0 + k as f64 * 0.25)).collect(),
            );
        let cfg = random_config(&mut r, &g);
        let capture = match case % 2 {
            0 => Kernel::Scan,
            _ => Kernel::EventDriven,
        };
        assert_recoverable_at_every_step(&g, &inputs, &cfg, capture, &format!("dag case {case}"));
    }
}

/// Hostile-bytes fuzz of the snapshot decoder: arbitrary buffers,
/// bit-flipped real snapshots, truncations, and valid-prefix-plus-junk
/// must all come back as typed [`SnapshotError`]s — never a panic, and
/// never a silently accepted corruption (the checksums see to that).
#[test]
fn corrupt_snapshot_bytes_never_panic_and_never_pass() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // A genuine snapshot to corrupt, taken mid-run of a small DAG.
    let mut r = Rng::seed(0xC0AB);
    let g = build_dag(&mut r);
    let inputs = ProgramInputs::new()
        .bind("s0", (0..12).map(|k| Value::Real(k as f64 * 0.5)).collect())
        .bind("s1", (0..12).map(|k| Value::Real(1.0 + k as f64)).collect());
    let session = Simulator::builder(&g)
        .inputs(inputs)
        .config(SimConfig::new().max_steps(50_000))
        .build()
        .expect("builds");
    let paused = match session
        .drive(RunSpec::new().pause_at(3))
        .expect("drives")
        .outcome
    {
        valpipe::machine::RunOutcome::Paused(s) => s,
        _ => panic!("expected a pause at step 3"),
    };
    let good = paused.checkpoint().as_bytes().to_vec();
    assert!(Snapshot::from_bytes(good.clone()).is_ok());

    let old_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut rejected = 0usize;
    let mut panicked: Option<String> = None;
    for trial in 0..400u64 {
        let mut rr = Rng::seed(0xBAD5EED).fork(trial);
        let bytes: Vec<u8> = match trial % 4 {
            // Arbitrary garbage of arbitrary length.
            0 => (0..rr.below(256)).map(|_| rr.below(256) as u8).collect(),
            // Real snapshot with 1–8 flipped bits.
            1 => {
                let mut b = good.clone();
                for _ in 0..1 + rr.below(8) {
                    let i = rr.below(b.len());
                    b[i] ^= 1 << rr.below(8);
                }
                b
            }
            // Truncation at an arbitrary point.
            2 => good[..rr.below(good.len())].to_vec(),
            // Valid prefix, garbage tail.
            _ => {
                let cut = rr.below(good.len());
                let mut b = good[..cut].to_vec();
                b.extend((0..rr.below(64)).map(|_| rr.below(256) as u8));
                b
            }
        };
        let same_len = bytes.len() == good.len();
        let unchanged = same_len && bytes == good;
        let decoded = catch_unwind(AssertUnwindSafe(|| Snapshot::from_bytes(bytes)));
        match decoded {
            Ok(Ok(snap)) => {
                // Only an unchanged buffer may decode; and restoring it
                // must behave (flips can, rarely, collide checksums —
                // then restore still must not panic).
                if unchanged {
                    continue;
                }
                let restored =
                    catch_unwind(AssertUnwindSafe(|| Session::restore(&g, &snap).map(|_| ())));
                if restored.is_err() {
                    panicked = Some(format!("trial {trial}: restore panicked"));
                    break;
                }
            }
            Ok(Err(_)) => rejected += 1,
            Err(_) => {
                panicked = Some(format!("trial {trial}: Snapshot::from_bytes panicked"));
                break;
            }
        }
    }
    std::panic::set_hook(old_hook);
    if let Some(msg) = panicked {
        panic!("{msg}");
    }
    assert!(
        rejected > 300,
        "only {rejected}/400 corruptions were rejected"
    );
}

#[test]
fn compiled_programs_recover_exactly_at_every_step() {
    // A boundary-conditioned stencil block capped by a first-order
    // recurrence: compiles to control generators, T/F gates, merges and
    // FIFO pseudo-cells — the cell kinds the DAG family cannot produce.
    let src = "param m = 12;\n\
               input S0 : array[real] [0, m+1];\n\
               S1 : array[real] :=\n  forall i in [0, m+1]\n    P : real :=\n      if (i = 0)|(i = m+1) then S0[i]\n      else 0.25 * (S0[i-1] + 2.*S0[i] + S0[i+1])\n      endif;\n  construct P endall;\n\
               X : array[real] :=\n  for\n    i : integer := 1;\n    T : array[real] := [0: 0.]\n  do\n    let P : real := 0.5*S1[i]*T[i-1] + S0[i]\n    in\n      if i < m then\n        iter\n          T := T[i: P];\n          i := i + 1\n        enditer\n      else T\n      endif\n    endlet\n  endfor;\n\
               output X;\n";
    let compiled = compile_source(src, &CompileOptions::paper()).expect("program must compile");
    let mut exe = compiled.executable().clone();
    exe.expand_fifos();
    let vals: Vec<f64> = (0..14).map(|i| (i as f64 * 0.2).sin()).collect();
    let mut arrays = HashMap::new();
    arrays.insert("S0".to_string(), ArrayVal::from_reals(0, &vals));
    for case in 0..4u64 {
        let mut r = Rng::seed(0x5A12).fork(case);
        let waves = r.range(2, 5);
        let inputs = stream_inputs(&compiled, &arrays, waves);
        let cfg = random_config(&mut r, &exe);
        let capture = match case % 2 {
            0 => Kernel::EventDriven,
            _ => Kernel::Scan,
        };
        assert_recoverable_at_every_step(
            &exe,
            &inputs,
            &cfg,
            capture,
            &format!("compiled case {case}"),
        );
    }
}
