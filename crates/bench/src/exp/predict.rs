//! PREDICT — the paper's rate arguments as a static analysis.
//!
//! The paper derives every rate analytically (balanced pipe → 1/2, cycle
//! of `L` holding `k` → `k/L`, windows scale by selected fraction). The
//! compiler's `predict` module computes those bounds from the compiled
//! graph alone; this experiment pits the prediction against the measured
//! steady-state interval for every workload in the suite.

use crate::workloads::*;
use crate::{FaultArgs, Report};
use valpipe_core::predict::predict_compiled;
use valpipe_core::verify::check_against_oracle_with;
use valpipe_core::{compile_source, CompileOptions, ForIterScheme};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "PREDICT: static rate analysis vs measured rates",
        Some("the paper's analytical rate arguments (§3, §5–§7)"),
    );
    println!(
        "{:<28} {:>10} {:>10} {:>8}",
        "workload/output", "predicted", "measured", "err%"
    );

    let todd = {
        let mut o = CompileOptions::default();
        o.scheme = ForIterScheme::Todd;
        o
    };
    let companion = {
        let mut o = CompileOptions::default();
        o.scheme = ForIterScheme::Companion;
        o
    };
    let synth = {
        let mut o = CompileOptions::default();
        o.synthesize_generators = true;
        o
    };
    let cases: Vec<(String, String, CompileOptions, &str)> = vec![
        (
            "fig2 m=64".into(),
            fig2_src(64),
            CompileOptions::default(),
            "Y",
        ),
        (
            "fig4 m=64".into(),
            fig4_src(64),
            CompileOptions::default(),
            "S",
        ),
        (
            "fig5 m=63".into(),
            fig5_src(63),
            CompileOptions::default(),
            "Y",
        ),
        (
            "fig6 m=32".into(),
            fig6_src(32),
            CompileOptions::default(),
            "A",
        ),
        ("ex2 todd m=32".into(), example2_src(32), todd, "X"),
        (
            "ex2 companion m=32".into(),
            example2_src(32),
            companion,
            "X",
        ),
        (
            "fig3 m=64 (A)".into(),
            fig3_src(64),
            CompileOptions::default(),
            "A",
        ),
        (
            "physics m=64 (V)".into(),
            physics_src(64),
            CompileOptions::default(),
            "V",
        ),
        (
            "chain 20 blocks".into(),
            chain_src(56, 20),
            CompileOptions::default(),
            "S20",
        ),
        ("fig6 synth m=32".into(), fig6_src(32), synth, "A"),
    ];

    let mut worst: f64 = 0.0;
    for (label, src, opts, out) in cases {
        let compiled = compile_source(&src, &opts).expect("compiles");
        let predicted = predict_compiled(&compiled)[out];
        let inputs = inputs_for_compiled(&compiled);
        let report =
            match check_against_oracle_with(&compiled, &inputs, 30, 1e-8, args.sim_config()) {
                Ok(r) => r,
                Err(e) => {
                    println!("{label:<28} {e}");
                    continue;
                }
            };
        let measured = report.run.timing(out).interval().expect("steady");
        let err = (predicted - measured).abs() / measured * 100.0;
        worst = worst.max(err);
        println!("{label:<28} {predicted:>10.3} {measured:>10.3} {err:>7.2}%");
    }
    println!();
    if rep.skip_claims(args) {
        return rep;
    }
    rep.claim(
        "the static rate model matches simulation within 5% on every workload",
        worst < 5.0,
    );
    rep
}
