//! `valpipe` — command-line driver.
//!
//! ```text
//! valpipe compile <file.val> [--todd|--companion] [--synth] [--asap|--no-balance] [--json]
//! valpipe run     <file.val> [options] [--waves N] [--input NAME=v1,v2,…]
//! valpipe dot     <file.val> [options]
//! valpipe check   <file.val>
//! ```
//!
//! `compile` prints the machine-code listing; `run` simulates the program
//! (random inputs unless `--input` is given) and reports per-output rates;
//! `dot` emits Graphviz; `check` parses/classifies only.
//!
//! Every subcommand accepts `--emit=ast,typed,ir,balanced,machine` (stage
//! dumps on stdout, deterministic) and `--pass-stats` (per-pass wall time
//! and growth table on stderr).
//!
//! Each invocation compiles once, on a fresh in-memory `QueryEngine`;
//! nothing is cached between invocations.

use std::collections::HashMap;
use std::process::ExitCode;
use valpipe::compiler::render_pass_stats;
use valpipe::compiler::verify::check_against_oracle;
use valpipe::{
    ArrayVal, CompileError, CompileLimits, CompileOptions, ForIterScheme, QueryEngine, Stage,
};
use valpipe_balance::BalanceMode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: valpipe <compile|run|dot|check> <file.val> \
         [--todd|--companion] [--synth] [--asap|--no-balance] \
         [--waves N] [--am] [--input NAME=v1,v2,...] \
         [--emit=ast,typed,ir,balanced,machine] [--pass-stats] \
         [--limits k=v,... (source-bytes,depth,cells,arcs,fifo,millis; 'none' lifts)]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        return usage();
    }
    let cmd = args[0].as_str();
    let path = &args[1];
    let mut opts = CompileOptions::paper();
    let mut waves = 20usize;
    let mut emit_json = false;
    let mut emit_stages: Vec<Stage> = Vec::new();
    let mut pass_stats = false;
    let mut user_inputs: HashMap<String, Vec<f64>> = HashMap::new();
    let mut limits = CompileLimits::default();
    let mut k = 2;
    while k < args.len() {
        match args[k].as_str() {
            "--todd" => opts.scheme = ForIterScheme::Todd,
            "--companion" => opts.scheme = ForIterScheme::Companion,
            "--synth" => opts.synthesize_generators = true,
            "--asap" => opts.balance = BalanceMode::Asap,
            "--no-balance" => opts.balance = BalanceMode::None,
            "--am" => opts.am_boundary = true,
            "--json" => emit_json = true,
            "--pass-stats" => pass_stats = true,
            s if s.starts_with("--emit=") => match Stage::parse_list(&s["--emit=".len()..]) {
                Ok(v) => emit_stages = v,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            },
            "--limits" => {
                k += 1;
                let Some(spec) = args.get(k) else {
                    return usage();
                };
                match limits.apply_spec(spec) {
                    Ok(l) => limits = l,
                    Err(e) => {
                        eprintln!("bad --limits: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--waves" => {
                k += 1;
                waves = args.get(k).and_then(|s| s.parse().ok()).unwrap_or(20);
            }
            "--input" => {
                k += 1;
                let Some(spec) = args.get(k) else {
                    return usage();
                };
                let Some((name, vals)) = spec.split_once('=') else {
                    return usage();
                };
                let vals: Result<Vec<f64>, _> = vals.split(',').map(str::parse).collect();
                match vals {
                    Ok(v) => {
                        user_inputs.insert(name.to_string(), v);
                    }
                    Err(e) => {
                        eprintln!("bad --input values: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!("unknown option '{other}'");
                return usage();
            }
        }
        k += 1;
    }

    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let out = match QueryEngine::new().run_source(&opts, &limits, &emit_stages, &src, path) {
        Ok(o) => o,
        // Limit breaches get a distinct, machine-grepable line and exit
        // code so scripts can tell "program too big" from "won't compile".
        Err(CompileError::Limit(b)) => {
            eprintln!("resource_limit: {b}");
            return ExitCode::from(3);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if pass_stats {
        eprint!("{}", render_pass_stats(&out.pass_stats));
    }
    for (stage, dump) in &out.dumps {
        println!("==== {stage} ====");
        print!("{dump}");
        if !dump.ends_with('\n') {
            println!();
        }
    }
    let compiled = out.compiled;

    match cmd {
        "check" => {
            println!(
                "ok: {} blocks, {} cells",
                compiled.flow.blocks.len(),
                compiled.graph.node_count()
            );
            for b in &compiled.flow.blocks {
                println!("  block {} over [{}, {}]", b.name, b.range.0, b.range.1);
            }
            ExitCode::SUCCESS
        }
        "compile" => {
            if emit_json {
                print!("{}", compiled.graph.to_json());
            } else {
                println!("{}", valpipe::ir::pretty::summary(&compiled.graph));
                print!("{}", valpipe::ir::pretty::listing(&compiled.graph));
            }
            ExitCode::SUCCESS
        }
        "dot" => {
            print!("{}", valpipe::ir::dot::to_dot(&compiled.graph, path));
            ExitCode::SUCCESS
        }
        "run" => {
            // Build inputs: user-specified or deterministic pseudo-random.
            let mut arrays = HashMap::new();
            for (name, (lo, hi)) in &compiled.flow.inputs {
                let len = (hi - lo + 1) as usize;
                let vals = if let Some(v) = user_inputs.get(name) {
                    if v.len() != len {
                        eprintln!("input '{name}' needs {len} values, got {}", v.len());
                        return ExitCode::FAILURE;
                    }
                    v.clone()
                } else {
                    (0..len)
                        .map(|i| (i as f64 * 0.37).sin() * 0.5 + 0.5)
                        .collect()
                };
                arrays.insert(name.clone(), ArrayVal::from_reals(*lo, &vals));
            }
            match check_against_oracle(&compiled, &arrays, waves, 1e-8) {
                Ok(report) => {
                    println!(
                        "verified {} packets against the interpreter (max rel err {:.2e})",
                        report.packets_checked, report.max_rel_err
                    );
                    for out in &compiled.program.outputs {
                        match report.run.timing(out).interval() {
                            Some(iv) => {
                                let fill = report.run.fill_latency(out).unwrap_or(0);
                                println!(
                                    "output {out}: interval {iv:.3} instruction times \
                                     (rate {:.4}, fill latency {fill})",
                                    1.0 / iv
                                )
                            }
                            None => println!("output {out}: too few packets for a rate"),
                        }
                    }
                    if opts.am_boundary {
                        println!(
                            "array-memory traffic: {:.2}% of {} operation packets",
                            report.run.am_traffic_fraction() * 100.0,
                            report.run.total_fires
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("run failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
