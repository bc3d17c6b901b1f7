//! Shared command-line flags for the `exp_*` reporter binaries.
//!
//! Every reporter accepts:
//!
//! * `--fault-plan <spec>` — inject faults into the simulated machine;
//!   the spec grammar is [`FaultPlan::parse`]'s (e.g.
//!   `seed=42,drop_ack=0.001,freeze=5@100..200`);
//! * `--step-budget <n>` — bound the run with a watchdog that turns an
//!   unproductive run into a structured stall report instead of letting
//!   it spin to the hard step limit;
//! * `--checkpoint-every <n>` / `--checkpoint-path <file>` — write a
//!   periodic crash-recovery checkpoint during the run (see
//!   `valpipe_machine::snapshot`);
//! * `--restore-from <file>` — resume a run from a checkpoint instead of
//!   starting fresh (honoured by `exp_soak`);
//! * `--trials <n>` — how many crash/recover trials `exp_soak` runs, or
//!   how many generated programs `exp_fuzz` differentiates;
//! * `--seed <n>` / `--shrink` / `--corpus <dir>` — `exp_fuzz` campaign
//!   base seed (hex ok), delta-debug findings to minimal repros, and
//!   where to write them;
//! * `--workers <n>` — run the simulation on the parallel kernel, which
//!   batches epochs across `n` worker threads (default 1 = the
//!   sequential event kernel; steps that cannot batch run the
//!   sequential event body at any `n`);
//! * `--epoch-cap <k>` — cap the parallel kernel's epoch length at `k`
//!   steps per barrier handoff (see DESIGN.md §16; `1` disables epoch
//!   batching, so every step runs the sequential event body);
//! * `--shard-policy <topology|striped>` — how the parallel kernel
//!   assigns cells to worker shards;
//! * `--emit=ast,typed,ir,balanced,machine` — dump compiler stage
//!   artifacts for every workload the reporter compiles (stdout,
//!   deterministic);
//! * `--pass-stats` — print the per-pass wall-time/growth table for
//!   every compile (stderr).

use crate::measure::{measure_compiled_with, Measurement};
use valpipe_core::{render_pass_stats, CompileLimits, CompileOptions, QueryEngine, Stage};
use valpipe_machine::{FaultPlan, Kernel, ShardPolicy, SimConfig, WatchdogConfig};

/// Robustness flags parsed from the process arguments.
#[derive(Debug, Clone, Default)]
pub struct FaultArgs {
    /// Parsed `--fault-plan`, if given.
    pub fault_plan: Option<FaultPlan>,
    /// Parsed `--step-budget`, if given.
    pub step_budget: Option<u64>,
    /// Parsed `--checkpoint-every`, if given.
    pub checkpoint_every: Option<u64>,
    /// Parsed `--checkpoint-path`, if given.
    pub checkpoint_path: Option<String>,
    /// Parsed `--restore-from`, if given.
    pub restore_from: Option<String>,
    /// Parsed `--trials`, if given (crash/recover trial count for
    /// `exp_soak`; campaign size for `exp_fuzz`).
    pub trials: Option<u64>,
    /// Parsed `--seed`, if given (base seed for `exp_fuzz` campaigns;
    /// accepts `0x`-prefixed hex).
    pub seed: Option<u64>,
    /// `--shrink`: delta-debug `exp_fuzz` findings to minimal repros.
    pub shrink: bool,
    /// Parsed `--corpus <dir>`, if given: where `exp_fuzz --shrink`
    /// writes reduced repros.
    pub corpus: Option<String>,
    /// Parsed `--workers`, if given (worker threads for the parallel
    /// kernel's epochs; 1 keeps the sequential event kernel).
    pub workers: Option<usize>,
    /// Parsed `--epoch-cap`, if given (max steps per epoch barrier for
    /// the parallel kernel; `1` disables epoch batching, so every step
    /// runs the sequential event body).
    pub epoch_cap: Option<u64>,
    /// Parsed `--shard-policy`, if given (cell→shard assignment for the
    /// parallel kernel).
    pub shard_policy: Option<ShardPolicy>,
    /// Parsed `--blocks`, if given (workload size for `exp_incremental`:
    /// how many chained stencil blocks the edit experiment compiles).
    pub blocks: Option<usize>,
    /// Parsed `--emit=…`: compiler stages to dump for every workload.
    pub emit: Vec<Stage>,
    /// `--pass-stats`: print the per-pass compile table for every
    /// workload.
    pub pass_stats: bool,
}

impl FaultArgs {
    /// Parse the process arguments. Exits with a usage message on an
    /// unknown flag or a malformed value, so reporters fail loudly
    /// rather than silently measuring the wrong machine.
    pub fn parse_env() -> FaultArgs {
        let mut out = FaultArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--fault-plan" => {
                    let spec = args
                        .next()
                        .unwrap_or_else(|| usage("--fault-plan needs a spec"));
                    match FaultPlan::parse(&spec) {
                        Ok(p) => out.fault_plan = Some(p),
                        Err(e) => usage(&e),
                    }
                }
                "--step-budget" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--step-budget needs a number"));
                    match v.parse::<u64>() {
                        Ok(n) if n > 0 => out.step_budget = Some(n),
                        _ => usage(&format!("bad step budget '{v}'")),
                    }
                }
                "--checkpoint-every" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--checkpoint-every needs a number"));
                    match v.parse::<u64>() {
                        Ok(n) if n > 0 => out.checkpoint_every = Some(n),
                        _ => usage(&format!("bad checkpoint interval '{v}'")),
                    }
                }
                "--checkpoint-path" => {
                    out.checkpoint_path = Some(
                        args.next()
                            .unwrap_or_else(|| usage("--checkpoint-path needs a file")),
                    );
                }
                "--restore-from" => {
                    out.restore_from = Some(
                        args.next()
                            .unwrap_or_else(|| usage("--restore-from needs a file")),
                    );
                }
                "--trials" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--trials needs a number"));
                    match v.parse::<u64>() {
                        Ok(n) if n > 0 => out.trials = Some(n),
                        _ => usage(&format!("bad trial count '{v}'")),
                    }
                }
                "--seed" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--seed needs a number"));
                    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => v.parse(),
                    };
                    match parsed {
                        Ok(n) => out.seed = Some(n),
                        _ => usage(&format!("bad seed '{v}'")),
                    }
                }
                "--shrink" => out.shrink = true,
                "--corpus" => {
                    out.corpus = Some(
                        args.next()
                            .unwrap_or_else(|| usage("--corpus needs a directory")),
                    );
                }
                "--workers" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--workers needs a number"));
                    match v.parse::<usize>() {
                        Ok(n) if n > 0 => out.workers = Some(n),
                        _ => usage(&format!("bad worker count '{v}'")),
                    }
                }
                "--epoch-cap" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--epoch-cap needs a number"));
                    match v.parse::<u64>() {
                        Ok(k) if k > 0 => out.epoch_cap = Some(k),
                        _ => usage(&format!("bad epoch cap '{v}'")),
                    }
                }
                "--shard-policy" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--shard-policy needs topology|striped"));
                    match ShardPolicy::parse(&v) {
                        Some(p) => out.shard_policy = Some(p),
                        None => usage(&format!("bad shard policy '{v}'")),
                    }
                }
                "--blocks" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--blocks needs a number"));
                    match v.parse::<usize>() {
                        Ok(n) if n > 0 => out.blocks = Some(n),
                        _ => usage(&format!("bad block count '{v}'")),
                    }
                }
                "--pass-stats" => out.pass_stats = true,
                s if s.starts_with("--emit=") => match Stage::parse_list(&s["--emit=".len()..]) {
                    Ok(v) => out.emit = v,
                    Err(e) => usage(&e),
                },
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        out
    }

    /// Whether any robustness flag was given.
    pub fn active(&self) -> bool {
        self.fault_plan.is_some() || self.step_budget.is_some()
    }

    /// Apply the flags to a simulator config: install the fault plan,
    /// a watchdog if a budget was given, and periodic checkpointing if
    /// requested.
    pub fn apply(&self, cfg: SimConfig) -> SimConfig {
        let mut cfg = match &self.fault_plan {
            Some(p) => cfg.fault_plan(p.clone()),
            None => cfg,
        };
        if let Some(budget) = self.step_budget {
            cfg = cfg.watchdog(WatchdogConfig {
                step_budget: budget,
                ..Default::default()
            });
        }
        if let Some(every) = self.checkpoint_every {
            cfg = cfg.checkpoint_every(every);
        }
        if let Some(path) = &self.checkpoint_path {
            cfg = cfg.checkpoint_path(path.clone());
        }
        if let Some(w) = self.workers {
            if w >= 2 {
                cfg = cfg.kernel(Kernel::ParallelEvent(w));
            }
        }
        if let Some(k) = self.epoch_cap {
            cfg = cfg.epoch_cap(k);
        }
        if let Some(p) = self.shard_policy {
            cfg = cfg.shard_policy(p);
        }
        cfg
    }

    /// The default simulator config with the flags applied.
    pub fn sim_config(&self) -> SimConfig {
        self.apply(SimConfig::new())
    }

    /// Oracle-checked measurement under the active flags. A stalled run
    /// prints the machine's stall diagnosis and returns `None`, so
    /// reporters degrade to a partial table instead of panicking.
    pub fn measure(
        &self,
        label: &str,
        src: &str,
        opts: &CompileOptions,
        output: &str,
        waves: usize,
    ) -> Option<Measurement> {
        let out = match QueryEngine::new().run_source(
            opts,
            &CompileLimits::unbounded(),
            &self.emit,
            src,
            label,
        ) {
            Ok(o) => o,
            Err(e) => {
                println!("{label}: compile error: {e}");
                return None;
            }
        };
        if self.pass_stats {
            eprintln!("{label}:");
            eprint!("{}", render_pass_stats(&out.pass_stats));
        }
        for (stage, dump) in &out.dumps {
            println!("==== {label}: {stage} ====");
            print!("{dump}");
        }
        match measure_compiled_with(label, &out.compiled, output, waves, self.sim_config()) {
            Ok(m) => Some(m),
            Err(e) => {
                println!("{label}: {e}");
                None
            }
        }
    }

    /// When a fault plan is active the paper's clean-machine claims do
    /// not apply; print a note and return true so the reporter skips its
    /// claim lines.
    pub fn claims_skipped(&self) -> bool {
        if self.active() {
            println!("(fault plan active: claims skipped)");
        }
        self.active()
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: exp_* [--fault-plan <spec>] [--step-budget <n>]");
    eprintln!("             [--checkpoint-every <n>] [--checkpoint-path <file>]");
    eprintln!("             [--restore-from <file>] [--trials <n>] [--workers <n>]");
    eprintln!("             [--epoch-cap <k>] [--shard-policy <topology|striped>]");
    eprintln!("             [--seed <n>] [--shrink] [--corpus <dir>] [--blocks <n>]");
    eprintln!("             [--emit=ast,typed,ir,balanced,machine] [--pass-stats]");
    eprintln!("  spec: comma-separated key=value, e.g. seed=42,drop_ack=0.001,\\");
    eprintln!("        delay_result=0.05:4,freeze=7@100..200,link=1.3@50..60");
    std::process::exit(2)
}
