//! The command-line flags of `valpipe-exp <name>`, parsed once for every
//! experiment by [`FaultArgs::parse`]. Each experiment honours only some
//! of them — its row of `exp::EXPERIMENTS`, which the usage text lists —
//! and any other flag is a usage error. [`MACHINE_FLAGS`] configure the
//! simulated machine, [`COMPILE_FLAGS`] dump or time each compile, and the
//! rest belong to one or two experiments. Each [`FaultArgs`] field
//! documents its flag.

use std::str::FromStr;

use valpipe_core::Stage;
use valpipe_machine::{FaultPlan, Kernel, ShardPolicy, SimConfig, WatchdogConfig};

/// The flags of one `valpipe-exp` run; each is `None`/`false` unless given.
#[derive(Debug, Clone, Default)]
pub struct FaultArgs {
    /// `--fault-plan <spec>`: inject faults into the simulated machine;
    /// the grammar is [`FaultPlan::parse`]'s (e.g.
    /// `seed=42,drop_ack=0.001,freeze=5@100..200`).
    pub fault_plan: Option<FaultPlan>,
    /// `--step-budget <n>`: a watchdog that turns an unproductive run
    /// into a structured stall report instead of letting it spin to the
    /// hard step limit.
    pub step_budget: Option<u64>,
    /// `--checkpoint-every <n>`: write a crash-recovery checkpoint every
    /// `n` steps (see `valpipe_machine::snapshot`).
    pub checkpoint_every: Option<u64>,
    /// `--checkpoint-path <file>`: where the checkpoint goes.
    pub checkpoint_path: Option<String>,
    /// `--restore-from <file>`: resume a `soak` run from a checkpoint.
    pub restore_from: Option<String>,
    /// `--trials <n>`: crash/recover trials of `soak`, or generated
    /// programs `fuzz` differentiates.
    pub trials: Option<u64>,
    /// `--seed <n>` (`0x` hex ok): base seed of the `fuzz` campaign or
    /// of the `service` chaos controller.
    pub seed: Option<u64>,
    /// `--shrink`: delta-debug `fuzz` findings to minimal repros.
    pub shrink: bool,
    /// `--corpus <dir>`: where `fuzz --shrink` writes reduced repros.
    pub corpus: Option<String>,
    /// `--workers <n>`: run on the parallel kernel, batching epochs
    /// across `n` worker threads (1 keeps the sequential event kernel;
    /// steps that cannot batch run the sequential event body at any `n`).
    pub workers: Option<usize>,
    /// `--epoch-cap <k>`: at most `k` steps per epoch barrier of the
    /// parallel kernel (DESIGN.md §16; `1` disables epoch batching, so
    /// every step runs the sequential event body).
    pub epoch_cap: Option<u64>,
    /// `--shard-policy <topology|striped>`: how the parallel kernel
    /// assigns cells to worker shards.
    pub shard_policy: Option<ShardPolicy>,
    /// `--blocks <n>`: how many chained stencil blocks `incremental`
    /// compiles.
    pub blocks: Option<usize>,
    /// `--smoke`: the short CI configuration of `fastforward` (2,000
    /// waves) and `service` (1 kill, 2 clients).
    pub smoke: bool,
    /// `--waves <n>`: `fastforward` stream length (default 20,000).
    pub waves: Option<usize>,
    /// `--kills <n>`: `service` server kills (default 3; 0 runs without
    /// chaos).
    pub kills: Option<usize>,
    /// `--clients <n>`: `service` concurrent clients (default 4).
    pub clients: Option<usize>,
    /// `--emit=ast,typed,ir,balanced,machine`: dump these compiler
    /// stages for every workload compiled (stdout, deterministic).
    pub emit: Vec<Stage>,
    /// `--pass-stats`: print the per-pass wall-time/growth table of every
    /// compile (stderr).
    pub pass_stats: bool,
}

/// Flags that configure the simulated machine, applied by
/// [`FaultArgs::apply`].
pub const MACHINE_FLAGS: &[&str] = &[
    "--fault-plan",
    "--step-budget",
    "--checkpoint-every",
    "--checkpoint-path",
    "--workers",
    "--epoch-cap",
    "--shard-policy",
];

/// Flags that dump or time each compile of `Report::measure`.
pub const COMPILE_FLAGS: &[&str] = &["--emit", "--pass-stats"];

/// `v` as a positive number (a count, interval or budget).
fn positive<T: FromStr + Default + PartialOrd>(v: String, what: &str) -> Result<T, String> {
    let n = v.parse::<T>().ok().filter(|n| *n > T::default());
    n.ok_or_else(|| format!("bad {what} '{v}'"))
}

impl FaultArgs {
    /// Parse the flags after the experiment name, accepting only those
    /// in `accepts` (the experiment's flag groups). An unknown or
    /// unaccepted flag or a malformed value is an error, so experiments
    /// fail loudly rather than silently measuring the wrong machine.
    pub fn parse(
        mut args: impl Iterator<Item = String>,
        accepts: &[&[&str]],
    ) -> Result<FaultArgs, String> {
        let mut out = FaultArgs::default();
        while let Some(a) = args.next() {
            let flag = a.split_once('=').map_or(a.as_str(), |(f, _)| f);
            let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
            match a.as_str() {
                "--fault-plan" => out.fault_plan = Some(FaultPlan::parse(&value()?)?),
                "--step-budget" => out.step_budget = Some(positive(value()?, "step budget")?),
                "--checkpoint-every" => {
                    out.checkpoint_every = Some(positive(value()?, "checkpoint interval")?);
                }
                "--checkpoint-path" => out.checkpoint_path = Some(value()?),
                "--restore-from" => out.restore_from = Some(value()?),
                "--trials" => out.trials = Some(positive(value()?, "trial count")?),
                "--seed" => {
                    let v = value()?;
                    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                        Some(hex) => u64::from_str_radix(hex, 16).ok(),
                        None => v.parse().ok(),
                    };
                    out.seed = Some(parsed.ok_or_else(|| format!("bad seed '{v}'"))?);
                }
                "--shrink" => out.shrink = true,
                "--corpus" => out.corpus = Some(value()?),
                "--workers" => out.workers = Some(positive(value()?, "worker count")?),
                "--epoch-cap" => out.epoch_cap = Some(positive(value()?, "epoch cap")?),
                "--shard-policy" => {
                    let v = value()?;
                    let p = ShardPolicy::parse(&v).ok_or_else(|| format!("bad shard policy '{v}'"));
                    out.shard_policy = Some(p?);
                }
                "--blocks" => out.blocks = Some(positive(value()?, "block count")?),
                "--smoke" => out.smoke = true,
                "--waves" => out.waves = Some(positive(value()?, "wave count")?),
                "--kills" => {
                    let v = value()?;
                    out.kills = Some(v.parse().map_err(|_| format!("bad kill count '{v}'"))?);
                }
                "--clients" => out.clients = Some(positive(value()?, "client count")?),
                "--pass-stats" => out.pass_stats = true,
                s if s.starts_with("--emit=") => {
                    out.emit = Stage::parse_list(&s["--emit=".len()..])?;
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
            if !accepts.iter().any(|group| group.contains(&flag)) {
                return Err(format!("this experiment does not take {flag}"));
            }
        }
        Ok(out)
    }

    /// Whether a fault plan or step budget was given.
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
}

/// Print `message` and the usage text to stderr and exit with status 2.
pub fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: valpipe-exp <name> [flags]");
    eprintln!("  machine flags: --fault-plan <spec> --step-budget <n> --checkpoint-every <n>");
    eprintln!("                 --checkpoint-path <file> --workers <n> --epoch-cap <k>");
    eprintln!("                 --shard-policy <topology|striped>");
    eprintln!("  compile flags: --emit=ast,typed,ir,balanced,machine --pass-stats");
    eprintln!("  spec: comma-separated key=value, e.g. seed=42,drop_ack=0.001,\\");
    eprintln!("        delay_result=0.05:4,freeze=7@100..200,link=1.3@50..60");
    eprintln!("  name, and the flags it takes:");
    for (name, _, groups) in crate::exp::EXPERIMENTS {
        let flags: Vec<String> = groups
            .iter()
            .map(|&group| match group {
                g if g == MACHINE_FLAGS => "<machine flags>".to_string(),
                g if g == COMPILE_FLAGS => "<compile flags>".to_string(),
                g => g.join(" "),
            })
            .collect();
        eprintln!("    {name:<12} {}", flags.join(" "));
    }
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::EXPERIMENTS;

    /// Parse `line` as the flags of experiment `name`.
    fn parse(name: &str, line: &str) -> Result<FaultArgs, String> {
        let (_, _, accepts) = EXPERIMENTS
            .iter()
            .find(|e| e.0 == name)
            .expect("known name");
        FaultArgs::parse(line.split_whitespace().map(String::from), accepts)
    }

    #[test]
    fn every_flag_parses() {
        let a = parse("service", "--seed 0xC8A05 --kills 0 --clients 2 --smoke").expect("valid");
        assert_eq!(a.seed, Some(0xC8A05));
        assert_eq!((a.kills, a.clients), (Some(0), Some(2)));
        assert!(a.smoke && !a.active());
        let a = parse("fastforward", "--waves 50 --smoke").expect("valid flags");
        assert_eq!(a.waves, Some(50));
        let a = parse("fig2", "--workers 2 --emit=ir").expect("valid flags");
        assert_eq!(a.workers, Some(2));
        assert_eq!(a.emit, vec![Stage::Ir]);
    }

    #[test]
    fn malformed_values_are_errors_not_defaults() {
        for (name, args, want) in [
            ("service", "--kills x", "bad kill count 'x'"),
            ("service", "--clients x", "bad client count 'x'"),
            ("service", "--clients 0", "bad client count '0'"),
            ("service", "--seed x", "bad seed 'x'"),
            ("fuzz", "--seed 0xZZ", "bad seed '0xZZ'"),
            ("fastforward", "--waves x", "bad wave count 'x'"),
            ("fastforward", "--waves 0", "bad wave count '0'"),
            ("fig2", "--workers 0", "bad worker count '0'"),
            ("fastforward", "--waves", "--waves needs a value"),
            ("fig2", "--bogus", "unknown flag '--bogus'"),
        ] {
            assert_eq!(parse(name, args).unwrap_err(), want, "{name} {args}");
        }
    }

    #[test]
    fn flags_an_experiment_does_not_honour_are_errors() {
        for (name, args, flag) in [
            (
                "fastforward",
                "--fault-plan seed=1,drop_ack=0.5",
                "--fault-plan",
            ),
            ("service", "--workers 4", "--workers"),
            ("fig2", "--kills 3", "--kills"),
            ("fig2", "--smoke", "--smoke"),
            ("delay", "--emit=ir", "--emit"),
            ("incremental", "--trials 2", "--trials"),
        ] {
            let want = format!("this experiment does not take {flag}");
            assert_eq!(parse(name, args).unwrap_err(), want, "{name} {args}");
        }
    }

    #[test]
    fn every_flag_in_the_table_is_one_the_parser_knows() {
        for (name, _, groups) in EXPERIMENTS {
            for flag in groups.iter().flat_map(|g| g.iter()) {
                let arg = if *flag == "--emit" { "--emit=ir" } else { flag };
                if let Err(e) = parse(name, arg) {
                    assert!(!e.starts_with("unknown flag"), "{name}: {e}");
                }
            }
        }
    }
}
