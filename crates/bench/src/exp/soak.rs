//! SOAK — crash recovery: kill a long fault-injected run at a random
//! step, restore from the latest on-disk checkpoint, and demand the
//! recovered run be *bit-identical* to an uninterrupted one.
//!
//! Each trial drives the Fig. 6 workload under a seeded fault plan
//! (packet delays and duplicates — the regimes a machine survives),
//! writing a checkpoint file every few hundred instruction times. At a
//! randomly chosen kill step the session is dropped on the floor — the
//! simulated crash — and a fresh process-worth of state is rebuilt from
//! the file alone. Trials rotate through all four (run kernel, resume
//! kernel) pairs, so a checkpoint taken under the scan kernel must
//! resume exactly under the event-driven kernel and vice versa.
//!
//! Flags (see `valpipe_bench::FaultArgs`):
//!
//! * `--trials <n>` — crash/recover trials (default 4);
//! * `--fault-plan <spec>` — replace the per-trial seeded plans;
//! * `--checkpoint-every <n>` — checkpoint interval (default 250);
//! * `--checkpoint-path <file>` — where the checkpoint lives (default: a
//!   file in the system temp directory);
//! * `--restore-from <file>` — skip the soak: restore this checkpoint of
//!   the soak workload and run it to completion.

use crate::workloads::{fig6_src, inputs_for_compiled};
use crate::{FaultArgs, Report};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source, CompileOptions};
use valpipe_ir::Graph;
use valpipe_machine::{
    render_stall, FaultPlan, Kernel, ProgramInputs, RunResult, RunSpec, Session, SimConfig,
    Simulator, Snapshot,
};
use valpipe_util::Rng;

const KERNEL_PAIRS: [(Kernel, Kernel); 4] = [
    (Kernel::EventDriven, Kernel::EventDriven),
    (Kernel::EventDriven, Kernel::Scan),
    (Kernel::Scan, Kernel::EventDriven),
    (Kernel::Scan, Kernel::Scan),
];

fn kernel_name(k: Kernel) -> &'static str {
    match k {
        Kernel::Scan => "scan",
        Kernel::EventDriven => "event",
    }
}

fn straight_run(exe: &Graph, inputs: &ProgramInputs, cfg: &SimConfig, kernel: Kernel) -> RunResult {
    Simulator::builder(exe)
        .inputs(inputs.clone())
        .config(cfg.clone().kernel(kernel))
        .run()
        .expect("soak workload must run")
}

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "SOAK: crash recovery — kill, restore, replay bit-identically",
        None,
    );
    let src = fig6_src(64);
    let compiled = compile_source(&src, &CompileOptions::default()).expect("compiles");
    let exe = compiled.executable();
    let arrays = inputs_for_compiled(&compiled);
    // 45 waves ≈ 11k instruction times uninterrupted — long enough that
    // a random kill lands deep inside the pipeline's steady state.
    let inputs = stream_inputs(&compiled, &arrays, 45);

    if let Some(path) = &args.restore_from {
        // Manual recovery: resume a previously written checkpoint of this
        // workload and run it out.
        let snap = match Snapshot::read_from(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot load '{path}': {e}");
                std::process::exit(1);
            }
        };
        println!("restoring '{path}' at step {}", snap.step());
        match Session::restore(&exe, &snap) {
            Ok(session) => {
                let r = session.drive(RunSpec::new()).expect("resumed run").result();
                println!(
                    "resumed to step {}, stop: {}, packets on A: {}",
                    r.steps,
                    r.stop,
                    r.values("A").len()
                );
                if let Some(report) = &r.stall_report {
                    print!("{}", render_stall(report, &exe, &compiled.prov));
                }
            }
            Err(e) => {
                eprintln!("error: checkpoint does not fit the soak workload: {e}");
                std::process::exit(1);
            }
        }
        return rep;
    }

    let trials = args.trials.unwrap_or(4);
    let every = args.checkpoint_every.unwrap_or(250);
    let path = args.checkpoint_path.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("valpipe_soak_{}.snap", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });

    println!();
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>14} {:>10}",
        "trial", "steps", "kill@", "restore@", "kernels", "replay"
    );

    let rng = Rng::seed(0x50AC);
    let mut all_identical = true;
    let mut cross_kernel_seen = false;
    for trial in 0..trials {
        let mut r = rng.fork(trial);
        // Delays and duplicates only: a *lost* packet wedges the pipe
        // permanently (that regime is exp_faults' subject), while these
        // plans finish — which is what a recovery soak needs.
        let plan = args.fault_plan.clone().unwrap_or_else(|| FaultPlan {
            seed: r.next_u64(),
            delay_result: 0.1,
            delay_result_max: 3,
            delay_ack: 0.05,
            delay_ack_max: 2,
            dup_result: 0.02,
            ..Default::default()
        });
        let cfg = SimConfig::new().max_steps(3_000_000).fault_plan(plan);
        let (run_kernel, resume_kernel) = KERNEL_PAIRS[trial as usize % KERNEL_PAIRS.len()];
        cross_kernel_seen |= run_kernel != resume_kernel;

        let reference = straight_run(&exe, &inputs, &cfg, resume_kernel);
        assert!(
            reference.steps >= 10_000,
            "soak workload too short ({} steps) to be a meaningful recovery test",
            reference.steps
        );

        // The victim: step under `run_kernel`, checkpointing to disk,
        // until the randomly drawn kill step — then drop it mid-flight.
        let kill = every + 1 + r.below((reference.steps - every - 1) as usize) as u64;
        let mut victim = Simulator::builder(&exe)
            .inputs(inputs.clone())
            .config(cfg.clone().kernel(run_kernel))
            .build()
            .expect("soak workload must build");
        while victim.now() < kill {
            victim.step().expect("victim step");
            if victim.now() % every == 0 {
                victim
                    .checkpoint()
                    .write_to(&path)
                    .expect("checkpoint write");
            }
        }
        drop(victim); // the crash

        let snap = Snapshot::read_from(&path).expect("checkpoint must be readable");
        let recovered = Session::restore_with_kernel(&exe, &snap, resume_kernel)
            .expect("checkpoint must restore")
            .drive(RunSpec::new())
            .expect("recovered run")
            .result();
        let identical = recovered == reference;
        all_identical &= identical;
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>14} {:>10}",
            trial,
            reference.steps,
            kill,
            snap.step(),
            format!(
                "{}->{}",
                kernel_name(run_kernel),
                kernel_name(resume_kernel)
            ),
            if identical { "identical" } else { "DIFFER" }
        );
        if trial == 0 {
            println!(
                "       (uninterrupted stop: {}; {} packets on A)",
                reference.stop,
                reference.values("A").len()
            );
        }
    }
    if args.checkpoint_path.is_none() {
        std::fs::remove_file(&path).ok(); // only our own temp file
    }

    println!();
    rep.claim(
        "a run killed at a random step and restored from its latest \
         on-disk checkpoint replays bit-identically",
        all_identical,
    );
    if cross_kernel_seen {
        rep.claim(
            "checkpoints are kernel-neutral: recovery crossed the \
             scan/event-driven boundary",
            all_identical,
        );
    } else {
        println!("(kernel-neutrality claim skipped: fewer than 2 trials)");
    }
    rep
}
