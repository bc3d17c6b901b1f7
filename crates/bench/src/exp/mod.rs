//! The experiments behind `valpipe-exp <name>`: one function per paper
//! figure or claim, each returning the [`Report`] the driver renders.

use std::path::{Path, PathBuf};

use crate::cli::{COMPILE_FLAGS, MACHINE_FLAGS};
use crate::{FaultArgs, Report};

mod am_traffic;
mod balance;
mod closedloop;
mod delay;
mod fastforward;
mod faults;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7_fig8;
mod fuzz;
mod incremental;
mod machine;
mod network;
mod predict;
mod scale;
mod service;
mod soak;
mod synth;

/// An experiment: run it under the parsed flags, get its report.
pub type Experiment = fn(&FaultArgs) -> Report;

/// Flags of the experiments that compile through [`Report::measure`].
const MEASURED: &[&[&str]] = &[MACHINE_FLAGS, COMPILE_FLAGS];
/// Fault flags alone, for experiments that do not run the event machine.
const FAULTS: &[&[&str]] = &[&["--fault-plan", "--step-budget"]];

/// Every experiment, by the name `valpipe-exp` takes, with the flags it
/// honours (in groups). Any other flag is a usage error, so no run
/// silently measures a configuration it was not asked for. The
/// committed report of experiment `name` is `results/<name>.txt`.
pub const EXPERIMENTS: &[(&str, Experiment, &[&[&str]])] = &[
    ("am_traffic", am_traffic::run, MEASURED),
    // Purely analytic: a fault plan or budget prints a note saying it
    // has no effect.
    ("balance", balance::run, FAULTS),
    // Models only `link=` faults, and notes any other knob.
    ("closedloop", closedloop::run, FAULTS),
    ("delay", delay::run, &[MACHINE_FLAGS]),
    ("fastforward", fastforward::run, &[&["--smoke", "--waves"]]),
    ("faults", faults::run, &[MACHINE_FLAGS]),
    ("fig2", fig2::run, MEASURED),
    ("fig3", fig3::run, MEASURED),
    ("fig4", fig4::run, MEASURED),
    ("fig5", fig5::run, MEASURED),
    ("fig6", fig6::run, MEASURED),
    ("fig7_fig8", fig7_fig8::run, MEASURED),
    (
        "fuzz",
        fuzz::run,
        &[&["--trials", "--seed", "--shrink", "--corpus"]],
    ),
    ("incremental", incremental::run, &[&["--blocks"]]),
    ("machine", machine::run, &[MACHINE_FLAGS]),
    ("network", network::run, &[MACHINE_FLAGS]),
    ("predict", predict::run, &[MACHINE_FLAGS]),
    ("scale", scale::run, &[MACHINE_FLAGS]),
    (
        "service",
        service::run,
        &[&["--smoke", "--kills", "--clients", "--seed"]],
    ),
    (
        "soak",
        soak::run,
        &[&[
            "--fault-plan",
            "--checkpoint-every",
            "--checkpoint-path",
            "--restore-from",
            "--trials",
        ]],
    ),
    ("synth", synth::run, MEASURED),
];

/// The committed regression corpus, `tests/corpus/` at the repository root.
fn committed_corpus() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}
