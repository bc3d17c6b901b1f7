//! `valpipe-exp <name> [flags]` — run one experiment of the paper
//! reproduction and print its report (see EXPERIMENTS.md for the list
//! and `results/<name>.txt` for the committed output). Exits 1 when any
//! claim fails and 2 on a bad name or flag.

use std::process::ExitCode;

use valpipe_bench::cli::usage;
use valpipe_bench::exp::EXPERIMENTS;
use valpipe_bench::FaultArgs;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        usage("missing experiment name");
    };
    let Some((_, run, accepts)) = EXPERIMENTS.iter().find(|e| e.0 == name) else {
        usage(&format!("unknown experiment '{name}'"));
    };
    let args = FaultArgs::parse(argv, accepts).unwrap_or_else(|e| usage(&e));
    if run(&args).all_hold() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
