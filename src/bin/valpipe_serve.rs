//! `valpipe-serve` — the fault-tolerant multi-tenant simulation service.
//!
//! ```text
//! valpipe-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!               [--max-live N] [--dir PATH] [--seed N] [--chunk N]
//! ```
//!
//! Accepts line-delimited JSON requests over TCP (see DESIGN.md §13 and
//! the README's "Running the service" walkthrough). On startup it scans
//! the hibernation directory, discards torn temporary files, and
//! re-registers every valid session container, then prints
//! `listening on <addr>` and serves until a `shutdown` request drains
//! the queue and hibernates all live sessions.

use std::path::PathBuf;
use std::process::ExitCode;
use valpipe_serve::{ServeConfig, Server};

fn usage() -> ExitCode {
    eprintln!(
        "usage: valpipe-serve [--addr HOST:PORT] [--workers N] [--queue N] \
         [--max-live N] [--dir PATH] [--seed N] [--chunk N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServeConfig::default();
    let mut k = 0;
    while k < args.len() {
        let take = |k: &mut usize| -> Option<String> {
            *k += 1;
            args.get(*k).cloned()
        };
        match args[k].as_str() {
            "--addr" => match take(&mut k) {
                Some(a) => cfg.addr = a,
                None => return usage(),
            },
            "--workers" => match take(&mut k).and_then(|s| s.parse().ok()) {
                Some(n) => cfg.workers = n,
                None => return usage(),
            },
            "--queue" => match take(&mut k).and_then(|s| s.parse().ok()) {
                Some(n) => cfg.queue_cap = n,
                None => return usage(),
            },
            "--max-live" => match take(&mut k).and_then(|s| s.parse().ok()) {
                Some(n) => cfg.max_live = n,
                None => return usage(),
            },
            "--dir" => match take(&mut k) {
                Some(d) => cfg.hibernate_dir = PathBuf::from(d),
                None => return usage(),
            },
            "--seed" => match take(&mut k).and_then(|s| s.parse().ok()) {
                Some(n) => cfg.seed = n,
                None => return usage(),
            },
            "--chunk" => match take(&mut k).and_then(|s| s.parse().ok()) {
                Some(n) => cfg.step_chunk = n,
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            other => {
                eprintln!("unknown option '{other}'");
                return usage();
            }
        }
        k += 1;
    }

    let (server, recovery) = match Server::bind(cfg) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("valpipe-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    for name in &recovery.recovered {
        eprintln!("recovered session '{name}' from hibernation");
    }
    for (f, why) in &recovery.skipped {
        eprintln!("skipped invalid container '{f}': {why}");
    }
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("valpipe-serve: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = server.run() {
        eprintln!("valpipe-serve: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
