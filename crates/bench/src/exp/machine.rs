//! LAT — §2 / Fig. 1: the detailed machine model (PEs, FUs, AMs, routing
//! networks).
//!
//! The idealized analysis assumes one instruction time per hop. This
//! experiment maps the Fig. 6 workload onto the detailed machine and
//! measures how routing-network latency stretches the acknowledge round
//! trip — and how per-link buffering (arc capacity) wins the rate back,
//! the architectural reason the machine's networks are built as packet
//! pipelines.

use crate::workloads::{fig6_src, inputs_for_compiled};
use crate::{FaultArgs, Report};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source, CompileOptions};
use valpipe_machine::{render_stall, MachineConfig, Placement, Simulator};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "LAT: detailed machine (PE/FU/AM/RN) — latency vs buffering",
        Some("§2 / Fig. 1 architecture behaviour"),
    );
    let src = fig6_src(64);
    let compiled = compile_source(&src, &CompileOptions::paper()).expect("compiles");
    let exe = compiled.executable();
    let arrays = inputs_for_compiled(&compiled);
    let inputs = stream_inputs(&compiled, &arrays, 20);

    println!(
        "{:<12} {:>12} {:>10} {:>10}",
        "net latency", "arc capacity", "interval", "rate"
    );
    let mut results = Vec::new();
    for net in [0u64, 1, 2, 4] {
        for cap in [1usize, 2, 4, 8] {
            let cfg = MachineConfig {
                pes: 16,
                network_latency: net,
                fu_latency: 1,
                am_latency: 2,
                pe_issue_width: 64,
                ..Default::default()
            };
            let placement = Placement::round_robin(&exe, cfg);
            let cfg = args.apply(placement.sim_config(&exe, cap).max_steps(3_000_000));
            let r = Simulator::builder(&exe)
                .inputs(inputs.clone())
                .config(cfg)
                .run()
                .unwrap();
            if let Some(report) = &r.stall_report {
                println!("net={net} cap={cap}: stalled after {} steps", r.steps);
                print!("{}", render_stall(report, &exe, &compiled.prov));
                continue;
            }
            assert!(r.sources_exhausted, "net={net} cap={cap} must drain");
            let iv = r.timing("A").interval().expect("steady");
            println!("{:<12} {:>12} {:>10.3} {:>10.4}", net, cap, iv, 1.0 / iv);
            results.push((net, cap, iv));
        }
    }
    println!();
    if rep.skip_claims(args) {
        return rep;
    }
    let base = results
        .iter()
        .find(|&&(n, c, _)| n == 1 && c == 1)
        .unwrap()
        .2;
    let buffered = results
        .iter()
        .find(|&&(n, c, _)| n == 1 && c == 4)
        .unwrap()
        .2;
    rep.claim(
        "capacity-1 links lose rate to the longer ack round trip",
        base > 2.5,
    );
    rep.claim(
        "per-link buffering recovers most of the rate (packet-pipelined networks, §2)",
        buffered < base - 0.5,
    );
    rep
}
