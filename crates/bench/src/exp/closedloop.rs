//! CLOSED — the whole Fig. 1 machine, closed loop: result packets AND
//! acknowledge packets routed through router-level omega networks, with
//! network contention feeding back into instruction timing through the
//! enabling rule.
//!
//! Claims:
//! * values are identical to the idealized machine under every placement
//!   and buffering (data-driven execution is timing-independent);
//! * with one-token operand slots, remote acknowledge round trips through
//!   a real network throttle the pipeline;
//! * deeper operand slots (the machine's buffering) win the rate back —
//!   §2's packet-pipelined-network story, now measured end to end.

use crate::workloads::{fig6_src, inputs_for_compiled};
use crate::{FaultArgs, Report};
use valpipe_core::verify::stream_inputs;
use valpipe_core::{compile_source, CompileOptions};
use valpipe_machine::{run_closed_loop, ClosedLoopOptions, Placement, Simulator};

pub(super) fn run(args: &FaultArgs) -> Report {
    let mut rep = Report::new(
        "CLOSED: closed-loop machine — cells + both network planes",
        Some("§2 / Fig. 1 end to end"),
    );
    if let Some(plan) = &args.fault_plan {
        if plan.has_cell_faults() {
            println!("(closed-loop machine models only `link=` faults; other knobs ignored)");
        }
    }

    let compiled = compile_source(&fig6_src(32), &CompileOptions::paper()).expect("compiles");
    let exe = compiled.executable();
    let arrays = inputs_for_compiled(&compiled);
    let inputs = stream_inputs(&compiled, &arrays, 12);
    let ideal_exe = compiled.executable();
    let ideal = Simulator::builder(&ideal_exe)
        .inputs(inputs.clone())
        .run()
        .expect("idealized run");
    let ideal_vals = ideal.values("A");

    println!(
        "{:>5} {:>9} {:>10} {:>12} {:>12} {:>10}",
        "PEs", "slots/arc", "interval", "net latency", "remote pkts", "values"
    );
    let mut slow_cap1 = 0.0f64;
    let mut fast_cap4 = f64::MAX;
    let mut all_matched = true;
    for pes in [4usize, 16] {
        for cap in [1u32, 4] {
            let placement = Placement::round_robin(
                &exe,
                valpipe_machine::MachineConfig {
                    pes,
                    ..Default::default()
                },
            );
            let opts = ClosedLoopOptions {
                pes,
                arc_capacity: cap,
                net_queue: 4,
                pe_issue_width: 8,
                max_cycles: args.step_budget.unwrap_or(3_000_000),
                link_faults: args
                    .fault_plan
                    .as_ref()
                    .map(|p| p.link_faults.clone())
                    .unwrap_or_default(),
            };
            let r = run_closed_loop(&exe, &inputs, &placement.pe_of, &opts).expect("runs");
            if !r.sources_exhausted {
                println!("pes={pes} cap={cap}: stalled after {} cycles", r.steps);
                all_matched = false;
                continue;
            }
            let iv = r.timing("A").interval().expect("steady");
            let same = r.values("A") == ideal_vals;
            println!(
                "{pes:>5} {cap:>9} {iv:>10.3} {:>12.2} {:>12} {:>10}",
                r.mean_result_latency,
                r.remote_results + r.remote_acks,
                if same { "identical" } else { "DIFFER" }
            );
            all_matched &= same;
            if pes == 16 && cap == 1 {
                slow_cap1 = iv;
            }
            if pes == 16 && cap == 4 {
                fast_cap4 = iv;
            }
        }
    }
    println!();
    if rep.skip_claims(args) {
        return rep;
    }
    rep.claim(
        "values identical to the idealized machine under every configuration",
        all_matched,
    );
    rep.claim(
        format!("capacity-1 slots + real network round trips throttle the pipeline (interval {slow_cap1:.2})"),
        slow_cap1 > 3.0,
    );
    rep.claim(
        format!("operand-slot buffering recovers most of the rate (interval {fast_cap4:.2})"),
        fast_cap4 < slow_cap1 - 1.0,
    );
    rep
}
