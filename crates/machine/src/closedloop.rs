//! The closed-loop networked machine: Fig. 1 executed end to end.
//!
//! Unlike [`crate::sim`] (per-arc latencies) and the open-loop trace
//! replay (`valpipe-exp network`), this model routes **every result packet and
//! every acknowledge packet** of a running program through router-level
//! omega networks (one plane each way), with one injection port per
//! processing element. Cells stall when their destinations' acknowledges
//! are late — the machine's actual flow control — so network contention
//! feeds back into instruction timing instead of being imposed as a
//! static delay.
//!
//! The machine state is the simulator's own ([`Simulator::with_config`]):
//! cells are planned by [`plan_cell`] and fired through
//! [`consume_token`]/[`note_fire_cell`]/[`emit_token`], so the enabling
//! rule, gate discards and MERGE selection are the simulator's by
//! construction. This module owns only *when* a packet lands: a token or
//! acknowledge slot in the network carries the time [`IN_NETWORK`] until
//! its packet is delivered.

use crate::network::{OmegaNetwork, Packet};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use valpipe_ir::graph::Graph;
use valpipe_ir::value::Value;

use crate::arc::{consume_token, emit_token, ArcState};
use crate::fault::{AckFate, ResultFate};
use crate::scheduler::Kernel;
use crate::session::SimConfig;
use crate::sim::{note_fire_cell, plan_cell, ProgramInputs, SimError, Simulator};

/// Ready time of a result or acknowledge packet still in the network:
/// never reached, so the token is not yet visible to its consumer and
/// the acknowledge slot is not yet free.
const IN_NETWORK: u64 = u64::MAX;

/// Options for the closed-loop machine.
#[derive(Debug, Clone)]
pub struct ClosedLoopOptions {
    /// Processing elements (must be a power of two ≥ 2; one network port
    /// per PE).
    pub pes: usize,
    /// Router queue depth.
    pub net_queue: usize,
    /// Per-arc token capacity (operand slots).
    pub arc_capacity: u32,
    /// Cell firings a PE may initiate per cycle.
    pub pe_issue_width: u32,
    /// Hard cycle limit.
    pub max_cycles: u64,
    /// Router links to take down for windows of cycles (applied to both
    /// the result and the acknowledge plane). Packets stall but are
    /// never lost, so throughput degrades and recovers with the window.
    pub link_faults: Vec<crate::fault::LinkFault>,
}

impl Default for ClosedLoopOptions {
    fn default() -> Self {
        ClosedLoopOptions {
            pes: 16,
            net_queue: 4,
            arc_capacity: 1,
            pe_issue_width: 4,
            max_cycles: 10_000_000,
            link_faults: Vec::new(),
        }
    }
}

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedLoopResult {
    /// Cycles elapsed.
    pub steps: u64,
    /// Sink packets `(cycle, value)` per port.
    pub outputs: HashMap<String, Vec<(u64, Value)>>,
    /// Whether every source drained.
    pub sources_exhausted: bool,
    /// Result packets that crossed the network.
    pub remote_results: u64,
    /// Acknowledge packets that crossed the network.
    pub remote_acks: u64,
    /// Mean network latency of delivered result packets.
    pub mean_result_latency: f64,
}

impl ClosedLoopResult {
    /// Values on a sink port.
    pub fn values(&self, port: &str) -> Vec<Value> {
        self.outputs
            .get(port)
            .map(|v| v.iter().map(|&(_, x)| x).collect())
            .unwrap_or_default()
    }

    /// Arrival-time report for a sink port. An unknown port yields an
    /// empty (all-`None`) report.
    pub fn timing(&self, port: &str) -> crate::sim::Timing {
        crate::sim::Timing::of(
            self.outputs
                .get(port)
                .map(|v| v.iter().map(|&(t, _)| t).collect::<Vec<_>>())
                .unwrap_or_default(),
        )
    }
}

#[derive(Debug, Clone, Copy)]
enum Payload {
    Result(u32, Value),
    Ack(u32),
}

/// One network plane (results or acknowledges): its omega network, the
/// per-PE egress queues feeding it, and the payloads of its packets in
/// flight, keyed by sequence number.
struct Plane {
    net: OmegaNetwork,
    egress: Vec<VecDeque<(usize, Payload)>>,
    in_flight: HashMap<u64, Payload>,
    /// Packets injected so far.
    injected: u64,
}

/// Run a program closed-loop. `pe_of[cell]` assigns cells to PEs.
pub fn run_closed_loop(
    g: &Graph,
    inputs: &ProgramInputs,
    pe_of: &[usize],
    opts: &ClosedLoopOptions,
) -> Result<ClosedLoopResult, SimError> {
    if !opts.pes.is_power_of_two() || opts.pes < 2 {
        return Err(SimError::InvalidConfig(format!(
            "closed-loop machine needs a power-of-two PE count >= 2, got {}",
            opts.pes
        )));
    }
    if pe_of.len() != g.node_count() {
        return Err(SimError::InvalidConfig(format!(
            "placement table covers {} cells but the graph has {}",
            pe_of.len(),
            g.node_count()
        )));
    }
    if let Some(&pe) = pe_of.iter().find(|&&pe| pe >= opts.pes) {
        return Err(SimError::InvalidConfig(format!(
            "placement assigns a cell to PE {pe} but the machine has {} PEs",
            opts.pes
        )));
    }
    // Binds sources and rejects FIFO pseudo-cells / missing inputs.
    let mut sim = Simulator::with_config(
        g,
        inputs,
        SimConfig::new()
            .kernel(Kernel::Scan)
            .arc_capacity(opts.arc_capacity as usize),
    )?;
    let code = Arc::clone(&sim.code);
    let n = code.cell_count();

    // Two network planes, `[results, acknowledges]`, each with per-PE
    // egress queues; local traffic bypasses the network with a
    // one-cycle delay.
    let mut planes = [(); 2].map(|_| Plane {
        net: OmegaNetwork::new(opts.pes, opts.net_queue),
        egress: vec![VecDeque::new(); opts.pes],
        in_flight: HashMap::new(),
        injected: 0,
    });
    for lf in &opts.link_faults {
        for plane in &mut planes {
            plane
                .net
                .fail_link(lf.stage, lf.port, lf.from, lf.until)
                .map_err(SimError::InvalidConfig)?;
        }
    }
    let mut local: VecDeque<(u64, Payload)> = VecDeque::new();
    let mut seq = 0u64;

    let mut now = 0u64;
    let mut idle = 0u64;
    let mut res_latency_sum = 0u64;
    let mut budget = vec![0; opts.pes];

    while now < opts.max_cycles {
        let mut activity = false;

        // 1. Deliver local traffic and network arrivals.
        while local.front().is_some_and(|&(t, _)| t <= now) {
            let (_, p) = local.pop_front().unwrap();
            deliver(&mut sim.arcs, p, now);
            activity = true;
        }
        // 2. Fire enabled cells under PE issue budgets, planning and
        // firing each cell in one visit. (Network deliveries are applied
        // in step 4, right after the planes step.) A firing cannot change
        // a later cell's plan this cycle: its tokens and acknowledges
        // stay IN_NETWORK until delivered next cycle or later, and a
        // consume leaves the arc's occupancy unchanged.
        budget.fill(opts.pe_issue_width);
        for i in 0..n {
            let pe = pe_of[i];
            if budget[pe] == 0 {
                continue;
            }
            let nid = i as u32;
            let Some(plan) = plan_cell(&code, &sim, now, nid).map_err(|f| f.at(g, nid))? else {
                continue;
            };
            budget[pe] -= 1;
            activity = true;
            // Consume: pop tokens, send acknowledges toward the producers.
            for a in plan.consumes() {
                consume_token(&mut sim.arcs[a as usize], IN_NETWORK, AckFate::Deliver);
                let hop = (pe, pe_of[code.arc_src[a as usize] as usize]);
                route(&mut local, &mut planes[1].egress, now, hop, Payload::Ack(a));
            }
            if let Some(v) = note_fire_cell(&code, &mut sim, now, nid, &plan) {
                for &a in code.outs(code.cell(nid)) {
                    emit_token(
                        &mut sim.arcs[a as usize],
                        v,
                        IN_NETWORK,
                        ResultFate::Deliver,
                    );
                    let hop = (pe, pe_of[code.arc_dst[a as usize] as usize]);
                    let p = Payload::Result(a, v);
                    route(&mut local, &mut planes[0].egress, now, hop, p);
                }
            }
        }

        // 3. Inject one packet per PE per plane per cycle.
        for pe in 0..opts.pes {
            for plane in &mut planes {
                let Some(&(dest, payload)) = plane.egress[pe].front() else {
                    continue;
                };
                let pkt = Packet {
                    dest,
                    injected_at: 0,
                    seq,
                };
                if plane.net.inject(pe, pkt) {
                    plane.in_flight.insert(seq, payload);
                    seq += 1;
                    plane.egress[pe].pop_front();
                    plane.injected += 1;
                    activity = true;
                }
            }
        }

        // 4. Advance the networks and apply this cycle's deliveries.
        for plane in &mut planes {
            let before = plane.net.delivered().len();
            plane.net.step();
            for &(t, pkt) in &plane.net.delivered()[before..] {
                let payload = plane
                    .in_flight
                    .remove(&pkt.seq)
                    .expect("a delivered packet was injected");
                if let Payload::Result(..) = payload {
                    res_latency_sum += t - pkt.injected_at;
                }
                deliver(&mut sim.arcs, payload, now);
                activity = true;
            }
        }

        now += 1;
        if activity {
            idle = 0;
        } else {
            idle += 1;
            // A downed link can hold packets motionless for its whole
            // window (stage-to-stage movement does not count as
            // activity), so quiescence also requires both planes empty.
            let fault_end = opts
                .link_faults
                .iter()
                .map(|lf| lf.until)
                .max()
                .unwrap_or(0);
            if idle > 4 + 2 * planes[0].net.stages() as u64
                && now >= fault_end
                && planes.iter().all(|p| p.net.is_empty())
            {
                break;
            }
        }
    }

    let cells = sim.cells;
    let sources_exhausted = (0..n).all(|i| match &cells.src_data[i] {
        Some(d) => cells.src_pos[i] >= d.len(),
        None => true,
    });
    let [remote_results, remote_acks] = planes.map(|p| p.injected);
    let mean_result_latency = if remote_results > 0 {
        res_latency_sum as f64 / remote_results as f64
    } else {
        0.0
    };
    Ok(ClosedLoopResult {
        steps: now,
        outputs: cells.outputs.into_iter().collect(),
        sources_exhausted,
        remote_results,
        remote_acks,
        mean_result_latency,
    })
}

/// Send `p` along `hop = (from PE, to PE)`: over a network plane via
/// the sender's `egress` queue, or along the one-cycle local path when both
/// ends are the same PE.
fn route(
    local: &mut VecDeque<(u64, Payload)>,
    egress: &mut [VecDeque<(usize, Payload)>],
    now: u64,
    (from, to): (usize, usize),
    p: Payload,
) {
    if from == to {
        local.push_back((now + 1, p));
    } else {
        egress[from].push_back((to, p));
    }
}

/// Land a packet at cycle `now`. A result becomes visible in the arc's
/// oldest entry still in the network, so the consumer reads tokens in
/// arrival order; an acknowledge frees one slot whose acknowledge was
/// in flight.
fn deliver(arcs: &mut [ArcState], p: Payload, now: u64) {
    match p {
        Payload::Result(a, v) => {
            let slot = arcs[a as usize]
                .queue
                .iter_mut()
                .find(|(_, t)| *t == IN_NETWORK);
            *slot.expect("a delivered result has a token in flight") = (v, now);
        }
        Payload::Ack(a) => {
            let st = &mut arcs[a as usize];
            st.freeing
                .pop_back()
                .expect("a delivered acknowledge has a slot in flight");
            st.acked += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valpipe_ir::opcode::Opcode;
    use valpipe_ir::value::BinOp;
    use valpipe_ir::In;

    fn chain_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let x = g.cell(Opcode::Bin(BinOp::Mul), "x", &[a.into(), 3.0.into()]);
        let y = g.cell(Opcode::Bin(BinOp::Add), "y", &[x.into(), 1.0.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[y.into()]);
        g
    }

    /// `out = op(a, rest..)` over one source `a`.
    fn one_cell(op: Opcode, rest: &[In]) -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let x = g.cell(op, "x", &[&[a.into()], rest].concat());
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[x.into()]);
        g
    }

    /// `a = 0, 1, .., len - 1`.
    fn ramp(len: usize) -> ProgramInputs {
        ProgramInputs::new().bind("a", (0..len).map(|i| Value::Real(i as f64)).collect())
    }

    /// Cell `i` on PE `i % pes`.
    fn round_robin(g: &Graph, pes: usize) -> Vec<usize> {
        (0..g.node_count()).map(|i| i % pes).collect()
    }

    fn on(pes: usize) -> ClosedLoopOptions {
        ClosedLoopOptions {
            pes,
            ..Default::default()
        }
    }

    #[test]
    fn closed_loop_values_match_idealized() {
        let g = chain_graph();
        let inputs = ramp(40);
        let ideal = Simulator::builder(&g).inputs(inputs.clone()).run().unwrap();
        for pes in [2usize, 4, 8] {
            let r = run_closed_loop(&g, &inputs, &round_robin(&g, pes), &on(pes)).unwrap();
            assert!(r.sources_exhausted, "pes={pes}");
            assert_eq!(r.values("out"), ideal.values("out"), "pes={pes}");
        }
    }

    #[test]
    fn network_latency_throttles_but_never_deadlocks() {
        let g = chain_graph();
        let pe_of = round_robin(&g, 4);
        let r = run_closed_loop(&g, &ramp(120), &pe_of, &on(4)).unwrap();
        assert!(r.sources_exhausted);
        // Remote hop = 2 network cycles each way + fire → interval well
        // above the idealized 2.
        let iv = r.timing("out").interval().unwrap();
        assert!(iv > 3.0, "capacity-1 remote links must be slow: {iv}");
        // Deeper operand slots win rate back (the §2 buffering story).
        let deep = ClosedLoopOptions {
            arc_capacity: 4,
            ..on(4)
        };
        let r4 = run_closed_loop(&g, &ramp(120), &pe_of, &deep).unwrap();
        let iv4 = r4.timing("out").interval().unwrap();
        assert!(
            iv4 < iv - 0.5,
            "buffered links must be faster: {iv4} vs {iv}"
        );
    }

    #[test]
    fn bad_configurations_are_reported_not_panicked() {
        let g = chain_graph();
        let inputs = ramp(1);
        let pe_of: Vec<usize> = vec![0; g.node_count()];
        let bad = [
            run_closed_loop(&g, &inputs, &pe_of, &on(3)),
            run_closed_loop(&g, &inputs, &pe_of[1..], &ClosedLoopOptions::default()),
            run_closed_loop(&g, &inputs, &vec![99; g.node_count()], &on(4)),
        ];
        for r in bad {
            let err = r.unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn errors_match_the_simulator() {
        let cases = [
            (
                "type fault",
                one_cell(Opcode::Bin(BinOp::And), &[true.into()]),
                ramp(2),
            ),
            (
                "non-bool gate control",
                one_cell(Opcode::TGate, &[1.0.into()]),
                ramp(2),
            ),
            ("unexpanded fifo", one_cell(Opcode::Fifo(2), &[]), ramp(2)),
            ("missing input", chain_graph(), ProgramInputs::new()),
        ];
        for (case, g, inputs) in cases {
            let closed = run_closed_loop(&g, &inputs, &round_robin(&g, 2), &on(2));
            // `build` + `drive` is `SessionBuilder::run` without its FIFO
            // expansion, which would hide the unexpanded-FIFO error.
            let sim = Simulator::builder(&g)
                .inputs(inputs)
                .build()
                .and_then(|s| s.drive(crate::RunSpec::new()).map(|d| d.result()));
            let (Err(closed), Err(sim)) = (closed, sim) else {
                panic!("{case}: both machines must fail");
            };
            assert_eq!(
                std::mem::discriminant(&closed),
                std::mem::discriminant(&sim),
                "{case}: {closed} vs {sim}"
            );
        }
    }

    #[test]
    fn link_fault_slows_but_preserves_values() {
        let g = chain_graph();
        let pe_of = round_robin(&g, 4);
        let clean = run_closed_loop(&g, &ramp(60), &pe_of, &on(4)).unwrap();
        let mut faulty_opts = on(4);
        for port in 0..4 {
            faulty_opts.link_faults.push(crate::fault::LinkFault {
                stage: 0,
                port,
                from: 10,
                until: 60,
            });
        }
        let faulty = run_closed_loop(&g, &ramp(60), &pe_of, &faulty_opts).unwrap();
        assert!(faulty.sources_exhausted, "stalled links must recover");
        assert_eq!(faulty.values("out"), clean.values("out"));
        assert!(
            faulty.steps > clean.steps,
            "downed links must cost cycles: {} vs {}",
            faulty.steps,
            clean.steps
        );
    }

    #[test]
    fn acks_are_conserved() {
        let g = chain_graph();
        let r = run_closed_loop(&g, &ramp(30), &round_robin(&g, 2), &on(2)).unwrap();
        // Every remote result eventually produces a remote ack (same PE
        // split for every arc in this placement).
        assert_eq!(r.remote_results, r.remote_acks);
    }
}
