//! Router-level model of the packet-switched routing network (paper §2,
//! citing Dennis/Boughton/Leung, "Building Blocks for Data Flow
//! Prototypes": the networks are built from 2×2 packet routers "so the
//! necessary throughput capacity may be obtained at low cost").
//!
//! This is an **omega network**: `N = 2^k` ports, `k` stages of `N/2`
//! two-by-two routers wired by the perfect shuffle, destination-tag
//! routing (stage `s` examines destination bit `k−1−s`). Each router
//! output has a small FIFO queue; one packet advances per output per
//! cycle, and conflicts make the loser wait — so latency grows with load
//! and the network saturates at sufficiently high injection rates.
//!
//! The model answers the architectural question behind the paper's
//! traffic claim: at the packet rates a fully pipelined program actually
//! generates (≤ 1/2 packet per cell per instruction time, spread across
//! PEs), does the network deliver near its unloaded `log2 N` latency?
//! `valpipe-exp network` measures the latency/load curve and replays real
//! program traffic traces through the network.

use std::collections::VecDeque;

use crate::fault::LinkFault;

/// A packet in flight through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Destination output port.
    pub dest: usize,
    /// Injection cycle (for latency accounting).
    pub injected_at: u64,
    /// Sequence number (for FIFO-order checks).
    pub seq: u64,
}

/// An `N × N` omega network of 2×2 routers.
#[derive(Debug)]
pub struct OmegaNetwork {
    k: u32,
    /// Queues: `queues[stage][router][port]`; stage `k` holds outputs.
    queues: Vec<Vec<[VecDeque<Packet>; 2]>>,
    queue_cap: usize,
    now: u64,
    delivered: Vec<(u64, Packet)>,
    dropped_injections: u64,
    /// Link-down windows (fault injection): while a window is active the
    /// named router output forwards nothing, so packets stall in place
    /// and backpressure propagates — the network loses no packets.
    link_faults: Vec<LinkFault>,
    /// Forwarding opportunities refused because the link was down.
    link_stall_cycles: u64,
}

impl OmegaNetwork {
    /// Network with `ports = 2^k` inputs/outputs and per-link queues of
    /// `queue_cap` packets.
    pub fn new(ports: usize, queue_cap: usize) -> Self {
        assert!(ports.is_power_of_two() && ports >= 2);
        let k = ports.trailing_zeros();
        // Stages 0..k are router input queues; stage k is the delivery
        // row (one queue per output port, stored as [port][0]).
        let mut queues = Vec::new();
        for _ in 0..=k {
            let routers = ports / 2;
            queues.push(
                (0..routers.max(ports / 2))
                    .map(|_| [VecDeque::new(), VecDeque::new()])
                    .collect(),
            );
        }
        OmegaNetwork {
            k,
            queues,
            queue_cap,
            now: 0,
            delivered: Vec::new(),
            dropped_injections: 0,
            link_faults: Vec::new(),
            link_stall_cycles: 0,
        }
    }

    /// Take the router output at `(stage, port)` down for cycles
    /// `from..until` (`port` is the global line number leaving the stage,
    /// `0..ports`). A downed link stalls its packets in place — nothing
    /// is lost, but backpressure spreads upstream. Returns `Err` if the
    /// address is outside the network.
    pub fn fail_link(
        &mut self,
        stage: usize,
        port: usize,
        from: u64,
        until: u64,
    ) -> Result<(), String> {
        if stage >= self.k as usize {
            return Err(format!("link fault stage {stage} >= {} stages", self.k));
        }
        if port >= self.ports() {
            return Err(format!("link fault port {port} >= {} ports", self.ports()));
        }
        self.link_faults.push(LinkFault {
            stage,
            port,
            from,
            until,
        });
        Ok(())
    }

    /// Cycles in which a packet was ready to advance but its link was
    /// down.
    pub fn link_stall_cycles(&self) -> u64 {
        self.link_stall_cycles
    }

    fn link_down(&self, stage: usize, port: usize) -> bool {
        self.link_faults.iter().any(|lf| {
            lf.stage == stage && lf.port == port && lf.from <= self.now && self.now < lf.until
        })
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        1 << self.k
    }

    /// Stages (unloaded latency in cycles).
    pub fn stages(&self) -> u32 {
        self.k
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Packets delivered so far, with delivery cycles.
    pub fn delivered(&self) -> &[(u64, Packet)] {
        &self.delivered
    }

    /// Injections refused because the first-stage queue was full.
    pub fn dropped_injections(&self) -> u64 {
        self.dropped_injections
    }

    /// Whether no packet is anywhere in the network.
    pub fn is_empty(&self) -> bool {
        self.queues
            .iter()
            .all(|stage| stage.iter().all(|r| r[0].is_empty() && r[1].is_empty()))
    }

    /// The perfect shuffle: which (router, port) of stage `s+1` receives
    /// output `out` of router `r` in stage `s`.
    fn shuffle(&self, r: usize, out: usize) -> (usize, usize) {
        let n = self.ports();
        let line = 2 * r + out; // global line number leaving this stage
        let next_line = (line << 1 | line >> (self.k - 1)) & (n - 1);
        (next_line / 2, next_line % 2)
    }

    /// Try to inject a packet at input port `port`. Returns false if the
    /// entry queue is full (the PE retries next cycle — backpressure).
    pub fn inject(&mut self, port: usize, mut p: Packet) -> bool {
        p.injected_at = self.now;
        let (r, side) = (port / 2, port % 2);
        if self.queues[0][r][side].len() >= self.queue_cap {
            self.dropped_injections += 1;
            return false;
        }
        self.queues[0][r][side].push_back(p);
        true
    }

    /// Advance one cycle: every router forwards at most one packet per
    /// output; on conflict the lower input port wins (deterministic).
    pub fn step(&mut self) {
        let k = self.k as usize;
        // Process stages from last to first so a packet moves one stage
        // per cycle (no same-cycle ripple).
        for s in (0..k).rev() {
            // For each router, decide the packet each OUTPUT forwards.
            for r in 0..self.ports() / 2 {
                for out in 0..2usize {
                    // Inputs wanting this output, lower port first.
                    let mut chosen: Option<usize> = None;
                    for side in 0..2usize {
                        if let Some(p) = self.queues[s][r][side].front() {
                            // Destination-tag routing: stage s uses
                            // destination bit (k-1-s).
                            let want = (p.dest >> (k - 1 - s)) & 1;
                            if want == out {
                                chosen = Some(side);
                                break;
                            }
                        }
                    }
                    let Some(side) = chosen else { continue };
                    if self.link_down(s, 2 * r + out) {
                        // Downed link: the packet waits in place.
                        self.link_stall_cycles += 1;
                        continue;
                    }
                    // Space downstream?
                    let (nr, nside) = if s + 1 == k {
                        // Delivery row: infinite sink.
                        (usize::MAX, usize::MAX)
                    } else {
                        self.shuffle(r, out)
                    };
                    if s + 1 < k && self.queues[s + 1][nr][nside].len() >= self.queue_cap {
                        continue; // blocked; retry next cycle
                    }
                    let p = self.queues[s][r][side].pop_front().expect("front checked");
                    if s + 1 == k {
                        self.delivered.push((self.now + 1, p));
                    } else {
                        self.queues[s + 1][nr][nside].push_back(p);
                    }
                }
            }
        }
        self.now += 1;
    }

    /// Drain: run until every queue is empty (packets already injected all
    /// deliver). Returns cycles taken.
    pub fn drain(&mut self, max_cycles: u64) -> u64 {
        let start = self.now;
        while self.now - start < max_cycles {
            if self
                .queues
                .iter()
                .all(|stage| stage.iter().all(|r| r[0].is_empty() && r[1].is_empty()))
            {
                break;
            }
            self.step();
        }
        self.now - start
    }
}

/// Summary of one load experiment.
#[derive(Debug, Clone, Copy)]
pub struct LoadPoint {
    /// Offered injection rate (packets per port per cycle).
    pub offered: f64,
    /// Mean delivered latency in cycles.
    pub mean_latency: f64,
    /// 99th-percentile latency.
    pub p99_latency: u64,
    /// Achieved throughput (delivered per port per cycle).
    pub throughput: f64,
}

/// Uniform-random traffic at the given injection probability per port per
/// cycle, for `cycles` cycles (deterministic LCG; no external RNG).
pub fn uniform_load(ports: usize, queue_cap: usize, rate: f64, cycles: u64) -> LoadPoint {
    let mut net = OmegaNetwork::new(ports, queue_cap);
    let mut lcg: u64 = 0x2545F4914F6CDD1D;
    let mut next = move || {
        lcg ^= lcg << 13;
        lcg ^= lcg >> 7;
        lcg ^= lcg << 17;
        lcg
    };
    let mut seq = 0u64;
    for _ in 0..cycles {
        for port in 0..ports {
            let r = (next() >> 11) as f64 / (1u64 << 53) as f64;
            if r < rate {
                let dest = (next() as usize) & (ports - 1);
                let _ = net.inject(
                    port,
                    Packet {
                        dest,
                        injected_at: 0,
                        seq,
                    },
                );
                seq += 1;
            }
        }
        net.step();
    }
    net.drain(100_000);
    let lat: Vec<u64> = net
        .delivered()
        .iter()
        .map(|&(t, p)| t - p.injected_at)
        .collect();
    let mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
    let mut sorted = lat.clone();
    sorted.sort_unstable();
    let p99 = sorted
        .get(sorted.len().saturating_sub(1).min(sorted.len() * 99 / 100))
        .copied()
        .unwrap_or(0);
    LoadPoint {
        offered: rate,
        mean_latency: mean,
        p99_latency: p99,
        throughput: net.delivered().len() as f64 / (cycles as f64 * ports as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_packet_takes_log2_n_cycles() {
        for ports in [4usize, 8, 16, 64] {
            for dest in [0usize, ports - 1, ports / 2] {
                let mut net = OmegaNetwork::new(ports, 4);
                assert!(net.inject(
                    1 % ports,
                    Packet {
                        dest,
                        injected_at: 0,
                        seq: 0
                    }
                ));
                net.drain(1000);
                let &(t, p) = &net.delivered()[0];
                assert_eq!(p.dest, dest);
                assert_eq!(
                    t,
                    net.stages() as u64,
                    "ports={ports} dest={dest}: unloaded latency = stages"
                );
            }
        }
    }

    #[test]
    fn identity_permutation_routes_without_loss() {
        let ports = 16;
        let mut net = OmegaNetwork::new(ports, 4);
        for p in 0..ports {
            assert!(net.inject(
                p,
                Packet {
                    dest: p,
                    injected_at: 0,
                    seq: p as u64
                }
            ));
        }
        net.drain(1000);
        assert_eq!(net.delivered().len(), ports);
        let mut dests: Vec<usize> = net.delivered().iter().map(|&(_, p)| p.dest).collect();
        dests.sort_unstable();
        assert_eq!(dests, (0..ports).collect::<Vec<_>>());
    }

    #[test]
    fn hotspot_conflicts_serialize() {
        // Every port sends to destination 0: the last packet needs ≥ N
        // cycles (one delivery per cycle at the hot output).
        let ports = 8;
        let mut net = OmegaNetwork::new(ports, 8);
        for p in 0..ports {
            assert!(net.inject(
                p,
                Packet {
                    dest: 0,
                    injected_at: 0,
                    seq: p as u64
                }
            ));
        }
        net.drain(1000);
        assert_eq!(net.delivered().len(), ports);
        let last = net.delivered().iter().map(|&(t, _)| t).max().unwrap();
        assert!(last >= ports as u64, "hotspot must serialize: last={last}");
    }

    #[test]
    fn per_flow_order_preserved() {
        // Packets from one input to one destination stay in order.
        let ports = 8;
        let mut net = OmegaNetwork::new(ports, 2);
        let mut injected = 0u64;
        for cycle in 0..50u64 {
            let _ = cycle;
            if net.inject(
                3,
                Packet {
                    dest: 5,
                    injected_at: 0,
                    seq: injected,
                },
            ) {
                injected += 1;
            }
            net.step();
        }
        net.drain(1000);
        let seqs: Vec<u64> = net
            .delivered()
            .iter()
            .filter(|&&(_, p)| p.dest == 5)
            .map(|&(_, p)| p.seq)
            .collect();
        assert!(!seqs.is_empty());
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    }

    #[test]
    fn downed_link_delays_but_never_drops() {
        let mut net = OmegaNetwork::new(4, 4);
        net.fail_link(0, 1, 0, 20).unwrap();
        // Port 1 → dest 3 routes over line 1 out of stage 0.
        assert!(net.inject(
            1,
            Packet {
                dest: 3,
                injected_at: 0,
                seq: 0
            }
        ));
        net.drain(1000);
        assert_eq!(net.delivered().len(), 1);
        let (t, p) = net.delivered()[0];
        assert_eq!(p.dest, 3);
        assert!(t >= 21, "delivery at {t} must wait out the fault window");
        assert!(net.link_stall_cycles() >= 19, "{}", net.link_stall_cycles());
        // Addresses outside the network are rejected.
        assert!(net.fail_link(9, 0, 0, 1).is_err());
        assert!(net.fail_link(0, 99, 0, 1).is_err());
    }

    #[test]
    fn latency_grows_with_load_and_saturates() {
        let light = uniform_load(16, 4, 0.05, 4000);
        let heavy = uniform_load(16, 4, 0.9, 4000);
        assert!(light.mean_latency < net_stages_f(16) + 1.0);
        assert!(heavy.mean_latency > light.mean_latency + 1.0);
        // Saturation: achieved throughput well below offered at 0.9.
        assert!(heavy.throughput < 0.8);
        assert!(light.throughput > 0.045);
    }

    fn net_stages_f(ports: usize) -> f64 {
        (ports as f64).log2()
    }
}
