//! The machine organization of the paper's Fig. 1: processing elements
//! (PE), function units (FU), array memories (AM) and routing networks (RN).
//!
//! This module *places* a compiled program onto machine units and derives
//! the per-arc packet latencies and per-unit initiation budgets that the
//! [`crate::sim`] engine consumes. The placement determines how many hops a
//! result packet takes through the routing network — a packet between two
//! cells in the same PE bypasses the network; anything else pays the
//! network transit plus, for arithmetic shipped to function units or array
//! accesses shipped to array memories, the unit's service latency.

use crate::sim::{ArcDelays, ResourceModel};
use valpipe_ir::graph::Graph;

/// Which unit class executes a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitClass {
    /// Executed inside the processing element holding the cell.
    ProcessingElement,
    /// Shipped to a function unit (floating arithmetic).
    FunctionUnit,
    /// Shipped to an array memory.
    ArrayMemory,
}

/// Machine sizing and latency parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processing elements.
    pub pes: usize,
    /// Number of function units.
    pub fus: usize,
    /// Number of array memories.
    pub ams: usize,
    /// One-way routing-network transit in instruction times (a
    /// `log2(ports)`-stage packet network; 0 = ideal crossbar-in-PE).
    pub network_latency: u64,
    /// Function-unit service latency in instruction times.
    pub fu_latency: u64,
    /// Array-memory service latency in instruction times.
    pub am_latency: u64,
    /// Instructions a PE may initiate per instruction time.
    pub pe_issue_width: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            pes: 16,
            fus: 16,
            ams: 4,
            network_latency: 1,
            fu_latency: 1,
            am_latency: 2,
            pe_issue_width: 8,
        }
    }
}

impl MachineConfig {
    /// An idealized machine: zero network latency, unit service latency 1,
    /// unlimited issue — equivalent to the plain simulator.
    pub fn ideal() -> Self {
        MachineConfig {
            pes: 1,
            fus: 1,
            ams: 1,
            network_latency: 0,
            fu_latency: 1,
            am_latency: 1,
            pe_issue_width: u32::MAX,
        }
    }
}

/// A placement of every cell onto a PE (with its FU/AM routing class).
#[derive(Debug, Clone)]
pub struct Placement {
    /// PE index per cell.
    pub pe_of: Vec<usize>,
    /// Unit class per cell.
    pub class_of: Vec<UnitClass>,
    /// The configuration used.
    pub config: MachineConfig,
}

impl Placement {
    /// Round-robin placement over PEs in topological order — neighbouring
    /// pipeline stages land in different PEs, spreading packet traffic
    /// across the network as the paper intends.
    pub fn round_robin(g: &Graph, config: MachineConfig) -> Self {
        let order = g
            .forward_topo_order()
            .unwrap_or_else(|| g.node_ids().collect());
        let mut pe_of = vec![0usize; g.node_count()];
        for (k, n) in order.iter().enumerate() {
            pe_of[n.idx()] = k % config.pes;
        }
        let class_of = g
            .nodes
            .iter()
            .map(|node| {
                if node.op.is_array_memory() {
                    UnitClass::ArrayMemory
                } else if node.op.is_function_unit() {
                    UnitClass::FunctionUnit
                } else {
                    UnitClass::ProcessingElement
                }
            })
            .collect();
        Placement {
            pe_of,
            class_of,
            config,
        }
    }

    /// Blocked placement: consecutive cells share a PE (locality-first).
    pub fn blocked(g: &Graph, config: MachineConfig) -> Self {
        let n = g.node_count();
        let per = n.div_ceil(config.pes);
        let mut p = Self::round_robin(g, config);
        for i in 0..n {
            p.pe_of[i] = (i / per).min(p.config.pes - 1);
        }
        p
    }

    /// Derive per-arc forward/ack latencies from the placement: a result
    /// packet pays the producing unit's service latency plus a network
    /// transit whenever producer and consumer sit in different PEs (or the
    /// producer executes in an FU/AM, which always routes through the
    /// network). Acks are destination-routed the same way.
    pub fn arc_delays(&self, g: &Graph) -> ArcDelays {
        let cfg = &self.config;
        let mut forward = Vec::with_capacity(g.arc_count());
        let mut ack = Vec::with_capacity(g.arc_count());
        for e in &g.arcs {
            let (s, d) = (e.src.idx(), e.dst.idx());
            let service = match self.class_of[s] {
                UnitClass::ProcessingElement => 1,
                UnitClass::FunctionUnit => cfg.fu_latency,
                UnitClass::ArrayMemory => cfg.am_latency,
            };
            let remote =
                self.pe_of[s] != self.pe_of[d] || self.class_of[s] != UnitClass::ProcessingElement;
            let transit = if remote { cfg.network_latency } else { 0 };
            forward.push(service + transit);
            ack.push(1 + transit);
        }
        ArcDelays { forward, ack }
    }

    /// Per-unit initiation budgets: each PE issues at most
    /// `pe_issue_width` instructions per instruction time.
    pub fn resources(&self) -> ResourceModel {
        let unit_of = self.pe_of.iter().map(|&p| p as u32).collect();
        let capacity = vec![self.config.pe_issue_width; self.config.pes];
        ResourceModel { unit_of, capacity }
    }

    /// Simulation config bundling this placement's delays and budgets.
    pub fn sim_config(&self, g: &Graph, arc_capacity: usize) -> crate::session::SimConfig {
        crate::session::SimConfig::new()
            .delays(self.arc_delays(g))
            .resources(self.resources())
            .arc_capacity(arc_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ProgramInputs, Simulator};
    use valpipe_ir::opcode::Opcode;
    use valpipe_ir::value::{BinOp, Value};

    fn chain(stages: usize) -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let mut prev = a;
        for k in 0..stages {
            prev = g.cell(
                Opcode::Bin(BinOp::Add),
                format!("s{k}"),
                &[prev.into(), 1.0.into()],
            );
        }
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[prev.into()]);
        g
    }

    #[test]
    fn round_robin_spreads_cells() {
        let g = chain(10);
        let p = Placement::round_robin(
            &g,
            MachineConfig {
                pes: 4,
                ..Default::default()
            },
        );
        let used: std::collections::HashSet<_> = p.pe_of.iter().copied().collect();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn remote_arcs_cost_network_latency() {
        let g = chain(2);
        let cfg = MachineConfig {
            pes: 4,
            network_latency: 3,
            fu_latency: 1,
            ..Default::default()
        };
        let p = Placement::round_robin(&g, cfg);
        let d = p.arc_delays(&g);
        // ADD cells are FU-class → every arc from them routes remotely.
        assert!(d.forward.iter().any(|&f| f >= 4));
    }

    #[test]
    fn detailed_model_still_computes_correct_values() {
        let g = chain(4);
        let p = Placement::round_robin(&g, MachineConfig::default());
        let mut gg = g.clone();
        gg.expand_fifos();
        let data: Vec<Value> = (0..20).map(|i| Value::Real(i as f64)).collect();
        let r = Simulator::builder(&gg)
            .inputs(ProgramInputs::new().bind("a", data))
            .config(p.sim_config(&gg, 4))
            .run()
            .unwrap();
        let got = r.reals("out");
        let want: Vec<f64> = (0..20).map(|i| i as f64 + 4.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn issue_width_throttles() {
        // 4 independent chains on a single PE: with issue width 1 the PE
        // serializes every firing, so the whole run takes far longer than
        // with unlimited issue — and values stay correct.
        let build = || {
            let mut g = Graph::new();
            for c in 0..4 {
                let a = g.add_node(Opcode::Source(format!("a{c}")), format!("a{c}"));
                let id = g.cell(Opcode::Id, format!("id{c}"), &[a.into()]);
                let _ = g.cell(Opcode::Sink(format!("o{c}")), format!("o{c}"), &[id.into()]);
            }
            g
        };
        let mut inputs = ProgramInputs::new();
        let wave: Vec<f64> = (0..50).map(|i| i as f64).collect();
        for c in 0..4 {
            inputs = inputs.bind_reals(format!("a{c}"), &wave);
        }
        let run_with = |width: u32| {
            let g = build();
            let cfg = MachineConfig {
                pes: 1,
                network_latency: 0,
                pe_issue_width: width,
                ..Default::default()
            };
            let p = Placement::blocked(&g, cfg);
            Simulator::builder(&g)
                .inputs(inputs.clone())
                .config(p.sim_config(&g, 1))
                .run()
                .unwrap()
        };
        let serial = run_with(1);
        let wide = run_with(u32::MAX);
        assert!(
            serial.steps > 3 * wide.steps,
            "width-1 run ({}) should be far slower than unlimited ({})",
            serial.steps,
            wide.steps
        );
        assert_eq!(serial.reals("o3"), wave);
        assert_eq!(wide.reals("o3"), wave);
    }
}
