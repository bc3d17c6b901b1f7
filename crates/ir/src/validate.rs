//! Structural well-formedness checks for machine-level programs.
//!
//! A valid program can be loaded into the machine: every operand port is
//! bound, control/data port types are plausible, FIFO depths are positive,
//! every cycle is seeded by at least one initial token, and sinks/sources
//! carry unique port names.

use crate::graph::{Graph, PortBinding};
use crate::opcode::{Opcode, GATE_CTL, MERGE_CTL};
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;

/// A structural defect found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing diagnostics payloads
pub enum Defect {
    /// An operand port was never wired or given a literal.
    UnboundPort {
        node: usize,
        port: usize,
        label: String,
    },
    /// A literal was bound where a boolean control stream is required and
    /// the literal is not boolean.
    NonBoolCtlLiteral { node: usize, port: usize },
    /// FIFO with zero depth.
    ZeroFifo { node: usize },
    /// A cycle in the graph with no initial token anywhere on it.
    UnseededCycle,
    /// Two sources (or two sinks) share a port name.
    DuplicatePortName { name: String },
    /// A source or ctl-gen has no consumers, or a non-sink node's output
    /// goes nowhere (it would jam after one firing… actually it would fire
    /// freely; this is reported as dead code).
    DeadOutput { node: usize, label: String },
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Defect::UnboundPort { node, port, label } => {
                write!(f, "cell {node} ({label}): operand port {port} unbound")
            }
            Defect::NonBoolCtlLiteral { node, port } => {
                write!(
                    f,
                    "cell {node}: control port {port} bound to non-boolean literal"
                )
            }
            Defect::ZeroFifo { node } => write!(f, "cell {node}: FIFO of depth 0"),
            Defect::UnseededCycle => write!(f, "cycle with no initial token (deadlock)"),
            Defect::DuplicatePortName { name } => write!(f, "duplicate port name {name}"),
            Defect::DeadOutput { node, label } => {
                write!(f, "cell {node} ({label}) produces a result nobody consumes")
            }
        }
    }
}

/// Check the program; returns all defects found (empty = valid).
pub fn validate(g: &Graph) -> Vec<Defect> {
    let mut defects = Vec::new();

    for (i, node) in g.nodes.iter().enumerate() {
        for (port, binding) in node.inputs.iter().enumerate() {
            match binding {
                PortBinding::Unbound => defects.push(Defect::UnboundPort {
                    node: i,
                    port,
                    label: node.label.clone(),
                }),
                PortBinding::Lit(v) => {
                    let is_ctl = matches!(
                        (&node.op, port),
                        (Opcode::TGate | Opcode::FGate, GATE_CTL) | (Opcode::Merge, MERGE_CTL)
                    );
                    if is_ctl && !matches!(v, Value::Bool(_)) {
                        defects.push(Defect::NonBoolCtlLiteral { node: i, port });
                    }
                }
                PortBinding::Wired(_) => {}
            }
        }
        if let Opcode::Fifo(0) = node.op {
            defects.push(Defect::ZeroFifo { node: i });
        }
        if node.op.produces_output() && node.outputs.is_empty() {
            defects.push(Defect::DeadOutput {
                node: i,
                label: node.label.clone(),
            });
        }
    }

    if g.forward_topo_order().is_none() {
        defects.push(Defect::UnseededCycle);
    }

    let mut src_names = HashSet::new();
    for (_, name) in g.sources() {
        if !src_names.insert(name.clone()) {
            defects.push(Defect::DuplicatePortName { name });
        }
    }
    let mut sink_names = HashSet::new();
    for (_, name) in g.sinks() {
        if !sink_names.insert(name.clone()) {
            defects.push(Defect::DuplicatePortName { name });
        }
    }

    defects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::BinOp;

    #[test]
    fn valid_program_has_no_defects() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[a.into(), 1.0.into()]);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
        assert!(validate(&g).is_empty());
    }

    #[test]
    fn unbound_port_detected() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let add = g.add_node(Opcode::Bin(BinOp::Add), "add");
        g.connect(a, add, 0);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
        let defects = validate(&g);
        assert!(matches!(defects[0], Defect::UnboundPort { port: 1, .. }));
    }

    #[test]
    fn non_bool_ctl_literal_detected() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let gate = g.cell(Opcode::TGate, "g", &[1.0.into(), a.into()]);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[gate.into()]);
        assert!(validate(&g).contains(&Defect::NonBoolCtlLiteral { node: 1, port: 0 }));
    }

    #[test]
    fn dead_output_detected() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let _add = g.cell(Opcode::Id, "dead", &[a.into()]);
        let defects = validate(&g);
        assert!(defects
            .iter()
            .any(|d| matches!(d, Defect::DeadOutput { .. })));
    }

    #[test]
    fn duplicate_source_names_detected() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a1");
        let b = g.add_node(Opcode::Source("a".into()), "a2");
        let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[a.into(), b.into()]);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[add.into()]);
        assert!(validate(&g)
            .iter()
            .any(|d| matches!(d, Defect::DuplicatePortName { .. })));
    }

    #[test]
    fn unseeded_cycle_detected() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Id, "a");
        let b = g.cell(Opcode::Id, "b", &[a.into()]);
        g.connect(b, a, 0);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[b.into()]);
        assert!(validate(&g).contains(&Defect::UnseededCycle));
    }
}
