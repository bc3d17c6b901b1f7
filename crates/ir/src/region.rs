//! Graph region deltas: the slice of a [`Graph`] one compilation unit
//! (one source block) contributed, captured so an incremental compiler
//! can splice it back instead of re-lowering the block.
//!
//! A delta is position-independent. Everything in it is relative to the
//! point it was captured at:
//!
//! * **cells** have *local* ids: `0..E` name the `E` earlier cells the
//!   unit wires from (its *external* cells, in the order the caller lists
//!   them — for a block, its direct providers), and `E..` the unit's own
//!   cells in creation order;
//! * **arc** ids count from the first arc the unit created (a unit only
//!   ever wires through arcs of its own);
//! * **labels**: every cell the unit adds is labelled `prefix.N` by the
//!   compiler's label counter, and the delta keeps `prefix` and `N`
//!   minus the counter's value at capture.
//!
//! [`GraphDelta::splice`] appends the unit at the graph's current end,
//! maps external cells to the ones the caller passes now, and renumbers
//! labels from the counter's current value. So a cold compile captures
//! byte-identical deltas for a block wherever it sits, and a block whose
//! upstream grew or shrank still replays from cache. Under a cache key
//! that covers everything the unit's lowering reads — for a block, its
//! text, its options and parameters, and its providers' ranges and
//! aliasing — the splice reproduces a cold lowering bit for bit.
//!
//! Besides its own cells and arcs, a unit pushes the ids of arcs it
//! creates into the `outputs` lists of its external cells. Splicing
//! replays those pushes in arc order, as the cold lowering made them.

use crate::graph::{ArcId, Edge, Graph, Node, NodeId, PortBinding};

/// Where a unit began: the graph's cell and arc counts and the label
/// counter's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// Cell count.
    pub nodes: u32,
    /// Arc count.
    pub arcs: u32,
    /// Label counter.
    pub labels: u32,
}

impl Mark {
    /// The mark at `g`'s current end, with the label counter at `labels`.
    pub fn of(g: &Graph, labels: u32) -> Mark {
        Mark {
            nodes: g.nodes.len() as u32,
            arcs: g.arcs.len() as u32,
            labels,
        }
    }
}

/// How a delta's local cell ids map onto a graph's: below `ext.len()`
/// they index the external cells, from there on they count the unit's
/// own cells from `base`.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// Graph id of the unit's first own cell.
    pub base: u32,
    /// The external cells, in local-id order.
    pub ext: &'a [NodeId],
}

impl Frame<'_> {
    /// Local id of graph cell `n`: an own cell, else the first external
    /// entry naming it. `None` for an earlier cell not in `ext`.
    pub fn local(&self, n: NodeId) -> Option<NodeId> {
        let e = self.ext.len() as u32;
        if n.0 >= self.base {
            Some(NodeId(n.0 - self.base + e))
        } else {
            self.ext
                .iter()
                .position(|&x| x == n)
                .map(|j| NodeId(j as u32))
        }
    }

    /// Graph id of local cell `n`.
    pub fn global(&self, n: NodeId) -> NodeId {
        match self.ext.get(n.idx()) {
            Some(&x) => x,
            None => NodeId(self.base + n.0 - self.ext.len() as u32),
        }
    }
}

/// The cells and arcs one unit appended to a [`Graph`], in local ids (see
/// the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDelta {
    /// Number of external cells (local ids `0..ext`).
    pub ext: u32,
    /// Label numbers the unit drew from the counter.
    pub labels: u32,
    /// The unit's cells: arc ids relative, `label` holding the prefix
    /// only, provenance (`src`) preserved.
    pub nodes: Vec<Node>,
    /// Each cell's label number, relative to the counter at capture.
    pub seqs: Vec<u32>,
    /// The unit's arcs, endpoints in local ids.
    pub arcs: Vec<Edge>,
}

impl GraphDelta {
    /// Capture everything `g` gained since `mark`, with the label counter
    /// now at `labels_end` and `ext` listing the earlier cells the unit
    /// may wire from.
    ///
    /// Must be called immediately after the unit finishes lowering —
    /// before any later unit appends to `g` — so that the appended cells'
    /// output lists contain only this unit's arcs. Fails if the unit
    /// touched anything a splice could not reproduce: an earlier cell
    /// missing from `ext`, an arc into an earlier cell, an earlier arc,
    /// or a cell label not drawn from the counter since `mark`.
    pub fn capture(
        g: &Graph,
        mark: Mark,
        labels_end: u32,
        ext: &[NodeId],
    ) -> Result<GraphDelta, String> {
        let frame = Frame {
            base: mark.nodes,
            ext,
        };
        let arc = |a: ArcId| {
            a.0.checked_sub(mark.arcs)
                .map(ArcId)
                .ok_or_else(|| format!("region uses arc {} from before it", a.0))
        };
        let own = &g.nodes[mark.nodes as usize..];
        let mut nodes = Vec::with_capacity(own.len());
        let mut seqs = Vec::with_capacity(own.len());
        for n in own {
            let (prefix, seq) = n
                .label
                .rsplit_once('.')
                .and_then(|(p, s)| Some((p, s.parse::<u32>().ok()?)))
                .filter(|&(_, s)| s > mark.labels && s <= labels_end)
                .ok_or_else(|| format!("region cell '{}' has no counter label", n.label))?;
            let inputs = n
                .inputs
                .iter()
                .map(|b| match *b {
                    PortBinding::Wired(a) => arc(a).map(PortBinding::Wired),
                    other => Ok(other),
                })
                .collect::<Result<_, _>>()?;
            let outputs = n
                .outputs
                .iter()
                .map(|&a| arc(a))
                .collect::<Result<_, _>>()?;
            nodes.push(Node {
                op: n.op.clone(),
                label: prefix.to_string(),
                inputs,
                outputs,
                src: n.src,
            });
            seqs.push(seq - mark.labels);
        }
        let mut arcs = Vec::with_capacity(g.arcs.len() - mark.arcs as usize);
        for e in &g.arcs[mark.arcs as usize..] {
            let src = frame
                .local(e.src)
                .ok_or_else(|| format!("region wires from cell {}, not external", e.src.0))?;
            let dst = match frame.local(e.dst) {
                Some(d) if e.dst.0 >= mark.nodes => d,
                _ => return Err(format!("region wires into earlier cell {}", e.dst.0)),
            };
            arcs.push(Edge {
                src,
                dst,
                ..e.clone()
            });
        }
        Ok(GraphDelta {
            ext: ext.len() as u32,
            labels: labels_end - mark.labels,
            nodes,
            seqs,
            arcs,
        })
    }

    /// Append the unit at `g`'s end, wiring from `ext` (one cell per
    /// local external id) and numbering labels after `labels`. Checks
    /// every local id first and fails without touching `g` on any that
    /// is out of range.
    pub fn splice(&self, g: &mut Graph, labels: u32, ext: &[NodeId]) -> Result<(), String> {
        let base = g.nodes.len() as u32;
        let arc_base = g.arcs.len() as u32;
        let cells = self.ext as usize + self.nodes.len();
        let arcs = self.arcs.len() as u32;
        if ext.len() != self.ext as usize {
            return Err(format!(
                "region of {} external cells spliced onto {}",
                self.ext,
                ext.len()
            ));
        }
        if self.seqs.len() != self.nodes.len() || self.seqs.iter().any(|&s| s > self.labels) {
            return Err("region label numbers do not fit its label span".into());
        }
        if let Some(n) = ext.iter().find(|n| n.0 >= base) {
            return Err(format!("region external cell {} is not earlier", n.0));
        }
        let bad_arc = |a: &ArcId| a.0 >= arcs;
        for n in &self.nodes {
            let wired = n
                .inputs
                .iter()
                .any(|b| matches!(b, PortBinding::Wired(a) if bad_arc(a)));
            if wired || n.outputs.iter().any(bad_arc) {
                return Err("region cell names an arc outside the region".into());
            }
        }
        if self
            .arcs
            .iter()
            .any(|e| e.src.idx() >= cells || e.dst.idx() >= cells || e.dst.0 < self.ext)
        {
            return Err("region arc names a cell outside the region".into());
        }

        let frame = Frame { base, ext };
        let rebase = |a: ArcId| ArcId(a.0 + arc_base);
        for (n, &seq) in self.nodes.iter().zip(&self.seqs) {
            g.nodes.push(Node {
                op: n.op.clone(),
                label: format!("{}.{}", n.label, labels + seq),
                inputs: n
                    .inputs
                    .iter()
                    .map(|b| match *b {
                        PortBinding::Wired(a) => PortBinding::Wired(rebase(a)),
                        other => other,
                    })
                    .collect(),
                outputs: n.outputs.iter().map(|&a| rebase(a)).collect(),
                src: n.src,
            });
        }
        for (off, e) in self.arcs.iter().enumerate() {
            let src = frame.global(e.src);
            if e.src.0 < self.ext {
                g.nodes[src.idx()]
                    .outputs
                    .push(ArcId(arc_base + off as u32));
            }
            g.arcs.push(Edge {
                src,
                dst: frame.global(e.dst),
                ..e.clone()
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;
    use crate::value::{BinOp, Value};

    /// `pad` filler cells, a source cell, then a unit that adds two
    /// counter-labelled cells and wires one of them from the source.
    /// Returns the graph, the unit's mark, its label end and its
    /// external cells.
    fn build(pad: usize, labels: u32) -> (Graph, Mark, u32, Vec<NodeId>) {
        let mut g = Graph::new();
        for k in 0..pad {
            g.add_node(Opcode::Id, format!("pad.{k}"));
        }
        let s = g.add_node(Opcode::Source("in".into()), "in");
        let mark = Mark::of(&g, labels);
        g.set_provenance(7);
        let a = g.add_node(Opcode::Id, format!("unit.a.{}", labels + 1));
        let b = g.add_node(Opcode::Bin(BinOp::Add), format!("unit.b.{}", labels + 2));
        g.connect(s, a, 0);
        g.connect(a, b, 0);
        g.set_lit(b, 1, Value::Int(1));
        g.set_provenance(0);
        (g, mark, labels + 2, vec![s])
    }

    #[test]
    fn capture_then_splice_reproduces_the_graph() {
        let (g, mark, end, ext) = build(0, 0);
        let delta = GraphDelta::capture(&g, mark, end, &ext).unwrap();
        assert_eq!(delta.nodes.len(), 2);
        assert_eq!(delta.nodes[0].src, 7, "provenance travels with the delta");
        assert_eq!(delta.nodes[0].label, "unit.a");

        // Rebuild only the prefix, splice, compare everything.
        let mut h = Graph::new();
        h.add_node(Opcode::Source("in".into()), "in");
        delta.splice(&mut h, 0, &ext).unwrap();
        assert_eq!(h.nodes, g.nodes);
        assert_eq!(h.arcs, g.arcs);
    }

    #[test]
    fn deltas_are_position_independent() {
        let (g, mark, end, ext) = build(0, 0);
        let here = GraphDelta::capture(&g, mark, end, &ext).unwrap();
        let (g2, mark2, end2, ext2) = build(5, 40);
        let there = GraphDelta::capture(&g2, mark2, end2, &ext2).unwrap();
        assert_eq!(here, there, "same unit, different offsets: same delta");

        // Splicing the first capture at the second position reproduces
        // the second graph exactly: ids, arcs and label numbers rebased.
        let mut h = Graph::new();
        for k in 0..5 {
            h.add_node(Opcode::Id, format!("pad.{k}"));
        }
        h.add_node(Opcode::Source("in".into()), "in");
        here.splice(&mut h, 40, &ext2).unwrap();
        assert_eq!(h.nodes, g2.nodes);
        assert_eq!(h.arcs, g2.arcs);
        assert_eq!(h.nodes[7].label, "unit.b.42");
    }

    #[test]
    fn capture_rejects_what_a_splice_cannot_replay() {
        let (g, mark, end, _) = build(1, 0);
        // The source cell is not listed as external.
        assert!(GraphDelta::capture(&g, mark, end, &[]).is_err());
        // Labels outside the counter window.
        let (g, mark, _, ext) = build(0, 3);
        assert!(GraphDelta::capture(&g, mark, 4, &ext).is_err());
        let (mut g, mark, end, ext) = build(0, 0);
        g.add_node(Opcode::Id, "plain");
        assert!(GraphDelta::capture(&g, mark, end, &ext).is_err());
    }

    #[test]
    fn splice_rejects_wrong_externals_without_mutating() {
        let (g, mark, end, ext) = build(0, 0);
        let delta = GraphDelta::capture(&g, mark, end, &ext).unwrap();
        let mut h = Graph::new();
        // No external cell supplied.
        assert!(delta.splice(&mut h, 0, &[]).is_err());
        // An "external" cell that does not precede the splice point.
        assert!(delta.splice(&mut h, 0, &[NodeId(0)]).is_err());
        assert!(h.nodes.is_empty(), "failed splice must not mutate");
        let mut bad = delta.clone();
        bad.arcs[0].dst = NodeId(9);
        h.add_node(Opcode::Source("in".into()), "in");
        assert!(bad.splice(&mut h, 0, &ext).is_err());
        assert_eq!(h.nodes.len(), 1, "failed splice must not mutate");
    }
}
