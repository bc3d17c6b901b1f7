//! The machine-level data flow program: a directed graph of instruction
//! cells (nodes) and destination links (arcs).
//!
//! Every arc stands for **both** the forward path of a result packet and the
//! reverse path of the acknowledge packet (paper §3) and can hold at most
//! one data token — the static architecture's one-instance-per-instruction
//! rule. Arcs on feedback paths may carry an **initial token** (a preloaded
//! operand value in the target cell), which is how iteration state is seeded
//! in Figs. 7 and 8.

use crate::opcode::Opcode;
use crate::value::Value;

/// Index of an instruction cell within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of an arc (destination link) within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcId(pub u32);

impl NodeId {
    /// Usize view for indexing.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ArcId {
    /// Usize view for indexing.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// How an input operand port of a cell receives its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PortBinding {
    /// Not yet connected (invalid in a finished program).
    Unbound,
    /// Receives result packets over the given arc.
    Wired(ArcId),
    /// A literal constant held in the cell's operand field; always present
    /// and never consumed.
    Lit(Value),
}

/// One instruction cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation code.
    pub op: Opcode,
    /// Human-readable label for listings and Graphviz output.
    pub label: String,
    /// Input operand ports, length `op.arity()`.
    pub inputs: Vec<PortBinding>,
    /// Outgoing arcs (destination fields); the result packet is replicated
    /// to every one, and the cell re-enables only after all of them have
    /// been acknowledged.
    pub outputs: Vec<ArcId>,
    /// Provenance id: index into the compiler's [`crate::prov::Provenance`]
    /// table naming the source statement this cell implements. Purely a
    /// side annotation — excluded from [`Graph::fingerprint`] and the JSON
    /// machine-code format; 0 on hand-built graphs (the whole-program
    /// fallback entry).
    pub src: u32,
}

/// One destination link.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producing cell.
    pub src: NodeId,
    /// Consuming cell.
    pub dst: NodeId,
    /// Which operand port of `dst` this link feeds.
    pub dst_port: usize,
    /// Initial token preloaded on the link (feedback seeding). An arc with
    /// an initial token is by construction a loop back-edge and is excluded
    /// from acyclic balancing.
    pub initial: Option<Value>,
    /// Declared loop back-edge whose liveness is ensured by construction
    /// (e.g. a MERGE-initialized feedback path, paper Figs. 7–8). Treated
    /// like an initial-token arc by cycle analyses.
    pub back: bool,
    /// Extra *stream-phase* weight in instruction times, used by the
    /// balancer: a tap at constant offset `c` consumes the element for
    /// index `i + c`, which arrives `2·c` instruction times away from the
    /// reference element (paper Fig. 4's skew). Negative for backward
    /// offsets.
    pub phase: i32,
}

impl Edge {
    /// Whether this arc participates in the forward (acyclic) graph.
    pub fn is_forward(&self) -> bool {
        self.initial.is_none() && !self.back
    }
}

/// A complete machine-level data flow program.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Instruction cells, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// Destination links, indexed by [`ArcId`].
    pub arcs: Vec<Edge>,
    /// Ambient provenance id stamped onto cells created by [`Graph::add_node`]
    /// (see [`Node::src`]). The compiler points this at the statement it is
    /// currently lowering via [`Graph::set_provenance`].
    pub cur_src: u32,
}

/// Anything that can feed an operand port while building a graph: an
/// existing cell's output, or a literal constant.
#[derive(Debug, Clone, Copy)]
pub enum In {
    /// Wire from this cell's output.
    Node(NodeId),
    /// Literal operand.
    Lit(Value),
}

impl From<NodeId> for In {
    fn from(n: NodeId) -> Self {
        In::Node(n)
    }
}
impl From<Value> for In {
    fn from(v: Value) -> Self {
        In::Lit(v)
    }
}
impl From<f64> for In {
    fn from(v: f64) -> Self {
        In::Lit(Value::Real(v))
    }
}
impl From<i64> for In {
    fn from(v: i64) -> Self {
        In::Lit(Value::Int(v))
    }
}
impl From<bool> for In {
    fn from(v: bool) -> Self {
        In::Lit(Value::Bool(v))
    }
}

impl Graph {
    /// Empty program.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of instruction cells.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Add an instruction cell with all ports unbound. The cell is stamped
    /// with the ambient provenance id (see [`Graph::set_provenance`]).
    pub fn add_node(&mut self, op: Opcode, label: impl Into<String>) -> NodeId {
        let arity = op.arity();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            label: label.into(),
            inputs: vec![PortBinding::Unbound; arity],
            outputs: Vec::new(),
            src: self.cur_src,
        });
        id
    }

    /// Point the ambient provenance at the statement being lowered;
    /// subsequently created cells carry `src`. Returns the previous value
    /// so callers can restore an enclosing scope.
    pub fn set_provenance(&mut self, src: u32) -> u32 {
        std::mem::replace(&mut self.cur_src, src)
    }

    /// Connect `src`'s output to operand port `dst_port` of `dst`.
    pub fn connect(&mut self, src: NodeId, dst: NodeId, dst_port: usize) -> ArcId {
        self.connect_full(src, dst, dst_port, None, 0)
    }

    /// Connect a declared loop back-edge (see [`Edge::back`]).
    pub fn connect_back(&mut self, src: NodeId, dst: NodeId, dst_port: usize) -> ArcId {
        let a = self.connect_full(src, dst, dst_port, None, 0);
        self.arcs[a.idx()].back = true;
        a
    }

    /// Connect with an initial token preloaded on the link.
    pub fn connect_init(&mut self, src: NodeId, dst: NodeId, dst_port: usize, tok: Value) -> ArcId {
        self.connect_full(src, dst, dst_port, Some(tok), 0)
    }

    /// Connect with an explicit stream-phase weight (see [`Edge::phase`]).
    pub fn connect_phase(
        &mut self,
        src: NodeId,
        dst: NodeId,
        dst_port: usize,
        phase: i32,
    ) -> ArcId {
        self.connect_full(src, dst, dst_port, None, phase)
    }

    /// Fully general connection.
    pub fn connect_full(
        &mut self,
        src: NodeId,
        dst: NodeId,
        dst_port: usize,
        initial: Option<Value>,
        phase: i32,
    ) -> ArcId {
        assert!(
            dst_port < self.nodes[dst.idx()].inputs.len(),
            "port out of range"
        );
        assert!(
            matches!(self.nodes[dst.idx()].inputs[dst_port], PortBinding::Unbound),
            "port {dst_port} of node {} ({}) already bound",
            dst.idx(),
            self.nodes[dst.idx()].label
        );
        let id = ArcId(self.arcs.len() as u32);
        self.arcs.push(Edge {
            src,
            dst,
            dst_port,
            initial,
            back: false,
            phase,
        });
        self.nodes[dst.idx()].inputs[dst_port] = PortBinding::Wired(id);
        self.nodes[src.idx()].outputs.push(id);
        id
    }

    /// Bind a literal operand to an input port.
    pub fn set_lit(&mut self, dst: NodeId, dst_port: usize, v: Value) {
        assert!(
            matches!(self.nodes[dst.idx()].inputs[dst_port], PortBinding::Unbound),
            "port already bound"
        );
        self.nodes[dst.idx()].inputs[dst_port] = PortBinding::Lit(v);
    }

    /// Bind an [`In`] (wire or literal) to a port.
    pub fn bind(&mut self, input: In, dst: NodeId, dst_port: usize) -> Option<ArcId> {
        match input {
            In::Node(src) => Some(self.connect(src, dst, dst_port)),
            In::Lit(v) => {
                self.set_lit(dst, dst_port, v);
                None
            }
        }
    }

    /// Create a cell and bind all of its operand ports in one step.
    pub fn cell(&mut self, op: Opcode, label: impl Into<String>, inputs: &[In]) -> NodeId {
        let id = self.add_node(op, label);
        assert_eq!(
            inputs.len(),
            self.nodes[id.idx()].op.arity(),
            "wrong operand count"
        );
        for (port, &input) in inputs.iter().enumerate() {
            self.bind(input, id, port);
        }
        id
    }

    /// The arcs leaving `n`.
    pub fn out_arcs(&self, n: NodeId) -> &[ArcId] {
        &self.nodes[n.idx()].outputs
    }

    /// The arcs entering `n` (one per wired port), in port order.
    pub fn in_arcs(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.nodes[n.idx()].inputs.iter().filter_map(|p| match p {
            PortBinding::Wired(a) => Some(*a),
            _ => None,
        })
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All arc ids.
    pub fn arc_ids(&self) -> impl Iterator<Item = ArcId> {
        (0..self.arcs.len() as u32).map(ArcId)
    }

    /// Topological order of the graph **ignoring loop back-edges** (arcs
    /// carrying initial tokens or declared `back`). Returns `None` if the
    /// remaining forward graph has a cycle — a feedback loop with no
    /// liveness seed, i.e. a deadlocked program.
    pub fn forward_topo_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.arcs {
            if e.is_forward() {
                indeg[e.dst.idx()] += 1;
            }
        }
        let mut stack: Vec<NodeId> = self.node_ids().filter(|id| indeg[id.idx()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = stack.pop() {
            order.push(id);
            for &a in &self.nodes[id.idx()].outputs {
                let e = &self.arcs[a.idx()];
                if e.is_forward() {
                    indeg[e.dst.idx()] -= 1;
                    if indeg[e.dst.idx()] == 0 {
                        stack.push(e.dst);
                    }
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Replace every symbolic [`Opcode::Fifo`] cell by a chain of identity
    /// cells of the same depth — the actual machine realization of a buffer.
    /// Returns the number of identity cells created.
    pub fn expand_fifos(&mut self) -> usize {
        let mut created = 0;
        for i in 0..self.nodes.len() {
            let depth = match self.nodes[i].op {
                Opcode::Fifo(d) => d,
                _ => continue,
            };
            assert!(depth >= 1, "FIFO depth must be >= 1");
            // Turn the FIFO cell itself into the first identity stage…
            self.nodes[i].op = Opcode::Id;
            let base_label = std::mem::take(&mut self.nodes[i].label);
            self.nodes[i].label = format!("{base_label}#0");
            // …then splice `depth - 1` further stages onto its output side.
            // The stages inherit the FIFO cell's provenance.
            let fifo_src = self.nodes[i].src;
            let mut tail = NodeId(i as u32);
            let moved_outputs = std::mem::take(&mut self.nodes[i].outputs);
            for k in 1..depth {
                let stage = self.add_node(Opcode::Id, format!("{base_label}#{k}"));
                self.nodes[stage.idx()].src = fifo_src;
                self.connect(tail, stage, 0);
                tail = stage;
                created += 1;
            }
            if tail == NodeId(i as u32) {
                self.nodes[i].outputs = moved_outputs;
            } else {
                for a in moved_outputs {
                    self.arcs[a.idx()].src = tail;
                    self.nodes[tail.idx()].outputs.push(a);
                }
            }
        }
        created
    }

    /// Insert an identity-chain FIFO of `depth` stages *on* an existing arc,
    /// preserving the arc's initial token (it stays on the segment entering
    /// the original destination). Returns the first inserted node, if any.
    pub fn insert_fifo_on_arc(&mut self, arc: ArcId, depth: u32) -> Option<NodeId> {
        if depth == 0 {
            return None;
        }
        let Edge {
            src, dst, dst_port, ..
        } = self.arcs[arc.idx()];
        let first = self.add_node(
            Opcode::Fifo(depth),
            format!("bal→{}", self.nodes[dst.idx()].label),
        );
        // A balancing buffer pads the consumer's operand path, so it is
        // blamed on the consuming statement.
        self.nodes[first.idx()].src = self.nodes[dst.idx()].src;
        // Rewire: src → first, first → dst (reusing the original arc for the
        // downstream segment keeps `dst`'s port binding and initial token).
        // Remove `arc` from src's output list.
        let pos = self.nodes[src.idx()]
            .outputs
            .iter()
            .position(|&a| a == arc)
            .expect("arc missing from source outputs");
        self.nodes[src.idx()].outputs.remove(pos);
        // New upstream arc src → first, carrying the original phase.
        let phase = self.arcs[arc.idx()].phase;
        self.arcs[arc.idx()].phase = 0;
        let up = ArcId(self.arcs.len() as u32);
        self.arcs.push(Edge {
            src,
            dst: first,
            dst_port: 0,
            initial: None,
            back: false,
            phase,
        });
        self.nodes[first.idx()].inputs[0] = PortBinding::Wired(up);
        self.nodes[src.idx()].outputs.push(up);
        // Original arc now originates at the FIFO.
        self.arcs[arc.idx()].src = first;
        self.nodes[first.idx()].outputs.push(arc);
        let _ = (dst, dst_port);
        Some(first)
    }

    /// Count of cells per mnemonic — handy for tests and listings.
    pub fn opcode_histogram(&self) -> std::collections::BTreeMap<String, usize> {
        let mut h = std::collections::BTreeMap::new();
        for n in &self.nodes {
            *h.entry(n.op.mnemonic()).or_insert(0) += 1;
        }
        h
    }

    /// Ids of all `Source` cells with their port names.
    pub fn sources(&self) -> Vec<(NodeId, String)> {
        self.node_ids()
            .filter_map(|id| match &self.nodes[id.idx()].op {
                Opcode::Source(name) => Some((id, name.clone())),
                _ => None,
            })
            .collect()
    }

    /// Serialize the program to JSON (the output of `valpipe compile
    /// --json`; the encoding is described in `serialize.rs`).
    pub fn to_json(&self) -> String {
        crate::serialize::graph_to_json(self).to_pretty()
    }

    /// A structural fingerprint of the program: a 64-bit hash over every
    /// cell's opcode (including embedded control streams, index ranges
    /// and port names), every operand binding, and every arc's wiring,
    /// initial token, back-edge flag and phase. Two graphs share a
    /// fingerprint exactly when they are the same machine program —
    /// cell labels are cosmetic and deliberately excluded.
    ///
    /// The machine crate's snapshot format records this fingerprint so a
    /// checkpoint refuses to restore against a mismatched program.
    pub fn fingerprint(&self) -> u64 {
        fn push_value(words: &mut Vec<u64>, v: &Value) {
            match v {
                Value::Int(i) => words.extend([0, *i as u64]),
                Value::Real(r) => words.extend([1, r.to_bits()]),
                Value::Bool(b) => words.extend([2, *b as u64]),
            }
        }
        fn push_str(words: &mut Vec<u64>, s: &str) {
            words.push(s.len() as u64);
            for chunk in s.as_bytes().chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                words.push(u64::from_le_bytes(w));
            }
        }
        let mut words: Vec<u64> = vec![self.nodes.len() as u64, self.arcs.len() as u64];
        for node in &self.nodes {
            match &node.op {
                Opcode::Bin(op) => words.extend([10, *op as u64]),
                Opcode::Un(op) => words.extend([11, *op as u64]),
                Opcode::Id => words.push(12),
                Opcode::TGate => words.push(13),
                Opcode::FGate => words.push(14),
                Opcode::Merge => words.push(15),
                Opcode::Fifo(d) => words.extend([16, *d as u64]),
                Opcode::CtlGen(s) => {
                    words.extend([17, s.runs().len() as u64]);
                    for run in s.runs() {
                        words.extend([run.value as u64, run.count as u64]);
                    }
                }
                Opcode::IdxGen { lo, hi } => words.extend([18, *lo as u64, *hi as u64]),
                Opcode::Source(name) => {
                    words.push(19);
                    push_str(&mut words, name);
                }
                Opcode::Sink(name) => {
                    words.push(20);
                    push_str(&mut words, name);
                }
                Opcode::AmWrite => words.push(21),
                Opcode::AmRead => words.push(22),
            }
            for input in &node.inputs {
                match input {
                    PortBinding::Unbound => words.push(30),
                    PortBinding::Wired(a) => words.extend([31, a.0 as u64]),
                    PortBinding::Lit(v) => {
                        words.push(32);
                        push_value(&mut words, v);
                    }
                }
            }
        }
        for e in &self.arcs {
            words.extend([
                e.src.0 as u64,
                e.dst.0 as u64,
                e.dst_port as u64,
                e.back as u64,
                e.phase as u64,
            ]);
            match &e.initial {
                None => words.push(40),
                Some(v) => {
                    words.push(41);
                    push_value(&mut words, v);
                }
            }
        }
        valpipe_util::hash_mix(&words)
    }

    /// Ids of all `Sink` cells with their port names.
    pub fn sinks(&self) -> Vec<(NodeId, String)> {
        self.node_ids()
            .filter_map(|id| match &self.nodes[id.idx()].op {
                Opcode::Sink(name) => Some((id, name.clone())),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::BinOp;

    fn tiny() -> (Graph, NodeId, NodeId) {
        // a, b → MULT → SINK
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let b = g.add_node(Opcode::Source("b".into()), "b");
        let m = g.cell(Opcode::Bin(BinOp::Mul), "m", &[a.into(), b.into()]);
        let s = g.cell(Opcode::Sink("y".into()), "y", &[m.into()]);
        (g, m, s)
    }

    #[test]
    fn build_and_query() {
        let (g, m, s) = tiny();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.arc_count(), 3);
        let succ: Vec<_> = g.out_arcs(m).iter().map(|a| g.arcs[a.idx()].dst).collect();
        assert_eq!(succ, vec![s]);
        let pred: Vec<_> = g.in_arcs(s).map(|a| g.arcs[a.idx()].src).collect();
        assert_eq!(pred, vec![m]);
        assert_eq!(g.sources().len(), 2);
        assert_eq!(g.sinks().len(), 1);
    }

    #[test]
    fn topo_order_covers_all() {
        let (g, ..) = tiny();
        let order = g.forward_topo_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        for e in &g.arcs {
            assert!(pos[&e.src] < pos[&e.dst]);
        }
    }

    #[test]
    fn cycle_without_initial_token_detected() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Id, "a");
        let b = g.cell(Opcode::Id, "b", &[a.into()]);
        g.connect(b, a, 0); // un-seeded cycle
        assert!(g.forward_topo_order().is_none());
    }

    #[test]
    fn cycle_with_initial_token_is_forward_acyclic() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Id, "a");
        let b = g.cell(Opcode::Id, "b", &[a.into()]);
        g.connect_init(b, a, 0, Value::Int(0));
        assert!(g.forward_topo_order().is_some());
    }

    #[test]
    fn expand_fifos_makes_id_chain() {
        let mut g = Graph::new();
        let src = g.add_node(Opcode::Source("a".into()), "a");
        let f = g.cell(Opcode::Fifo(3), "buf", &[src.into()]);
        let _snk = g.cell(Opcode::Sink("y".into()), "y", &[f.into()]);
        let created = g.expand_fifos();
        assert_eq!(created, 2);
        assert_eq!(g.opcode_histogram()["ID"], 3);
        // Path a → #0 → #1 → #2 → sink.
        let order = g.forward_topo_order().unwrap();
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn insert_fifo_on_arc_preserves_wiring() {
        let (mut g, m, s) = tiny();
        let arc = g.in_arcs(s).next().unwrap();
        g.insert_fifo_on_arc(arc, 2);
        // m now feeds the FIFO; the FIFO feeds the sink.
        let succ_of_m: Vec<_> = g.out_arcs(m).iter().map(|a| g.arcs[a.idx()].dst).collect();
        assert_eq!(succ_of_m.len(), 1);
        assert!(matches!(g.nodes[succ_of_m[0].idx()].op, Opcode::Fifo(2)));
        let into_s = g.in_arcs(s).next().unwrap();
        assert_eq!(g.arcs[into_s.idx()].src, succ_of_m[0]);
    }

    #[test]
    fn json_encodes_initial_tokens_phases_and_back_arcs() {
        let (mut g, ..) = tiny();
        let id = g.add_node(Opcode::Id, "fb");
        let a = g.connect_init(g.node_ids().next().unwrap(), id, 0, Value::Int(7));
        g.arcs[a.idx()].phase = -3;
        g.arcs[a.idx()].back = true;
        let j = valpipe_util::Json::parse(&g.to_json()).unwrap();
        let nodes = j.get("nodes").and_then(|n| n.as_arr()).unwrap();
        let arcs = j.get("arcs").and_then(|n| n.as_arr()).unwrap();
        assert_eq!((nodes.len(), arcs.len()), (g.node_count(), g.arc_count()));
        let arc = &arcs[a.idx()];
        assert_eq!(arc.get("initial").unwrap().to_compact(), r#"{"Int":7}"#);
        assert_eq!(arc.get("phase").and_then(|p| p.as_i64()), Some(-3));
        assert_eq!(arc.get("back").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(
            nodes[id.idx()].get("op").and_then(|o| o.as_str()),
            Some("Id")
        );
    }

    #[test]
    fn fingerprint_ignores_labels_but_sees_structure() {
        let (g, ..) = tiny();
        let fp = g.fingerprint();
        assert_eq!(fp, tiny().0.fingerprint(), "fingerprint is deterministic");

        let mut relabeled = g.clone();
        relabeled.nodes[2].label = "renamed".into();
        assert_eq!(relabeled.fingerprint(), fp, "labels are cosmetic");

        let mut retyped = g.clone();
        retyped.nodes[2].op = Opcode::Bin(BinOp::Add);
        assert_ne!(retyped.fingerprint(), fp, "opcode change must be seen");

        let mut reseeded = g.clone();
        reseeded.arcs[0].initial = Some(Value::Int(1));
        assert_ne!(reseeded.fingerprint(), fp, "initial token must be seen");

        let mut grown = g.clone();
        let id = grown.add_node(Opcode::Id, "extra");
        let _ = id;
        assert_ne!(grown.fingerprint(), fp, "extra cell must be seen");
    }

    #[test]
    fn literal_operands() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[a.into(), 2.0.into()]);
        assert!(matches!(
            g.nodes[add.idx()].inputs[1],
            PortBinding::Lit(Value::Real(_))
        ));
        assert_eq!(g.in_arcs(add).count(), 1);
    }
}
