//! Control-generator synthesis — Todd's construction as machine code.
//!
//! The paper cites Todd \[15\] for the boolean control sequences: they "can
//! be generated by straightforward arrangements of data flow
//! instructions". The compiler normally emits primitive generator cells
//! (`CtlGen` / `IdxGen`); this pass lowers every one of them into a
//! circuit of ordinary cells, so the final program contains nothing but
//! arithmetic, gates, merges and identities:
//!
//! * the **index counter** is a 4-cell loop `tap → ADD(+2) → MOD(n) → ID →
//!   tap` holding two tokens (seeded `0` and `1`): each circulating token
//!   advances by 2, so the interleaved output is `0,1,2,…,n-1,0,…` at the
//!   **maximum rate** — the same companion-function trick (Theorem 3) the
//!   compiler applies to user recurrences, applied to the counter
//!   recurrence `y_i = y_{i-2} + 2 (mod n)`;
//! * a boolean pattern over the wave becomes comparisons against the
//!   pattern's run boundaries, OR-combined in a balanced tree.
//!
//! After synthesis the graph is re-balanced (the comparison trees add
//! acyclic depth), so `synthesize_generators` runs before global
//! balancing when enabled via [`crate::CompileOptions`]-level driver code.

use valpipe_ir::ctl::CtlStream;
use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::{BinOp, Value};
use valpipe_ir::{Graph, In, NodeId};

/// Statistics from one synthesis pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// `IdxGen` cells lowered.
    pub index_generators: usize,
    /// `CtlGen` cells lowered.
    pub ctl_generators: usize,
    /// Ordinary cells created.
    pub cells_added: usize,
}

/// Build a maximum-rate modulo-`n` counter emitting `0,1,…,n-1,0,…`.
/// Returns the cell whose output carries the sequence.
fn build_counter(g: &mut Graph, n: u32, label: &str) -> NodeId {
    assert!(n >= 1);
    if n == 1 {
        // Constant stream of 0: a two-cell ring circulating one token.
        let tap = g.add_node(Opcode::Id, format!("{label}.c0"));
        let back = g.add_node(Opcode::Id, format!("{label}.c0b"));
        g.connect(tap, back, 0);
        g.connect_init(back, tap, 0, Value::Int(0));
        return tap;
    }
    // tap → ADD(+2) → MOD(n) → ID → tap, seeded with 0 (entering the tap)
    // and 1 (entering the MOD; mod(1) = 1 for n ≥ 2).
    let tap = g.add_node(Opcode::Id, format!("{label}.tap"));
    let add = g.add_node(Opcode::Bin(BinOp::Add), format!("{label}.add2"));
    g.connect(tap, add, 0);
    g.set_lit(add, 1, Value::Int(2));
    let modc = g.add_node(Opcode::Bin(BinOp::Mod), format!("{label}.mod"));
    g.connect_init(add, modc, 0, Value::Int(1));
    g.set_lit(modc, 1, Value::Int(n as i64));
    let id = g.add_node(Opcode::Id, format!("{label}.id"));
    g.connect(modc, id, 0);
    g.connect_init(id, tap, 0, Value::Int(0));
    tap
}

/// Balanced OR-reduction; odd leftovers are padded with identity cells so
/// every path keeps equal depth.
fn or_tree(g: &mut Graph, mut layer: Vec<NodeId>, label: &str) -> NodeId {
    let mut level = 0;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (k, pair) in layer.chunks(2).enumerate() {
            let node = match pair {
                [a, b] => g.cell(
                    Opcode::Bin(BinOp::Or),
                    format!("{label}.or{level}_{k}"),
                    &[(*a).into(), (*b).into()],
                ),
                [a] => g.cell(
                    Opcode::Id,
                    format!("{label}.pad{level}_{k}"),
                    &[(*a).into()],
                ),
                _ => unreachable!(),
            };
            next.push(node);
        }
        layer = next;
        level += 1;
    }
    layer[0]
}

/// Derive a boolean pattern from a counter stream: for each `true` run
/// `[a, b)` of the pattern, `(y ≥ a) AND (y < b)`, OR-combined.
fn build_pattern_logic(g: &mut Graph, counter: NodeId, stream: &CtlStream, label: &str) -> NodeId {
    // Collect true-run windows.
    let mut windows = Vec::new();
    let mut pos = 0u32;
    for run in stream.runs() {
        if run.value {
            windows.push((pos, pos + run.count));
        }
        pos += run.count;
    }
    if windows.is_empty() {
        // All-false stream: y < 0 (never true) — a single comparison.
        return g.cell(
            Opcode::Bin(BinOp::Lt),
            format!("{label}.false"),
            &[counter.into(), In::Lit(Value::Int(0))],
        );
    }
    let mut leaves = Vec::with_capacity(windows.len());
    for (k, (a, b)) in windows.into_iter().enumerate() {
        // Uniform depth 2 per window (GE/LT then AND), so the OR tree
        // stays balanced without extra buffering.
        let ge = g.cell(
            Opcode::Bin(BinOp::Ge),
            format!("{label}.ge{k}"),
            &[counter.into(), In::Lit(Value::Int(a as i64))],
        );
        let lt = g.cell(
            Opcode::Bin(BinOp::Lt),
            format!("{label}.lt{k}"),
            &[counter.into(), In::Lit(Value::Int(b as i64))],
        );
        let and = g.cell(
            Opcode::Bin(BinOp::And),
            format!("{label}.and{k}"),
            &[ge.into(), lt.into()],
        );
        leaves.push(and);
    }
    or_tree(g, leaves, label)
}

/// Lower every `CtlGen` / `IdxGen` into ordinary-cell circuits. The
/// original generator node becomes the circuit's consumer-facing cell
/// (keeping all existing wiring). Run before global balancing.
#[allow(clippy::field_reassign_with_default)]
pub fn synthesize_generators(g: &mut Graph) -> SynthStats {
    let mut stats = SynthStats::default();
    let before = g.node_count();
    for i in 0..before {
        let node_id = NodeId(i as u32);
        // Circuit cells replacing a generator inherit its provenance.
        g.set_provenance(g.nodes[i].src);
        match g.nodes[i].op.clone() {
            Opcode::IdxGen { lo, hi } => {
                let n = (hi - lo + 1) as u32;
                let label = format!("synth.idx{i}");
                let counter = build_counter(g, n, &label);
                // The original node becomes `counter + lo`, keeping its
                // consumer wiring and label untouched.
                g.nodes[node_id.idx()].op = Opcode::Bin(BinOp::Add);
                g.nodes[node_id.idx()].inputs = vec![valpipe_ir::PortBinding::Unbound; 2];
                g.connect(counter, node_id, 0);
                g.set_lit(node_id, 1, Value::Int(lo));
                stats.index_generators += 1;
            }
            Opcode::CtlGen(stream) => {
                let n = stream.wave_len();
                let label = format!("synth.ctl{i}");
                let counter = build_counter(g, n, &label);
                let logic = build_pattern_logic(g, counter, &stream, &label);
                stats.ctl_generators += 1;
                g.nodes[node_id.idx()].op = Opcode::Id;
                g.nodes[node_id.idx()].inputs = vec![valpipe_ir::PortBinding::Unbound];
                g.connect(logic, node_id, 0);
            }
            _ => {}
        }
    }
    g.set_provenance(0);
    stats.cells_added = g.node_count() - before;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use valpipe_machine::{SimConfig, Simulator};

    fn run_to_sink(g: &Graph, steps: u64) -> valpipe_machine::RunResult {
        Simulator::builder(g)
            .config(SimConfig::new().max_steps(steps))
            .run()
            .unwrap()
    }

    #[test]
    fn counter_emits_modulo_sequence_at_full_rate() {
        for n in [1u32, 2, 5, 8] {
            let mut g = Graph::new();
            let c = build_counter(&mut g, n, "t");
            let _ = g.cell(Opcode::Sink("y".into()), "y", &[c.into()]);
            let r = run_to_sink(&g, 400);
            let vals: Vec<i64> = r.values("y").iter().map(|v| v.as_int().unwrap()).collect();
            assert!(vals.len() > 3 * n as usize, "n={n}");
            for (k, &v) in vals.iter().enumerate() {
                assert_eq!(v, (k as i64) % n as i64, "n={n} position {k}");
            }
            let iv = r.timing("y").interval().unwrap();
            assert!((iv - 2.0).abs() < 0.05, "n={n} counter interval {iv}");
        }
    }

    #[test]
    fn synthesized_ctlgen_matches_pattern() {
        let patterns = [
            CtlStream::window(6, 1, 4),
            CtlStream::all_but_first(5),
            CtlStream::all_but_last_k(7, 2),
            CtlStream::from_runs([(true, 1), (false, 2), (true, 3), (false, 1)]),
            CtlStream::constant(true, 4),
        ];
        for stream in patterns {
            let mut g = Graph::new();
            let gen = g.add_node(Opcode::CtlGen(stream.clone()), "ctl");
            let _ = g.cell(Opcode::Sink("y".into()), "y", &[gen.into()]);
            let stats = synthesize_generators(&mut g);
            assert_eq!(stats.ctl_generators, 1);
            assert!(g.nodes.iter().all(|n| !matches!(n.op, Opcode::CtlGen(_))));
            let r = run_to_sink(&g, 500);
            let got: Vec<bool> = r.values("y").iter().map(|v| v.as_bool().unwrap()).collect();
            let want = stream.take(got.len());
            assert_eq!(got, want, "pattern {stream}");
        }
    }

    #[test]
    fn synthesized_idxgen_matches_sequence() {
        let mut g = Graph::new();
        let gen = g.add_node(Opcode::IdxGen { lo: -2, hi: 4 }, "idx");
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[gen.into()]);
        let stats = synthesize_generators(&mut g);
        assert_eq!(stats.index_generators, 1);
        let r = run_to_sink(&g, 400);
        let got: Vec<i64> = r.values("y").iter().map(|v| v.as_int().unwrap()).collect();
        for (k, &v) in got.iter().enumerate() {
            assert_eq!(v, -2 + (k as i64 % 7), "position {k}");
        }
    }
}
