//! Helpers shared by the machine property suites (`property_kernels`,
//! `property_snapshot`, `property_fastforward`).

use valpipe::ir::{BinOp, Graph, Opcode};
use valpipe_util::Rng;

/// Random layered DAG over two sources, ADD/MUL/ID cells, one sink per
/// terminal node.
pub fn build_dag(r: &mut Rng) -> Graph {
    let mut g = Graph::new();
    let mut pool = vec![
        g.add_node(Opcode::Source("s0".into()), "s0"),
        g.add_node(Opcode::Source("s1".into()), "s1"),
    ];
    for li in 0..r.range(1, 4) {
        let mut next = Vec::new();
        for ni in 0..r.range(1, 4) {
            let a = pool[r.below(pool.len())];
            let b = pool[r.below(pool.len())];
            let node = if a == b {
                g.cell(Opcode::Id, format!("n{li}_{ni}"), &[a.into()])
            } else {
                let op = if r.flip() { BinOp::Mul } else { BinOp::Add };
                g.cell(
                    Opcode::Bin(op),
                    format!("n{li}_{ni}"),
                    &[a.into(), b.into()],
                )
            };
            next.push(node);
        }
        pool.extend(next);
    }
    for id in g.node_ids().collect::<Vec<_>>() {
        if g.nodes[id.idx()].op.produces_output() && g.nodes[id.idx()].outputs.is_empty() {
            let name = format!("out{}", id.idx());
            let s = g.add_node(Opcode::Sink(name.clone()), name);
            g.connect(id, s, 0);
        }
    }
    g
}
