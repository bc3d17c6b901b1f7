//! The machine's executable form (`MachineCode`) reproduces the graph it
//! was built from: every cell's operand ports and destination arcs, and
//! every arc's producer and consumer, over every compilable corpus
//! program and the compiled 100-block chain.

use std::path::Path;

use valpipe::ir::Graph;
use valpipe::machine::MachineCode;
use valpipe::{compile_source, CompileOptions};
use valpipe_fuzz::Repro;

fn assert_tables_match(g: &Graph, ctx: &str) {
    let code = MachineCode::new(g);
    assert_eq!(code.cell_count(), g.node_count(), "{ctx}: cell count");
    assert_eq!(code.arc_count(), g.arc_count(), "{ctx}: arc count");
    for n in g.node_ids() {
        let node = &g.nodes[n.idx()];
        assert_eq!(
            code.inputs(n),
            node.inputs,
            "{ctx}: ports of cell {}",
            n.idx()
        );
        assert_eq!(
            code.outputs(n),
            node.outputs,
            "{ctx}: destinations of cell {}",
            n.idx()
        );
    }
    for (i, e) in g.arcs.iter().enumerate() {
        let a = valpipe::ir::ArcId(i as u32);
        assert_eq!(code.arc_ends(a), (e.src, e.dst), "{ctx}: ends of arc {i}");
    }
}

#[test]
fn tables_reproduce_every_corpus_program() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"));
    let mut compiled = 0;
    for entry in std::fs::read_dir(dir).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "val") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable");
        let repro = Repro::parse(&text).expect("well-formed repro");
        // Rejected programs (the corpus records some) have no graph.
        let Ok(c) = compile_source(&repro.src, &CompileOptions::paper()) else {
            continue;
        };
        let ctx = path.display().to_string();
        assert_tables_match(&c.graph, &ctx);
        assert_tables_match(&c.executable(), &ctx);
        compiled += 1;
    }
    assert!(compiled > 0, "no corpus program compiled");
}

#[test]
fn tables_reproduce_the_hundred_block_chain() {
    let src = valpipe_bench::workloads::chain_src(216, 100);
    let c = compile_source(&src, &CompileOptions::paper()).expect("chain compiles");
    let exe = c.executable();
    assert_eq!(exe.node_count(), 1002, "the chain_cold machine");
    assert_tables_match(&exe, "chain_src(216, 100)");
}
