//! JSON encoding of machine-level programs: the output of
//! `valpipe compile --json`, for external tools. Nothing in the
//! repository reads it back.
//!
//! The encoding is externally tagged: unit enum variants are bare strings
//! (`"Id"`), payload-carrying variants are single-member objects
//! (`{"Bin": "Add"}`, `{"Lit": {"Int": 5}}`).

use crate::graph::{Edge, Graph, Node, PortBinding};
use crate::opcode::Opcode;
use crate::value::Value;
use valpipe_util::Json;

fn tag(name: &'static str, payload: Json) -> Json {
    Json::obj([(name, payload)])
}

pub(crate) fn graph_to_json(g: &Graph) -> Json {
    Json::obj([
        (
            "nodes",
            Json::Arr(g.nodes.iter().map(node_to_json).collect()),
        ),
        ("arcs", Json::Arr(g.arcs.iter().map(edge_to_json).collect())),
    ])
}

fn node_to_json(n: &Node) -> Json {
    Json::obj([
        ("op", opcode_to_json(&n.op)),
        ("label", Json::Str(n.label.clone())),
        (
            "inputs",
            Json::Arr(n.inputs.iter().map(binding_to_json).collect()),
        ),
        (
            "outputs",
            Json::Arr(n.outputs.iter().map(|a| Json::Int(a.0 as i64)).collect()),
        ),
    ])
}

fn edge_to_json(e: &Edge) -> Json {
    Json::obj([
        ("src", Json::Int(e.src.0 as i64)),
        ("dst", Json::Int(e.dst.0 as i64)),
        ("dst_port", Json::Int(e.dst_port as i64)),
        (
            "initial",
            e.initial.as_ref().map_or(Json::Null, value_to_json),
        ),
        ("back", Json::Bool(e.back)),
        ("phase", Json::Int(e.phase as i64)),
    ])
}

fn binding_to_json(b: &PortBinding) -> Json {
    match b {
        PortBinding::Unbound => Json::Str("Unbound".into()),
        PortBinding::Wired(a) => tag("Wired", Json::Int(a.0 as i64)),
        PortBinding::Lit(v) => tag("Lit", value_to_json(v)),
    }
}

fn value_to_json(v: &Value) -> Json {
    match *v {
        Value::Int(i) => tag("Int", Json::Int(i)),
        Value::Real(r) => tag("Real", Json::Float(r)),
        Value::Bool(b) => tag("Bool", Json::Bool(b)),
    }
}

fn opcode_to_json(op: &Opcode) -> Json {
    match op {
        Opcode::Bin(b) => tag("Bin", Json::Str(format!("{b:?}"))),
        Opcode::Un(u) => tag("Un", Json::Str(format!("{u:?}"))),
        Opcode::Id => Json::Str("Id".into()),
        Opcode::TGate => Json::Str("TGate".into()),
        Opcode::FGate => Json::Str("FGate".into()),
        Opcode::Merge => Json::Str("Merge".into()),
        Opcode::Fifo(d) => tag("Fifo", Json::Int(*d as i64)),
        Opcode::CtlGen(s) => tag(
            "CtlGen",
            Json::obj([(
                "pattern",
                Json::Arr(
                    s.runs()
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("value", Json::Bool(r.value)),
                                ("count", Json::Int(r.count as i64)),
                            ])
                        })
                        .collect(),
                ),
            )]),
        ),
        Opcode::IdxGen { lo, hi } => tag(
            "IdxGen",
            Json::obj([("lo", Json::Int(*lo)), ("hi", Json::Int(*hi))]),
        ),
        Opcode::Source(name) => tag("Source", Json::Str(name.clone())),
        Opcode::Sink(name) => tag("Sink", Json::Str(name.clone())),
        Opcode::AmWrite => Json::Str("AmWrite".into()),
        Opcode::AmRead => Json::Str("AmRead".into()),
    }
}
