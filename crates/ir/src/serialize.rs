//! JSON encoding of machine-level programs (the on-disk machine-code
//! format).
//!
//! The encoding is externally tagged: unit enum variants are bare strings
//! (`"Id"`), payload-carrying variants are single-member objects
//! (`{"Bin": "Add"}`, `{"Lit": {"Int": 5}}`). This matches the format the
//! repository has always written, so previously saved programs still load.

use crate::ctl::CtlStream;
use crate::graph::{ArcId, Edge, Graph, Node, NodeId, PortBinding};
use crate::opcode::Opcode;
use crate::value::{BinOp, UnOp, Value};
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

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn want<'a>(j: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    j.get(key)
        .ok_or_else(|| format!("{what}: missing field '{key}'"))
}

fn as_int(j: &Json, what: &str) -> Result<i64, String> {
    j.as_i64()
        .ok_or_else(|| format!("{what}: expected an integer, got {j}"))
}

fn as_str<'a>(j: &'a Json, what: &str) -> Result<&'a str, String> {
    j.as_str()
        .ok_or_else(|| format!("{what}: expected a string, got {j}"))
}

fn as_arr<'a>(j: &'a Json, what: &str) -> Result<&'a [Json], String> {
    j.as_arr()
        .ok_or_else(|| format!("{what}: expected an array"))
}

/// A tagged enum value: either a bare string (unit variant) or an object
/// with exactly one member (variant with payload).
fn variant<'a>(j: &'a Json, what: &str) -> Result<(&'a str, Option<&'a Json>), String> {
    match j {
        Json::Str(s) => Ok((s, None)),
        Json::Obj(members) if members.len() == 1 => {
            Ok((members[0].0.as_str(), Some(&members[0].1)))
        }
        _ => Err(format!("{what}: expected an enum variant, got {j}")),
    }
}

fn payload<'a>(p: Option<&'a Json>, name: &str, what: &str) -> Result<&'a Json, String> {
    p.ok_or_else(|| format!("{what}: variant '{name}' requires a payload"))
}

pub(crate) fn graph_from_json(j: &Json) -> Result<Graph, String> {
    let nodes = as_arr(want(j, "nodes", "graph")?, "graph.nodes")?
        .iter()
        .map(node_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let arcs = as_arr(want(j, "arcs", "graph")?, "graph.arcs")?
        .iter()
        .map(edge_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Graph {
        nodes,
        arcs,
        cur_src: 0,
    })
}

fn node_from_json(j: &Json) -> Result<Node, String> {
    Ok(Node {
        op: opcode_from_json(want(j, "op", "node")?)?,
        label: as_str(want(j, "label", "node")?, "node.label")?.to_string(),
        inputs: as_arr(want(j, "inputs", "node")?, "node.inputs")?
            .iter()
            .map(binding_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        outputs: as_arr(want(j, "outputs", "node")?, "node.outputs")?
            .iter()
            .map(|a| Ok(ArcId(as_int(a, "node.outputs")? as u32)))
            .collect::<Result<Vec<_>, String>>()?,
        // Provenance is a compiler-side table, not machine code; loaded
        // programs map to the whole-program fallback entry.
        src: 0,
    })
}

fn edge_from_json(j: &Json) -> Result<Edge, String> {
    let initial = match want(j, "initial", "arc")? {
        Json::Null => None,
        v => Some(value_from_json(v)?),
    };
    Ok(Edge {
        src: NodeId(as_int(want(j, "src", "arc")?, "arc.src")? as u32),
        dst: NodeId(as_int(want(j, "dst", "arc")?, "arc.dst")? as u32),
        dst_port: as_int(want(j, "dst_port", "arc")?, "arc.dst_port")? as usize,
        initial,
        back: want(j, "back", "arc")?
            .as_bool()
            .ok_or("arc.back: expected a boolean")?,
        phase: as_int(want(j, "phase", "arc")?, "arc.phase")? as i32,
    })
}

fn binding_from_json(j: &Json) -> Result<PortBinding, String> {
    let (name, p) = variant(j, "port binding")?;
    match name {
        "Unbound" => Ok(PortBinding::Unbound),
        "Wired" => Ok(PortBinding::Wired(ArcId(
            as_int(payload(p, name, "port binding")?, "Wired")? as u32,
        ))),
        "Lit" => Ok(PortBinding::Lit(value_from_json(payload(
            p,
            name,
            "port binding",
        )?)?)),
        other => Err(format!("port binding: unknown variant '{other}'")),
    }
}

fn value_from_json(j: &Json) -> Result<Value, String> {
    let (name, p) = variant(j, "value")?;
    let p = payload(p, name, "value")?;
    match name {
        "Int" => Ok(Value::Int(as_int(p, "Int")?)),
        "Real" => Ok(Value::Real(p.as_f64().ok_or("Real: expected a number")?)),
        "Bool" => Ok(Value::Bool(p.as_bool().ok_or("Bool: expected a boolean")?)),
        other => Err(format!("value: unknown variant '{other}'")),
    }
}

fn bin_op_from_str(s: &str) -> Result<BinOp, String> {
    use BinOp::*;
    Ok(match s {
        "Add" => Add,
        "Sub" => Sub,
        "Mul" => Mul,
        "Div" => Div,
        "Mod" => Mod,
        "Min" => Min,
        "Max" => Max,
        "Lt" => Lt,
        "Le" => Le,
        "Gt" => Gt,
        "Ge" => Ge,
        "Eq" => Eq,
        "Ne" => Ne,
        "And" => And,
        "Or" => Or,
        other => return Err(format!("unknown binary operator '{other}'")),
    })
}

fn un_op_from_str(s: &str) -> Result<UnOp, String> {
    Ok(match s {
        "Neg" => UnOp::Neg,
        "Not" => UnOp::Not,
        "Abs" => UnOp::Abs,
        other => return Err(format!("unknown unary operator '{other}'")),
    })
}

fn opcode_from_json(j: &Json) -> Result<Opcode, String> {
    let (name, p) = variant(j, "opcode")?;
    match name {
        "Id" => Ok(Opcode::Id),
        "TGate" => Ok(Opcode::TGate),
        "FGate" => Ok(Opcode::FGate),
        "Merge" => Ok(Opcode::Merge),
        "AmWrite" => Ok(Opcode::AmWrite),
        "AmRead" => Ok(Opcode::AmRead),
        "Bin" => Ok(Opcode::Bin(bin_op_from_str(as_str(
            payload(p, name, "opcode")?,
            "Bin",
        )?)?)),
        "Un" => Ok(Opcode::Un(un_op_from_str(as_str(
            payload(p, name, "opcode")?,
            "Un",
        )?)?)),
        "Fifo" => Ok(Opcode::Fifo(
            as_int(payload(p, name, "opcode")?, "Fifo")? as u32
        )),
        "CtlGen" => {
            let p = payload(p, name, "opcode")?;
            let runs = as_arr(want(p, "pattern", "CtlGen")?, "CtlGen.pattern")?
                .iter()
                .map(|r| {
                    let value = want(r, "value", "run")?
                        .as_bool()
                        .ok_or("run.value: expected a boolean")?;
                    let count = as_int(want(r, "count", "run")?, "run.count")? as u32;
                    Ok::<_, String>((value, count))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Opcode::CtlGen(CtlStream::from_runs(runs)))
        }
        "IdxGen" => {
            let p = payload(p, name, "opcode")?;
            Ok(Opcode::IdxGen {
                lo: as_int(want(p, "lo", "IdxGen")?, "IdxGen.lo")?,
                hi: as_int(want(p, "hi", "IdxGen")?, "IdxGen.hi")?,
            })
        }
        "Source" => Ok(Opcode::Source(
            as_str(payload(p, name, "opcode")?, "Source")?.to_string(),
        )),
        "Sink" => Ok(Opcode::Sink(
            as_str(payload(p, name, "opcode")?, "Sink")?.to_string(),
        )),
        other => Err(format!("opcode: unknown variant '{other}'")),
    }
}
