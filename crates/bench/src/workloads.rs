//! Workload generators: the paper's figures as parameterized Val sources,
//! the synthetic application-shaped programs used for the scaling and
//! traffic claims, and the random flow-dependency DAGs the balancing
//! experiment and bench solve.

use std::collections::HashMap;
use valpipe_ir::value::BinOp;
use valpipe_ir::{Graph, Opcode};
use valpipe_util::Rng;
use valpipe_val::interp::ArrayVal;

/// Fig. 2's scalar pipeline wrapped as a (degenerate, window-free) forall:
/// `y = a·b; (y+2)(y−3)` elementwise.
pub fn fig2_src(m: usize) -> String {
    format!(
        "param m = {m};
input A : array[real] [0, m];
input B : array[real] [0, m];
Y : array[real] :=
  forall i in [0, m]
    y : real := A[i] * B[i];
  construct (y + 2.) * (y - 3.)
  endall;
output Y;"
    )
}

/// Fig. 4's array-selection expression standing alone.
pub fn fig4_src(m: usize) -> String {
    format!(
        "param m = {m};
input C : array[real] [0, m+1];
S : array[real] :=
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall;
output S;"
    )
}

/// Fig. 5's conditional expression (data-dependent condition).
pub fn fig5_src(m: usize) -> String {
    format!(
        "param m = {m};
input A : array[real] [0, m];
input B : array[real] [0, m];
input C : array[real] [0, m];
Y : array[real] :=
  forall i in [0, m]
  construct
    if C[i] > 0. then -(A[i] + B[i]) else 5.*(A[i]*B[i] + 2.) endif
  endall;
output Y;"
    )
}

/// The paper's Example 1 (Fig. 6) as a standalone program.
pub fn fig6_src(m: usize) -> String {
    format!(
        "param m = {m};
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real :=
      if (i = 0)|(i = m+1) then C[i]
      else 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
      endif;
  construct B[i]*(P*P)
  endall;
output A;"
    )
}

/// The paper's Example 2 (Figs. 7–8) as a standalone program.
pub fn example2_src(m: usize) -> String {
    format!(
        "param m = {m};
input A : array[real] [0, m+1];
input B : array[real] [0, m+1];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := A[i]*T[i-1] + B[i]
    in
      if i < m then iter T := T[i: P]; i := i + 1 enditer else T endif
    endlet
  endfor;
output X;"
    )
}

/// The paper's Fig. 3 program (Example 1 feeding Example 2).
pub fn fig3_src(m: usize) -> String {
    valpipe_val::parser::FIG3_PROGRAM.replace("param m = 32;", &format!("param m = {m};"))
}

/// A chain of `blocks` stencil blocks — the "several hundred blocks" shape
/// of §4. Each block smooths its predecessor over a shrinking range.
pub fn chain_src(m: usize, blocks: usize) -> String {
    assert!(blocks >= 1);
    assert!(m > 2 * blocks + 2, "range must stay non-empty");
    let mut s = format!("param m = {m};\ninput S0 : array[real] [0, m+1];\n");
    for k in 1..=blocks {
        s.push_str(&format!(
            "S{k} : array[real] := forall i in [{k}, m+1-{k}] construct 0.5 * (S{}[i-1] + S{}[i+1]) endall;\n",
            k - 1,
            k - 1
        ));
    }
    s.push_str(&format!("output S{blocks};\n"));
    s
}

/// The application-shaped physics step used for the §2 traffic claim.
pub fn physics_src(m: usize) -> String {
    format!(
        "param m = {m};
input U : array[real] [0, m+1];
input K : array[real] [0, m+1];
F : array[real] :=
  forall i in [1, m] construct K[i] * (U[i+1] - U[i-1]) * 0.5 endall;
G : array[real] :=
  forall i in [1, m]
  construct
    if F[i] > 1. then 1. else if F[i] < -1. then -1. else F[i] endif endif
  endall;
V : array[real] :=
  forall i in [0, m+1]
  construct
    if (i = 0)|(i = m+1) then U[i] else U[i] + 0.1 * G[i] endif
  endall;
D : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    if i < m then iter T := T[i: 0.5*T[i-1] + V[i]]; i := i + 1 enditer else T endif
  endfor;
output V, D;"
    )
}

/// Random layered DAG: `width` cells per layer, `layers` layers, each cell
/// reading 1–2 uniformly random earlier cells.
pub fn random_dag(width: usize, layers: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed(seed);
    let mut g = Graph::new();
    let mut pool: Vec<valpipe_ir::NodeId> = (0..width)
        .map(|k| g.add_node(Opcode::Source(format!("s{k}")), format!("s{k}")))
        .collect();
    for li in 0..layers {
        let mut next = Vec::new();
        for ni in 0..width {
            let a = pool[rng.below(pool.len())];
            let b = pool[rng.below(pool.len())];
            let node = if a == b || rng.chance(0.3) {
                g.cell(Opcode::Id, format!("n{li}_{ni}"), &[a.into()])
            } else {
                g.cell(
                    Opcode::Bin(BinOp::Add),
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

/// Deterministic pseudo-random input arrays for the named ranges.
pub fn inputs_for(names_ranges: &[(&str, i64, i64)]) -> HashMap<String, ArrayVal> {
    let mut h = HashMap::new();
    for (k, &(name, lo, hi)) in names_ranges.iter().enumerate() {
        let seed = (k as f64 + 1.0) * 0.37;
        let vals: Vec<f64> = (lo..=hi)
            .map(|i| 0.5 + 0.5 * ((i as f64) * seed + seed).sin())
            .collect();
        h.insert(name.to_string(), ArrayVal::from_reals(lo, &vals));
    }
    h
}

/// Inputs matching a compiled program's declared input ranges.
pub fn inputs_for_compiled(c: &valpipe_core::Compiled) -> HashMap<String, ArrayVal> {
    let spec: Vec<(&str, i64, i64)> = c
        .flow
        .inputs
        .iter()
        .map(|(n, (lo, hi))| (n.as_str(), *lo, *hi))
        .collect();
    inputs_for(&spec)
}
