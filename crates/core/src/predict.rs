//! Static throughput prediction.
//!
//! The paper argues rates analytically: a balanced acyclic pipeline runs
//! at 1/2, a feedback cycle of `L` cells holding `k` values at `k/L`, and
//! window gating scales output rate by the selected fraction. This module
//! computes those bounds from the *compiled graph alone* — no simulation —
//! so the simulator and the theory check each other:
//!
//! * the machine bound comes from the **marked-graph cycle ratio**: every
//!   arc contributes a forward place holding its tokens and a reverse
//!   "hole" place holding `capacity − tokens`; steady throughput of cell
//!   firings is `min over directed cycles of tokens(C) / |C|`. The plain
//!   two-place round trip of any single arc yields the global 1/2 cap, and
//!   feedback loops yield their `k/L` (Todd's bound, the companion loop's
//!   1/2, the §9 ring law) — one uniform theorem;
//! * merge-initialized loops (no physical initial token) carry *virtual*
//!   tokens equal to the leading-false run of the MERGE's control pattern
//!   — the number of elements injected per wave before feedback is
//!   consumed, i.e. the dependence distance;
//! * the **input-pacing bound**: a source emits at best one element per 2
//!   instruction times, so an output of `W_out` elements per wave fed from
//!   an input of `W_in` cannot beat `2·W_in / W_out`.
//!
//! [`predict_interval`] returns the max of the two bounds; the test suite
//! and `valpipe-exp predict` verify it against measured intervals across
//! the whole workload zoo.

use std::collections::HashMap;
use valpipe_balance::problem::sccs;
use valpipe_ir::opcode::{Opcode, MERGE_CTL};
use valpipe_ir::{Graph, PortBinding};

/// Tokens resting on an arc for cycle analysis: physical initial tokens,
/// plus the virtual tokens a MERGE injects on its declared back-edge.
fn arc_tokens(g: &Graph, arc: valpipe_ir::ArcId) -> u64 {
    let e = &g.arcs[arc.idx()];
    let mut t = u64::from(e.initial.is_some());
    if e.back && e.initial.is_none() {
        // Virtual tokens: the leading run of `false` in the feeding
        // merge's control pattern = elements taken from the initializer
        // before the feedback is first consumed.
        if let Opcode::Merge = g.nodes[e.src.idx()].op {
            if let PortBinding::Wired(ctl_arc) = g.nodes[e.src.idx()].inputs[MERGE_CTL] {
                if let Opcode::CtlGen(s) = &g.nodes[g.arcs[ctl_arc.idx()].src.idx()].op {
                    let runs = s.runs();
                    if !runs.is_empty() && !runs[0].value {
                        t += runs[0].count as u64;
                    }
                }
            }
        }
    }
    t
}

/// Minimum cycle ratio `tokens(C)/|C|` over all directed cycles of the
/// token/hole place graph, computed by parametric search with
/// Bellman–Ford negative-cycle detection. `arc_capacity` is the link
/// buffering (1 on the base machine). Returns the machine-wide throughput
/// bound on cell firings (≤ 1/2 when capacities are 1).
pub fn min_cycle_ratio(g: &Graph, arc_capacity: u64) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.5;
    }
    // Restrict to arcs inside feedback SCCs: gates and merges fire at
    // data-dependent rates, so mixed cycles through acyclic gated regions
    // are artifacts of the uniform-rate marked-graph assumption. Within a
    // loop every cell fires once per element, where the model is exact.
    // The per-arc forward+hole round trip (capacity/2) is always real and
    // caps the rate at 1/2 on the base machine.
    let scc = sccs(g);
    let mut comp_size = vec![0usize; n];
    for i in 0..n {
        comp_size[scc[i]] += 1;
    }
    let mut edges = Vec::with_capacity(g.arc_count() * 2);
    for a in g.arc_ids() {
        let e = &g.arcs[a.idx()];
        if scc[e.src.idx()] != scc[e.dst.idx()] || comp_size[scc[e.src.idx()]] < 2 {
            continue;
        }
        let t = arc_tokens(g, a);
        edges.push((e.src.idx(), e.dst.idx(), t));
        edges.push((e.dst.idx(), e.src.idx(), arc_capacity.saturating_sub(t)));
    }
    if edges.is_empty() {
        return (arc_capacity as f64 / 2.0).min(1.0);
    }
    // A cycle with ratio λ exists iff Bellman–Ford finds a negative cycle
    // under weights tokens − λ. Binary search λ in (0, 1].
    let has_cycle_below = |lambda: f64| -> bool {
        let mut dist = vec![0.0f64; n];
        for _ in 0..n {
            let mut changed = false;
            for &(u, v, t) in &edges {
                let w = t as f64 - lambda;
                if dist[u] + w < dist[v] - 1e-12 {
                    dist[v] = dist[u] + w;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
        }
        true
    };
    // A cell fires at most once per instruction time regardless of
    // buffering, and a token+acknowledge round trip costs 2 over the
    // arc's slots: rate ≤ min(1, cap/2).
    let cap_bound = (arc_capacity as f64 / 2.0).min(1.0);
    let (mut lo, mut hi) = (0.0f64, 4.0f64);
    for _ in 0..48 {
        let mid = (lo + hi) / 2.0;
        if has_cycle_below(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi.min(cap_bound)
}

/// Predicted steady-state initiation interval (instruction times per
/// packet) of each sink, from graph structure alone.
///
/// `wave_lens` gives the packets-per-wave of every source and sink port
/// (the compiler knows these from the array ranges).
pub fn predict_interval(
    g: &Graph,
    wave_lens: &HashMap<String, u64>,
    arc_capacity: u64,
) -> HashMap<String, f64> {
    let machine_interval = 1.0 / min_cycle_ratio(g, arc_capacity);
    // Input pacing: a source needs at least `src_interval` per packet
    // (its own fire/ack round trip), and a full input wave of W_in
    // packets must stream in per output wave of W_out — an independent
    // lower bound on the wave period. Elements a window gate discards
    // still cost source time, which is exactly what this term charges.
    let src_interval = 1.0 / (arc_capacity as f64 / 2.0).min(1.0);
    let max_in_wave = g
        .sources()
        .iter()
        .filter_map(|(_, name)| wave_lens.get(name))
        .copied()
        .max()
        .unwrap_or(0);
    let mut out = HashMap::new();
    for (_, name) in g.sinks() {
        let Some(&w_out) = wave_lens.get(&name) else {
            continue;
        };
        let pacing = if max_in_wave > 0 && w_out > 0 {
            src_interval * max_in_wave as f64 / w_out as f64
        } else {
            0.0
        };
        out.insert(name, machine_interval.max(pacing));
    }
    out
}

/// Convenience: predicted intervals for a compiled program's outputs.
pub fn predict_compiled(c: &crate::Compiled) -> HashMap<String, f64> {
    let mut wave_lens = HashMap::new();
    for (name, (lo, hi)) in &c.flow.inputs {
        wave_lens.insert(name.clone(), (hi - lo + 1) as u64);
    }
    for b in &c.flow.blocks {
        wave_lens.insert(b.name.clone(), (b.range.1 - b.range.0 + 1) as u64);
    }
    let mut g = c.executable();
    // Drain sinks for kept-dead streams have no wave length; they don't
    // appear in outputs and are ignored by predict_interval.
    let _ = &mut g;
    predict_interval(&g, &wave_lens, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{CompileOptions, ForIterScheme};
    use crate::program::compile_source;
    use crate::verify::check_against_oracle;
    use std::collections::HashMap as Map;
    use valpipe_val::interp::ArrayVal;

    fn measure(src: &str, opts: &CompileOptions, out: &str) -> (f64, f64) {
        let compiled = compile_source(src, opts).unwrap();
        let mut inputs = Map::new();
        for (name, (lo, hi)) in &compiled.flow.inputs {
            let vals: Vec<f64> = (*lo..=*hi)
                .map(|i| 0.8 + 0.1 * (i as f64 * 0.37).sin())
                .collect();
            inputs.insert(name.clone(), ArrayVal::from_reals(*lo, &vals));
        }
        let report = check_against_oracle(&compiled, &inputs, 30, 1e-8).unwrap();
        let measured = report.run.timing(out).interval().unwrap();
        let predicted = predict_compiled(&compiled)[out];
        (predicted, measured)
    }

    #[test]
    fn plain_chain_predicts_one_half() {
        let src = "
param m = 20;
input B : array[real] [0, m];
Y : array[real] := forall i in [0, m] construct B[i] * 2. + 1. endall;
output Y;
";
        let (p, m) = measure(src, &CompileOptions::paper(), "Y");
        assert!((p - 2.0).abs() < 1e-6, "predicted {p}");
        assert!((p - m).abs() / m < 0.03, "predicted {p}, measured {m}");
    }

    #[test]
    fn window_pacing_predicted() {
        let src = "
param m = 16;
input C : array[real] [0, m+1];
S : array[real] := forall i in [1, m] construct 0.25*(C[i-1] + 2.*C[i] + C[i+1]) endall;
output S;
";
        let (p, m) = measure(src, &CompileOptions::paper(), "S");
        assert!((p - 2.25).abs() < 1e-6, "predicted {p}");
        assert!((p - m).abs() / m < 0.03, "predicted {p}, measured {m}");
    }

    #[test]
    fn todd_cycle_predicted() {
        let src = "
param m = 24;
input A : array[real] [0, m+1];
input B : array[real] [0, m+1];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    if i < m then iter T := T[i: A[i]*T[i-1] + B[i]]; i := i + 1 enditer else T endif
  endfor;
output X;
";
        let mut opts = CompileOptions::paper();
        opts.scheme = ForIterScheme::Todd;
        let (p, m) = measure(src, &opts, "X");
        assert!((p - 4.0).abs() < 0.1, "Todd predicted {p}");
        assert!((p - m).abs() / m < 0.05, "predicted {p}, measured {m}");

        // Companion: virtual tokens 2 → cycle ratio 2/4 → pacing dominates.
        let mut opts = CompileOptions::paper();
        opts.scheme = ForIterScheme::Companion;
        let (p, m) = measure(src, &opts, "X");
        let expected = 2.0 * 26.0 / 24.0;
        assert!((p - expected).abs() < 0.05, "companion predicted {p}");
        assert!((p - m).abs() / m < 0.05, "predicted {p}, measured {m}");
    }

    #[test]
    fn min_cycle_ratio_of_ring() {
        // Hand-built 5-ring with 2 tokens → ratio 2/5.
        use valpipe_ir::value::Value;
        use valpipe_ir::{Graph, Opcode};
        let mut g = Graph::new();
        let cells: Vec<_> = (0..5)
            .map(|k| g.add_node(Opcode::Id, format!("c{k}")))
            .collect();
        for k in 0..5 {
            let (a, b) = (cells[k], cells[(k + 1) % 5]);
            if k < 2 {
                g.connect_init(a, b, 0, Value::Int(0));
            } else {
                g.connect(a, b, 0);
            }
        }
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[cells[0].into()]);
        let r = min_cycle_ratio(&g, 1);
        assert!((r - 0.4).abs() < 1e-6, "ratio {r} ≉ 2/5");
    }

    #[test]
    fn capacity_relaxes_the_bound() {
        // The same acyclic chain under capacity 4: the hole cycles hold 4
        // tokens over 2 transitions → bound 1 (interval 1), matching the
        // detailed-machine measurements in `valpipe-exp machine`.
        use valpipe_ir::{Graph, Opcode};
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let b = g.cell(Opcode::Id, "b", &[a.into()]);
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[b.into()]);
        assert!((min_cycle_ratio(&g, 1) - 0.5).abs() < 1e-6);
        assert!((min_cycle_ratio(&g, 4) - 1.0).abs() < 1e-6);
    }
}
