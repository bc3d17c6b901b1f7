//! The §9 delay-for-rate tradeoff.
//!
//! > "a recurrence having a cyclic dependence of four operators may be
//! > implemented at the maximum rate by introducing a delay (via a FIFO
//! > buffer) of length equal to the number of elements in the array being
//! > generated."
//!
//! The canonical instance is a *time-stepping* loop: each element of the
//! next state depends on the same element of the previous state,
//! `x_i^{t+1} = f(x_i^t)`. The whole array circulates through the operator
//! cycle and a delay line of length `n` (the array size), so the cycle
//! holds `n` tokens — enough to keep every operator busy. Under the
//! one-token-per-arc acknowledge discipline a ring of `L` cells holding
//! `m` tokens runs at `min(m, L−m)/L` (tokens need holes to advance into —
//! the classic 50%-occupancy optimum of self-timed rings), so the maximum
//! rate 1/2 is reached when the delay line is sized to make the cycle
//! exactly `2n` cells. The cost is buffer cells and one full array of
//! latency per time step — delay traded for rate, as §9 says.

use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::{BinOp, Value};
use valpipe_ir::Graph;

/// Build the time-stepping loop `x ← a·x + b` (elementwise) over an array
/// preloaded with `initial`. The operator cycle is `MULT → ADD →
/// {extra_ops × ID} → delay-line(delay_stages)`; the `ADD` output also
/// streams to the sink `"x"`, one array per time step, forever.
/// `delay_stages` must be at least the array length; making the whole
/// cycle `2n` cells long yields the maximum rate.
pub fn build_timestep_loop(
    initial: &[Value],
    a: f64,
    b: f64,
    extra_ops: usize,
    delay_stages: usize,
) -> Graph {
    assert!(!initial.is_empty());
    assert!(
        delay_stages >= initial.len(),
        "delay line must hold the whole array"
    );
    let mut g = Graph::new();
    let mul = g.add_node(Opcode::Bin(BinOp::Mul), "f.mul");
    g.set_lit(mul, 1, Value::Real(a));
    let add = g.add_node(Opcode::Bin(BinOp::Add), "f.add");
    g.connect(mul, add, 0);
    g.set_lit(add, 1, Value::Real(b));
    let mut tail = add;
    for k in 0..extra_ops {
        tail = g.cell(Opcode::Id, format!("f.pad{k}"), &[tail.into()]);
    }
    // Delay line of `delay_stages` identity cells; the initial array sits
    // on the arcs nearest the loop's operators (element 0 exits first),
    // the remaining arcs start empty (the holes tokens advance into).
    let n = initial.len();
    let mut prev = tail;
    for k in (0..delay_stages).rev() {
        let stage = g.add_node(Opcode::Id, format!("delay{k}"));
        if k < n {
            g.connect_init(prev, stage, 0, initial[k]);
        } else {
            g.connect(prev, stage, 0);
        }
        prev = stage;
    }
    g.connect(prev, mul, 0);
    let _ = g.cell(Opcode::Sink("x".into()), "x.out", &[add.into()]);
    g
}

/// Oracle: the first `steps` states after the initial one.
pub fn reference_timestep(initial: &[f64], a: f64, b: f64, steps: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(steps);
    let mut x: Vec<f64> = initial.to_vec();
    for _ in 0..steps {
        for v in &mut x {
            *v = a * *v + b;
        }
        out.push(x.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use valpipe_machine::{SimConfig, Simulator};

    fn run_loop(
        n: usize,
        extra_ops: usize,
        delay: usize,
        max_steps: u64,
    ) -> valpipe_machine::RunResult {
        let initial: Vec<Value> = (0..n).map(|i| Value::Real(i as f64)).collect();
        let g = build_timestep_loop(&initial, 0.5, 1.0, extra_ops, delay);
        Simulator::builder(&g)
            .config(SimConfig::new().max_steps(max_steps))
            .run()
            .unwrap()
    }

    #[test]
    fn values_match_reference() {
        let n = 6;
        let r = run_loop(n, 2, n, 600);
        let got: Vec<f64> = r.reals("x");
        let want = reference_timestep(
            &(0..n).map(|i| i as f64).collect::<Vec<_>>(),
            0.5,
            1.0,
            got.len() / n + 1,
        );
        for (k, &v) in got.iter().enumerate() {
            let (t, i) = (k / n, k % n);
            assert!(
                (v - want[t][i]).abs() < 1e-12,
                "step {t} elem {i}: {v} vs {}",
                want[t][i]
            );
        }
    }

    #[test]
    fn long_array_reaches_maximum_rate() {
        // Cycle sized to 2n: 2 ops + 2 pads + 24 delay stages = 28 cells,
        // 14 tokens = half occupancy ⇒ the maximum rate 1/2.
        let r = run_loop(14, 2, 24, 4000);
        let iv = r.timing("x").interval().unwrap();
        assert!((iv - 2.0).abs() < 0.05, "interval {iv} ≉ 2");
    }

    #[test]
    fn single_element_limited_by_cycle_length() {
        // n = 1: one token in a cycle of 2 + 2 + 1 = 5 cells → interval 5.
        let r = run_loop(1, 2, 1, 4000);
        let iv = r.timing("x").interval().unwrap();
        assert!((iv - 5.0).abs() < 0.1, "interval {iv} ≉ 5");
    }

    #[test]
    fn odd_cycle_cannot_reach_maximum_rate() {
        // §7 cites [10]: a loop needs an EVEN number of stages for maximum
        // pipelining. Two tokens in a 5-cell ring peak at 2/5, not 1/2.
        let r = run_loop(2, 1, 2, 4000); // 2 ops + 1 pad + 2 delay = 5 cells
        let iv = r.timing("x").interval().unwrap();
        assert!((iv - 2.5).abs() < 0.1, "odd 5-cycle interval {iv} ≉ 5/2");
        // One more stage (even, 6 cells, 2 tokens → 2/6) is WORSE; the
        // right fix is 4 cells (2 ops + 2 delay).
        let r = run_loop(2, 0, 2, 4000);
        let iv = r.timing("x").interval().unwrap();
        assert!((iv - 2.0).abs() < 0.1, "even 4-cycle interval {iv} ≉ 2");
    }

    #[test]
    fn rate_is_tokens_over_cycle_below_saturation() {
        // n = 3 tokens, cycle = 2 + 6 + 3 = 11 cells → per-element interval
        // 11/3 (tokens below half occupancy: rate = m/L).
        let r = run_loop(3, 6, 3, 6000);
        let iv = r.timing("x").interval().unwrap();
        assert!((iv - 11.0 / 3.0).abs() < 0.2, "interval {iv} ≉ 11/3");
    }
}
