//! Pipelined mapping of primitive `for-iter` constructs (paper §7).
//!
//! Two schemes:
//!
//! * **Todd's scheme** (Fig. 7): the recurrence body feeds back through a
//!   MERGE that injects the initial element once per wave and an output
//!   gate that drops the last element from the feedback path. The cycle
//!   holds a single circulating value, so the initiation rate is limited
//!   to `1 / cycle-length` — the paper's 1/3 bound (1/4 here, because this
//!   implementation realizes the output switch as a separate gated
//!   identity cell rather than a conditional destination field).
//!
//! * **Companion scheme** (Fig. 8, Theorem 3): for bodies linear in
//!   `X[i-1]`, the derived companion function `G` builds a *companion
//!   pipeline* computing `c_i = G(a_i, a_{i-1})`, the recurrence becomes
//!   `x_i = F(c_i, x_{i-2})`, and the (even-length) cycle holds **two**
//!   values — restoring the maximum rate of 1/2. The two initial elements
//!   `x_r` and `x_p` come from a separate initial-value subgraph, exactly
//!   the dashed box of Fig. 8.

use crate::builder::{BlockBuilder, BlockProv, Compiler, Provider};
use crate::error::CompileError;
use crate::options::ForIterScheme;
use valpipe_ir::opcode::{Opcode, GATE_DATA, MERGE_CTL, MERGE_FALSE, MERGE_TRUE};
use valpipe_ir::value::{BinOp, Value};
use valpipe_ir::{CtlStream, In, NodeId};
use valpipe_val::ast::Expr;
use valpipe_val::classify::PrimitiveForIter;
use valpipe_val::fold::{eval_static, simplify};
use valpipe_val::linear::extract_linear;

/// Which scheme actually got used for a block (reported in compile stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsedScheme {
    /// Todd's feedback scheme.
    Todd,
    /// Companion-pipeline scheme.
    Companion,
    /// Degenerate loops (no self-reference, or too short for a loop).
    Straight,
}

/// Compile a primitive for-iter; returns the cell producing the array
/// stream and the scheme used. The loop body's provenance id stamps every
/// circuit cell (the feedback cycle realizes the body as a whole).
pub fn compile_foriter(
    c: &mut Compiler,
    name: &str,
    pfi: &PrimitiveForIter,
    scheme: ForIterScheme,
    src: &BlockProv,
) -> Result<(NodeId, UsedScheme), CompileError> {
    c.g.set_provenance(if src.body != 0 { src.body } else { src.header });
    let (r, hi) = pfi.range();
    let n = (hi - r + 1) as u32; // total elements including the initial one
    debug_assert!(n >= 2, "classifier guarantees bound > start");

    let init = eval_static(&pfi.init_expr, &c.params).ok_or_else(|| {
        CompileError::Unsupported(format!(
            "block '{name}': initial element is not a manifest scalar"
        ))
    })?;

    let step = simplify(&pfi.step_inlined());
    let uses_feedback = step.mentions(&pfi.acc);

    // A loop that never reads its own past elements is a forall in
    // disguise: initial element merged with an unconditional step stream.
    if !uses_feedback {
        let node = compile_straight(c, name, pfi, &step, init, n)?;
        c.provide(name, Provider { node, lo: r, hi });
        return Ok((node, UsedScheme::Straight));
    }

    let linear = extract_linear(&step, &pfi.acc);
    let use_companion = match scheme {
        ForIterScheme::Todd => false,
        ForIterScheme::Companion => {
            if linear.is_none() {
                return Err(CompileError::Unsupported(format!(
                    "block '{name}': companion scheme requested but the recurrence is not linear in {}[i-1]",
                    pfi.acc
                )));
            }
            true
        }
        ForIterScheme::Auto => linear.is_some() && n >= 3,
    };

    let (node, used) = if use_companion {
        let lf = linear.expect("checked above");
        (
            compile_companion(c, name, pfi, &lf.alpha, &lf.beta, init, n)?,
            UsedScheme::Companion,
        )
    } else {
        (
            compile_todd(c, name, pfi, &step, init, n)?,
            UsedScheme::Todd,
        )
    };
    c.provide(name, Provider { node, lo: r, hi });
    Ok((node, used))
}

/// Degenerate case: the body never reads `X[i-1]`.
fn compile_straight(
    c: &mut Compiler,
    name: &str,
    pfi: &PrimitiveForIter,
    step: &Expr,
    init: Value,
    n: u32,
) -> Result<NodeId, CompileError> {
    let mut b = BlockBuilder::new(c, name, &pfi.index_var, pfi.start, pfi.bound - 1);
    let s = b.compile(step)?;
    let s = b.materialize(s);
    let ctl = c.ctlgen(CtlStream::all_but_first(n), &format!("{name}.mctl"));
    let l = c.label(&format!("{name}.merge"));
    let m = c.g.add_node(Opcode::Merge, l);
    c.g.connect(ctl, m, MERGE_CTL);
    c.g.connect(s, m, MERGE_TRUE);
    c.g.set_lit(m, MERGE_FALSE, init);
    Ok(m)
}

/// Todd's scheme (Fig. 7).
fn compile_todd(
    c: &mut Compiler,
    name: &str,
    pfi: &PrimitiveForIter,
    step: &Expr,
    init: Value,
    n: u32,
) -> Result<NodeId, CompileError> {
    // Feedback gate: drops the last element of each wave of X, so only
    // x_{r} … x_{bound-2} re-enter as x_{i-1}.
    let fb_ctl = c.ctlgen(CtlStream::all_but_last(n), &format!("{name}.fbctl"));
    let fb_label = c.label(&format!("{name}.xprev"));
    let gate = c.g.add_node(Opcode::TGate, fb_label);
    c.g.connect(fb_ctl, gate, 0);

    // Step subgraph over i = start … bound-1, reading X[i-1] from the gate.
    let mut b = BlockBuilder::new(c, name, &pfi.index_var, pfi.start, pfi.bound - 1);
    b.set_special_tap(&pfi.acc, -1, gate);
    let s = b.compile(step)?;
    let s = b.materialize(s);

    // Output merge: initial element first, then the step results.
    let ctl = c.ctlgen(CtlStream::all_but_first(n), &format!("{name}.mctl"));
    let l = c.label(&format!("{name}.merge"));
    let m = c.g.add_node(Opcode::Merge, l);
    c.g.connect(ctl, m, MERGE_CTL);
    c.g.connect(s, m, MERGE_TRUE);
    c.g.set_lit(m, MERGE_FALSE, init);

    // Close the cycle; liveness comes from the merge's literal operand.
    c.g.connect_back(m, gate, GATE_DATA);
    Ok(m)
}

/// Reference either a registered coefficient stream or a literal, as an
/// expression the block builder can compile.
fn coeff_expr(v: In, provider: &str, offset: i64, index_var: &str) -> Expr {
    match v {
        In::Lit(Value::Int(x)) => Expr::IntLit(x),
        In::Lit(Value::Real(x)) => Expr::RealLit(x),
        In::Lit(Value::Bool(x)) => Expr::BoolLit(x),
        In::Node(_) => {
            let idx = if offset == 0 {
                Expr::var(index_var)
            } else {
                Expr::bin(
                    if offset > 0 { BinOp::Add } else { BinOp::Sub },
                    Expr::var(index_var),
                    Expr::IntLit(offset.abs()),
                )
            };
            Expr::Index(provider.to_string(), Box::new(idx))
        }
    }
}

/// Companion scheme (Fig. 8).
fn compile_companion(
    c: &mut Compiler,
    name: &str,
    pfi: &PrimitiveForIter,
    alpha: &Expr,
    beta: &Expr,
    init: Value,
    n: u32,
) -> Result<NodeId, CompileError> {
    let iv = pfi.index_var.clone();
    let (lo_param, hi_param) = (pfi.start, pfi.bound - 1); // α/β domain

    // Coefficient streams α_i, β_i over i = start … bound-1.
    let a_name = format!("__{name}.alpha");
    let b_name = format!("__{name}.beta");
    let a_in = {
        let mut b = BlockBuilder::new(c, a_name.clone(), &iv, lo_param, hi_param);
        b.compile(alpha)?
    };
    if let In::Node(node) = a_in {
        c.provide(
            a_name.clone(),
            Provider {
                node,
                lo: lo_param,
                hi: hi_param,
            },
        );
    }
    let b_in = {
        let mut b = BlockBuilder::new(c, b_name.clone(), &iv, lo_param, hi_param);
        b.compile(beta)?
    };
    if let In::Node(node) = b_in {
        c.provide(
            b_name.clone(),
            Provider {
                node,
                lo: lo_param,
                hi: hi_param,
            },
        );
    }

    // Initial values: x_r = E0, x_p = α_p·x_r + β_p  (the dashed
    // "code for initial values" box of Fig. 8).
    let x_r = init;
    let x_start_expr = simplify(&Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Mul, coeff_expr(a_in, &a_name, 0, &iv), lit_expr(x_r)),
        coeff_expr(b_in, &b_name, 0, &iv),
    ));
    let x_start = {
        let mut b = BlockBuilder::new(c, format!("{name}.init"), &iv, pfi.start, pfi.start);
        b.compile(&x_start_expr)?
    };
    let init_stream: In = if n == 2 {
        // No loop at all: the array is exactly [x_r, x_p].
        let m = merge2(c, name, In::Lit(x_r), x_start)?;
        return Ok(m);
    } else {
        let m = merge2(c, name, In::Lit(x_r), x_start)?;
        In::Node(m)
    };

    // Companion pipeline: c1 = α_i·α_{i-1}, c2 = α_i·β_{i-1} + β_i over
    // i = start+1 … bound-1.
    let (c1, c2) = {
        let mut b = BlockBuilder::new(c, format!("{name}.comp"), &iv, pfi.start + 1, pfi.bound - 1);
        let c1e = simplify(&Expr::bin(
            BinOp::Mul,
            coeff_expr(a_in, &a_name, 0, &iv),
            coeff_expr(a_in, &a_name, -1, &iv),
        ));
        let c2e = simplify(&Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Mul,
                coeff_expr(a_in, &a_name, 0, &iv),
                coeff_expr(b_in, &b_name, -1, &iv),
            ),
            coeff_expr(b_in, &b_name, 0, &iv),
        ));
        let c1 = b.compile(&c1e)?;
        let c2 = b.compile(&c2e)?;
        (c1, c2)
    };

    // The loop: xprev --MULT(c1)--> ADD(c2) --> MERGE --> gate --> xprev.
    // Four cells (even length), two circulating values → rate 1/2.
    let fb_ctl = c.ctlgen(CtlStream::all_but_last_k(n, 2), &format!("{name}.fbctl"));
    let gl = c.label(&format!("{name}.xprev2"));
    let gate = c.g.add_node(Opcode::TGate, gl);
    c.g.connect(fb_ctl, gate, 0);

    let ml = c.label(&format!("{name}.fmul"));
    let mul = c.g.add_node(Opcode::Bin(BinOp::Mul), ml);
    c.g.bind(c1, mul, 0);
    c.g.connect(gate, mul, 1);
    let al = c.label(&format!("{name}.fadd"));
    let add = c.g.add_node(Opcode::Bin(BinOp::Add), al);
    c.g.connect(mul, add, 0);
    c.g.bind(c2, add, 1);

    let ctl = c.ctlgen(CtlStream::all_but_first_k(n, 2), &format!("{name}.mctl"));
    let l = c.label(&format!("{name}.merge"));
    let m = c.g.add_node(Opcode::Merge, l);
    c.g.connect(ctl, m, MERGE_CTL);
    c.g.connect(add, m, MERGE_TRUE);
    c.g.bind(init_stream, m, MERGE_FALSE);

    c.g.connect_back(m, gate, GATE_DATA);
    Ok(m)
}

fn lit_expr(v: Value) -> Expr {
    match v {
        Value::Int(x) => Expr::IntLit(x),
        Value::Real(x) => Expr::RealLit(x),
        Value::Bool(x) => Expr::BoolLit(x),
    }
}

/// Two-element-per-wave merge `[first, second]` (control `<T F>`).
fn merge2(c: &mut Compiler, name: &str, first: In, second: In) -> Result<NodeId, CompileError> {
    let ctl = c.ctlgen(
        CtlStream::from_runs([(true, 1), (false, 1)]),
        &format!("{name}.ictl"),
    );
    let l = c.label(&format!("{name}.imerge"));
    let m = c.g.add_node(Opcode::Merge, l);
    c.g.connect(ctl, m, MERGE_CTL);
    c.g.bind(first, m, MERGE_TRUE);
    c.g.bind(second, m, MERGE_FALSE);
    Ok(m)
}
