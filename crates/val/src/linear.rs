//! Linear-recurrence analysis and companion-function derivation (§7).
//!
//! The paper's key device for fully pipelining a `for-iter` is the
//! **companion function**: if `F(a, F(b, x)) = F(G(a,b), x)` for all
//! parameter vectors, then `x_i = F(a_i, x_{i-1})` can be rewritten
//! `x_i = F(G(a_i, a_{i-1}), x_{i-2})`, stretching the dependence distance
//! so the feedback cycle holds two tokens and runs at the maximum rate.
//!
//! For first-order **linear** recurrences — `x_i = α_i·x_{i-1} + β_i`, the
//! paper's Example 2 and equation (2) — the companion is
//!
//! ```text
//! G((a1,a2), (b1,b2)) = (a1·b1, a1·b2 + a2)
//! ```
//!
//! which is associative, enabling `log2(p)`-level companion trees for
//! dependence distance `p`.
//!
//! This module extracts `(α, β)` from a recurrence body by structural
//! linearity analysis: sums/differences combine componentwise, products
//! and quotients require an accumulator-free factor, and conditionals with
//! accumulator-free conditions distribute into both coefficients.

use crate::ast::{BinOp, Expr, UnOp};
use crate::fold::simplify;

/// A recurrence body in normal form `α·X[i-1] + β` with accumulator-free
/// coefficient expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearForm {
    /// Coefficient of `X[i-1]` (a PE on `i`).
    pub alpha: Expr,
    /// Additive term (a PE on `i`).
    pub beta: Expr,
}

/// Extract the linear form of `expr` with respect to accumulator `acc`
/// (accessed as `acc[i-1]`). `None` if the body is not linear in the
/// accumulator — i.e. no companion function is derived. Inline lets first
/// (see [`crate::fold::inline_lets`]).
pub fn extract_linear(expr: &Expr, acc: &str) -> Option<LinearForm> {
    let raw = go(expr, acc)?;
    Some(LinearForm {
        alpha: simplify(&raw.alpha),
        beta: simplify(&raw.beta),
    })
}

fn go(e: &Expr, acc: &str) -> Option<LinearForm> {
    if !e.mentions(acc) {
        return Some(LinearForm {
            alpha: Expr::IntLit(0),
            beta: e.clone(),
        });
    }
    match e {
        Expr::Index(name, _) if name == acc => Some(LinearForm {
            alpha: Expr::IntLit(1),
            beta: Expr::IntLit(0),
        }),
        Expr::Bin(BinOp::Add, a, b) => {
            let (fa, fb) = (go(a, acc)?, go(b, acc)?);
            Some(LinearForm {
                alpha: Expr::bin(BinOp::Add, fa.alpha, fb.alpha),
                beta: Expr::bin(BinOp::Add, fa.beta, fb.beta),
            })
        }
        Expr::Bin(BinOp::Sub, a, b) => {
            let (fa, fb) = (go(a, acc)?, go(b, acc)?);
            Some(LinearForm {
                alpha: Expr::bin(BinOp::Sub, fa.alpha, fb.alpha),
                beta: Expr::bin(BinOp::Sub, fa.beta, fb.beta),
            })
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            if !a.mentions(acc) {
                let f = go(b, acc)?;
                Some(LinearForm {
                    alpha: Expr::bin(BinOp::Mul, (**a).clone(), f.alpha),
                    beta: Expr::bin(BinOp::Mul, (**a).clone(), f.beta),
                })
            } else if !b.mentions(acc) {
                let f = go(a, acc)?;
                Some(LinearForm {
                    alpha: Expr::bin(BinOp::Mul, f.alpha, (**b).clone()),
                    beta: Expr::bin(BinOp::Mul, f.beta, (**b).clone()),
                })
            } else {
                None // x · x — nonlinear
            }
        }
        Expr::Bin(BinOp::Div, a, b) if !b.mentions(acc) => {
            let f = go(a, acc)?;
            Some(LinearForm {
                alpha: Expr::bin(BinOp::Div, f.alpha, (**b).clone()),
                beta: Expr::bin(BinOp::Div, f.beta, (**b).clone()),
            })
        }
        Expr::Un(UnOp::Neg, a) => {
            let f = go(a, acc)?;
            Some(LinearForm {
                alpha: Expr::un(UnOp::Neg, f.alpha),
                beta: Expr::un(UnOp::Neg, f.beta),
            })
        }
        Expr::If(c, t, f) if !c.mentions(acc) => {
            let (ft, ff) = (go(t, acc)?, go(f, acc)?);
            Some(LinearForm {
                alpha: Expr::if_((**c).clone(), ft.alpha, ff.alpha),
                beta: Expr::if_((**c).clone(), ft.beta, ff.beta),
            })
        }
        Expr::Let(..) => go(&crate::fold::inline_lets(e), acc),
        _ => None,
    }
}

/// The companion function for the linear recurrence, on concrete parameter
/// vectors: `G((a1,a2),(b1,b2)) = (a1·b1, a1·b2 + a2)`.
///
/// `F(a, x) = a.0 * x + a.1`; the defining identity `F(a, F(b, x)) =
/// F(G(a,b), x)` and associativity of `G` are verified by the tests below.
pub fn companion_g(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 * b.0, a.0 * b.1 + a.1)
}

/// The recurrence step `F(a, x) = a.0·x + a.1`.
pub fn recurrence_f(a: (f64, f64), x: f64) -> f64 {
    a.0 * x + a.1
}

/// Combine `p` consecutive parameter vectors with a balanced `G`-tree of
/// depth `⌈log2 p⌉` — the paper's companion-tree observation. `params[0]`
/// is the *oldest* vector: the result `c` satisfies
/// `x = F(c, x_prev)` where applying `F` with `params[0]` first, then
/// `params[1]`, …, yields the same value.
pub fn companion_tree(params: &[(f64, f64)]) -> (f64, f64) {
    match params {
        [] => (1.0, 0.0), // identity of G
        [a] => *a,
        _ => {
            let mid = params.len() / 2;
            // Newer half composes over the older half: G(newer, older).
            companion_g(
                companion_tree(&params[mid..]),
                companion_tree(&params[..mid]),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::inline_lets;
    use crate::parser::parse_expr;

    fn lin(src: &str) -> Option<LinearForm> {
        extract_linear(&inline_lets(&parse_expr(src).unwrap()), "T")
    }

    #[test]
    fn example2_body_is_linear() {
        let f = lin("A[i]*T[i-1] + B[i]").unwrap();
        assert_eq!(f.alpha, parse_expr("A[i]").unwrap());
        assert_eq!(f.beta, parse_expr("B[i]").unwrap());
    }

    #[test]
    fn pure_sum_detected() {
        let f = lin("T[i-1] + B[i]").unwrap();
        assert_eq!(f.alpha, Expr::IntLit(1));
        assert_eq!(f.beta, parse_expr("B[i]").unwrap());
    }

    #[test]
    fn subtraction_and_negation() {
        let f = lin("B[i] - T[i-1]").unwrap();
        assert_eq!(f.alpha, Expr::IntLit(-1));
        let f = lin("-(T[i-1]) * 2.").unwrap();
        assert_eq!(f.alpha, Expr::RealLit(-2.0)); // constant-folded -1 · 2.
    }

    #[test]
    fn division_by_free_factor() {
        let f = lin("(T[i-1] + B[i]) / 2.").unwrap();
        assert_eq!(f.alpha, Expr::RealLit(0.5)); // constant-folded 1 / 2.
        assert_eq!(f.beta, parse_expr("B[i] / 2.").unwrap());
    }

    #[test]
    fn conditional_with_free_condition_is_linear() {
        let f = lin("if i < m then 2.*T[i-1] else T[i-1] + B[i] endif").unwrap();
        assert_eq!(
            f.alpha,
            parse_expr("if i < m then 2. else 1 endif").unwrap()
        );
    }

    #[test]
    fn nonlinear_rejected() {
        assert!(lin("T[i-1] * T[i-1]").is_none());
        assert!(lin("B[i] / T[i-1]").is_none());
        assert!(lin("if T[i-1] > 0. then 1. else 2. endif").is_none());
    }

    #[test]
    fn lets_inlined_before_analysis() {
        let f = lin("let P := A[i]*T[i-1] in P + B[i] endlet").unwrap();
        assert_eq!(f.alpha, parse_expr("A[i]").unwrap());
    }

    #[test]
    fn companion_identity_holds() {
        // F(a, F(b, x)) = F(G(a,b), x) over a grid of values.
        for &a in &[(2.0, 1.0), (0.5, -3.0), (-1.5, 0.0)] {
            for &b in &[(1.0, 1.0), (3.0, -2.0), (0.0, 4.0)] {
                for &x in &[0.0, 1.0, -7.5, 100.0] {
                    let lhs = recurrence_f(a, recurrence_f(b, x));
                    let rhs = recurrence_f(companion_g(a, b), x);
                    assert!((lhs - rhs).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn companion_is_associative() {
        let (a, b, c) = ((2.0, 1.0), (0.5, -3.0), (-1.5, 0.25));
        let l = companion_g(companion_g(a, b), c);
        let r = companion_g(a, companion_g(b, c));
        assert!((l.0 - r.0).abs() < 1e-12 && (l.1 - r.1).abs() < 1e-12);
    }

    #[test]
    fn companion_tree_matches_sequential_fold() {
        let params: Vec<(f64, f64)> = (0..8).map(|k| (0.9 + 0.01 * k as f64, k as f64)).collect();
        let x0 = 2.5;
        // Sequential: apply F with params[0], then params[1], …
        let mut x = x0;
        for &p in &params {
            x = recurrence_f(p, x);
        }
        let c = companion_tree(&params);
        assert!((recurrence_f(c, x0) - x).abs() < 1e-9);
    }
}
