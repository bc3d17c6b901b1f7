//! Multi-dimensional arrays (§9): *"The extension of this work to array
//! values of multiple dimension is straightforward."*
//!
//! A two-dimensional array over `[a,b] × [c,d]` is represented exactly as
//! the paper treats every array — a sequence of result packets — in
//! row-major order. This pass lowers 2-D programs to the 1-D core:
//!
//! * a 2-D `forall i in [a,b], j in [c,d]` becomes a 1-D forall over the
//!   flattened index `k ∈ [0, N·W−1]` (`N` rows, `W` columns), with
//!   `i ↦ a + k/W` and `j ↦ c + k mod W` substituted into value positions
//!   (both are primitive expressions in `k`, so boundary conditions like
//!   `(j = c) | (j = d)` stay statically analyzable);
//! * an access `A[i+di][j+dj]` becomes the 1-D window tap
//!   `A[k + ((a−a_A+di)·W + (c−c_A+dj))]` — a *constant* offset, so all of
//!   the paper's gating/skew machinery (Fig. 4) applies unchanged. This
//!   requires the consumer's column range to have the same width as the
//!   producer's (row-major strides must agree); other shapes are rejected
//!   with a clear error.
//!
//! Flattening runs before type checking; the rest of the stack never sees
//! a 2-D construct.

use crate::ast::*;
use crate::classify::index_offset;
use crate::fold::{eval_manifest_int, Bindings};
use std::collections::HashMap;
use std::sync::Arc;
use valpipe_ir::value::Value;

/// Manifest 2-D shape of an array (both ranges inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim2 {
    /// Row range `[a, b]`.
    pub rows: (i64, i64),
    /// Column range `[c, d]`.
    pub cols: (i64, i64),
}

impl Dim2 {
    /// Number of columns (the row-major stride).
    pub fn width(&self) -> i64 {
        self.cols.1 - self.cols.0 + 1
    }

    /// Number of rows.
    pub fn height(&self) -> i64 {
        self.rows.1 - self.rows.0 + 1
    }

    /// Total flattened length.
    pub fn len(&self) -> i64 {
        self.width() * self.height()
    }

    /// Shapes are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Shapes of the program's 2-D arrays, for reshaping flattened results.
#[derive(Debug, Clone, Default)]
pub struct FlattenInfo {
    /// Array name → original shape.
    pub shapes: HashMap<String, Dim2>,
}

fn fail<T>(msg: impl Into<String>) -> Result<T, String> {
    Err(msg.into())
}

struct Ctx<'a> {
    params: &'a Bindings,
    shapes: &'a HashMap<String, Dim2>,
    /// (i, j, k) names plus the iteration origin and width.
    frame: Option<Frame2>,
}

#[derive(Clone)]
struct Frame2 {
    i: String,
    j: String,
    k: String,
    a: i64,
    c: i64,
    w: i64,
}

fn rewrite(e: &Expr, ctx: &Ctx) -> Result<Expr, String> {
    match e {
        Expr::Index2(name, e1, e2) => {
            let Some(shape) = ctx.shapes.get(name) else {
                return fail(format!("'{name}' accessed as two-dimensional but is not"));
            };
            let Some(f) = &ctx.frame else {
                return fail(format!(
                    "two-dimensional access to '{name}' outside a two-dimensional forall"
                ));
            };
            let Some(d1) = index_offset(e1, &f.i, ctx.params) else {
                return fail(format!(
                    "row subscript of '{name}' is not of the form {} + constant",
                    f.i
                ));
            };
            let Some(d2) = index_offset(e2, &f.j, ctx.params) else {
                return fail(format!(
                    "column subscript of '{name}' is not of the form {} + constant",
                    f.j
                ));
            };
            if shape.width() != f.w {
                return fail(format!(
                    "'{name}' has {} columns but the forall iterates over {} — row-major \
                     strides must agree for pipelined access",
                    shape.width(),
                    f.w
                ));
            }
            let offset = (f.a - shape.rows.0 + d1) * f.w + (f.c - shape.cols.0 + d2);
            let idx = match offset.cmp(&0) {
                std::cmp::Ordering::Equal => Expr::var(&f.k),
                std::cmp::Ordering::Greater => {
                    Expr::bin(BinOp::Add, Expr::var(&f.k), Expr::IntLit(offset))
                }
                std::cmp::Ordering::Less => {
                    Expr::bin(BinOp::Sub, Expr::var(&f.k), Expr::IntLit(-offset))
                }
            };
            Ok(Expr::Index(name.clone(), Box::new(idx)))
        }
        Expr::Index(name, idx) => {
            // A single subscript on a two-dimensional array reads its
            // flattened row-major stream directly (a deliberate view:
            // downstream 1-D blocks consume 2-D results element by
            // element, exactly as the machine streams them).
            if let Some(f) = &ctx.frame {
                if idx.mentions(&f.i) || idx.mentions(&f.j) {
                    return fail(format!(
                        "one-dimensional array '{name}' cannot be indexed by the \
                         two-dimensional loop variables (stride would not be constant)"
                    ));
                }
            }
            Ok(Expr::Index(name.clone(), Box::new(rewrite(idx, ctx)?)))
        }
        Expr::Var(n) => {
            if let Some(f) = &ctx.frame {
                // i ↦ a + k/W, j ↦ c + k mod W.
                if n == &f.i {
                    return Ok(Expr::bin(
                        BinOp::Add,
                        Expr::IntLit(f.a),
                        Expr::bin(BinOp::Div, Expr::var(&f.k), Expr::IntLit(f.w)),
                    ));
                }
                if n == &f.j {
                    return Ok(Expr::bin(
                        BinOp::Add,
                        Expr::IntLit(f.c),
                        Expr::bin(BinOp::Mod, Expr::var(&f.k), Expr::IntLit(f.w)),
                    ));
                }
            }
            Ok(e.clone())
        }
        Expr::Bin(op, a, b) => Ok(Expr::bin(*op, rewrite(a, ctx)?, rewrite(b, ctx)?)),
        Expr::Un(op, a) => Ok(Expr::un(*op, rewrite(a, ctx)?)),
        Expr::If(c, t, f) => Ok(Expr::if_(
            rewrite(c, ctx)?,
            rewrite(t, ctx)?,
            rewrite(f, ctx)?,
        )),
        Expr::Let(defs, body) => {
            let defs = defs
                .iter()
                .map(|d| {
                    Ok(Def {
                        name: d.name.clone(),
                        ty: d.ty.clone(),
                        value: rewrite(&d.value, ctx)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Expr::Let(defs, Box::new(rewrite(body, ctx)?)))
        }
        Expr::Append(n, i, v) => Ok(Expr::Append(
            n.clone(),
            Box::new(rewrite(i, ctx)?),
            Box::new(rewrite(v, ctx)?),
        )),
        Expr::ArrayInit(i, v) => Ok(Expr::ArrayInit(
            Box::new(rewrite(i, ctx)?),
            Box::new(rewrite(v, ctx)?),
        )),
        Expr::Iter(binds) => Ok(Expr::Iter(
            binds
                .iter()
                .map(|(n, e)| Ok((n.clone(), rewrite(e, ctx)?)))
                .collect::<Result<Vec<_>, String>>()?,
        )),
        lit => Ok(lit.clone()),
    }
}

/// Whether a block has a second index dimension or a two-dimensional
/// element selection (which flattening rewrites, or rejects).
fn is_two_dimensional(block: &BlockDecl) -> bool {
    let (exprs, body) = match &block.body {
        BlockBody::Forall(f) if f.second.is_some() => return true,
        BlockBody::Forall(f) => (&f.defs, &f.body),
        BlockBody::ForIter(fi) => (&fi.inits, &fi.body),
    };
    let mut found = false;
    for e in exprs.iter().map(|d| &d.value).chain([body]) {
        e.walk(&mut |x| found |= matches!(x, Expr::Index2(..)));
    }
    found
}

/// Flatten every 2-D construct. Returns the equivalent 1-D program plus
/// the original shapes (for reshaping flattened inputs/outputs).
pub fn flatten_program(prog: &Program) -> Result<(Program, FlattenInfo), String> {
    let mut params = Bindings::new();
    for (n, v) in &prog.params {
        params.insert(n.clone(), Value::Int(*v));
    }
    let mut shapes: HashMap<String, Dim2> = HashMap::new();
    let mut out = prog.clone();

    // Inputs.
    for (decl, orig) in out.inputs.iter_mut().zip(&prog.inputs) {
        if let Some((lo2, hi2)) = &orig.range2 {
            let a = eval_manifest_int(&orig.range.0, &params)?;
            let b = eval_manifest_int(&orig.range.1, &params)?;
            let c = eval_manifest_int(lo2, &params)?;
            let d = eval_manifest_int(hi2, &params)?;
            if b < a || d < c {
                return fail(format!("input '{}' has an empty dimension", orig.name));
            }
            let shape = Dim2 {
                rows: (a, b),
                cols: (c, d),
            };
            // `array[array[T]]` flattens to `array[T]`: the parser stored
            // `array[T]` as the element type, so unwrap one level.
            if let Type::Array(inner) = &decl.elem_ty {
                decl.elem_ty = (**inner).clone();
            }
            decl.range = (Expr::IntLit(0), Expr::IntLit(shape.len() - 1));
            decl.range2 = None;
            shapes.insert(orig.name.clone(), shape);
        }
    }

    // Blocks. The rewrite is the identity on a block with neither a
    // second dimension nor a two-dimensional access, which keeps its
    // shared syntax tree.
    for (block, orig) in out.blocks.iter_mut().zip(&prog.blocks) {
        if !is_two_dimensional(orig) {
            continue;
        }
        let block = Arc::make_mut(block);
        match &orig.body {
            BlockBody::Forall(fa) => {
                let frame = if let Some((jvar, (jlo, jhi))) = &fa.second {
                    let a = eval_manifest_int(&fa.range.0, &params)?;
                    let b = eval_manifest_int(&fa.range.1, &params)?;
                    let c = eval_manifest_int(jlo, &params)?;
                    let d = eval_manifest_int(jhi, &params)?;
                    if b < a || d < c {
                        return fail(format!("block '{}' has an empty dimension", orig.name));
                    }
                    let shape = Dim2 {
                        rows: (a, b),
                        cols: (c, d),
                    };
                    shapes.insert(orig.name.clone(), shape);
                    Some((
                        Frame2 {
                            i: fa.index_var.clone(),
                            j: jvar.clone(),
                            k: format!("__k_{}", orig.name),
                            a,
                            c,
                            w: shape.width(),
                        },
                        shape,
                    ))
                } else {
                    None
                };
                let ctx = Ctx {
                    params: &params,
                    shapes: &shapes,
                    frame: frame.as_ref().map(|(f, _)| f.clone()),
                };
                let defs = fa
                    .defs
                    .iter()
                    .map(|dd| {
                        Ok(Def {
                            name: dd.name.clone(),
                            ty: dd.ty.clone(),
                            value: rewrite(&dd.value, &ctx)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let body = rewrite(&fa.body, &ctx)?;
                let BlockBody::Forall(fo) = &mut block.body else {
                    return Err("internal: block body changed shape during flattening".into());
                };
                fo.defs = defs;
                fo.body = body;
                if let Some((f, shape)) = frame {
                    fo.index_var = f.k.clone();
                    fo.range = (Expr::IntLit(0), Expr::IntLit(shape.len() - 1));
                    fo.second = None;
                    // array[array[T]] → array[T].
                    if let Type::Array(inner) = &block.ty {
                        if matches!(**inner, Type::Array(_)) {
                            block.ty = (**inner).clone();
                        }
                    }
                }
            }
            BlockBody::ForIter(fi) => {
                // For-iter stays one-dimensional; only verify it touches no
                // 2-D array without flattened access.
                let ctx = Ctx {
                    params: &params,
                    shapes: &shapes,
                    frame: None,
                };
                let inits = fi
                    .inits
                    .iter()
                    .map(|dd| {
                        Ok(Def {
                            name: dd.name.clone(),
                            ty: dd.ty.clone(),
                            value: rewrite(&dd.value, &ctx)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let body = rewrite(&fi.body, &ctx)?;
                let BlockBody::ForIter(fo) = &mut block.body else {
                    return Err("internal: block body changed shape during flattening".into());
                };
                fo.inits = inits;
                fo.body = body;
            }
        }
    }

    Ok((out, FlattenInfo { shapes }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_program, ArrayVal};
    use crate::parser::parse_program;

    const JACOBI: &str = "
param n = 6;
param m = 8;
input U : array[array[real]] [0, n+1][0, m+1];
V : array[array[real]] :=
  forall i in [0, n+1], j in [0, m+1]
  construct
    if (i = 0)|(i = n+1)|(j = 0)|(j = m+1) then U[i][j]
    else 0.25 * (U[i-1][j] + U[i+1][j] + U[i][j-1] + U[i][j+1])
    endif
  endall;
output V;
";

    fn grid(n: usize, m: usize) -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..n + 2 {
            for j in 0..m + 2 {
                v.push((i as f64 * 0.31).sin() + (j as f64 * 0.17).cos());
            }
        }
        v
    }

    #[test]
    fn jacobi_flattens_and_interprets() {
        let prog = parse_program(JACOBI).unwrap();
        let (flat, info) = flatten_program(&prog).unwrap();
        let shape = info.shapes["V"];
        assert_eq!(shape.width(), 10);
        assert_eq!(shape.height(), 8);
        // The flattened program is a plain 1-D pipe-structured program.
        assert!(crate::typeck::check_program(&flat).is_ok());
        assert!(crate::deps::analyze(&flat).is_ok());

        let (n, m) = (6usize, 8usize);
        let u = grid(n, m);
        let mut inputs = HashMap::new();
        inputs.insert("U".to_string(), ArrayVal::from_reals(0, &u));
        let out = run_program(&flat, &inputs).unwrap();
        let v = out["V"].to_reals();
        let w = m + 2;
        for i in 0..n + 2 {
            for j in 0..w {
                let k = i * w + j;
                let want = if i == 0 || i == n + 1 || j == 0 || j == w - 1 {
                    u[k]
                } else {
                    0.25 * (u[k - w] + u[k + w] + u[k - 1] + u[k + 1])
                };
                assert!((v[k] - want).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn stride_mismatch_rejected() {
        let src = "
param n = 4;
input U : array[array[real]] [0, n][0, n];
V : array[array[real]] :=
  forall i in [1, n-1], j in [1, n-2]
  construct U[i][j]
  endall;
output V;
";
        let prog = parse_program(src).unwrap();
        let err = flatten_program(&prog).unwrap_err();
        assert!(err.contains("strides"), "{err}");
    }

    #[test]
    fn one_d_array_with_2d_index_rejected() {
        let src = "
param n = 4;
input U : array[real] [0, n];
V : array[array[real]] :=
  forall i in [0, n], j in [0, n]
  construct U[i]
  endall;
output V;
";
        let prog = parse_program(src).unwrap();
        assert!(flatten_program(&prog).is_err());
    }

    #[test]
    fn two_d_access_outside_2d_forall_rejected() {
        let src = "
param n = 4;
input U : array[array[real]] [0, n][0, n];
V : array[real] := forall i in [0, n] construct U[i][0] endall;
output V;
";
        let prog = parse_program(src).unwrap();
        assert!(flatten_program(&prog).is_err());
    }

    #[test]
    fn pure_1d_program_unchanged() {
        let prog = parse_program(crate::parser::FIG3_PROGRAM).unwrap();
        let (flat, info) = flatten_program(&prog).unwrap();
        assert_eq!(flat, prog);
        assert!(info.shapes.is_empty());
    }
}
