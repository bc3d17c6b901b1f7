//! Type checking for the Val subset.
//!
//! Besides catching errors, the checker performs one rewrite: the paper
//! (and Val) spell both boolean negation and an idiomatic arithmetic
//! negation with `~`, so `~` parses as `NOT` and is rewritten to `NEG`
//! when its operand is numeric.
//!
//! Numeric promotion follows Val: mixing `integer` and `real` yields
//! `real`; comparisons accept mixed numerics; `&`, `|`, `~` (boolean) need
//! booleans.

use crate::ast::*;
use crate::srcmap::{SourceMap, StmtKey};
use std::collections::HashMap;
use std::fmt;

/// Type error with context.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeError {
    /// Description.
    pub message: String,
    /// Enclosing block name, if known.
    pub block: Option<String>,
    /// Enclosing definition (or loop-init) name within the block, if known.
    pub def: Option<String>,
    /// Rendered source location (`file:line:col`), filled by
    /// [`check_program_mapped`] when a [`SourceMap`] is available.
    pub loc: Option<String>,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(loc) = &self.loc {
            write!(f, "{loc}: ")?;
        }
        write!(f, "type error")?;
        if let Some(b) = &self.block {
            write!(f, " in block '{b}'")?;
            if let Some(d) = &self.def {
                write!(f, ", definition '{d}'")?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for TypeError {}

fn terr(msg: impl Into<String>) -> TypeError {
    TypeError {
        message: msg.into(),
        block: None,
        def: None,
        loc: None,
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, TypeError> {
    Err(terr(msg))
}

/// Scalar/array typing environment.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    vars: HashMap<String, Type>,
}

impl TypeEnv {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a name.
    pub fn bind(&mut self, name: impl Into<String>, ty: Type) {
        self.vars.insert(name.into(), ty);
    }

    /// Look up a name.
    pub fn get(&self, name: &str) -> Option<&Type> {
        self.vars.get(name)
    }
}

/// A borrowed [`TypeEnv`] seen through the local bindings of the block
/// being checked (its index variable, definitions, loop names and `let`
/// names). Lookups try the innermost local binding first, then the
/// enclosing environment, so checking a block never copies the
/// program-wide environment.
#[derive(Debug)]
pub struct Scope<'a> {
    outer: &'a TypeEnv,
    locals: Vec<(String, Type)>,
}

impl<'a> Scope<'a> {
    /// A scope with no local bindings over `outer`.
    pub fn new(outer: &'a TypeEnv) -> Self {
        Scope {
            outer,
            locals: Vec::new(),
        }
    }

    /// Bind a local name, shadowing any earlier binding of it.
    pub fn bind(&mut self, name: &str, ty: Type) {
        self.locals.push((name.to_string(), ty));
    }

    /// Look up a name: the innermost local binding, else the enclosing
    /// environment's.
    pub fn get(&self, name: &str) -> Option<&Type> {
        match self.locals.iter().rev().find(|(n, _)| n == name) {
            Some((_, t)) => Some(t),
            None => self.outer.get(name),
        }
    }

    /// Check `defs` in order, each one's value seeing the ones before it,
    /// and leave them bound. Returns the annotated definitions.
    fn bind_defs(&mut self, defs: &[Def]) -> Result<Vec<Def>, TypeError> {
        let mut out = Vec::with_capacity(defs.len());
        for d in defs {
            let (tv, ev) = check_expr(&d.value, self)?;
            if let Some(declared) = &d.ty {
                let ok = declared == &tv || (declared == &Type::Real && tv == Type::Int);
                if !ok {
                    return err(format!(
                        "definition '{}' declared {declared} but has type {tv}",
                        d.name
                    ));
                }
            }
            let bound_ty = d.ty.clone().unwrap_or(tv);
            self.bind(&d.name, bound_ty.clone());
            out.push(Def {
                name: d.name.clone(),
                ty: Some(bound_ty),
                value: ev,
            });
        }
        Ok(out)
    }
}

/// Least upper bound of two numeric types (int ⊔ real = real).
fn join_numeric(a: &Type, b: &Type) -> Option<Type> {
    match (a, b) {
        (Type::Int, Type::Int) => Some(Type::Int),
        (Type::Int, Type::Real) | (Type::Real, Type::Int) | (Type::Real, Type::Real) => {
            Some(Type::Real)
        }
        _ => None,
    }
}

/// Type-check an expression, returning its type and the (possibly
/// rewritten) expression. `Iter` is rejected here; for-iter bodies use
/// [`check_foriter_body`].
pub fn check_expr(expr: &Expr, env: &mut Scope) -> Result<(Type, Expr), TypeError> {
    match expr {
        Expr::IntLit(v) => Ok((Type::Int, Expr::IntLit(*v))),
        Expr::RealLit(v) => Ok((Type::Real, Expr::RealLit(*v))),
        Expr::BoolLit(v) => Ok((Type::Bool, Expr::BoolLit(*v))),
        Expr::Var(name) => match env.get(name) {
            Some(t) => Ok((t.clone(), Expr::Var(name.clone()))),
            None => err(format!("unbound name '{name}'")),
        },
        Expr::Bin(op, a, b) => {
            let (ta, ea) = check_expr(a, env)?;
            let (tb, eb) = check_expr(b, env)?;
            let ty = bin_type(*op, &ta, &tb).ok_or_else(|| {
                terr(format!(
                    "operator {} applied to {ta} and {tb}",
                    op.mnemonic()
                ))
            })?;
            Ok((ty, Expr::bin(*op, ea, eb)))
        }
        Expr::Un(op, a) => {
            let (ta, ea) = check_expr(a, env)?;
            match (op, &ta) {
                (UnOp::Neg, t) if t.is_numeric() => Ok((ta, Expr::un(UnOp::Neg, ea))),
                (UnOp::Not, Type::Bool) => Ok((Type::Bool, Expr::un(UnOp::Not, ea))),
                // `~` on a numeric operand means arithmetic negation.
                (UnOp::Not, t) if t.is_numeric() => Ok((ta, Expr::un(UnOp::Neg, ea))),
                (UnOp::Neg, Type::Bool) => Ok((Type::Bool, Expr::un(UnOp::Not, ea))),
                (UnOp::Abs, t) if t.is_numeric() => Ok((ta, Expr::un(UnOp::Abs, ea))),
                _ => err(format!("operator {} applied to {ta}", op.mnemonic())),
            }
        }
        Expr::Index(name, idx) => {
            let Some(arr_ty) = env.get(name).cloned() else {
                return err(format!("unbound array '{name}'"));
            };
            let Some(elem) = arr_ty.elem().cloned() else {
                return err(format!("'{name}' indexed but has type {arr_ty}"));
            };
            let (ti, ei) = check_expr(idx, env)?;
            if ti != Type::Int {
                return err(format!("index of '{name}' has type {ti}, expected integer"));
            }
            Ok((elem, Expr::Index(name.clone(), Box::new(ei))))
        }
        Expr::If(c, t, e) => {
            let (tc, ec) = check_expr(c, env)?;
            if tc != Type::Bool {
                return err(format!("condition has type {tc}, expected boolean"));
            }
            let (tt, et) = check_expr(t, env)?;
            let (te, ee) = check_expr(e, env)?;
            let ty = if tt == te {
                tt
            } else if let Some(j) = join_numeric(&tt, &te) {
                j
            } else {
                return err(format!("conditional arms have types {tt} and {te}"));
            };
            Ok((ty, Expr::if_(ec, et, ee)))
        }
        Expr::Let(defs, body) => {
            let mark = env.locals.len();
            let new_defs = env.bind_defs(defs)?;
            let (tb, eb) = check_expr(body, env)?;
            env.locals.truncate(mark);
            Ok((tb, Expr::Let(new_defs, Box::new(eb))))
        }
        Expr::Index2(name, ..) => err(format!(
            "two-dimensional access to '{name}' must be flattened before type checking"
        )),
        Expr::Iter(_) => err("'iter' outside a for-iter loop body"),
        Expr::Append(name, idx, val) => {
            let Some(arr_ty) = env.get(name).cloned() else {
                return err(format!("unbound array '{name}'"));
            };
            let Some(elem) = arr_ty.elem().cloned() else {
                return err(format!("'{name}' appended to but has type {arr_ty}"));
            };
            let (ti, ei) = check_expr(idx, env)?;
            if ti != Type::Int {
                return err(format!("append index has type {ti}, expected integer"));
            }
            let (tv, ev) = check_expr(val, env)?;
            if tv != elem && !(elem == Type::Real && tv == Type::Int) {
                return err(format!("appending {tv} to array of {elem}"));
            }
            Ok((
                arr_ty,
                Expr::Append(name.clone(), Box::new(ei), Box::new(ev)),
            ))
        }
        Expr::ArrayInit(idx, val) => {
            let (ti, ei) = check_expr(idx, env)?;
            if ti != Type::Int {
                return err(format!("array-init index has type {ti}, expected integer"));
            }
            let (tv, ev) = check_expr(val, env)?;
            Ok((
                Type::Array(Box::new(tv)),
                Expr::ArrayInit(Box::new(ei), Box::new(ev)),
            ))
        }
    }
}

fn bin_type(op: BinOp, a: &Type, b: &Type) -> Option<Type> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod | Min | Max => join_numeric(a, b),
        Lt | Le | Gt | Ge => join_numeric(a, b).map(|_| Type::Bool),
        Eq | Ne => {
            if a == b || join_numeric(a, b).is_some() {
                Some(Type::Bool)
            } else {
                None
            }
        }
        And | Or => (a == &Type::Bool && b == &Type::Bool).then_some(Type::Bool),
    }
}

/// Check a for-iter body: `Iter` clauses may appear only in tail position
/// (the body itself, a conditional arm, or a let body); every other tail
/// yields the loop result. Returns the result type and rewritten body.
pub fn check_foriter_body(
    body: &Expr,
    env: &mut Scope,
    loop_vars: &HashMap<String, Type>,
) -> Result<(Type, Expr), TypeError> {
    match body {
        Expr::Iter(binds) => {
            let mut new = Vec::with_capacity(binds.len());
            for (name, e) in binds {
                let Some(expected) = loop_vars.get(name) else {
                    return err(format!("'iter' rebinds '{name}', which is not a loop name"));
                };
                let (tv, ev) = check_expr(e, env)?;
                if &tv != expected && !(expected == &Type::Real && tv == Type::Int) {
                    return err(format!(
                        "'iter' rebinds '{name}' ({expected}) with a {tv} value"
                    ));
                }
                new.push((name.clone(), ev));
            }
            // An iter clause has no value of its own; report as the unit of
            // the iteration. We use the (arbitrary) convention that its
            // "type" is the type of the whole loop, resolved by the caller;
            // internally we mark it with a placeholder.
            Ok((Type::Bool, Expr::Iter(new))) // placeholder type, never joined
        }
        Expr::If(c, t, e) => {
            let (tc, ec) = check_expr(c, env)?;
            if tc != Type::Bool {
                return err(format!("loop condition has type {tc}, expected boolean"));
            }
            let (tt, et) = check_foriter_body(t, env, loop_vars)?;
            let (te, ee) = check_foriter_body(e, env, loop_vars)?;
            // If one arm iterates, the loop's type is the other arm's.
            let ty = match (
                matches!(**t, Expr::Iter(_)) || contains_iter(&et),
                matches!(**e, Expr::Iter(_)) || contains_iter(&ee),
            ) {
                (true, false) => te,
                (false, true) => tt,
                (false, false) => {
                    if tt == te {
                        tt
                    } else if let Some(j) = join_numeric(&tt, &te) {
                        j
                    } else {
                        return err(format!("loop arms have types {tt} and {te}"));
                    }
                }
                (true, true) => tt, // both iterate: loop can only spin; caller rejects
            };
            Ok((ty, Expr::if_(ec, et, ee)))
        }
        Expr::Let(defs, inner) => {
            let mark = env.locals.len();
            let new_defs = env.bind_defs(defs)?;
            let (ty, eb) = check_foriter_body(inner, env, loop_vars)?;
            env.locals.truncate(mark);
            Ok((ty, Expr::Let(new_defs, Box::new(eb))))
        }
        other => check_expr(other, env),
    }
}

fn contains_iter(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if matches!(x, Expr::Iter(_)) {
            found = true;
        }
    });
    found
}

/// Build the typing environment a program's blocks are checked under:
/// every `param` bound at `integer`, every `input` at its array type.
/// Rejects inputs with non-scalar elements. Block bindings are added by
/// the caller as blocks are checked in declaration order.
pub fn program_prelude_env(prog: &Program) -> Result<TypeEnv, TypeError> {
    let mut env = TypeEnv::new();
    for (name, _) in &prog.params {
        env.bind(name, Type::Int);
    }
    for input in &prog.inputs {
        if !input.elem_ty.is_scalar() {
            return err(format!("input '{}' must have scalar elements", input.name));
        }
        env.bind(&input.name, Type::Array(Box::new(input.elem_ty.clone())));
    }
    Ok(env)
}

/// Type-check one block against an environment holding everything
/// declared before it. Returns the rewritten block (with `~`
/// disambiguated and every definition annotated); errors carry the
/// block/def context but no source location — callers attach one via
/// [`attach_loc`] when they hold a [`SourceMap`].
///
/// The result depends only on `block` and the bindings `env` gives the
/// names it mentions ([`crate::deps::block_names`]), which is what lets
/// the incremental engine cache it keyed by the block and those bindings.
/// Local bindings go to a [`Scope`] over the borrowed `env`; the
/// program-wide environment is never copied.
pub fn check_block(block: &BlockDecl, env: &TypeEnv) -> Result<BlockDecl, TypeError> {
    let in_block = |mut e: TypeError| {
        e.block = Some(block.name.clone());
        e
    };
    let Some(elem) = block.ty.elem().cloned() else {
        return Err(in_block(terr(format!(
            "block type {} is not an array type",
            block.ty
        ))));
    };
    let body = match &block.body {
        BlockBody::Forall(f) => {
            let mut inner = Scope::new(env);
            inner.bind(&f.index_var, Type::Int);
            let mut new_defs = Vec::new();
            for d in &f.defs {
                let in_def = |mut e: TypeError| {
                    e.def = Some(d.name.clone());
                    in_block(e)
                };
                let (tv, ev) = check_expr(&d.value, &mut inner).map_err(in_def)?;
                if let Some(declared) = &d.ty {
                    let ok = declared == &tv || (declared == &Type::Real && tv == Type::Int);
                    if !ok {
                        return Err(in_def(terr(format!(
                            "declared {declared} but has type {tv}"
                        ))));
                    }
                }
                let bty = d.ty.clone().unwrap_or(tv);
                inner.bind(&d.name, bty.clone());
                new_defs.push(Def {
                    name: d.name.clone(),
                    ty: Some(bty),
                    value: ev,
                });
            }
            let (tb, eb) = check_expr(&f.body, &mut inner).map_err(in_block)?;
            if tb != elem && !(elem == Type::Real && tb == Type::Int) {
                return Err(in_block(terr(format!(
                    "accumulation has type {tb}, block declares {elem}"
                ))));
            }
            BlockBody::Forall(Forall {
                defs: new_defs,
                body: eb,
                ..f.clone()
            })
        }
        BlockBody::ForIter(fi) => {
            let mut inner = Scope::new(env);
            let mut loop_vars = HashMap::new();
            let mut new_inits = Vec::new();
            for d in &fi.inits {
                let in_def = |mut e: TypeError| {
                    e.def = Some(d.name.clone());
                    in_block(e)
                };
                let (tv, ev) = check_expr(&d.value, &mut inner).map_err(in_def)?;
                let bty = d.ty.clone().unwrap_or(tv);
                inner.bind(&d.name, bty.clone());
                loop_vars.insert(d.name.clone(), bty.clone());
                new_inits.push(Def {
                    name: d.name.clone(),
                    ty: Some(bty),
                    value: ev,
                });
            }
            let (tb, eb) =
                check_foriter_body(&fi.body, &mut inner, &loop_vars).map_err(in_block)?;
            if tb != block.ty {
                return Err(in_block(terr(format!(
                    "loop result has type {tb}, block declares {}",
                    block.ty
                ))));
            }
            BlockBody::ForIter(ForIter {
                inits: new_inits,
                body: eb,
            })
        }
    };
    Ok(BlockDecl {
        name: block.name.clone(),
        ty: block.ty.clone(),
        body,
    })
}

/// Type-check a whole program. Returns the rewritten program (with `~`
/// disambiguated and every definition annotated).
pub fn check_program(prog: &Program) -> Result<Program, TypeError> {
    let mut env = program_prelude_env(prog)?;
    let mut out = prog.clone();
    for (bi, block) in prog.blocks.iter().enumerate() {
        out.blocks[bi] = check_block(block, &env)?;
        env.bind(&block.name, block.ty.clone());
    }
    for o in &prog.outputs {
        if env.get(o).is_none() {
            return err(format!("output '{o}' is not a declared block or input"));
        }
    }
    Ok(out)
}

/// Resolve a [`TypeError`]'s source location (`file:line:col`) through
/// the statement [`SourceMap`] produced by `parse_program_mapped` or
/// `program_to_source_mapped`. Shared by the whole-program checker and
/// the incremental engine, which attaches locations to *cached* errors at
/// use time (locations depend on where a block sits, not on its text, so
/// they must never be baked into a content-keyed cache entry).
pub fn attach_loc(mut e: TypeError, map: &SourceMap) -> TypeError {
    let span = match (&e.block, &e.def) {
        (Some(b), Some(d)) => map
            .span(&StmtKey::BlockDef(b.clone(), d.clone()))
            .or_else(|| map.span(&StmtKey::BlockInit(b.clone(), d.clone()))),
        (Some(b), None) => map
            .span(&StmtKey::BlockBody(b.clone()))
            .or_else(|| map.span(&StmtKey::BlockHeader(b.clone()))),
        (None, _) => None,
    };
    if let Some(span) = span {
        e.loc = Some(format!("{}:{span}", map.file));
    }
    e
}

/// Type-check a program and, on failure, resolve the error's source
/// location through the statement [`SourceMap`].
pub fn check_program_mapped(prog: &Program, map: &SourceMap) -> Result<Program, TypeError> {
    check_program(prog).map_err(|e| attach_loc(e, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program, FIG3_PROGRAM};

    fn env_with(pairs: &[(&str, Type)]) -> TypeEnv {
        let mut e = TypeEnv::new();
        for (n, t) in pairs {
            e.bind(*n, t.clone());
        }
        e
    }

    fn check(src: &str, env: &TypeEnv) -> Result<(Type, Expr), TypeError> {
        check_expr(&parse_expr(src).unwrap(), &mut Scope::new(env))
    }

    #[test]
    fn arithmetic_promotion() {
        let env = env_with(&[("i", Type::Int)]);
        let (t, _) = check("i + 1", &env).unwrap();
        assert_eq!(t, Type::Int);
        let (t, _) = check("i + 1.5", &env).unwrap();
        assert_eq!(t, Type::Real);
    }

    #[test]
    fn tilde_rewritten_to_neg_on_numeric() {
        let env = env_with(&[("x", Type::Real)]);
        let (t, e) = check("~(x + 1.)", &env).unwrap();
        assert_eq!(t, Type::Real);
        assert!(matches!(e, Expr::Un(UnOp::Neg, _)));
    }

    #[test]
    fn tilde_stays_not_on_bool() {
        let env = env_with(&[("b", Type::Bool)]);
        let (t, e) = check("~b", &env).unwrap();
        assert_eq!(t, Type::Bool);
        assert!(matches!(e, Expr::Un(UnOp::Not, _)));
    }

    #[test]
    fn index_requires_array_and_int() {
        let env = env_with(&[
            ("A", Type::Array(Box::new(Type::Real))),
            ("i", Type::Int),
            ("x", Type::Real),
        ]);
        assert!(check("A[i]", &env).is_ok());
        assert!(check("A[x]", &env).is_err());
        assert!(check("x[i]", &env).is_err());
    }

    #[test]
    fn conditional_arm_mismatch_rejected() {
        let env = env_with(&[("b", Type::Bool)]);
        assert!(check("if b then 1 else true endif", &env).is_err());
        let (t, _) = check("if b then 1 else 2.5 endif", &env).unwrap();
        assert_eq!(t, Type::Real);
    }

    #[test]
    fn let_binds_and_annotates() {
        let env = env_with(&[("a", Type::Real)]);
        let (t, e) = check("let p := a * a in p + 1. endlet", &env).unwrap();
        assert_eq!(t, Type::Real);
        let Expr::Let(defs, _) = e else { panic!() };
        assert_eq!(defs[0].ty, Some(Type::Real));
    }

    #[test]
    fn iter_outside_loop_rejected() {
        let env = TypeEnv::new();
        assert!(check("iter x := 1 enditer", &env).is_err());
    }

    #[test]
    fn fig3_program_checks() {
        let p = parse_program(FIG3_PROGRAM).unwrap();
        let checked = check_program(&p).unwrap();
        // The forall's P def got annotated.
        let BlockBody::Forall(f) = &checked.blocks[0].body else {
            panic!()
        };
        assert_eq!(f.defs[0].ty, Some(Type::Real));
    }

    #[test]
    fn undeclared_output_rejected() {
        let mut p = parse_program(FIG3_PROGRAM).unwrap();
        p.outputs.push("nosuch".into());
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn mapped_error_carries_location_and_def() {
        let src = "\
param m = 4;
input A : array[real] [0, m];
B : array[real] :=
  forall i in [1, m]
    P : integer := A[i];
  construct
    P
  endall;
output B;
";
        let (p, map) = crate::parser::parse_program_mapped(src, "ex.val").unwrap();
        let e = check_program_mapped(&p, &map).unwrap_err();
        assert_eq!(e.block.as_deref(), Some("B"));
        assert_eq!(e.def.as_deref(), Some("P"));
        // The def `P : integer := A[i]` starts at line 5, column 5.
        assert_eq!(e.loc.as_deref(), Some("ex.val:5:5"));
        let msg = e.to_string();
        assert!(
            msg.starts_with("ex.val:5:5: type error in block 'B', definition 'P':"),
            "unexpected rendering: {msg}"
        );
    }

    #[test]
    fn iter_of_nonloop_name_rejected() {
        let src = "
param m = 4;
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    if i < m then iter Q := 1 enditer else T endif
  endfor;
output X;
";
        let p = parse_program(src).unwrap();
        assert!(check_program(&p).is_err());
    }
}
