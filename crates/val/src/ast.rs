//! Abstract syntax for the Val subset of Dennis & Gao (ICPP 1983).
//!
//! The subset covers exactly what the paper's pipe-structured programs
//! need: scalar expressions (the *primitive expressions* of §5), the
//! `forall` construct (§4, Example 1), the `for-iter` construct (§4,
//! Example 2) with its `iter` clause and the array-append constructor
//! `X[i: E]`, and a small program wrapper declaring compile-time
//! parameters, input arrays, blocks and outputs.

use std::fmt;
use std::sync::Arc;
pub use valpipe_ir::value::{BinOp, UnOp};

/// Val types in the subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// `integer`
    Int,
    /// `real`
    Real,
    /// `boolean`
    Bool,
    /// `array[T]`
    Array(Box<Type>),
}

impl Type {
    /// Element type if this is an array type.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Array(t) => Some(t),
            _ => None,
        }
    }

    /// Whether this is a scalar (non-array) type.
    pub fn is_scalar(&self) -> bool {
        !matches!(self, Type::Array(_))
    }

    /// Whether this is a numeric scalar.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Int | Type::Real)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "integer"),
            Type::Real => write!(f, "real"),
            Type::Bool => write!(f, "boolean"),
            Type::Array(t) => write!(f, "array[{t}]"),
        }
    }
}

/// A definition `name : type := value` (type optional inside `iter`).
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Defined name.
    pub name: String,
    /// Declared type, if given.
    pub ty: Option<Type>,
    /// Defining expression.
    pub value: Expr,
}

/// Expressions. Equality is structural, with real literals compared by
/// their bits (see the `PartialEq` impl).
#[derive(Debug, Clone)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Real literal.
    RealLit(f64),
    /// Boolean literal.
    BoolLit(bool),
    /// Identifier (scalar variable, parameter, or array name in
    /// non-indexing positions such as a `for-iter` result arm).
    Var(String),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Array element selection `A[e]`.
    Index(String, Box<Expr>),
    /// Two-dimensional element selection `A[e1][e2]` (§9's
    /// multi-dimensional extension; lowered to a flattened 1-D access by
    /// [`crate::dims::flatten_program`]).
    Index2(String, Box<Expr>, Box<Expr>),
    /// Conditional `if c then t else f endif`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `let defs in body endlet`.
    Let(Vec<Def>, Box<Expr>),
    /// `iter name := e; … enditer` — rebind loop names and repeat.
    Iter(Vec<(String, Expr)>),
    /// Array append constructor `A[idx: val]` (extends `A` by one element).
    Append(String, Box<Expr>, Box<Expr>),
    /// Array initializer `[idx: val]` — a one-element array at index `idx`.
    ArrayInit(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructors keep the compiler code readable.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
    /// Unary node.
    pub fn un(op: UnOp, a: Expr) -> Expr {
        Expr::Un(op, Box::new(a))
    }
    /// Variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }
    /// `name[e]`.
    pub fn index(name: impl Into<String>, idx: Expr) -> Expr {
        Expr::Index(name.into(), Box::new(idx))
    }
    /// `if c then t else f endif`.
    pub fn if_(c: Expr, t: Expr, f: Expr) -> Expr {
        Expr::If(Box::new(c), Box::new(t), Box::new(f))
    }

    /// Visit every sub-expression (preorder), including `self`.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Bin(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Un(_, a) => a.walk(f),
            Expr::Index(_, i) => i.walk(f),
            Expr::Index2(_, i, j) => {
                i.walk(f);
                j.walk(f);
            }
            Expr::If(c, t, e) => {
                c.walk(f);
                t.walk(f);
                e.walk(f);
            }
            Expr::Let(defs, body) => {
                for d in defs {
                    d.value.walk(f);
                }
                body.walk(f);
            }
            Expr::Iter(binds) => {
                for (_, e) in binds {
                    e.walk(f);
                }
            }
            Expr::Append(_, i, v) => {
                i.walk(f);
                v.walk(f);
            }
            Expr::ArrayInit(i, v) => {
                i.walk(f);
                v.walk(f);
            }
            _ => {}
        }
    }

    /// Whether identifier `name` occurs free anywhere in the expression
    /// (as a variable, indexed array, or append target). Let-bindings of
    /// the same name shadow in bodies, which this check respects.
    pub fn mentions(&self, name: &str) -> bool {
        match self {
            Expr::Var(v) => v == name,
            Expr::Index(a, i) => a == name || i.mentions(name),
            Expr::Index2(a, i, j) => a == name || i.mentions(name) || j.mentions(name),
            Expr::Append(a, i, v) => a == name || i.mentions(name) || v.mentions(name),
            Expr::ArrayInit(i, v) => i.mentions(name) || v.mentions(name),
            Expr::Bin(_, a, b) => a.mentions(name) || b.mentions(name),
            Expr::Un(_, a) => a.mentions(name),
            Expr::If(c, t, e) => c.mentions(name) || t.mentions(name) || e.mentions(name),
            Expr::Let(defs, body) => {
                let mut shadowed = false;
                for d in defs {
                    if d.value.mentions(name) {
                        return true;
                    }
                    if d.name == name {
                        shadowed = true;
                    }
                }
                !shadowed && body.mentions(name)
            }
            Expr::Iter(binds) => binds.iter().any(|(_, e)| e.mentions(name)),
            _ => false,
        }
    }
}

/// Real literals are equal when their bits are: `0.0` and `-0.0` are
/// different programs (they lower to different constants), and a NaN
/// literal equals itself. The incremental compiler reuses a block's
/// artifacts only when its syntax tree equals the previous compile's, so
/// IEEE equality here would let `-0.0` reuse the code of `0.0`.
impl PartialEq for Expr {
    fn eq(&self, other: &Expr) -> bool {
        use Expr::*;
        match (self, other) {
            (IntLit(a), IntLit(b)) => a == b,
            (RealLit(a), RealLit(b)) => a.to_bits() == b.to_bits(),
            (BoolLit(a), BoolLit(b)) => a == b,
            (Var(a), Var(b)) => a == b,
            (Bin(o, a, b), Bin(p, c, d)) => o == p && a == c && b == d,
            (Un(o, a), Un(p, b)) => o == p && a == b,
            (Index(n, i), Index(m, j)) => n == m && i == j,
            (Index2(n, a, b), Index2(m, c, d)) => n == m && a == c && b == d,
            (If(a, b, c), If(d, e, f)) => a == d && b == e && c == f,
            (Let(a, b), Let(c, d)) => a == c && b == d,
            (Iter(a), Iter(b)) => a == b,
            (Append(n, a, b), Append(m, c, d)) => n == m && a == c && b == d,
            (ArrayInit(a, b), ArrayInit(c, d)) => a == c && b == d,
            _ => false,
        }
    }
}

/// A `forall` block (paper §4, Example 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Forall {
    /// The (first) index variable.
    pub index_var: String,
    /// Inclusive index range `[lo, hi]` (expressions over parameters).
    pub range: (Expr, Expr),
    /// Optional second dimension `, j in [lo, hi]` (§9's extension;
    /// removed by flattening before classification).
    pub second: Option<(String, (Expr, Expr))>,
    /// The definition part.
    pub defs: Vec<Def>,
    /// The accumulation part.
    pub body: Expr,
}

/// A `for-iter` block (paper §4, Example 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ForIter {
    /// Loop-name initializations.
    pub inits: Vec<Def>,
    /// The loop body (evaluated each cycle; `iter` repeats, anything else
    /// terminates with that value).
    pub body: Expr,
}

/// The body of a top-level block.
// Forall is larger than ForIter; blocks are few and long-lived, so the
// size skew is irrelevant and boxing would only complicate matching.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum BlockBody {
    /// `forall … endall`
    Forall(Forall),
    /// `for … endfor`
    ForIter(ForIter),
}

/// A top-level block `NAME : type := body`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDecl {
    /// Name of the array value the block produces.
    pub name: String,
    /// Declared type (must be an array type).
    pub ty: Type,
    /// The defining construct.
    pub body: BlockBody,
}

/// An input array declaration `input NAME : array[T] [lo, hi];`.
#[derive(Debug, Clone, PartialEq)]
pub struct InputDecl {
    /// Array name.
    pub name: String,
    /// Element type.
    pub elem_ty: Type,
    /// Inclusive index range (expressions over parameters).
    pub range: (Expr, Expr),
    /// Second dimension's range for two-dimensional inputs.
    pub range2: Option<(Expr, Expr)>,
}

/// A complete pipe-structured program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Compile-time integer parameters (`param m = 100;`), in order.
    pub params: Vec<(String, i64)>,
    /// Input arrays.
    pub inputs: Vec<InputDecl>,
    /// Blocks, in source order. Shared, so a compiler can keep a block
    /// (and its type-checked form) from one compile to the next without
    /// copying it.
    pub blocks: Vec<Arc<BlockDecl>>,
    /// Names exported as outputs.
    pub outputs: Vec<String>,
}

impl Program {
    /// Look up a parameter's value.
    pub fn param(&self, name: &str) -> Option<i64> {
        self.params.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a block by name.
    pub fn block(&self, name: &str) -> Option<&BlockDecl> {
        self.blocks.iter().find(|b| b.name == name).map(Arc::as_ref)
    }

    /// Look up an input by name.
    pub fn input(&self, name: &str) -> Option<&InputDecl> {
        self.inputs.iter().find(|i| i.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mentions_respects_let_shadowing() {
        // let x := 1 in x endlet  — outer `x` not mentioned in body.
        let e = Expr::Let(
            vec![Def {
                name: "x".into(),
                ty: None,
                value: Expr::IntLit(1),
            }],
            Box::new(Expr::var("x")),
        );
        assert!(!e.mentions("x") || !e.mentions("x"));
        // but a def that *uses* x is a mention:
        let e2 = Expr::Let(
            vec![Def {
                name: "y".into(),
                ty: None,
                value: Expr::var("x"),
            }],
            Box::new(Expr::IntLit(0)),
        );
        assert!(e2.mentions("x"));
    }

    #[test]
    fn mentions_finds_indexed_arrays() {
        let e = Expr::index("A", Expr::var("i"));
        assert!(e.mentions("A"));
        assert!(e.mentions("i"));
        assert!(!e.mentions("B"));
    }

    #[test]
    fn walk_visits_all() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::index("A", Expr::var("i")),
            Expr::if_(Expr::BoolLit(true), Expr::IntLit(1), Expr::IntLit(2)),
        );
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 7);
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Array(Box::new(Type::Real)).to_string(), "array[real]");
        assert!(Type::Real.is_numeric());
        assert!(!Type::Array(Box::new(Type::Real)).is_scalar());
    }
}
