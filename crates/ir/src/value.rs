//! Scalar values carried by result packets.
//!
//! The static data flow machine of Dennis & Gao moves *result packets*, each
//! holding one scalar value, between instruction cells. The Val subset in the
//! paper uses three scalar types: `integer`, `real`, and `boolean`. Arrays
//! never exist as machine values — an array is a *sequence* of scalar result
//! packets (paper §3).

use std::fmt;

/// A scalar value carried by a single result packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Val `integer`.
    Int(i64),
    /// Val `real`.
    Real(f64),
    /// Val `boolean`.
    Bool(bool),
}

impl Value {
    /// The truth value, if this is a boolean packet.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The integer value, if this is an integer packet.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Numeric view: integers promote to reals, booleans are not numeric.
    pub fn as_real(self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(i as f64),
            Value::Real(r) => Some(r),
            Value::Bool(_) => None,
        }
    }

    /// Short type tag used in diagnostics.
    pub fn type_name(self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Real(_) => "real",
            Value::Bool(_) => "boolean",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Bool(b) => write!(f, "{}", if *b { "T" } else { "F" }),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Error produced when an instruction receives operands of the wrong type
/// (or divides by zero, etc.). In a correct compilation these never occur;
/// the simulator surfaces them as hard faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation fault: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// Binary operators available as instruction-cell operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the operators themselves
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Min,
    Max,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// Mnemonic used in machine-code listings (matching the paper's figures:
    /// `ADD`, `MULT`, `SUB`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "ADD",
            BinOp::Sub => "SUB",
            BinOp::Mul => "MULT",
            BinOp::Div => "DIV",
            BinOp::Mod => "MOD",
            BinOp::Min => "MIN",
            BinOp::Max => "MAX",
            BinOp::Lt => "LT",
            BinOp::Le => "LE",
            BinOp::Gt => "GT",
            BinOp::Ge => "GE",
            BinOp::Eq => "EQ",
            BinOp::Ne => "NE",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Unary operators available as instruction-cell operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the operators themselves
pub enum UnOp {
    Neg,
    Not,
    Abs,
}

impl UnOp {
    /// Mnemonic used in machine-code listings.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "NEG",
            UnOp::Not => "NOT",
            UnOp::Abs => "ABS",
        }
    }
}

fn type_err(op: &str, a: Value, b: Option<Value>) -> EvalError {
    match b {
        Some(b) => EvalError(format!(
            "{op} applied to {}({a}) and {}({b})",
            a.type_name(),
            b.type_name()
        )),
        None => EvalError(format!("{op} applied to {}({a})", a.type_name())),
    }
}

/// Apply a binary operator with Val's promotion rule: mixing `integer` and
/// `real` promotes to `real`; comparison of numerics is allowed across the
/// two numeric types; logical operators require booleans.
pub fn apply_bin(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    use Value::*;
    match op {
        And | Or => match (a, b) {
            (Bool(x), Bool(y)) => Ok(Bool(if op == And { x && y } else { x || y })),
            _ => Err(type_err(op.mnemonic(), a, Some(b))),
        },
        Eq | Ne => {
            let eq = match (a, b) {
                (Int(x), Int(y)) => x == y,
                (Bool(x), Bool(y)) => x == y,
                (x, y) => match (x.as_real(), y.as_real()) {
                    (Some(x), Some(y)) => x == y,
                    _ => return Err(type_err(op.mnemonic(), a, Some(b))),
                },
            };
            Ok(Bool(if op == Eq { eq } else { !eq }))
        }
        Lt | Le | Gt | Ge => match (a, b) {
            (Int(x), Int(y)) => Ok(Bool(cmp_ok(op, x.cmp(&y)))),
            (x, y) => match (x.as_real(), y.as_real()) {
                (Some(x), Some(y)) => {
                    let ord = x
                        .partial_cmp(&y)
                        .ok_or_else(|| EvalError("NaN comparison".into()))?;
                    Ok(Bool(cmp_ok(op, ord)))
                }
                _ => Err(type_err(op.mnemonic(), a, Some(b))),
            },
        },
        Add | Sub | Mul | Div | Mod | Min | Max => match (a, b) {
            (Int(x), Int(y)) => int_arith(op, x, y),
            (x, y) => match (x.as_real(), y.as_real()) {
                (Some(x), Some(y)) => real_arith(op, x, y),
                _ => Err(type_err(op.mnemonic(), a, Some(b))),
            },
        },
    }
}

fn cmp_ok(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("cmp_ok on non-comparison"),
    }
}

fn int_arith(op: BinOp, x: i64, y: i64) -> Result<Value, EvalError> {
    let v = match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(EvalError("integer division by zero".into()));
            }
            x / y
        }
        BinOp::Mod => {
            if y == 0 {
                return Err(EvalError("integer modulo by zero".into()));
            }
            x.rem_euclid(y)
        }
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        _ => unreachable!(),
    };
    Ok(Value::Int(v))
}

fn real_arith(op: BinOp, x: f64, y: f64) -> Result<Value, EvalError> {
    let v = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Mod => x.rem_euclid(y),
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        _ => unreachable!(),
    };
    Ok(Value::Real(v))
}

/// Apply a unary operator.
pub fn apply_un(op: UnOp, a: Value) -> Result<Value, EvalError> {
    use UnOp::*;
    use Value::*;
    match (op, a) {
        (Neg, Int(x)) => Ok(Int(x.wrapping_neg())),
        (Neg, Real(x)) => Ok(Real(-x)),
        (Not, Bool(x)) => Ok(Bool(!x)),
        (Abs, Int(x)) => Ok(Int(x.wrapping_abs())),
        (Abs, Real(x)) => Ok(Real(x.abs())),
        _ => Err(type_err(op.mnemonic(), a, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arith_basics() {
        assert_eq!(
            apply_bin(BinOp::Add, 2.into(), 3.into()).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            apply_bin(BinOp::Mul, 4.into(), (-2).into()).unwrap(),
            Value::Int(-8)
        );
        assert_eq!(
            apply_bin(BinOp::Div, 7.into(), 2.into()).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            apply_bin(BinOp::Min, 7.into(), 2.into()).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            apply_bin(BinOp::Max, 7.into(), 2.into()).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn mixed_promotes_to_real() {
        assert_eq!(
            apply_bin(BinOp::Add, Value::Int(2), Value::Real(0.5)).unwrap(),
            Value::Real(2.5)
        );
        assert_eq!(
            apply_bin(BinOp::Lt, Value::Int(2), Value::Real(2.5)).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn div_by_zero_int_faults() {
        assert!(apply_bin(BinOp::Div, 1.into(), 0.into()).is_err());
    }

    #[test]
    fn real_div_by_zero_is_inf() {
        assert_eq!(
            apply_bin(BinOp::Div, Value::Real(1.0), Value::Real(0.0)).unwrap(),
            Value::Real(f64::INFINITY)
        );
    }

    #[test]
    fn logic_requires_bools() {
        assert_eq!(
            apply_bin(BinOp::And, true.into(), false.into()).unwrap(),
            Value::Bool(false)
        );
        assert!(apply_bin(BinOp::And, 1.into(), false.into()).is_err());
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            apply_bin(BinOp::Le, 2.into(), 2.into()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            apply_bin(BinOp::Gt, 2.into(), 2.into()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            apply_bin(BinOp::Ne, 2.into(), 3.into()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            apply_bin(BinOp::Eq, Value::Bool(true), Value::Bool(true)).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn unary_ops() {
        assert_eq!(
            apply_un(UnOp::Neg, Value::Real(2.5)).unwrap(),
            Value::Real(-2.5)
        );
        assert_eq!(
            apply_un(UnOp::Not, true.into()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(apply_un(UnOp::Abs, (-3).into()).unwrap(), Value::Int(3));
        assert!(apply_un(UnOp::Not, 1.into()).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Bool(true).to_string(), "T");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }
}
