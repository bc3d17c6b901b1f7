//! Compiler errors.

use crate::limits::LimitBreach;
use std::fmt;
use valpipe_balance::ProblemError;
use valpipe_val::{AnalyzeError, ParseError, TypeError};

/// Any failure on the way from Val source to balanced machine code.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Source text failed to parse.
    Parse(ParseError),
    /// A [`crate::CompileLimits`] resource budget was exceeded.
    Limit(LimitBreach),
    /// Frontend type error.
    Type(TypeError),
    /// Classification / range analysis failure.
    Analyze(AnalyzeError),
    /// Balancing failure (unseeded cycle, inconsistent loop interior).
    Balance(ProblemError),
    /// Program is valid Val but outside what the chosen scheme supports
    /// (e.g. companion scheme on a nonlinear recurrence).
    Unsupported(String),
    /// Internal invariant violation (a compiler bug), including generated
    /// machine code that fails structural validation.
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Limit(b) => write!(f, "resource limit: {b}"),
            CompileError::Type(e) => write!(f, "{e}"),
            CompileError::Analyze(e) => write!(f, "{e}"),
            CompileError::Balance(e) => write!(f, "balancing failed: {e}"),
            CompileError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LimitBreach> for CompileError {
    fn from(b: LimitBreach) -> Self {
        CompileError::Limit(b)
    }
}
impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}
impl From<AnalyzeError> for CompileError {
    fn from(e: AnalyzeError) -> Self {
        CompileError::Analyze(e)
    }
}
impl From<ProblemError> for CompileError {
    fn from(e: ProblemError) -> Self {
        CompileError::Balance(e)
    }
}
