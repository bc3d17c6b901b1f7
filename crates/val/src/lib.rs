//! # valpipe-val — the Val language frontend
//!
//! Frontend for the Val subset of Dennis & Gao, *Maximum Pipelining of
//! Array Operations on Static Data Flow Machine* (ICPP 1983): lexer,
//! parser, type checker, the structural classifiers defining the paper's
//! pipelinable program class, linear-recurrence/companion-function
//! analysis, flow-dependency analysis, and a reference interpreter used as
//! the correctness oracle for the compiler.
//!
//! The paper's two running examples are exported verbatim as
//! [`parser::EXAMPLE_1`], [`parser::EXAMPLE_2`], and the combined
//! [`parser::FIG3_PROGRAM`].

#![warn(missing_docs)]

pub mod ast;
pub mod classify;
pub mod deps;
pub mod dims;
pub mod fold;
pub mod interp;
pub mod lexer;
pub mod linear;
pub mod parser;
pub mod pretty;
pub mod srcmap;
pub mod typeck;

pub use ast::{BlockBody, BlockDecl, Def, Expr, ForIter, Forall, InputDecl, Program, Type};
pub use classify::{
    check_primitive_expr, check_primitive_forall, check_primitive_foriter, ArrayAccess, NameEnv,
    PrimitiveForIter, Violation,
};
pub use deps::{
    analyze, analyze_block, analyze_with, block_names, AnalyzeError, BlockClass, BlockScope,
    FlowGraph,
};
pub use dims::{flatten_program, Dim2, FlattenInfo};
pub use interp::{ArrayVal, InterpError};
pub use linear::{companion_g, companion_tree, extract_linear, recurrence_f, LinearForm};
pub use parser::{
    parse_block_body, parse_expr, parse_program, parse_program_mapped,
    parse_program_mapped_limited, parse_stmt_mapped, split_statements, ParseError, ParseErrorKind,
    SplitStmt, StmtId, TopStmt, DEFAULT_MAX_NESTING_DEPTH,
};
pub use srcmap::{SourceMap, StmtKey};
pub use typeck::{
    attach_loc, check_block, check_program, check_program_mapped, program_prelude_env, TypeEnv,
    TypeError,
};
