//! Recursive-descent parser for the Val subset.
//!
//! Accepts the paper's two running examples verbatim (Example 1, the
//! boundary-smoothing `forall`, and Example 2, the first-order recurrence
//! `for-iter`), plus a small program wrapper:
//!
//! ```text
//! param m = 100;
//! input B : array[real] [0, m+1];
//! input C : array[real] [0, m+1];
//! A : array[real] := forall i in [0, m+1] … endall;
//! X : array[real] := for … endfor;
//! output A, X;
//! ```

use crate::ast::*;
use crate::lexer::{lex, Kw, LexError, Spanned, Tok};
use crate::srcmap::{SourceMap, StmtKey};
use std::fmt;
use std::sync::Arc;
use valpipe_ir::prov::Span;

/// What kind of failure a [`ParseError`] reports. `DepthLimit` is kept
/// distinct from plain syntax errors so callers enforcing resource limits
/// (the compile pipeline, the service) can classify it as a limit breach
/// rather than malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseErrorKind {
    /// Malformed source: unexpected token, bad literal, etc.
    #[default]
    Syntax,
    /// Expression/type nesting exceeded the parser's recursion budget.
    DepthLimit,
}

/// Parse error with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Message.
    pub message: String,
    /// Source line (1-based).
    pub line: u32,
    /// Source column (1-based).
    pub col: u32,
    /// Classification (syntax vs. resource-limit breach).
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
            kind: ParseErrorKind::Syntax,
        }
    }
}

/// Default recursion budget for expression/type nesting. Each level of
/// parenthesisation costs a fixed chain of parser frames, so untrusted
/// source like `((((…` would otherwise overflow the stack long before any
/// semantic check runs. 200 levels is far beyond any legitimate program
/// while staying comfortably inside a 2 MiB thread stack.
pub const DEFAULT_MAX_NESTING_DEPTH: usize = 200;

struct Parser<'a> {
    toks: Vec<Spanned<'a>>,
    pos: usize,
    /// Statement spans recorded while parsing a whole program.
    map: Vec<(StmtKey, Span)>,
    /// Name of the block currently being parsed ("" outside blocks).
    cur_block: &'a str,
    /// Token index where the current block declaration started.
    block_start: usize,
    /// Current expression/type nesting depth.
    depth: usize,
    /// Maximum nesting depth before the parse is rejected.
    max_depth: usize,
}

type PResult<T> = Result<T, ParseError>;

impl<'a> Parser<'a> {
    fn new(toks: Vec<Spanned<'a>>) -> Parser<'a> {
        Parser {
            toks,
            pos: 0,
            map: Vec::new(),
            cur_block: "",
            block_start: 0,
            depth: 0,
            max_depth: DEFAULT_MAX_NESTING_DEPTH,
        }
    }

    /// Guard one level of recursive descent; call [`Parser::leave`] on the
    /// way back out.
    fn enter(&mut self) -> PResult<()> {
        if self.depth >= self.max_depth {
            return Err(ParseError {
                message: format!("nesting deeper than {} levels", self.max_depth),
                line: self.line(),
                col: self.toks[self.pos].span.col,
                kind: ParseErrorKind::DepthLimit,
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> &Tok<'a> {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].span.line
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// Current token index, used with [`Parser::span_since`] to bracket a
    /// statement.
    fn mark(&self) -> usize {
        self.pos
    }

    /// The span from the token at `mark` through the last consumed token.
    fn span_since(&self, mark: usize) -> Span {
        let last_idx = self.toks.len() - 1;
        let s = self.toks[mark.min(last_idx)].span;
        let end = if self.pos > mark { self.pos - 1 } else { mark };
        let e = self.toks[end.min(last_idx)].span;
        Span::new(s.start, e.end.max(s.end), s.line, s.col)
    }

    fn record(&mut self, key: StmtKey, span: Span) {
        self.map.push((key, span));
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
            col: self.toks[self.pos].span.col,
            kind: ParseErrorKind::Syntax,
        })
    }

    fn expect(&mut self, t: &Tok) -> PResult<()> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected '{t}', found '{}'", self.peek()))
        }
    }

    fn is_kw(&self, kw: Kw) -> bool {
        self.peek() == &Tok::Kw(kw)
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> PResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected '{kw}', found '{}'", self.peek()))
        }
    }

    /// An identifier's text, borrowed from the source.
    fn name(&mut self) -> PResult<&'a str> {
        match *self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found '{other}'")),
        }
    }

    fn ident(&mut self) -> PResult<String> {
        self.name().map(str::to_string)
    }

    // ---- types -----------------------------------------------------------

    fn ty(&mut self) -> PResult<Type> {
        self.enter()?;
        let t = self.ty_inner();
        self.leave();
        t
    }

    fn ty_inner(&mut self) -> PResult<Type> {
        if self.eat_kw(Kw::Integer) {
            Ok(Type::Int)
        } else if self.eat_kw(Kw::Real) {
            Ok(Type::Real)
        } else if self.eat_kw(Kw::Boolean) {
            Ok(Type::Bool)
        } else if self.eat_kw(Kw::Array) {
            self.expect(&Tok::LBracket)?;
            let inner = self.ty()?;
            self.expect(&Tok::RBracket)?;
            Ok(Type::Array(Box::new(inner)))
        } else {
            self.err(format!("expected type, found '{}'", self.peek()))
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.enter()?;
        // `iter` is a loop-body form, never an operand. `if` and `let`
        // ARE operands (handled at the atom level), so an expression like
        // `if c then 1 else 0 endif + 2` chains into the operator parser.
        let e = if self.is_kw(Kw::Iter) {
            self.iter_expr()
        } else {
            self.or_expr()
        };
        self.leave();
        e
    }

    fn if_expr(&mut self) -> PResult<Expr> {
        self.expect_kw(Kw::If)?;
        let c = self.expr()?;
        self.expect_kw(Kw::Then)?;
        let t = self.expr()?;
        self.expect_kw(Kw::Else)?;
        let e = self.expr()?;
        self.expect_kw(Kw::Endif)?;
        Ok(Expr::if_(c, t, e))
    }

    fn let_expr(&mut self) -> PResult<Expr> {
        self.expect_kw(Kw::Let)?;
        let mut defs = vec![self.def()?];
        while self.peek() == &Tok::Semi {
            self.bump();
            if self.is_kw(Kw::In) {
                break;
            }
            defs.push(self.def()?);
        }
        self.expect_kw(Kw::In)?;
        let body = self.expr()?;
        self.expect_kw(Kw::Endlet)?;
        Ok(Expr::Let(defs, Box::new(body)))
    }

    fn iter_expr(&mut self) -> PResult<Expr> {
        self.expect_kw(Kw::Iter)?;
        let mut binds = Vec::new();
        loop {
            if self.eat_kw(Kw::Enditer) {
                break;
            }
            let name = self.ident()?;
            self.expect(&Tok::Assign)?;
            let value = self.expr()?;
            binds.push((name, value));
            if self.peek() == &Tok::Semi {
                self.bump();
            }
        }
        if binds.is_empty() {
            return self.err("empty iter clause");
        }
        Ok(Expr::Iter(binds))
    }

    /// A definition `name [: type] := expr`.
    fn def(&mut self) -> PResult<Def> {
        let name = self.ident()?;
        let ty = if self.peek() == &Tok::Colon {
            self.bump();
            Some(self.ty()?)
        } else {
            None
        };
        self.expect(&Tok::Assign)?;
        let value = self.expr()?;
        Ok(Def { name, ty, value })
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut e = self.and_expr()?;
        while self.peek() == &Tok::Bar {
            self.bump();
            let rhs = self.and_expr()?;
            e = Expr::bin(BinOp::Or, e, rhs);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut e = self.rel_expr()?;
        while self.peek() == &Tok::Amp {
            self.bump();
            let rhs = self.rel_expr()?;
            e = Expr::bin(BinOp::And, e, rhs);
        }
        Ok(e)
    }

    fn rel_expr(&mut self) -> PResult<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            e = Expr::bin(op, e, rhs);
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut e = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            e = Expr::bin(op, e, rhs);
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        self.enter()?;
        let e = match self.peek() {
            Tok::Minus => {
                self.bump();
                self.unary_expr().map(|e| Expr::un(UnOp::Neg, e))
            }
            // `~` is parsed as NOT; the type checker rewrites it to NEG on
            // numeric operands (the paper uses `~` for both).
            Tok::Tilde => {
                self.bump();
                self.unary_expr().map(|e| Expr::un(UnOp::Not, e))
            }
            _ => self.postfix_expr(),
        };
        self.leave();
        e
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::IntLit(v))
            }
            Tok::Real(v) => {
                self.bump();
                Ok(Expr::RealLit(v))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => {
                // Array initializer `[idx : val]`.
                self.bump();
                let idx = self.expr()?;
                self.expect(&Tok::Colon)?;
                let val = self.expr()?;
                self.expect(&Tok::RBracket)?;
                Ok(Expr::ArrayInit(Box::new(idx), Box::new(val)))
            }
            Tok::Kw(Kw::True) => {
                self.bump();
                Ok(Expr::BoolLit(true))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Ok(Expr::BoolLit(false))
            }
            Tok::Kw(Kw::If) => self.if_expr(),
            Tok::Kw(Kw::Let) => self.let_expr(),
            // Any other keyword is reported as a misplaced identifier.
            Tok::Ident(_) | Tok::Kw(_) => {
                let name = self.ident()?;
                if self.peek() == &Tok::LBracket {
                    self.bump();
                    let idx = self.expr()?;
                    if self.peek() == &Tok::Colon {
                        // Append constructor `A[i : e]`.
                        self.bump();
                        let val = self.expr()?;
                        self.expect(&Tok::RBracket)?;
                        Ok(Expr::Append(name, Box::new(idx), Box::new(val)))
                    } else {
                        self.expect(&Tok::RBracket)?;
                        if self.peek() == &Tok::LBracket {
                            // Two-dimensional selection `A[i][j]`.
                            self.bump();
                            let j = self.expr()?;
                            self.expect(&Tok::RBracket)?;
                            Ok(Expr::Index2(name, Box::new(idx), Box::new(j)))
                        } else {
                            Ok(Expr::Index(name, Box::new(idx)))
                        }
                    }
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => self.err(format!("expected expression, found '{other}'")),
        }
    }

    // ---- blocks ----------------------------------------------------------

    fn forall(&mut self) -> PResult<Forall> {
        self.expect_kw(Kw::Forall)?;
        let index_var = self.ident()?;
        self.expect_kw(Kw::In)?;
        self.expect(&Tok::LBracket)?;
        let lo = self.expr()?;
        self.expect(&Tok::Comma)?;
        let hi = self.expr()?;
        self.expect(&Tok::RBracket)?;
        // Optional second dimension: `, j in [lo, hi]`.
        let second = if self.peek() == &Tok::Comma {
            self.bump();
            let jvar = self.ident()?;
            self.expect_kw(Kw::In)?;
            self.expect(&Tok::LBracket)?;
            let jlo = self.expr()?;
            self.expect(&Tok::Comma)?;
            let jhi = self.expr()?;
            self.expect(&Tok::RBracket)?;
            Some((jvar, (jlo, jhi)))
        } else {
            None
        };
        let header_span = self.span_since(self.block_start);
        self.record(
            StmtKey::BlockHeader(self.cur_block.to_string()),
            header_span,
        );
        let mut defs = Vec::new();
        while !self.is_kw(Kw::Construct) {
            let dm = self.mark();
            let d = self.def()?;
            let span = self.span_since(dm);
            self.record(
                StmtKey::BlockDef(self.cur_block.to_string(), d.name.clone()),
                span,
            );
            defs.push(d);
            if self.peek() == &Tok::Semi {
                self.bump();
            }
        }
        self.expect_kw(Kw::Construct)?;
        let bm = self.mark();
        let body = self.expr()?;
        let body_span = self.span_since(bm);
        self.record(StmtKey::BlockBody(self.cur_block.to_string()), body_span);
        self.expect_kw(Kw::Endall)?;
        Ok(Forall {
            index_var,
            range: (lo, hi),
            second,
            defs,
            body,
        })
    }

    fn foriter(&mut self) -> PResult<ForIter> {
        self.expect_kw(Kw::For)?;
        let header_span = self.span_since(self.block_start);
        self.record(
            StmtKey::BlockHeader(self.cur_block.to_string()),
            header_span,
        );
        let mut inits = Vec::new();
        while !self.is_kw(Kw::Do) {
            let dm = self.mark();
            let d = self.def()?;
            let span = self.span_since(dm);
            self.record(
                StmtKey::BlockInit(self.cur_block.to_string(), d.name.clone()),
                span,
            );
            inits.push(d);
            if self.peek() == &Tok::Semi {
                self.bump();
            }
        }
        self.expect_kw(Kw::Do)?;
        let bm = self.mark();
        let body = self.expr()?;
        let body_span = self.span_since(bm);
        self.record(StmtKey::BlockBody(self.cur_block.to_string()), body_span);
        self.expect_kw(Kw::Endfor)?;
        Ok(ForIter { inits, body })
    }

    fn block_body(&mut self) -> PResult<BlockBody> {
        if self.is_kw(Kw::Forall) {
            Ok(BlockBody::Forall(self.forall()?))
        } else if self.is_kw(Kw::For) {
            Ok(BlockBody::ForIter(self.foriter()?))
        } else {
            self.err(format!(
                "expected 'forall' or 'for' block body, found '{}'",
                self.peek()
            ))
        }
    }

    // ---- program ---------------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut prog = Program::default();
        while self.peek() != &Tok::Eof {
            match self.statement()? {
                TopStmt::Param(name, v) => prog.params.push((name, v)),
                TopStmt::Input(decl) => prog.inputs.push(decl),
                TopStmt::Output(names) => prog.outputs.extend(names),
                TopStmt::Block(decl) => prog.blocks.push(Arc::new(decl)),
            }
        }
        Ok(prog)
    }

    /// Parse exactly one top-level statement. This is the unit the whole-
    /// program loop iterates and the incremental engine re-parses in
    /// isolation, so it must consume precisely the statement's tokens
    /// (including the terminating/trailing semicolon).
    fn statement(&mut self) -> PResult<TopStmt> {
        let stmt_mark = self.mark();
        if self.eat_kw(Kw::Param) {
            let name = self.ident()?;
            self.expect(&Tok::Eq)?;
            let neg = self.peek() == &Tok::Minus;
            if neg {
                self.bump();
            }
            let v = match self.bump() {
                Tok::Int(v) => v,
                other => return self.err(format!("expected integer, found '{other}'")),
            };
            self.expect(&Tok::Semi)?;
            let span = self.span_since(stmt_mark);
            self.record(StmtKey::Param(name.clone()), span);
            Ok(TopStmt::Param(name, if neg { -v } else { v }))
        } else if self.eat_kw(Kw::Input) {
            let name = self.ident()?;
            self.expect(&Tok::Colon)?;
            let ty = self.ty()?;
            let elem_ty = match ty {
                Type::Array(t) => *t,
                other => return self.err(format!("input must be array-typed, got {other}")),
            };
            self.expect(&Tok::LBracket)?;
            let lo = self.expr()?;
            self.expect(&Tok::Comma)?;
            let hi = self.expr()?;
            self.expect(&Tok::RBracket)?;
            let range2 = if self.peek() == &Tok::LBracket {
                self.bump();
                let lo2 = self.expr()?;
                self.expect(&Tok::Comma)?;
                let hi2 = self.expr()?;
                self.expect(&Tok::RBracket)?;
                Some((lo2, hi2))
            } else {
                None
            };
            self.expect(&Tok::Semi)?;
            let span = self.span_since(stmt_mark);
            self.record(StmtKey::Input(name.clone()), span);
            Ok(TopStmt::Input(InputDecl {
                name,
                elem_ty,
                range: (lo, hi),
                range2,
            }))
        } else if self.eat_kw(Kw::Output) {
            let mut names = vec![self.ident()?];
            while self.peek() == &Tok::Comma {
                self.bump();
                names.push(self.ident()?);
            }
            self.expect(&Tok::Semi)?;
            let span = self.span_since(stmt_mark);
            self.record(StmtKey::Output, span);
            Ok(TopStmt::Output(names))
        } else {
            let name = self.name()?;
            self.expect(&Tok::Colon)?;
            let ty = self.ty()?;
            self.expect(&Tok::Assign)?;
            self.cur_block = name;
            self.block_start = stmt_mark;
            let body = self.block_body()?;
            self.cur_block = "";
            if self.peek() == &Tok::Semi {
                self.bump();
            }
            Ok(TopStmt::Block(BlockDecl {
                name: name.to_string(),
                ty,
                body,
            }))
        }
    }
}

/// A single top-level statement of a pipe-structured program.
// A block declaration dominates the size; statements are few and
// short-lived, so boxing would only complicate matching.
#[allow(clippy::large_enum_variant)]
enum TopStmt {
    /// `param NAME = N;`
    Param(String, i64),
    /// `input NAME : array[T] [lo, hi];`
    Input(InputDecl),
    /// `output A, B;`
    Output(Vec<String>),
    /// `NAME : type := forall … endall;` / `… for … endfor;`
    Block(BlockDecl),
}

/// Parse a complete pipe-structured program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_program_mapped(src, "<source>").map(|(p, _)| p)
}

/// Parse a complete pipe-structured program together with its statement
/// [`SourceMap`] (spans of every declaration, definition and block body),
/// which the compiler threads into IR provenance. `file` names the source
/// in diagnostics.
pub fn parse_program_mapped(src: &str, file: &str) -> Result<(Program, SourceMap), ParseError> {
    parse_program_mapped_limited(src, file, DEFAULT_MAX_NESTING_DEPTH)
}

/// [`parse_program_mapped`] with an explicit nesting-depth budget, used by
/// callers compiling untrusted source under [`ParseErrorKind::DepthLimit`]
/// resource limits. The effective budget is clamped to the parser's own
/// stack-safety ceiling ([`DEFAULT_MAX_NESTING_DEPTH`]).
pub fn parse_program_mapped_limited(
    src: &str,
    file: &str,
    max_depth: usize,
) -> Result<(Program, SourceMap), ParseError> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    p.max_depth = max_depth.min(DEFAULT_MAX_NESTING_DEPTH);
    let prog = p.program()?;
    let mut map = SourceMap::new(file, src);
    for (key, span) in p.map.drain(..) {
        map.record(key, span);
    }
    Ok((prog, map))
}

/// Parse a single expression (used heavily in tests and by the REPL-style
/// examples).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let e = p.expr()?;
    if p.peek() != &Tok::Eof {
        return p.err(format!("trailing input at '{}'", p.peek()));
    }
    Ok(e)
}

/// Parse a single block body (`forall … endall` / `for … endfor`).
pub fn parse_block_body(src: &str) -> Result<BlockBody, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let b = p.block_body()?;
    if p.peek() != &Tok::Eof {
        return p.err(format!("trailing input at '{}'", p.peek()));
    }
    Ok(b)
}

/// The paper's Example 1 (§4), verbatim modulo typography.
pub const EXAMPLE_1: &str = "
forall i in [0, m+1]            % range specification
  P : real :=                   % definition part
    if (i = 0)|(i = m+1) then C[i]
    else
      0.25 * (C[i-1] + 2.*C[i] + C[i+1])
    endif;
construct
  B[i]*(P*P)                    % accumulation
endall
";

/// The paper's Example 2 (§4), verbatim modulo typography (the memo's
/// `T := D[1:P]` is an OCR artifact for `T := T[i: P]`).
pub const EXAMPLE_2: &str = "
for
  i : integer := 1;             % loop initialization
  T : array[real] := [0: 0.]
do
  let P : real := A[i]*T[i-1] + B[i]   % definition part
  in
    if i < m then               % loop body
      iter
        T := T[i: P];
        i := i + 1
      enditer
    else T
    endif
  endlet
endfor
";

/// The two examples combined into the paper's Fig. 3 pipe-structured
/// program (C, B feed the forall; its result A and B feed the for-iter).
pub const FIG3_PROGRAM: &str = "
param m = 32;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];

A : array[real] :=
  forall i in [0, m+1]
    P : real :=
      if (i = 0)|(i = m+1) then C[i]
      else
        0.25 * (C[i-1] + 2.*C[i] + C[i+1])
      endif;
  construct
    B[i]*(P*P)
  endall;

X : array[real] :=
  for
    i : integer := 1;
    T : array[real] := [0: 0.]
  do
    let P : real := A[i]*T[i-1] + B[i]
    in
      if i < m then
        iter
          T := T[i: P];
          i := i + 1
        enditer
      else T
      endif
    endlet
  endfor;

output A, X;
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_expression_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Add,
                Expr::IntLit(1),
                Expr::bin(BinOp::Mul, Expr::IntLit(2), Expr::IntLit(3))
            )
        );
    }

    #[test]
    fn parses_relational_and_boolean() {
        let e = parse_expr("(i = 0)|(i = m+1)").unwrap();
        match e {
            Expr::Bin(BinOp::Or, a, b) => {
                assert!(matches!(*a, Expr::Bin(BinOp::Eq, _, _)));
                assert!(matches!(*b, Expr::Bin(BinOp::Eq, _, _)));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn parses_array_index_and_append() {
        assert_eq!(
            parse_expr("C[i-1]").unwrap(),
            Expr::index("C", Expr::bin(BinOp::Sub, Expr::var("i"), Expr::IntLit(1)))
        );
        assert!(matches!(parse_expr("T[i: P]").unwrap(), Expr::Append(..)));
        assert!(matches!(
            parse_expr("[0: 0.]").unwrap(),
            Expr::ArrayInit(..)
        ));
    }

    #[test]
    fn unary_forms() {
        assert_eq!(
            parse_expr("-x").unwrap(),
            Expr::un(UnOp::Neg, Expr::var("x"))
        );
        assert_eq!(
            parse_expr("~(a + b)").unwrap(),
            Expr::un(
                UnOp::Not,
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b"))
            )
        );
    }

    #[test]
    fn parses_example_1() {
        let b = parse_block_body(EXAMPLE_1).unwrap();
        let BlockBody::Forall(f) = b else {
            panic!("not forall")
        };
        assert_eq!(f.index_var, "i");
        assert_eq!(f.defs.len(), 1);
        assert_eq!(f.defs[0].name, "P");
        assert!(matches!(f.defs[0].value, Expr::If(..)));
        assert!(f.body.mentions("B"));
        assert!(f.body.mentions("P"));
    }

    #[test]
    fn parses_example_2() {
        let b = parse_block_body(EXAMPLE_2).unwrap();
        let BlockBody::ForIter(fi) = b else {
            panic!("not for-iter")
        };
        assert_eq!(fi.inits.len(), 2);
        assert_eq!(fi.inits[0].name, "i");
        assert_eq!(fi.inits[1].name, "T");
        assert!(matches!(fi.inits[1].value, Expr::ArrayInit(..)));
        assert!(matches!(fi.body, Expr::Let(..)));
    }

    #[test]
    fn parses_fig3_program() {
        let p = parse_program(FIG3_PROGRAM).unwrap();
        assert_eq!(p.param("m"), Some(32));
        assert_eq!(p.inputs.len(), 2);
        assert_eq!(p.blocks.len(), 2);
        assert_eq!(p.outputs, vec!["A".to_string(), "X".to_string()]);
        assert!(matches!(p.blocks[0].body, BlockBody::Forall(_)));
        assert!(matches!(p.blocks[1].body, BlockBody::ForIter(_)));
    }

    #[test]
    fn error_has_line_number() {
        let err = parse_program("param m = ;").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn keywords_not_identifiers() {
        assert!(parse_expr("endif + 1").is_err());
    }

    #[test]
    fn if_inside_arithmetic() {
        let e = parse_expr("2 * if c then 1 else 0 endif").unwrap();
        assert!(matches!(e, Expr::Bin(BinOp::Mul, _, _)));
    }
}
