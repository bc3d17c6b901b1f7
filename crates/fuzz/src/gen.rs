//! Seeded generator for random well-typed pipe-structured Val programs.
//!
//! This lifts the AST generators proven out in `tests/property_pipeline.rs`
//! to full multi-block source text: a chain of forall blocks (Theorems
//! 1–2 shapes) and linear for-iter recurrences (Theorem 3 shapes, legal
//! under both Todd's and the companion scheme), over inputs `P` and `Q`.
//!
//! Every generated program is valid by construction — it parses, type
//! checks, stays in the paper's pipelinable class, and every array read
//! is statically in range:
//!
//! * forall blocks range over `[1, m]` and read `P`/`Q` at offsets
//!   −1..=1 (in range over `[0, m+1]`) and earlier *forall* blocks at
//!   offset 0 (same `[1, m]` range);
//! * for-iter blocks run `i` from 1 while `i < m`, so bodies evaluate at
//!   `i ∈ [1, m−1]` and may read `P`/`Q` at offsets −1..=1 and the
//!   accumulator at `i−1` (its freshly appended prefix).
//!
//! A rejection of a generated program is therefore always compiler
//! behavior worth eyes, not generator noise. The generator places
//! conditionals at any expression position — operands, branches, and
//! condition operands alike. (Reconvergent fanout through gated
//! conditionals once tripped a phantom deadlock in the gate-fusion pass
//! and forced a placement restriction here; the fix is anchored by
//! `tests/corpus/fixed-*.val`, and campaigns still count typed
//! rejections separately so any regression is visible immediately.)

use valpipe_core::CompileOptions;
use valpipe_core::ForIterScheme;
use valpipe_util::Rng;
use valpipe_val::ast::{BinOp, Expr, UnOp};

/// One generated fuzz case: the program text plus the compile options and
/// run budgets the differential executor should use.
#[derive(Debug, Clone)]
pub struct GenCase {
    /// The seed this case was derived from (for reporting/repro notes).
    pub seed: u64,
    /// The program source text.
    pub src: String,
    /// Compile options (scheme / synthesis toggles drawn by the seed).
    pub opts: CompileOptions,
    /// Input waves the differential matrix feeds.
    pub waves: usize,
    /// Step budget for each machine run: exceeding it means the pipeline
    /// failed to converge (flagged as a stall).
    pub max_steps: u64,
}

/// Render a generated expression back to Val source. Mirrors the
/// property-suite renderer: fully parenthesized, so operator precedence
/// can never disagree between the generator and the parser.
pub fn to_src(e: &Expr) -> String {
    match e {
        Expr::IntLit(v) => format!("({v})"),
        Expr::RealLit(v) => {
            if v.fract() == 0.0 {
                format!("({v:.1})")
            } else {
                format!("({v})")
            }
        }
        Expr::BoolLit(v) => if *v { "true" } else { "false" }.to_string(),
        Expr::Var(n) => n.clone(),
        Expr::Bin(op, a, b) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Eq => "=",
                BinOp::Ne => "~=",
                BinOp::And => "&",
                BinOp::Or => "|",
                _ => "+", // not generated
            };
            format!("({} {o} {})", to_src(a), to_src(b))
        }
        Expr::Un(UnOp::Neg, a) => format!("(-{})", to_src(a)),
        Expr::Un(UnOp::Not, a) => format!("(~{})", to_src(a)),
        Expr::Index(a, i) => format!("{a}[{}]", to_src(i)),
        Expr::If(c, t, f) => format!(
            "(if {} then {} else {} endif)",
            to_src(c),
            to_src(t),
            to_src(f)
        ),
        Expr::Let(defs, body) => {
            let ds = defs
                .iter()
                .map(|d| format!("{} := {}", d.name, to_src(&d.value)))
                .collect::<Vec<_>>()
                .join("; ");
            format!("(let {ds} in {} endlet)", to_src(body))
        }
        _ => "(0.0)".to_string(), // not generated
    }
}

fn idx(off: i64) -> Expr {
    match off.cmp(&0) {
        std::cmp::Ordering::Equal => Expr::var("i"),
        std::cmp::Ordering::Greater => Expr::bin(BinOp::Add, Expr::var("i"), Expr::IntLit(off)),
        std::cmp::Ordering::Less => Expr::bin(BinOp::Sub, Expr::var("i"), Expr::IntLit(-off)),
    }
}

/// A leaf over inputs `P`/`Q` (offsets −1..=1), earlier forall blocks
/// (offset 0), the index variable, or a constant.
fn leaf(r: &mut Rng, priors: &[String]) -> Expr {
    match r.below(5) {
        0 => Expr::RealLit(r.range_i64(-15, 16) as f64 / 10.0),
        1 => Expr::index("P", idx(r.range_i64(-1, 2))),
        2 => Expr::index("Q", idx(r.range_i64(-1, 2))),
        3 if !priors.is_empty() => {
            let name = priors[r.below(priors.len())].clone();
            Expr::index(&name, idx(0))
        }
        _ => Expr::var("i"),
    }
}

/// Numeric primitive expression on `i`, recursion bounded by `depth`.
/// Weighted like the property-suite generator: arithmetic (4), negation
/// (1), division by a constant (1), static condition (2), dynamic
/// condition (2), let sharing (1). Conditionals may appear at any
/// position, including inside the condition operand of another
/// conditional (the class reopened by the gate-fusion reconvergence fix).
fn num_expr(r: &mut Rng, depth: usize, m: i64, priors: &[String]) -> Expr {
    if depth == 0 || r.chance(0.25) {
        return leaf(r, priors);
    }
    match r.below(11) {
        0..=3 => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][r.below(3)];
            Expr::bin(
                op,
                num_expr(r, depth - 1, m, priors),
                num_expr(r, depth - 1, m, priors),
            )
        }
        4 => Expr::un(UnOp::Neg, num_expr(r, depth - 1, m, priors)),
        5 => Expr::bin(
            BinOp::Div,
            num_expr(r, depth - 1, m, priors),
            Expr::RealLit(r.range_i64(2, 9) as f64),
        ),
        6 | 7 => Expr::if_(
            Expr::bin(BinOp::Lt, Expr::var("i"), Expr::IntLit(r.range_i64(1, m))),
            num_expr(r, depth - 1, m, priors),
            num_expr(r, depth - 1, m, priors),
        ),
        8 | 9 => Expr::if_(
            Expr::bin(
                BinOp::Lt,
                num_expr(r, depth - 1, m, priors),
                num_expr(r, depth - 1, m, priors),
            ),
            num_expr(r, depth - 1, m, priors),
            num_expr(r, depth - 1, m, priors),
        ),
        _ => Expr::Let(
            vec![valpipe_val::ast::Def {
                name: "p".into(),
                ty: None,
                value: num_expr(r, depth - 1, m, priors),
            }],
            Box::new(Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::var("p"), Expr::var("p")),
                num_expr(r, depth - 1, m, priors),
            )),
        ),
    }
}

/// A linear recurrence body `α·T[i−1] + β` with coefficient streams drawn
/// from constants and input reads — the Theorem 3 shape both for-iter
/// schemes must agree on.
fn recurrence_body(r: &mut Rng) -> String {
    let alpha = match r.below(4) {
        0 => Expr::RealLit(r.range_i64(50, 99) as f64 / 100.0),
        1 => Expr::bin(BinOp::Mul, Expr::index("P", idx(0)), Expr::RealLit(0.5)),
        2 => Expr::index("P", idx(-1)),
        _ => Expr::IntLit(1),
    };
    let beta = match r.below(3) {
        0 => Expr::RealLit(r.range_i64(-20, 20) as f64 / 10.0),
        1 => Expr::index("Q", idx(0)),
        _ => Expr::bin(BinOp::Add, Expr::index("Q", idx(1)), Expr::RealLit(0.25)),
    };
    if r.flip() {
        format!("{} + (T[i-1] * {})", to_src(&beta), to_src(&alpha))
    } else {
        format!("({} * T[i-1]) + {}", to_src(&alpha), to_src(&beta))
    }
}

/// Generate one valid fuzz case from a seed. The same seed always yields
/// the same case.
pub fn generate(seed: u64) -> GenCase {
    let mut r = Rng::seed(0xF022).fork(seed);
    let m = r.range_i64(8, 17); // param m ∈ [8, 16]
    let mut src = format!(
        "param m = {m};\n\
         input P : array[real] [0, m+1];\n\
         input Q : array[real] [0, m+1];\n"
    );

    // 1–3 blocks; forall blocks chain (later ones may read earlier ones),
    // for-iter blocks read only the raw inputs. The last block is the
    // program output.
    let nblocks = 1 + r.below(3);
    let mut priors: Vec<String> = Vec::new();
    let mut last = String::new();
    for b in 0..nblocks {
        let name = format!("B{b}");
        // For-iter produces a shorter array over [0, m−2]; keep it out of
        // `priors` so downstream forall reads stay statically in range.
        if r.chance(0.3) {
            src.push_str(&format!(
                "{name} : array[real] :=\n  \
                 for i : integer := 1; T : array[real] := [0: 0.25]\n  \
                 do\n    \
                 if i < m then iter T := T[i: {}]; i := i + 1 enditer else T endif\n  \
                 endfor;\n",
                recurrence_body(&mut r)
            ));
        } else {
            let depth = 2 + r.below(3);
            let body = num_expr(&mut r, depth, m, &priors);
            src.push_str(&format!(
                "{name} : array[real] := forall i in [1, m] construct {} endall;\n",
                to_src(&body)
            ));
            priors.push(name.clone());
        }
        last = name;
    }
    src.push_str(&format!("output {last};\n"));

    let mut opts = CompileOptions::default();
    if r.flip() {
        opts.scheme = ForIterScheme::Companion;
    } else {
        opts.scheme = ForIterScheme::Todd;
    }
    opts.synthesize_generators = r.chance(0.3);

    let waves = 4 + r.below(5); // 4..=8 input waves
    GenCase {
        seed,
        src,
        opts,
        waves,
        // Generous: a fully pipelined run needs ~2·(m+2)·waves instruction
        // times; anything past this bound is a convergence failure.
        max_steps: (2 * (m as u64 + 2) * waves as u64 + 64) * 50,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(7);
        let b = generate(7);
        assert_eq!(a.src, b.src);
        assert_eq!(a.waves, b.waves);
        assert_eq!(a.max_steps, b.max_steps);
    }

    #[test]
    fn distinct_seeds_diverge() {
        assert_ne!(generate(1).src, generate(2).src);
    }

    #[test]
    fn generated_source_parses_and_typechecks() {
        for seed in 0..32 {
            let case = generate(seed);
            let prog = valpipe_val::parse_program(&case.src)
                .unwrap_or_else(|e| panic!("seed {seed} does not parse: {e}\n{}", case.src));
            valpipe_val::check_program(&prog)
                .unwrap_or_else(|e| panic!("seed {seed} does not typecheck: {e}\n{}", case.src));
        }
    }
}
