//! Property tests: randomly generated programs in the paper's pipelinable
//! class compile, run fully pipelined, and agree with the reference
//! interpreter on every packet. Cases come from the workspace's
//! deterministic PRNG, so every run checks the same programs.

use std::collections::HashMap;
use valpipe::compiler::verify::check_against_oracle;
use valpipe::val::ast::{BinOp, Expr, UnOp};
use valpipe::{compile_source, ArrayVal, CompileOptions, ForIterScheme};
use valpipe_util::Rng;

const M: usize = 10;

/// Render an expression back to Val source (the generator works on ASTs,
/// the compiler entry point takes source — exercising the parser too).
fn to_src(e: &Expr) -> String {
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
                _ => unreachable!("not generated"),
            };
            format!("({} {o} {})", to_src(a), to_src(b))
        }
        Expr::Un(UnOp::Neg, a) => format!("(-{})", to_src(a)),
        Expr::Un(UnOp::Not, a) => format!("(~{})", to_src(a)),
        Expr::Un(UnOp::Abs, _) => unreachable!("not generated"),
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
        _ => unreachable!("not generated"),
    }
}

fn idx(off: i64) -> Expr {
    match off.cmp(&0) {
        std::cmp::Ordering::Equal => Expr::var("i"),
        std::cmp::Ordering::Greater => Expr::bin(BinOp::Add, Expr::var("i"), Expr::IntLit(off)),
        std::cmp::Ordering::Less => Expr::bin(BinOp::Sub, Expr::var("i"), Expr::IntLit(-off)),
    }
}

fn leaf(r: &mut Rng) -> Expr {
    match r.below(4) {
        0 => Expr::RealLit(r.range_i64(-15, 16) as f64 / 10.0),
        1 => Expr::index("P", idx(r.range_i64(-1, 2))),
        2 => Expr::index("Q", idx(r.range_i64(-1, 2))),
        _ => Expr::var("i"),
    }
}

/// Numeric primitive expressions on `i` over arrays P and Q, recursion
/// bounded by `depth`. The weighted cases mirror the original generator:
/// arithmetic (4), negation (1), division by a constant (1), static
/// condition (2), dynamic condition (2), let sharing (1).
fn num_expr(r: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || r.chance(0.25) {
        return leaf(r);
    }
    match r.below(11) {
        0..=3 => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][r.below(3)];
            Expr::bin(op, num_expr(r, depth - 1), num_expr(r, depth - 1))
        }
        4 => Expr::un(UnOp::Neg, num_expr(r, depth - 1)),
        5 => Expr::bin(
            BinOp::Div,
            num_expr(r, depth - 1),
            Expr::RealLit(r.range_i64(2, 9) as f64),
        ),
        // Static condition (index-only): exercises control-stream gating.
        6 | 7 => Expr::if_(
            Expr::bin(
                BinOp::Lt,
                Expr::var("i"),
                Expr::IntLit(r.range_i64(1, M as i64)),
            ),
            num_expr(r, depth - 1),
            num_expr(r, depth - 1),
        ),
        // Dynamic condition (data-dependent): exercises Fig. 5 gating.
        8 | 9 => Expr::if_(
            Expr::bin(BinOp::Lt, num_expr(r, depth - 1), num_expr(r, depth - 1)),
            num_expr(r, depth - 1),
            num_expr(r, depth - 1),
        ),
        // Let sharing: the bound stream fans out to two consumers.
        _ => Expr::Let(
            vec![valpipe::val::Def {
                name: "p".into(),
                ty: None,
                value: num_expr(r, depth - 1),
            }],
            Box::new(Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::var("p"), Expr::var("p")),
                num_expr(r, depth - 1),
            )),
        ),
    }
}

fn inputs() -> HashMap<String, ArrayVal> {
    let p: Vec<f64> = (0..M + 2).map(|k| (k as f64 * 0.7).sin()).collect();
    let q: Vec<f64> = (0..M + 2).map(|k| (k as f64 * 0.3).cos()).collect();
    let mut h = HashMap::new();
    h.insert("P".to_string(), ArrayVal::from_reals(0, &p));
    h.insert("Q".to_string(), ArrayVal::from_reals(0, &q));
    h
}

/// Theorem 1/2 as a property: every random primitive forall compiles,
/// drains, matches the oracle, and streams at the maximum rate.
#[test]
fn random_primitive_forall_fully_pipelined() {
    for case in 0..48u64 {
        let mut r = Rng::seed(0x2001).fork(case);
        let body = num_expr(&mut r, 4);
        let src = format!(
            "param m = {M};
input P : array[real] [0, m+1];
input Q : array[real] [0, m+1];
Y : array[real] := forall i in [1, m] construct {} endall;
output Y;",
            to_src(&body)
        );
        let compiled = compile_source(&src, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("compile failed: {e}\nsource:\n{src}"));
        let report = check_against_oracle(&compiled, &inputs(), 24, 1e-9)
            .unwrap_or_else(|e| panic!("oracle failed: {e}\nsource:\n{src}"));
        let iv = report.run.timing("Y").interval().expect("steady state");
        // Full pipelining: never slower than the input-paced bound of
        // `2·(M+2)/M` (M useful outputs per (M+2)-element input wave), and
        // never faster than the machine's 2-instruction-time maximum.
        // (Bodies whose array reads are pruned by always-false static
        // conditions free-run at exactly 2.0.)
        let upper = 2.0 * (M as f64 + 2.0) / M as f64 + 0.25;
        assert!(
            iv > 1.9 && iv < upper,
            "interval {iv} outside [1.9, {upper}] for:\n{src}"
        );
    }
}

/// Theorem 3 as a property: every random *linear* recurrence matches
/// the oracle under both schemes, and the companion scheme is at least
/// as fast as Todd's.
#[test]
fn random_linear_recurrence_schemes_agree() {
    for case in 0..48u64 {
        let mut r = Rng::seed(0x2002).fork(case);
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
        let flip = r.flip();
        // Body: α·T[i-1] + β, sometimes written β + T[i-1]·α to exercise
        // the linearity analyzer's structural cases.
        let t = "T[i-1]".to_string();
        let body = if flip {
            format!("{} + ({t} * {})", to_src(&beta), to_src(&alpha))
        } else {
            format!("({} * {t}) + {}", to_src(&alpha), to_src(&beta))
        };
        let src = format!(
            "param m = {M};
input P : array[real] [0, m+1];
input Q : array[real] [0, m+1];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.25]
  do
    if i < m then iter T := T[i: {body}]; i := i + 1 enditer else T endif
  endfor;
output X;"
        );
        let mut ivs = Vec::new();
        for scheme in [ForIterScheme::Todd, ForIterScheme::Companion] {
            let mut opts = CompileOptions::default();
            opts.scheme = scheme;
            let compiled = compile_source(&src, &opts)
                .unwrap_or_else(|e| panic!("compile ({scheme:?}) failed: {e}\n{src}"));
            let report = check_against_oracle(&compiled, &inputs(), 24, 1e-9)
                .unwrap_or_else(|e| panic!("oracle ({scheme:?}) failed: {e}\n{src}"));
            ivs.push(report.run.timing("X").interval().expect("steady state"));
        }
        assert!(
            ivs[1] <= ivs[0] + 0.05,
            "companion ({}) slower than Todd ({}) for:\n{src}",
            ivs[1],
            ivs[0]
        );
    }
}
