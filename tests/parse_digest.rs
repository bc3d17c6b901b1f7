//! Pins exactly what the whole-file parser returns: the AST, the
//! statement source map and every parse error's message and position,
//! over the examples, the regression corpus, generated programs, their
//! corrupted mutants and a list of malformed snippets. The digest below
//! was recorded from the parser before its lexer stopped copying
//! identifiers; any change to an AST, a span or an error text moves it.

use std::fmt::Write as _;
use std::path::Path;

use valpipe::val::parser::{parse_program_mapped_limited, EXAMPLE_1, EXAMPLE_2, FIG3_PROGRAM};
use valpipe_fuzz::{generate, mutate};
use valpipe_util::{checksum::checksum64, Rng};

/// Sources the parser must keep answering identically.
fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = vec![
        ("fig3.val".into(), FIG3_PROGRAM.into()),
        ("example1.val".into(), EXAMPLE_1.into()),
        ("example2.val".into(), EXAMPLE_2.into()),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in ["examples", "tests/corpus"] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|f| f.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "val"))
            .collect();
        files.sort();
        for p in files {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read_to_string(&p).unwrap()));
        }
    }
    let mut r = Rng::seed(0xD16E);
    for seed in 0..40u64 {
        let src = generate(seed).src;
        out.push((format!("gen{seed}.val"), mutate(&src, &mut r)));
        out.push((format!("gen{seed}.val"), src));
    }
    let deep = format!(
        "param m = 4;\ninput P : array[real] [0, m];\n\
         Y : array[real] := forall i in [0, m] construct {}P[i]{} endall;\noutput Y;\n",
        "(".repeat(300),
        ")".repeat(300)
    );
    let snippets = [
        // An unterminated block.
        "param m = 4;\ninput P : array[real] [0, m];\nY : array[real] := forall i in [0, m] construct P[i]",
        "Y : array[real] := for x : real := 0. do iter x := x + 1. enditer",
        // Keywords where an identifier belongs.
        "param forall = 3;",
        "input if : array[real] [0, 3];",
        "endall : array[real] := forall i in [0, 3] construct 1. endall;",
        "param m = 4;\nA : array[real] := forall in in [0, m] construct 1. endall;",
        "output then;",
        // Malformed literals and characters.
        "param m = 4;\nA : array[real] := forall i in [0, m] construct 1.2.3 endall;",
        "param m = 99999999999999999999;",
        "param m = 4 # 5;",
        "param m = -x;",
        // Truncations and stray tokens.
        "",
        "% only a comment\n",
        "param",
        "input P : integer [0, 3];",
        "output A, ;",
        "A : array[real] := while;",
        "A : array[array[array[real]]] := forall i in [0, 1], j in [0, 1] construct 1. endall;\noutput A;",
        "A : array[real] := forall i in [0, 3] construct let x := 1; in x endlet endall;",
        "A : array[real] := forall i in [0, 3] construct iter endall;",
        "A : array[real] := forall i in [0, 3] construct [i: 1.] endall;\noutput A;",
        "A : array[real] := forall i in [0, 3] construct ~-~1 <= .5 endall;",
    ];
    for (i, s) in snippets.iter().enumerate() {
        out.push((format!("snippet{i}.val"), s.to_string()));
    }
    out.push(("deep.val".into(), deep));
    out
}

/// Everything `parse_program_mapped_limited` returns for `src`, at the
/// default and at a tight nesting budget, rendered as text.
fn render(file: &str, src: &str) -> String {
    let mut s = String::new();
    for depth in [valpipe::val::DEFAULT_MAX_NESTING_DEPTH, 12] {
        let _ = writeln!(s, "== {file} (depth {depth})");
        match parse_program_mapped_limited(src, file, depth) {
            Ok((prog, map)) => {
                let _ = writeln!(s, "{prog:?}");
                let mut entries: Vec<String> = map
                    .entries()
                    .map(|(k, span)| format!("{k:?} {span:?} {:?}", map.snippet(*span)))
                    .collect();
                entries.sort();
                let _ = writeln!(s, "map {} {}", map.file, entries.join("\n"));
            }
            Err(e) => {
                let _ = writeln!(s, "error {:?} {}:{} {:?}", e.kind, e.line, e.col, e.message);
            }
        }
    }
    s
}

#[test]
fn parser_output_digest_is_unchanged() {
    let sources = sources();
    let mut text = String::new();
    let (mut parsed, mut failed) = (0, 0);
    for (file, src) in &sources {
        let r = render(file, src);
        parsed += r.matches("\nmap ").count();
        failed += r.matches("\nerror ").count();
        text.push_str(&r);
    }
    assert!(
        parsed > 40 && failed > 20,
        "{parsed} parsed, {failed} failed"
    );
    assert_eq!(
        format!("{:016x} {} bytes", checksum64(text.as_bytes()), text.len()),
        "9bd706b0af6f742c 127362 bytes",
        "the parser's output changed"
    );
}
