//! Smoke tests of the `valpipe` command-line driver.

use std::io::Write;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Write the test program to a file of its own: tests run in parallel,
/// and a shared path lets one test truncate the file another is reading.
fn write_program() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "valpipe_cli_test_{}_{}.val",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(
        f,
        "param m = 8;
input C : array[real] [0, m+1];
S : array[real] := forall i in [1, m] construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endall;
output S;"
    )
    .unwrap();
    path
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_valpipe"))
}

#[test]
fn check_reports_blocks() {
    let p = write_program();
    let out = cli().arg("check").arg(&p).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("block S over [1, 8]"), "{text}");
}

#[test]
fn compile_emits_listing_and_json() {
    let p = write_program();
    let out = cli().arg("compile").arg(&p).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MULT"));
    assert!(text.contains("TGATE"));

    let out = cli().arg("compile").arg(&p).arg("--json").output().unwrap();
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    let parsed = valpipe_util::Json::parse(&json).unwrap();
    let nodes = parsed.get("nodes").and_then(|n| n.as_arr()).unwrap();
    assert!(nodes.len() > 5);
    // The CLI prints exactly the library's encoding of the program.
    let src = std::fs::read_to_string(&p).unwrap();
    let lib = valpipe::compile_source(&src, &valpipe::CompileOptions::default()).unwrap();
    assert_eq!(json, lib.graph.to_json());
}

#[test]
fn run_verifies_and_reports_rate() {
    let p = write_program();
    let out = cli()
        .arg("run")
        .arg(&p)
        .arg("--waves")
        .arg("25")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified"), "{text}");
    assert!(text.contains("interval"), "{text}");
}

#[test]
fn dot_emits_graphviz() {
    let p = write_program();
    let out = cli().arg("dot").arg(&p).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

#[test]
fn bad_program_fails_with_diagnostic() {
    let path = std::env::temp_dir().join(format!("valpipe_cli_bad_{}.val", std::process::id()));
    std::fs::write(
        &path,
        "param m = 4;\nA : array[real] := forall i in [0, m] construct B[2*i] endall;\noutput A;\n",
    )
    .unwrap();
    let out = cli().arg("check").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "{err}");
}

fn write_deep_program(parens: usize) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "valpipe_cli_deep_{}_{parens}.val",
        std::process::id()
    ));
    std::fs::write(
        &path,
        format!(
            "param m = 8;\ninput C : array[real] [0, m+1];\n\
             S : array[real] := forall i in [1, m] construct {}C[i]{} endall;\noutput S;\n",
            "(".repeat(parens),
            ")".repeat(parens)
        ),
    )
    .unwrap();
    path
}

#[test]
fn over_limit_program_reports_resource_limit_and_exit_3() {
    // 80 levels breaches the default nesting budget (64): the driver
    // must answer with a structured resource_limit line and exit code 3
    // — not a panic, not a generic compile error.
    let p = write_deep_program(80);
    let out = cli().arg("compile").arg(&p).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "unexpected exit status");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("resource_limit: nesting deeper than 64 levels"),
        "{err}"
    );
}

#[test]
fn limits_flag_adjusts_the_budget() {
    let p = write_deep_program(80);
    // Lifting the depth budget compiles the same program...
    let out = cli()
        .arg("compile")
        .arg(&p)
        .arg("--limits")
        .arg("depth=none")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...and a tiny cell budget rejects even the smoke program, again
    // as a structured resource_limit, not a panic.
    let small = write_program();
    let out = cli()
        .arg("compile")
        .arg(&small)
        .arg("--limits")
        .arg("cells=3")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resource_limit:"), "{err}");
    assert!(err.contains("limit is 3"), "{err}");
}

#[test]
fn user_supplied_inputs() {
    let p = write_program();
    let vals: Vec<String> = (0..10).map(|i| format!("{}.0", i)).collect();
    let out = cli()
        .arg("run")
        .arg(&p)
        .arg("--waves")
        .arg("12")
        .arg("--input")
        .arg(format!("C={}", vals.join(",")))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
