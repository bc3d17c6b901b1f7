//! The service runs the program the compiler emits: the executable graph
//! `SessionCore::open` stages for a source has the fingerprint of
//! `compile_source(src, &CompileOptions::default()).executable()`, and the
//! graph it compiled is the one `valpipe compile --json` prints, over the
//! paper workloads, `examples/fig6.val` and every corpus program that
//! compiles within the service's resource limits.

use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use valpipe::machine::Kernel;
use valpipe::{compile_source, compile_source_limited, CompileLimits, CompileOptions};
use valpipe_bench::workloads::{example2_src, fig3_src, physics_src};
use valpipe_fuzz::Repro;
use valpipe_serve::SessionSpec;
use valpipe_util::json::Json;

/// The balanced graph `valpipe compile --json` prints for `src`.
fn cli_graph_json(src: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "valpipe_service_program_{}_{}.val",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_valpipe"))
        .arg("compile")
        .arg(&path)
        .arg("--json")
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn assert_service_runs_the_compiled_program(name: &str, src: &str) {
    let compiled = compile_source(src, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{name}: does not compile: {e}"));
    let want = compiled.executable();
    let arrays = compiled
        .flow
        .inputs
        .iter()
        .map(|(input, (lo, hi))| {
            let elems = (0..=hi - lo).map(|k| Json::Float(k as f64)).collect();
            (input.clone(), Json::Arr(elems))
        })
        .collect();
    let core = valpipe_serve::SessionCore::open(SessionSpec {
        name: "probe".into(),
        source: src.into(),
        arrays: Json::Obj(arrays),
        waves: 1,
        kernel: Kernel::EventDriven,
        max_steps: 1_000_000,
    })
    .unwrap_or_else(|e| panic!("{name}: the service rejects it: {}", e.message));
    assert_eq!(
        (core.exe.node_count(), core.exe.fingerprint()),
        (want.node_count(), want.fingerprint()),
        "{name}: the service's (cells, fingerprint) differ from the compiler's"
    );
    assert!(
        core.compiled.graph.to_json() == cli_graph_json(src),
        "{name}: the service compiles another graph than `valpipe compile`"
    );
}

#[test]
fn service_stages_the_compilers_executable_graph() {
    for (name, src) in [
        ("fig3_src(64)", fig3_src(64)),
        ("example2_src(64)", example2_src(64)),
        ("physics_src(64)", physics_src(64)),
    ] {
        assert_service_runs_the_compiled_program(name, &src);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fig6 = std::fs::read_to_string(root.join("examples/fig6.val")).expect("fig6.val");
    assert_service_runs_the_compiled_program("examples/fig6.val", &fig6);

    let mut corpus = 0;
    for entry in std::fs::read_dir(root.join("tests/corpus")).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "val") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable");
        let repro = Repro::parse(&text).expect("well-formed repro");
        // Rejected programs (the corpus records some) have no graph, and
        // the service rejects those over its limits.
        let opts = CompileOptions::default();
        if compile_source_limited(&repro.src, "<session>", &opts, &CompileLimits::service())
            .is_err()
        {
            continue;
        }
        assert_service_runs_the_compiled_program(&path.display().to_string(), &repro.src);
        corpus += 1;
    }
    assert!(corpus > 0, "no corpus program compiled");
}
