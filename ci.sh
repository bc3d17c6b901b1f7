#!/usr/bin/env sh
# Tier-1 gate: release build, full test suite, and a warning-free clippy
# pass. Run from the repository root; fails fast on the first error.
set -eu

# Build artifacts must never be committed.
if [ -n "$(git ls-files target/)" ]; then
    echo "ci: FAIL — build artifacts are tracked under target/" >&2
    exit 1
fi

# The tree must be rustfmt-clean.
cargo fmt --all --check

# Verdict lines are formatted only by the experiment report
# (Report::claim in report.rs), so every claim printed is one computed
# from data.
if grep -rn 'CLAIM \[' crates/bench/src | grep -v '^crates/bench/src/report.rs:'; then
    echo "ci: FAIL — a CLAIM line is formatted outside crates/bench/src/report.rs" >&2
    exit 1
fi

# The machine has one firing rule: operators are evaluated only by
# sim.rs::plan_cell, which both kernels and the closed-loop machine
# share.
if grep -rn 'apply_bin(\|apply_un(' crates/machine/src | grep -v '^crates/machine/src/sim.rs:'; then
    echo "ci: FAIL — an operator is evaluated outside crates/machine/src/sim.rs" >&2
    exit 1
fi

# Firing code reads only the executable form (code.rs): the closed-loop
# machine never indexes the Graph's cells or arcs, which stay behind for
# labels, provenance and reports.
if grep -n 'g\.nodes\[\|g\.arcs\[' crates/machine/src/closedloop.rs; then
    echo "ci: FAIL — firing code indexes the Graph instead of the executable form" >&2
    exit 1
fi

# The compiler keeps its memos in memory only: the frontend, IR, balancer
# and compiler-core crates write no files.
if grep -rnE 'fs::(write|rename|create_dir|remove_)|File::create' \
    crates/val/src crates/ir/src crates/balance/src crates/core/src; then
    echo "ci: FAIL — a compiler crate writes to the filesystem" >&2
    exit 1
fi

# The machine's run path writes no files: a periodic checkpoint leaves a
# run only through Session::drive_with's sink, and the caller decides
# where it goes (Snapshot::write_to, in snapshot.rs).
if grep -nE 'fs::|File::|write_to\(' crates/machine/src/sim.rs \
    crates/machine/src/arc.rs crates/machine/src/session.rs \
    crates/machine/src/fastforward.rs crates/machine/src/scheduler.rs \
    crates/machine/src/code.rs \
    crates/machine/src/closedloop.rs; then
    echo "ci: FAIL — the machine's run path touches the filesystem" >&2
    exit 1
fi

# The service persists a session by rewriting one of its two slot files
# in place (crates/serve/src/hibernate.rs): no temporary file, no rename.
if grep -rnE 'fs::rename|fs::write\(|\.tmp"' crates/serve/src; then
    echo "ci: FAIL — the service writes through a temporary file or a rename" >&2
    exit 1
fi

cargo build --release
# The benchmark harness (perfbench/, its own workspace with a committed
# lock file) must build against the current crates. `--locked` fails
# instead of rewriting perfbench/Cargo.lock.
cargo check --locked --manifest-path perfbench/Cargo.toml
cargo test -q
# A bare `cargo test` runs only the root package's tests; the library
# crates' own unit and integration suites run here.
cargo test -q --workspace --exclude valpipe

# The two step-loop kernels must agree bit-for-bit; run the dedicated
# equivalence and property suites explicitly so a regression names them.
# The event kernel's bitmap wakeup wheel is checked against a plain
# sort-and-dedup reference model the same way. The golden runs pin both
# kernels' whole results and final states against recorded digests (the
# root `cargo test` does not run the machine crate's integration tests).
cargo test -q -p valpipe-machine --lib scheduler::tests::wheel_matches_reference_model
cargo test -q -p valpipe-machine --test kernel_equivalence
cargo test -q -p valpipe-machine --test golden_runs
cargo test -q --test property_kernels

# Every experiment runs through one driver, `valpipe-exp <name>`, which
# exits 1 when any claim fails. run_exp writes one report to a file and
# stops CI, naming the run, on a nonzero exit. The driver's flag parser
# and report have unit tests of their own.
cargo test -q -p valpipe-bench --lib
cargo build --release -p valpipe-bench --bin valpipe-exp
run_exp() {
    out="$1"
    shift
    ./target/release/valpipe-exp "$@" > "$out" \
        || { echo "ci: FAIL — valpipe-exp $* exited nonzero (report: $out)" >&2; exit 1; }
}

# Committed reports are expected outputs: each deterministic experiment
# must reproduce results/<name>.txt byte for byte. (balance, incremental,
# fastforward and service print wall-clock times, pids or ports; their
# committed reports are not compared.)
for name in am_traffic closedloop delay faults fig2 fig3 fig4 fig5 fig6 fig7_fig8 \
    fuzz machine network predict scale soak synth; do
    run_exp "target/ci_exp_$name.txt" "$name"
    cmp -s "target/ci_exp_$name.txt" "results/$name.txt" \
        || { echo "ci: FAIL — valpipe-exp $name output differs from results/$name.txt" >&2; exit 1; }
done

# Program scale: per-wave throughput must not depend on the block count,
# and concurrency (average and measured peak fires per instruction time)
# must grow with the program.
grep -q 'CLAIM \[FAILS\]' target/ci_exp_scale.txt \
    && { echo "ci: FAIL — exp_scale claims did not hold" >&2; exit 1; }
test "$(grep -c 'CLAIM \[HOLDS\]' target/ci_exp_scale.txt)" -eq 2 \
    || { echo "ci: FAIL — exp_scale did not report both scale claims" >&2; exit 1; }

# Checkpoint/restore must replay bit-identically (snapshot format is
# pinned by the golden fixture; recovery at every step by the property
# suite; crash-against-disk by one soak trial).
cargo test -q -p valpipe-machine --test snapshot
cargo test -q --test property_snapshot
run_exp target/ci_soak.txt soak --trials 1
grep -q 'CLAIM \[HOLDS\] a run killed at a random step' target/ci_soak.txt \
    || { echo "ci: FAIL — exp_soak recovery claim did not hold" >&2; exit 1; }

# The compiler's machine dump for the paper's Example 1 is pinned: any
# change to the compiled graph or to the provenance table shows up as a
# diff against the committed golden. Pass stats go to stderr so the
# dump on stdout stays byte-comparable; regenerate with
#   ./target/release/valpipe check examples/fig6.val --emit=machine \
#       > tests/golden/ci_emit_fig6.txt
./target/release/valpipe check examples/fig6.val --emit=machine --pass-stats \
    > target/ci_emit_fig6.txt 2>target/ci_pass_stats.txt
cmp -s target/ci_emit_fig6.txt tests/golden/ci_emit_fig6.txt \
    || { echo "ci: FAIL — --emit=machine dump for examples/fig6.val drifted from tests/golden/ci_emit_fig6.txt" >&2; exit 1; }
grep -q '^total' target/ci_pass_stats.txt \
    || { echo "ci: FAIL — --pass-stats printed no summary row" >&2; exit 1; }

# Steady-state fast-forward must be an unobservable optimization:
# bit-identical results and post-skip snapshots on every kernel
# (dedicated + property suites), plus the reporter's >=100x step-skip
# claim on the Fig. 6 steady-state workload.
cargo test -q -p valpipe-machine --test fastforward
cargo test -q --test property_fastforward
run_exp target/ci_fastforward.txt fastforward --smoke
grep -q 'CLAIM \[FAILS\]' target/ci_fastforward.txt \
    && { echo "ci: FAIL — exp_fastforward claims did not hold" >&2; exit 1; }
grep -q 'CLAIM \[HOLDS\] fast-forward simulates >= 100x fewer' target/ci_fastforward.txt \
    || { echo "ci: FAIL — exp_fastforward did not report the step-skip claim" >&2; exit 1; }

# The simulation service must survive its chaos soak: concurrent clients
# vs. kill -9 + restart, bit-identical results, at least one structured
# overload rejection, hibernated-session recovery, graceful shutdown.
run_exp target/ci_service.txt service --smoke
grep -q 'CLAIM \[FAILS\]' target/ci_service.txt \
    && { echo "ci: FAIL — exp_service chaos soak claims did not hold" >&2; exit 1; }
grep -q 'CLAIM \[HOLDS\] results served across kill -9' target/ci_service.txt \
    || { echo "ci: FAIL — exp_service did not report the bit-identity claim" >&2; exit 1; }

# Robustness: a fixed-seed differential fuzz smoke (oracle vs. every
# kernel × mode × kill-restore, plus never-panic mutants) and byte-exact
# replay of every committed repro in tests/corpus/. The dedicated suites
# run first so a regression names them.
cargo test -q --test property_fuzz
cargo test -q --test corpus_replay
run_exp target/ci_fuzz.txt fuzz --trials 100 --seed 0xD1FF
grep -q 'CLAIM \[FAILS\]' target/ci_fuzz.txt \
    && { echo "ci: FAIL — exp_fuzz claims did not hold" >&2; exit 1; }
grep -q 'CLAIM \[HOLDS\] every valid generated program agrees' target/ci_fuzz.txt \
    || { echo "ci: FAIL — exp_fuzz did not report the differential claim" >&2; exit 1; }
grep -q 'CLAIM \[HOLDS\] all 5 committed corpus repros replay byte-identically' target/ci_fuzz.txt \
    || { echo "ci: FAIL — exp_fuzz did not replay the committed corpus" >&2; exit 1; }

# Incremental compilation (DESIGN.md §17): warm recompiles must be
# byte-identical to cold across random programs, single-block and
# cell-count edits, sequences of distinct programs and invalid mutants
# (dedicated property suite). The incremental experiment runs last, below.
cargo test -q --test property_incremental

cargo clippy --workspace --all-targets -- -D warnings

# Benchmarks must at least run: smoke mode shrinks workloads and skips
# the wall-clock speedup assertions (meaningless on shared CI machines).
# The kernels bench must also emit a well-formed machine-readable
# trajectory; CI writes it to a scratch path so the committed
# BENCH_machine.json baseline is never clobbered by a smoke run.
# (Name the bench targets explicitly: bare `cargo bench` also runs the
# lib/bin targets under the libtest harness, which rejects `--json`.)
BENCH_JSON_PATH="$(pwd)/target/ci_bench_smoke.json" \
    cargo bench -p valpipe-bench --bench compile --bench simulate \
    --bench balance --bench kernels --bench fastforward -- --test --json
test -s target/ci_bench_smoke.json \
    || { echo "ci: FAIL — bench trajectory JSON was not emitted" >&2; exit 1; }

# Perf-regression gate: the smoke run's kernels trajectory must stay
# within 15% steps/s of the newest comparable entries (same bench,
# smoke flag, host_cores, graph, kernel, workers, steps) in the
# committed baseline. Unmatched tuples (new workloads, different
# host) and sub-noise-floor rows pass through uncompared.
cargo run --release -q -p valpipe-bench --bin bench_gate -- \
    --baseline BENCH_machine.json --candidate target/ci_bench_smoke.json \
    || { echo "ci: FAIL — bench_gate found a steps/s regression beyond 15%" >&2; exit 1; }

# bench_gate compares only the newest candidate document, and the
# combined smoke file ends with the kernels doc — so the incremental
# compile rows (cold / warm-noop / warm-edit, DESIGN.md §17) get their
# own candidate file and gate.
BENCH_JSON_PATH="$(pwd)/target/ci_bench_compile.json" \
    cargo bench -p valpipe-bench --bench compile -- --test --json
cargo run --release -q -p valpipe-bench --bin bench_gate -- \
    --baseline BENCH_machine.json --candidate target/ci_bench_compile.json \
    || { echo "ci: FAIL — bench_gate found a compile-throughput regression beyond 15%" >&2; exit 1; }

# The incremental experiment must hold all three claims at 120 and at
# 1000 blocks — <5% of queries re-executed on a single-block edit,
# >=10x warm speedup, and a warm engine's output bit-identical to a
# fresh engine's across the workload suite and every committed corpus
# repro. It runs last: its speedup claim does not hold yet (ROADMAP
# item 1), and every other gate should still run before it stops CI.
for blocks in 120 1000; do
    out="target/ci_incremental_$blocks.txt"
    run_exp "$out" incremental --blocks "$blocks"
    grep -q 'CLAIM \[FAILS\]' "$out" \
        && { echo "ci: FAIL — exp_incremental --blocks $blocks claims did not hold" >&2; exit 1; }
    grep -q 'CLAIM \[HOLDS\] a single-block edit' "$out" \
        || { echo "ci: FAIL — exp_incremental --blocks $blocks did not report the query-reuse claim" >&2; exit 1; }
    grep -q 'CLAIM \[HOLDS\] cold and warm engine output is bit-identical' "$out" \
        || { echo "ci: FAIL — exp_incremental --blocks $blocks did not report the bit-identity claim" >&2; exit 1; }
done

echo "ci: all gates passed"
