//! Perf-regression gate over the machine bench trajectory.
//!
//! Compares the newest document of a candidate `BENCH_machine.json`
//! trajectory against the newest *comparable* entries of a committed
//! baseline trajectory and fails (exit 1) when any workload's
//! `steps_per_sec` regressed by more than the allowed fraction.
//!
//! Two rows are comparable only when their whole identity tuple matches:
//! bench name, smoke flag, `host_cores`, graph, cell count, kernel,
//! workers and step count. Changing the workload or the
//! host therefore never produces a false regression — the row simply has
//! no baseline and is reported as uncompared. Rows faster than the noise
//! floor (`wall_s < 0.01`) are skipped: sub-10ms medians on a shared CI
//! box jitter far beyond any useful threshold.
//!
//! ```text
//! bench_gate [--baseline <file>] [--candidate <file>] [--max-regress <frac>]
//! ```
//!
//! Defaults: baseline `BENCH_machine.json`, candidate = baseline (the
//! newest doc of the committed trajectory is then gated against its own
//! history), threshold 0.15.

use valpipe_util::Json;

/// Noise floor: medians under this many seconds are too jittery to gate.
const NOISE_FLOOR_WALL_S: f64 = 0.01;

struct Row {
    key: String,
    steps_per_sec: f64,
    wall_s: f64,
}

/// The identity tuple of one result row, as a display-friendly string.
fn row_key(doc: &Json, row: &Json) -> Option<String> {
    let s = |j: &Json, k: &str| j.get(k).and_then(|v| v.as_str()).map(str::to_string);
    let i = |j: &Json, k: &str| j.get(k).and_then(|v| v.as_i64());
    let b = |j: &Json, k: &str| j.get(k).and_then(|v| v.as_bool());
    Some(format!(
        "{}/{}/{}cores {} {}cells {} w{} {}steps",
        s(doc, "bench")?,
        if b(doc, "smoke")? { "smoke" } else { "full" },
        i(doc, "host_cores")?,
        s(row, "graph")?,
        i(row, "cells")?,
        s(row, "kernel")?,
        i(row, "workers")?,
        i(row, "steps")?,
    ))
}

fn rows_of(doc: &Json) -> Vec<Row> {
    let Some(results) = doc.get("results").and_then(|r| r.as_arr()) else {
        return Vec::new();
    };
    results
        .iter()
        .filter_map(|row| {
            Some(Row {
                key: row_key(doc, row)?,
                steps_per_sec: row.get("steps_per_sec")?.as_f64()?,
                wall_s: row.get("wall_s")?.as_f64()?,
            })
        })
        .collect()
}

fn load_trajectory(path: &str) -> Vec<Json> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read '{path}': {e}")));
    match Json::parse(&text) {
        Ok(Json::Arr(docs)) => docs,
        Ok(doc @ Json::Obj(_)) => vec![doc],
        _ => fail(&format!("'{path}' is not a bench trajectory")),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("bench_gate: {message}");
    std::process::exit(2)
}

fn main() {
    let mut baseline_path = "BENCH_machine.json".to_string();
    let mut candidate_path: Option<String> = None;
    let mut max_regress = 0.15f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline_path = args
                    .next()
                    .unwrap_or_else(|| fail("--baseline needs a file"));
            }
            "--candidate" => {
                candidate_path = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--candidate needs a file")),
                );
            }
            "--max-regress" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| fail("--max-regress needs a fraction"));
                max_regress = match v.parse::<f64>() {
                    Ok(f) if f > 0.0 && f < 1.0 => f,
                    _ => fail(&format!("bad regression fraction '{v}'")),
                };
            }
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    let candidate_path = candidate_path.unwrap_or_else(|| baseline_path.clone());
    let self_compare = candidate_path == baseline_path;

    let mut baseline_docs = load_trajectory(&baseline_path);
    let candidate_docs = load_trajectory(&candidate_path);
    let Some(candidate) = candidate_docs.last() else {
        fail(&format!("'{candidate_path}' holds no bench documents"));
    };
    if self_compare {
        // The newest doc is the candidate; it must not be its own baseline.
        baseline_docs.pop();
    }

    // Newest comparable row per identity tuple, oldest-to-newest so later
    // docs override earlier ones. Within one doc, keep the best rate (a
    // tuple measured twice is represented by its best).
    let mut baseline: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for doc in &baseline_docs {
        let mut doc_best: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for row in rows_of(doc) {
            let best = doc_best.entry(row.key).or_insert(f64::MIN);
            *best = best.max(row.steps_per_sec);
        }
        baseline.extend(doc_best);
    }

    let mut compared = 0u32;
    let mut skipped = 0u32;
    let mut uncompared = 0u32;
    let mut regressions = Vec::new();
    for row in rows_of(candidate) {
        let Some(&base) = baseline.get(&row.key) else {
            uncompared += 1;
            continue;
        };
        if row.wall_s < NOISE_FLOOR_WALL_S {
            println!(
                "bench_gate: SKIP  {} ({}ms median is below the {}ms noise floor)",
                row.key,
                (row.wall_s * 1e3).round(),
                NOISE_FLOOR_WALL_S * 1e3,
            );
            skipped += 1;
            continue;
        }
        compared += 1;
        let ratio = row.steps_per_sec / base;
        let verdict = if ratio < 1.0 - max_regress {
            regressions.push(format!(
                "{}: {:.0} -> {:.0} steps/s ({:+.1}%)",
                row.key,
                base,
                row.steps_per_sec,
                (ratio - 1.0) * 100.0
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "bench_gate: {verdict:<4}  {}  {:.0} -> {:.0} steps/s ({:+.1}%)",
            row.key,
            base,
            row.steps_per_sec,
            (ratio - 1.0) * 100.0,
        );
    }

    println!(
        "bench_gate: {compared} compared, {skipped} below noise floor, {uncompared} without a baseline (threshold {:.0}%)",
        max_regress * 100.0
    );
    if !regressions.is_empty() {
        eprintln!("bench_gate: steps_per_sec regressions beyond the threshold:");
        for r in &regressions {
            eprintln!("bench_gate:   {r}");
        }
        std::process::exit(1);
    }
}
