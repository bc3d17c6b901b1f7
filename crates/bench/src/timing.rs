//! A tiny wall-clock micro-benchmark harness for the `benches/` targets.
//!
//! The workspace builds with no external crates, so the benches cannot use
//! Criterion; this gives them the 20% they need — warmup, repeated timed
//! runs, and median/min reporting — with `harness = false` plain mains.

use std::time::Instant;

use valpipe_util::Json;

/// Whether the benches run in smoke mode: `cargo bench -- --test` passes
/// `--test` through to every `harness = false` main. Smoke mode is the
/// CI hook — each bench executes its workloads once to prove they still
/// run, without spending wall time on stable statistics.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Iteration count honoring smoke mode: `full` normally, 1 under
/// `--test`.
pub fn iters(full: usize) -> usize {
    if smoke_mode() {
        1
    } else {
        full
    }
}

/// Median wall time of `n` runs of `f`, after one warmup run.
pub fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|x, y| x.total_cmp(y));
    times[times.len() / 2]
}

/// Run `f` repeatedly and print a one-line summary.
///
/// `f` is called once for warmup, then `iters` timed times. The median and
/// minimum per-iteration wall times are printed; the return value of `f` is
/// folded into a black-box sink so the compiler cannot elide the work.
pub fn bench<T>(label: &str, iters: usize, mut f: impl FnMut() -> T) {
    assert!(iters > 0, "bench needs at least one iteration");
    sink(&f()); // warmup
    let mut times: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        sink(&f());
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let median = times[times.len() / 2];
    println!(
        "{label:<40} {:>10} median   {:>10} min   ({iters} iters)",
        human(median),
        human(times[0])
    );
}

/// Like [`bench`], but also prints a throughput figure for `elements`
/// items processed per call.
pub fn bench_throughput<T>(label: &str, iters: usize, elements: u64, mut f: impl FnMut() -> T) {
    assert!(iters > 0, "bench needs at least one iteration");
    sink(&f());
    let mut times: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        sink(&f());
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let median = times[times.len() / 2];
    println!(
        "{label:<40} {:>10} median   {:>12.0} elems/s   ({iters} iters)",
        human(median),
        elements as f64 / median
    );
}

fn human(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1}ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.3}s")
    }
}

/// Opaque value sink: reads the value through a volatile pointer so the
/// optimizer must treat it as used.
fn sink<T>(v: &T) {
    unsafe {
        std::ptr::read_volatile(&(v as *const T));
    }
}

/// Whether the bench should also emit machine-readable results:
/// `cargo bench -- --json` passes `--json` through to every
/// `harness = false` main.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Peak resident set size of this process so far, in bytes (Linux
/// `VmHWM`); `None` on platforms without `/proc`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Machine-readable bench trajectory: one record per measured
/// configuration, written as pretty JSON to `$BENCH_JSON_PATH` (or
/// `BENCH_machine.json` in the working directory) by [`BenchLog::write`].
#[derive(Debug, Default)]
pub struct BenchLog {
    records: Vec<Json>,
}

impl BenchLog {
    /// An empty log.
    pub fn new() -> BenchLog {
        BenchLog::default()
    }

    /// Record one measured configuration. `wall_s` is the median
    /// wall-clock seconds of one full run of `steps` instruction times
    /// over a `cells`-cell, `arcs`-arc graph.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        graph: &str,
        cells: usize,
        arcs: usize,
        kernel: &str,
        workers: usize,
        steps: u64,
        wall_s: f64,
    ) {
        self.record_with(graph, cells, arcs, kernel, workers, steps, wall_s, []);
    }

    /// [`BenchLog::record`] with extra key/value fields appended to the
    /// record — the kernels bench uses it to attach epoch/shard
    /// dimensions (`epoch_cap`, `shard_policy`) and the engine's
    /// per-run counters (`epochs`, `mean_horizon`, …).
    #[allow(clippy::too_many_arguments)]
    pub fn record_with(
        &mut self,
        graph: &str,
        cells: usize,
        arcs: usize,
        kernel: &str,
        workers: usize,
        steps: u64,
        wall_s: f64,
        extras: impl IntoIterator<Item = (&'static str, Json)>,
    ) {
        let mut fields = vec![
            ("graph", Json::Str(graph.to_string())),
            ("cells", Json::Int(cells as i64)),
            ("arcs", Json::Int(arcs as i64)),
            ("kernel", Json::Str(kernel.to_string())),
            ("workers", Json::Int(workers as i64)),
            ("steps", Json::Int(steps as i64)),
            ("wall_s", Json::Float(wall_s)),
            ("steps_per_sec", Json::Float(steps as f64 / wall_s)),
        ];
        fields.extend(extras);
        self.records.push(Json::obj(fields));
    }

    /// Write the trajectory file and return the path written. The
    /// destination honours `$BENCH_JSON_PATH` so CI smoke runs can emit
    /// to a scratch path without clobbering the committed baseline; by
    /// default it lands at the workspace root (cargo runs bench binaries
    /// with the *package* directory as the working directory, so a bare
    /// relative path would scatter baselines across `crates/`).
    pub fn write(&self, bench: &str) -> std::io::Result<String> {
        let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| {
            match std::env::var("CARGO_MANIFEST_DIR") {
                Ok(pkg) => format!("{pkg}/../../BENCH_machine.json"),
                Err(_) => "BENCH_machine.json".to_string(),
            }
        });
        self.write_at(&path, bench)?;
        Ok(path)
    }

    /// [`BenchLog::write`] to an explicit path. The file is a *trajectory*:
    /// a JSON array that each run APPENDS its document to, so successive
    /// bench invocations accumulate history instead of overwriting it. A
    /// pre-trajectory file holding a single object is wrapped into a
    /// one-element array first; an unreadable or corrupt file starts a
    /// fresh trajectory (benches must not fail on a damaged log).
    pub fn write_at(&self, path: &str, bench: &str) -> std::io::Result<()> {
        let doc = Json::obj([
            ("bench", Json::Str(bench.to_string())),
            ("smoke", Json::Bool(smoke_mode())),
            (
                "host_cores",
                Json::Int(std::thread::available_parallelism().map_or(0, |p| p.get() as i64)),
            ),
            (
                "peak_rss_bytes",
                peak_rss_bytes().map_or(Json::Null, |b| Json::Int(b as i64)),
            ),
            ("results", Json::Arr(self.records.clone())),
        ]);
        let mut trajectory = match std::fs::read_to_string(path)
            .ok()
            .and_then(|s| Json::parse(&s).ok())
        {
            Some(Json::Arr(entries)) => entries,
            Some(old @ Json::Obj(_)) => vec![old],
            _ => Vec::new(),
        };
        trajectory.push(doc);
        std::fs::write(path, Json::Arr(trajectory).to_pretty() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_at_appends_to_the_trajectory_and_wraps_legacy_objects() {
        let path = std::env::temp_dir()
            .join(format!("valpipe_benchlog_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);

        // A legacy single-object file is wrapped, not clobbered.
        std::fs::write(&path, "{\"bench\": \"legacy\", \"results\": []}\n").unwrap();
        let mut log = BenchLog::new();
        log.record("g", 3, 4, "event", 1, 100, 0.5);
        log.write_at(&path, "first").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let arr = doc.as_arr().expect("trajectory is an array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("bench").and_then(|b| b.as_str()), Some("legacy"));
        assert_eq!(arr[1].get("bench").and_then(|b| b.as_str()), Some("first"));

        // A second run appends.
        log.write_at(&path, "second").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("bench").and_then(|b| b.as_str()), Some("second"));

        // A corrupt file starts fresh instead of failing.
        std::fs::write(&path, "not json").unwrap();
        log.write_at(&path, "fresh").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.as_arr().unwrap().len(), 1);

        let _ = std::fs::remove_file(&path);
    }
}
