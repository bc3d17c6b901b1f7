//! The service workload: an in-process `valpipe_serve::Server` driven
//! closed-loop over TCP by one client per core. One op is a session:
//! `open` a chain program with one seeded block literal changed, `run`
//! it to completion in chunks of 200 instruction times, `close` it.
//! Every tenant waits for each reply before sending the next request.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use valpipe_core::verify::stream_inputs;
use valpipe_core::{CompileLimits, CompileOptions, QueryEngine};
use valpipe_machine::{Kernel, RunSpec, Session, Simulator};
use valpipe_serve::{
    hibernate, Advance, Client, JobLimits, ServeConfig, Server, SessionCore, SessionSpec,
};
use valpipe_util::{Json, Rng};
use valpipe_val::interp::ArrayVal;

use crate::check::{self, Counts, OpOutput, OpRecord, Outputs};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, Phase, Report, SETUP_REPS};

const M: usize = 96;
const BLOCKS: usize = 40;
const WAVES: usize = 4;
/// Instruction times per `run` request.
const CHUNK: u64 = 200;
/// Sessions replayed in-process by the traced run.
const REPLAY: usize = 24;
/// The server's default instruction times between deadline checks.
const STEP_CHUNK: u64 = 512;
/// Replayed sessions take op ids from here, apart from the wire ops.
const REPLAY_OPS: u64 = 1 << 40;
/// The file name the server compiles session sources under.
const SESSION_FILE: &str = "<session>";

/// One session's program: block `block` scales by `literal`, not 0.5.
#[derive(Debug, Clone, Copy)]
struct Edit {
    block: usize,
    /// Rounded to the nine decimals the source spells out.
    literal: f64,
}

/// Draw `n` distinct edits.
fn draw_edits(rng: &mut Rng, n: usize) -> Vec<Edit> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let e = Edit {
            block: rng.range(1, BLOCKS + 1),
            literal: ((0.25 + 0.5 * rng.f64()) * 1e9).round() / 1e9,
        };
        if seen.insert((e.block, e.literal.to_bits())) {
            out.push(e);
        }
    }
    out
}

fn source(edit: Option<&Edit>) -> String {
    let base = valpipe_bench::workloads::chain_src(M, BLOCKS);
    let Some(e) = edit else { return base };
    let head = format!("S{} :", e.block);
    base.lines()
        .map(|l| {
            if l.starts_with(&head) {
                l.replacen("0.5 *", &format!("{:.9} *", e.literal), 1)
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn arrays_json(s0: &[f64]) -> Json {
    Json::Obj(vec![(
        "S0".to_string(),
        Json::Arr(s0.iter().map(|&v| Json::Float(v)).collect()),
    )])
}

fn spec(name: &str, src: String, s0: &[f64]) -> SessionSpec {
    SessionSpec {
        name: name.to_string(),
        source: src,
        arrays: arrays_json(s0),
        waves: WAVES,
        kernel: Kernel::default(),
        max_steps: 10_000_000,
    }
}

fn reply(r: std::io::Result<Json>) -> Result<Json, String> {
    let r = r.map_err(|e| format!("transport: {e}"))?;
    if r.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(r)
    } else {
        let kind = r
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("?");
        Err(format!("error reply ({kind}): {}", r.to_compact()))
    }
}

/// One session over the wire.
fn session(
    client: &mut Client,
    name: &str,
    src: String,
    s0: &[f64],
    tr: &mut Tracer,
    id: u64,
) -> Result<OpOutput, String> {
    let root = tr.begin("op", id, None);
    let open = Json::obj([
        ("op", Json::Str("open".to_string())),
        ("session", Json::Str(name.to_string())),
        ("source", Json::Str(src)),
        ("arrays", arrays_json(s0)),
        ("waves", Json::Int(WAVES as i64)),
    ]);
    let s = tr.begin("serve.open_rtt", id, root);
    let r = client.request(&open);
    tr.end(s);
    reply(r)?;
    let mut until = 0;
    let result = loop {
        until += CHUNK;
        let run = Json::obj([
            ("op", Json::Str("run".to_string())),
            ("session", Json::Str(name.to_string())),
            ("until", Json::Int(until as i64)),
        ]);
        let s = tr.begin("serve.run_rtt", id, root);
        let r = client.request(&run);
        tr.end(s);
        let r = reply(r)?;
        if r.get("done").and_then(Json::as_bool) == Some(true) {
            break r.get("result").cloned().ok_or("done without a result")?;
        }
        if until > 1_000_000 {
            return Err("session never finished".to_string());
        }
    };
    let close = Json::obj([
        ("op", Json::Str("close".to_string())),
        ("session", Json::Str(name.to_string())),
    ]);
    let s = tr.begin("serve.close_rtt", id, root);
    let r = client.request(&close);
    tr.end(s);
    reply(r)?;
    tr.end(root);

    let int = |k: &str| result.get(k).and_then(Json::as_i64).unwrap_or(-1) as u64;
    if result.get("stop").and_then(Json::as_str) != Some("quiescent")
        || result.get("sources_exhausted").and_then(Json::as_bool) != Some(true)
    {
        return Err(format!("run did not drain: stop {:?}", result.get("stop")));
    }
    let outputs: Outputs = match result.get("outputs") {
        Some(Json::Obj(ports)) => ports
            .iter()
            .map(|(port, packets)| {
                let vals = packets
                    .as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .map(|p| {
                        p.as_arr()
                            .and_then(|tv| tv.get(1)?.as_f64())
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                (port.clone(), vals)
            })
            .collect(),
        _ => return Err("result has no outputs".to_string()),
    };
    Ok(OpOutput {
        digest: check::digest(&outputs),
        counts: Counts {
            steps: int("steps"),
            fires: int("total_fires"),
            elements: outputs.iter().map(|(_, v)| v.len() as u64).sum(),
            outputs: outputs.len() as u64,
            ..Counts::default()
        },
        cells: 0,
        queries: (0, 0),
        outputs: Some(outputs),
    })
}

/// A bound server, its run loop, and one connected client per tenant.
struct Running {
    addr: String,
    dir: PathBuf,
    handle: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr, Duration::from_secs(60)).map_err(|e| format!("connect: {e}"))
}

impl Running {
    /// Bind, recover, connect, and finish one warm-up session on the
    /// unedited program, which warms the server's shared engine.
    fn start(dir: PathBuf, tenants: usize, s0: &[f64]) -> Result<Running, String> {
        let (server, _recovery) = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: tenants,
            hibernate_dir: dir.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = std::thread::spawn(move || server.run());
        let mut running = Running {
            addr,
            dir,
            handle,
            clients: Vec::new(),
        };
        for _ in 0..tenants {
            match connect(&running.addr) {
                Ok(c) => running.clients.push(c),
                Err(e) => {
                    running.stop().ok();
                    return Err(e);
                }
            }
        }
        let warm = session(
            &mut running.clients[0],
            "warmup",
            source(None),
            s0,
            &mut Tracer::new(Instant::now(), 0, false),
            0,
        );
        if let Err(e) = warm {
            running.stop().ok();
            return Err(format!("warm-up session: {e}"));
        }
        Ok(running)
    }

    fn stats(&mut self) -> Result<Json, String> {
        reply(self.clients[0].request(&Json::obj([("op", Json::Str("stats".to_string()))])))
    }

    /// Graceful `shutdown` drain, join the server, delete its directory.
    fn stop(mut self) -> Result<(), String> {
        let ack = connect(&self.addr).and_then(|mut c| {
            reply(c.request(&Json::obj([("op", Json::Str("shutdown".to_string()))])))
        });
        self.clients.clear();
        let joined = self.handle.join();
        std::fs::remove_dir_all(&self.dir).ok();
        ack?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// The edited programs, handed out in claim order.
struct Pool {
    edits: Vec<Edit>,
    next: AtomicUsize,
}

impl Pool {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.edits.len()).then_some(i)
    }
}

/// Closed-loop phase: every tenant runs sessions back to back until
/// `seconds` pass; with `trace`, every other session of each tenant is
/// traced.
fn phase(
    running: &mut Running,
    pool: &Pool,
    s0: &[f64],
    seconds: f64,
    origin: Instant,
    trace: bool,
) -> (Phase, Tracer) {
    let start = Instant::now();
    let per_client: Vec<(Phase, Tracer)> = std::thread::scope(|scope| {
        let joins: Vec<_> = running
            .clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(origin, lane as u32, false);
                    let mut p = Phase::default();
                    let mut k = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        let Some(set) = pool.claim() else { break };
                        let traced = trace && k % 2 == 1;
                        k += 1;
                        let src = source(Some(&pool.edits[set]));
                        let name = format!("s{set}");
                        tr.set_enabled(traced);
                        let t0 = Instant::now();
                        let result = session(client, &name, src, s0, &mut tr, set as u64);
                        p.push(
                            t0.elapsed().as_secs_f64() * 1e3,
                            traced,
                            OpRecord { set, result },
                        );
                    }
                    (p, tr)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    let mut tr = Tracer::new(origin, 0, false);
    for (p, t) in per_client {
        all.op_ms.extend(p.op_ms);
        all.traced_ms.extend(p.traced_ms);
        all.records.extend(p.records);
        tr.absorb(t);
    }
    (all, tr)
}

/// Time `f` as a child span of `root`, adding its wall time to `acc`.
fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    (id, root): (u64, Option<SpanId>),
    acc: &mut f64,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let s = tr.begin(name, id, root);
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64() * 1e3;
    tr.end(s);
    r
}

/// In-process replay of `edits` through `SessionCore::open_with_engine`
/// (on an engine warmed like the server's), `SessionCore::advance` and
/// `hibernate::save`, with `Session::restore_with_kernel` and
/// `Session::checkpoint` timed on each staged snapshot.
fn replay(edits: &[Edit], s0: &[f64], dir: &Path, tr: &mut Tracer) -> Result<Replay, String> {
    let mut engine = QueryEngine::new();
    SessionCore::open_with_engine(spec("warmup", source(None), s0), &mut engine)
        .map_err(|e| e.message)?;
    let mut mirror = QueryEngine::new();
    mirror
        .run_source(
            &CompileOptions::default(),
            &CompileLimits::service(),
            &[],
            &source(None),
            SESSION_FILE,
        )
        .map_err(|e| e.to_string())?;
    let arrays = HashMap::from([("S0".to_string(), ArrayVal::from_reals(0, s0))]);
    let mut rng = Rng::seed(0x5e55_1011);
    let mut out = Replay::default();
    for (j, e) in edits.iter().enumerate() {
        let id = REPLAY_OPS + j as u64;
        let name = format!("r{j}");
        let root = tr.begin("serve.replay", id, None);
        let at = (id, root);
        let mut in_process = 0.0;
        let mut core = timed(tr, "serve.open_core", at, &mut in_process, || {
            SessionCore::open_with_engine(spec(&name, source(Some(e)), s0), &mut engine)
                .map_err(|e| e.message)
        })?;
        out.queries = (
            engine.stats().total() as u64,
            engine.stats().executed() as u64,
        );
        out.cells = core.compiled.graph.node_count() as u64;
        out.exe_cells = core.exe.node_count() as u64;
        out.buffers = core.compiled.stats.loop_buffers + core.compiled.stats.global_buffers;
        timed(tr, "serve.hibernate_save", at, &mut in_process, || {
            hibernate::save(dir, &core, &mut rng).map_err(|e| e.to_string())
        })?;
        let mut until = 0;
        loop {
            until += CHUNK;
            let limits = JobLimits {
                until: Some(until),
                ..JobLimits::default()
            };
            let adv = timed(tr, "serve.advance", at, &mut in_process, || {
                core.advance(&limits, STEP_CHUNK).map_err(|e| e.message)
            })?;
            timed(tr, "serve.hibernate_save", at, &mut in_process, || {
                hibernate::save(dir, &core, &mut rng).map_err(|e| e.to_string())
            })?;
            match adv {
                Advance::Done { .. } => break,
                Advance::Paused { .. } => {}
                _ => return Err("replay hit a budget or deadline".to_string()),
            }
            out.snapshot_bytes
                .push(core.snapshot.as_bytes().len() as f64);
            // Probes beside the session's own path: restore the staged
            // snapshot and capture it again.
            let mut probe = 0.0;
            let live = timed(tr, "machine.restore", at, &mut probe, || {
                Session::restore_with_kernel(&core.exe, &core.snapshot, core.spec.kernel)
                    .map_err(|e| e.to_string())
            })?;
            let snap = timed(tr, "machine.checkpoint", at, &mut probe, || {
                Ok(live.checkpoint())
            })?;
            if snap.as_bytes() != core.snapshot.as_bytes() {
                return Err("restored snapshot does not re-capture identically".to_string());
            }
        }
        timed(tr, "serve.close_core", at, &mut in_process, || {
            hibernate::remove(dir, &name).map_err(|e| e.to_string())
        })?;
        // Probes: the open's compile again on a mirror of the engine, for
        // its pass breakdown, and the whole run in one drive, for what
        // the chunked advances cost beyond it.
        let out_c = crate::local::compile_traced(
            &mut mirror,
            (&CompileOptions::default(), &CompileLimits::service()),
            &core.spec.source,
            SESSION_FILE,
            tr,
            at,
        )?;
        let s = tr.begin("ir.expand_fifos", id, root);
        let exe = out_c.compiled.executable();
        tr.end(s);
        let s = tr.begin("machine.build", id, root);
        let sim = Simulator::builder(&exe)
            .inputs(stream_inputs(&out_c.compiled, &arrays, WAVES))
            .build();
        tr.end(s);
        let sim = sim.map_err(|e| format!("probe build: {e:?}"))?;
        let s = tr.begin("machine.drive", id, root);
        let driven = sim.drive(RunSpec::new());
        tr.end(s);
        driven.map_err(|e| format!("probe drive: {e:?}"))?;
        tr.end(root);
        out.in_process_ms.push(in_process);
    }
    Ok(out)
}

#[derive(Default)]
struct Replay {
    in_process_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    queries: (u64, u64),
    cells: u64,
    exe_cells: u64,
    buffers: u64,
}

/// Buffers and executable cells of one edited program, compiled the way
/// the server compiles it (for the determinism check).
fn structure(edit: &Edit, s0: &[f64]) -> Result<(u64, u64), String> {
    let core = SessionCore::open(spec("probe", source(Some(edit)), s0)).map_err(|e| e.message)?;
    Ok((
        core.compiled.stats.loop_buffers + core.compiled.stats.global_buffers,
        core.exe.node_count() as u64,
    ))
}

pub fn run(seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Result<Report, String> {
    let tenants = crate::nproc();
    let mut rng = Rng::seed(seed);
    let s0: Vec<f64> = (0..M + 2).map(|_| rng.f64()).collect();
    // Enough distinct edits for a session every 2 ms per tenant; running
    // dry is reported as a problem.
    let budget = (seconds * 500.0) as usize * tenants + 16;
    let pool = Pool {
        edits: draw_edits(&mut rng, budget),
        next: AtomicUsize::new(0),
    };
    let cross = draw_edits(&mut Rng::seed(seed.wrapping_add(1)), 1).remove(0);

    // Set-ups before the timed phase (the last one serves it) and after.
    let mut setup_s = Vec::new();
    let mut set_up = |rep: usize| -> Result<Running, String> {
        let dir = out_dir.join(format!("hibernate-{}-{rep}", std::process::id()));
        let t0 = Instant::now();
        let running = Running::start(dir, tenants, &s0)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(running)
    };
    for rep in 1..SETUP_REPS {
        set_up(rep)?.stop()?;
    }
    let mut running = set_up(0)?;

    let origin = Instant::now();
    let (phase, mut tr) = phase(&mut running, &pool, &s0, seconds, origin, trace);
    let peak_rss_mb = crate::peak_rss_mb();

    // Determinism across seeds: one more session, edited by the next seed.
    let n = pool.next.load(Ordering::Relaxed).min(pool.edits.len());
    let cross_rec = OpRecord {
        set: n,
        result: session(
            &mut running.clients[0],
            "cross",
            source(Some(&cross)),
            &s0,
            &mut Tracer::new(origin, 0, false),
            0,
        ),
    };
    let stats = running.stats();
    let stopped = Running::stop(running);

    let mut problems = Vec::new();
    if n == pool.edits.len() {
        problems.push("the edit pool ran dry before the phase ended".to_string());
    }
    let mut extra: HashMap<&'static str, f64> = HashMap::new();
    match stats {
        Ok(s) => {
            let get = |k: &str| s.get(k).and_then(Json::as_i64).unwrap_or(-1);
            if get("accepted") != get("completed") {
                problems.push(format!(
                    "server accepted {} jobs but completed {}",
                    get("accepted"),
                    get("completed")
                ));
            }
            let overloaded = get("rejected_overload");
            let refused = phase
                .records
                .iter()
                .filter(|r| matches!(&r.result, Err(e) if e.contains("(overloaded)")))
                .count() as i64;
            if overloaded != refused {
                problems.push(format!(
                    "stats rejected_overload {overloaded} but clients saw {refused} overloaded replies"
                ));
            }
            extra.insert("serve.overloaded", overloaded as f64);
            extra.insert("serve.hibernations", get("hibernations") as f64);
            extra.insert("serve.resumes", get("resumes") as f64);
        }
        Err(e) => problems.push(format!("stats: {e}")),
    }
    if let Err(e) = stopped {
        problems.push(format!("shutdown: {e}"));
    }
    for rep in SETUP_REPS..2 * SETUP_REPS {
        set_up(rep)?.stop()?;
    }

    let a = structure(&pool.edits[0], &s0)?;
    let b = structure(&cross, &s0)?;
    if a != b {
        problems.push(format!(
            "buffers/exe_cells drifted across seeds: {a:?} vs {b:?}"
        ));
    }

    if trace {
        let edits = &pool.edits[..REPLAY.min(n)];
        let mut rtr = Tracer::new(origin, 100, true);
        let dir = out_dir.join(format!("replay-{}", std::process::id()));
        let rp = replay(edits, &s0, &dir, &mut rtr);
        std::fs::remove_dir_all(&dir).ok();
        let rp = rp?;
        let rtt = tr.per_op("op");
        extra.insert(
            "serve.wire_queue_ms",
            median(&rtt) - median(&rp.in_process_ms),
        );
        extra.insert("serve.snapshot_bytes", median(&rp.snapshot_bytes));
        extra.insert("core.queries_total", rp.queries.0 as f64);
        extra.insert("core.queries_executed", rp.queries.1 as f64);
        extra.insert("ir.cells", rp.cells as f64);
        extra.insert("ir.exe_cells", rp.exe_cells as f64);
        extra.insert("balance.buffers", rp.buffers as f64);
        tr.absorb(rtr);
    }

    // Oracle: interpret every session's program after the timed phase.
    let mut edits: Vec<Edit> = pool.edits[..n].to_vec();
    edits.push(cross);
    let expected = oracle_all(&edits, &s0, tenants);
    let mut report = Report::build(Outcome {
        phase,
        cross: cross_rec,
        tracer: trace.then_some(tr),
        expected,
        waves: WAVES,
        setup_s,
        peak_rss_mb,
        extra,
    });
    report.problems.extend(problems);
    Ok(report)
}

/// The interpreter's result for every edited program, on `threads`
/// threads.
fn oracle_all(
    edits: &[Edit],
    s0: &[f64],
    threads: usize,
) -> Vec<Result<HashMap<String, ArrayVal>, String>> {
    let arrays = HashMap::from([("S0".to_string(), ArrayVal::from_reals(0, s0))]);
    let chunk = edits.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let joins: Vec<_> = edits
            .chunks(chunk)
            .map(|part| {
                let arrays = &arrays;
                scope.spawn(move || {
                    part.iter()
                        .map(|e| {
                            let prog = valpipe_val::parser::parse_program(&source(Some(e)))
                                .map_err(|e| format!("parse: {e}"))?;
                            check::oracle(&prog, arrays)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("oracle thread panicked"))
            .collect()
    })
}
