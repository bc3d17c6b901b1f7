//! SERVICE — chaos soak for the multi-tenant simulation service.
//!
//! Spawns the real `valpipe-serve` binary as a child process, drives it
//! with concurrent clients, and `kill -9`s the whole server at random
//! moments, restarting it each time on a fresh port against the same
//! hibernation directory. The claims under test:
//!
//! 1. every client's final result is *bit-identical* to an in-process
//!    oracle run of the same session spec, despite crashes, retries,
//!    hibernation/eviction, and budget-bounded jobs along the way;
//! 2. a restarted server recovers every hibernated session from disk;
//! 3. a pipelined burst against a tiny queue is answered with structured
//!    `overloaded` rejections, not blocking or collapse;
//! 4. graceful shutdown drains and acknowledges; and
//! 5. no server generation ever panics (stderr is scanned).
//!
//! Flags: `--smoke` (1 kill, 2 clients — the CI gate), `--kills <n>`
//! (default 3), `--clients <n>` (default 4), `--seed <n>`; an explicit
//! count overrides `--smoke`.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::{FaultArgs, Report};
use valpipe_machine::Kernel;
use valpipe_serve::proto::kernel_to_str;
use valpipe_serve::{Advance, Client, JobLimits, SessionCore, SessionSpec};
use valpipe_util::{Json, Rng};

/// The per-client workload: the paper's Fig. 6 stencil at a small size,
/// with per-client wave counts so every session has distinct state.
fn client_spec(i: usize, waves: usize, kernel: Kernel) -> SessionSpec {
    SessionSpec {
        name: format!("chaos-{i}"),
        source: "param m = 4;\n\
                 input B : array[real] [0, m+1];\n\
                 input C : array[real] [0, m+1];\n\
                 A : array[real] :=\n\
                 forall i in [0, m+1]\n\
                 P : real :=\n\
                 if (i = 0)|(i = m+1) then C[i]\n\
                 else 0.25 * (C[i-1] + 2.*C[i] + C[i+1])\n\
                 endif;\n\
                 construct B[i]*(P*P)\n\
                 endall;\n\
                 output A;"
            .to_string(),
        arrays: Json::parse(r#"{"B":[0.5,1.5,2.5,3.5,4.5,5.5],"C":[1.0,2.0,3.0,2.0,1.0,0.5]}"#)
            .unwrap(),
        waves,
        kernel,
        max_steps: 2_000_000,
    }
}

fn open_request(spec: &SessionSpec) -> Json {
    Json::obj([
        ("op", Json::Str("open".to_string())),
        ("session", Json::Str(spec.name.clone())),
        ("source", Json::Str(spec.source.clone())),
        ("arrays", spec.arrays.clone()),
        ("waves", Json::Int(spec.waves as i64)),
        ("kernel", Json::Str(kernel_to_str(spec.kernel))),
        ("max_steps", Json::Int(spec.max_steps as i64)),
    ])
}

/// Locate the `valpipe-serve` binary next to this experiment binary.
fn server_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("exe dir").to_path_buf();
    for cand in [dir.join("valpipe-serve"), dir.join("../valpipe-serve")] {
        if cand.exists() {
            return cand;
        }
    }
    eprintln!(
        "error: valpipe-serve binary not found next to {}",
        exe.display()
    );
    eprintln!("build it first: cargo build --bin valpipe-serve");
    std::process::exit(1);
}

/// One server generation: the child process, its address, and a thread
/// draining stderr into a buffer scanned for panics at the end.
struct Generation {
    child: Child,
    addr: String,
    stderr: Arc<Mutex<String>>,
    drain: std::thread::JoinHandle<()>,
}

fn start_server(bin: &PathBuf, dir: &Path, seed: u64) -> Generation {
    let mut child = Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--dir",
            dir.to_str().unwrap(),
            "--workers",
            "2",
            "--queue",
            "3",
            "--max-live",
            "2",
            "--seed",
            &seed.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn valpipe-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();
    let stderr_pipe = child.stderr.take().expect("child stderr");
    let stderr = Arc::new(Mutex::new(String::new()));
    let sink = Arc::clone(&stderr);
    let drain = std::thread::spawn(move || {
        let mut buf = String::new();
        let mut r = BufReader::new(stderr_pipe);
        let _ = r.read_to_string(&mut buf);
        sink.lock().unwrap().push_str(&buf);
    });
    Generation {
        child,
        addr,
        stderr,
        drain,
    }
}

/// Finish a generation: reap the child, join the drain, return stderr.
fn reap(mut gen: Generation) -> String {
    let _ = gen.child.wait();
    let _ = gen.drain.join();
    let s = gen.stderr.lock().unwrap().clone();
    s
}

/// A client's view of the (moving) server address.
type AddrCell = Arc<Mutex<String>>;

/// Issue one request with reconnect-and-retry against transient
/// failures; returns the first definitive response. Panics on permanent
/// errors — in this soak every permanent error is a harness bug.
fn request_retry(addr: &AddrCell, req: &Json, rng: &mut Rng, tag: &str) -> Json {
    let mut client: Option<Client> = None;
    for _attempt in 0..4000 {
        let addr_now = addr.lock().unwrap().clone();
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(&addr_now, Duration::from_secs(20)) {
                Ok(c) => {
                    client = Some(c);
                    client.as_mut().unwrap()
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5 + rng.below(20) as u64));
                    continue;
                }
            },
        };
        match c.request(req) {
            Err(_) => {
                // Server died or address rotated mid-request: reconnect.
                client = None;
                std::thread::sleep(Duration::from_millis(5 + rng.below(20) as u64));
            }
            Ok(resp) => {
                if resp.get("ok").and_then(|v| v.as_bool()) == Some(true) {
                    return resp;
                }
                let err = resp.get("error").cloned().unwrap_or(Json::Null);
                let kind = err.get("kind").and_then(|v| v.as_str()).unwrap_or("?");
                let retryable = err
                    .get("retryable")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false);
                if retryable {
                    let after = err
                        .get("retry_after_ms")
                        .and_then(|v| v.as_i64())
                        .unwrap_or(10) as u64;
                    std::thread::sleep(Duration::from_millis(after + rng.below(10) as u64));
                } else if kind == "no_such_session" {
                    // A kill can land between admission and the open's
                    // container write; the caller re-opens idempotently.
                    return resp;
                } else {
                    panic!("{tag}: permanent failure {kind}: {}", err.to_compact());
                }
            }
        }
    }
    panic!("{tag}: no definitive response after 4000 attempts");
}

/// Drive one session to completion through the chaos: open (idempotent),
/// then budgeted and paused jobs with random absolute targets, retrying
/// through crashes, until `done`. Returns the result's compact JSON.
fn run_client(addr: &AddrCell, spec: &SessionSpec, seed: u64, stop_chaos: &AtomicBool) -> String {
    let mut rng = Rng::seed(seed);
    let tag = spec.name.clone();
    let open = open_request(spec);
    loop {
        let resp = request_retry(addr, &open, &mut rng, &tag);
        if resp.get("ok").and_then(|v| v.as_bool()) != Some(true) {
            continue; // no_such_session race: re-open
        }
        let mut now = resp.get("now").and_then(|v| v.as_i64()).unwrap_or(0) as u64;
        loop {
            let hop = 20 + rng.below(120) as u64;
            let mut req = vec![
                ("op".to_string(), Json::Str("run".to_string())),
                ("session".to_string(), Json::Str(spec.name.clone())),
                ("until".to_string(), Json::Int((now + hop) as i64)),
            ];
            // Some jobs also carry a tight step budget, exercising the
            // budget-exhaustion → retry path under chaos.
            if rng.below(4) == 0 {
                req.push((
                    "step_budget".to_string(),
                    Json::Int(40 + rng.below(150) as i64),
                ));
            }
            let resp = request_retry(addr, &Json::Obj(req), &mut rng, &tag);
            if resp.get("ok").and_then(|v| v.as_bool()) != Some(true) {
                break; // no_such_session: restart from open
            }
            if resp.get("done").and_then(|v| v.as_bool()) == Some(true) {
                stop_chaos.store(true, Ordering::SeqCst);
                return resp
                    .get("result")
                    .expect("done response carries result")
                    .to_compact();
            }
            now = resp
                .get("now")
                .and_then(|v| v.as_i64())
                .unwrap_or(now as i64) as u64;
            // Interactive pacing: keep each session alive long enough
            // for kills to land mid-stream.
            std::thread::sleep(Duration::from_millis(3 + rng.below(12) as u64));
        }
    }
}

/// In-process oracle: the same spec run uninterrupted through the same
/// encoder the server uses.
fn oracle(spec: &SessionSpec) -> String {
    let mut core = SessionCore::open(spec.clone()).expect("oracle spec opens");
    match core
        .advance(&JobLimits::default(), 1 << 40)
        .expect("oracle runs")
    {
        Advance::Done { .. } => {}
        _ => panic!("oracle must complete"),
    }
    core.final_result_json()
        .expect("oracle completed")
        .to_compact()
}

fn stat(addr: &AddrCell, key: &str, rng: &mut Rng) -> i64 {
    let resp = request_retry(
        addr,
        &Json::parse(r#"{"op":"stats"}"#).unwrap(),
        rng,
        "stats",
    );
    resp.get(key).and_then(|v| v.as_i64()).unwrap_or(-1)
}

pub(super) fn run(args: &FaultArgs) -> Report {
    let kills = args.kills.unwrap_or(if args.smoke { 1 } else { 3 });
    let clients = args.clients.unwrap_or(if args.smoke { 2 } else { 4 });
    let seed = args.seed.unwrap_or(0xC8A05);
    let mut rep = Report::new(
        "SERVICE: chaos soak — kill -9, restart, retry, compare bitwise",
        None,
    );
    println!();
    println!("{clients} clients, {kills} random server kills");

    let bin = server_bin();
    let dir = std::env::temp_dir().join(format!("valpipe_service_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("chaos dir");

    // Oracles first: the ground truth each client must reproduce.
    let kernels = [Kernel::EventDriven, Kernel::Scan, Kernel::ParallelEvent(2)];
    let specs: Vec<SessionSpec> = (0..clients)
        .map(|i| client_spec(i, 300 + 120 * i, kernels[i % kernels.len()]))
        .collect();
    let oracles: Vec<String> = specs.iter().map(oracle).collect();

    let gen0 = start_server(&bin, &dir, seed);
    let addr: AddrCell = Arc::new(Mutex::new(gen0.addr.clone()));
    let mut generations = vec![gen0];
    let stop_chaos = Arc::new(AtomicBool::new(false));

    // Clients race the chaos controller.
    let mut joins = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let addr = Arc::clone(&addr);
        let spec = spec.clone();
        let stop = Arc::clone(&stop_chaos);
        joins.push(std::thread::spawn(move || {
            run_client(&addr, &spec, 0x11AD + i as u64, &stop)
        }));
    }

    // Chaos controller: kill -9 the whole server at random moments, then
    // restart against the same hibernation directory on a fresh port.
    let mut rng = Rng::seed(seed ^ 0xDEAD);
    let mut stderr_logs = Vec::new();
    for kill_no in 0..kills {
        std::thread::sleep(Duration::from_millis(150 + rng.below(350) as u64));
        if stop_chaos.load(Ordering::SeqCst) {
            println!("kill {kill_no}: skipped (a client already finished)");
            break;
        }
        let mut old = generations.pop().unwrap();
        let pid = old.child.id();
        old.child.kill().expect("kill -9 server"); // SIGKILL on unix
        stderr_logs.push(reap(old));
        let next = start_server(&bin, &dir, seed + 1 + kill_no as u64);
        *addr.lock().unwrap() = next.addr.clone();
        println!(
            "kill {kill_no}: SIGKILL pid {pid}, restarted at {}",
            next.addr
        );
        generations.push(next);
    }

    let results: Vec<String> = joins
        .into_iter()
        .map(|j| j.join().expect("client"))
        .collect();

    // Claim 1: bitwise identity with the oracle, per client.
    let mut identical = true;
    for (i, (got, want)) in results.iter().zip(oracles.iter()).enumerate() {
        let same = got == want;
        identical &= same;
        println!(
            "client {i} ({}, {} waves): {}",
            kernel_to_str(specs[i].kernel),
            specs[i].waves,
            if same { "identical" } else { "DIFFERS" }
        );
    }

    // Claim 2: one final deterministic crash after every client is done,
    // so the restarted registry can only come from the hibernation
    // directory — no client ever re-opens on this generation.
    let mut rng2 = Rng::seed(seed ^ 0xF00D);
    {
        let mut old = generations.pop().unwrap();
        old.child.kill().expect("final kill");
        stderr_logs.push(reap(old));
        let next = start_server(&bin, &dir, seed + 0x9999);
        *addr.lock().unwrap() = next.addr.clone();
        generations.push(next);
    }
    let sessions_after = stat(&addr, "sessions", &mut rng2);
    let recovered_ok = sessions_after == clients as i64;
    println!("sessions recovered from disk after final kill: {sessions_after}/{clients}");

    // Claim 3: a pipelined burst against the 3-deep queue is rejected
    // with structured overload responses.
    let rejected_before = stat(&addr, "rejected_overload", &mut rng2);
    {
        let heavy = client_spec(900, 4000, Kernel::EventDriven);
        let mut heavy = SessionSpec {
            name: "burst".to_string(),
            ..heavy
        };
        heavy.max_steps = 10_000_000;
        request_retry(&addr, &open_request(&heavy), &mut rng2, "burst-open");
        let addr_now = addr.lock().unwrap().clone();
        let mut stream = std::net::TcpStream::connect(&addr_now).expect("burst connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let mut burst = String::new();
        for i in 0..10 {
            burst.push_str(&format!(
                "{{\"op\":\"run\",\"session\":\"burst\",\"until\":1000000,\"id\":{i}}}\n"
            ));
        }
        stream.write_all(burst.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        for _ in 0..10 {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
        }
    }
    let rejected_after = stat(&addr, "rejected_overload", &mut rng2);
    let overload_ok = rejected_after > rejected_before;
    println!("overload rejections: {rejected_before} -> {rejected_after}");
    let hibernations = stat(&addr, "hibernations", &mut rng2);
    let resumes = stat(&addr, "resumes", &mut rng2);
    println!("hibernations: {hibernations}, resumes: {resumes}");

    // Claim 4: graceful shutdown drains and acknowledges.
    let addr_now = addr.lock().unwrap().clone();
    let mut c = Client::connect(&addr_now, Duration::from_secs(120)).expect("shutdown connect");
    let resp = c
        .request(&Json::parse(r#"{"op":"shutdown"}"#).unwrap())
        .expect("shutdown reply");
    let graceful_ok = resp.get("drained").and_then(|v| v.as_bool()) == Some(true);
    println!(
        "graceful shutdown: drained={graceful_ok}, hibernated={}",
        resp.get("hibernated")
            .and_then(|v| v.as_i64())
            .unwrap_or(-1)
    );
    for gen in generations {
        stderr_logs.push(reap(gen));
    }

    // Claim 5: no generation panicked.
    let mut panicked = false;
    for (i, log) in stderr_logs.iter().enumerate() {
        if log.contains("panicked") {
            panicked = true;
            println!("--- generation {i} stderr ---\n{log}");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);

    println!();
    rep.claim(
        "results served across kill -9, restart, retry, and \
         hibernation are bit-identical to the uninterrupted oracle",
        identical,
    );
    rep.claim(
        "a restarted server recovers every hibernated session \
         from its container directory",
        recovered_ok,
    );
    rep.claim(
        "a burst beyond the bounded queue is rejected with \
         structured overload responses",
        overload_ok,
    );
    rep.claim(
        "graceful shutdown drains the queue and hibernates \
         every live session",
        graceful_ok,
    );
    rep.claim("no server generation panicked", !panicked);
    rep
}
