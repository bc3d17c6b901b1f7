//! The service: a threaded TCP server with explicit admission control,
//! a bounded worker pool, and graceful drain-and-hibernate shutdown.
//!
//! Thread structure:
//!
//! ```text
//! acceptor (main)   one reader thread per connection   worker pool (N)
//!     │                     │                              │
//!     │ accept ───────────▶ │ parse line                   │
//!     │                     │ try_send ── bounded queue ──▶│ execute job
//!     │                     │    │ (full → overloaded)     │ reply on conn
//! ```
//!
//! Admission control is the queue itself: `sync_channel(queue_cap)` plus
//! `try_send`. A full queue is answered *immediately* with a structured
//! `overloaded` error carrying a jittered `retry_after_ms` — the server
//! never blocks a client on someone else's work and never buffers
//! unboundedly. Shutdown reverses the flow: stop accepting, poison the
//! queue with one `Quit` marker per worker (blocking sends, so every
//! already-admitted job drains first), join the workers, hibernate every
//! session, then acknowledge the requester.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use valpipe_util::{Json, Rng};

use crate::hibernate::ScanReport;
use crate::proto::{
    err_response, kernel_from_str, mode_from_str, mode_to_str, ok_response, valid_session_name,
    ErrorBody, ErrorKind,
};
use crate::registry::Registry;
use crate::session::{Advance, JobLimits, SessionSpec};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded job-queue depth; beyond this, requests are rejected with
    /// `overloaded` instead of queueing.
    pub queue_cap: usize,
    /// Maximum sessions held hot in memory (LRU hibernation beyond).
    pub max_live: usize,
    /// Directory for hibernation containers.
    pub hibernate_dir: PathBuf,
    /// Seed for retry jitter (deterministic tests).
    pub seed: u64,
    /// Instruction times between wall-clock deadline checks in a job.
    pub step_chunk: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 16,
            max_live: 8,
            hibernate_dir: PathBuf::from("hibernate"),
            seed: 0x7a1_d0e5,
            step_chunk: 512,
        }
    }
}

/// Serialized writer half of a connection; one response line at a time.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, response: &Json) {
        let mut line = response.to_compact();
        line.push('\n');
        let mut s = self.stream.lock().unwrap();
        // A client that hung up mid-job is not an error worth surfacing.
        let _ = s.write_all(line.as_bytes());
        let _ = s.flush();
    }
}

enum WorkItem {
    Job { req: Json, conn: Arc<ConnWriter> },
    Quit,
}

/// The shutdown requester's parked connection and request, filled by the
/// first `shutdown` and consumed once the drain completes.
type ShutdownReply = Arc<Mutex<Option<(Arc<ConnWriter>, Json)>>>;

/// Service counters, exposed via the `stats` op.
#[derive(Default)]
pub struct Stats {
    /// Jobs admitted to the queue.
    pub accepted: AtomicU64,
    /// Jobs rejected with `overloaded`.
    pub rejected_overload: AtomicU64,
    /// Jobs fully executed (success or structured failure).
    pub completed: AtomicU64,
    /// Instruction times skipped analytically by fast-forward jobs,
    /// summed across the whole service lifetime.
    pub ff_skipped_steps: AtomicU64,
}

/// A bound, not-yet-running server.
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    registry: Arc<Registry>,
    stats: Arc<Stats>,
    shutting_down: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listener, run crash recovery on the hibernation
    /// directory, and return the ready-to-run server plus the recovery
    /// report.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<(Server, ScanReport)> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let registry = Arc::new(Registry::new(
            cfg.hibernate_dir.clone(),
            cfg.max_live,
            cfg.seed,
        ));
        let report = registry
            .recover()
            .map_err(|e| std::io::Error::other(format!("hibernation directory unusable: {e}")))?;
        Ok((
            Server {
                cfg,
                listener,
                registry,
                stats: Arc::new(Stats::default()),
                shutting_down: Arc::new(AtomicBool::new(false)),
            },
            report,
        ))
    }

    /// The bound address (for ephemeral-port tests and the soak harness).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run until a `shutdown` request completes its drain. Blocks.
    pub fn run(self) -> std::io::Result<()> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<WorkItem>(self.cfg.queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for _ in 0..self.cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let registry = Arc::clone(&self.registry);
            let stats = Arc::clone(&self.stats);
            let chunk = self.cfg.step_chunk;
            workers.push(std::thread::spawn(move || {
                worker_loop(&rx, &registry, &stats, chunk)
            }));
        }

        // The shutdown requester's connection, parked until the drain
        // completes so the acknowledgement is truthful.
        let shutdown_reply: ShutdownReply = Arc::new(Mutex::new(None));
        let jitter = Arc::new(Mutex::new(Rng::seed(self.cfg.seed ^ 0x000b_5e55)));

        for stream in self.listener.incoming() {
            if self.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let tx = tx.clone();
            let registry = Arc::clone(&self.registry);
            let stats = Arc::clone(&self.stats);
            let shutting_down = Arc::clone(&self.shutting_down);
            let shutdown_reply = Arc::clone(&shutdown_reply);
            let jitter = Arc::clone(&jitter);
            let my_addr = self.listener.local_addr();
            std::thread::spawn(move || {
                reader_loop(
                    stream,
                    &tx,
                    &registry,
                    &stats,
                    &shutting_down,
                    &shutdown_reply,
                    &jitter,
                    my_addr.ok(),
                );
            });
        }

        // Drain: one Quit per worker, pushed through the same bounded
        // queue. Blocking sends guarantee every admitted job runs first.
        for _ in 0..workers.len() {
            let _ = tx.send(WorkItem::Quit);
        }
        for w in workers {
            let _ = w.join();
        }
        let hibernated = self.registry.hibernate_all();
        if let Some((conn, req)) = shutdown_reply.lock().unwrap().take() {
            conn.send(&ok_response(
                "shutdown",
                req.get("id"),
                vec![
                    ("drained".to_string(), Json::Bool(true)),
                    ("hibernated".to_string(), Json::Int(hibernated as i64)),
                ],
            ));
        }
        Ok(())
    }
}

/// Largest request line the reader will buffer. A hostile client that
/// never sends a newline must not grow server memory without bound; past
/// this point the line is rejected with `resource_limit` and discarded.
const MAX_REQUEST_LINE_BYTES: u64 = 4 << 20;

/// Discard input up to and including the next newline, in bounded chunks.
/// Returns false when the client hangs up first.
fn drain_to_newline(reader: &mut impl BufRead) -> bool {
    loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(_) => return false,
        };
        if buf.is_empty() {
            return false;
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            reader.consume(pos + 1);
            return true;
        }
        let n = buf.len();
        reader.consume(n);
    }
}

/// Per-connection reader: parse one request per line, admit or reject.
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    stream: TcpStream,
    tx: &SyncSender<WorkItem>,
    registry: &Arc<Registry>,
    stats: &Arc<Stats>,
    shutting_down: &Arc<AtomicBool>,
    shutdown_reply: &ShutdownReply,
    jitter: &Arc<Mutex<Rng>>,
    my_addr: Option<SocketAddr>,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
    });
    let mut reader = BufReader::new(read_half);
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        match (&mut reader)
            .take(MAX_REQUEST_LINE_BYTES)
            .read_until(b'\n', &mut bytes)
        {
            Ok(0) | Err(_) => return, // client hung up
            Ok(_) => {}
        }
        if !bytes.ends_with(b"\n") && bytes.len() as u64 >= MAX_REQUEST_LINE_BYTES {
            // Oversized request line: reject, then skip the rest of it so
            // the connection stays usable for the next request.
            conn.send(&err_response(
                "?",
                None,
                &ErrorBody::new(
                    ErrorKind::ResourceLimit,
                    format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                ),
            ));
            if !drain_to_newline(&mut reader) {
                return;
            }
            continue;
        }
        let line = match std::str::from_utf8(&bytes) {
            Ok(s) => s,
            Err(_) => {
                conn.send(&err_response(
                    "?",
                    None,
                    &ErrorBody::new(ErrorKind::BadRequest, "request line is not UTF-8"),
                ));
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match Json::parse(line) {
            Ok(j) => j,
            Err(e) => {
                conn.send(&err_response(
                    "?",
                    None,
                    &ErrorBody::new(ErrorKind::BadRequest, format!("bad JSON: {e}")),
                ));
                continue;
            }
        };
        let op = req
            .get("op")
            .and_then(|o| o.as_str())
            .unwrap_or("?")
            .to_string();
        let id = req.get("id").cloned();

        if op == "shutdown" {
            // Handled inline: flag, park the reply, poke the acceptor.
            let first = !shutting_down.swap(true, Ordering::SeqCst);
            if first {
                *shutdown_reply.lock().unwrap() = Some((Arc::clone(&conn), req));
                if let Some(addr) = my_addr {
                    // Unblock the blocking accept so the drain can start.
                    let _ = TcpStream::connect(addr);
                }
            } else {
                conn.send(&err_response(
                    "shutdown",
                    id.as_ref(),
                    &ErrorBody::new(ErrorKind::ShuttingDown, "shutdown already in progress")
                        .retry_after(100),
                ));
            }
            continue;
        }
        if shutting_down.load(Ordering::SeqCst) {
            conn.send(&err_response(
                &op,
                id.as_ref(),
                &ErrorBody::new(ErrorKind::ShuttingDown, "server is draining").retry_after(200),
            ));
            continue;
        }
        // Cheap introspection ops skip the queue: they never touch a
        // session lock, so answering them inline keeps them responsive
        // under load (and lets the soak harness observe an overloaded
        // server's counters).
        if op == "ping" || op == "stats" {
            conn.send(&answer_light(&op, id.as_ref(), registry, stats));
            continue;
        }
        match tx.try_send(WorkItem::Job {
            req,
            conn: Arc::clone(&conn),
        }) {
            Ok(()) => {
                stats.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) => {
                stats.rejected_overload.fetch_add(1, Ordering::Relaxed);
                let after = 25 + jitter.lock().unwrap().below(50) as u64;
                conn.send(&err_response(
                    &op,
                    id.as_ref(),
                    &ErrorBody::new(
                        ErrorKind::Overloaded,
                        "job queue is full; retry after the suggested delay",
                    )
                    .retry_after(after),
                ));
            }
            Err(TrySendError::Disconnected(_)) => {
                conn.send(&err_response(
                    &op,
                    id.as_ref(),
                    &ErrorBody::new(ErrorKind::ShuttingDown, "server is draining").retry_after(200),
                ));
            }
        }
    }
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<WorkItem>>>,
    registry: &Arc<Registry>,
    stats: &Arc<Stats>,
    step_chunk: u64,
) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let item = { rx.lock().unwrap().recv() };
        match item {
            Ok(WorkItem::Job { req, conn }) => {
                let op = req
                    .get("op")
                    .and_then(|o| o.as_str())
                    .unwrap_or("?")
                    .to_string();
                let id = req.get("id").cloned();
                let response = match execute(&op, &req, registry, stats, step_chunk) {
                    Ok(members) => ok_response(&op, id.as_ref(), members),
                    Err(e) => err_response(&op, id.as_ref(), &e),
                };
                stats.completed.fetch_add(1, Ordering::Relaxed);
                conn.send(&response);
            }
            Ok(WorkItem::Quit) | Err(_) => return,
        }
    }
}

fn answer_light(op: &str, id: Option<&Json>, registry: &Registry, stats: &Stats) -> Json {
    match op {
        "ping" => ok_response("ping", id, vec![]),
        _ => ok_response(
            "stats",
            id,
            vec![
                (
                    "accepted".to_string(),
                    Json::Int(stats.accepted.load(Ordering::Relaxed) as i64),
                ),
                (
                    "rejected_overload".to_string(),
                    Json::Int(stats.rejected_overload.load(Ordering::Relaxed) as i64),
                ),
                (
                    "completed".to_string(),
                    Json::Int(stats.completed.load(Ordering::Relaxed) as i64),
                ),
                (
                    "ff_skipped_steps".to_string(),
                    Json::Int(stats.ff_skipped_steps.load(Ordering::Relaxed) as i64),
                ),
                (
                    "hibernations".to_string(),
                    Json::Int(registry.stats.hibernations.load(Ordering::Relaxed) as i64),
                ),
                (
                    "resumes".to_string(),
                    Json::Int(registry.stats.resumes.load(Ordering::Relaxed) as i64),
                ),
                (
                    "sessions".to_string(),
                    Json::Int(registry.session_count() as i64),
                ),
                ("live".to_string(), Json::Int(registry.live_count() as i64)),
                (
                    "session_names".to_string(),
                    Json::Arr(
                        registry
                            .session_names()
                            .into_iter()
                            .map(Json::Str)
                            .collect(),
                    ),
                ),
            ],
        ),
    }
}

fn req_str(req: &Json, key: &str) -> Result<String, ErrorBody> {
    req.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| ErrorBody::new(ErrorKind::BadRequest, format!("missing string '{key}'")))
}

fn req_session(req: &Json) -> Result<String, ErrorBody> {
    let name = req_str(req, "session")?;
    if !valid_session_name(&name) {
        return Err(ErrorBody::new(
            ErrorKind::BadRequest,
            format!("invalid session name '{name}'"),
        ));
    }
    Ok(name)
}

/// Execute one queued job. Returns the success members or a structured
/// failure for the worker to wrap.
fn execute(
    op: &str,
    req: &Json,
    registry: &Registry,
    stats: &Stats,
    step_chunk: u64,
) -> Result<Vec<(String, Json)>, ErrorBody> {
    match op {
        "open" => {
            let spec = SessionSpec {
                name: req_session(req)?,
                source: req_str(req, "source")?,
                arrays: req
                    .get("arrays")
                    .cloned()
                    .ok_or_else(|| ErrorBody::new(ErrorKind::BadRequest, "missing 'arrays'"))?,
                waves: req
                    .get("waves")
                    .and_then(|v| v.as_i64())
                    .unwrap_or(1)
                    .max(0) as usize,
                kernel: match req.get("kernel").and_then(|v| v.as_str()) {
                    None => valpipe_machine::Kernel::default(),
                    Some(s) => kernel_from_str(s).ok_or_else(|| {
                        ErrorBody::new(
                            ErrorKind::BadRequest,
                            format!("unknown kernel '{s}' (scan | event)"),
                        )
                    })?,
                },
                max_steps: req
                    .get("max_steps")
                    .and_then(|v| v.as_i64())
                    .unwrap_or(10_000_000)
                    .max(1) as u64,
            };
            let info = registry.open(spec)?;
            Ok(match info {
                Json::Obj(m) => m,
                other => vec![("session".to_string(), other)],
            })
        }
        "run" => {
            let name = req_session(req)?;
            let limits = JobLimits {
                until: req
                    .get("until")
                    .and_then(|v| v.as_i64())
                    .map(|v| v.max(0) as u64),
                step_budget: req
                    .get("step_budget")
                    .and_then(|v| v.as_i64())
                    .map(|v| v.max(0) as u64),
                deadline: req
                    .get("deadline_ms")
                    .and_then(|v| v.as_i64())
                    .map(|ms| Duration::from_millis(ms.max(0) as u64)),
                // Absent means exact: existing clients see unchanged
                // replies modulo the two new echoed members.
                mode: match req.get("mode").and_then(|v| v.as_str()) {
                    None => valpipe_machine::ExecMode::Exact,
                    Some(m) => {
                        let verify = req
                            .get("verify_window")
                            .and_then(|v| v.as_i64())
                            .unwrap_or(0)
                            .max(0) as u64;
                        mode_from_str(m, verify).ok_or_else(|| {
                            ErrorBody::new(
                                ErrorKind::BadRequest,
                                format!("unknown mode '{m}' (exact | fastforward)"),
                            )
                        })?
                    }
                },
            };
            let mode_echo = (
                "mode".to_string(),
                Json::Str(mode_to_str(limits.mode).to_string()),
            );
            let record_skip = |skipped: u64| {
                stats.ff_skipped_steps.fetch_add(skipped, Ordering::Relaxed);
                ("skipped_steps".to_string(), Json::Int(skipped as i64))
            };
            registry.with_session(&name, |core| match core.advance(&limits, step_chunk)? {
                Advance::Done { skipped } => Ok(vec![
                    ("done".to_string(), Json::Bool(true)),
                    ("now".to_string(), Json::Int(core.now() as i64)),
                    mode_echo.clone(),
                    record_skip(skipped),
                    (
                        "result".to_string(),
                        core.final_result_json().unwrap_or(Json::Null),
                    ),
                ]),
                Advance::Paused { now, skipped } => Ok(vec![
                    ("done".to_string(), Json::Bool(false)),
                    ("now".to_string(), Json::Int(now as i64)),
                    mode_echo.clone(),
                    record_skip(skipped),
                ]),
                Advance::Budget {
                    now,
                    stall,
                    skipped,
                } => {
                    record_skip(skipped);
                    Err(ErrorBody::new(
                        ErrorKind::Stalled,
                        format!(
                            "step budget exhausted at t={now}; progress preserved, retry continues"
                        ),
                    )
                    .retry_after(10)
                    .with_stall(stall))
                }
                Advance::Deadline {
                    now,
                    stall,
                    skipped,
                } => {
                    record_skip(skipped);
                    Err(ErrorBody::new(
                        ErrorKind::DeadlineExceeded,
                        format!(
                            "deadline exceeded at t={now}; progress preserved, retry continues"
                        ),
                    )
                    .retry_after(10)
                    .with_stall(stall))
                }
            })
        }
        "status" => {
            let name = req_session(req)?;
            registry.with_session(&name, |core| {
                Ok(vec![
                    ("now".to_string(), Json::Int(core.now() as i64)),
                    ("done".to_string(), Json::Bool(core.final_result.is_some())),
                    (
                        "kernel".to_string(),
                        Json::Str(crate::proto::kernel_to_str(core.spec.kernel)),
                    ),
                    (
                        "result".to_string(),
                        core.final_result_json().unwrap_or(Json::Null),
                    ),
                ])
            })
        }
        "hibernate" => {
            let name = req_session(req)?;
            let info = registry.hibernate(&name)?;
            Ok(match info {
                Json::Obj(m) => m,
                other => vec![("hibernated".to_string(), other)],
            })
        }
        "close" => {
            let name = req_session(req)?;
            let info = registry.close(&name)?;
            Ok(match info {
                Json::Obj(m) => m,
                other => vec![("closed".to_string(), other)],
            })
        }
        other => Err(ErrorBody::new(
            ErrorKind::BadRequest,
            format!("unknown op '{other}'"),
        )),
    }
}
