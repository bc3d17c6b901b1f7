//! In-process integration tests for the service: admission control,
//! hibernation, graceful shutdown, and crash-recovery hygiene.

use std::path::{Path, PathBuf};
use std::time::Duration;

use valpipe_machine::Kernel;
use valpipe_serve::hibernate::{self, slot_path};
use valpipe_serve::{Client, ServeConfig, Server, SessionCore, SessionSpec};
use valpipe_util::Json;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("valpipe_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec_json(name: &str, waves: i64) -> Json {
    Json::parse(&format!(
        r#"{{"op":"open","session":"{name}","source":"param m = 3;\ninput A : array[real] [0, m];\nY : array[real] := forall i in [0, m] construct A[i] + 1. endall;\noutput Y;","arrays":{{"A":[1.0,2.0,3.0,4.0]}},"waves":{waves},"kernel":"event","max_steps":100000}}"#
    ))
    .unwrap()
}

fn core_spec(name: &str, waves: usize, kernel: Kernel) -> SessionSpec {
    SessionSpec {
        name: name.to_string(),
        source: "param m = 3;\ninput A : array[real] [0, m];\nY : array[real] := forall i in [0, m] construct A[i] + 1. endall;\noutput Y;".to_string(),
        arrays: Json::parse(r#"{"A":[1.0,2.0,3.0,4.0]}"#).unwrap(),
        waves,
        kernel,
        max_steps: 100_000,
    }
}

struct Running {
    addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(cfg: ServeConfig) -> Running {
    let (server, _recovery) = Server::bind(cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || server.run());
    Running { addr, thread }
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(30)).unwrap()
}

fn shut_down(r: Running) {
    let mut c = connect(&r.addr);
    let resp = c
        .request(&Json::parse(r#"{"op":"shutdown"}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        resp.get("drained").and_then(|v| v.as_bool()),
        Some(true),
        "shutdown must acknowledge a completed drain"
    );
    r.thread.join().unwrap().unwrap();
}

fn cfg_with(dir: PathBuf) -> ServeConfig {
    ServeConfig {
        hibernate_dir: dir,
        ..ServeConfig::default()
    }
}

#[test]
fn smoke_open_run_status_close() {
    let dir = temp_dir("smoke");
    let r = start(cfg_with(dir.clone()));
    let mut c = connect(&r.addr);

    let resp = c.request(&spec_json("s1", 3)).unwrap();
    assert_eq!(
        resp.get("ok").and_then(|v| v.as_bool()),
        Some(true),
        "{resp:?}"
    );
    assert_eq!(resp.get("resumed").and_then(|v| v.as_bool()), Some(false));

    // Re-open with the identical spec is idempotent.
    let resp = c.request(&spec_json("s1", 3)).unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(resp.get("resumed").and_then(|v| v.as_bool()), Some(true));

    // A conflicting spec is refused permanently.
    let resp = c.request(&spec_json("s1", 4)).unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(false));
    let err = resp.get("error").unwrap();
    assert_eq!(
        err.get("kind").and_then(|v| v.as_str()),
        Some("session_exists")
    );
    assert_eq!(err.get("retryable").and_then(|v| v.as_bool()), Some(false));

    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"s1"}"#).unwrap())
        .unwrap();
    assert_eq!(
        resp.get("ok").and_then(|v| v.as_bool()),
        Some(true),
        "{resp:?}"
    );
    assert_eq!(resp.get("done").and_then(|v| v.as_bool()), Some(true));
    let result = resp.get("result").unwrap();
    // 3 waves of 4 elements, each A[i] + 1.
    let y = result
        .get("outputs")
        .unwrap()
        .get("Y")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(y.len(), 12);

    let resp = c
        .request(&Json::parse(r#"{"op":"status","session":"s1"}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("done").and_then(|v| v.as_bool()), Some(true));

    let resp = c
        .request(&Json::parse(r#"{"op":"close","session":"s1"}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    // Close deleted both slots.
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "close left {left:?}");
    let resp = c
        .request(&Json::parse(r#"{"op":"status","session":"s1"}"#).unwrap())
        .unwrap();
    assert_eq!(
        resp.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|v| v.as_str()),
        Some("no_such_session")
    );

    shut_down(r);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_rejected_with_structured_retry_hint() {
    let dir = temp_dir("overload");
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..cfg_with(dir.clone())
    };
    let r = start(cfg);
    let mut c = connect(&r.addr);
    let resp = c.request(&spec_json("hot", 2000)).unwrap();
    assert_eq!(
        resp.get("ok").and_then(|v| v.as_bool()),
        Some(true),
        "{resp:?}"
    );

    // One worker, queue depth one: pipeline a burst of six runs in a
    // single write. The reader admits them far faster than the worker
    // can execute (each run simulates thousands of steps), so the
    // bounded queue must overflow and reject the tail of the burst.
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(&r.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut burst = String::new();
    for i in 0..6 {
        burst.push_str(&format!(
            "{{\"op\":\"run\",\"session\":\"hot\",\"until\":100000,\"id\":{i}}}\n"
        ));
    }
    stream.write_all(burst.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::new();
    for _ in 0..6 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        responses.push(Json::parse(&line).unwrap());
    }
    let rejected: Vec<&Json> = responses
        .iter()
        .filter(|resp| {
            resp.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|v| v.as_str())
                == Some("overloaded")
        })
        .collect();
    assert!(
        !rejected.is_empty(),
        "6 concurrent jobs on a 1-worker/1-slot queue must reject some: {responses:?}"
    );
    for resp in &rejected {
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("retryable").and_then(|v| v.as_bool()), Some(true));
        let after = err.get("retry_after_ms").and_then(|v| v.as_i64()).unwrap();
        assert!((25..75).contains(&after), "jittered hint, got {after}");
    }
    // The stats op must account for every rejection.
    let stats = c
        .request(&Json::parse(r#"{"op":"stats"}"#).unwrap())
        .unwrap();
    assert!(
        stats
            .get("rejected_overload")
            .and_then(|v| v.as_i64())
            .unwrap()
            >= rejected.len() as i64
    );

    shut_down(r);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hibernate_resume_is_bit_identical() {
    let dir = temp_dir("hib");
    let r = start(cfg_with(dir.clone()));
    let mut c = connect(&r.addr);
    c.request(&spec_json("h1", 5)).unwrap();

    // Advance partway, hibernate explicitly, then finish: the final
    // result must be byte-identical to an uninterrupted in-process run.
    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"h1","until":37}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("done").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(resp.get("now").and_then(|v| v.as_i64()), Some(37));
    let resp = c
        .request(&Json::parse(r#"{"op":"hibernate","session":"h1"}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("hibernated").and_then(|v| v.as_bool()), Some(true));

    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"h1"}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("done").and_then(|v| v.as_bool()), Some(true));
    let served = resp.get("result").unwrap().to_compact();

    let mut oracle = SessionCore::open(core_spec("oracle", 5, Kernel::EventDriven)).unwrap();
    oracle
        .advance(&valpipe_serve::JobLimits::default(), 1 << 40)
        .unwrap();
    assert_eq!(
        served,
        Json::parse(&oracle.final_result.unwrap())
            .unwrap()
            .to_compact()
    );

    // The resume was counted.
    let stats = c
        .request(&Json::parse(r#"{"op":"stats"}"#).unwrap())
        .unwrap();
    assert!(stats.get("resumes").and_then(|v| v.as_i64()).unwrap() >= 1);
    assert!(stats.get("hibernations").and_then(|v| v.as_i64()).unwrap() >= 1);

    shut_down(r);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_cap_evicts_lru_to_hibernation() {
    let dir = temp_dir("cap");
    let cfg = ServeConfig {
        max_live: 2,
        ..cfg_with(dir.clone())
    };
    let r = start(cfg);
    let mut c = connect(&r.addr);
    for name in ["a", "b", "c", "d"] {
        let resp = c.request(&spec_json(name, 2)).unwrap();
        assert_eq!(
            resp.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "{resp:?}"
        );
    }
    let stats = c
        .request(&Json::parse(r#"{"op":"stats"}"#).unwrap())
        .unwrap();
    assert_eq!(stats.get("sessions").and_then(|v| v.as_i64()), Some(4));
    assert!(
        stats.get("live").and_then(|v| v.as_i64()).unwrap() <= 2,
        "cap of 2 must hold: {stats:?}"
    );
    assert!(stats.get("hibernations").and_then(|v| v.as_i64()).unwrap() >= 2);
    // Evicted sessions still serve jobs (lazy resume).
    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"a"}"#).unwrap())
        .unwrap();
    assert_eq!(
        resp.get("done").and_then(|v| v.as_bool()),
        Some(true),
        "{resp:?}"
    );

    shut_down(r);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_hibernates_and_restart_recovers() {
    let dir = temp_dir("graceful");
    let r = start(cfg_with(dir.clone()));
    let mut c = connect(&r.addr);
    c.request(&spec_json("g1", 5)).unwrap();
    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"g1","until":23}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("now").and_then(|v| v.as_i64()), Some(23));
    shut_down(r);

    // New process generation: same directory, fresh server.
    let r2 = start(cfg_with(dir.clone()));
    let mut c = connect(&r2.addr);
    // The spec is re-openable (idempotent) and the state survived.
    let resp = c.request(&spec_json("g1", 5)).unwrap();
    assert_eq!(
        resp.get("resumed").and_then(|v| v.as_bool()),
        Some(true),
        "{resp:?}"
    );
    assert_eq!(resp.get("now").and_then(|v| v.as_i64()), Some(23));
    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"g1"}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("done").and_then(|v| v.as_bool()), Some(true));
    let served = resp.get("result").unwrap().to_compact();

    let mut oracle = SessionCore::open(core_spec("oracle", 5, Kernel::EventDriven)).unwrap();
    oracle
        .advance(&valpipe_serve::JobLimits::default(), 1 << 40)
        .unwrap();
    assert_eq!(
        served,
        Json::parse(&oracle.final_result.unwrap())
            .unwrap()
            .to_compact()
    );

    shut_down(r2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_leaves_tmp_files_and_skips_corrupt_containers_without_panicking() {
    let dir = temp_dir("hygiene");

    // A valid container, written through the real path.
    let core = SessionCore::open(core_spec("good", 2, Kernel::Scan)).unwrap();
    let mut rng = valpipe_util::Rng::seed(7);
    valpipe_serve::hibernate::save(&dir, &core, &mut rng).unwrap();

    // A temporary file the service never writes nor reads.
    std::fs::write(dir.join("torn.vph.tmp"), b"VALPHIB1 half-writ").unwrap();
    // Garbage that was never a container.
    std::fs::write(dir.join("noise.vph"), b"not a container at all").unwrap();
    // A truncated copy of the valid container (checksum cannot match).
    // A fresh session's first write is sequence 1, in slot 1.
    let good = std::fs::read(dir.join("good.1.vph")).unwrap();
    std::fs::write(dir.join("trunc.1.vph"), &good[..good.len() / 2]).unwrap();

    let (server, recovery) = Server::bind(cfg_with(dir.clone())).unwrap();
    assert_eq!(recovery.recovered, vec!["good".to_string()]);
    assert_eq!(
        std::fs::read(dir.join("torn.vph.tmp")).unwrap(),
        b"VALPHIB1 half-writ"
    );
    let skipped: Vec<&str> = recovery.skipped.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(skipped, vec!["noise.vph", "trunc.1.vph"]);
    for (_, why) in &recovery.skipped {
        let why = why.to_string();
        assert!(
            why.contains("magic") || why.contains("checksum") || why.contains("truncat"),
            "typed reason expected, got: {why}"
        );
    }
    // Invalid containers are left on disk for post-mortem.
    assert!(dir.join("noise.vph").exists());
    assert!(dir.join("trunc.1.vph").exists());

    // The recovered session is actually usable.
    let addr = server.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || server.run());
    let mut c = connect(&addr);
    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"good"}"#).unwrap())
        .unwrap();
    assert_eq!(
        resp.get("done").and_then(|v| v.as_bool()),
        Some(true),
        "{resp:?}"
    );
    shut_down(Running { addr, thread });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_kernel_slots_are_skipped_and_requests_rejected() {
    // The epoch-batched `parallel:N` kernel is gone: a slot whose meta
    // names it is corrupt like any other bad meta — skipped, left on
    // disk, never resumed.
    let dir = temp_dir("legacy_kernel");
    let core = SessionCore::open(core_spec("par", 5, Kernel::EventDriven)).unwrap();
    let slot = with_meta(&hibernate::encode_slot(&core, 1), |meta| {
        meta.replace(r#""kernel":"event""#, r#""kernel":"parallel:2""#)
    });
    assert_eq!(hibernate::verify(&slot).unwrap(), 1);
    std::fs::write(slot_path(&dir, "par", 1), &slot).unwrap();

    let unknown = "unknown kernel 'parallel:2'";
    let err = hibernate::load(&dir, "par").err().unwrap().to_string();
    assert!(err.contains(unknown), "{err}");
    let (server, recovery) = Server::bind(cfg_with(dir.clone())).unwrap();
    assert!(recovery.recovered.is_empty());
    let skipped: Vec<(&str, String)> = recovery
        .skipped
        .iter()
        .map(|(f, e)| (f.as_str(), e.to_string()))
        .collect();
    assert_eq!(skipped.len(), 1, "{skipped:?}");
    assert_eq!(skipped[0].0, "par.1.vph");
    assert!(skipped[0].1.contains(unknown), "{skipped:?}");
    assert!(slot_path(&dir, "par", 1).exists());

    let addr = server.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || server.run());
    let mut c = connect(&addr);
    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"par"}"#).unwrap())
        .unwrap();
    assert_eq!(
        resp.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|v| v.as_str()),
        Some("no_such_session"),
        "{resp:?}"
    );

    // A new request naming the deleted kernel is a typed bad request.
    let open = spec_json("fresh", 2)
        .to_compact()
        .replace(r#""kernel":"event""#, r#""kernel":"parallel:2""#);
    let resp = c.request(&Json::parse(&open).unwrap()).unwrap();
    let err = resp.get("error").unwrap();
    assert_eq!(
        err.get("kind").and_then(|v| v.as_str()),
        Some("bad_request")
    );
    assert_eq!(
        err.get("message").and_then(|v| v.as_str()),
        Some("unknown kernel 'parallel:2' (scan | event)")
    );

    shut_down(Running { addr, thread });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The single-file container of releases before slot files, built by
/// hand from a slot container's meta and snapshot: magic `VALPHIB1`,
/// meta, snapshot, and a checksum of every byte before it.
fn pre_slot_container(slot: &[u8]) -> Vec<u8> {
    let mut out = b"VALPHIB1".to_vec();
    out.extend_from_slice(&slot[16..slot.len() - 8]);
    let sum = valpipe_util::checksum64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

#[test]
fn pre_slot_container_is_skipped_and_left_beside_its_sessions_slots() {
    let dir = temp_dir("pre_slot");
    let core = SessionCore::open(core_spec("good", 2, Kernel::Scan)).unwrap();
    let mut rng = valpipe_util::Rng::seed(7);
    hibernate::save(&dir, &core, &mut rng).unwrap();
    let legacy = SessionCore::open(core_spec("legacy", 5, Kernel::EventDriven)).unwrap();
    let old = pre_slot_container(&hibernate::encode_slot(&legacy, 1));
    std::fs::write(dir.join("legacy.vph"), &old).unwrap();

    let check = |report: &valpipe_serve::ScanReport, recovered: &[&str]| {
        assert_eq!(report.recovered, recovered);
        assert_eq!(report.skipped.len(), 1, "{:?}", report.skipped);
        let (file, why) = &report.skipped[0];
        assert_eq!(file, "legacy.vph");
        assert!(why.to_string().contains("magic"), "{why}");
        assert_eq!(std::fs::read(dir.join("legacy.vph")).unwrap(), old);
    };
    let (server, recovery) = Server::bind(cfg_with(dir.clone())).unwrap();
    check(&recovery, &["good"]);

    // A session of the same name opens fresh, writes its own slots and
    // leaves the pre-slot file alone.
    let addr = server.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || server.run());
    let mut c = connect(&addr);
    let resp = c.request(&spec_json("legacy", 5)).unwrap();
    assert_eq!(
        resp.get("resumed").and_then(|v| v.as_bool()),
        Some(false),
        "{resp:?}"
    );
    let run = Json::parse(r#"{"op":"run","session":"legacy","until":23}"#).unwrap();
    let resp = c.request(&run).unwrap();
    assert_eq!(resp.get("now").and_then(|v| v.as_i64()), Some(23));
    shut_down(Running { addr, thread });

    let (_, recovery) = Server::bind(cfg_with(dir.clone())).unwrap();
    check(&recovery, &["good", "legacy"]);
    resume_and_finish(&dir, "legacy", 23);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The canonical result of an uninterrupted in-process 5-wave run.
fn oracle_result() -> String {
    let mut oracle = SessionCore::open(core_spec("oracle", 5, Kernel::EventDriven)).unwrap();
    oracle
        .advance(&valpipe_serve::JobLimits::default(), 1 << 40)
        .unwrap();
    Json::parse(&oracle.final_result.unwrap())
        .unwrap()
        .to_compact()
}

/// Open `name` on a server over `dir`, run it to 23 and then to 37, and
/// shut down: slot 0 holds sequence 2 (at 23), slot 1 sequence 3 (at 37).
fn two_slot_session(dir: &Path, name: &str) {
    let r = start(cfg_with(dir.to_path_buf()));
    let mut c = connect(&r.addr);
    c.request(&spec_json(name, 5)).unwrap();
    for until in [23, 37] {
        let run = format!(r#"{{"op":"run","session":"{name}","until":{until}}}"#);
        let resp = c.request(&Json::parse(&run).unwrap()).unwrap();
        assert_eq!(resp.get("now").and_then(|v| v.as_i64()), Some(until));
    }
    shut_down(r);
    for (slot, seq) in [(0, 2), (1, 3)] {
        let bytes = std::fs::read(slot_path(dir, name, slot)).unwrap();
        assert_eq!(hibernate::verify(&bytes).unwrap(), seq);
    }
}

/// Restart a server over `dir`, re-open `name` and check it resumed at
/// `now`, then finish it: the result must equal the uninterrupted run.
fn resume_and_finish(dir: &Path, name: &str, now: i64) {
    let r = start(cfg_with(dir.to_path_buf()));
    let mut c = connect(&r.addr);
    let resp = c.request(&spec_json(name, 5)).unwrap();
    assert_eq!(
        resp.get("resumed").and_then(|v| v.as_bool()),
        Some(true),
        "{resp:?}"
    );
    assert_eq!(resp.get("now").and_then(|v| v.as_i64()), Some(now));
    let run = format!(r#"{{"op":"run","session":"{name}"}}"#);
    let resp = c.request(&Json::parse(&run).unwrap()).unwrap();
    assert_eq!(resp.get("done").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(resp.get("result").unwrap().to_compact(), oracle_result());
    shut_down(r);
}

/// Offset of the snapshot inside a slot container.
fn snapshot_at(slot: &[u8]) -> usize {
    24 + u64::from_le_bytes(slot[16..24].try_into().unwrap()) as usize + 8
}

#[test]
fn torn_newer_slot_resumes_from_the_older_slot() {
    // A kill mid-write leaves the slot being written short, or with a
    // payload that no longer matches its checksum; the other slot still
    // holds the state after the last completed job.
    for tear in ["truncate", "flip"] {
        let dir = temp_dir(&format!("torn_{tear}"));
        two_slot_session(&dir, "t");
        let newer = slot_path(&dir, "t", 1);
        let mut bytes = std::fs::read(&newer).unwrap();
        let snap_at = snapshot_at(&bytes);
        if tear == "truncate" {
            bytes.truncate(snap_at + (bytes.len() - 8 - snap_at) / 2);
        } else {
            // The last payload byte: outside the frame checksum, inside
            // the snapshot's own payload checksum.
            let last = bytes.len() - 9;
            bytes[last] ^= 0x40;
        }
        std::fs::write(&newer, &bytes).unwrap();
        let (_, recovery) = Server::bind(cfg_with(dir.clone())).unwrap();
        assert_eq!(recovery.recovered, vec!["t".to_string()]);
        assert!(recovery.skipped.is_empty(), "{:?}", recovery.skipped);
        resume_and_finish(&dir, "t", 23);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn close_cut_short_after_the_older_slot_resumes_at_the_newest_state() {
    let dir = temp_dir("close_cut");
    two_slot_session(&dir, "c");
    // `close` deletes the older slot first; a kill right after that
    // leaves only the newer one.
    std::fs::remove_file(slot_path(&dir, "c", 0)).unwrap();
    resume_and_finish(&dir, "c", 37);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A slot container with `edit` applied to its meta JSON, reframed with
/// a valid checksum.
fn with_meta(slot: &[u8], edit: impl Fn(&str) -> String) -> Vec<u8> {
    let snap_at = snapshot_at(slot);
    let meta = edit(std::str::from_utf8(&slot[24..snap_at - 8]).unwrap());
    let mut out = slot[..16].to_vec();
    out.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    out.extend_from_slice(meta.as_bytes());
    let covered = out.len() + 8 + 52;
    out.extend_from_slice(&slot[snap_at - 8..slot.len() - 8]);
    let sum = valpipe_util::checksum64(&out[..covered]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

#[test]
fn stale_slots_of_an_earlier_session_do_not_shadow_a_fresh_open() {
    let dir = temp_dir("stale_slots");
    // An earlier session named "s" left slot 0 at sequence 8 with a
    // valid frame but a source that no longer compiles, so recovery
    // skips it and leaves it on disk.
    let old = SessionCore::open(core_spec("s", 5, Kernel::EventDriven)).unwrap();
    let stale = with_meta(&hibernate::encode_slot(&old, 8), |meta| {
        meta.replace("output Y;", "output Gone;")
    });
    assert_eq!(hibernate::verify(&stale).unwrap(), 8);
    std::fs::write(slot_path(&dir, "s", 0), &stale).unwrap();

    let (server, recovery) = Server::bind(cfg_with(dir.clone())).unwrap();
    assert!(recovery.recovered.is_empty());
    let skipped: Vec<&str> = recovery.skipped.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(skipped, vec!["s.0.vph"]);
    let addr = server.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || server.run());
    let mut c = connect(&addr);
    let resp = c.request(&spec_json("s", 5)).unwrap();
    assert_eq!(resp.get("resumed").and_then(|v| v.as_bool()), Some(false));
    // The fresh session's first write removed the stale slot, so after a
    // restart its own sequence 1 is the newest container.
    assert!(!slot_path(&dir, "s", 0).exists());
    shut_down(Running { addr, thread });
    resume_and_finish(&dir, "s", 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_and_deadline_surface_as_retryable_stalls_with_reports() {
    let dir = temp_dir("budget");
    let r = start(cfg_with(dir.clone()));
    let mut c = connect(&r.addr);
    c.request(&spec_json("b1", 50)).unwrap();

    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"b1","step_budget":5}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(false));
    let err = resp.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(|v| v.as_str()), Some("stalled"));
    assert_eq!(err.get("retryable").and_then(|v| v.as_bool()), Some(true));
    let stall = err.get("stall").unwrap();
    assert_eq!(
        stall.get("kind").and_then(|v| v.as_str()),
        Some("budget_exhausted")
    );

    // Progress was preserved: the session sits at t=5 and a retry with
    // no budget completes the run.
    let resp = c
        .request(&Json::parse(r#"{"op":"status","session":"b1"}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("now").and_then(|v| v.as_i64()), Some(5));
    let resp = c
        .request(&Json::parse(r#"{"op":"run","session":"b1"}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("done").and_then(|v| v.as_bool()), Some(true));

    shut_down(r);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_config_binds_ephemeral_port_and_reads_it_back() {
    // Regression guard: the default bind address must request an
    // ephemeral port so parallel test servers never collide, and the
    // kernel-assigned port must be readable back before clients connect.
    assert!(
        ServeConfig::default().addr.ends_with(":0"),
        "default addr must not hardcode a port: {}",
        ServeConfig::default().addr
    );
    let (dir_a, dir_b) = (temp_dir("port_a"), temp_dir("port_b"));
    let a = start(cfg_with(dir_a.clone()));
    let b = start(cfg_with(dir_b.clone()));
    let pa: std::net::SocketAddr = a.addr.parse().unwrap();
    let pb: std::net::SocketAddr = b.addr.parse().unwrap();
    assert_ne!(pa.port(), 0);
    assert_ne!(pb.port(), 0);
    assert_ne!(pa.port(), pb.port(), "two servers must not share a port");
    shut_down(a);
    shut_down(b);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn run_jobs_accept_fastforward_mode_on_the_wire() {
    let dir = temp_dir("ffwire");
    let r = start(cfg_with(dir.clone()));
    let mut c = connect(&r.addr);

    // A long periodic stream: the steady-state shape fast-forward skips.
    c.request(&spec_json("ex", 400)).unwrap();
    let exact = c
        .request(&Json::parse(r#"{"op":"run","session":"ex"}"#).unwrap())
        .unwrap();
    assert_eq!(exact.get("done").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(exact.get("mode").and_then(|v| v.as_str()), Some("exact"));
    assert_eq!(exact.get("skipped_steps").and_then(|v| v.as_i64()), Some(0));

    c.request(&spec_json("ff", 400)).unwrap();
    let ff = c
        .request(
            &Json::parse(r#"{"op":"run","session":"ff","mode":"fastforward","verify_window":1}"#)
                .unwrap(),
        )
        .unwrap();
    assert_eq!(
        ff.get("done").and_then(|v| v.as_bool()),
        Some(true),
        "{ff:?}"
    );
    assert_eq!(ff.get("mode").and_then(|v| v.as_str()), Some("fastforward"));
    let skipped = ff.get("skipped_steps").and_then(|v| v.as_i64()).unwrap();
    assert!(skipped > 0, "fast-forward job must skip steps: {ff:?}");
    assert_eq!(
        ff.get("result").unwrap().get("outputs"),
        exact.get("result").unwrap().get("outputs"),
        "fast-forwarded job must produce identical outputs"
    );

    // Unknown modes are rejected up front, not silently run exactly.
    let bad = c
        .request(&Json::parse(r#"{"op":"run","session":"ff","mode":"warp"}"#).unwrap())
        .unwrap();
    assert_eq!(bad.get("ok").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(
        bad.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|v| v.as_str()),
        Some("bad_request")
    );

    // The cumulative savings counter surfaces in server stats.
    let stats = c
        .request(&Json::parse(r#"{"op":"stats"}"#).unwrap())
        .unwrap();
    let total = stats
        .get("ff_skipped_steps")
        .and_then(|v| v.as_i64())
        .unwrap();
    assert!(total >= skipped, "stats must accumulate skips: {stats:?}");

    shut_down(r);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_limit_source_is_a_structured_resource_limit_error() {
    let dir = temp_dir("limits");
    let r = start(cfg_with(dir.clone()));
    let mut c = connect(&r.addr);

    // Service compile limits cap nesting at 48; 60 levels must come back
    // as a structured, non-retryable resource_limit error — not a panic,
    // not a generic compile_error.
    let deep = format!(
        "param m = 3;\\ninput A : array[real] [0, m];\\nY : array[real] := forall i in [0, m] construct {}A[i]{} endall;\\noutput Y;",
        "(".repeat(60),
        ")".repeat(60)
    );
    let resp = c
        .request(
            &Json::parse(&format!(
                r#"{{"op":"open","session":"deep","source":"{deep}","arrays":{{"A":[1.0,2.0,3.0,4.0]}},"waves":2,"kernel":"event","max_steps":100000}}"#
            ))
            .unwrap(),
        )
        .unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(false));
    let err = resp.get("error").unwrap();
    assert_eq!(
        err.get("kind").and_then(|v| v.as_str()),
        Some("resource_limit"),
        "{resp:?}"
    );
    assert_eq!(err.get("retryable").and_then(|v| v.as_bool()), Some(false));
    let msg = err.get("message").and_then(|v| v.as_str()).unwrap();
    assert!(msg.contains("nesting deeper than 48 levels"), "{msg}");

    // The connection stays healthy for a well-formed session afterwards.
    let resp = c.request(&spec_json("ok-after-limit", 2)).unwrap();
    assert_eq!(
        resp.get("ok").and_then(|v| v.as_bool()),
        Some(true),
        "{resp:?}"
    );

    shut_down(r);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_request_line_is_rejected_and_drained() {
    use std::io::{BufRead, BufReader, Write};

    let dir = temp_dir("hugeline");
    let r = start(cfg_with(dir.clone()));

    // A request line past the 4 MiB cap must be answered with a
    // resource_limit error and the connection must survive: the reader
    // drains the oversized line and parses the next one normally.
    let mut stream = std::net::TcpStream::connect(&r.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut huge = String::with_capacity(5 << 20);
    huge.push_str(r#"{"op":"open","session":"big","source":""#);
    huge.push_str(&"x".repeat(5 << 20));
    huge.push_str("\"}\n");
    huge.push_str(r#"{"op":"stats"}"#);
    huge.push('\n');
    stream.write_all(huge.as_bytes()).unwrap();
    stream.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(&line).unwrap();
    assert_eq!(
        resp.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|v| v.as_str()),
        Some("resource_limit"),
        "{resp:?}"
    );

    line.clear();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(&line).unwrap();
    assert!(
        resp.get("sessions").is_some() || resp.get("ok").is_some(),
        "connection must survive the oversized line: {resp:?}"
    );

    shut_down(r);
    let _ = std::fs::remove_dir_all(&dir);
}
