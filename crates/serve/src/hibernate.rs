//! Durable session containers: the hibernation format and crash-safe
//! directory scan.
//!
//! A hibernated session is one file, `<name>.vph`, framing the session's
//! defining spec (JSON metadata) and its machine state (a PR 3 snapshot)
//! behind a whole-file checksum:
//!
//! ```text
//! offset  size      field
//! 0       8         magic "VALPHIB1"
//! 8       8         meta_len   (u64 LE)
//! 16      meta_len  meta JSON  (name, source, arrays, waves, kernel,
//!                               max_steps, final)
//! ...     8         snap_len   (u64 LE)
//! ...     snap_len  snapshot bytes (self-validating: own magic,
//!                               version, checksums)
//! ...     8         checksum64 of everything above (u64 LE)
//! ```
//!
//! Writes are atomic (temporary file + rename), so a crash mid-write
//! leaves either the previous container or a stale `*.tmp` — never a
//! half-written `.vph`. [`scan`] runs at server startup: it sweeps stale
//! temporaries, validates every container (framing, checksum, snapshot
//! self-checks, recompile fingerprint), and returns both the recoverable
//! sessions and a typed reason for every file it skipped. A torn or
//! truncated container is a *skip*, never a panic.

use std::path::{Path, PathBuf};

use valpipe_machine::{Kernel, Snapshot, SnapshotError};
use valpipe_util::{checksum64, Json, Rng};

use crate::proto::{kernel_from_str, kernel_to_str};
use crate::session::{SessionCore, SessionSpec};

/// Container magic (distinct from the snapshot magic so a raw snapshot
/// dropped in the directory is diagnosed, not misparsed).
pub const HIBERNATE_MAGIC: [u8; 8] = *b"VALPHIB1";

/// Why a container could not be saved or loaded.
#[derive(Debug, Clone)]
pub enum HibernateError {
    /// Filesystem failure (transient: retried with backoff on save).
    Io(String),
    /// The container file exists but its framing or checksum is invalid.
    Corrupt(String),
    /// The embedded snapshot failed its own validation.
    Snapshot(SnapshotError),
    /// The stored source no longer compiles or no longer matches the
    /// snapshot's program fingerprint.
    Stale(String),
}

impl std::fmt::Display for HibernateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HibernateError::Io(m) => write!(f, "i/o: {m}"),
            HibernateError::Corrupt(m) => write!(f, "corrupt container: {m}"),
            HibernateError::Snapshot(e) => write!(f, "snapshot: {e}"),
            HibernateError::Stale(m) => write!(f, "stale container: {m}"),
        }
    }
}

impl std::error::Error for HibernateError {}

/// Path of a session's container inside the hibernation directory.
pub fn container_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.vph"))
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

/// Serialize a session core into container bytes.
pub fn encode(core: &SessionCore) -> Vec<u8> {
    let spec = &core.spec;
    let meta = Json::obj([
        ("name", Json::Str(spec.name.clone())),
        ("source", Json::Str(spec.source.clone())),
        ("arrays", spec.arrays.clone()),
        ("waves", Json::Int(spec.waves as i64)),
        ("kernel", Json::Str(kernel_to_str(spec.kernel))),
        ("max_steps", Json::Int(spec.max_steps as i64)),
        (
            "final",
            core.final_result
                .as_ref()
                .map_or(Json::Null, |s| Json::Str(s.clone())),
        ),
    ])
    .to_compact();
    let snap = core.snapshot.as_bytes();
    let mut out = Vec::with_capacity(32 + meta.len() + snap.len() + 8);
    out.extend_from_slice(&HIBERNATE_MAGIC);
    push_u64(&mut out, meta.len() as u64);
    out.extend_from_slice(meta.as_bytes());
    push_u64(&mut out, snap.len() as u64);
    out.extend_from_slice(snap);
    let sum = checksum64(&out);
    push_u64(&mut out, sum);
    out
}

/// Rebuild a session core from container bytes. Validates framing and
/// checksum, then recompiles the stored source and checks the snapshot's
/// program fingerprint against it — so a container whose source and
/// machine state have drifted apart is refused, not resumed wrongly.
pub fn decode(bytes: &[u8]) -> Result<SessionCore, HibernateError> {
    let corrupt = |m: &str| HibernateError::Corrupt(m.to_string());
    if bytes.len() < 8 || bytes[..8] != HIBERNATE_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let sum_at = bytes
        .len()
        .checked_sub(8)
        .ok_or_else(|| corrupt("too short"))?;
    let want = read_u64(bytes, sum_at).unwrap();
    if checksum64(&bytes[..sum_at]) != want {
        return Err(corrupt("checksum mismatch (torn or bit-rotted write)"));
    }
    let meta_len = read_u64(bytes, 8).ok_or_else(|| corrupt("truncated meta length"))? as usize;
    let meta_end = 16usize
        .checked_add(meta_len)
        .filter(|&e| e <= sum_at)
        .ok_or_else(|| corrupt("meta length out of range"))?;
    let meta = std::str::from_utf8(&bytes[16..meta_end])
        .map_err(|_| corrupt("meta is not UTF-8"))
        .and_then(|s| Json::parse(s).map_err(|e| corrupt(&format!("meta JSON: {e}"))))?;
    let snap_len =
        read_u64(bytes, meta_end).ok_or_else(|| corrupt("truncated snapshot length"))? as usize;
    let snap_end = meta_end
        .checked_add(8 + snap_len)
        .filter(|&e| e == sum_at)
        .ok_or(HibernateError::Snapshot(SnapshotError::Truncated))?;
    let snap_bytes = bytes[meta_end + 8..snap_end].to_vec();
    let snapshot = Snapshot::from_bytes(snap_bytes).map_err(HibernateError::Snapshot)?;

    let str_field = |k: &str| -> Result<String, HibernateError> {
        meta.get(k)
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or_else(|| corrupt(&format!("meta missing '{k}'")))
    };
    let int_field = |k: &str| -> Result<i64, HibernateError> {
        meta.get(k)
            .and_then(|v| v.as_i64())
            .ok_or_else(|| corrupt(&format!("meta missing '{k}'")))
    };
    let kernel_str = str_field("kernel")?;
    // Containers written while the epoch-batched `parallel:N` kernel
    // existed still name it. Snapshots are kernel-neutral and every
    // kernel's results are bit-identical, so such a session resumes on
    // the event kernel, the one that kernel's steps fell back to.
    let kernel = match kernel_str.strip_prefix("parallel:") {
        Some(w) if w.parse::<usize>().is_ok() => Some(Kernel::EventDriven),
        _ => kernel_from_str(&kernel_str),
    };
    let spec = SessionSpec {
        name: str_field("name")?,
        source: str_field("source")?,
        arrays: meta
            .get("arrays")
            .cloned()
            .ok_or_else(|| corrupt("meta missing 'arrays'"))?,
        waves: int_field("waves")? as usize,
        kernel: kernel.ok_or_else(|| corrupt(&format!("unknown kernel '{kernel_str}'")))?,
        max_steps: int_field("max_steps")? as u64,
    };
    let final_result = match meta.get("final") {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };

    // Recompile and stage at step 0, then swap in the hibernated state.
    let mut core = SessionCore::open(spec).map_err(|e| {
        HibernateError::Stale(format!("stored spec no longer opens: {}", e.message))
    })?;
    // Fingerprint check: the snapshot must belong to this program. A
    // restore would catch the mismatch too, but checking here keeps the
    // staged snapshot consistent even for finished sessions (which never
    // restore again).
    if snapshot.fingerprint() != core.snapshot.fingerprint() {
        return Err(HibernateError::Snapshot(SnapshotError::ProgramMismatch {
            expected: core.snapshot.fingerprint(),
            found: snapshot.fingerprint(),
        }));
    }
    core.snapshot = snapshot;
    core.final_result = final_result;
    Ok(core)
}

/// Atomically persist `core` into `dir`, retrying transient I/O failures
/// with jittered exponential backoff (checkpoint contention — e.g. a
/// concurrent scan holding the file open on some platforms — is
/// transient; a full disk eventually is not).
pub fn save(dir: &Path, core: &SessionCore, rng: &mut Rng) -> Result<(), HibernateError> {
    let bytes = encode(core);
    let path = container_path(dir, &core.spec.name);
    let tmp = path.with_extension("vph.tmp");
    let mut delay_ms = 2u64;
    let mut last = String::new();
    for _ in 0..4 {
        let attempt = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&tmp, &bytes))
            .and_then(|()| std::fs::rename(&tmp, &path));
        match attempt {
            Ok(()) => return Ok(()),
            Err(e) => {
                last = e.to_string();
                let jitter = rng.below(delay_ms.max(1) as usize) as u64;
                std::thread::sleep(std::time::Duration::from_millis(delay_ms + jitter));
                delay_ms *= 2;
            }
        }
    }
    let _ = std::fs::remove_file(&tmp);
    Err(HibernateError::Io(format!(
        "persisting '{}' failed after retries: {last}",
        core.spec.name
    )))
}

/// Load one named container from `dir`.
pub fn load(dir: &Path, name: &str) -> Result<SessionCore, HibernateError> {
    let bytes =
        std::fs::read(container_path(dir, name)).map_err(|e| HibernateError::Io(e.to_string()))?;
    decode(&bytes)
}

/// Delete a session's container (used by explicit `close`).
pub fn remove(dir: &Path, name: &str) -> Result<(), HibernateError> {
    match std::fs::remove_file(container_path(dir, name)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(HibernateError::Io(e.to_string())),
    }
}

/// What a startup scan of the hibernation directory found.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Names of sessions with valid containers, sorted.
    pub recovered: Vec<String>,
    /// Stale temporary files swept (torn writes from a crash).
    pub swept_tmp: Vec<String>,
    /// Containers skipped, with the typed reason.
    pub skipped: Vec<(String, HibernateError)>,
}

/// Crash-recovery scan: sweep stale `*.tmp` files, then validate every
/// `*.vph` container without fully rebuilding it (full decode happens
/// lazily on first use). Invalid containers are reported and left on
/// disk for post-mortem — recovery never deletes data it cannot read.
pub fn scan(dir: &Path) -> Result<ScanReport, HibernateError> {
    let mut report = ScanReport::default();
    report.swept_tmp = Snapshot::sweep_stale_tmp(dir).map_err(HibernateError::Snapshot)?;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(HibernateError::Io(e.to_string())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| HibernateError::Io(e.to_string()))?;
        let path = entry.path();
        let Some(fname) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(name) = fname.strip_suffix(".vph") else {
            continue;
        };
        match std::fs::read(&path)
            .map_err(|e| HibernateError::Io(e.to_string()))
            .and_then(|bytes| decode(&bytes).map(|_| ()))
        {
            Ok(()) => report.recovered.push(name.to_string()),
            Err(e) => report.skipped.push((fname.to_string(), e)),
        }
    }
    report.recovered.sort();
    report.skipped.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(report)
}

/// Map a hibernate failure onto the wire error taxonomy.
pub fn to_error_body(e: &HibernateError) -> crate::proto::ErrorBody {
    use crate::proto::{ErrorBody, ErrorKind};
    match e {
        HibernateError::Io(m) => ErrorBody::new(ErrorKind::Io, m.clone()).retry_after(50),
        HibernateError::Corrupt(m) => ErrorBody::new(ErrorKind::SnapshotCorrupt, m.clone()),
        HibernateError::Snapshot(se) => ErrorBody::new(ErrorKind::SnapshotCorrupt, se.to_string()),
        HibernateError::Stale(m) => ErrorBody::new(ErrorKind::SnapshotCorrupt, m.clone()),
    }
}
