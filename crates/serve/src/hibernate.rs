//! Durable session containers: the hibernation format, the two-slot
//! write-through protocol and the crash-safe directory scan.
//!
//! A hibernated session lives in two slot files, `<name>.0.vph` and
//! `<name>.1.vph`. Every [`save`] carries a sequence number one above
//! the last and rewrites slot `seq % 2` in place (no temporary file, no
//! rename), so the other slot keeps the previous write untouched. A slot
//! frames the session's defining spec (JSON metadata) and its machine
//! state (a §10 snapshot):
//!
//! ```text
//! offset  size      field
//! 0       8         magic "VALPHIB2"
//! 8       8         sequence number (u64 LE)
//! 16      8         meta_len   (u64 LE)
//! 24      meta_len  meta JSON  (name, source, arrays, waves, kernel,
//!                               max_steps, final)
//! ...     8         snap_len   (u64 LE)
//! ...     snap_len  snapshot bytes (own magic, version, header and
//!                               payload checksums)
//! ...     8         checksum64 of every byte before the snapshot
//!                   payload: the frame and the snapshot's 52-byte
//!                   header (u64 LE)
//! ```
//!
//! The trailing checksum stops at the snapshot header because that
//! header already holds the payload's checksum, which
//! `Snapshot::from_bytes` checks on every load: every byte of a slot is
//! covered, and a save checksums a few hundred bytes instead of the
//! whole container.
//!
//! Threat model: the server is `kill -9`ed at any instant, and the
//! filesystem keeps what was written before the kill (writes are not
//! fsynced, so power loss is out of scope). A kill mid-write tears only
//! the slot its in-flight job was writing — the file is short, or holds
//! the new prefix over the old suffix — and its checksums fail. [`load`]
//! and [`scan`] check both slots and rebuild only the newest valid one,
//! which holds the state after the last job that completed. The
//! single-file `VALPHIB1` container `<name>.vph` of earlier releases
//! (whole-file checksum, see [`encode`]) still loads, as sequence 0, but
//! is never written.
//!
//! [`remove`] deletes oldest first, so a close cut short leaves the
//! newest state, which resumes. A fresh session's first write removes
//! whatever an earlier session of the same name left, so no leftover
//! slot can shadow or resurrect it. [`scan`] runs at server startup: it
//! sweeps temporaries left by earlier releases' writers, validates every
//! session's containers (framing, checksums, snapshot self-checks,
//! recompile fingerprint), and returns the recoverable sessions and a
//! typed reason for every file of a session it could not recover. A torn
//! or truncated container is a *skip*, never a panic.

use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::{MutexGuard, PoisonError};

use valpipe_machine::{Kernel, Snapshot, SnapshotError};
use valpipe_util::{checksum64, Json, Rng};

use crate::proto::{kernel_from_str, kernel_to_str};
use crate::session::{SessionCore, SessionSpec};

/// Magic of the single-file container of earlier releases (distinct
/// from the snapshot magic so a raw snapshot dropped in the directory is
/// diagnosed, not misparsed). Read, never written.
pub const HIBERNATE_MAGIC: [u8; 8] = *b"VALPHIB1";

/// Magic of a slot container, the form [`save`] writes.
pub const SLOT_MAGIC: [u8; 8] = *b"VALPHIB2";

/// Length of a §10 snapshot header, which ends in the payload checksum
/// and the header's own checksum.
const SNAPSHOT_HEADER_LEN: usize = 52;

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

/// What a core's newest slot on disk holds, as far as this process
/// knows; kept on the [`SessionCore`] so every save of it, through any
/// caller, continues one sequence.
#[derive(Debug, Default)]
pub(crate) struct DiskState {
    /// Sequence number of the newest slot this core wrote or was loaded
    /// from; `None` for a fresh core not yet written.
    seq: Option<u64>,
    /// The state that slot holds: its snapshot header (step, payload
    /// checksum) and whether the final result was cached.
    held: Option<StateKey>,
    /// Meta JSON of the unfinished session, rendered once.
    meta: Option<String>,
}

type StateKey = ([u8; SNAPSHOT_HEADER_LEN], bool);

fn state_key(core: &SessionCore) -> StateKey {
    let mut header = [0u8; SNAPSHOT_HEADER_LEN];
    header.copy_from_slice(&core.snapshot.as_bytes()[..SNAPSHOT_HEADER_LEN]);
    (header, core.final_result.is_some())
}

fn disk(core: &SessionCore) -> MutexGuard<'_, DiskState> {
    core.disk.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Path of a session's single-file container of earlier releases.
pub fn container_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.vph"))
}

/// Path of one of a session's two slot containers (`slot` is 0 or 1).
pub fn slot_path(dir: &Path, name: &str, slot: u64) -> PathBuf {
    dir.join(format!("{name}.{slot}.vph"))
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at.checked_add(8)?)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

fn render_meta(core: &SessionCore) -> String {
    let spec = &core.spec;
    Json::obj([
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
    .to_compact()
}

/// Serialize `core` as a single-file `VALPHIB1` container of earlier
/// releases: magic, meta, snapshot, and a checksum of everything before
/// it. [`save`] never writes this form; [`decode`] and [`load`] read it.
pub fn encode(core: &SessionCore) -> Vec<u8> {
    let meta = render_meta(core);
    let snap = core.snapshot.as_bytes();
    let mut out = Vec::with_capacity(32 + meta.len() + snap.len());
    out.extend_from_slice(&HIBERNATE_MAGIC);
    push_u64(&mut out, meta.len() as u64);
    out.extend_from_slice(meta.as_bytes());
    push_u64(&mut out, snap.len() as u64);
    out.extend_from_slice(snap);
    let sum = checksum64(&out);
    push_u64(&mut out, sum);
    out
}

fn slot_bytes(core: &SessionCore, seq: u64, meta: &str) -> Vec<u8> {
    let snap = core.snapshot.as_bytes();
    let mut out = Vec::with_capacity(40 + meta.len() + snap.len());
    out.extend_from_slice(&SLOT_MAGIC);
    push_u64(&mut out, seq);
    push_u64(&mut out, meta.len() as u64);
    out.extend_from_slice(meta.as_bytes());
    push_u64(&mut out, snap.len() as u64);
    let covered = out.len() + snap.len().min(SNAPSHOT_HEADER_LEN);
    out.extend_from_slice(snap);
    let sum = checksum64(&out[..covered]);
    push_u64(&mut out, sum);
    out
}

/// Serialize `core` as the slot container with sequence number `seq`:
/// the bytes [`save`] writes to slot `seq % 2`.
pub fn encode_slot(core: &SessionCore, seq: u64) -> Vec<u8> {
    slot_bytes(core, seq, &render_meta(core))
}

/// A container whose framing and checksums hold, not yet rebuilt into a
/// session.
struct Verified {
    seq: u64,
    meta: Json,
    snapshot: Snapshot,
}

/// Split a container into its sequence number, meta bytes and snapshot
/// bytes, if its framing and trailing checksum hold (the snapshot
/// payload is left to `Snapshot::from_bytes`).
fn frame(bytes: &[u8]) -> Result<(u64, &[u8], &[u8]), HibernateError> {
    let corrupt = |m: &str| HibernateError::Corrupt(m.to_string());
    let truncated = || HibernateError::Snapshot(SnapshotError::Truncated);
    let (seq, meta_at, slot) = match bytes.get(..8) {
        Some(m) if m == SLOT_MAGIC => (read_u64(bytes, 8).ok_or_else(truncated)?, 24, true),
        Some(m) if m == HIBERNATE_MAGIC => (0, 16, false),
        _ => return Err(corrupt("bad magic")),
    };
    let meta_len = read_u64(bytes, meta_at - 8).ok_or_else(truncated)?;
    let meta_end = usize::try_from(meta_len)
        .ok()
        .and_then(|n| meta_at.checked_add(n))
        .filter(|&e| e <= bytes.len())
        .ok_or_else(truncated)?;
    let snap_len = read_u64(bytes, meta_end).ok_or_else(truncated)?;
    let snap_at = meta_end + 8;
    let snap_end = usize::try_from(snap_len)
        .ok()
        .and_then(|n| snap_at.checked_add(n))
        .filter(|&e| e.checked_add(8) == Some(bytes.len()))
        .ok_or_else(truncated)?;
    let covered = if slot {
        snap_at + (snap_end - snap_at).min(SNAPSHOT_HEADER_LEN)
    } else {
        snap_end
    };
    if checksum64(&bytes[..covered]) != read_u64(bytes, snap_end).unwrap() {
        return Err(corrupt("checksum mismatch (torn or bit-rotted write)"));
    }
    Ok((seq, &bytes[meta_at..meta_end], &bytes[snap_at..snap_end]))
}

fn verify_bytes(bytes: &[u8]) -> Result<Verified, HibernateError> {
    let (seq, meta, snap) = frame(bytes)?;
    let corrupt = |m: &str| HibernateError::Corrupt(m.to_string());
    let meta = std::str::from_utf8(meta)
        .map_err(|_| corrupt("meta is not UTF-8"))
        .and_then(|s| Json::parse(s).map_err(|e| corrupt(&format!("meta JSON: {e}"))))?;
    let snapshot = Snapshot::from_bytes(snap.to_vec()).map_err(HibernateError::Snapshot)?;
    Ok(Verified {
        seq,
        meta,
        snapshot,
    })
}

/// Check a container's framing and every checksum, snapshot payload
/// included, without rebuilding the session; returns its sequence
/// number (0 for a `VALPHIB1` container).
pub fn verify(bytes: &[u8]) -> Result<u64, HibernateError> {
    verify_bytes(bytes).map(|v| v.seq)
}

/// Rebuild a session core from a verified container: recompile the
/// stored source and check the snapshot's program fingerprint against
/// it — so a container whose source and machine state have drifted
/// apart is refused, not resumed wrongly.
fn rebuild(v: Verified) -> Result<SessionCore, HibernateError> {
    let Verified {
        seq,
        meta,
        snapshot,
    } = v;
    let corrupt = |m: &str| HibernateError::Corrupt(m.to_string());
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
    let held = Some(state_key(&core));
    *core.disk.get_mut().unwrap_or_else(PoisonError::into_inner) = DiskState {
        seq: Some(seq),
        held,
        meta: None,
    };
    Ok(core)
}

/// Rebuild a session core from container bytes, slot (`VALPHIB2`) or
/// single-file (`VALPHIB1`): validate framing and checksums, then
/// recompile and check the program fingerprint.
pub fn decode(bytes: &[u8]) -> Result<SessionCore, HibernateError> {
    verify_bytes(bytes).and_then(rebuild)
}

/// Whether `core`'s newest slot on disk already holds its current state
/// (the same snapshot and the same cached result), so writing it
/// through again would only repeat those bytes.
pub(crate) fn is_saved(core: &SessionCore) -> bool {
    disk(core).held == Some(state_key(core))
}

/// Rewrite `path` in place with `bytes`, creating `dir` only when it is
/// missing.
fn write_in_place(dir: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let open = || {
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
    };
    let mut file = match open() {
        Err(e) if e.kind() == ErrorKind::NotFound => {
            std::fs::create_dir_all(dir)?;
            open()?
        }
        file => file?,
    };
    file.write_all(bytes)?;
    file.set_len(bytes.len() as u64)
}

/// Persist `core` into `dir` as the next slot of its sequence, retrying
/// transient I/O failures with jittered exponential backoff (checkpoint
/// contention — e.g. a concurrent scan holding the file open on some
/// platforms — is transient; a full disk eventually is not). The first
/// write of a fresh core first removes whatever containers an earlier
/// session of the same name left.
pub fn save(dir: &Path, core: &SessionCore, rng: &mut Rng) -> Result<(), HibernateError> {
    let mut disk = disk(core);
    let name = &core.spec.name;
    let fresh = disk.seq.is_none();
    let seq = disk.seq.map_or(1, |s| s + 1);
    let bytes = if core.final_result.is_some() {
        slot_bytes(core, seq, &render_meta(core))
    } else {
        let meta = disk.meta.get_or_insert_with(|| render_meta(core));
        slot_bytes(core, seq, meta)
    };
    let path = slot_path(dir, name, seq % 2);
    let mut delay_ms = 2u64;
    let mut last = String::new();
    for _ in 0..4 {
        let attempt = if fresh { remove(dir, name) } else { Ok(()) }.and_then(|()| {
            write_in_place(dir, &path, &bytes).map_err(|e| HibernateError::Io(e.to_string()))
        });
        match attempt {
            Ok(()) => {
                disk.seq = Some(seq);
                disk.held = Some(state_key(core));
                return Ok(());
            }
            Err(e) => {
                last = e.to_string();
                let jitter = rng.below(delay_ms.max(1) as usize) as u64;
                std::thread::sleep(std::time::Duration::from_millis(delay_ms + jitter));
                delay_ms *= 2;
            }
        }
    }
    Err(HibernateError::Io(format!(
        "persisting '{name}' failed after retries: {last}"
    )))
}

/// Every container file of `name` in `dir` (the single-file form, then
/// slots 0 and 1) with what reading and verifying it gave; missing
/// files are left out.
fn containers(dir: &Path, name: &str) -> Found {
    [
        container_path(dir, name),
        slot_path(dir, name, 0),
        slot_path(dir, name, 1),
    ]
    .into_iter()
    .filter_map(|path| match std::fs::read(&path) {
        Ok(bytes) => {
            let v = verify_bytes(&bytes);
            Some((path, v))
        }
        Err(e) if e.kind() == ErrorKind::NotFound => None,
        Err(e) => Some((path, Err(HibernateError::Io(e.to_string())))),
    })
    .collect()
}

type Found = Vec<(PathBuf, Result<Verified, HibernateError>)>;

/// Take the valid container with the highest sequence number out of
/// `found`.
fn take_newest(found: &mut Found) -> Option<(PathBuf, Verified)> {
    let (_, i) = (0..found.len())
        .filter_map(|i| found[i].1.as_ref().ok().map(|v| (v.seq, i)))
        .max()?;
    let (path, v) = found.swap_remove(i);
    Some((path, v.ok()?))
}

/// Load one named session from `dir`: the newest of its valid
/// containers, rebuilt.
pub fn load(dir: &Path, name: &str) -> Result<SessionCore, HibernateError> {
    let mut found = containers(dir, name);
    match take_newest(&mut found) {
        Some((_, v)) => rebuild(v),
        None => Err(found
            .into_iter()
            .find_map(|(_, r)| r.err())
            .unwrap_or_else(|| HibernateError::Io(format!("no container for session '{name}'")))),
    }
}

/// Delete a session's containers (used by explicit `close`), oldest
/// first: files whose frame does not hold, then the rest in ascending
/// sequence. A removal cut short leaves the newest state, never an
/// older one in place of a deleted newer one.
pub fn remove(dir: &Path, name: &str) -> Result<(), HibernateError> {
    let mut found: Vec<(Option<u64>, PathBuf)> = [
        container_path(dir, name),
        slot_path(dir, name, 0),
        slot_path(dir, name, 1),
    ]
    .into_iter()
    .filter_map(|path| match std::fs::read(&path) {
        Ok(bytes) => Some((frame(&bytes).ok().map(|(seq, ..)| seq), path)),
        Err(e) if e.kind() == ErrorKind::NotFound => None,
        Err(_) => Some((None, path)),
    })
    .collect();
    found.sort();
    for (_, path) in found {
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(HibernateError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// What a startup scan of the hibernation directory found.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Names of sessions with a valid container, sorted.
    pub recovered: Vec<String>,
    /// Stale temporary files swept (left by earlier releases' writers).
    pub swept_tmp: Vec<String>,
    /// Container files of sessions that could not be recovered, with the
    /// typed reason.
    pub skipped: Vec<(String, HibernateError)>,
}

/// Crash-recovery scan: sweep stale temporary files, then check every
/// session's containers and rebuild its newest valid one. A session none
/// of whose containers rebuilds has each of its files reported, and left
/// on disk for post-mortem — recovery never deletes data it cannot read.
/// A torn slot beside a valid one is the expected trace of a kill
/// mid-write and is not reported.
pub fn scan(dir: &Path) -> Result<ScanReport, HibernateError> {
    let mut report = ScanReport {
        swept_tmp: Snapshot::sweep_stale_tmp(dir).map_err(HibernateError::Snapshot)?,
        ..ScanReport::default()
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(HibernateError::Io(e.to_string())),
    };
    let mut names = BTreeSet::new();
    for entry in entries {
        let entry = entry.map_err(|e| HibernateError::Io(e.to_string()))?;
        let fname = entry.file_name();
        let Some(stem) = fname.to_str().and_then(|f| f.strip_suffix(".vph")) else {
            continue;
        };
        let name = stem
            .strip_suffix(".0")
            .or_else(|| stem.strip_suffix(".1"))
            .unwrap_or(stem);
        names.insert(name.to_string());
    }
    let file_name = |p: &Path| p.file_name().unwrap().to_string_lossy().into_owned();
    for name in names {
        let mut found = containers(dir, &name);
        match take_newest(&mut found) {
            Some((path, v)) => match rebuild(v) {
                Ok(_) => report.recovered.push(name),
                Err(e) => report.skipped.push((file_name(&path), e)),
            },
            None => {
                for (path, r) in found {
                    if let Err(e) = r {
                        report.skipped.push((file_name(&path), e));
                    }
                }
            }
        }
    }
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
