//! The session registry: named sessions shared by the worker pool, a
//! live-session cap with LRU hibernation, and write-through persistence.
//!
//! Concurrency structure: a short-lived map lock hands out `Arc<Slot>`s;
//! each slot serializes its own jobs behind a per-slot state mutex, so
//! jobs for *different* sessions run fully in parallel while two jobs
//! for the *same* session never interleave. The registry persists the
//! session into its next container slot after every job that changed it
//! (write-through), so a `kill -9` at any instant loses at most the jobs
//! in flight — and those are safe to retry, because jobs address
//! absolute instruction-time targets on a deterministic machine.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use valpipe_core::QueryEngine;
use valpipe_util::{Json, Rng};

use crate::hibernate;
use crate::proto::{ErrorBody, ErrorKind};
use crate::session::{SessionCore, SessionSpec};

/// A session's residency state.
enum SlotState {
    /// In memory, ready for jobs.
    Hot(Box<SessionCore>),
    /// Evicted to its container file; reloaded lazily on next use.
    Hibernated,
    /// Closed; the slot only remains so late requests get a clean error.
    Closed,
}

/// One named session: residency state plus an LRU timestamp.
struct Slot {
    name: String,
    /// Logical clock value of the last job (for LRU eviction).
    last_used: AtomicU64,
    state: Mutex<SlotState>,
}

/// Counters exposed through the `stats` op.
#[derive(Debug, Default)]
pub struct RegistryStats {
    /// Sessions demoted to their container (cap eviction, the
    /// `hibernate` op, shutdown).
    pub hibernations: AtomicU64,
    /// Sessions reloaded from their container.
    pub resumes: AtomicU64,
}

/// The shared session registry.
pub struct Registry {
    dir: PathBuf,
    /// Maximum sessions held in memory; beyond this, LRU slots hibernate.
    max_live: usize,
    clock: AtomicU64,
    rng: Mutex<Rng>,
    /// Counters for the `stats` op and the CI gate.
    pub stats: RegistryStats,
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    /// Shared incremental compile cache: sessions submitting overlapping
    /// programs recompile only the blocks that differ. Sharing across
    /// tenants is safe because the engine's memos verify by full key
    /// (exact-match, collision-proof) and are capped at
    /// [`SHARED_MEMO_CAP`] (bounded memory).
    /// The engine is *swapped out* of the mutex for the duration of a
    /// compile — the lock is only ever held for the swap itself, so one
    /// slow compile never serializes other tenants' opens; a contended
    /// open falls back to a private cold engine (bit-identical output,
    /// just no warm hits), which it drops afterwards.
    compile_cache: Mutex<Option<QueryEngine>>,
}

/// Entries each memo table of the shared compile engine keeps between
/// compiles, besides the current compile's own, which always stay. Edits
/// of one program share every entry but the edited blocks', so a few
/// dozen keep a fleet of near-identical jobs warm; the engine's default
/// of 16,384 let a busy server's memory grow with every distinct program
/// it compiled.
const SHARED_MEMO_CAP: usize = 64;

impl Registry {
    /// Create a registry persisting into `dir`, holding at most
    /// `max_live` sessions in memory.
    pub fn new(dir: PathBuf, max_live: usize, seed: u64) -> Registry {
        let mut engine = QueryEngine::new();
        engine.set_memo_cap(SHARED_MEMO_CAP);
        Registry {
            dir,
            max_live: max_live.max(1),
            clock: AtomicU64::new(1),
            rng: Mutex::new(Rng::seed(seed ^ 0x005e_5510_4e61)),
            stats: RegistryStats::default(),
            slots: Mutex::new(HashMap::new()),
            compile_cache: Mutex::new(Some(engine)),
        }
    }

    /// Crash recovery: scan the hibernation directory, register every
    /// valid container as a hibernated slot, and report what was
    /// recovered or skipped. Run before accepting connections.
    pub fn recover(&self) -> Result<hibernate::ScanReport, hibernate::HibernateError> {
        let report = hibernate::scan(&self.dir)?;
        let mut slots = self.slots.lock().unwrap();
        for name in &report.recovered {
            slots.insert(
                name.clone(),
                Arc::new(Slot {
                    name: name.clone(),
                    last_used: AtomicU64::new(0),
                    state: Mutex::new(SlotState::Hibernated),
                }),
            );
        }
        Ok(report)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of sessions currently hot in memory.
    pub fn live_count(&self) -> usize {
        let slots = self.slots.lock().unwrap();
        slots
            .values()
            .filter(|s| {
                s.state
                    .try_lock()
                    .map(|g| matches!(*g, SlotState::Hot(_)))
                    .unwrap_or(true) // busy slot is hot by definition
            })
            .count()
    }

    /// Total registered sessions (hot + hibernated).
    pub fn session_count(&self) -> usize {
        self.slots
            .lock()
            .unwrap()
            .values()
            .filter(|s| {
                s.state
                    .try_lock()
                    .map(|g| !matches!(*g, SlotState::Closed))
                    .unwrap_or(true)
            })
            .count()
    }

    /// Open a session, idempotently: re-opening with an identical spec
    /// succeeds (reporting `resumed: true`), a conflicting spec is
    /// `session_exists`, a new name compiles and registers a fresh core.
    pub fn open(&self, spec: SessionSpec) -> Result<Json, ErrorBody> {
        let name = spec.name.clone();
        let slot = {
            let slots = self.slots.lock().unwrap();
            slots.get(&name).cloned()
        };
        if let Some(slot) = slot {
            // Existing slot: compare identities under the slot lock.
            let identity = spec.identity();
            return self.with_core(&slot, |core| {
                if core.spec.identity() != identity {
                    return Err(ErrorBody::new(
                        ErrorKind::SessionExists,
                        format!("session '{name}' exists with a different program or inputs"),
                    ));
                }
                Ok(Json::obj([
                    ("session", Json::Str(name.clone())),
                    ("resumed", Json::Bool(true)),
                    ("now", Json::Int(core.now() as i64)),
                    ("done", Json::Bool(core.final_result.is_some())),
                ]))
            });
        }
        // Fresh name: compile outside every lock (compiles can be slow),
        // then race to insert; losing the race re-checks identity. The
        // shared warm engine is taken out of its mutex for the compile;
        // if another open holds it, compile on a private cold engine —
        // the output is bit-identical either way. Only the shared engine
        // goes back: a private one would replace the warm memo with one
        // program's.
        let mut taken = self.compile_cache.lock().unwrap().take();
        let compiled = match taken.as_mut() {
            Some(engine) => SessionCore::open_with_engine(spec.clone(), engine),
            None => SessionCore::open_with_engine(spec.clone(), &mut QueryEngine::new()),
        };
        if taken.is_some() {
            *self.compile_cache.lock().unwrap() = taken;
        }
        let core = compiled?;
        let now = core.now();
        let slot = Arc::new(Slot {
            name: name.clone(),
            last_used: AtomicU64::new(self.tick()),
            state: Mutex::new(SlotState::Hot(Box::new(core))),
        });
        {
            let mut slots = self.slots.lock().unwrap();
            if slots.contains_key(&name) {
                drop(slots);
                return self.open(spec); // lost the race; retry as existing
            }
            slots.insert(name.clone(), slot.clone());
        }
        // Persist immediately so the session survives a crash that lands
        // before its first job.
        {
            let guard = slot.state.lock().unwrap();
            if let SlotState::Hot(core) = &*guard {
                self.persist(core)
                    .map_err(|e| hibernate::to_error_body(&e))?;
            }
        }
        self.enforce_cap(&name);
        Ok(Json::obj([
            ("session", Json::Str(name)),
            ("resumed", Json::Bool(false)),
            ("now", Json::Int(now as i64)),
            ("done", Json::Bool(false)),
        ]))
    }

    /// Write `core` through to its next slot, unless its newest slot
    /// already holds this state (a `status`, a `run` on a finished
    /// session, a demotion after a successful write). The shared `rng`
    /// is held only to split off this write's retry jitter, so the
    /// workers' writes never wait on each other.
    fn persist(&self, core: &SessionCore) -> Result<(), hibernate::HibernateError> {
        if hibernate::is_saved(core) {
            return Ok(());
        }
        let mut rng = self.rng.lock().unwrap().split();
        hibernate::save(&self.dir, core, &mut rng)
    }

    /// Look up a slot by name.
    fn slot(&self, name: &str) -> Result<Arc<Slot>, ErrorBody> {
        self.slots
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| {
                ErrorBody::new(
                    ErrorKind::NoSuchSession,
                    format!("no session named '{name}'"),
                )
            })
    }

    /// Run `f` against a session's core with the slot lock held,
    /// reloading from the container if the slot is hibernated, and
    /// persisting write-through afterwards if `f` changed the core. The
    /// write-through happens even when `f` fails: a failed job may still
    /// have advanced the machine (e.g. a deadline hit mid-run), and that
    /// progress must survive a crash. `f`'s error takes precedence over a
    /// save error.
    fn with_core<T>(
        &self,
        slot: &Slot,
        f: impl FnOnce(&mut SessionCore) -> Result<T, ErrorBody>,
    ) -> Result<T, ErrorBody> {
        let mut guard = slot.state.lock().unwrap();
        slot.last_used.store(self.tick(), Ordering::Relaxed);
        if matches!(*guard, SlotState::Hibernated) {
            let core =
                hibernate::load(&self.dir, &slot.name).map_err(|e| hibernate::to_error_body(&e))?;
            self.stats.resumes.fetch_add(1, Ordering::Relaxed);
            *guard = SlotState::Hot(Box::new(core));
        }
        let core = match &mut *guard {
            SlotState::Hot(core) => core,
            SlotState::Closed => {
                return Err(ErrorBody::new(
                    ErrorKind::NoSuchSession,
                    format!("session '{}' is closed", slot.name),
                ))
            }
            SlotState::Hibernated => unreachable!("reloaded above"),
        };
        let result = f(core);
        let save = self.persist(core);
        drop(guard);
        self.enforce_cap(&slot.name);
        match (result, save) {
            (Ok(v), Ok(())) => Ok(v),
            (Err(e), _) => Err(e),
            (Ok(_), Err(e)) => Err(hibernate::to_error_body(&e)),
        }
    }

    /// Run a job against a named session (the server's `run`/`status`
    /// paths). See [`Registry::with_core`] for the residency protocol.
    pub fn with_session<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut SessionCore) -> Result<T, ErrorBody>,
    ) -> Result<T, ErrorBody> {
        let slot = self.slot(name)?;
        self.with_core(&slot, f)
    }

    /// Hibernate LRU sessions until at most `max_live` are hot. Slots
    /// whose state lock is held (a job mid-flight) are skipped — they
    /// are the opposite of least-recently-used. `except` (the slot that
    /// triggered enforcement) is demoted only as a last resort, by being
    /// ranked most-recently-used.
    fn enforce_cap(&self, except: &str) {
        loop {
            let candidates: Vec<Arc<Slot>> = {
                let slots = self.slots.lock().unwrap();
                let mut hot: Vec<&Arc<Slot>> = slots
                    .values()
                    .filter(|s| {
                        s.state
                            .try_lock()
                            .map(|g| matches!(*g, SlotState::Hot(_)))
                            .unwrap_or(false)
                    })
                    .collect();
                if hot.len() <= self.max_live {
                    return;
                }
                hot.sort_by_key(|s| {
                    let lru = s.last_used.load(Ordering::Relaxed);
                    (s.name == except, lru)
                });
                hot.iter()
                    .take(hot.len() - self.max_live)
                    .map(|s| Arc::clone(s))
                    .collect()
            };
            if candidates.is_empty() {
                return;
            }
            let mut demoted_any = false;
            for slot in candidates {
                let Ok(mut guard) = slot.state.try_lock() else {
                    continue; // became busy; skip this round
                };
                if let SlotState::Hot(core) = &*guard {
                    // State is already persisted write-through; demotion
                    // writes only if the last write failed, and drops the
                    // in-memory core.
                    if self.persist(core).is_ok() {
                        *guard = SlotState::Hibernated;
                        self.stats.hibernations.fetch_add(1, Ordering::Relaxed);
                        demoted_any = true;
                    }
                }
            }
            if !demoted_any {
                return; // everything eligible is busy; try again next job
            }
        }
    }

    /// Explicitly hibernate one session now (the `hibernate` op).
    pub fn hibernate(&self, name: &str) -> Result<Json, ErrorBody> {
        let slot = self.slot(name)?;
        let mut guard = slot.state.lock().unwrap();
        match &*guard {
            SlotState::Hot(core) => {
                self.persist(core)
                    .map_err(|e| hibernate::to_error_body(&e))?;
                *guard = SlotState::Hibernated;
                self.stats.hibernations.fetch_add(1, Ordering::Relaxed);
                Ok(Json::obj([("hibernated", Json::Bool(true))]))
            }
            SlotState::Hibernated => Ok(Json::obj([("hibernated", Json::Bool(true))])),
            SlotState::Closed => Err(ErrorBody::new(
                ErrorKind::NoSuchSession,
                format!("session '{name}' is closed"),
            )),
        }
    }

    /// Hibernate every hot session (graceful shutdown). Blocks on each
    /// slot lock, so it naturally waits for in-flight jobs to finish.
    pub fn hibernate_all(&self) -> usize {
        let all: Vec<Arc<Slot>> = self.slots.lock().unwrap().values().cloned().collect();
        let mut n = 0;
        for slot in all {
            let mut guard = slot.state.lock().unwrap();
            if let SlotState::Hot(core) = &*guard {
                if self.persist(core).is_ok() {
                    *guard = SlotState::Hibernated;
                    self.stats.hibernations.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                }
            }
        }
        n
    }

    /// Close a session: drop its state and delete its container.
    pub fn close(&self, name: &str) -> Result<Json, ErrorBody> {
        let slot = self.slot(name)?;
        {
            let mut guard = slot.state.lock().unwrap();
            if matches!(*guard, SlotState::Closed) {
                return Err(ErrorBody::new(
                    ErrorKind::NoSuchSession,
                    format!("session '{name}' is closed"),
                ));
            }
            *guard = SlotState::Closed;
            hibernate::remove(&self.dir, name).map_err(|e| hibernate::to_error_body(&e))?;
        }
        self.slots.lock().unwrap().remove(name);
        Ok(Json::obj([("closed", Json::Bool(true))]))
    }

    /// Sorted session names (the `stats` op).
    pub fn session_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.slots.lock().unwrap().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::JobLimits;
    use std::path::Path;
    use valpipe_machine::Kernel;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("valpipe-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(name: &str) -> SessionSpec {
        spec_of(name, "param m = 3;\ninput A : array[real] [0, m];\nY : array[real] := forall i in [0, m] construct A[i] + 1. endall;\noutput Y;")
    }

    fn spec_of(name: &str, source: &str) -> SessionSpec {
        SessionSpec {
            name: name.to_string(),
            source: source.to_string(),
            arrays: Json::parse(r#"{"A":[1.0,2.0,3.0,4.0]}"#).unwrap(),
            waves: 1,
            kernel: Kernel::EventDriven,
            max_steps: 100_000,
        }
    }

    /// Newest sequence number among a session's slots on disk.
    fn newest_seq(dir: &Path, name: &str) -> Option<u64> {
        (0..2)
            .filter_map(|slot| std::fs::read(hibernate::slot_path(dir, name, slot)).ok())
            .filter_map(|bytes| hibernate::verify(&bytes).ok())
            .max()
    }

    #[test]
    fn only_jobs_that_change_a_session_write_it() {
        let dir = temp_dir("changed");
        let reg = Registry::new(dir.clone(), 1, 1);
        let seq = |name| newest_seq(&dir, name);
        let run = |name, until| {
            let limits = JobLimits {
                until,
                ..JobLimits::default()
            };
            reg.with_session(name, |core| core.advance(&limits, 1 << 20).map(|_| ()))
                .unwrap()
        };
        reg.open(spec("a")).unwrap();
        assert_eq!(seq("a"), Some(1));
        // A status request, an idempotent re-open and an explicit
        // hibernate change nothing, so they write nothing.
        reg.with_session("a", |core| Ok(core.now())).unwrap();
        reg.open(spec("a")).unwrap();
        reg.hibernate("a").unwrap();
        assert_eq!(seq("a"), Some(1));
        // An advancing run (here on the reloaded session) writes the
        // next slot.
        run("a", Some(3));
        assert_eq!(seq("a"), Some(2));
        // Opening "b" under a cap of one demotes "a", unchanged since its
        // write; shutdown's hibernate_all then finds nothing changed.
        reg.open(spec("b")).unwrap();
        assert_eq!(reg.live_count(), 1);
        assert_eq!(reg.stats.hibernations.load(Ordering::Relaxed), 2);
        assert_eq!(reg.hibernate_all(), 1);
        assert_eq!((seq("a"), seq("b")), (Some(2), Some(1)));
        // Finishing caches the result, which is written once; a run on
        // the finished session writes nothing.
        run("a", None);
        assert_eq!(seq("a"), Some(3));
        run("a", None);
        assert_eq!(seq("a"), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequential_opens_restore_and_reuse_the_shared_engine() {
        let dir = temp_dir("warm");
        let reg = Registry::new(dir.clone(), 8, 1);
        reg.open(spec("a")).unwrap();
        reg.open(spec("b")).unwrap();
        let slot = reg.compile_cache.lock().unwrap();
        let engine = slot.as_ref().expect("engine restored after compiles");
        assert_eq!(
            engine.stats().executed(),
            0,
            "the second identical program must compile fully warm: {}",
            engine.stats().render()
        );
        drop(slot);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_contended_open_never_replaces_the_shared_engine() {
        let dir = temp_dir("contended");
        let reg = Registry::new(dir.clone(), 8, 1);
        let chain = |last: &str| {
            format!(
                "param m = 3;\ninput A : array[real] [0, m];\n\
                 P : array[real] := forall i in [0, m] construct A[i] + 1. endall;\n\
                 Q : array[real] := forall i in [0, m] construct P[i] * 2. endall;\n\
                 R : array[real] := forall i in [0, m] construct Q[i] + {last} endall;\n\
                 output R;"
            )
        };
        reg.open(spec_of("a", &chain("3."))).unwrap();
        // Hold the shared engine, standing in for a concurrent open: this
        // open compiles a different program on a private engine.
        let shared = reg.compile_cache.lock().unwrap().take();
        assert!(shared.is_some());
        reg.open(spec("b")).unwrap();
        assert!(
            reg.compile_cache.lock().unwrap().is_none(),
            "a private engine was put back"
        );
        *reg.compile_cache.lock().unwrap() = shared;
        // A one-block edit of "a" still finds "a"'s other blocks warm.
        reg.open(spec_of("c", &chain("4."))).unwrap();
        let slot = reg.compile_cache.lock().unwrap();
        let stats = slot.as_ref().expect("shared engine restored").stats();
        assert!(stats.executed() < stats.total(), "{}", stats.render());
        drop(slot);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_opens_do_not_serialize_on_the_compile_cache() {
        let dir = temp_dir("concurrent");
        let reg = Arc::new(Registry::new(dir.clone(), 16, 1));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || reg.open(spec(&format!("s{i}"))))
            })
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        // The opens that held the shared engine put it back; contended
        // opens compiled on private cold engines and still succeeded.
        assert!(reg.compile_cache.lock().unwrap().is_some());
        assert_eq!(reg.session_count(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
