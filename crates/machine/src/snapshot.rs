//! Checkpoint/restore: serialize a mid-run machine into a versioned
//! binary snapshot and rebuild a bit-identical session from it.
//!
//! A [`Snapshot`] captures the **canonical** machine state — everything
//! the paper's machine physically holds: token queues and acknowledge
//! slots on every arc (with their delivery/expiry times), per-cell
//! source/generator cursors, firing counters, accumulated outputs and
//! emission times, the step clock, and the watchdog's progress
//! bookkeeping. It deliberately does *not* capture the event-driven
//! scheduler's wakeup wheel: that is an optimization artifact of one
//! kernel, fully implied by the canonical state. Restore re-seeds the
//! wheel from the in-flight packets and acknowledges (see [`crate::scheduler`]'s resume
//! notes), which is what makes a snapshot **kernel-neutral** — a
//! checkpoint taken under [`Kernel::Scan`] resumes under
//! [`Kernel::EventDriven`] (and vice versa) and the continued run is
//! bit-identical to an uninterrupted one.
//!
//! On-disk format (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic "VALPSNAP"
//!      8     4  format version (currently 1)
//!     12     8  program fingerprint (Graph::fingerprint)
//!     20     8  instruction time of the checkpoint
//!     28     8  payload length in bytes
//!     36     8  FNV-1a 64 checksum of the payload
//!     44     8  FNV-1a 64 checksum of bytes 0..44
//!     52     …  payload
//! ```
//!
//! Loading is corruption-tolerant: a truncated, garbled, or foreign file
//! yields a typed [`SnapshotError`], never a panic. The fingerprint
//! refuses to restore a snapshot onto a different program than the one
//! it was taken from. Maps are serialized in sorted key order and
//! acknowledge-slot lists sorted by expiry, so the same machine state
//! always produces the same bytes, whichever kernel produced it.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use valpipe_ir::graph::Graph;
use valpipe_ir::opcode::Opcode;
use valpipe_ir::value::Value;
use valpipe_util::checksum64;

use crate::arc::{ArcState, InlineFifo};
use crate::code::MachineCode;
use crate::error::MachineError;
use crate::fault::{CellFreeze, FaultPlan, LinkFault};
use crate::scheduler::Kernel;
use crate::session::SimConfig;
use crate::sim::{ArcDelays, Cells, MachineState, ResourceModel, Simulator};
use crate::watchdog::{ProgressTracker, WatchdogConfig};

/// Leading bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"VALPSNAP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

const HEADER_LEN: usize = 52;

/// Why a snapshot could not be loaded or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not begin with the snapshot magic.
    NotASnapshot,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the header or payload does.
    Truncated,
    /// The header checksum does not match (garbled header).
    HeaderChecksum,
    /// The payload checksum does not match (garbled payload).
    PayloadChecksum,
    /// The snapshot was taken from a different program graph.
    ProgramMismatch {
        /// Fingerprint of the graph handed to restore.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The payload disagrees with the graph's shape (cell/arc counts,
    /// port names) despite a matching fingerprint.
    ShapeMismatch(String),
    /// The payload is structurally invalid (bad tag, count, or bound).
    Malformed(String),
    /// Reading or writing the snapshot file failed.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NotASnapshot => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {v} not supported (this build reads {SNAPSHOT_VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::HeaderChecksum => write!(f, "snapshot header checksum mismatch"),
            SnapshotError::PayloadChecksum => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::ProgramMismatch { expected, found } => write!(
                f,
                "snapshot was taken from a different program (graph fingerprint {expected:#018x}, snapshot has {found:#018x})"
            ),
            SnapshotError::ShapeMismatch(msg) => write!(f, "snapshot shape mismatch: {msg}"),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot payload: {msg}"),
            SnapshotError::Io(msg) => write!(f, "snapshot i/o failed: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A validated snapshot of a mid-run machine.
///
/// Construction validates the header and both checksums, so a held
/// `Snapshot` is known-intact; restoring onto a graph additionally
/// validates the program fingerprint and every structural bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// The raw snapshot bytes (header + payload).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Validate header magic, version, and both checksums.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() || bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::NotASnapshot);
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let stored_header_sum = read_u64_at(&bytes, 44);
        if checksum64(&bytes[..44]) != stored_header_sum {
            return Err(SnapshotError::HeaderChecksum);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_len = read_u64_at(&bytes, 28) as usize;
        match (bytes.len() - HEADER_LEN).cmp(&payload_len) {
            std::cmp::Ordering::Less => return Err(SnapshotError::Truncated),
            std::cmp::Ordering::Greater => {
                return Err(SnapshotError::Malformed(
                    "trailing bytes after payload".into(),
                ))
            }
            std::cmp::Ordering::Equal => {}
        }
        if checksum64(&bytes[HEADER_LEN..]) != read_u64_at(&bytes, 36) {
            return Err(SnapshotError::PayloadChecksum);
        }
        Ok(Snapshot { bytes })
    }

    /// Load and validate a snapshot file.
    pub fn read_from(path: impl AsRef<std::path::Path>) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::from_bytes(bytes)
    }

    /// Write the snapshot to `path` atomically (temporary file + rename),
    /// so a crash mid-write cannot clobber an existing good checkpoint.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &self.bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    /// Snapshot format version.
    pub fn version(&self) -> u32 {
        u32::from_le_bytes(self.bytes[8..12].try_into().unwrap())
    }

    /// Fingerprint of the program the snapshot was taken from.
    pub fn fingerprint(&self) -> u64 {
        read_u64_at(&self.bytes, 12)
    }

    /// Instruction time at which the checkpoint was taken.
    pub fn step(&self) -> u64 {
        read_u64_at(&self.bytes, 20)
    }

    /// Serialize the complete state of a mid-run machine.
    pub(crate) fn capture(sim: &Simulator<'_>) -> Snapshot {
        let mut w = Writer::default();
        encode_config(&mut w, &sim.cfg);
        w.u64(sim.now);
        w.u64(sim.idle);
        let (a, b, c) = sim.tracker.state();
        w.u64(a);
        w.u64(b);
        w.u64(c);
        w.u64(sim.am_fires);
        w.u64(sim.fu_fires);

        let n = sim.g.nodes.len();
        w.u64(n as u64);
        for &p in &sim.cells.src_pos {
            w.u64(p as u64);
        }
        for v in [
            &sim.cells.ctl_pos,
            &sim.cells.fires,
            &sim.cells.gate_passes,
            &sim.cells.gate_discards,
        ] {
            for &x in v.iter() {
                w.u64(x);
            }
        }
        for d in &sim.cells.src_data {
            w.opt(d.as_ref(), |w, data| {
                w.u64(data.len() as u64);
                for v in data.iter() {
                    w.value(*v);
                }
            });
        }
        w.opt(sim.cells.fire_times.as_ref(), |w, ft| {
            for times in ft.iter() {
                w.u64(times.len() as u64);
                for &t in times.iter() {
                    w.u64(t);
                }
            }
        });

        // Port slots serialize in sorted-name order — the same bytes the
        // name-keyed maps produced before the slot layout.
        let mut sinks: Vec<_> = sim.cells.outputs.iter().collect();
        sinks.sort_by(|a, b| a.0.cmp(&b.0));
        w.u64(sinks.len() as u64);
        for (name, packets) in sinks {
            w.string(name);
            w.u64(packets.len() as u64);
            for &(t, v) in packets {
                w.u64(t);
                w.value(v);
            }
        }
        let mut sources: Vec<_> = sim.cells.emit_times.iter().collect();
        sources.sort_by(|a, b| a.0.cmp(&b.0));
        w.u64(sources.len() as u64);
        for (name, times) in sources {
            w.string(name);
            w.u64(times.len() as u64);
            for &t in times {
                w.u64(t);
            }
        }

        w.u64(sim.arcs.len() as u64);
        for st in &sim.arcs {
            w.u64(st.queue.len() as u64);
            for &(v, t) in st.queue.iter() {
                w.value(v);
                w.u64(t);
            }
            // Expiry order is semantically irrelevant (the release filter
            // is elementwise); sort so equal states give equal bytes.
            let mut freeing: Vec<u64> = st.freeing.iter().copied().collect();
            freeing.sort_unstable();
            w.u64(freeing.len() as u64);
            for t in freeing {
                w.u64(t);
            }
            w.u64(st.sent);
            w.u64(st.consumed);
            w.u64(st.acked);
            w.u64(st.lost_result);
            w.u64(st.lost_ack);
        }

        let payload = w.bytes;
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&sim.code.fingerprint(sim.g).to_le_bytes());
        bytes.extend_from_slice(&sim.now.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&checksum64(&payload).to_le_bytes());
        let header_sum = checksum64(&bytes);
        bytes.extend_from_slice(&header_sum.to_le_bytes());
        bytes.extend_from_slice(&payload);
        Snapshot { bytes }
    }

    /// Rebuild a mid-run machine over `g` (whose executable form is
    /// `code`), resuming on `kernel`.
    pub(crate) fn rebuild<'g>(
        &self,
        g: &'g Graph,
        code: Arc<MachineCode>,
        kernel: Kernel,
    ) -> Result<Simulator<'g>, SnapshotError> {
        if code.cell_count() != g.nodes.len() || code.arc_count() != g.arcs.len() {
            return Err(SnapshotError::ShapeMismatch(
                "executable form was built from a different graph".into(),
            ));
        }
        let expected = code.fingerprint(g);
        let found = self.fingerprint();
        if expected != found {
            return Err(SnapshotError::ProgramMismatch { expected, found });
        }
        let mut r = Reader::new(&self.bytes[HEADER_LEN..]);
        let mut cfg = decode_config(&mut r)?;
        cfg.kernel = kernel;
        let now = r.u64()?;
        if now != self.step() {
            return Err(SnapshotError::Malformed(
                "payload clock disagrees with header step".into(),
            ));
        }
        let idle = r.u64()?;
        let tracker = ProgressTracker::from_state((r.u64()?, r.u64()?, r.u64()?));
        let am_fires = r.u64()?;
        let fu_fires = r.u64()?;

        let n = g.nodes.len();
        let node_count = r.u64()? as usize;
        if node_count != n {
            return Err(SnapshotError::ShapeMismatch(format!(
                "snapshot has {node_count} cells, graph has {n}"
            )));
        }
        // Per-cell state decodes straight into the machine's layout; the
        // port slots are the constructor's to fill.
        let mut cells = Cells::empty(n, false);
        cells.src_pos = r.u64_vec(n)?.into_iter().map(|x| x as usize).collect();
        cells.ctl_pos = r.u64_vec(n)?;
        cells.fires = r.u64_vec(n)?;
        cells.gate_passes = r.u64_vec(n)?;
        cells.gate_discards = r.u64_vec(n)?;
        cells.src_data = Vec::with_capacity(n);
        for _ in 0..n {
            cells.src_data.push(r.opt(|r| {
                let len = r.count(1)?;
                let mut data = Vec::with_capacity(len);
                for _ in 0..len {
                    data.push(r.value()?);
                }
                Ok(data)
            })?);
        }
        cells.fire_times = r.opt(|r| {
            let mut ft = Vec::with_capacity(n);
            for _ in 0..n {
                ft.push(r.counted_u64_vec()?);
            }
            Ok(ft)
        })?;

        let mut outputs = HashMap::new();
        let sink_count = r.count(1)?;
        for _ in 0..sink_count {
            let name = r.string()?;
            let len = r.count(9)?;
            let mut packets = Vec::with_capacity(len);
            for _ in 0..len {
                let t = r.u64()?;
                packets.push((t, r.value()?));
            }
            if outputs.insert(name, packets).is_some() {
                return Err(SnapshotError::Malformed("duplicate sink port".into()));
            }
        }
        let mut emit_times = HashMap::new();
        let source_count = r.count(1)?;
        for _ in 0..source_count {
            let name = r.string()?;
            let times = r.counted_u64_vec()?;
            if emit_times.insert(name, times).is_some() {
                return Err(SnapshotError::Malformed("duplicate source port".into()));
            }
        }

        let arc_count = r.count(1)?;
        if arc_count != g.arcs.len() {
            return Err(SnapshotError::ShapeMismatch(format!(
                "snapshot has {arc_count} arcs, graph has {}",
                g.arcs.len()
            )));
        }
        let mut arcs = Vec::with_capacity(arc_count);
        for i in 0..arc_count {
            let qlen = r.count(9)?;
            let mut queue = InlineFifo::default();
            for _ in 0..qlen {
                let v = r.value()?;
                queue.push_back((v, r.u64()?));
            }
            let st = ArcState {
                queue,
                freeing: r.counted_u64_vec()?.into_iter().collect(),
                cap: cfg.arc_capacity,
                sent: r.u64()?,
                consumed: r.u64()?,
                acked: r.u64()?,
                lost_result: r.u64()?,
                lost_ack: r.u64()?,
            };
            if !st.conserves() {
                return Err(SnapshotError::Malformed(format!(
                    "arc {i} counters disagree with its tokens and acknowledge slots"
                )));
            }
            if st.occupied() > st.cap {
                return Err(SnapshotError::Malformed(format!(
                    "arc {i} holds more token slots than its capacity {}",
                    st.cap
                )));
            }
            arcs.push(st);
        }
        r.finish()?;

        validate_against_graph(g, cfg.record_fire_times, &cells, &outputs, &emit_times)?;
        let state = MachineState {
            cells,
            outputs,
            emit_times,
            arcs,
            now,
            idle,
            tracker,
            am_fires,
            fu_fires,
        };
        Simulator::assemble(g, code, cfg, state).map_err(|e| match e {
            MachineError::UnexpandedFifo(_) | MachineError::DelayTableMismatch { .. } => {
                SnapshotError::ShapeMismatch(e.to_string())
            }
            e => SnapshotError::Malformed(e.to_string()),
        })
    }
}

/// Structural checks beyond the fingerprint: the payload's port maps,
/// cursors and fire-time table must line up with the graph. The
/// embedded config is checked by the machine constructor, exactly as
/// for a fresh build.
fn validate_against_graph(
    g: &Graph,
    record_fire_times: bool,
    cells: &Cells,
    outputs: &HashMap<String, Vec<(u64, Value)>>,
    source_emit_times: &HashMap<String, Vec<u64>>,
) -> Result<(), SnapshotError> {
    let (src_data, src_pos) = (&cells.src_data, &cells.src_pos);
    match &cells.fire_times {
        Some(ft) if !record_fire_times || ft.len() != g.nodes.len() => {
            return Err(SnapshotError::Malformed("fire-time table mismatch".into()));
        }
        None if record_fire_times => {
            return Err(SnapshotError::Malformed(
                "record_fire_times set but no fire-time table".into(),
            ));
        }
        _ => {}
    }
    let mut sink_names = 0usize;
    let mut source_names = 0usize;
    for (i, node) in g.nodes.iter().enumerate() {
        match &node.op {
            Opcode::Source(name) => {
                source_names += 1;
                let data = src_data[i].as_ref().ok_or_else(|| {
                    SnapshotError::ShapeMismatch(format!("source cell {i} has no input sequence"))
                })?;
                if src_pos[i] > data.len() {
                    return Err(SnapshotError::Malformed(format!(
                        "source cell {i} cursor {} beyond its {} packets",
                        src_pos[i],
                        data.len()
                    )));
                }
                if !source_emit_times.contains_key(name) {
                    return Err(SnapshotError::ShapeMismatch(format!(
                        "source port '{name}' missing from emission times"
                    )));
                }
            }
            Opcode::Sink(name) => {
                sink_names += 1;
                if !outputs.contains_key(name) {
                    return Err(SnapshotError::ShapeMismatch(format!(
                        "sink port '{name}' missing from outputs"
                    )));
                }
            }
            _ => {
                if src_data[i].is_some() {
                    return Err(SnapshotError::Malformed(format!(
                        "non-source cell {i} carries an input sequence"
                    )));
                }
            }
        }
    }
    if outputs.len() != sink_names || source_emit_times.len() != source_names {
        return Err(SnapshotError::ShapeMismatch(
            "snapshot port maps do not match the graph's sources/sinks".into(),
        ));
    }
    Ok(())
}

/// Encode `cfg`, its delay tables included when it names any.
fn encode_config(w: &mut Writer, cfg: &SimConfig) {
    w.u64(cfg.max_steps);
    w.u64(cfg.arc_capacity as u64);
    w.byte(cfg.record_fire_times as u8);
    w.byte(cfg.check_invariants as u8);
    w.u64(cfg.checkpoint_every);
    // Format v1 slot of the retired checkpoint file path: always absent.
    w.byte(0);
    w.opt(cfg.delays.as_ref(), |w, d| {
        w.u64(d.forward.len() as u64);
        for &x in &d.forward {
            w.u64(x);
        }
        w.u64(d.ack.len() as u64);
        for &x in &d.ack {
            w.u64(x);
        }
    });
    w.opt(cfg.resources.as_ref(), |w, res| {
        w.u64(res.unit_of.len() as u64);
        for &u in &res.unit_of {
            w.u64(u as u64);
        }
        w.u64(res.capacity.len() as u64);
        for &c in &res.capacity {
            w.u64(c as u64);
        }
    });
    w.opt(cfg.stop_outputs.as_ref(), |w, list| {
        w.u64(list.len() as u64);
        for (name, count) in list {
            w.string(name);
            w.u64(*count as u64);
        }
    });
    w.opt(cfg.watchdog.as_ref(), |w, wd| {
        w.u64(wd.step_budget);
        w.u64(wd.progress_window);
    });
    w.opt(cfg.fault_plan.as_ref(), |w, plan| {
        w.u64(plan.seed);
        w.f64(plan.drop_result);
        w.f64(plan.dup_result);
        w.f64(plan.delay_result);
        w.u64(plan.delay_result_max);
        w.f64(plan.drop_ack);
        w.f64(plan.delay_ack);
        w.u64(plan.delay_ack_max);
        w.u64(plan.freezes.len() as u64);
        for fz in &plan.freezes {
            w.u64(fz.node as u64);
            w.u64(fz.from);
            w.u64(fz.until);
        }
        w.u64(plan.link_faults.len() as u64);
        for lf in &plan.link_faults {
            w.u64(lf.stage as u64);
            w.u64(lf.port as u64);
            w.u64(lf.from);
            w.u64(lf.until);
        }
    });
}

fn decode_config(r: &mut Reader<'_>) -> Result<SimConfig, SnapshotError> {
    let max_steps = r.u64()?;
    let arc_capacity = r.u64()? as usize;
    let record_fire_times = r.bool()?;
    let check_invariants = r.bool()?;
    let checkpoint_every = r.u64()?;
    // Format v1 slot of the retired checkpoint file path: read and dropped.
    r.opt(|r| r.string())?;
    let delays = r.opt(|r| {
        let forward = r.counted_u64_vec()?;
        let ack = r.counted_u64_vec()?;
        Ok(ArcDelays { forward, ack })
    })?;
    let resources = r.opt(|r| {
        let unit_of = r
            .counted_u64_vec()?
            .into_iter()
            .map(u32_of)
            .collect::<Result<Vec<_>, _>>()?;
        let capacity = r
            .counted_u64_vec()?
            .into_iter()
            .map(u32_of)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResourceModel { unit_of, capacity })
    })?;
    let stop_outputs = r.opt(|r| {
        let len = r.count(9)?;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            let name = r.string()?;
            list.push((name, r.u64()? as usize));
        }
        Ok(list)
    })?;
    let watchdog = r.opt(|r| {
        Ok(WatchdogConfig {
            step_budget: r.u64()?,
            progress_window: r.u64()?,
        })
    })?;
    let fault_plan = r.opt(|r| {
        let seed = r.u64()?;
        let drop_result = r.f64()?;
        let dup_result = r.f64()?;
        let delay_result = r.f64()?;
        let delay_result_max = r.u64()?;
        let drop_ack = r.f64()?;
        let delay_ack = r.f64()?;
        let delay_ack_max = r.u64()?;
        let n_freezes = r.count(24)?;
        let mut freezes = Vec::with_capacity(n_freezes);
        for _ in 0..n_freezes {
            freezes.push(CellFreeze {
                node: r.u64()? as usize,
                from: r.u64()?,
                until: r.u64()?,
            });
        }
        let n_links = r.count(32)?;
        let mut link_faults = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            link_faults.push(LinkFault {
                stage: r.u64()? as usize,
                port: r.u64()? as usize,
                from: r.u64()?,
                until: r.u64()?,
            });
        }
        Ok(FaultPlan {
            seed,
            drop_result,
            dup_result,
            delay_result,
            delay_result_max,
            drop_ack,
            delay_ack,
            delay_ack_max,
            freezes,
            link_faults,
        })
    })?;
    Ok(SimConfig {
        max_steps,
        arc_capacity,
        delays,
        resources,
        record_fire_times,
        stop_outputs,
        fault_plan,
        watchdog,
        check_invariants,
        kernel: Kernel::default(),
        checkpoint_every,
    })
}

fn u32_of(x: u64) -> Result<u32, SnapshotError> {
    u32::try_from(x).map_err(|_| SnapshotError::Malformed("value exceeds u32".into()))
}

fn read_u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

// Value tags in serialized packets.
const TAG_INT: u8 = 0;
const TAG_REAL: u8 = 1;
const TAG_BOOL: u8 = 2;

/// Canonical-byte encoder shared by snapshot capture and the
/// fast-forward engine's rebased state fingerprints (`fastforward`):
/// one encoding for machine state means fingerprint equality carries
/// the same guarantees as snapshot byte equality.
#[derive(Default)]
pub(crate) struct Writer {
    pub(crate) bytes: Vec<u8>,
}

impl Writer {
    pub(crate) fn byte(&mut self, b: u8) {
        self.bytes.push(b);
    }
    pub(crate) fn u64(&mut self, x: u64) {
        self.bytes.extend_from_slice(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn string(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
    }
    pub(crate) fn value(&mut self, v: Value) {
        match v {
            Value::Int(i) => {
                self.byte(TAG_INT);
                self.u64(i as u64);
            }
            Value::Real(x) => {
                self.byte(TAG_REAL);
                self.f64(x);
            }
            Value::Bool(b) => {
                self.byte(TAG_BOOL);
                self.byte(b as u8);
            }
        }
    }
    fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Writer, T)) {
        match v {
            None => self.byte(0),
            Some(x) => {
                self.byte(1);
                f(self, x);
            }
        }
    }
}

struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn new(bytes: &'b [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    fn take(&mut self, len: usize) -> Result<&'b [u8], SnapshotError> {
        if self.remaining() < len {
            return Err(SnapshotError::Malformed("payload ends mid-field".into()));
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }
    fn byte(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Malformed(format!(
                "bad boolean byte {b:#04x}"
            ))),
        }
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Read a length/count and reject counts that cannot possibly fit in
    /// the remaining bytes (`min_elem` bytes per element) — a garbled
    /// count must not drive a giant allocation.
    fn count(&mut self, min_elem: usize) -> Result<usize, SnapshotError> {
        let c = self.u64()?;
        let c = usize::try_from(c)
            .map_err(|_| SnapshotError::Malformed("count exceeds address space".into()))?;
        if c.checked_mul(min_elem)
            .is_none_or(|need| need > self.remaining())
        {
            return Err(SnapshotError::Malformed(format!(
                "count {c} exceeds remaining payload"
            )));
        }
        Ok(c)
    }
    /// A `u64` vector prefixed by its own length.
    fn counted_u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.count(8)?;
        self.u64_vec(len)
    }
    fn u64_vec(&mut self, len: usize) -> Result<Vec<u64>, SnapshotError> {
        if len
            .checked_mul(8)
            .is_none_or(|need| need > self.remaining())
        {
            return Err(SnapshotError::Malformed(format!(
                "vector of {len} words exceeds remaining payload"
            )));
        }
        (0..len).map(|_| self.u64()).collect()
    }
    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not UTF-8".into()))
    }
    fn value(&mut self) -> Result<Value, SnapshotError> {
        match self.byte()? {
            TAG_INT => Ok(Value::Int(self.u64()? as i64)),
            TAG_REAL => Ok(Value::Real(self.f64()?)),
            TAG_BOOL => Ok(Value::Bool(self.bool()?)),
            t => Err(SnapshotError::Malformed(format!("bad value tag {t:#04x}"))),
        }
    }
    fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Reader<'b>) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }
    /// The whole payload must be consumed; trailing garbage is an error.
    fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} unread byte(s) after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ProgramInputs;
    use valpipe_ir::value::BinOp;

    fn pipeline_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let add = g.cell(Opcode::Bin(BinOp::Add), "add", &[a.into(), 1.0.into()]);
        let _ = g.cell(Opcode::Sink("out".into()), "out", &[add.into()]);
        g
    }

    fn mid_run_snapshot(g: &Graph) -> Snapshot {
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let mut s = Simulator::builder(g)
            .inputs(ProgramInputs::new().bind_reals("a", &data))
            .build()
            .unwrap();
        for _ in 0..10 {
            s.step().unwrap();
        }
        s.checkpoint()
    }

    #[test]
    fn header_fields_are_exposed() {
        let g = pipeline_graph();
        let snap = mid_run_snapshot(&g);
        assert_eq!(snap.version(), SNAPSHOT_VERSION);
        assert_eq!(snap.fingerprint(), g.fingerprint());
        assert_eq!(snap.step(), 10);
        assert_eq!(&snap.as_bytes()[..8], &SNAPSHOT_MAGIC);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let g = pipeline_graph();
        let snap = mid_run_snapshot(&g);
        let again = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        assert_eq!(snap, again);
    }

    #[test]
    fn bad_magic_is_not_a_snapshot() {
        let g = pipeline_graph();
        let mut bytes = mid_run_snapshot(&g).as_bytes().to_vec();
        bytes[0] ^= 0xFF;
        assert_eq!(
            Snapshot::from_bytes(bytes),
            Err(SnapshotError::NotASnapshot)
        );
        assert_eq!(
            Snapshot::from_bytes(b"hello".to_vec()),
            Err(SnapshotError::NotASnapshot)
        );
    }

    #[test]
    fn every_truncation_is_typed() {
        let g = pipeline_graph();
        let bytes = mid_run_snapshot(&g).as_bytes().to_vec();
        for keep in 8..bytes.len() {
            let err = Snapshot::from_bytes(bytes[..keep].to_vec()).unwrap_err();
            assert_eq!(err, SnapshotError::Truncated, "at {keep} bytes");
        }
    }

    #[test]
    fn every_single_byte_corruption_is_caught() {
        let g = pipeline_graph();
        let bytes = mid_run_snapshot(&g).as_bytes().to_vec();
        for i in 0..bytes.len() {
            let mut garbled = bytes.clone();
            garbled[i] ^= 0x40;
            let err = Snapshot::from_bytes(garbled).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::NotASnapshot
                        | SnapshotError::HeaderChecksum
                        | SnapshotError::PayloadChecksum
                        | SnapshotError::Truncated
                        | SnapshotError::Malformed(_)
                ),
                "byte {i}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn unsupported_version_is_reported() {
        let g = pipeline_graph();
        let mut bytes = mid_run_snapshot(&g).as_bytes().to_vec();
        bytes[8] = 99; // version field
                       // Re-seal the header checksum so only the version is "wrong".
        let sum = checksum64(&bytes[..44]).to_le_bytes();
        bytes[44..52].copy_from_slice(&sum);
        assert_eq!(
            Snapshot::from_bytes(bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn restore_refuses_counters_that_break_conservation() {
        let g = pipeline_graph();
        let mut bytes = mid_run_snapshot(&g).as_bytes().to_vec();
        // The payload ends with the last arc's counters: sent, consumed,
        // acked, lost results, lost acknowledges. One extra consume
        // leaves the queues as they are, so only the conservation check
        // can see it. Re-seal both checksums.
        let n = bytes.len();
        let consumed = u64::from_le_bytes(bytes[n - 32..n - 24].try_into().unwrap());
        bytes[n - 32..n - 24].copy_from_slice(&(consumed + 1).to_le_bytes());
        let payload_sum = checksum64(&bytes[HEADER_LEN..]).to_le_bytes();
        bytes[36..44].copy_from_slice(&payload_sum);
        let header_sum = checksum64(&bytes[..44]).to_le_bytes();
        bytes[44..52].copy_from_slice(&header_sum);
        let snap = Snapshot::from_bytes(bytes).unwrap();
        match crate::session::Session::restore(&g, &snap) {
            Err(SnapshotError::Malformed(m)) => assert!(m.contains("counters disagree"), "{m}"),
            Err(e) => panic!("unexpected error {e:?}"),
            Ok(_) => panic!("restore accepted counters that break conservation"),
        }
    }

    #[test]
    fn restore_refuses_a_different_program() {
        let g = pipeline_graph();
        let snap = mid_run_snapshot(&g);
        let mut other = Graph::new();
        let a = other.add_node(Opcode::Source("a".into()), "a");
        let _ = other.cell(Opcode::Sink("out".into()), "out", &[a.into()]);
        match crate::session::Session::restore(&other, &snap) {
            Err(SnapshotError::ProgramMismatch { .. }) => {}
            Err(e) => panic!("unexpected error {e:?}"),
            Ok(_) => panic!("restore accepted a different program"),
        }
    }

    #[test]
    fn capture_is_deterministic() {
        let g = pipeline_graph();
        let a = mid_run_snapshot(&g);
        let b = mid_run_snapshot(&g);
        assert_eq!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn errors_render_human_readable() {
        let e = SnapshotError::ProgramMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("different program"));
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
    }
}
