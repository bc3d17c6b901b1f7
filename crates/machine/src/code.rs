//! The static machine's executable form: the compact per-cell tables
//! every kernel plans and fires from.
//!
//! The paper's machine is *static* (§2–3): an instruction cell holds an
//! operation code, a fixed set of operand slots and a fixed set of
//! destination fields, and never changes shape while the program runs.
//! [`MachineCode`] is that layout, built once per [`Graph`]:
//!
//! * a per-cell [`CellCode`]: an opcode tag ([`Op`]) with the cell's
//!   array-memory / function-unit flags, an inline table of up to three
//!   operand [`Port`]s (an arc id, a literal, or unbound), and the range
//!   of its destination arcs in one shared offset array (CSR);
//! * per-arc producer and consumer cell ids;
//! * generator tables: each `CtlGen` wave as a bitset plus its length,
//!   each `IdxGen` as its first index and wave length ([`Gen`]), read at
//!   a generator's wave phase (its cursor modulo the wave length, kept
//!   beside the cursor by the machine), so a firing never divides;
//! * per cell, whether a firing on the capacity-1 machine can leave it
//!   enabled with no new event ([`CellCode::refire_check`]), decided
//!   once here instead of after every firing.
//!
//! Cell labels, provenance, port names and the symbolic `CtlStream`s stay
//! in the [`Graph`], which the machine reads only to build this form, to
//! bind inputs and outputs, and to name cells in errors, stall reports
//! and traces. The form holds no machine state, so it never appears in a
//! snapshot; it is shared (through an `Arc`) by every session restored
//! over the same program.

use std::sync::OnceLock;

use valpipe_ir::graph::{Graph, PortBinding};
use valpipe_ir::opcode::{Opcode, MERGE_CTL};
use valpipe_ir::value::{BinOp, UnOp, Value};
use valpipe_ir::{ArcId, CtlStream, NodeId};

/// A cell's operation with its symbolic payload (port names, control
/// streams, FIFO depth) stripped: what the firing rule dispatches on.
/// Array-memory accesses are identities ([`CellCode::am`] says which).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Bin(BinOp),
    Un(UnOp),
    Id,
    TGate,
    FGate,
    Merge,
    /// `CtlGen` or `IdxGen`: emits `gens[aux].at(cursor)`.
    Gen,
    Source,
    Sink,
    /// A symbolic FIFO; rejected before any machine is built.
    Fifo,
}

impl Op {
    /// Number of operand slots.
    pub(crate) fn arity(self) -> usize {
        match self {
            Op::Merge => 3,
            Op::Bin(_) | Op::TGate | Op::FGate => 2,
            Op::Un(_) | Op::Id | Op::Sink | Op::Fifo => 1,
            Op::Gen | Op::Source => 0,
        }
    }
}

/// How one operand slot receives its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Port {
    /// Result packets arrive over this arc.
    Arc(u32),
    /// A literal held in the operand field: always present, never
    /// consumed.
    Lit(Value),
    /// Not connected: the cell can never fire.
    Unbound,
}

/// One instruction cell's executable record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellCode {
    pub(crate) op: Op,
    /// Executes in an array-memory unit.
    pub(crate) am: bool,
    /// Ships to a function unit.
    pub(crate) fu: bool,
    /// Operand slots in port order; slots past the opcode's arity are
    /// `Unbound` and never read.
    pub(crate) ports: [Port; 3],
    /// Destination arcs: `MachineCode::outs[out_lo..out_hi]`.
    out_lo: u32,
    out_hi: u32,
    /// Index into `MachineCode::gens` for `Op::Gen` cells.
    pub(crate) aux: u32,
    /// Whether, on a machine of arc capacity 1, a firing can leave this
    /// cell enabled at the next step with no new event, so the step
    /// must ask `sim::may_refire`. False for a cell whose firing
    /// consumes an arc (a merge always consumes its control), since the
    /// emptied arc refills only by a delivery, which wakes the cell;
    /// and for a cell that emits onto a destination every firing (not a
    /// gate, which may discard, nor a sink, which records instead),
    /// since the filled arc frees only by an acknowledge, which wakes
    /// the cell.
    pub(crate) refire_check: bool,
}

impl CellCode {
    fn refire_possible(op: Op, ports: &[Port; 3], has_outs: bool) -> bool {
        let wired = |p: &Port| matches!(p, Port::Arc(_));
        let consumes = match op {
            Op::Merge => wired(&ports[MERGE_CTL]),
            _ => ports[..op.arity()].iter().any(wired),
        };
        let fills = has_outs && !matches!(op, Op::TGate | Op::FGate | Op::Sink);
        !(consumes || fills)
    }
}

/// Waves longer than this many packets keep their run boundaries
/// instead of a bitset, so a pathological stream (one run of 2³² − 1
/// packets) costs its run count, not half a gigabyte.
const MAX_BITSET_WAVE: u64 = 1 << 16;

/// A generator cell's precomputed wave.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Gen {
    /// `CtlGen`: bit `k` of `bits` is the stream's value at `k`, for one
    /// wave of `len` packets.
    Bits { len: u64, bits: Vec<u64> },
    /// `CtlGen` with a wave longer than [`MAX_BITSET_WAVE`]: the
    /// exclusive end offset of each run, whose values alternate starting
    /// from `first` (canonical streams never repeat a value across
    /// adjacent runs).
    Runs {
        len: u64,
        ends: Vec<u64>,
        first: bool,
    },
    /// `IdxGen`: `lo, lo + 1, …, lo + len − 1`, cyclically.
    Idx { lo: i64, len: u64 },
}

impl Gen {
    fn ctl(stream: &CtlStream) -> Gen {
        let len = stream.wave_len() as u64;
        if len > MAX_BITSET_WAVE {
            let mut end = 0u64;
            let ends = stream
                .runs()
                .iter()
                .map(|r| {
                    end += r.count as u64;
                    end
                })
                .collect();
            return Gen::Runs {
                len,
                ends,
                first: stream.runs()[0].value,
            };
        }
        let mut bits = vec![0u64; len.div_ceil(64) as usize];
        let mut k = 0u64;
        for run in stream.runs() {
            let end = k + run.count as u64;
            // Set the run's bits a word at a time.
            while run.value && k < end {
                let n = (64 - k % 64).min(end - k);
                bits[(k / 64) as usize] |= (u64::MAX >> (64 - n)) << (k % 64);
                k += n;
            }
            k = end;
        }
        Gen::Bits { len, bits }
    }

    /// Packets per wave.
    pub(crate) fn len(&self) -> u64 {
        match *self {
            Gen::Bits { len, .. } | Gen::Runs { len, .. } | Gen::Idx { len, .. } => len,
        }
    }

    /// The wave phase of 0-based cursor position `k`: `k` modulo the
    /// wave length. An index range spanning all 2⁶⁴ integers wraps its
    /// length to 0 and never repeats within a `u64` cursor.
    #[inline]
    pub(crate) fn phase(&self, k: u64) -> u64 {
        k.checked_rem(self.len()).unwrap_or(k)
    }

    /// The phase after `p`.
    #[inline]
    pub(crate) fn next_phase(&self, p: u64) -> u64 {
        let q = p.wrapping_add(1);
        if q == self.len() {
            0
        } else {
            q
        }
    }

    /// The packet emitted at wave phase `p` (`p < len`).
    #[inline]
    pub(crate) fn at_phase(&self, p: u64) -> Value {
        match self {
            Gen::Bits { bits, .. } => Value::Bool(bits[(p / 64) as usize] >> (p % 64) & 1 == 1),
            Gen::Runs { ends, first, .. } => {
                let run = ends.partition_point(|&e| e <= p);
                Value::Bool(*first ^ (run % 2 == 1))
            }
            Gen::Idx { lo, .. } => Value::Int(lo.wrapping_add(p as i64)),
        }
    }

    /// The packet emitted at 0-based cursor position `k`.
    pub(crate) fn at(&self, k: u64) -> Value {
        self.at_phase(self.phase(k))
    }

    /// Whether advancing the cursor by `d` leaves the emitted sequence
    /// unchanged — fast-forward's condition for skipping windows that
    /// read the generator `d` packets further along.
    pub(crate) fn shift_invariant(&self, d: u64) -> bool {
        let len = self.len();
        if d.is_multiple_of(len) {
            return true;
        }
        match self {
            Gen::Idx { .. } => false,
            _ => (0..len).all(|q| self.at(q) == self.at(q + d)),
        }
    }
}

/// The executable form of one program: see the module docs.
#[derive(Debug)]
pub struct MachineCode {
    pub(crate) cells: Vec<CellCode>,
    outs: Vec<u32>,
    /// Producer and consumer cell of each arc.
    pub(crate) arc_src: Vec<u32>,
    pub(crate) arc_dst: Vec<u32>,
    pub(crate) gens: Vec<Gen>,
    /// [`Graph::fingerprint`] of the source graph, computed on first use
    /// (checkpoints and restores), so a plain run never hashes the graph.
    fingerprint: OnceLock<u64>,
}

impl MachineCode {
    /// Build the executable form of `g`. Symbolic FIFOs are kept as an
    /// inert tag: building a machine over an unexpanded graph fails
    /// before anything fires.
    pub fn new(g: &Graph) -> MachineCode {
        let mut cells = Vec::with_capacity(g.nodes.len());
        let mut outs = Vec::with_capacity(g.arcs.len());
        let mut gens = Vec::new();
        for node in &g.nodes {
            let mut aux = 0;
            let op = match &node.op {
                Opcode::Bin(op) => Op::Bin(*op),
                Opcode::Un(op) => Op::Un(*op),
                Opcode::Id | Opcode::AmWrite | Opcode::AmRead => Op::Id,
                Opcode::TGate => Op::TGate,
                Opcode::FGate => Op::FGate,
                Opcode::Merge => Op::Merge,
                Opcode::Fifo(_) => Op::Fifo,
                Opcode::CtlGen(stream) => {
                    aux = gens.len() as u32;
                    gens.push(Gen::ctl(stream));
                    Op::Gen
                }
                Opcode::IdxGen { lo, hi } => {
                    aux = gens.len() as u32;
                    gens.push(Gen::Idx {
                        lo: *lo,
                        len: hi.wrapping_sub(*lo).wrapping_add(1) as u64,
                    });
                    Op::Gen
                }
                Opcode::Source(_) => Op::Source,
                Opcode::Sink(_) => Op::Sink,
            };
            let mut ports = [Port::Unbound; 3];
            for (slot, b) in ports.iter_mut().zip(&node.inputs) {
                *slot = match *b {
                    PortBinding::Wired(a) => Port::Arc(a.0),
                    PortBinding::Lit(v) => Port::Lit(v),
                    PortBinding::Unbound => Port::Unbound,
                };
            }
            let out_lo = outs.len() as u32;
            outs.extend(node.outputs.iter().map(|a| a.0));
            cells.push(CellCode {
                op,
                am: node.op.is_array_memory(),
                fu: node.op.is_function_unit(),
                ports,
                out_lo,
                out_hi: outs.len() as u32,
                aux,
                refire_check: CellCode::refire_possible(op, &ports, !node.outputs.is_empty()),
            });
        }
        MachineCode {
            cells,
            outs,
            arc_src: g.arcs.iter().map(|e| e.src.0).collect(),
            arc_dst: g.arcs.iter().map(|e| e.dst.0).collect(),
            gens,
            fingerprint: OnceLock::new(),
        }
    }

    /// The record of cell `n`.
    #[inline]
    pub(crate) fn cell(&self, n: u32) -> &CellCode {
        &self.cells[n as usize]
    }

    /// Destination arcs of `cell`.
    #[inline]
    pub(crate) fn outs(&self, cell: &CellCode) -> &[u32] {
        &self.outs[cell.out_lo as usize..cell.out_hi as usize]
    }

    /// Number of instruction cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arc_src.len()
    }

    /// The operand ports of cell `n`, in port order, as the graph's
    /// bindings.
    pub fn inputs(&self, n: NodeId) -> Vec<PortBinding> {
        let c = &self.cells[n.idx()];
        c.ports[..c.op.arity()]
            .iter()
            .map(|p| match *p {
                Port::Arc(a) => PortBinding::Wired(ArcId(a)),
                Port::Lit(v) => PortBinding::Lit(v),
                Port::Unbound => PortBinding::Unbound,
            })
            .collect()
    }

    /// The destination arcs of cell `n`, in destination-field order.
    pub fn outputs(&self, n: NodeId) -> Vec<ArcId> {
        self.outs(&self.cells[n.idx()])
            .iter()
            .map(|&a| ArcId(a))
            .collect()
    }

    /// The producing and consuming cell of arc `a`.
    pub fn arc_ends(&self, a: ArcId) -> (NodeId, NodeId) {
        (NodeId(self.arc_src[a.idx()]), NodeId(self.arc_dst[a.idx()]))
    }

    /// [`Graph::fingerprint`] of the program this form was built from.
    pub(crate) fn fingerprint(&self, g: &Graph) -> u64 {
        *self.fingerprint.get_or_init(|| g.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_and_run_tables_agree_with_the_stream() {
        let streams = [
            CtlStream::window(70, 3, 60),
            CtlStream::from_runs([(true, 1), (false, 1)]),
            CtlStream::constant(false, 64),
            CtlStream::from_runs([(false, 7), (true, 130), (false, 1)]),
            CtlStream::from_runs([(false, 65), (true, 1)]),
            CtlStream::from_runs([(true, MAX_BITSET_WAVE as u32), (false, 3), (true, 2)]),
        ];
        for s in &streams {
            let gen = Gen::ctl(s);
            let len = s.wave_len() as u64;
            assert_eq!(gen.len(), len);
            assert_eq!(matches!(gen, Gen::Runs { .. }), len > MAX_BITSET_WAVE);
            let probes = (0..200)
                .chain(len.saturating_sub(5)..len + 5)
                .chain(3 * len - 2..3 * len + 2);
            for k in probes {
                assert_eq!(gen.at(k), Value::Bool(s.at(k)), "{s} at {k}");
            }
        }
    }

    /// Walk `gen` phase by phase, as firings advance it, over three
    /// waves: every read must be what `want` holds at the cursor, and
    /// what `Gen::at` reads there.
    fn walk_phases(gen: &Gen, want: impl Fn(u64) -> Value) {
        let len = gen.len();
        let mut p = 0;
        for k in 0..3 * len + 5 {
            assert_eq!((p, gen.phase(k)), (k % len, p), "{gen:?} at {k}");
            assert_eq!(gen.at_phase(p), want(k), "{gen:?} at {k}");
            assert_eq!(gen.at(k), want(k), "{gen:?} at {k}");
            p = gen.next_phase(p);
        }
    }

    #[test]
    fn phase_reads_agree_with_the_cursor_across_wave_boundaries() {
        let long = CtlStream::from_runs([(false, 2), (true, 3), (false, 65_600)]);
        assert!(matches!(Gen::ctl(&long), Gen::Runs { .. }));
        for s in [
            CtlStream::from_runs([(true, 2), (false, 3)]),
            CtlStream::window(70, 3, 60),
            long,
        ] {
            walk_phases(&Gen::ctl(&s), |k| Value::Bool(s.at(k)));
        }
        walk_phases(&Gen::Idx { lo: -2, len: 5 }, |k| {
            Value::Int(k as i64 % 5 - 2)
        });
        walk_phases(&Gen::Idx { lo: 7, len: 1 }, |_| Value::Int(7));
    }

    #[test]
    fn refire_flag_is_conservative_on_degenerate_cells() {
        let mut g = Graph::new();
        // Cells whose firing neither consumes an arc nor fills a
        // destination: only `may_refire` can tell whether they refire.
        let src = g.add_node(Opcode::Source("a".into()), "src");
        let ctl = g.add_node(
            Opcode::CtlGen(CtlStream::from_runs([(true, 1), (false, 2)])),
            "ctl",
        );
        let idx = g.add_node(Opcode::IdxGen { lo: 0, hi: 3 }, "idx");
        let lit_sink = g.cell(Opcode::Sink("s".into()), "s", &[1.0.into()]);
        let gate = g.cell(Opcode::TGate, "g", &[true.into(), 2.0.into()]);
        let bare = g.cell(Opcode::Bin(BinOp::Add), "bare", &[1.0.into(), 2.0.into()]);
        // A literal-operand cell with a destination fills it every
        // firing; a cell fed by an arc empties it.
        let filled = g.cell(Opcode::Bin(BinOp::Mul), "filled", &[3.0.into(), 2.0.into()]);
        let fed = g.cell(Opcode::Id, "fed", &[filled.into()]);
        let _ = g.cell(Opcode::Sink("t".into()), "t", &[gate.into()]);
        let code = MachineCode::new(&g);
        for n in [src, ctl, idx, lit_sink, gate, bare] {
            assert!(code.cell(n.0).refire_check, "{}", g.nodes[n.idx()].label);
        }
        for n in [filled, fed] {
            assert!(!code.cell(n.0).refire_check, "{}", g.nodes[n.idx()].label);
        }
    }

    #[test]
    fn index_generator_wraps_per_wave() {
        let gen = Gen::Idx { lo: -2, len: 5 };
        let got: Vec<Value> = (0..11).map(|k| gen.at(k)).collect();
        let want: Vec<Value> = [-2, -1, 0, 1, 2, -2, -1, 0, 1, 2, -2]
            .into_iter()
            .map(Value::Int)
            .collect();
        assert_eq!(got, want);
        assert!(gen.shift_invariant(10));
        assert!(!gen.shift_invariant(3));
    }

    #[test]
    fn shift_invariance_matches_rotation() {
        let alt = Gen::ctl(&CtlStream::from_runs(
            (0..35).flat_map(|_| [(true, 1), (false, 1)]),
        ));
        assert!(alt.shift_invariant(2));
        assert!(!alt.shift_invariant(1));
        let win = Gen::ctl(&CtlStream::window(6, 1, 4));
        assert!(win.shift_invariant(6));
        assert!(!win.shift_invariant(2));
    }
}
