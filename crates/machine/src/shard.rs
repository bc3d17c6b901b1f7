//! Topology-aware cell sharding for the epoch-batched parallel kernel.
//!
//! The parallel kernel's original design striped cells across workers by
//! id, which puts both endpoints of most arcs in different shards — every
//! step's firing traffic crosses shard boundaries, so workers can never
//! run ahead of each other. This module partitions cells so that most
//! arcs stay shard-local, which is what makes long epoch horizons
//! provable (see DESIGN.md §16):
//!
//! * **Connected components first.** A wide phased workload (the paper's
//!   array pipelines replicated per array row) decomposes into many
//!   independent chains; bin-packing whole components onto shards yields
//!   *zero* cross-shard arcs and an unbounded horizon.
//! * **BFS-level banding otherwise.** A single connected pipeline is cut
//!   into contiguous bands of pipeline stages (breadth-first levels from
//!   the source cells), so only the band-boundary arcs cross shards —
//!   the min-cross-arc heuristic on the compiled graph.
//!
//! The map also precomputes, per cell, the undirected graph distance to
//! the nearest shard boundary. Influence propagates at most one hop per
//! instruction time (every packet takes ≥ 1 instruction time), so a
//! pending wakeup at time `t` on a cell `d` hops from the boundary
//! cannot touch another shard before `t + d` — the light-cone bound the
//! epoch engine turns into a proven horizon.

use valpipe_ir::graph::{Graph, PortBinding};

/// How the parallel kernel assigns instruction cells to worker shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Partition by graph topology: whole connected components when the
    /// graph has several, contiguous BFS-level (pipeline-stage) bands
    /// otherwise. Minimizes cross-shard arcs, maximizing the provable
    /// epoch horizon.
    #[default]
    Topology,
    /// Contiguous cell-id bands — the pre-epoch striping, kept as a
    /// baseline for the bench sweep and as a fallback policy knob.
    Striped,
}

impl ShardPolicy {
    /// Stable name used in bench records and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardPolicy::Topology => "topology",
            ShardPolicy::Striped => "striped",
        }
    }

    /// Parse a CLI spelling of the policy.
    pub fn parse(s: &str) -> Option<ShardPolicy> {
        match s {
            "topology" => Some(ShardPolicy::Topology),
            "striped" => Some(ShardPolicy::Striped),
            _ => None,
        }
    }
}

/// What the epoch engine accomplished over a run — the per-epoch /
/// per-shard counters surfaced through `Session::drive` (mirroring
/// [`crate::fastforward::FastForwardStats`]) and the bench JSON records.
/// All zeros when the run never engaged epochs (sequential kernels,
/// fault plans, throttles, watchdogs, or a non-viable shard map).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochStats {
    /// Multi-step epochs executed (each one pool dispatch).
    pub epochs: u64,
    /// Instruction times advanced inside epochs (Σ per-epoch horizons).
    pub batched_steps: u64,
    /// Times the provable horizon collapsed below 2 and the step fell
    /// back to the sequential event step.
    pub horizon_fallbacks: u64,
    /// Pending wakeups that bounded an epoch horizon below the
    /// configured cap, counted as distinct `(cell, time)` pairs (a
    /// pending acknowledge is a wakeup of its producer, so it counts
    /// once, with that cell).
    pub cross_wakes_deferred: u64,
    /// Worker shards in the map (0 until the engine is built).
    pub shards: u32,
    /// Arcs whose endpoints live in different shards.
    pub cross_arcs: u64,
    /// Cells per shard, in shard order.
    pub shard_cells: Vec<u32>,
}

impl EpochStats {
    /// Mean steps per executed epoch (0 when no epoch ran).
    pub fn mean_horizon(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.batched_steps as f64 / self.epochs as f64
        }
    }
}

/// A cell→shard assignment plus the derived geometry the epoch engine's
/// horizon proof needs. Built once per simulation (the graph never
/// changes mid-run) and never snapshotted — like the wakeup wheel, it
/// is an optimization artifact, not canonical machine state.
#[derive(Debug)]
pub(crate) struct ShardMap {
    /// Shard of each cell.
    pub(crate) cell_shard: Vec<u32>,
    /// Shard that owns each arc's state during an epoch (= the shard of
    /// its source cell; for shard-local arcs both endpoints agree).
    pub(crate) arc_shard: Vec<u32>,
    /// Whether each arc's endpoints live in different shards.
    pub(crate) arc_cross: Vec<bool>,
    /// Undirected hops from each cell to the nearest boundary cell
    /// (an endpoint of a cross-shard arc); `u64::MAX` when no boundary
    /// is reachable — such a cell can never influence another shard.
    pub(crate) dist: Vec<u64>,
    /// Number of cross-shard arcs.
    pub(crate) cross_arcs: u64,
    /// Cells per shard.
    pub(crate) shard_cells: Vec<u32>,
    /// Whether epoch batching may use this map at all: at least two
    /// populated shards, and no sink/source slot shared across shards
    /// (slot streams must stay single-writer within an epoch).
    pub(crate) viable: bool,
}

/// Disjoint-set find with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

impl ShardMap {
    pub(crate) fn build(g: &Graph, policy: ShardPolicy, shards: usize) -> ShardMap {
        let n = g.nodes.len();
        let cell_shard = match policy {
            ShardPolicy::Striped => striped_assignment(n, shards),
            ShardPolicy::Topology => topology_assignment(g, shards),
        };
        Self::finish(g, shards, cell_shard)
    }

    fn finish(g: &Graph, shards: usize, cell_shard: Vec<u32>) -> ShardMap {
        let n = g.nodes.len();
        let mut arc_shard = Vec::with_capacity(g.arcs.len());
        let mut arc_cross = Vec::with_capacity(g.arcs.len());
        let mut cross_arcs = 0u64;
        for e in &g.arcs {
            let (s, d) = (cell_shard[e.src.idx()], cell_shard[e.dst.idx()]);
            arc_shard.push(s);
            arc_cross.push(s != d);
            cross_arcs += u64::from(s != d);
        }
        // Boundary cells = endpoints of cross-shard arcs; `dist` is a
        // multi-source undirected BFS from all of them.
        let mut dist = vec![u64::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for (i, e) in g.arcs.iter().enumerate() {
            if arc_cross[i] {
                for c in [e.src.idx(), e.dst.idx()] {
                    if dist[c] != 0 {
                        dist[c] = 0;
                        queue.push_back(c);
                    }
                }
            }
        }
        let adj = undirected_adjacency(g);
        while let Some(c) = queue.pop_front() {
            for &m in &adj[c] {
                if dist[m] == u64::MAX {
                    dist[m] = dist[c] + 1;
                    queue.push_back(m);
                }
            }
        }
        let mut shard_cells = vec![0u32; shards];
        for &s in &cell_shard {
            shard_cells[s as usize] += 1;
        }
        let populated = shard_cells.iter().filter(|&&c| c > 0).count();
        ShardMap {
            viable: populated >= 2 && slots_unsplit(g, &cell_shard),
            cell_shard,
            arc_shard,
            arc_cross,
            dist,
            cross_arcs,
            shard_cells,
        }
    }
}

/// Contiguous id bands (the pre-epoch striping).
fn striped_assignment(n: usize, shards: usize) -> Vec<u32> {
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(n);
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        out.extend(std::iter::repeat_n(s as u32, size));
    }
    out
}

/// Undirected adjacency lists over the wired arcs.
fn undirected_adjacency(g: &Graph) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); g.nodes.len()];
    for e in &g.arcs {
        adj[e.src.idx()].push(e.dst.idx());
        adj[e.dst.idx()].push(e.src.idx());
    }
    adj
}

/// Components-first, BFS-levels-second partition (see module docs).
fn topology_assignment(g: &Graph, shards: usize) -> Vec<u32> {
    let n = g.nodes.len();
    // Union endpoints of every arc.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for e in &g.arcs {
        let (a, b) = (
            find(&mut parent, e.src.idx() as u32),
            find(&mut parent, e.dst.idx() as u32),
        );
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    let mut comp_of = vec![0u32; n];
    let mut comps: Vec<(u32, u32)> = Vec::new(); // (representative, size)
    for i in 0..n as u32 {
        let r = find(&mut parent, i);
        comp_of[i as usize] = r;
        match comps.iter_mut().find(|(rep, _)| *rep == r) {
            Some((_, size)) => *size += 1,
            None => comps.push((r, 1)),
        }
    }
    if comps.len() >= 2 {
        // Bin-pack whole components, largest first, onto the lightest
        // shard; ties break on representative id then shard index, so
        // the assignment is deterministic.
        comps.sort_by_key(|&(rep, size)| (std::cmp::Reverse(size), rep));
        let mut load = vec![0usize; shards];
        let mut shard_of_comp = std::collections::HashMap::new();
        for (rep, size) in comps {
            let s = (0..shards).min_by_key(|&s| (load[s], s)).unwrap();
            load[s] += size as usize;
            shard_of_comp.insert(rep, s as u32);
        }
        return comp_of.iter().map(|r| shard_of_comp[r]).collect();
    }
    // Single component: order cells by BFS level from the root cells
    // (no wired inputs), then cut into contiguous equal-count bands —
    // only the band-boundary arcs cross shards. Cells unreachable from
    // any root (feedback-only loops) sort after the reachable ones.
    let mut level = vec![u64::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for (i, node) in g.nodes.iter().enumerate() {
        let has_wired_input = node
            .inputs
            .iter()
            .any(|b| matches!(b, PortBinding::Wired(_)));
        if !has_wired_input {
            level[i] = 0;
            queue.push_back(i);
        }
    }
    // Forward BFS over directed arcs approximates pipeline stages.
    let mut out_adj = vec![Vec::new(); n];
    for e in &g.arcs {
        out_adj[e.src.idx()].push(e.dst.idx());
    }
    while let Some(c) = queue.pop_front() {
        for &m in &out_adj[c] {
            if level[m] == u64::MAX {
                level[m] = level[c] + 1;
                queue.push_back(m);
            }
        }
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&i| (level[i as usize], i));
    let band = striped_assignment(n, shards);
    let mut out = vec![0u32; n];
    for (pos, &cell) in order.iter().enumerate() {
        out[cell as usize] = band[pos];
    }
    out
}

/// Whether every sink/source port slot is written by cells of a single
/// shard. Cells sharing a port name append to one merged stream; the
/// epoch workers mutate those streams without coordination, so a slot
/// split across shards disqualifies the map.
fn slots_unsplit(g: &Graph, cell_shard: &[u32]) -> bool {
    use std::collections::HashMap;
    let mut owner: HashMap<&str, u32> = HashMap::new();
    for (i, node) in g.nodes.iter().enumerate() {
        let name = match &node.op {
            valpipe_ir::opcode::Opcode::Source(p) | valpipe_ir::opcode::Opcode::Sink(p) => {
                p.as_str()
            }
            _ => continue,
        };
        match owner.entry(name) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != cell_shard[i] {
                    return false;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(cell_shard[i]);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use valpipe_ir::opcode::Opcode;
    use valpipe_ir::value::BinOp;

    /// `chains` disjoint 3-cell pipelines.
    fn multi_chain(chains: usize) -> Graph {
        let mut g = Graph::new();
        for c in 0..chains {
            let a = g.add_node(Opcode::Source(format!("a{c}")), format!("a{c}"));
            let x = g.cell(Opcode::Id, format!("x{c}"), &[a.into()]);
            let _ = g.cell(Opcode::Sink(format!("y{c}")), format!("y{c}"), &[x.into()]);
        }
        g
    }

    #[test]
    fn components_pack_with_zero_cross_arcs() {
        let g = multi_chain(8);
        let m = ShardMap::build(&g, ShardPolicy::Topology, 4);
        assert!(m.viable);
        assert_eq!(m.cross_arcs, 0);
        assert!(m.dist.iter().all(|&d| d == u64::MAX));
        assert_eq!(m.shard_cells.iter().sum::<u32>() as usize, g.nodes.len());
        assert_eq!(m.shard_cells, vec![6, 6, 6, 6]);
        // Every chain stays within one shard.
        for e in &g.arcs {
            assert_eq!(m.cell_shard[e.src.idx()], m.cell_shard[e.dst.idx()]);
        }
    }

    #[test]
    fn single_pipeline_bands_by_level() {
        let mut g = Graph::new();
        let a = g.add_node(Opcode::Source("a".into()), "a");
        let mut prev = a;
        for k in 0..10 {
            prev = g.cell(Opcode::Id, format!("s{k}"), &[prev.into()]);
        }
        let _ = g.cell(Opcode::Sink("y".into()), "y", &[prev.into()]);
        let m = ShardMap::build(&g, ShardPolicy::Topology, 3);
        assert!(m.viable);
        // A chain cut into 3 bands crosses exactly twice.
        assert_eq!(m.cross_arcs, 2);
        // Distances reflect hops to the nearest cut.
        assert_eq!(m.dist.iter().filter(|&&d| d == 0).count(), 4);
    }

    #[test]
    fn shared_sink_slot_across_shards_disqualifies() {
        let mut g = Graph::new();
        for c in 0..4 {
            let a = g.add_node(Opcode::Source(format!("a{c}")), format!("a{c}"));
            let x = g.cell(
                Opcode::Bin(BinOp::Add),
                format!("x{c}"),
                &[a.into(), a.into()],
            );
            // Every chain reports to the SAME sink port name.
            let _ = g.cell(Opcode::Sink("y".into()), format!("y{c}"), &[x.into()]);
        }
        let m = ShardMap::build(&g, ShardPolicy::Topology, 2);
        assert!(!m.viable, "split sink slot must disqualify the map");
    }

    #[test]
    fn striped_matches_contiguous_bands() {
        let g = multi_chain(4);
        let m = ShardMap::build(&g, ShardPolicy::Striped, 3);
        assert_eq!(m.cell_shard[0], 0);
        assert_eq!(*m.cell_shard.last().unwrap(), 2);
        let mut sorted = m.cell_shard.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, m.cell_shard, "striped bands are contiguous");
    }
}
