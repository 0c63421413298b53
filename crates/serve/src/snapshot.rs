//! [`TableSnapshot`]: one immutable, epoch-numbered copy of a fabric's
//! routing tables, repacked as struct-of-arrays planes.
//!
//! # Plane layout
//!
//! The producing [`RoutingState`] is array-of-structs: a flat
//! `Vec<Option<RouteEntry>>` whose 32-byte elements interleave
//! destination, first hop and distance — every lookup drags all of them
//! (plus `Option` padding) through cache. A snapshot splits that table
//! into four parallel planes, indexed by the same flat position
//! `node * module_count + module`:
//!
//! ```text
//! AoS  table[flat] : [ dest | next_hop | distance | Option pad ]  32 B
//!                              ⇣ fill_from (one pass, in place)
//! SoA  dest      u16 ┆ u16 ┆ u16 ┆ …   (sentinel = no route)      2 B/entry
//!      next_hop  u16 ┆ u16 ┆ u16 ┆ …                              2 B/entry
//!      distance  f64 ┆ f64 ┆ f64 ┆ …   (0.0 where invalid)        8 B/entry
//!      valid     word-packed bitset                               1 bit/entry
//! ```
//!
//! The phase-2 matrices split the same way: distances stay one
//! contiguous `f64` plane (cost queries touch nothing else) and the
//! successor matrix becomes an [`IndexPlane`] (path walks touch nothing
//! else). Index planes are `u16`-compacted whenever the node count
//! allows (every current workload) and fall back to `u32` lanes past
//! [`IndexPlane::NARROW_BOUND`]; batched execution monomorphizes its
//! gather loops per width.

use etx_graph::{IndexPlane, Matrix, NodeId, PlaneIdx};
use etx_routing::{ChangeLog, RouteEntry, RouteTablePlanes, RoutingState};

/// An immutable copy of everything a query needs from one controller
/// invocation: the phase-3 per-(node, module) route table and the
/// phase-2 distance/successor data, stored as struct-of-arrays planes
/// (see the module docs for the layout).
///
/// Snapshots reconstruct **byte-identical** [`RouteEntry`] values to
/// the [`RoutingState`] they were filled from, are numbered by a
/// monotonically increasing epoch, and are never mutated after
/// publication — a reader holding one can answer queries indefinitely
/// without observing a half-rebuilt table, no matter how many
/// recomputes the writer publishes on top.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    epoch: u64,
    modules: usize,
    nodes: usize,
    /// Phase-2 distance plane (`n x n`, row-major; `+inf` = unreachable).
    dist: Matrix<f64>,
    /// Phase-2 successor plane (`n * n`, sentinel = no successor).
    succ: IndexPlane,
    /// Phase-3 table planes (`n * modules` flat positions).
    table: RouteTablePlanes,
}

impl Default for TableSnapshot {
    fn default() -> Self {
        TableSnapshot::empty()
    }
}

impl TableSnapshot {
    /// An empty (epoch-0, zero-node) snapshot; fill it through
    /// [`TableSnapshot::fill_from`] (or a publisher) before use.
    #[must_use]
    pub fn empty() -> Self {
        TableSnapshot {
            epoch: 0,
            modules: 0,
            nodes: 0,
            dist: Matrix::default(),
            succ: IndexPlane::new(),
            table: RouteTablePlanes::new(),
        }
    }

    /// Overwrites this snapshot with `routing`'s tables at `epoch`,
    /// compacted into planes in one pass over each source buffer. Every
    /// plane is refilled in place — refills on warmed snapshots of
    /// unchanged dimensions perform no heap allocation.
    pub fn fill_from(&mut self, epoch: u64, routing: &RoutingState) {
        self.fill_from_bounded(epoch, routing, routing.node_count());
    }

    /// [`TableSnapshot::fill_from`] with an explicit index bound (the
    /// exclusive upper bound of node indices the planes must represent).
    /// The bound decides the index-plane lane width: bounds past
    /// [`IndexPlane::NARROW_BOUND`] select the wide (`u32`) fallback —
    /// which is how the `node_count > u16::MAX` regime is exercised
    /// without materializing a 65k-node system.
    ///
    /// # Panics
    ///
    /// Panics if `index_bound` is smaller than `routing`'s node count.
    pub fn fill_from_bounded(&mut self, epoch: u64, routing: &RoutingState, index_bound: usize) {
        let n = routing.node_count();
        assert!(index_bound >= n, "index bound {index_bound} below node count {n}");
        self.epoch = epoch;
        self.modules = routing.module_count();
        self.nodes = n;
        self.dist.copy_from(routing.paths().distances());
        let succ = routing.paths().successors().as_slice();
        self.succ.fill_with(succ.len(), index_bound, |i| succ[i].map(NodeId::index));
        self.table.fill_from_table(routing.route_table(), index_bound);
    }

    /// `true` when this snapshot's phase-2 planes have the shape
    /// [`TableSnapshot::fill_from`] would give them for an `n`-node
    /// state: `n × n`, at the lane width the natural bound selects.
    pub(crate) fn planes_fit(&self, n: usize) -> bool {
        self.nodes == n
            && self.dist.rows() == n
            && self.dist.cols() == n
            && self.succ.len() == n * n
            && self.succ.is_wide() != IndexPlane::narrow_fits(n)
    }

    /// Brings this snapshot up to `routing` at `epoch` by copying only
    /// the phase-2 cells `logs` name, then refilling the table planes in
    /// full. Returns the number of cells copied (a cell named by two
    /// logs counts twice; copying it twice is harmless).
    ///
    /// The caller guarantees the result equals
    /// [`TableSnapshot::fill_from`]: the planes already fit `routing`
    /// ([`TableSnapshot::planes_fit`]) and every cell in which they
    /// differ from `routing`'s is named by one of `logs` — which is what
    /// the publisher's generation chain establishes.
    pub(crate) fn patch_from(
        &mut self,
        epoch: u64,
        routing: &RoutingState,
        logs: &[&ChangeLog],
    ) -> u64 {
        let n = routing.node_count();
        assert!(self.planes_fit(n), "delta patch onto planes of another shape");
        self.epoch = epoch;
        self.modules = routing.module_count();
        let src_dist = routing.paths().distances();
        let src_succ = routing.paths().successors();
        let copied = match &mut self.succ {
            IndexPlane::Narrow(succ) => copy_cells(&mut self.dist, succ, src_dist, src_succ, logs),
            IndexPlane::Wide(succ) => copy_cells(&mut self.dist, succ, src_dist, src_succ, logs),
        };
        self.table.fill_from_table(routing.route_table(), n);
        copied
    }

    /// The epoch this snapshot was published at (0 = never filled).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of modules covered.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.modules
    }

    /// The phase-3 table planes — the storage batched execution gathers
    /// from directly.
    #[must_use]
    pub fn table_planes(&self) -> &RouteTablePlanes {
        &self.table
    }

    /// The phase-2 distance plane, row-major (`from * n + to`).
    #[must_use]
    pub fn dist_plane(&self) -> &[f64] {
        self.dist.as_slice()
    }

    /// The phase-2 successor plane, row-major (`from * n + to`).
    #[must_use]
    pub fn succ_plane(&self) -> &IndexPlane {
        &self.succ
    }

    /// `true` when the index planes run wide (`u32`) lanes — the
    /// `node_count > u16::MAX` fallback regime.
    #[must_use]
    pub fn wide_index_planes(&self) -> bool {
        self.succ.is_wide()
    }

    /// Reconstructs the `Option<RouteEntry>` at flat table position
    /// `flat` (`node * module_count + module`) — byte-identical to the
    /// producing router's entry; `None` out of range.
    #[must_use]
    pub fn entry(&self, flat: usize) -> Option<RouteEntry> {
        self.table.entry(flat)
    }

    /// Iterates every flat table position's reconstructed entry, in
    /// flat order — the byte-identity oracle against
    /// [`RoutingState::route_table`].
    pub fn entries(&self) -> impl Iterator<Item = Option<RouteEntry>> + '_ {
        (0..self.table.len()).map(|flat| self.table.entry(flat))
    }

    /// Point lookup: the routing-table entry for packets originating at
    /// `node` whose next operation belongs to `module`; `None` when no
    /// live duplicate is reachable (or `node`/`module` is unknown).
    #[must_use]
    pub fn route(&self, node: NodeId, module: usize) -> Option<RouteEntry> {
        if module >= self.modules || node.index() >= self.nodes {
            return None;
        }
        self.table.entry(node.index() * self.modules + module)
    }

    /// The relay decision: the next hop out of `from` toward `to`, from
    /// the phase-2 successor plane (`Some(to)` when `from == to`).
    #[must_use]
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        let n = self.nodes;
        if from.index() >= n || to.index() >= n {
            return None;
        }
        if from == to {
            Some(to)
        } else {
            self.succ.get(from.index() * n + to.index()).map(NodeId::new)
        }
    }

    /// The phase-2 (battery-weighted under EAR) path cost between two
    /// nodes; `None` when unreachable or out of range.
    #[must_use]
    pub fn cost(&self, from: NodeId, to: NodeId) -> Option<f64> {
        let n = self.nodes;
        if from.index() >= n || to.index() >= n {
            return None;
        }
        let d = self.dist.as_slice()[from.index() * n + to.index()];
        d.is_finite().then_some(d)
    }

    /// Full-path materialization: resolves `node`'s table entry for
    /// `module` and appends the complete node sequence (both endpoints
    /// included; `[node]` when self-hosted) to `out`. The entry's first
    /// hop is honoured even when it detours off the successor chain (a
    /// deadlock redirect), with the remainder walked through the
    /// successor plane. Returns the resolved entry, or `None` (with
    /// `out` untouched) when no route exists or the walk does not
    /// terminate (corrupt snapshot; defensive guard).
    pub fn path_into(
        &self,
        node: NodeId,
        module: usize,
        out: &mut Vec<NodeId>,
    ) -> Option<RouteEntry> {
        let entry = self.route(node, module)?;
        // Dispatch on the plane width once; the walk itself runs over
        // the bare lane slice (no per-hop enum dispatch).
        let walked = match self.succ.narrow() {
            Some(succ) => self.walk_into(succ, node, &entry, out),
            None => self.walk_into(
                self.succ.wide().expect("plane is narrow or wide"),
                node,
                &entry,
                out,
            ),
        };
        walked.then_some(entry)
    }

    /// The successor-chain walk of [`TableSnapshot::path_into`],
    /// monomorphized per lane width. Returns `false` (with `out`
    /// restored) when the chain breaks or fails to terminate.
    fn walk_into<I: PlaneIdx>(
        &self,
        succ: &[I],
        node: NodeId,
        entry: &RouteEntry,
        out: &mut Vec<NodeId>,
    ) -> bool {
        let start = out.len();
        out.push(node);
        if entry.destination != node {
            let n = self.nodes;
            let dest = entry.destination.index();
            let mut cur = entry.next_hop;
            out.push(cur);
            let mut hops = 1usize;
            while cur != entry.destination {
                if cur.index() >= n {
                    out.truncate(start);
                    return false;
                }
                let next = succ[cur.index() * n + dest];
                if next == I::SENTINEL {
                    out.truncate(start);
                    return false;
                }
                cur = NodeId::new(next.expand());
                out.push(cur);
                hops += 1;
                if hops > n {
                    out.truncate(start);
                    return false;
                }
            }
        }
        true
    }
}

/// The cell copy of [`TableSnapshot::patch_from`], monomorphized per
/// successor lane width: whole rows stream, cell runs scatter within
/// their source's row.
fn copy_cells<I: PlaneIdx>(
    dist: &mut Matrix<f64>,
    succ: &mut [I],
    src_dist: &Matrix<f64>,
    src_succ: &Matrix<Option<NodeId>>,
    logs: &[&ChangeLog],
) -> u64 {
    let n = src_dist.cols();
    let lane = |hop: Option<NodeId>| hop.map_or(I::SENTINEL, |h| I::compact(h.index()));
    let mut copied = 0u64;
    for log in logs {
        for &s in log.rows() {
            let s = s as usize;
            dist.row_slice_mut(s).copy_from_slice(src_dist.row_slice(s));
            let succ_row = &mut succ[s * n..(s + 1) * n];
            for (dst, &hop) in succ_row.iter_mut().zip(src_succ.row_slice(s)) {
                *dst = lane(hop);
            }
            copied += n as u64;
        }
        for (s, targets) in log.cell_runs() {
            let (dist_row, src_dist_row) = (dist.row_slice_mut(s), src_dist.row_slice(s));
            let (succ_row, src_succ_row) = (&mut succ[s * n..(s + 1) * n], src_succ.row_slice(s));
            for &t in targets {
                let t = t as usize;
                dist_row[t] = src_dist_row[t];
                succ_row[t] = lane(src_succ_row[t]);
            }
            copied += targets.len() as u64;
        }
    }
    copied
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_graph::topology;
    use etx_routing::{Algorithm, Router, SystemReport};
    use etx_units::Length;

    fn ring_state(k: usize) -> RoutingState {
        let graph = topology::ring(k, Length::from_centimetres(1.0));
        let modules = vec![vec![NodeId::new(0), NodeId::new(k / 2)]];
        let report = SystemReport::fresh(k, 16);
        Router::new(Algorithm::Ear).compute(&graph, &modules, &report, None)
    }

    #[test]
    fn snapshot_mirrors_routing_state() {
        let state = ring_state(6);
        let mut snap = TableSnapshot::empty();
        snap.fill_from(7, &state);
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.node_count(), 6);
        assert_eq!(snap.module_count(), 1);
        assert!(!snap.wide_index_planes(), "6 nodes compact to u16 lanes");
        assert!(snap.entries().eq(state.route_table().iter().copied()));
        for i in 0..6 {
            let node = NodeId::new(i);
            assert_eq!(snap.route(node, 0), state.route(node, 0).copied());
            for j in 0..6 {
                let other = NodeId::new(j);
                assert_eq!(snap.cost(node, other), state.distance(node, other));
                assert_eq!(snap.next_hop(node, other), state.next_hop(node, other));
            }
        }
    }

    #[test]
    fn refill_reuses_buffers_and_replaces_content() {
        let a = ring_state(6);
        let b = ring_state(8);
        let mut snap = TableSnapshot::empty();
        snap.fill_from(1, &a);
        snap.fill_from(2, &b);
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.node_count(), 8);
        assert!(snap.entries().eq(b.route_table().iter().copied()));
    }

    #[test]
    fn wide_plane_fallback_answers_identically() {
        // The node_count > u16::MAX shape without 65k nodes: an index
        // bound past the narrow range forces u32 lanes on every index
        // plane, and every answer must match the narrow snapshot's.
        let state = ring_state(6);
        let mut narrow = TableSnapshot::empty();
        narrow.fill_from(1, &state);
        let mut wide = TableSnapshot::empty();
        wide.fill_from_bounded(1, &state, 70_000);
        assert!(wide.wide_index_planes());
        assert!(wide.table_planes().dest.is_wide() && wide.table_planes().next_hop.is_wide());
        assert!(!narrow.wide_index_planes());
        assert!(wide.entries().eq(narrow.entries()));
        let mut wide_path = Vec::new();
        let mut narrow_path = Vec::new();
        for i in 0..6 {
            let node = NodeId::new(i);
            assert_eq!(wide.route(node, 0), narrow.route(node, 0));
            wide_path.clear();
            narrow_path.clear();
            let we = wide.path_into(node, 0, &mut wide_path);
            let ne = narrow.path_into(node, 0, &mut narrow_path);
            assert_eq!(we, ne);
            assert_eq!(wide_path, narrow_path);
            for j in 0..6 {
                let other = NodeId::new(j);
                assert_eq!(wide.cost(node, other), narrow.cost(node, other));
                assert_eq!(wide.next_hop(node, other), narrow.next_hop(node, other));
            }
        }
        // Refilling the wide snapshot under the natural bound narrows it
        // back — the width follows the bound, not the history.
        wide.fill_from(2, &state);
        assert!(!wide.wide_index_planes());
        assert_eq!(wide, {
            narrow.fill_from(2, &state);
            narrow
        });
    }

    #[test]
    fn path_walks_to_the_chosen_duplicate() {
        let state = ring_state(6);
        let mut snap = TableSnapshot::empty();
        snap.fill_from(1, &state);
        let mut path = Vec::new();
        let entry = snap.path_into(NodeId::new(1), 0, &mut path).expect("route exists");
        assert_eq!(path.first(), Some(&NodeId::new(1)));
        assert_eq!(path.last(), Some(&entry.destination));
        assert_eq!(path[1], entry.next_hop);
        // Self-hosted: single-node path.
        path.clear();
        let own = snap.path_into(NodeId::new(0), 0, &mut path).expect("self route");
        assert_eq!(own.destination, NodeId::new(0));
        assert_eq!(path, vec![NodeId::new(0)]);
    }

    #[test]
    fn out_of_range_queries_are_none() {
        let mut snap = TableSnapshot::empty();
        snap.fill_from(1, &ring_state(4));
        assert!(snap.route(NodeId::new(9), 0).is_none());
        assert!(snap.route(NodeId::new(0), 9).is_none());
        assert!(snap.cost(NodeId::new(0), NodeId::new(9)).is_none());
        assert!(snap.next_hop(NodeId::new(9), NodeId::new(0)).is_none());
        let mut path = Vec::new();
        assert!(snap.path_into(NodeId::new(9), 0, &mut path).is_none());
        assert!(path.is_empty());
    }
}
