//! The partial schedule and its flat modulo reservation table.
//!
//! The modulo reservation table (MRT) is the scheduler's innermost data
//! structure: every candidate cycle probed by the free-slot search and every
//! forced placement goes through it. It is therefore kept *flat*: dense
//! `[resource-index × II-slot]` arrays addressed through
//! [`vliw::ResourceIndexer`], and `place`/`eject` maintain per-kind
//! occupancy totals incrementally instead of rescanning the table.
//!
//! Reservation tables are *folded* onto the MRT once per attempt: the uses
//! of a table are merged into `(resource, offset mod II, joint count)`
//! entries named by a [`FoldedTable`] handle, memoized per `(opcode,
//! cluster)` and per move route until the next [`PartialSchedule::reset`].
//! A probe is then one `rem_euclid` plus, per entry, a wrap-add and a
//! capacity compare (a 17-use divide at II 8 is 8 entries), and placing a
//! node allocates nothing. Node placements (`cycle_of`, `cluster_of`, the
//! placement order that `conflicts` sorts by, and `eject`) live in a dense
//! slot per `NodeId::index`, so every lookup is an array read and
//! [`PartialSchedule::iter`] yields nodes in id order. Each placement also
//! keeps its kernel cycle, so `eject` and the critical-cycle query
//! [`PartialSchedule::first_placed_in`] divide nothing.

use ddg::NodeId;
use std::ops::Range;
use vliw::{ClusterId, MachineConfig, Opcode, ReservationTable, ResourceIndexer, ResourceKind};

/// A reservation table folded onto the MRT of one [`PartialSchedule`] at
/// its current II.
///
/// Obtain one through [`PartialSchedule::op_table`],
/// [`PartialSchedule::move_table`] or [`PartialSchedule::fold`]. It names
/// entries stored in the schedule that produced it and stays valid until
/// that schedule is reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldedTable {
    start: u32,
    end: u32,
}

impl FoldedTable {
    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// All uses of one folded table that land in the same MRT cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FoldEntry {
    /// First cell of the resource's MRT row (`kind × II`).
    row: usize,
    /// Dense resource index.
    kind: u32,
    /// Offset of the uses modulo II.
    slot: u32,
    /// Number of the table's uses landing in this cell.
    count: u32,
    /// Capacity of the resource.
    cap: u32,
}

impl FoldEntry {
    /// Flat cell index of this entry for an issue cycle in kernel cycle
    /// `base` (`base < ii`).
    fn cell(&self, base: u32, ii: u32) -> usize {
        let mut s = base + self.slot;
        if s >= ii {
            s -= ii;
        }
        self.row + s as usize
    }
}

/// Placement of one node in the partial schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlacementInfo {
    /// Absolute issue cycle (may be negative before normalization).
    pub cycle: i64,
    /// Kernel cycle of `cycle` (`cycle mod II`), the MRT row offset.
    pub slot: u32,
    /// Cluster executing the operation.
    pub cluster: ClusterId,
    /// Resources the operation occupies (kept so ejection can release them).
    pub table: FoldedTable,
    /// Monotonic placement counter; smaller = placed earlier. Used by the
    /// Forcing-and-Ejection heuristic to pick the first-placed conflicting
    /// operation.
    pub order: u64,
}

/// A partial modulo schedule: node placements plus a flat modulo reservation
/// table tracking resource usage per kernel cycle.
///
/// The MRT is indexed by `(dense resource index, cycle mod II)`; per-cluster
/// resources (functional units, memory ports, communication ports) and the
/// shared buses are all tracked uniformly through [`ResourceKind`] mapped to
/// dense indices by the machine's [`ResourceIndexer`]. Capacities are cached
/// at construction, so probes never touch the machine configuration.
#[derive(Debug, Clone)]
pub struct PartialSchedule {
    ii: u32,
    indexer: ResourceIndexer,
    /// Capacity of each resource kind, in dense-index order.
    caps: Vec<u32>,
    /// Occupancy count per `[resource-index × II-slot]` cell.
    counts: Vec<u32>,
    /// Occupying nodes per cell, each listed once (needed by conflict
    /// reporting and ejection; `counts` carries the multiplicity of a
    /// table that self-overlaps modulo the II).
    occupants: Vec<Vec<NodeId>>,
    /// Total reserved slots per resource kind, maintained incrementally on
    /// `place`/`eject` — the cluster-selection heuristic reads this on every
    /// candidate cluster.
    occupancy_by_kind: Vec<u32>,
    /// Entries of every table folded since the last reset.
    entries: Vec<FoldEntry>,
    /// Memoized fold per `(opcode, cluster)`, at `opcode · clusters +
    /// cluster` (grown on demand).
    op_tables: Vec<Option<FoldedTable>>,
    /// Memoized fold per move route, at `src · clusters + dst`.
    move_tables: Vec<Option<FoldedTable>>,
    /// Placement of each scheduled node, at `NodeId::index` (grown on
    /// demand; `reset` clears every slot, since each attempt's graph copy
    /// hands out the node ids of the attempt before it again).
    placements: Vec<Option<PlacementInfo>>,
    /// Number of scheduled nodes (occupied `placements` slots).
    placed: usize,
    next_order: u64,
}

impl PartialSchedule {
    /// Empty schedule for `machine` at initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    #[must_use]
    pub fn new(machine: &MachineConfig, ii: u32) -> Self {
        assert!(ii > 0, "the initiation interval must be positive");
        let indexer = machine.resource_indexer();
        let caps = machine.capacity_vector();
        let cells = indexer.len() * ii as usize;
        Self {
            ii,
            indexer,
            caps,
            counts: vec![0; cells],
            occupants: vec![Vec::new(); cells],
            occupancy_by_kind: vec![0; indexer.len()],
            entries: Vec::new(),
            op_tables: Vec::new(),
            move_tables: Vec::new(),
            placements: Vec::new(),
            placed: 0,
            next_order: 0,
        }
    }

    /// Reset to the empty schedule [`PartialSchedule::new`] would build for
    /// `machine` at `ii`, reusing the MRT storage (cell vectors keep their
    /// capacity, occupant lists keep theirs where the shape allows). The
    /// result is observably identical to a fresh construction — the
    /// scheduler's attempt loop relies on that to reuse one buffer across
    /// II restarts and loops. Every [`FoldedTable`] handed out before is
    /// invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn reset(&mut self, machine: &MachineConfig, ii: u32) {
        assert!(ii > 0, "the initiation interval must be positive");
        self.ii = ii;
        self.indexer = machine.resource_indexer();
        self.caps = machine.capacity_vector();
        let cells = self.indexer.len() * ii as usize;
        self.counts.clear();
        self.counts.resize(cells, 0);
        for occ in &mut self.occupants {
            occ.clear();
        }
        self.occupants.resize_with(cells, Vec::new);
        self.occupancy_by_kind.clear();
        self.occupancy_by_kind.resize(self.indexer.len(), 0);
        self.entries.clear();
        self.op_tables.clear();
        self.move_tables.clear();
        self.placements.clear();
        self.placed = 0;
        self.next_order = 0;
    }

    /// Initiation interval of the schedule.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Number of scheduled nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.placed
    }

    /// Whether no node is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.placed == 0
    }

    /// Placement of `node`, if scheduled.
    fn info(&self, node: NodeId) -> Option<&PlacementInfo> {
        self.placements.get(node.index()).and_then(Option::as_ref)
    }

    /// Whether `node` is currently scheduled.
    #[must_use]
    pub fn is_scheduled(&self, node: NodeId) -> bool {
        self.info(node).is_some()
    }

    /// Issue cycle of `node`, if scheduled.
    #[must_use]
    pub fn cycle_of(&self, node: NodeId) -> Option<i64> {
        self.info(node).map(|p| p.cycle)
    }

    /// Cluster of `node`, if scheduled.
    #[must_use]
    pub fn cluster_of(&self, node: NodeId) -> Option<ClusterId> {
        self.info(node).map(|p| p.cluster)
    }

    /// Iterator over scheduled nodes with their cycle and cluster, in
    /// ascending node id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, i64, ClusterId)> + '_ {
        self.placements
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (NodeId(i as u32), p.cycle, p.cluster)))
    }

    /// Earliest issue cycle used by any scheduled node.
    #[must_use]
    pub fn min_cycle(&self) -> Option<i64> {
        self.iter().map(|(_, cycle, _)| cycle).min()
    }

    /// Latest issue cycle used by any scheduled node.
    #[must_use]
    pub fn max_cycle(&self) -> Option<i64> {
        self.iter().map(|(_, cycle, _)| cycle).max()
    }

    /// Fold `rt` onto the MRT at the current II: uses that land in the
    /// same cell (same resource, same offset modulo II) are merged into one
    /// entry with their joint count. Not memoized — the scheduler goes
    /// through [`PartialSchedule::op_table`] and
    /// [`PartialSchedule::move_table`], which fold each table once per
    /// attempt.
    pub fn fold(&mut self, rt: &ReservationTable) -> FoldedTable {
        let start = self.entries.len();
        for u in rt {
            let kind = self.indexer.index_of(u.kind) as u32;
            let slot = u.offset % self.ii;
            match self.entries[start..]
                .iter_mut()
                .find(|e| e.kind == kind && e.slot == slot)
            {
                Some(e) => e.count += 1,
                None => self.entries.push(FoldEntry {
                    row: kind as usize * self.ii as usize,
                    kind,
                    slot,
                    count: 1,
                    cap: self.caps[kind as usize],
                }),
            }
        }
        FoldedTable {
            start: start as u32,
            end: self.entries.len() as u32,
        }
    }

    /// Folded table of `opcode` executed on `cluster` of `machine` (the
    /// machine this schedule was built for), folded on first use after
    /// [`PartialSchedule::new`] or [`PartialSchedule::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `opcode` is a move; use [`PartialSchedule::move_table`].
    pub fn op_table(
        &mut self,
        machine: &MachineConfig,
        opcode: Opcode,
        cluster: ClusterId,
    ) -> FoldedTable {
        let key = opcode as usize * self.indexer.clusters() + cluster.index();
        if let Some(&Some(t)) = self.op_tables.get(key) {
            return t;
        }
        debug_assert_eq!(machine.resource_indexer(), self.indexer);
        let t = self.fold(&machine.reservation(opcode, cluster));
        memoize(&mut self.op_tables, key, t)
    }

    /// Folded table of a move from `src` to `dst` on `machine` (the machine
    /// this schedule was built for), folded on first use after
    /// [`PartialSchedule::new`] or [`PartialSchedule::reset`].
    pub fn move_table(
        &mut self,
        machine: &MachineConfig,
        src: ClusterId,
        dst: ClusterId,
    ) -> FoldedTable {
        let key = src.index() * self.indexer.clusters() + dst.index();
        if let Some(&Some(t)) = self.move_tables.get(key) {
            return t;
        }
        debug_assert_eq!(machine.resource_indexer(), self.indexer);
        let t = self.fold(&machine.move_reservation(src, dst));
        memoize(&mut self.move_tables, key, t)
    }

    /// The entries of `table`.
    fn entries_of(&self, table: FoldedTable) -> &[FoldEntry] {
        &self.entries[table.range()]
    }

    /// Kernel cycle (MRT row offset) of `cycle`.
    fn base(&self, cycle: i64) -> u32 {
        cycle.rem_euclid(i64::from(self.ii)) as u32
    }

    /// Whether `table` fits at `cycle` without exceeding any resource
    /// capacity.
    #[must_use]
    pub fn can_place(&self, table: FoldedTable, cycle: i64) -> bool {
        let base = self.base(cycle);
        self.entries_of(table)
            .iter()
            .all(|e| self.counts[e.cell(base, self.ii)] + e.count <= e.cap)
    }

    /// Whether `table` can never be placed at *any* cycle of an empty MRT
    /// at this II: some cell's capacity is exceeded by the table's own uses
    /// alone. The folded entries are invariant under cycle shifts, so this
    /// needs no cycle at all.
    ///
    /// Such a table makes the current II intrinsically infeasible for the
    /// operation (typically an unpipelined long-latency operation at a small
    /// II); callers must raise the II instead of forcing the placement and
    /// ejecting innocent neighbours.
    #[must_use]
    pub fn intrinsically_infeasible(&self, table: FoldedTable) -> bool {
        self.entries_of(table).iter().any(|e| e.count > e.cap)
    }

    /// Place `node` at `cycle` on `cluster` with reservation `table`,
    /// without checking capacities (forced placements may oversubscribe; the
    /// caller ejects conflicting nodes afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the node is already scheduled.
    pub fn place(&mut self, node: NodeId, cycle: i64, cluster: ClusterId, table: FoldedTable) {
        assert!(!self.is_scheduled(node), "node {node} is already scheduled");
        let base = self.base(cycle);
        for e in &self.entries[table.range()] {
            let cell = e.cell(base, self.ii);
            self.counts[cell] += e.count;
            self.occupants[cell].push(node);
            self.occupancy_by_kind[e.kind as usize] += e.count;
        }
        let order = self.next_order;
        self.next_order += 1;
        if node.index() >= self.placements.len() {
            self.placements.resize(node.index() + 1, None);
        }
        self.placements[node.index()] = Some(PlacementInfo {
            cycle,
            slot: base,
            cluster,
            table,
            order,
        });
        self.placed += 1;
    }

    /// Place `node` only if it fits; returns whether it was placed.
    pub fn try_place(
        &mut self,
        node: NodeId,
        cycle: i64,
        cluster: ClusterId,
        table: FoldedTable,
    ) -> bool {
        if self.can_place(table, cycle) {
            self.place(node, cycle, cluster, table);
            true
        } else {
            false
        }
    }

    /// Remove `node` from the schedule, releasing its resources. Returns its
    /// previous issue cycle.
    ///
    /// # Panics
    ///
    /// Panics if the node is not scheduled.
    pub fn eject(&mut self, node: NodeId) -> i64 {
        let info = self
            .placements
            .get_mut(node.index())
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("node {node} is not scheduled"));
        self.placed -= 1;
        for e in &self.entries[info.table.range()] {
            let cell = e.cell(info.slot, self.ii);
            let occ = &mut self.occupants[cell];
            if let Some(pos) = occ.iter().position(|&n| n == node) {
                occ.swap_remove(pos);
                self.counts[cell] -= e.count;
                self.occupancy_by_kind[e.kind as usize] -= e.count;
            }
        }
        info.cycle
    }

    /// Nodes that conflict with placing `table` at `cycle`: the occupants
    /// of every resource cell that would exceed its capacity, ordered by
    /// placement time (first placed first). `out` is cleared and refilled,
    /// so a caller that keeps one buffer allocates nothing.
    pub fn conflicts(&self, table: FoldedTable, cycle: i64, out: &mut Vec<NodeId>) {
        let base = self.base(cycle);
        out.clear();
        for e in self.entries_of(table) {
            let cell = e.cell(base, self.ii);
            if self.counts[cell] + e.count > e.cap {
                for &n in &self.occupants[cell] {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
        }
        // Occupants are scheduled, so their orders are distinct and the
        // unstable sort (which never allocates) is deterministic.
        out.sort_unstable_by_key(|&n| self.order_of(n).unwrap_or(u64::MAX));
    }

    /// Total occupancy (number of reserved slots) of a resource kind —
    /// used by the cluster-selection heuristic to prefer the least busy
    /// cluster. Maintained incrementally; O(1).
    #[must_use]
    pub fn occupancy(&self, kind: ResourceKind) -> u32 {
        self.occupancy_by_kind[self.indexer.index_of(kind)]
    }

    /// The earliest-placed node on `cluster` in kernel cycle `slot`
    /// (`cycle mod II`) that satisfies `pred`, if any. Reads the kernel
    /// cycle each placement stored, so the scan divides nothing.
    pub fn first_placed_in(
        &self,
        cluster: ClusterId,
        slot: u32,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        let mut first: Option<(u64, NodeId)> = None;
        for (i, p) in self.placements.iter().enumerate() {
            let Some(p) = p else { continue };
            if p.cluster != cluster
                || p.slot != slot
                || first.is_some_and(|(order, _)| order < p.order)
            {
                continue;
            }
            let n = NodeId(i as u32);
            if pred(n) {
                first = Some((p.order, n));
            }
        }
        first.map(|(_, n)| n)
    }

    /// Placement order of a node (smaller = placed earlier), if scheduled.
    #[must_use]
    pub(crate) fn order_of(&self, node: NodeId) -> Option<u64> {
        self.info(node).map(|p| p.order)
    }

    /// Current incremental gauges, for tests: `(counts, occupancy_by_kind)`,
    /// the cell counts at `dense resource index × II + kernel cycle` and the
    /// reserved slots per dense resource index.
    #[doc(hidden)]
    #[must_use]
    pub fn gauges(&self) -> (Vec<u32>, Vec<u32>) {
        (self.counts.clone(), self.occupancy_by_kind.clone())
    }
}

/// Record `t` as the memoized fold at `key` of `memo`, growing it as needed.
fn memoize(memo: &mut Vec<Option<FoldedTable>>, key: usize, t: FoldedTable) -> FoldedTable {
    if key >= memo.len() {
        memo.resize(key + 1, None);
    }
    memo[key] = Some(t);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw::LatencyModel;

    fn machine() -> MachineConfig {
        MachineConfig::paper_config(2, 32).unwrap()
    }

    fn gp0() -> ResourceKind {
        ResourceKind::GpUnit {
            cluster: ClusterId(0),
        }
    }

    /// Folded table of `op` on `cluster` of the test machine.
    fn t(s: &mut PartialSchedule, op: Opcode, cluster: u16) -> FoldedTable {
        s.op_table(&machine(), op, ClusterId(cluster))
    }

    #[test]
    fn place_and_query() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 4);
        let add = t(&mut s, Opcode::FpAdd, 0);
        assert!(s.try_place(NodeId(0), 3, ClusterId(0), add));
        assert!(s.is_scheduled(NodeId(0)));
        assert_eq!(s.cycle_of(NodeId(0)), Some(3));
        assert_eq!(s.cluster_of(NodeId(0)), Some(ClusterId(0)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.min_cycle(), Some(3));
        assert_eq!(s.max_cycle(), Some(3));
    }

    #[test]
    fn capacity_is_enforced_per_modulo_slot() {
        let m = machine(); // 2 memory ports per cluster
        let mut s = PartialSchedule::new(&m, 2);
        let load0 = t(&mut s, Opcode::Load, 0);
        let load1 = t(&mut s, Opcode::Load, 1);
        assert!(s.try_place(NodeId(0), 0, ClusterId(0), load0));
        assert!(s.try_place(NodeId(1), 2, ClusterId(0), load0));
        // Cycle 4 maps to the same MRT slot (0) and both ports are taken.
        assert!(!s.can_place(load0, 4));
        // The other cluster's ports are independent.
        assert!(s.can_place(load1, 4));
        // Another kernel cycle is free.
        assert!(s.can_place(load0, 1));
    }

    #[test]
    fn eject_releases_resources() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 1);
        let add = t(&mut s, Opcode::FpAdd, 0);
        // 4 GP units in cluster 0 of the 2-cluster machine.
        for i in 0..4u32 {
            assert!(s.try_place(NodeId(i), 0, ClusterId(0), add));
        }
        assert!(!s.can_place(add, 0));
        let cycle = s.eject(NodeId(2));
        assert_eq!(cycle, 0);
        assert!(!s.is_scheduled(NodeId(2)));
        assert!(s.can_place(add, 0));
    }

    #[test]
    fn conflicts_report_first_placed_first() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 1);
        let add = t(&mut s, Opcode::FpAdd, 0);
        for i in 0..4u32 {
            s.place(NodeId(i), 0, ClusterId(0), add);
        }
        let mut c = vec![NodeId(9)];
        s.conflicts(add, 0, &mut c);
        assert_eq!(c.len(), 4, "the buffer is cleared first");
        assert_eq!(c[0], NodeId(0), "first placed node reported first");
    }

    #[test]
    fn negative_cycles_fold_into_the_mrt() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 3);
        let load = t(&mut s, Opcode::Load, 0);
        assert!(s.try_place(NodeId(0), -1, ClusterId(0), load));
        assert!(s.try_place(NodeId(1), 2, ClusterId(0), load));
        // Slot 2 now holds both memory ports' worth of work at cycle -1 and 2.
        assert!(!s.can_place(load, 5));
    }

    #[test]
    fn forced_placement_can_oversubscribe_and_conflicts_detect_it() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 1);
        let add = t(&mut s, Opcode::FpAdd, 0);
        for i in 0..5u32 {
            s.place(NodeId(i), 0, ClusterId(0), add);
        }
        assert_eq!(s.len(), 5);
        let mut c = Vec::new();
        s.conflicts(add, 0, &mut c);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn bus_capacity_limits_concurrent_moves() {
        let m = machine(); // 2 buses
        let mut s = PartialSchedule::new(&m, 1);
        let mv = s.move_table(&m, ClusterId(0), ClusterId(1));
        let mv_rev = s.move_table(&m, ClusterId(1), ClusterId(0));
        assert!(s.try_place(NodeId(0), 0, ClusterId(1), mv));
        // Second move in the same cycle: the out-port of cluster 0 is busy.
        assert!(!s.can_place(mv, 0));
        // Opposite direction uses different ports and the second bus.
        assert!(s.try_place(NodeId(1), 0, ClusterId(0), mv_rev));
        // A third move in the same cycle fails: no bus left.
        assert!(!s.can_place(mv_rev, 0));
    }

    #[test]
    fn occupancy_counts_reserved_slots() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 4);
        let div = t(&mut s, Opcode::FpDiv, 0);
        s.place(NodeId(0), 0, ClusterId(0), div);
        assert!(m.resource_count(gp0()) >= 1);
        assert_eq!(
            s.occupancy(gp0()),
            17,
            "an unpipelined divide reserves its unit for 17 cycles"
        );
        let _ = s.eject(NodeId(0));
        assert_eq!(
            s.occupancy(gp0()),
            0,
            "ejection returns the occupancy gauge to zero"
        );
    }

    #[test]
    fn self_overlapping_table_counts_duplicate_cells_jointly() {
        // II = 4 < 17 = divide occupancy: the divide's own uses stack up in
        // every kernel cycle (ceil(17/4) = 5 in slot 0, 4 elsewhere). With
        // 4 GP units per cluster the table alone exceeds capacity.
        let m = machine();
        let mut s = PartialSchedule::new(&m, 4);
        let div = t(&mut s, Opcode::FpDiv, 0);
        assert_eq!(s.entries_of(div).len(), 4, "one entry per kernel cycle");
        assert!(!s.can_place(div, 0));
        assert!(s.intrinsically_infeasible(div));
        // At II = 5 the divide folds to 4, 4, 3, 3, 3 uses per slot: feasible.
        let mut s = PartialSchedule::new(&m, 5);
        let div = t(&mut s, Opcode::FpDiv, 0);
        let counts: Vec<u32> = s.entries_of(div).iter().map(|e| e.count).collect();
        assert_eq!(counts, [4, 4, 3, 3, 3]);
        assert!(s.can_place(div, 0));
        assert!(!s.intrinsically_infeasible(div));
    }

    #[test]
    fn intrinsic_infeasibility_ignores_other_occupants() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 1);
        let add = t(&mut s, Opcode::FpAdd, 0);
        for i in 0..4u32 {
            s.place(NodeId(i), 0, ClusterId(0), add);
        }
        // The MRT is full, but a single add is not *intrinsically*
        // infeasible — ejection can make room for it.
        assert!(!s.can_place(add, 0));
        assert!(!s.intrinsically_infeasible(add));
    }

    #[test]
    fn tables_are_folded_once_per_attempt() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 8);
        let div = t(&mut s, Opcode::FpDiv, 1);
        let mv = s.move_table(&m, ClusterId(0), ClusterId(1));
        let folded = s.entries.len();
        assert_eq!(t(&mut s, Opcode::FpDiv, 1), div);
        assert_eq!(s.move_table(&m, ClusterId(0), ClusterId(1)), mv);
        assert_eq!(s.entries.len(), folded, "a memoized fetch folds nothing");
        assert_ne!(t(&mut s, Opcode::FpDiv, 0), div, "tables are per cluster");
        s.reset(&m, 8);
        assert!(s.entries.is_empty(), "reset drops every fold");
        assert_eq!(t(&mut s, Opcode::FpAdd, 0).range(), 0..1);
    }

    #[test]
    fn incremental_gauges_match_recount_after_churn() {
        let m = machine();
        let ii = 3;
        let mut s = PartialSchedule::new(&m, ii);
        let lat = LatencyModel::default();
        let tables = [
            (NodeId(0), 0, m.reservation(Opcode::FpDiv, ClusterId(0))),
            (NodeId(1), -2, m.reservation(Opcode::Load, ClusterId(1))),
            (
                NodeId(2),
                4,
                ReservationTable::for_move(ClusterId(0), ClusterId(1), &lat),
            ),
            (NodeId(3), 1, m.reservation(Opcode::FpAdd, ClusterId(0))),
        ];
        for (n, cycle, rt) in &tables {
            let folded = s.fold(rt);
            s.place(*n, *cycle, ClusterId(0), folded);
        }
        let _ = s.eject(NodeId(0));
        let _ = s.eject(NodeId(2));
        let ix = m.resource_indexer();
        let mut counts = vec![0u32; ix.len() * ii as usize];
        let mut by_kind = vec![0u32; ix.len()];
        for (_, cycle, rt) in tables.iter().filter(|(n, ..)| s.is_scheduled(*n)) {
            for u in rt {
                let slot = (cycle + i64::from(u.offset)).rem_euclid(i64::from(ii));
                counts[ix.index_of(u.kind) * ii as usize + slot as usize] += 1;
                by_kind[ix.index_of(u.kind)] += 1;
            }
        }
        assert_eq!(s.gauges(), (counts, by_kind));
    }

    #[test]
    #[should_panic(expected = "already scheduled")]
    fn double_placement_panics() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 2);
        let empty = s.fold(&ReservationTable::new());
        s.place(NodeId(0), 0, ClusterId(0), empty);
        s.place(NodeId(0), 1, ClusterId(0), empty);
    }

    #[test]
    #[should_panic(expected = "not scheduled")]
    fn ejecting_unscheduled_node_panics() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 2);
        let _ = s.eject(NodeId(7));
    }
}
