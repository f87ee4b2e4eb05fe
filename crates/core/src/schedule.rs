//! The partial schedule and its flat modulo reservation table.
//!
//! The modulo reservation table (MRT) is the scheduler's innermost data
//! structure: every candidate cycle probed by the free-slot search and every
//! forced placement goes through it. It is therefore kept *flat*: dense
//! `[resource-index × II-slot]` arrays addressed through
//! [`vliw::ResourceIndexer`], so a capacity probe is a couple of array reads
//! instead of hash-map lookups, and `place`/`eject` maintain per-kind
//! occupancy totals incrementally instead of rescanning the table.

use ddg::collections::HashMap;
use ddg::NodeId;
use vliw::{ClusterId, MachineConfig, ReservationTable, ResourceIndexer, ResourceKind};

/// Placement of one node in the partial schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlacementInfo {
    /// Absolute issue cycle (may be negative before normalization).
    pub cycle: i64,
    /// Cluster executing the operation.
    pub cluster: ClusterId,
    /// Resources the operation occupies (kept so ejection can release them).
    pub rt: ReservationTable,
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
    /// Occupying nodes per cell (needed by conflict reporting and ejection;
    /// a forced placement may push the same node twice into one cell when
    /// its reservation table self-overlaps modulo the II).
    occupants: Vec<Vec<NodeId>>,
    /// Total reserved slots per resource kind, maintained incrementally on
    /// `place`/`eject` — the cluster-selection heuristic reads this on every
    /// candidate cluster.
    occupancy_by_kind: Vec<u32>,
    placements: HashMap<NodeId, PlacementInfo>,
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
            placements: HashMap::default(),
            next_order: 0,
        }
    }

    /// Reset to the empty schedule [`PartialSchedule::new`] would build for
    /// `machine` at `ii`, reusing the MRT storage (cell vectors keep their
    /// capacity, occupant lists keep theirs where the shape allows). The
    /// result is observably identical to a fresh construction — the
    /// scheduler's attempt loop relies on that to reuse one buffer across
    /// II restarts and loops.
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
        self.placements.clear();
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
        self.placements.len()
    }

    /// Whether no node is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Whether `node` is currently scheduled.
    #[must_use]
    pub fn is_scheduled(&self, node: NodeId) -> bool {
        self.placements.contains_key(&node)
    }

    /// Issue cycle of `node`, if scheduled.
    #[must_use]
    pub fn cycle_of(&self, node: NodeId) -> Option<i64> {
        self.placements.get(&node).map(|p| p.cycle)
    }

    /// Cluster of `node`, if scheduled.
    #[must_use]
    pub fn cluster_of(&self, node: NodeId) -> Option<ClusterId> {
        self.placements.get(&node).map(|p| p.cluster)
    }

    /// Iterator over scheduled nodes with their cycle and cluster.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, i64, ClusterId)> + '_ {
        self.placements
            .iter()
            .map(|(&n, p)| (n, p.cycle, p.cluster))
    }

    /// Earliest issue cycle used by any scheduled node.
    #[must_use]
    pub fn min_cycle(&self) -> Option<i64> {
        self.placements.values().map(|p| p.cycle).min()
    }

    /// Latest issue cycle used by any scheduled node.
    #[must_use]
    pub fn max_cycle(&self) -> Option<i64> {
        self.placements.values().map(|p| p.cycle).max()
    }

    /// Kernel cycle (MRT row) of `cycle + offset`.
    fn slot(&self, cycle: i64, offset: u32) -> u32 {
        (cycle + i64::from(offset)).rem_euclid(i64::from(self.ii)) as u32
    }

    /// Flat cell index of `(kind, cycle + offset)`.
    fn cell(&self, kind: ResourceKind, cycle: i64, offset: u32) -> usize {
        self.indexer.index_of(kind) * self.ii as usize + self.slot(cycle, offset) as usize
    }

    /// Visit every distinct cell `rt` would occupy at `cycle`, with the
    /// joint number of uses landing in that cell (a table spanning II
    /// cycles or more collides with itself in the MRT, so one cell can
    /// receive several uses). Stops early — returning `false` — as soon as
    /// `visit` does. The single home of the duplicate-cell counting that
    /// `can_place`, `conflicts` and `intrinsically_infeasible` must agree
    /// on; no scratch tables are allocated.
    fn for_each_cell(
        &self,
        rt: &ReservationTable,
        cycle: i64,
        mut visit: impl FnMut(usize, usize, u32) -> bool,
    ) -> bool {
        let uses = rt.as_slice();
        for (i, u) in uses.iter().enumerate() {
            let cell = self.cell(u.kind, cycle, u.offset);
            if uses[..i]
                .iter()
                .any(|p| self.cell(p.kind, cycle, p.offset) == cell)
            {
                continue; // this cell was already counted in full
            }
            let added = 1 + uses[i + 1..]
                .iter()
                .filter(|p| self.cell(p.kind, cycle, p.offset) == cell)
                .count() as u32;
            if !visit(cell, self.indexer.index_of(u.kind), added) {
                return false;
            }
        }
        true
    }

    /// Whether `rt` fits at `cycle` without exceeding any resource capacity.
    #[must_use]
    pub fn can_place(&self, rt: &ReservationTable, cycle: i64) -> bool {
        self.for_each_cell(rt, cycle, |cell, kind, added| {
            self.counts[cell] + added <= self.caps[kind]
        })
    }

    /// Whether `rt` can never be placed at *any* cycle of an empty MRT at
    /// this II: some cell's capacity is exceeded by the table's own uses
    /// alone. The per-slot multiset of uses is invariant under cycle shifts,
    /// so one probe at cycle 0 decides every cycle.
    ///
    /// Such a table makes the current II intrinsically infeasible for the
    /// operation (typically an unpipelined long-latency operation at a small
    /// II); callers must raise the II instead of forcing the placement and
    /// ejecting innocent neighbours.
    #[must_use]
    pub fn intrinsically_infeasible(&self, rt: &ReservationTable) -> bool {
        // Fast path: every constructible table (`for_op`: one kind at
        // consecutive offsets; `for_move`: three distinct kinds) maps its
        // uses to distinct cells when it spans no more than II cycles, so
        // self-collision reduces to a zero-capacity resource.
        if rt.len() as u32 <= self.ii {
            return rt
                .iter()
                .any(|u| self.caps[self.indexer.index_of(u.kind)] == 0);
        }
        !self.for_each_cell(rt, 0, |_, kind, added| added <= self.caps[kind])
    }

    /// Place `node` at `cycle` on `cluster` with reservation table `rt`,
    /// without checking capacities (forced placements may oversubscribe; the
    /// caller ejects conflicting nodes afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the node is already scheduled.
    pub fn place(&mut self, node: NodeId, cycle: i64, cluster: ClusterId, rt: ReservationTable) {
        assert!(!self.is_scheduled(node), "node {node} is already scheduled");
        for u in &rt {
            let cell = self.cell(u.kind, cycle, u.offset);
            self.counts[cell] += 1;
            self.occupants[cell].push(node);
            self.occupancy_by_kind[self.indexer.index_of(u.kind)] += 1;
        }
        let order = self.next_order;
        self.next_order += 1;
        self.placements.insert(
            node,
            PlacementInfo {
                cycle,
                cluster,
                rt,
                order,
            },
        );
    }

    /// Place `node` only if it fits; returns whether it was placed.
    pub fn try_place(
        &mut self,
        node: NodeId,
        cycle: i64,
        cluster: ClusterId,
        rt: ReservationTable,
    ) -> bool {
        if self.can_place(&rt, cycle) {
            self.place(node, cycle, cluster, rt);
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
            .remove(&node)
            .unwrap_or_else(|| panic!("node {node} is not scheduled"));
        for u in &info.rt {
            let cell = self.cell(u.kind, info.cycle, u.offset);
            let occ = &mut self.occupants[cell];
            if let Some(pos) = occ.iter().position(|&n| n == node) {
                occ.swap_remove(pos);
                self.counts[cell] -= 1;
                self.occupancy_by_kind[self.indexer.index_of(u.kind)] -= 1;
            }
        }
        info.cycle
    }

    /// Nodes that conflict with placing `rt` at `cycle`: the occupants of
    /// every resource cell that would exceed its capacity, ordered by
    /// placement time (first placed first).
    #[must_use]
    pub fn conflicts(&self, rt: &ReservationTable, cycle: i64) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        self.for_each_cell(rt, cycle, |cell, kind, added| {
            if self.counts[cell] + added > self.caps[kind] {
                for &n in &self.occupants[cell] {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
            true
        });
        out.sort_by_key(|n| self.placements.get(n).map(|p| p.order).unwrap_or(u64::MAX));
        out
    }

    /// Total occupancy (number of reserved slots) of a resource kind —
    /// used by the cluster-selection heuristic to prefer the least busy
    /// cluster. Maintained incrementally; O(1).
    #[must_use]
    pub fn occupancy(&self, kind: ResourceKind) -> u32 {
        self.occupancy_by_kind[self.indexer.index_of(kind)]
    }

    /// Placement order of a node (smaller = placed earlier), if scheduled.
    #[must_use]
    pub(crate) fn order_of(&self, node: NodeId) -> Option<u64> {
        self.placements.get(&node).map(|p| p.order)
    }

    /// From-scratch recount of every incremental gauge, for tests: returns
    /// `(counts, occupancy_by_kind)` recomputed from the placements alone.
    #[doc(hidden)]
    #[must_use]
    pub fn recount(&self) -> (Vec<u32>, Vec<u32>) {
        let mut counts = vec![0u32; self.counts.len()];
        let mut by_kind = vec![0u32; self.occupancy_by_kind.len()];
        for p in self.placements.values() {
            for u in &p.rt {
                counts[self.cell(u.kind, p.cycle, u.offset)] += 1;
                by_kind[self.indexer.index_of(u.kind)] += 1;
            }
        }
        (counts, by_kind)
    }

    /// Current incremental gauges, for tests (same shape as
    /// [`PartialSchedule::recount`]).
    #[doc(hidden)]
    #[must_use]
    pub fn gauges(&self) -> (Vec<u32>, Vec<u32>) {
        (self.counts.clone(), self.occupancy_by_kind.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw::{LatencyModel, Opcode};

    fn machine() -> MachineConfig {
        MachineConfig::paper_config(2, 32).unwrap()
    }

    fn rt(op: Opcode, cluster: u16) -> ReservationTable {
        ReservationTable::for_op(op, ClusterId(cluster), &LatencyModel::default())
    }

    #[test]
    fn place_and_query() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 4);
        assert!(s.try_place(NodeId(0), 3, ClusterId(0), rt(Opcode::FpAdd, 0)));
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
        assert!(s.try_place(NodeId(0), 0, ClusterId(0), rt(Opcode::Load, 0)));
        assert!(s.try_place(NodeId(1), 2, ClusterId(0), rt(Opcode::Load, 0)));
        // Cycle 4 maps to the same MRT slot (0) and both ports are taken.
        assert!(!s.can_place(&rt(Opcode::Load, 0), 4));
        // The other cluster's ports are independent.
        assert!(s.can_place(&rt(Opcode::Load, 1), 4));
        // Another kernel cycle is free.
        assert!(s.can_place(&rt(Opcode::Load, 0), 1));
    }

    #[test]
    fn eject_releases_resources() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 1);
        // 4 GP units in cluster 0 of the 2-cluster machine.
        for i in 0..4u32 {
            assert!(s.try_place(NodeId(i), 0, ClusterId(0), rt(Opcode::FpAdd, 0)));
        }
        assert!(!s.can_place(&rt(Opcode::FpAdd, 0), 0));
        let cycle = s.eject(NodeId(2));
        assert_eq!(cycle, 0);
        assert!(!s.is_scheduled(NodeId(2)));
        assert!(s.can_place(&rt(Opcode::FpAdd, 0), 0));
    }

    #[test]
    fn conflicts_report_first_placed_first() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 1);
        for i in 0..4u32 {
            s.place(NodeId(i), 0, ClusterId(0), rt(Opcode::FpAdd, 0));
        }
        let c = s.conflicts(&rt(Opcode::FpAdd, 0), 0);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0], NodeId(0), "first placed node reported first");
    }

    #[test]
    fn negative_cycles_fold_into_the_mrt() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 3);
        assert!(s.try_place(NodeId(0), -1, ClusterId(0), rt(Opcode::Load, 0)));
        assert!(s.try_place(NodeId(1), 2, ClusterId(0), rt(Opcode::Load, 0)));
        // Slot 2 now holds both memory ports' worth of work at cycle -1 and 2.
        assert!(!s.can_place(&rt(Opcode::Load, 0), 5));
    }

    #[test]
    fn forced_placement_can_oversubscribe_and_conflicts_detect_it() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 1);
        for i in 0..5u32 {
            s.place(NodeId(i), 0, ClusterId(0), rt(Opcode::FpAdd, 0));
        }
        assert_eq!(s.len(), 5);
        let c = s.conflicts(&rt(Opcode::FpAdd, 0), 0);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn bus_capacity_limits_concurrent_moves() {
        let m = machine(); // 2 buses
        let lat = LatencyModel::default();
        let mv = ReservationTable::for_move(ClusterId(0), ClusterId(1), &lat);
        let mut s = PartialSchedule::new(&m, 1);
        assert!(s.try_place(NodeId(0), 0, ClusterId(1), mv.clone()));
        // Second move in the same cycle: the out-port of cluster 0 is busy.
        assert!(!s.can_place(&mv, 0));
        let mv_rev = ReservationTable::for_move(ClusterId(1), ClusterId(0), &lat);
        // Opposite direction uses different ports and the second bus.
        assert!(s.try_place(NodeId(1), 0, ClusterId(0), mv_rev.clone()));
        // A third move in the same cycle fails: no bus left.
        let mv2 = ReservationTable::for_move(ClusterId(1), ClusterId(0), &lat);
        assert!(!s.can_place(&mv2, 0));
    }

    #[test]
    fn occupancy_counts_reserved_slots() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 4);
        s.place(NodeId(0), 0, ClusterId(0), rt(Opcode::FpDiv, 0));
        assert!(
            m.resource_count(ResourceKind::GpUnit {
                cluster: ClusterId(0)
            }) >= 1
        );
        assert_eq!(
            s.occupancy(ResourceKind::GpUnit {
                cluster: ClusterId(0)
            }),
            17,
            "an unpipelined divide reserves its unit for 17 cycles"
        );
        let _ = s.eject(NodeId(0));
        assert_eq!(
            s.occupancy(ResourceKind::GpUnit {
                cluster: ClusterId(0)
            }),
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
        let s = PartialSchedule::new(&m, 4);
        assert!(!s.can_place(&rt(Opcode::FpDiv, 0), 0));
        assert!(s.intrinsically_infeasible(&rt(Opcode::FpDiv, 0)));
        // At II = 5 the divide folds to 4, 4, 3, 3, 3 uses per slot: feasible.
        let s = PartialSchedule::new(&m, 5);
        assert!(s.can_place(&rt(Opcode::FpDiv, 0), 0));
        assert!(!s.intrinsically_infeasible(&rt(Opcode::FpDiv, 0)));
    }

    #[test]
    fn intrinsic_infeasibility_ignores_other_occupants() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 1);
        for i in 0..4u32 {
            s.place(NodeId(i), 0, ClusterId(0), rt(Opcode::FpAdd, 0));
        }
        // The MRT is full, but a single add is not *intrinsically*
        // infeasible — ejection can make room for it.
        assert!(!s.can_place(&rt(Opcode::FpAdd, 0), 0));
        assert!(!s.intrinsically_infeasible(&rt(Opcode::FpAdd, 0)));
    }

    #[test]
    fn incremental_gauges_match_recount_after_churn() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 3);
        let lat = LatencyModel::default();
        s.place(NodeId(0), 0, ClusterId(0), rt(Opcode::FpDiv, 0));
        s.place(NodeId(1), -2, ClusterId(1), rt(Opcode::Load, 1));
        s.place(
            NodeId(2),
            4,
            ClusterId(1),
            ReservationTable::for_move(ClusterId(0), ClusterId(1), &lat),
        );
        let _ = s.eject(NodeId(0));
        s.place(NodeId(3), 1, ClusterId(0), rt(Opcode::FpAdd, 0));
        let _ = s.eject(NodeId(2));
        let (counts, by_kind) = s.gauges();
        let (recount, re_kind) = s.recount();
        assert_eq!(counts, recount);
        assert_eq!(by_kind, re_kind);
    }

    #[test]
    #[should_panic(expected = "already scheduled")]
    fn double_placement_panics() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 2);
        s.place(NodeId(0), 0, ClusterId(0), ReservationTable::new());
        s.place(NodeId(0), 1, ClusterId(0), ReservationTable::new());
    }

    #[test]
    #[should_panic(expected = "not scheduled")]
    fn ejecting_unscheduled_node_panics() {
        let m = machine();
        let mut s = PartialSchedule::new(&m, 2);
        let _ = s.eject(NodeId(7));
    }
}
