//! Reusable scheduling buffers: one [`SchedScratch`] per worker amortises
//! every per-attempt allocation of the scheduler across II restarts *and*
//! across loops.
//!
//! A scheduling attempt needs its own copy of the loop's dependence graph,
//! a partial schedule (MRT arrays sized by resources × II), per-cluster
//! pressure gauges, a priority list and the [`AttemptSlots`]: dense node-
//! and value-indexed bookkeeping (previous cycle, move route, move index,
//! spill store), the log the names of inserted values are built from, and
//! the lists the force, eject, move-rewire and spill-ranking paths reuse on
//! every pick. The scratch holds them between attempts: `take_*` hands a
//! buffer out with its capacity preserved (reset to empty, or for the
//! graph, overwritten with a copy of the base), `reclaim` puts it back
//! when the attempt ends. A successful attempt keeps its graph: it moves
//! into the result. The loop's one-time analysis (recurrences, `RecMII`,
//! the HRMS order) runs in a [`LoopAnalysis`] workspace the scratch keeps
//! as well, so a warm loop set-up allocates only its recurrence list and
//! the hash sets that reproduce HRMS's ties. The same set-up fills the
//! [`LoopValues`], the base graph's invariant and carried values, which
//! every attempt reads and none changes.
//!
//! Reuse is invisible to the schedule: every buffer is reset to exactly the
//! state a freshly constructed one would have. Every attempt's graph copy
//! hands out the node and value ids the attempt before it inserted again,
//! so a take clears every slot rather than trusting the previous attempt
//! to have emptied them; no outcome depends on a buffer's capacity. The
//! golden `schedule_hash` tests and the buffer test below pin this.

use crate::pressure::PressureTracker;
use crate::priority::PriorityList;
use crate::schedule::PartialSchedule;
use crate::spill::ScheduledUse;
use ddg::analysis::LoopAnalysis;
use ddg::{DepGraph, NodeId, ValueId};
use vliw::{ClusterId, LatencyModel, MachineConfig};

/// What a value inserted during an attempt derives from. Its name is a
/// function of this and the source value's name, so it is spelled out once
/// per result (`SchedState::into_result`) instead of at creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Derivation {
    /// The copy of `of` a move carries into cluster `into` (`x@c1`).
    Copy {
        /// Moved value.
        of: ValueId,
        /// Destination cluster of the move.
        into: ClusterId,
    },
    /// The reload of spilled value `of` (`x.reload`).
    Reload {
        /// Spilled value.
        of: ValueId,
    },
}

/// Values of the loop's base graph that every attempt reads and none
/// changes, filled once per loop by [`SchedScratch::analyse`].
#[derive(Debug, Default)]
pub(crate) struct LoopValues {
    /// Invariant values of the loop, in id order.
    invariants: Vec<ValueId>,
    /// Loop-carried values produced by each node besides its `dest`,
    /// indexed by `NodeId::index` (one pass per loop instead of an
    /// out-edge scan per cluster per node pick). The content is
    /// loop-constant: producers of carried values are fixed at graph
    /// construction, scheduler-inserted nodes only define fresh values,
    /// and a carried value always keeps at least one carrying out-edge at
    /// its producer (moves and spill stores replace direct edges with
    /// edges that still carry the value). Nodes inserted during scheduling
    /// read as empty, which is exact for them. The order is the base
    /// graph's out-edge order for the whole loop, even after rewiring
    /// re-orders a producer's live out-edges.
    carried: Vec<Vec<ValueId>>,
}

impl LoopValues {
    /// Fill the table from `graph`, the base every attempt copies.
    fn fill(&mut self, graph: &DepGraph) {
        self.invariants.clear();
        self.invariants
            .extend(graph.value_ids().filter(|&v| graph.value(v).invariant));
        self.carried.clear();
        self.carried.resize_with(graph.node_capacity(), Vec::new);
        for n in graph.node_ids() {
            let list = compute_carried_values(graph, n);
            if !list.is_empty() {
                self.carried[n.index()] = list;
            }
        }
    }

    /// The loop's invariant values, in id order.
    pub(crate) fn invariants(&self) -> &[ValueId] {
        &self.invariants
    }

    /// Loop-carried values `node` produces besides its `dest` (empty for
    /// the overwhelmingly common dest-only case and for nodes inserted
    /// during scheduling).
    pub(crate) fn carried(&self, node: NodeId) -> &[ValueId] {
        self.carried
            .get(node.index())
            .map_or(&[][..], Vec::as_slice)
    }
}

/// The loop-carried values `node` produces besides its `dest`, in out-edge
/// order and deduplicated: what [`LoopValues`] records per node.
pub(crate) fn compute_carried_values(graph: &DepGraph, node: NodeId) -> Vec<ValueId> {
    let dest = graph.op(node).dest;
    let mut extra: Vec<ValueId> = Vec::new();
    for &e in graph.out_edge_ids(node) {
        let Some(v) = graph.edge(e).value else {
            continue;
        };
        if Some(v) == dest || graph.value(v).producer != Some(node) {
            continue;
        }
        if !extra.contains(&v) {
            extra.push(v);
        }
    }
    extra
}

/// Node- and value-indexed bookkeeping of one attempt, plus the reusable
/// per-pick lists.
///
/// Every slot vector is indexed by `NodeId::index`, `ValueId::index` or
/// `ValueId::index · clusters + cluster` and grows on write as the
/// scheduler inserts nodes and values. Reads past the end are empty.
#[derive(Debug, Default)]
pub(crate) struct AttemptSlots {
    clusters: usize,
    /// Cycle at which each node was scheduled the last time (before a
    /// possible ejection); drives the forced cycle of the paper.
    prev_cycle: Vec<Option<i64>>,
    /// (source, destination) clusters of every live move node.
    move_route: Vec<Option<(ClusterId, ClusterId)>>,
    /// Live move node transporting a value into a cluster, at
    /// `value · clusters + destination`; at most one per slot.
    move_into: Vec<Option<NodeId>>,
    /// Spill store node per spilled value. Stores are never removed from
    /// the graph, so this is a pure cache of `NodeOrigin::SpillStore` nodes.
    spill_store_of: Vec<Option<NodeId>>,
    /// Every value the attempt inserted, in creation order, with what it
    /// derives from. Values are never removed, so the log outlives the
    /// moves whose copies it names.
    derived: Vec<(ValueId, Derivation)>,
    /// Reused by `force_and_eject` for `PartialSchedule::conflicts`.
    pub conflicts: Vec<NodeId>,
    /// Reused by `force_and_eject` for the dependence-violated neighbours.
    pub violated: Vec<NodeId>,
    /// Reused by `eject_node` for the moves the ejection orphans.
    pub orphaned_moves: Vec<NodeId>,
    /// Reused by `ensure_moves` for its snapshot of the node's operands.
    pub operands: Vec<ValueId>,
    /// Filled by `ensure_moves` with the moves it created, in scheduling
    /// order.
    pub new_moves: Vec<NodeId>,
    /// Reused by `select_spill_candidate` for the scheduled uses of the
    /// value it is ranking, sorted by use cycle.
    pub uses: Vec<ScheduledUse>,
    /// The scheduled uses of the value whose section leads the ranking
    /// (swapped with `uses` when a section takes the lead).
    pub best_uses: Vec<ScheduledUse>,
}

/// Store `x` at `i`, growing `slots` with empty entries as needed.
fn put<T: Copy>(slots: &mut Vec<Option<T>>, i: usize, x: Option<T>) {
    if i >= slots.len() {
        if x.is_none() {
            return;
        }
        slots.resize(i + 1, None);
    }
    slots[i] = x;
}

/// The entry at `i`, empty past the end.
fn get<T: Copy>(slots: &[Option<T>], i: usize) -> Option<T> {
    slots.get(i).copied().flatten()
}

/// Empty `slots` and size it for `len` entries, keeping its capacity.
fn clear<T: Copy>(slots: &mut Vec<Option<T>>, len: usize) {
    slots.clear();
    slots.resize(len, None);
}

impl AttemptSlots {
    /// Empty every slot and size them for a graph of `nodes` node ids and
    /// `values` value ids on a `clusters`-cluster machine.
    fn reset(&mut self, nodes: usize, values: usize, clusters: usize) {
        self.clusters = clusters;
        clear(&mut self.prev_cycle, nodes);
        clear(&mut self.move_route, nodes);
        clear(&mut self.move_into, values * clusters);
        clear(&mut self.spill_store_of, values);
        self.derived.clear();
        self.conflicts.clear();
        self.violated.clear();
        self.orphaned_moves.clear();
        self.operands.clear();
        self.new_moves.clear();
        self.uses.clear();
        self.best_uses.clear();
    }

    /// Cycle `node` was last scheduled at, if it was ever scheduled in
    /// this attempt.
    pub fn prev_cycle(&self, node: NodeId) -> Option<i64> {
        get(&self.prev_cycle, node.index())
    }

    /// Record that `node` was (or just stopped being) scheduled at `cycle`.
    pub fn set_prev_cycle(&mut self, node: NodeId, cycle: i64) {
        put(&mut self.prev_cycle, node.index(), Some(cycle));
    }

    /// (source, destination) clusters of move `node`, if it is a live move.
    pub fn route(&self, node: NodeId) -> Option<(ClusterId, ClusterId)> {
        get(&self.move_route, node.index())
    }

    /// Set or clear the route of move `node`.
    pub fn set_route(&mut self, node: NodeId, route: Option<(ClusterId, ClusterId)>) {
        put(&mut self.move_route, node.index(), route);
    }

    fn move_key(&self, value: ValueId, dst: ClusterId) -> usize {
        debug_assert!(dst.index() < self.clusters);
        value.index() * self.clusters + dst.index()
    }

    /// Live move transporting `value` into `dst`, if any.
    pub fn move_into(&self, value: ValueId, dst: ClusterId) -> Option<NodeId> {
        get(&self.move_into, self.move_key(value, dst))
    }

    /// Set or clear the move transporting `value` into `dst`.
    pub fn set_move_into(&mut self, value: ValueId, dst: ClusterId, mv: Option<NodeId>) {
        let key = self.move_key(value, dst);
        put(&mut self.move_into, key, mv);
    }

    /// Spill store of `value`, if one was inserted.
    pub fn spill_store(&self, value: ValueId) -> Option<NodeId> {
        get(&self.spill_store_of, value.index())
    }

    /// Record `store` as the spill store of `value`.
    pub fn set_spill_store(&mut self, value: ValueId, store: NodeId) {
        put(&mut self.spill_store_of, value.index(), Some(store));
    }

    /// Log that the freshly inserted `value` derives as `how`.
    pub fn log_derived(&mut self, value: ValueId, how: Derivation) {
        debug_assert!(
            self.derived.last().is_none_or(|&(prev, _)| prev < value),
            "inserted values are logged in creation order"
        );
        self.derived.push((value, how));
    }

    /// Every inserted value with its derivation, in creation order.
    pub fn derived(&self) -> &[(ValueId, Derivation)] {
        &self.derived
    }
}

/// Reusable per-worker scheduling state.
///
/// Create one per thread (or per sequential batch of loops) and pass it to
/// [`MirsScheduler::schedule_with`](crate::MirsScheduler::schedule_with);
/// the parallel sweep harness keeps one per worker. A scratch carries no
/// results — only warmed allocations — so reusing it across loops and
/// machine configurations is always safe.
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// Graph buffer of the next attempt; empty after a successful attempt
    /// moved its graph into the result.
    graph: DepGraph,
    sched: Option<PartialSchedule>,
    pressure: Option<PressureTracker>,
    plist: PriorityList,
    slots: AttemptSlots,
    /// The current loop's invariant and carried values, lent to each
    /// attempt.
    values: LoopValues,
    /// Workspace of the one-time loop analysis.
    analysis: LoopAnalysis,
    /// HRMS order buffer, lent to the search driver for one loop.
    order: Vec<NodeId>,
}

impl SchedScratch {
    /// Fresh scratch with no warmed buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Analyse `graph` under `lat` in the reused workspace: its `RecMII`,
    /// and its HRMS order in the reused order buffer, which the caller
    /// hands back with [`SchedScratch::reclaim_order`]. Also records the
    /// graph's [`LoopValues`] for the attempts that copy it.
    pub(crate) fn analyse(&mut self, graph: &DepGraph, lat: &LatencyModel) -> (u32, Vec<NodeId>) {
        self.values.fill(graph);
        self.analysis.analyse(graph, lat);
        let mut order = std::mem::take(&mut self.order);
        self.analysis.order(&mut order);
        (self.analysis.rec_mii(), order)
    }

    /// Take back the order buffer [`SchedScratch::analyse`] lent out.
    pub(crate) fn reclaim_order(&mut self, order: Vec<NodeId>) {
        self.order = order;
    }

    /// A copy of `base` in the reused graph buffer.
    pub(crate) fn take_graph(&mut self, base: &DepGraph) -> DepGraph {
        let mut graph = std::mem::take(&mut self.graph);
        graph.clone_from(base);
        graph
    }

    /// Partial schedule for `machine` at `ii`, reusing prior MRT storage.
    pub(crate) fn take_sched(&mut self, machine: &MachineConfig, ii: u32) -> PartialSchedule {
        match self.sched.take() {
            Some(mut s) => {
                s.reset(machine, ii);
                s
            }
            None => PartialSchedule::new(machine, ii),
        }
    }

    /// Pressure tracker for a `clusters`-cluster machine at `ii` with
    /// `values` pre-existing value ids, reusing prior storage.
    pub(crate) fn take_pressure(
        &mut self,
        clusters: usize,
        ii: u32,
        values: usize,
    ) -> PressureTracker {
        match self.pressure.take() {
            Some(mut p) => {
                p.reset(clusters, ii, values);
                p
            }
            None => PressureTracker::new(clusters, ii, values),
        }
    }

    /// Priority list loaded from an HRMS order, reusing prior storage.
    pub(crate) fn take_plist(&mut self, order: &[NodeId]) -> PriorityList {
        let mut pl = std::mem::take(&mut self.plist);
        pl.reset_from_order(order);
        pl
    }

    /// Empty attempt slots for a graph of `nodes` node ids and `values`
    /// value ids on a `clusters`-cluster machine, reusing prior storage.
    pub(crate) fn take_slots(
        &mut self,
        nodes: usize,
        values: usize,
        clusters: usize,
    ) -> AttemptSlots {
        let mut slots = std::mem::take(&mut self.slots);
        slots.reset(nodes, values, clusters);
        slots
    }

    /// The current loop's values, as [`SchedScratch::analyse`] recorded
    /// them; an attempt only reads them.
    pub(crate) fn take_loop_values(&mut self) -> LoopValues {
        std::mem::take(&mut self.values)
    }

    /// Return every buffer of a finished attempt so the next one (or the
    /// next loop) reuses the allocations.
    pub(crate) fn reclaim(
        &mut self,
        graph: DepGraph,
        sched: PartialSchedule,
        pressure: PressureTracker,
        plist: PriorityList,
        slots: AttemptSlots,
        values: LoopValues,
    ) {
        self.graph = graph;
        self.sched = Some(sched);
        self.pressure = Some(pressure);
        self.plist = plist;
        self.slots = slots;
        self.values = values;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddg::OperationData;
    use vliw::{MachineConfig, Opcode};

    /// A chain of `len` additions, each reading the one before.
    fn chain(len: usize) -> DepGraph {
        let mut g = DepGraph::new();
        let mut prev: Option<(NodeId, ValueId)> = None;
        for i in 0..len {
            let v = g.add_value(format!("v{i}"), false);
            let srcs = prev.map(|(_, pv)| vec![pv]).unwrap_or_default();
            let n = g.add_node(OperationData::new(Opcode::FpAdd, Some(v), srcs));
            if let Some((pn, pv)) = prev {
                g.add_flow(pn, n, pv, 0);
            }
            prev = Some((n, v));
        }
        g
    }

    #[test]
    fn taken_buffers_start_empty_for_any_history() {
        let mut scratch = SchedScratch::new();
        let m2 = MachineConfig::paper_config(2, 32).unwrap();
        let m1 = MachineConfig::paper_config(1, 64).unwrap();
        let (n, v) = (ddg::NodeId(0), ddg::ValueId(0));
        // Ids past the taken size: the slots grow on write.
        let (far_n, far_v) = (ddg::NodeId(40), ddg::ValueId(30));
        let c1 = vliw::ClusterId(1);
        let (small, large) = (chain(2), chain(5));

        // Edit the graph copy as an attempt would: insert, rewire, remove.
        let mut graph = scratch.take_graph(&small);
        assert_eq!(graph, small, "stale graph content");
        let reload = graph.add_value("v0.reload", false);
        let load = graph.add_node(OperationData::new(Opcode::SpillLoad, Some(reload), vec![]));
        graph.replace_src(ddg::NodeId(1), v, reload);
        graph.add_flow(load, ddg::NodeId(1), reload, 0);
        graph.remove_node(n);
        let mut sched = scratch.take_sched(&m2, 7);
        let add = sched.op_table(&m2, vliw::Opcode::FpAdd, vliw::ClusterId(0));
        sched.place(n, 3, vliw::ClusterId(0), add);
        let pressure = scratch.take_pressure(2, 7, 4);
        let plist = scratch.take_plist(&[n]);
        let mut slots = scratch.take_slots(4, 4, 2);
        for (node, value) in [(n, v), (far_n, far_v)] {
            slots.set_prev_cycle(node, 3);
            slots.set_route(node, Some((vliw::ClusterId(0), c1)));
            slots.set_move_into(value, c1, Some(node));
            slots.set_spill_store(value, node);
        }
        slots.log_derived(far_v, Derivation::Reload { of: v });
        slots.conflicts.push(n);
        slots.new_moves.push(far_n);
        let values = scratch.take_loop_values();
        scratch.reclaim(graph, sched, pressure, plist, slots, values);

        // Re-take for a different machine/II and a larger base: everything
        // must look fresh.
        let mut graph = scratch.take_graph(&large);
        assert_eq!(graph, large, "stale graph content");
        graph.remove_node(ddg::NodeId(3));
        let sched = scratch.take_sched(&m1, 3);
        assert_eq!(sched.ii(), 3);
        assert!(sched.is_empty());
        assert!(!sched.is_scheduled(n));
        assert_eq!(sched.iter().count(), 0);
        let (counts, by_kind) = sched.gauges();
        assert!(counts.iter().all(|&c| c == 0));
        assert!(by_kind.iter().all(|&c| c == 0));
        let slots = scratch.take_slots(2, 2, 1);
        let c0 = vliw::ClusterId(0);
        for (node, value) in [(n, v), (far_n, far_v)] {
            assert_eq!(slots.prev_cycle(node), None, "stale cycle of {node}");
            assert_eq!(slots.route(node), None, "stale route of {node}");
            assert_eq!(slots.move_into(value, c0), None, "stale move of {value:?}");
            assert_eq!(slots.spill_store(value), None, "stale store of {value:?}");
        }
        // On one cluster, slot (v, c0) of value 1 is where (v0, c1) was.
        assert_eq!(slots.move_into(ddg::ValueId(1), c0), None);
        assert!(slots.derived().is_empty(), "stale name log");
        assert!(slots.conflicts.is_empty() && slots.new_moves.is_empty());
        let plist = scratch.take_plist(&[ddg::NodeId(5)]);
        assert_eq!(plist.len(), 1);
        assert_eq!(plist.rank_of(n), None, "old ranks forgotten");
        let pressure = scratch.take_pressure(1, 3, 2);
        let values = scratch.take_loop_values();
        scratch.reclaim(graph, sched, pressure, plist, slots, values);

        // A buffer grown past the base shrinks back to it.
        assert_eq!(scratch.take_graph(&small), small, "stale graph content");
    }
}
