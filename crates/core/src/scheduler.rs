//! The MIRS-C attempt engine: one scheduling attempt at a fixed II
//! (Figure 4 of the paper, steps 1–6), plus the Forcing-and-Ejection
//! backtracking heuristic.
//!
//! The *search over candidate IIs* — which attempts are made, in which
//! order, and which successful attempt is accepted — lives in
//! [`crate::search`]; this module only knows how to run a single attempt
//! on its own copy of the loop's graph and how to package a finished
//! attempt as a [`ScheduleResult`].

use crate::error::ScheduleError;
use crate::options::SchedulerOptions;
use crate::pressure::PressureTracker;
use crate::priority::PriorityList;
use crate::result::{Placement, ScheduleResult, SchedulerStats, SearchMeta};
use crate::schedule::{FoldedTable, PartialSchedule};
use crate::scratch::{AttemptSlots, Derivation, LoopValues, SchedScratch};
use crate::search::SearchDriver;
use crate::spill::Rotation;
use ddg::collections::HashMap;
use ddg::{DepGraph, Loop, NodeId, NodeOrigin};
use vliw::{ClusterId, MachineConfig, Opcode};

/// Direction in which the scheduler searches for a free slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// From `EarlyStart` towards `LateStart`.
    Forward,
    /// From `LateStart` towards `EarlyStart`.
    Backward,
}

/// Search window for one node: where to look for a free cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Window {
    pub early: i64,
    pub late: i64,
    pub direction: Direction,
}

/// Mutable state of one scheduling attempt (one II value).
///
/// The graph is the attempt's own copy of the search's base graph, which
/// the attempt edits freely (spill and move insertion, rewiring). It and
/// every other component come from (and return to) the run's
/// [`SchedScratch`], so an attempt reuses the buffers of the one before
/// it; a successful attempt moves its graph into the result instead.
pub(crate) struct SchedState<'m> {
    pub machine: &'m MachineConfig,
    pub opts: SchedulerOptions,
    pub graph: DepGraph,
    pub sched: PartialSchedule,
    pub plist: PriorityList,
    /// Dense per-node and per-value bookkeeping: previous cycles (the
    /// forced cycle of the paper), move routes, the (value, destination) →
    /// move index `create_move`/`remove_move` maintain so move reuse needs
    /// no graph scan, the spill-store cache and the log inserted values
    /// are named from, plus the reused per-pick lists.
    pub slots: AttemptSlots,
    /// Memory operations in the graph at attempt start; the live count is
    /// `mem_ops_base + spills_inserted` (spill code is the only memory
    /// traffic the scheduler adds, and only moves are ever removed).
    pub mem_ops_base: u64,
    /// Remaining scheduling attempts before the II must be increased.
    pub budget: i64,
    /// Total spill operations inserted in this attempt (safety valve).
    pub spills_inserted: u32,
    /// Incrementally maintained per-cluster register-pressure gauges.
    pub pressure: PressureTracker,
    /// The loop's invariant and carried values, read from the base graph
    /// once per loop.
    pub values: LoopValues,
    pub stats: SchedulerStats,
}

/// Outcome of one attempt at a fixed II.
///
/// A successful attempt hands the *live* [`SchedState`] back to the search
/// driver instead of a finished result: the driver packages it with
/// [`SchedState::into_result`] when it beats the best candidate so far and
/// hands its buffers back with [`SchedState::reclaim_into`] otherwise. A
/// failed attempt hands back only its work counters.
pub(crate) enum AttemptOutcome<'m> {
    Success(Box<SchedState<'m>>),
    Restart(SchedulerStats),
}

/// The MIRS-C scheduler.
///
/// Construct one per machine configuration and call
/// [`MirsScheduler::schedule`] for each loop. The scheduler is stateless
/// between loops and therefore `Send + Sync`: all mutable state of an
/// attempt lives in a per-call `SchedState`, so one scheduler (or one
/// machine configuration) can be shared by reference across worker threads
/// scheduling different loops concurrently — the contract the parallel
/// sweep harness relies on. The compile-time assertion below pins it.
#[derive(Debug, Clone)]
pub struct MirsScheduler<'m> {
    machine: &'m MachineConfig,
    opts: SchedulerOptions,
}

// Pinned so a future field (interior mutability, an `Rc`-cached order)
// cannot silently break the parallel workbench sweep.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MirsScheduler<'static>>();
};

impl<'m> MirsScheduler<'m> {
    /// New scheduler for `machine` with the given options.
    #[must_use]
    pub fn new(machine: &'m MachineConfig, opts: SchedulerOptions) -> Self {
        Self { machine, opts }
    }

    /// The machine this scheduler targets.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// The options this scheduler uses.
    #[must_use]
    pub fn options(&self) -> &SchedulerOptions {
        &self.opts
    }

    /// Software-pipeline `lp`, producing a modulo schedule with integrated
    /// register spilling and cluster assignment.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::EmptyLoop`] for empty loop bodies and
    /// [`ScheduleError::NotConverged`] if no valid schedule is found before
    /// the II exceeds [`SchedulerOptions::max_ii`].
    pub fn schedule(&self, lp: &Loop) -> Result<ScheduleResult, ScheduleError> {
        self.schedule_with(lp, &mut SchedScratch::default())
    }

    /// [`MirsScheduler::schedule`] with caller-provided scratch buffers.
    ///
    /// The scratch amortises every per-attempt allocation (the graph
    /// copy, MRT arrays, pressure gauges, priority list, node- and
    /// value-indexed slots) across II restarts and across loops; the
    /// parallel sweep harness keeps one scratch per worker thread. Results
    /// are byte-identical to [`MirsScheduler::schedule`] for any reuse
    /// pattern.
    ///
    /// Every II attempt schedules its own copy of one base graph: `lp`'s
    /// graph itself when the prefetch policy leaves it unchanged, else one
    /// clone of it with the policy applied. The copy is made with
    /// `clone_from` into the scratch's graph buffer, so a restart reuses
    /// the allocations of the attempt before it, and a successful attempt
    /// moves its copy into the result.
    ///
    /// # Errors
    ///
    /// Same as [`MirsScheduler::schedule`].
    pub fn schedule_with(
        &self,
        lp: &Loop,
        scratch: &mut SchedScratch,
    ) -> Result<ScheduleResult, ScheduleError> {
        if lp.graph.node_count() == 0 {
            return Err(ScheduleError::EmptyLoop {
                loop_name: lp.name.clone(),
            });
        }
        SearchDriver::new(self, lp, scratch).run()
    }

    /// One scheduling attempt at a fixed II (steps 1–6 of Figure 4) over
    /// `order` (the canonical HRMS order, or a perturbed variant of it),
    /// on a copy of `base` taken from `scratch`. `base` holds
    /// `mem_ops_base` memory operations.
    ///
    /// On [`AttemptOutcome::Restart`] every buffer, the copy included, is
    /// back in `scratch`, and the outcome carries the attempt's work
    /// counters. On success the live state is returned, counters included;
    /// the caller turns it into a [`ScheduleResult`] via
    /// [`SchedState::into_result`] or hands it back via
    /// [`SchedState::reclaim_into`].
    pub(crate) fn attempt(
        &self,
        base: &DepGraph,
        order: &[NodeId],
        ii: u32,
        mem_ops_base: u64,
        scratch: &mut SchedScratch,
    ) -> AttemptOutcome<'m> {
        let budget = i64::from(self.opts.budget_ratio) * order.len() as i64;
        let graph = scratch.take_graph(base);
        let pressure = scratch.take_pressure(self.machine.clusters(), ii, graph.value_count());
        let mut st = SchedState {
            machine: self.machine,
            opts: self.opts,
            sched: scratch.take_sched(self.machine, ii),
            plist: scratch.take_plist(order),
            slots: scratch.take_slots(
                graph.node_capacity(),
                graph.value_count(),
                self.machine.clusters(),
            ),
            graph,
            mem_ops_base,
            budget,
            spills_inserted: 0,
            pressure,
            values: scratch.take_loop_values(),
            stats: SchedulerStats::default(),
        };
        if st.complete_placement() {
            return AttemptOutcome::Success(Box::new(st));
        }
        let stats = st.stats;
        st.reclaim_into(scratch);
        AttemptOutcome::Restart(stats)
    }
}

impl SchedState<'_> {
    /// Drive the placement loop (steps 1–6 of Figure 4) to completion over
    /// whatever the priority list currently holds, then apply the final
    /// register-allocation check: with spilling disabled (the behaviour of
    /// non-iterative schedulers such as \[31\]) the only remedy for excessive
    /// register pressure is a larger II.
    ///
    /// Returns whether the attempt succeeded; on failure the whole state is
    /// about to be reclaimed.
    fn complete_placement(&mut self) -> bool {
        // The attempt's no-candidate rotation, kept out of `SchedState`:
        // as a field there it moved the offsets every pick reads, and cost
        // perfbench `roomy` about 1% of its `loops_per_s` in alternated
        // runs on a 2-vCPU Intel Xeon.
        let mut rotation = Rotation::default();
        while let Some(u) = self.plist.pop() {
            if !self.graph.is_live(u) {
                continue; // removed move node that was still pending
            }
            self.stats.attempts += 1;

            // (C1) cluster selection; moves keep their fixed destination.
            let cluster = if self.graph.op(u).opcode.is_move() {
                self.slots.route(u).map_or(ClusterId::ZERO, |(_, d)| d)
            } else {
                self.select_cluster(u)
            };

            // (C2) insert and schedule the communication operations.
            let mut non_iterative_failure = false;
            if !self.graph.op(u).opcode.is_move() {
                self.ensure_moves(u, cluster);
                let moves = std::mem::take(&mut self.slots.new_moves);
                for &mv in &moves {
                    let (_, dst) = self.slots.route(mv).expect("a new move has a route");
                    if !self.schedule_node(mv, dst) {
                        non_iterative_failure = true;
                        break;
                    }
                }
                self.slots.new_moves = moves;
            }

            // (3) schedule the node itself.
            if !non_iterative_failure && !self.schedule_node(u, cluster) {
                non_iterative_failure = true;
            }
            if non_iterative_failure {
                // Backtracking disabled and no free slot: give up on this
                // II.
                return false;
            }

            // (4)+(5) register allocation / spill insertion.
            self.check_and_insert_spill(&mut rotation);

            // (6) restart heuristic.
            if self.should_restart() {
                return false;
            }
            self.budget -= 1;
        }

        let requirements = self.register_requirements();
        let fits = self
            .machine
            .cluster_ids()
            .zip(&requirements)
            .all(|(c, &rr)| rr <= self.machine.registers_in(c));
        if !fits {
            return false;
        }
        debug_assert!(
            self.locality_holds(),
            "successful attempt violates operand locality (move insertion hole)"
        );
        true
    }

    /// Whether every scheduled non-move node reads its operands from its
    /// own cluster (or from invariants). This is the invariant the move
    /// machinery maintains and `ScheduleResult::validate` re-checks on
    /// final schedules; asserting it on *every* successful attempt (debug
    /// builds) catches cluster-assignment holes the moment a new node
    /// order — e.g. a perturbed-search branch — exposes them, instead of
    /// at validation time three layers up.
    pub(crate) fn locality_holds(&self) -> bool {
        self.sched.iter().all(|(n, _, cl)| {
            if !self.graph.is_live(n) || self.graph.op(n).opcode.is_move() {
                return true;
            }
            self.graph.op(n).srcs().iter().all(|&v| {
                let vd = self.graph.value(v);
                vd.invariant
                    || vd
                        .producer
                        .is_none_or(|p| self.sched.cluster_of(p).is_none_or(|pc| pc == cl))
            })
        })
    }

    /// Return every buffer of this attempt, the graph included, so the
    /// next one reuses the allocations.
    pub(crate) fn reclaim_into(self, scratch: &mut SchedScratch) {
        scratch.reclaim(
            self.graph,
            self.sched,
            self.pressure,
            self.plist,
            self.slots,
            self.values,
        );
    }

    /// Folded reservation table of `node` when executed on `cluster`.
    pub(crate) fn reservation_for(&mut self, node: NodeId, cluster: ClusterId) -> FoldedTable {
        let opcode = self.graph.op(node).opcode;
        if opcode.is_move() {
            let (src, dst) = self.slots.route(node).unwrap_or((cluster, cluster));
            debug_assert_eq!(dst, cluster);
            self.sched.move_table(self.machine, src, dst)
        } else {
            self.sched.op_table(self.machine, opcode, cluster)
        }
    }

    /// Schedule one node on `cluster` (Figure 3 of the paper): find a free
    /// slot in the search window, or force it and eject conflicting and
    /// dependence-violated operations. Returns `false` when no schedule at
    /// the current II can ever place the node — backtracking is disabled
    /// and no free slot exists, or the node's reservation table exceeds a
    /// resource capacity all by itself (an unpipelined long-latency
    /// operation at a small II); the caller restarts with a larger II.
    pub(crate) fn schedule_node(&mut self, node: NodeId, cluster: ClusterId) -> bool {
        let window = self.window(node);
        let table = self.reservation_for(node, cluster);
        if let Some(cycle) = self.find_free_slot(table, window) {
            self.sched.place(node, cycle, cluster, table);
            self.pressure.touch_node(&self.graph, node);
            self.slots.set_prev_cycle(node, cycle);
            return true;
        }
        if !self.opts.enable_backtracking {
            return false;
        }
        if self.sched.intrinsically_infeasible(table) {
            // Forcing would oversubscribe a resource no ejection can free
            // (the table conflicts with *itself* in the MRT). Surface the
            // infeasibility instead of force-placing and watching the whole
            // budget drain on unrecoverable conflicts.
            return false;
        }
        self.force_and_eject(node, cluster, table, window);
        true
    }

    /// The Forcing-and-Ejection heuristic (Section 3.2.2).
    fn force_and_eject(
        &mut self,
        node: NodeId,
        cluster: ClusterId,
        table: FoldedTable,
        window: Window,
    ) -> i64 {
        self.stats.forced += 1;
        let prev = self.slots.prev_cycle(node);
        let forced_cycle = match window.direction {
            Direction::Forward => match prev {
                Some(p) => window.early.max(p + 1),
                None => window.early,
            },
            Direction::Backward => match prev {
                Some(p) => window.late.min(p - 1),
                None => window.late,
            },
        };

        // Eject operations causing resource conflicts: one at a time, always
        // the one placed earliest (or all of them under the ablation policy).
        // `eject_node` never touches the two reused lists taken here.
        let mut conflicts = std::mem::take(&mut self.slots.conflicts);
        loop {
            if self.sched.can_place(table, forced_cycle) {
                break;
            }
            self.sched.conflicts(table, forced_cycle, &mut conflicts);
            // `schedule_node` rejects intrinsically infeasible tables before
            // forcing, so a full cell always has an occupant to evict.
            debug_assert!(
                !conflicts.is_empty(),
                "no occupant to eject for a feasible reservation table"
            );
            if conflicts.is_empty() {
                break;
            }
            match self.opts.ejection {
                crate::options::EjectionPolicy::One => {
                    self.eject_node(conflicts[0]);
                }
                crate::options::EjectionPolicy::All => {
                    for &c in &conflicts {
                        if self.sched.is_scheduled(c) {
                            self.eject_node(c);
                        }
                    }
                }
            }
        }
        self.slots.conflicts = conflicts;
        self.sched.place(node, forced_cycle, cluster, table);
        self.pressure.touch_node(&self.graph, node);
        self.slots.set_prev_cycle(node, forced_cycle);

        // Eject previously scheduled predecessors and successors whose
        // dependence constraints are violated by the forced placement.
        let lat = self.machine.latencies();
        let ii = i64::from(self.sched.ii());
        let mut violated = std::mem::take(&mut self.slots.violated);
        violated.clear();
        for &e in self.graph.in_edge_ids(node) {
            let edge = *self.graph.edge(e);
            if edge.from == node {
                continue;
            }
            if let Some(pc) = self.sched.cycle_of(edge.from) {
                let latency = self.graph.edge_latency(e, lat);
                if forced_cycle < pc + latency - ii * i64::from(edge.distance)
                    && !violated.contains(&edge.from)
                {
                    violated.push(edge.from);
                }
            }
        }
        for &e in self.graph.out_edge_ids(node) {
            let edge = *self.graph.edge(e);
            if edge.to == node {
                continue;
            }
            if let Some(sc) = self.sched.cycle_of(edge.to) {
                let latency = self.graph.edge_latency(e, lat);
                if sc < forced_cycle + latency - ii * i64::from(edge.distance)
                    && !violated.contains(&edge.to)
                {
                    violated.push(edge.to);
                }
            }
        }
        for &v in &violated {
            if self.sched.is_scheduled(v) {
                self.eject_node(v);
            }
        }
        self.slots.violated = violated;
        forced_cycle
    }

    /// Eject `node` from the partial schedule and return it to the priority
    /// list with its original priority. Move operations attached to an
    /// ejected operation are removed from the graph (Section 3.3.2): a move
    /// whose producer is the ejected node, or whose unique consumer is the
    /// ejected node, no longer has a reason to exist — the cluster decision
    /// will be reconsidered when the node is picked up again.
    pub(crate) fn eject_node(&mut self, node: NodeId) {
        let cycle = self.sched.eject(node);
        self.pressure.touch_node(&self.graph, node);
        self.slots.set_prev_cycle(node, cycle);
        self.stats.ejections += 1;
        self.plist.push_back(node);

        if self.graph.op(node).opcode.is_move() {
            return;
        }
        // Collect moves to remove: predecessor moves for which `node` is the
        // unique consumer, and successor moves (node is their producer),
        // each once, predecessors first, in edge order. Removal rewires the
        // node's in-edges, hence the snapshot (in a reused list that
        // `remove_move` never touches).
        let mut orphaned = std::mem::take(&mut self.slots.orphaned_moves);
        orphaned.clear();
        let graph = &self.graph;
        let is_move = |n: NodeId| graph.is_live(n) && graph.op(n).opcode.is_move();
        for &e in graph.in_edge_ids(node) {
            let p = graph.edge(e).from;
            if is_move(p)
                && !orphaned.contains(&p)
                && graph
                    .op(p)
                    .dest
                    .is_some_and(|v| graph.consumer_ids(v) == [node])
            {
                orphaned.push(p);
            }
        }
        for &e in graph.out_edge_ids(node) {
            let s = graph.edge(e).to;
            if is_move(s) && !orphaned.contains(&s) {
                orphaned.push(s);
            }
        }
        for &mv in &orphaned {
            self.remove_move(mv);
        }
        self.slots.orphaned_moves = orphaned;
    }

    /// Remove a move node from the graph, reconnecting its consumers to the
    /// original value (the move's operand) and preserving dependence edges
    /// by linking the predecessor directly to the former consumers.
    pub(crate) fn remove_move(&mut self, mv: NodeId) {
        debug_assert!(self.graph.op(mv).opcode.is_move());
        // Cascade first: a move that transports *this* move's copy onward
        // (a chained move, created when a consumer imported the copy from
        // the first move's destination cluster) loses its source when the
        // copy disappears. Rewiring it onto the root value below would
        // silently change the cluster it reads from while its reservation
        // still claims the old route's out-port — the schedule keeps
        // passing the MRT but fails a semantic resource recount. Remove
        // the whole chain instead; the cluster decisions are reconsidered
        // when the affected consumers are picked up again.
        if let Some(copy) = self.graph.op(mv).dest {
            let mut chained = true;
            while chained {
                chained = false;
                for &c in self.graph.consumer_ids(copy) {
                    if self.graph.is_live(c) && self.graph.op(c).opcode.is_move() {
                        self.remove_move(c);
                        chained = true;
                        break;
                    }
                }
            }
        }
        if self.sched.is_scheduled(mv) {
            self.sched.eject(mv);
        }
        self.plist.remove(mv);
        let route = self.slots.route(mv);
        self.slots.set_route(mv, None);
        if let (NodeOrigin::Move { value }, Some((_, dst))) = (self.graph.op(mv).origin, route) {
            self.slots.set_move_into(value, dst, None);
        }
        self.stats.moves_removed += 1;

        let src_value = self.graph.op(mv).srcs().first().copied();
        let dest_value = self.graph.op(mv).dest;
        let producer = src_value.and_then(|v| self.graph.value(v).producer);
        // The rewiring below changes both values' consumer sets and, via
        // the ejection above, their lifetimes.
        if let Some(v) = src_value {
            self.pressure.mark_value(v);
        }
        if let Some(v) = dest_value {
            self.pressure.mark_value(v);
        }

        // Reconnect outgoing edges to the predecessor and restore operands.
        // The loop adds edges at the producer and the consumers and rewrites
        // operands, but never edits the move's own out-edge list, so it is
        // indexed in place.
        if let (Some(src_value), Some(dest_value)) = (src_value, dest_value) {
            debug_assert_ne!(producer, Some(mv), "a move does not produce its operand");
            let out_degree = self.graph.out_edge_ids(mv).len();
            for i in 0..out_degree {
                let e = self.graph.out_edge_ids(mv)[i];
                let edge = *self.graph.edge(e);
                if edge.to == mv {
                    continue;
                }
                if let Some(producer) = producer {
                    if producer != edge.to {
                        self.graph
                            .add_flow(producer, edge.to, src_value, edge.distance);
                    }
                }
                // Restore the consumer's operand list.
                self.graph.replace_src(edge.to, dest_value, src_value);
            }
        }
        self.graph.remove_node(mv);
    }

    /// Restart heuristic (Section 3.2.4): restart with a larger II if the
    /// budget is exhausted or the memory traffic (including freshly inserted
    /// spill code) can no longer fit in the memory ports at the current II.
    pub(crate) fn should_restart(&self) -> bool {
        if self.budget <= 0 {
            return true;
        }
        // Tracked incrementally: spill code is the only memory traffic ever
        // inserted, and only move operations are ever removed.
        let mem_ops = self.mem_ops_base + u64::from(self.spills_inserted);
        debug_assert_eq!(mem_ops, self.graph.count_ops(Opcode::is_memory) as u64);
        let capacity = u64::from(self.machine.total_mem_ports()) * u64::from(self.sched.ii());
        if mem_ops > capacity {
            return true;
        }
        // Safety valve: runaway spilling means the II is too tight. The
        // bound is `10 · max(nodes, 8)`; testing the constant first skips
        // the O(node-capacity) `node_count` scan on every ordinary pick.
        self.spills_inserted > 80 && self.spills_inserted as usize > 10 * self.graph.node_count()
    }

    /// Total spill operations (stores + loads) currently in the graph —
    /// the candidate-comparison metric of the branching search strategies.
    pub(crate) fn spill_op_count(&self) -> u32 {
        let count = self
            .graph
            .count_ops(|o| o == Opcode::SpillStore || o == Opcode::SpillLoad)
            as u32;
        debug_assert_eq!(count, self.spills_inserted, "spill nodes are never removed");
        count
    }

    /// Live move operations currently in the graph (candidate tie-break).
    pub(crate) fn move_op_count(&self) -> u32 {
        self.graph.count_ops(Opcode::is_move) as u32
    }

    /// Package the finished attempt as a [`ScheduleResult`], which takes
    /// the attempt's graph, and hand the other buffers back to the scratch
    /// for the next attempt or loop.
    pub(crate) fn into_result(
        mut self,
        scratch: &mut SchedScratch,
        loop_name: &str,
        mii_value: u32,
    ) -> ScheduleResult {
        let ii = self.sched.ii();
        let min_cycle = self.sched.min_cycle().unwrap_or(0);
        let max_cycle = self.sched.max_cycle().unwrap_or(0);
        let placements: HashMap<NodeId, Placement> = self
            .sched
            .iter()
            .map(|(n, cycle, cluster)| {
                (
                    n,
                    Placement {
                        cycle: cycle - min_cycle,
                        cluster,
                    },
                )
            })
            .collect();
        let max_live = self.register_requirements();
        let memory_traffic = self.graph.count_ops(Opcode::is_memory) as u32;
        let moves = self.graph.count_ops(Opcode::is_move) as u32;
        self.stats.spill_stores = self.graph.count_ops(|o| o == Opcode::SpillStore) as u32;
        self.stats.spill_loads = self.graph.count_ops(|o| o == Opcode::SpillLoad) as u32;
        self.stats.moves = moves;
        let mut graph = std::mem::take(&mut self.graph);
        self.name_inserted(&mut graph);
        let stats = self.stats;
        let span = u32::try_from(max_cycle - min_cycle).unwrap_or(0);
        self.reclaim_into(scratch);
        ScheduleResult {
            loop_name: loop_name.to_string(),
            ii,
            mii: mii_value,
            graph,
            placements,
            max_live,
            memory_traffic,
            moves,
            span,
            stats,
            search: SearchMeta::default(),
        }
    }

    /// Spell out the names of every value and node this attempt inserted
    /// into `graph`, the attempt's graph on its way into the result.
    ///
    /// Values come first, in creation order: names nest (`x@c1@c2`,
    /// `x@c1.reload`), and a value only ever derives from an older one.
    /// Copies whose move was removed are named too, since values are never
    /// removed. Node names then read the final value names and the live
    /// move routes.
    fn name_inserted(&self, graph: &mut DepGraph) {
        for &(v, how) in self.slots.derived() {
            let name = match how {
                Derivation::Copy { of, into } => format!("{}@{into}", graph.value(of).name),
                Derivation::Reload { of } => format!("{}.reload", graph.value(of).name),
            };
            graph.rename_value(v, name);
        }
        for i in 0..graph.node_capacity() {
            let n = NodeId(i as u32);
            if !graph.is_live(n) {
                continue;
            }
            let name = match graph.op(n).origin {
                NodeOrigin::Original => continue,
                NodeOrigin::Move { .. } => match self.slots.route(n) {
                    Some((src, dst)) => format!("move {src}->{dst}"),
                    None => continue,
                },
                NodeOrigin::SpillStore { value } => {
                    format!("spill.store {}", graph.value(value).name)
                }
                NodeOrigin::SpillLoad { value } => {
                    format!("spill.load {}", graph.value(value).name)
                }
            };
            graph.rename_node(n, name);
        }
    }
}
