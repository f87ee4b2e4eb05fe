//! Register-pressure tracking and the Check-and-Insert-Spill heuristic
//! (Section 3.2.3 of the paper).
//!
//! The heuristic runs after every scheduled operation, so its pressure
//! reads come from the incrementally maintained
//! [`PressureTracker`](crate::pressure::PressureTracker) rather than a
//! from-scratch lifetime scan; [`SchedState::cluster_lifetimes`] survives as
//! the oracle the debug assertions (and the property tests) compare the
//! incremental gauges against.
//!
//! A check first compares each cluster's register sum
//! ([`PressureMap::bound`](ddg::lifetime::PressureMap::bound)) with the
//! threshold. `MaxLive` never exceeds that sum, so a sum within the
//! threshold settles the cluster in O(1); only a sum over it pays the one
//! prefix pass over the kernel that reads `MaxLive` and the critical cycle.
//!
//! A check that finds a cluster over its threshold ranks the spill
//! candidates without building them. It reads the cluster's intervals in
//! place from the tracker, and each crossing value's scheduled uses from
//! its producer's out-edge list into a buffer reused across checks; only
//! the winner's consumer list is collected, once per inserted spill.
//! Nothing is cached across checks or attempts: the uses are a plain
//! function of the attempt's graph. Whether a lifetime or a section
//! crosses the critical cycle is read from the kernel cycle it starts in
//! ([`phase_covers`]): a lifetime's phase is its producer's kernel cycle
//! and a section's the kernel cycle of the consumer that opens it, both
//! stored by the schedule.
//! When no candidate qualifies, the victim in the critical cycle is found
//! from the same stored kernel cycles. A check therefore allocates nothing
//! and divides nothing per placed node.
//!
//! With the priority list empty, that fallback can rotate: each victim
//! goes straight back to the cycle it left, the next check ejects the
//! next register-defining node of the critical cycle, and so on until the
//! budget drains. A finishing check that inserted no spill tracks the
//! streak in a [`Rotation`]. Once each step changed nothing but placement
//! order and the first victim comes round again, the rest of the attempt
//! repeats that period. The check then counts the remaining budget as
//! picks and ejections ([`count_periodic_tail`]) and lets the attempt end
//! at once.

use crate::result::SchedulerStats;
use crate::scheduler::SchedState;
use crate::scratch::Derivation;
use ddg::lifetime::{phase_covers, LifetimeInterval, Pressure};
use ddg::{MemAccess, NodeId, NodeOrigin, OperationData, ValueId};
use vliw::{ClusterId, Opcode};

/// Array-symbol namespace reserved for spill locations (far above anything a
/// loop builder will allocate, so spill accesses never alias program arrays).
const SPILL_ARRAY_BASE: u32 = 1 << 24;

/// One scheduled use of a value, as the spill ranking sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScheduledUse {
    /// The consumer.
    node: NodeId,
    /// Absolute cycle at which the consumer reads the value: its own
    /// cycle plus `II ×` the iteration distance.
    cycle: i64,
    /// Kernel cycle of `cycle` (the consumer's own kernel cycle).
    slot: u32,
    /// Iteration distance of the read.
    distance: u32,
}

/// A lifetime section selected for spilling.
#[derive(Debug, Clone)]
struct SpillCandidate {
    /// Value whose lifetime section is spilled.
    value: ValueId,
    /// Consumers to be fed from memory instead of the register.
    consumers: Vec<NodeId>,
    /// Iteration distance with which the (first) consumer reads the value.
    distance: u32,
    /// Whether the value is a loop invariant (no store needed, the value
    /// already lives in memory).
    invariant: bool,
    /// Whether a spill store for this value already exists in the graph.
    already_stored: bool,
}

/// The candidate leading the spill ranking. Only the leader is built into
/// a [`SpillCandidate`], once the ranking is over.
#[derive(Debug, Clone, Copy)]
enum Leader {
    /// A loop invariant with a consumer in the cluster.
    Invariant(ValueId),
    /// The section of `value` that ends at its `section`-th scheduled use
    /// (in use-cycle order).
    Section {
        value: ValueId,
        section: usize,
        already_stored: bool,
    },
}

impl SchedState<'_> {
    /// Per-cluster lifetime intervals and invariant counts of the current
    /// partial schedule. A value's register lives in the cluster of its
    /// producer; loop invariants occupy one register in every cluster with a
    /// scheduled consumer, for the whole loop.
    fn cluster_lifetimes(&self) -> (Vec<Vec<LifetimeInterval>>, Vec<u32>) {
        let k = self.machine.clusters();
        let mut intervals: Vec<Vec<LifetimeInterval>> = vec![Vec::new(); k];
        let mut invariants: Vec<u32> = vec![0; k];
        let ii = i64::from(self.sched.ii());
        for v in self.graph.value_ids() {
            let data = self.graph.value(v);
            if data.invariant {
                let mut used: Vec<usize> = Vec::new();
                for c in self.graph.consumers_of(v) {
                    if let Some(cc) = self.sched.cluster_of(c) {
                        if !used.contains(&cc.index()) {
                            used.push(cc.index());
                        }
                    }
                }
                for idx in used {
                    invariants[idx] += 1;
                }
                continue;
            }
            let Some(producer) = data.producer else {
                continue;
            };
            let Some(def_cycle) = self.sched.cycle_of(producer) else {
                continue;
            };
            let cluster = self
                .sched
                .cluster_of(producer)
                .expect("scheduled node has a cluster");
            let mut end = def_cycle;
            for &e in self.graph.out_edge_ids(producer) {
                let edge = self.graph.edge(e);
                if edge.value != Some(v) {
                    continue;
                }
                if let Some(uc) = self.sched.cycle_of(edge.to) {
                    end = end.max(uc + ii * i64::from(edge.distance));
                }
            }
            intervals[cluster.index()].push(LifetimeInterval {
                value: v,
                start: def_cycle,
                end,
            });
        }
        (intervals, invariants)
    }

    /// `MaxLive` per cluster of the current partial schedule, read from the
    /// incremental pressure gauges.
    pub(crate) fn register_requirements(&mut self) -> Vec<u32> {
        self.pressure.flush(&self.graph, &self.sched);
        debug_assert!(self.pressure_matches_scratch());
        self.pressure.max_live_per_cluster()
    }

    /// Whether the incremental gauges agree with a from-scratch lifetime
    /// computation — the invariant behind every spill decision: each
    /// cluster's per-cycle pressure, and its register sum (the bound a
    /// check reads before the pressure). Referenced by `debug_assert!` so
    /// release builds skip the O(values × edges) recomputation.
    pub(crate) fn pressure_matches_scratch(&self) -> bool {
        let (intervals, invariants) = self.cluster_lifetimes();
        let ii = self.sched.ii();
        self.machine.cluster_ids().all(|c| {
            let intervals = &intervals[c.index()];
            let scratch = Pressure::compute(intervals.iter(), ii, invariants[c.index()]);
            let bound =
                intervals.iter().map(|iv| iv.registers(ii)).sum::<u32>() + invariants[c.index()];
            let gauge = self.pressure.cluster(c.index());
            gauge.per_cycle() == scratch.per_cycle() && gauge.bound() == bound
        })
    }

    /// The Check-and-Insert-Spill heuristic (step 5 of Figure 4).
    ///
    /// For every cluster whose register requirements `RR` exceed
    /// `SG × AR` (or simply `AR` once the priority list is empty), select
    /// the lifetime section crossing the critical cycle with the best
    /// span-to-traffic ratio and spill it; if no section spans at least the
    /// minimum span gauge, eject one of the operations scheduled in the
    /// critical cycle instead. Inserted spill operations enter the priority
    /// list and enlarge the scheduling budget. `rotation` is the attempt's
    /// tracker of no-candidate ejections in finishing checks: when it
    /// closes a period, the check drains the budget (see [`Rotation`]).
    pub(crate) fn check_and_insert_spill(&mut self, rotation: &mut Rotation) {
        if !self.opts.enable_spill {
            return;
        }
        let finishing = self.plist.is_empty();
        let mut inserted_nodes: u32 = 0;
        for cluster in self.machine.cluster_ids() {
            let available = self.machine.registers_in(cluster);
            if available == u32::MAX {
                continue; // unbounded register file: never spill
            }
            let threshold = if finishing {
                available
            } else {
                (self.opts.spill_gauge * f64::from(available)).floor() as u32
            };
            // Bounded number of spill actions per invocation; the heuristic
            // runs again after every scheduled node anyway.
            for _ in 0..4 {
                self.pressure.flush(&self.graph, &self.sched);
                debug_assert!(self.pressure_matches_scratch());
                let gauge = self.pressure.cluster(cluster.index());
                // MaxLive ≤ the register sum: a sum within the threshold
                // settles the cluster before any pass over the kernel.
                if gauge.bound() <= threshold {
                    break;
                }
                let (rr, critical) = gauge.peak();
                if rr <= threshold {
                    break;
                }
                // When the priority list is empty the schedule *must* fit the
                // register file, so the minimum-span requirement is relaxed
                // rather than giving up on the II (the paper's MSG filter
                // assumes there is always a long-enough lifetime; synthetic
                // wide loops can violate that).
                let min_span = if finishing {
                    1
                } else {
                    self.opts.min_span_gauge
                };
                match self.select_spill_candidate(cluster, critical, min_span) {
                    Some(cand) => {
                        inserted_nodes += self.insert_spill(&cand);
                    }
                    None if finishing && inserted_nodes == 0 => {
                        self.eject_in_rotation(rotation, cluster, rr, critical);
                        break;
                    }
                    None => {
                        self.eject_from_critical_cycle(cluster, critical);
                        break;
                    }
                }
            }
        }
        if inserted_nodes > 0 {
            self.spills_inserted += inserted_nodes;
            self.budget += i64::from(inserted_nodes) * i64::from(self.opts.budget_ratio);
        }
    }

    /// The loop's invariant values, from the table the search driver fills
    /// once per loop: the scheduler only ever adds non-invariant values
    /// (move copies, spill reloads) and never removes one, so the base
    /// graph's list holds for every attempt.
    fn invariant_values(&self) -> &[ValueId] {
        let invariants = self.values.invariants();
        debug_assert!(
            self.graph
                .value_ids()
                .filter(|&v| self.graph.value(v).invariant)
                .eq(invariants.iter().copied()),
            "invariant-values table diverged from the graph"
        );
        invariants
    }

    /// Select the use (lifetime section) crossing the critical cycle with
    /// the largest ratio between its span and the memory traffic its
    /// spilling would create; ties go to the first candidate ranked. Returns
    /// `None` when no section spans at least the minimum span gauge.
    ///
    /// The intervals are read in place from the pressure tracker, and each
    /// crossing value's scheduled uses from its producer's out-edge list:
    /// the flow edges that carry the value, spill stores skipped, in
    /// out-edge order. Candidates are ranked without being built: the scan
    /// allocates nothing, and only the winner's consumer list is collected.
    ///
    /// Kept out of line: it runs only for a cluster over its threshold,
    /// and inlined into `check_and_insert_spill` it slowed the per-pick
    /// check of loops that never spill (perfbench `roomy`).
    #[inline(never)]
    fn select_spill_candidate(
        &mut self,
        cluster: ClusterId,
        critical_cycle: u32,
        min_span: i64,
    ) -> Option<SpillCandidate> {
        let ii = self.sched.ii();
        let lat = self.machine.latencies();
        let mut uses = std::mem::take(&mut self.slots.uses);
        let mut best_uses = std::mem::take(&mut self.slots.best_uses);
        let graph = &self.graph;
        let sched = &self.sched;
        let mut best: Option<(f64, Leader)> = None;

        // Loop invariants used in this cluster: spilling reloads them from
        // memory in front of each consumer (they already live in memory), so
        // the traffic is one load and the span is the whole loop. Every one
        // of them ranks at the II and a later candidate must rank strictly
        // higher to lead, so only the first one used here can win.
        if i64::from(ii) >= min_span {
            let used_here = |v: ValueId| {
                graph
                    .consumer_ids(v)
                    .iter()
                    .any(|&c| sched.cluster_of(c) == Some(cluster))
            };
            if let Some(&v) = self.invariant_values().iter().find(|&&v| used_here(v)) {
                best = Some((f64::from(ii), Leader::Invariant(v)));
            }
        }

        // Loop-variant lifetimes crossing the critical cycle.
        for (interval, phase) in self.pressure.intervals_in(cluster.index()) {
            if !phase_covers(phase, interval.len(), critical_cycle, ii) {
                continue;
            }
            let v = interval.value;
            let Some(producer) = graph.value(v).producer else {
                continue;
            };
            let producer_op = graph.op(producer);
            // Values produced by spill loads are not spilled again.
            if matches!(producer_op.origin, NodeOrigin::SpillLoad { .. }) {
                continue;
            }
            // The producer's latency: the first section's non-spillable part.
            let producer_latency = i64::from(producer_op.latency(lat));
            let def_cycle = interval.start;
            debug_assert_eq!(sched.cycle_of(producer), Some(def_cycle));
            let already_stored = self.slots.spill_store(v).is_some();
            debug_assert_eq!(
                already_stored,
                graph.node_ids().any(|n| matches!(
                    graph.op(n).origin,
                    NodeOrigin::SpillStore { value } if value == v
                ))
            );
            // Consider every scheduled consumer as the end of a use section.
            uses.clear();
            for &e in graph.out_edge_ids(producer) {
                let edge = graph.edge(e);
                if edge.value != Some(v)
                    || matches!(graph.op(edge.to).origin, NodeOrigin::SpillStore { .. })
                {
                    continue;
                }
                if let Some(p) = sched.info(edge.to) {
                    uses.push(ScheduledUse {
                        node: edge.to,
                        cycle: p.cycle + i64::from(ii) * i64::from(edge.distance),
                        slot: p.slot,
                        distance: edge.distance,
                    });
                }
            }
            uses.sort_by_key(|u| u.cycle);
            let traffic = if already_stored { 1.0 } else { 2.0 };
            // Start and kernel cycle of the section ending at each use: the
            // first opens at the definition, each later one at the use
            // before it (`II ×` a distance away from its consumer's cycle,
            // so in the same kernel cycle).
            let (mut prev, mut prev_phase) = (def_cycle, phase);
            let mut leads = false;
            for (idx, u) in uses.iter().enumerate() {
                let span = u.cycle - prev;
                let non_spillable = if idx == 0 { producer_latency } else { 0 };
                let section_phase = prev_phase;
                (prev, prev_phase) = (u.cycle, u.slot);
                if span - non_spillable < min_span
                    || !phase_covers(section_phase, span, critical_cycle, ii)
                {
                    continue;
                }
                let ratio = span as f64 / traffic;
                if best.is_none_or(|(lead, _)| lead < ratio) {
                    best = Some((
                        ratio,
                        Leader::Section {
                            value: v,
                            section: idx,
                            already_stored,
                        },
                    ));
                    leads = true;
                }
            }
            if leads {
                std::mem::swap(&mut uses, &mut best_uses);
            }
        }

        let winner = best.map(|(_, leader)| match leader {
            Leader::Invariant(value) => SpillCandidate {
                value,
                consumers: graph
                    .consumer_ids(value)
                    .iter()
                    .copied()
                    .filter(|&c| sched.cluster_of(c) == Some(cluster))
                    .collect(),
                distance: 0,
                invariant: true,
                already_stored: true,
            },
            Leader::Section {
                value,
                section,
                already_stored,
            } => {
                // Spill the value from this section onwards: every consumer
                // whose use falls at or after the section reads the reload,
                // so the register lifetime really ends at the section start.
                // Unscheduled consumers read it too (none of them is in the
                // tail, which holds scheduled uses only).
                let tail = &best_uses[section..];
                let mut consumers: Vec<NodeId> = tail.iter().map(|u| u.node).collect();
                consumers.extend(graph.consumer_ids(value).iter().copied().filter(|&c| {
                    !sched.is_scheduled(c)
                        && !matches!(graph.op(c).origin, NodeOrigin::SpillStore { .. })
                }));
                SpillCandidate {
                    value,
                    consumers,
                    distance: tail.iter().map(|u| u.distance).min().unwrap_or(0),
                    invariant: false,
                    already_stored,
                }
            }
        });
        self.slots.uses = uses;
        self.slots.best_uses = best_uses;
        winner
    }

    /// Existing spill store node for `value`, if one was inserted earlier —
    /// an O(1) read of the cache `insert_spill` maintains (spill stores are
    /// never removed from the graph).
    fn existing_spill_store(&self, value: ValueId) -> Option<NodeId> {
        let found = self.slots.spill_store(value);
        debug_assert_eq!(
            found,
            self.graph.node_ids().find(|&n| {
                matches!(self.graph.op(n).origin, NodeOrigin::SpillStore { value: v } if v == value)
            })
        );
        found
    }

    /// Memory location used to spill `value`.
    fn spill_location(&self, value: ValueId, invariant: bool) -> MemAccess {
        MemAccess {
            array: SPILL_ARRAY_BASE + value.0,
            offset: 0,
            stride: if invariant { 0 } else { 8 },
        }
    }

    /// Insert the spill store/load operations for `cand`, rewiring its
    /// consumers to read the reloaded value. Returns the number of nodes
    /// inserted into the graph (and the priority list). The reload value
    /// and both nodes are named in `into_result`, from the logged
    /// derivation and the nodes' origins.
    fn insert_spill(&mut self, cand: &SpillCandidate) -> u32 {
        let mut inserted = 0;
        let location = self.spill_location(cand.value, cand.invariant);

        let store = if cand.invariant || cand.already_stored {
            self.existing_spill_store(cand.value)
        } else {
            let producer = self
                .graph
                .value(cand.value)
                .producer
                .expect("variant spill candidates have a producer");
            let mut data = OperationData::new(Opcode::SpillStore, None, vec![cand.value]);
            data.mem = Some(location);
            data.origin = NodeOrigin::SpillStore { value: cand.value };
            let st = self.graph.add_node(data);
            self.graph.add_flow(producer, st, cand.value, 0);
            self.plist.insert_with_anchor(st, producer);
            self.slots.set_spill_store(cand.value, st);
            inserted += 1;
            Some(st)
        };

        // One reload feeding all selected consumers (they are in the same
        // cluster and, for invariants, read the same location).
        let reload_value = self.graph.add_value(String::new(), false);
        self.slots
            .log_derived(reload_value, Derivation::Reload { of: cand.value });
        let mut data = OperationData::new(Opcode::SpillLoad, Some(reload_value), vec![]);
        data.mem = Some(location);
        data.origin = NodeOrigin::SpillLoad { value: cand.value };
        let ld = self.graph.add_node(data);
        inserted += 1;
        if let Some(st) = store {
            self.graph.add_edge(ddg::DepEdge {
                from: st,
                to: ld,
                kind: ddg::DepKind::Memory,
                distance: cand.distance,
                delay_override: None,
                value: None,
            });
        }
        let anchor = cand.consumers[0];
        self.plist.insert_with_anchor(ld, anchor);

        for &consumer in &cand.consumers {
            // Remove the direct flow edge(s) carrying the spilled value.
            self.remove_in_edges(consumer, |edge| edge.value == Some(cand.value));
            self.graph.replace_src(consumer, cand.value, reload_value);
            self.graph.add_flow(ld, consumer, reload_value, 0);
        }
        // The spilled value lost consumers and the reload gained them; both
        // pressure contributions changed shape.
        self.pressure.mark_value(cand.value);
        self.pressure.mark_value(reload_value);
        inserted
    }

    /// Fallback when no lifetime section is worth spilling: eject the
    /// first-placed register-defining operation scheduled in the critical
    /// cycle of the over-pressured cluster, forcing its non-spillable
    /// section out of that cycle.
    fn eject_from_critical_cycle(&mut self, cluster: ClusterId, critical_cycle: u32) {
        if let Some(v) = self.critical_victim(cluster, critical_cycle) {
            self.eject_node(v);
        }
    }

    /// The first-placed register-defining operation in `critical_cycle`
    /// of `cluster`, if any.
    fn critical_victim(&self, cluster: ClusterId, critical_cycle: u32) -> Option<NodeId> {
        let graph = &self.graph;
        self.sched.first_placed_in(cluster, critical_cycle, |n| {
            graph.op(n).opcode.defines_register()
        })
    }

    /// [`SchedState::eject_from_critical_cycle`] for a finishing check that
    /// inserted no spill: the ejection is one step of a possible rotation,
    /// recorded in `rotation`, and the step that closes a period ends the
    /// attempt at once with its periodic tail counted
    /// ([`count_periodic_tail`]).
    ///
    /// Kept out of line, like `select_spill_candidate`: loops that never
    /// rotate run the per-pick check they ran without the tracker.
    #[inline(never)]
    fn eject_in_rotation(
        &mut self,
        rotation: &mut Rotation,
        cluster: ClusterId,
        max_live: u32,
        critical: u32,
    ) {
        let Some(victim) = self.critical_victim(cluster, critical) else {
            return;
        };
        let step = RotationStep {
            pick: self.stats.attempts,
            state: RotationState {
                cluster,
                max_live,
                critical,
                nodes: self.graph.node_capacity(),
                values: self.graph.value_count(),
                spills: self.spills_inserted,
                forced: self.stats.forced,
                moves_removed: self.stats.moves_removed,
            },
            victim,
            cycle: self.sched.cycle_of(victim).expect("the victim is placed"),
        };
        let sched = &self.sched;
        let closes = rotation.observe(step, |n| sched.info(n).map(|p| (p.cycle, p.cluster)));
        self.eject_node(victim);
        if closes {
            count_periodic_tail(&mut self.stats, &mut self.budget);
        }
    }
}

/// What a finishing check's no-candidate ejection finds, read before it
/// ejects: the cluster over its register file, its `MaxLive` and critical
/// cycle, and the graph sizes and work counters that any other change of
/// the attempt moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RotationState {
    cluster: ClusterId,
    max_live: u32,
    critical: u32,
    /// Node capacity of the graph: grows with every inserted node.
    nodes: usize,
    /// Value count of the graph: grows with every move copy and reload.
    values: usize,
    /// Spill operations inserted so far.
    spills: u32,
    /// `SchedulerStats::forced` so far.
    forced: u64,
    /// `SchedulerStats::moves_removed` so far.
    moves_removed: u64,
}

/// One no-candidate ejection of a finishing check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RotationStep {
    /// Picks made so far (`SchedulerStats::attempts`).
    pick: u64,
    state: RotationState,
    /// The node ejected, and the cycle it is ejected from.
    victim: NodeId,
    cycle: i64,
}

/// The no-candidate rotation of finishing spill checks, tracked so that
/// its periodic tail can be counted instead of run.
///
/// With the priority list empty and a cluster over its register file with
/// no lifetime section to spill, the check ejects the first-placed
/// register-defining node of the critical cycle, and the next pick places
/// it again. A step of such a streak is *clean* when it comes on the pick
/// right after the step before, that step's victim is back on the cycle
/// and cluster it left, and the [`RotationState`] reads as it did then.
/// [`Rotation::observe`] reports the clean step whose victim is the
/// streak's first victim again.
///
/// Why the rest of the attempt is then one period repeated until the
/// budget drains:
/// - A clean step inserts no node or value, removes no move and forces
///   nothing, and its victim returns to its own cycle and cluster. Every
///   placed node already reads its operands in its own cluster (the
///   invariant `locality_holds` asserts), so the returning victim rewires
///   nothing either. Placements, the graph, the pressure gauges and the
///   previous cycles are all as the step found them.
/// - The one thing a clean step changes is placement order: the victim
///   moves from first to last among the register-defining nodes of the
///   critical cycle. Order is read in two places. `conflicts` reads it
///   only for a forced placement, and there is none. `first_placed_in`
///   reads it to pick the victim, and only among those nodes. Every other
///   decision (cluster, window, free slot, MaxLive, critical cycle and
///   whether any section qualifies) reads placements and the graph only.
/// - So victims go round those nodes in placement order. The first
///   victim's return means each of them was placed again once, and their
///   order among themselves is the order the streak began with. Every
///   decision the next step reads is then what the streak's first step
///   read, so the steps from here repeat the streak's, each one pick and
///   one ejection. Nothing but the budget ends them: the memory and
///   runaway-spill tests of `should_restart` read only counts the steps
///   leave unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Rotation {
    /// The streak's first victim and its latest step.
    streak: Option<(NodeId, RotationStep)>,
}

impl Rotation {
    /// Record `step`, where `placed` reads a node's cycle and cluster now.
    /// Returns whether the step closes a period: it is clean and ejects
    /// the streak's first victim again. A step that is not clean starts a
    /// new streak.
    fn observe(
        &mut self,
        step: RotationStep,
        placed: impl Fn(NodeId) -> Option<(i64, ClusterId)>,
    ) -> bool {
        let first = match self.streak {
            Some((first, last))
                if step.pick == last.pick + 1
                    && step.state == last.state
                    && placed(last.victim) == Some((last.cycle, last.state.cluster)) =>
            {
                if step.victim == first {
                    return true;
                }
                first
            }
            _ => step.victim,
        };
        self.streak = Some((first, step));
        false
    }
}

/// Count the periodic tail of a rotation instead of running it: each of
/// the `budget` picks left would pick the last victim and eject the next,
/// so both counters grow by the budget, which then drains.
fn count_periodic_tail(stats: &mut SchedulerStats, budget: &mut i64) {
    let tail = (*budget).max(0).unsigned_abs();
    stats.attempts += tail;
    stats.ejections += tail;
    *budget = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Step `pick` of a rotation on cluster 0 that ejects `victim` from
    /// cycle `10 + victim`.
    fn step(pick: u64, victim: u32) -> RotationStep {
        RotationStep {
            pick,
            state: RotationState {
                cluster: ClusterId(0),
                max_live: 17,
                critical: 3,
                nodes: 40,
                values: 30,
                spills: 2,
                forced: 9,
                moves_removed: 1,
            },
            victim: NodeId(victim),
            cycle: 10 + i64::from(victim),
        }
    }

    /// Every node placed where [`step`] ejects it from.
    fn home(n: NodeId) -> Option<(i64, ClusterId)> {
        Some((10 + i64::from(n.0), ClusterId(0)))
    }

    /// Index of the first of `steps` that closes a period, fed to a fresh
    /// tracker in turn.
    fn closes_at(
        steps: &[RotationStep],
        placed: impl Fn(NodeId) -> Option<(i64, ClusterId)> + Copy,
    ) -> Option<usize> {
        let mut rotation = Rotation::default();
        steps.iter().position(|&s| rotation.observe(s, placed))
    }

    /// Consecutive steps from pick 20 ejecting `victims` in turn.
    fn streak(victims: &[u32]) -> Vec<RotationStep> {
        victims.iter().zip(20..).map(|(&v, p)| step(p, v)).collect()
    }

    #[test]
    fn a_one_node_rotation_closes_when_its_victim_returns() {
        assert_eq!(closes_at(&streak(&[4, 4]), home), Some(1));
    }

    #[test]
    fn a_three_node_rotation_closes_when_the_first_victim_returns() {
        assert_eq!(closes_at(&streak(&[4, 9, 2, 4]), home), Some(3));
    }

    #[test]
    fn a_step_that_is_not_clean_starts_a_new_streak() {
        // Pick 23 comes two picks after 21, so 9 opens the streak that
        // closes on its return.
        let mut steps = streak(&[4, 9]);
        steps.extend([step(23, 9), step(24, 2), step(25, 4), step(26, 9)]);
        assert_eq!(closes_at(&steps, home), Some(5));
    }

    #[test]
    fn a_victim_placed_elsewhere_breaks_the_streak() {
        let moved_cycle = |n: NodeId| home(n).map(|(c, k)| (c + 1, k));
        let moved_cluster = |n: NodeId| home(n).map(|(c, _)| (c, ClusterId(1)));
        let unplaced = |_: NodeId| None;
        for placed in [moved_cycle, moved_cluster, unplaced] {
            assert_eq!(closes_at(&streak(&[4, 4]), placed), None);
            assert_eq!(closes_at(&streak(&[4, 9, 2, 4]), placed), None);
        }
    }

    #[test]
    fn a_change_between_steps_breaks_the_streak() {
        let changes: [fn(&mut RotationState); 9] = [
            // A spill: a store, a reload and its value.
            |s| (s.spills, s.nodes, s.values) = (s.spills + 2, s.nodes + 2, s.values + 1),
            // A created move and its copy.
            |s| (s.nodes, s.values) = (s.nodes + 1, s.values + 1),
            |s| s.moves_removed += 1,
            |s| s.forced += 1,
            |s| s.max_live += 1,
            |s| s.critical += 1,
            |s| s.cluster = ClusterId(1),
            |s| s.nodes += 1,
            |s| s.values += 1,
        ];
        for change in changes {
            for victims in [&[4, 4][..], &[4, 9, 2, 4]] {
                let mut steps = streak(victims);
                let last = steps.len() - 1;
                change(&mut steps[last].state);
                assert_eq!(closes_at(&steps, home), None);
            }
        }
    }

    #[test]
    fn another_pick_between_steps_breaks_the_streak() {
        assert_eq!(closes_at(&[step(20, 4), step(22, 4)], home), None);
        assert_eq!(closes_at(&[step(20, 4), step(20, 4)], home), None);
        // Only finishing checks are observed. A check that is not
        // finishing has another node pending, which is picked before the
        // next finishing check: that check comes two picks on.
        let steps = [step(20, 4), step(21, 9), step(23, 4)];
        assert_eq!(closes_at(&steps, home), None);
    }

    #[test]
    fn the_tail_is_the_remaining_budget() {
        let before = SchedulerStats {
            attempts: 100,
            ejections: 40,
            forced: 7,
            ..SchedulerStats::default()
        };
        for (budget, tail) in [(25, 25), (1, 1), (0, 0), (-3, 0)] {
            let (mut stats, mut left) = (before, budget);
            count_periodic_tail(&mut stats, &mut left);
            assert_eq!(stats.attempts, before.attempts + tail);
            assert_eq!(stats.ejections, before.ejections + tail);
            assert_eq!(stats.forced, before.forced);
            assert!(left <= 0, "the budget drains");
        }
    }
}
