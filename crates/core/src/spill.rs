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
//! place from the tracker and keeps each value's scheduled uses in a buffer
//! reused across checks; only the winner's consumer list is collected, once
//! per inserted spill. Whether a lifetime or a section crosses the critical
//! cycle is read from the kernel cycle it starts in ([`phase_covers`]): a
//! lifetime's phase is its producer's kernel cycle and a section's the
//! kernel cycle of the consumer that opens it, both stored by the schedule.
//! When no candidate qualifies, the victim in the critical cycle is found
//! from the same stored kernel cycles. A check therefore allocates nothing
//! and divides nothing per placed node.

use crate::scheduler::SchedState;
use crate::scratch::Derivation;
use ddg::lifetime::{phase_covers, LifetimeInterval, Pressure};
use ddg::{DepGraph, MemAccess, NodeId, NodeOrigin, OperationData, ValueId};
use vliw::{ClusterId, LatencyModel, Opcode};

/// Array-symbol namespace reserved for spill locations (far above anything a
/// loop builder will allocate, so spill accesses never alias program arrays).
const SPILL_ARRAY_BASE: u32 = 1 << 24;

/// Structural (schedule-independent) spill data of one value: everything
/// `select_spill_candidate` derives from the *graph* rather than from the
/// partial schedule. Re-deriving these lists dominated the spill heuristic
/// on restart-heavy configurations — the same scans ran once per spill
/// check, per cluster, per attempt, although the underlying structure is
/// identical at every attempt start (each attempt starts from a copy of
/// the same base graph).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct VariantUses {
    /// Producer of the value (`None` → nothing to spill).
    pub producer: Option<NodeId>,
    /// Latency of the producer under the machine's latency model (the
    /// non-spillable prefix of the first lifetime section).
    pub producer_latency: i64,
    /// Whether the producer is itself a spill reload (never re-spilled).
    pub reload: bool,
    /// `(consumer, iteration distance)` of every flow edge carrying the
    /// value out of its producer, excluding spill stores, in out-edge
    /// order (empty when `reload`).
    pub uses: Vec<(NodeId, u32)>,
}

/// Compute [`VariantUses`] from scratch — the oracle the memo caches.
fn compute_variant_uses(graph: &DepGraph, lat: &LatencyModel, v: ValueId) -> VariantUses {
    let Some(producer) = graph.value(v).producer else {
        return VariantUses::default();
    };
    let reload = matches!(graph.op(producer).origin, NodeOrigin::SpillLoad { .. });
    let producer_latency = i64::from(graph.op(producer).latency(lat));
    let mut uses = Vec::new();
    if !reload {
        for &e in graph.out_edge_ids(producer) {
            let edge = graph.edge(e);
            if edge.value != Some(v) {
                continue;
            }
            if matches!(graph.op(edge.to).origin, NodeOrigin::SpillStore { .. }) {
                continue;
            }
            uses.push((edge.to, edge.distance));
        }
    }
    VariantUses {
        producer: Some(producer),
        producer_latency,
        reload,
        uses,
    }
}

/// Compute the loop-carried values `node` produces besides its `dest` —
/// the oracle behind [`SpillMemo::carried`] (deterministic: out-edge order,
/// deduplicated).
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

/// One memoised entry plus the validity stamps it was taken under.
#[derive(Debug)]
struct MemoSlot<T> {
    epoch: u64,
    token: u64,
    data: T,
}

/// Cross-restart memo of the structural spill-candidate data, carried in
/// [`SchedScratch`](crate::SchedScratch) so it persists across II attempts
/// (and is re-warmed, not re-allocated, across loops).
///
/// Entries are keyed by value and stamped with the structural epoch they
/// were derived at; they are invalidated exactly when the structure they
/// summarise moves — every scheduler mutation that rewires a value
/// (move creation, consumer rewiring, move removal, spill insertion) calls
/// [`SpillMemo::invalidate`] for the values it touches, right next to the
/// `PressureTracker::mark_value` call those sites already make.
///
/// Validity across *attempts* needs one extra guard: every attempt's graph
/// copy starts at the base graph's epoch, so a raw epoch comparison would
/// alias states from different attempts (attempt 1's third edit and
/// attempt 2's third edit both sit at `base + 3`). An entry is therefore
/// trusted only if
///
/// * it was derived at the loop's **base epoch** — the unedited base
///   structure every attempt's copy starts from, so these entries survive
///   all restarts (this is the cross-restart memoisation: larger-II
///   attempts stop re-deriving the same use lists), or
/// * it was derived **within the current attempt** (epochs only move
///   forward within an attempt, and the invalidation hooks keep the entry
///   honest against every in-attempt rewiring).
///
/// The memo is purely an accelerator: every lookup is `debug_assert`ed
/// equal to a from-scratch recomputation, and the golden schedule-hash
/// tests pin that schedules are unchanged.
#[derive(Debug, Default)]
pub struct SpillMemo {
    base_epoch: u64,
    token: u64,
    /// Per-value slots indexed by `ValueId::index` — values are allocated
    /// densely and never removed, so a flat table beats hashing on the
    /// spill-check hot path. Grown lazily as the scheduler adds values.
    uses: Vec<Option<MemoSlot<VariantUses>>>,
    /// Invariant values of the loop. The set is fixed for the whole run:
    /// the scheduler only ever adds non-invariant values (move copies,
    /// spill reloads) and never removes values, so one scan serves every
    /// spill check of every attempt.
    invariants: Option<Vec<ValueId>>,
    /// Loop-carried values produced by each node besides its `dest`,
    /// indexed by `NodeId::index` and precomputed from the base graph (one
    /// pass per loop instead of an out-edge scan per cluster per node
    /// pick). The content is loop-constant: producers of carried values
    /// are fixed at graph construction, scheduler-inserted nodes only
    /// define fresh values, and a carried value always keeps at least one
    /// carrying out-edge at its producer (moves and spill stores replace
    /// direct edges with edges that still carry the value). Nodes inserted
    /// during scheduling read as empty, which is exact for them. The order
    /// is the base graph's out-edge order for the whole loop, even after
    /// rewiring re-orders a producer's live out-edges.
    carried: Vec<Vec<ValueId>>,
    hits: u64,
    misses: u64,
}

impl SpillMemo {
    /// Reset for a new loop whose attempts all start from copies of
    /// `graph`, precomputing the carried-values table.
    pub(crate) fn begin_loop(&mut self, graph: &DepGraph) {
        self.base_epoch = graph.structural_epoch();
        self.token = 0;
        self.uses.clear();
        self.uses.resize_with(graph.value_count(), || None);
        self.invariants = None;
        self.hits = 0;
        self.misses = 0;
        self.carried.clear();
        self.carried.resize_with(graph.node_capacity(), Vec::new);
        for n in graph.node_ids() {
            let list = compute_carried_values(graph, n);
            if !list.is_empty() {
                self.carried[n.index()] = list;
            }
        }
    }

    /// Loop-carried values `node` produces besides its `dest` (empty for
    /// the overwhelmingly common dest-only case and for nodes inserted
    /// during scheduling).
    pub(crate) fn carried(&self, node: NodeId) -> &[ValueId] {
        static EMPTY: [ValueId; 0] = [];
        self.carried
            .get(node.index())
            .map_or(&EMPTY[..], Vec::as_slice)
    }

    /// Mark the start of a new scheduling attempt (invalidates mid-attempt
    /// entries of the previous one; base-epoch entries stay valid).
    pub(crate) fn begin_attempt(&mut self) {
        self.token += 1;
    }

    /// Drop the entry of `v`: its producer's out-edges, its consumer set or
    /// its operand wiring just changed. Called by every structural rewiring
    /// site in the scheduler (alongside `PressureTracker::mark_value`).
    pub(crate) fn invalidate(&mut self, v: ValueId) {
        if let Some(slot) = self.uses.get_mut(v.index()) {
            *slot = None;
        }
    }

    /// `(hits, misses)` since [`SpillMemo::begin_loop`].
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn slot_valid(&self, epoch: u64, token: u64) -> bool {
        epoch == self.base_epoch || token == self.token
    }

    /// Structural use list of `v`, memoised.
    pub(crate) fn variant_uses(
        &mut self,
        graph: &DepGraph,
        lat: &LatencyModel,
        v: ValueId,
    ) -> &VariantUses {
        if v.index() >= self.uses.len() {
            self.uses.resize_with(v.index() + 1, || None);
        }
        let hit = self.uses[v.index()]
            .as_ref()
            .is_some_and(|s| self.slot_valid(s.epoch, s.token));
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            let data = compute_variant_uses(graph, lat, v);
            self.uses[v.index()] = Some(MemoSlot {
                epoch: graph.structural_epoch(),
                token: self.token,
                data,
            });
        }
        let slot = self.uses[v.index()].as_ref().expect("filled above");
        debug_assert_eq!(
            slot.data,
            compute_variant_uses(graph, lat, v),
            "memoised use list diverged from the graph for {v:?}"
        );
        &slot.data
    }

    /// The loop's invariant values, memoised once per loop (the spill
    /// heuristic otherwise scans every value per cluster per check).
    pub(crate) fn invariant_values(&mut self, graph: &DepGraph) -> &[ValueId] {
        if self.invariants.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.invariants = Some(
                graph
                    .value_ids()
                    .filter(|&v| graph.value(v).invariant)
                    .collect(),
            );
        }
        let data = self.invariants.as_ref().expect("filled above");
        debug_assert_eq!(
            *data,
            graph
                .value_ids()
                .filter(|&v| graph.value(v).invariant)
                .collect::<Vec<_>>(),
            "memoised invariant set diverged from the graph"
        );
        data
    }
}

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
    /// list and enlarge the scheduling budget.
    pub(crate) fn check_and_insert_spill(&mut self) {
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

    /// Select the use (lifetime section) crossing the critical cycle with
    /// the largest ratio between its span and the memory traffic its
    /// spilling would create; ties go to the first candidate ranked. Returns
    /// `None` when no section spans at least the minimum span gauge.
    ///
    /// The structural inputs (invariant set, per-value use lists) come from
    /// the cross-restart [`SpillMemo`], and the intervals are read in place
    /// from the pressure tracker; only the schedule-dependent parts (cycles,
    /// spans, the critical-cycle filter) are derived per call. Candidates
    /// are ranked without being built: the scan allocates nothing, and only
    /// the winner's consumer list is collected.
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
        // Split borrows: the memo mutates (hit counters, fresh entries)
        // while graph/schedule/pressure/slots are read-only, so the loop
        // bodies below must stay on direct field accesses.
        let memo = &mut self.memo;
        let graph = &self.graph;
        let sched = &self.sched;
        let slots = &self.slots;
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
            if let Some(&v) = memo.invariant_values(graph).iter().find(|&&v| used_here(v)) {
                best = Some((f64::from(ii), Leader::Invariant(v)));
            }
        }

        // Loop-variant lifetimes crossing the critical cycle.
        for (interval, phase) in self.pressure.intervals_in(cluster.index()) {
            if !phase_covers(phase, interval.len(), critical_cycle, ii) {
                continue;
            }
            let v = interval.value;
            let entry = memo.variant_uses(graph, lat, v);
            let Some(producer) = entry.producer else {
                continue;
            };
            // Values produced by spill loads are not spilled again.
            if entry.reload {
                continue;
            }
            let def_cycle = interval.start;
            debug_assert_eq!(sched.cycle_of(producer), Some(def_cycle));
            let already_stored = slots.spill_store(v).is_some();
            debug_assert_eq!(
                already_stored,
                graph.node_ids().any(|n| matches!(
                    graph.op(n).origin,
                    NodeOrigin::SpillStore { value } if value == v
                ))
            );
            // Consider every scheduled consumer as the end of a use section.
            uses.clear();
            for &(node, distance) in &entry.uses {
                if let Some(p) = sched.info(node) {
                    uses.push(ScheduledUse {
                        node,
                        cycle: p.cycle + i64::from(ii) * i64::from(distance),
                        slot: p.slot,
                        distance,
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
                let non_spillable = if idx == 0 { entry.producer_latency } else { 0 };
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
        // pressure contributions (and structural use lists) changed shape.
        self.pressure.mark_value(cand.value);
        self.pressure.mark_value(reload_value);
        self.memo.invalidate(cand.value);
        self.memo.invalidate(reload_value);
        inserted
    }

    /// Fallback when no lifetime section is worth spilling: eject the
    /// first-placed register-defining operation scheduled in the critical
    /// cycle of the over-pressured cluster, forcing its non-spillable
    /// section out of that cycle.
    fn eject_from_critical_cycle(&mut self, cluster: ClusterId, critical_cycle: u32) {
        let graph = &self.graph;
        let victim = self.sched.first_placed_in(cluster, critical_cycle, |n| {
            graph.op(n).opcode.defines_register()
        });
        if let Some(v) = victim {
            self.eject_node(v);
        }
    }
}
