//! Final schedules and their validation.

use ddg::collections::HashMap;
use ddg::lifetime::{LifetimeInterval, Pressure};
use ddg::{DepGraph, NodeId};
use std::fmt;
use vliw::{ClusterId, MachineConfig, ResourceKind};

/// Final placement of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Issue cycle relative to the start of the kernel iteration
    /// (normalized so the earliest operation issues at cycle 0).
    pub cycle: i64,
    /// Cluster executing the operation.
    pub cluster: ClusterId,
}

/// Counters describing the work the scheduler performed.
///
/// The work counters (`attempts`, `ejections`, `forced` and
/// `moves_removed`) sum over every attempt of the II search: failed ones,
/// successes that lost the candidate comparison and the accepted one. The
/// spill and move counts describe the accepted schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerStats {
    /// Nodes picked from the priority list (including re-scheduling after
    /// ejection). The periodic tail of a no-candidate rotation of the
    /// spill check, which the scheduler skips, counts as if it had run:
    /// one pick per step.
    pub attempts: u64,
    /// Operations ejected: by the Forcing-and-Ejection heuristic, and by
    /// the spill check when no lifetime section qualifies (the victim in
    /// the critical cycle). The skipped periodic tail of a no-candidate
    /// rotation counts as if it had run: one ejection per step.
    pub ejections: u64,
    /// Forced placements (no free slot found).
    pub forced: u64,
    /// Spill store operations in the final schedule.
    pub spill_stores: u32,
    /// Spill load operations in the final schedule.
    pub spill_loads: u32,
    /// Inter-cluster move operations in the final schedule.
    pub moves: u32,
    /// Move operations that were inserted and later removed again.
    pub moves_removed: u64,
    /// Attempts that failed before the accepted one, perturbed branches
    /// included.
    pub restarts: u32,
    /// Always 0: the spill ranking reads each candidate's uses from the
    /// graph and caches nothing. Kept only because the benchmark reads it
    /// for its `mirs.spill.memo_hit_ratio` metric; the benchmark change
    /// that retires that metric (ROADMAP item 1) removes this field with it.
    pub spill_memo_hits: u64,
    /// Always 0, like [`SchedulerStats::spill_memo_hits`], and kept for the
    /// same metric until the same change.
    pub spill_memo_misses: u64,
    /// Wall-clock seconds the [`SearchStrategyKind::Exact`] certifier took
    /// to build its relaxation and certify the climb's floor (0 under the
    /// other strategies), already included in
    /// [`SchedulerStats::scheduling_seconds`]. Kept only for the benchmark's
    /// `mirs.search.relax_share`; the benchmark change that retires that
    /// metric (ROADMAP item 1) removes this field with it.
    ///
    /// [`SearchStrategyKind::Exact`]: crate::SearchStrategyKind::Exact
    pub relax_seconds: f64,
    /// Wall-clock scheduling time in seconds.
    pub scheduling_seconds: f64,
}

/// Optimality certificate attached to a schedule by the II-search layer.
///
/// Only [`SearchStrategyKind::Exact`](crate::SearchStrategyKind::Exact)
/// produces non-[`Heuristic`](SearchProof::Heuristic) proofs. The carried
/// bounds are *certified*: every II strictly below the bound was proven
/// infeasible by exhausting a branch-and-bound over a sound relaxation of
/// the scheduling problem (any valid schedule of the loop satisfies the
/// relaxed constraints, so no valid schedule can beat the bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchProof {
    /// Heuristic search: no optimality claim (every non-exact strategy).
    #[default]
    Heuristic,
    /// The achieved II equals the certified lower bound — no valid schedule
    /// of this loop on this machine has a smaller II.
    Optimal,
    /// Every II below the carried bound is proven infeasible, but the
    /// search converged above it: either the remaining gap is real or the
    /// relaxation was too coarse to close it (it ignores cluster moves and
    /// register pressure).
    LowerBound(u32),
    /// The certification budget ran out while deciding the carried II:
    /// every II strictly below it is proven infeasible, the carried II
    /// itself is undecided.
    BudgetExhausted(u32),
}

impl SearchProof {
    /// Short label used in reports and table columns.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SearchProof::Heuristic => "heuristic",
            SearchProof::Optimal => "optimal",
            SearchProof::LowerBound(_) => "lower-bound",
            SearchProof::BudgetExhausted(_) => "budget-exhausted",
        }
    }

    /// Whether the proof certifies the achieved II as optimal.
    #[must_use]
    pub fn is_optimal(self) -> bool {
        matches!(self, SearchProof::Optimal)
    }

    /// The certified lower bound the proof carries, given the II the
    /// search achieved (`None` for heuristic results).
    #[must_use]
    pub fn certified_lower_bound(self, achieved_ii: u32) -> Option<u32> {
        match self {
            SearchProof::Heuristic => None,
            SearchProof::Optimal => Some(achieved_ii),
            SearchProof::LowerBound(b) | SearchProof::BudgetExhausted(b) => Some(b),
        }
    }
}

impl fmt::Display for SearchProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchProof::LowerBound(b) => write!(f, "lower-bound({b})"),
            SearchProof::BudgetExhausted(b) => write!(f, "budget-exhausted({b})"),
            other => f.write_str(other.label()),
        }
    }
}

/// How the accepted schedule was found by the II-search layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchMeta {
    /// Strategy that drove the search.
    pub strategy: crate::SearchStrategyKind,
    /// Scheduling attempts made across every candidate (II, priority-order)
    /// pair — `restarts + 1` for the linear strategy, possibly more for
    /// branching ones. The climb attempts every II from its floor up to the
    /// accepted one, so this is `groups` times the group size.
    pub attempts: u32,
    /// Successful candidate schedules evaluated during the search,
    /// including the accepted one (1 when the first success was accepted
    /// immediately, as the linear strategy always does).
    pub candidates: u32,
    /// Candidate-II groups the search ran, one per II from the climb's
    /// floor up to the accepted one (a group holds the canonical attempt
    /// plus, for the branching strategies, that II's perturbed ones).
    pub groups: u32,
    /// Always 0: the search skips no candidate II. Kept only because the
    /// benchmark reads it for its per-layer pruned-II metric; the benchmark
    /// change that retires that metric (ROADMAP item 1) removes this field
    /// with it.
    pub pruned_iis: u32,
    /// Optimality certificate ([`SearchProof::Heuristic`] for every
    /// non-exact strategy).
    pub proof: SearchProof,
}

/// A complete modulo schedule for one loop.
///
/// The result owns the *final* dependence graph: it contains every spill and
/// move operation the scheduler inserted, which downstream consumers (the
/// memory simulator, code emitters, the benchmark harness) need alongside
/// the placements.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Name of the scheduled loop.
    pub loop_name: String,
    /// Achieved initiation interval.
    pub ii: u32,
    /// Lower bound the scheduler started from (`max(ResMII, RecMII)`).
    pub mii: u32,
    /// Final dependence graph including inserted spill and move nodes.
    pub graph: DepGraph,
    /// Placement of every live node of [`ScheduleResult::graph`].
    pub placements: HashMap<NodeId, Placement>,
    /// `MaxLive` register requirement per cluster (including invariants).
    pub max_live: Vec<u32>,
    /// Memory operations per iteration (original loads/stores plus spill
    /// traffic) — the paper's `trf` metric.
    pub memory_traffic: u32,
    /// Inter-cluster moves per iteration.
    pub moves: u32,
    /// Schedule length of one iteration (issue cycle of the last operation
    /// minus the first), used to derive prologue/epilogue cost.
    pub span: u32,
    /// Scheduler work counters.
    pub stats: SchedulerStats,
    /// II-search metadata: strategy, attempts, candidates evaluated.
    pub search: SearchMeta,
}

impl ScheduleResult {
    /// Execution cycles for `iterations` iterations of the loop:
    /// `span + II · iterations` (kernel plus prologue/epilogue ramp).
    #[must_use]
    pub fn execution_cycles(&self, iterations: u64) -> u64 {
        u64::from(self.span) + u64::from(self.ii) * iterations
    }

    /// The certified lower bound on the II carried by the search proof,
    /// if any (`None` for heuristic results). For optimal proofs this is
    /// the achieved II itself.
    #[must_use]
    pub fn certified_lower_bound(&self) -> Option<u32> {
        self.search.proof.certified_lower_bound(self.ii)
    }

    /// Stable digest of the schedule: the II, every placement (node, cycle,
    /// cluster) in node-id order, and the inserted spill/move counts.
    ///
    /// The hash is a plain FNV-1a over the raw numbers, independent of any
    /// hasher or collection internals, so it is comparable across processes,
    /// toolchains and refactors of the scheduler's data structures. Two runs
    /// producing the same hash produced byte-identical schedules.
    #[must_use]
    pub fn schedule_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(u64::from(self.ii));
        let mut nodes: Vec<NodeId> = self.placements.keys().copied().collect();
        nodes.sort_unstable();
        for n in nodes {
            let p = self.placements[&n];
            mix(u64::from(n.0));
            mix(p.cycle as u64);
            mix(u64::from(p.cluster.0));
        }
        mix(u64::from(self.stats.spill_stores));
        mix(u64::from(self.stats.spill_loads));
        mix(u64::from(self.moves));
        h
    }

    /// Validate the schedule against machine `machine`.
    ///
    /// Checks that every node is placed, every dependence constraint
    /// `cycle(to) ≥ cycle(from) + latency − II·distance` holds, no resource
    /// is oversubscribed in any kernel cycle, every operand is produced in
    /// the cluster that consumes it (or is a loop invariant), and the
    /// per-cluster register requirements fit the register files. Resource
    /// usage and register requirements are recounted from the placements
    /// here, independently of the scheduler's MRT and pressure gauges;
    /// [`ScheduleResult::max_live`] is not consulted.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] found.
    pub fn validate(&self, machine: &MachineConfig) -> Result<(), ValidationError> {
        let lat = machine.latencies();
        // Every node placed.
        for n in self.graph.node_ids() {
            if !self.placements.contains_key(&n) {
                return Err(ValidationError::Unplaced { node: n });
            }
        }
        // Dependences.
        for e in self.graph.edge_ids() {
            let edge = self.graph.edge(e);
            let from = self.placements[&edge.from].cycle;
            let to = self.placements[&edge.to].cycle;
            let lat_e = self.graph.edge_latency(e, lat);
            let slack = to - from - lat_e + i64::from(self.ii) * i64::from(edge.distance);
            if slack < 0 {
                return Err(ValidationError::DependenceViolated {
                    from: edge.from,
                    to: edge.to,
                    slack,
                });
            }
        }
        // Resources.
        let mut usage: HashMap<(ResourceKind, u32), u32> = HashMap::default();
        for (&n, p) in &self.placements {
            if !self.graph.is_live(n) {
                continue;
            }
            let op = self.graph.op(n);
            let rt = if op.opcode.is_move() {
                // The move's source cluster is the cluster of its operand's
                // producer; its destination cluster is where it is placed.
                let src = op
                    .srcs()
                    .first()
                    .and_then(|&v| self.graph.value(v).producer)
                    .and_then(|prod| self.placements.get(&prod))
                    .map(|pp| pp.cluster)
                    .unwrap_or(p.cluster);
                machine.move_reservation(src, p.cluster)
            } else {
                machine.reservation(op.opcode, p.cluster)
            };
            for u in &rt {
                let slot = (p.cycle + i64::from(u.offset)).rem_euclid(i64::from(self.ii)) as u32;
                let e = usage.entry((u.kind, slot)).or_insert(0);
                *e += 1;
                if *e > machine.resource_count(u.kind) {
                    return Err(ValidationError::ResourceOverflow {
                        kind: u.kind,
                        kernel_cycle: slot,
                    });
                }
            }
        }
        // Operand locality: every consumed value must be produced in the
        // consumer's cluster or be a loop invariant.
        for n in self.graph.node_ids() {
            let p = self.placements[&n];
            if self.graph.op(n).opcode.is_move() {
                // Moves read a remote value by design.
                continue;
            }
            for &v in self.graph.op(n).srcs() {
                let vd = self.graph.value(v);
                if vd.invariant {
                    continue;
                }
                if let Some(prod) = vd.producer {
                    let pc = self.placements[&prod].cluster;
                    if pc != p.cluster {
                        return Err(ValidationError::NonLocalOperand {
                            node: n,
                            producer_cluster: pc,
                            consumer_cluster: p.cluster,
                        });
                    }
                }
            }
        }
        // Registers, recounted from the placements rather than taken from
        // the scheduler's own `max_live` claim.
        for (i, (ml, cfg)) in self
            .placed_max_live(machine.clusters())
            .into_iter()
            .zip(machine.cluster_configs())
            .enumerate()
        {
            if ml > cfg.registers {
                return Err(ValidationError::RegisterOverflow {
                    cluster: ClusterId::from(i),
                    required: ml,
                    available: cfg.registers,
                });
            }
        }
        Ok(())
    }

    /// Per-cluster `MaxLive` recomputed from the graph and the placements
    /// alone: a value holds a register in its producer's cluster from its
    /// definition to its last use (a use `d` iterations later counts at
    /// `cycle + II·d`), and a loop invariant holds one register in every
    /// cluster that consumes it.
    fn placed_max_live(&self, clusters: usize) -> Vec<u32> {
        let ii = i64::from(self.ii);
        let mut intervals: Vec<Vec<LifetimeInterval>> = vec![Vec::new(); clusters];
        let mut invariants = vec![0u32; clusters];
        for v in self.graph.value_ids() {
            let data = self.graph.value(v);
            if data.invariant {
                let mut seen = vec![false; clusters];
                for c in self.graph.consumer_ids(v) {
                    if let Some(p) = self.placements.get(c) {
                        seen[p.cluster.index()] = true;
                    }
                }
                for (n, s) in invariants.iter_mut().zip(seen) {
                    *n += u32::from(s);
                }
                continue;
            }
            let Some((producer, def)) = data
                .producer
                .and_then(|p| self.placements.get(&p).map(|d| (p, *d)))
            else {
                continue;
            };
            let end = self
                .graph
                .out_edge_ids(producer)
                .iter()
                .map(|&e| self.graph.edge(e))
                .filter(|edge| edge.value == Some(v))
                .filter_map(|edge| {
                    let used = self.placements.get(&edge.to)?;
                    Some(used.cycle + ii * i64::from(edge.distance))
                })
                .fold(def.cycle, i64::max);
            intervals[def.cluster.index()].push(LifetimeInterval {
                value: v,
                start: def.cycle,
                end,
            });
        }
        intervals
            .iter()
            .zip(invariants)
            .map(|(iv, inv)| Pressure::compute(iv, self.ii, inv).max_live())
            .collect()
    }
}

/// Violation found by [`ScheduleResult::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidationError {
    /// A live node has no placement.
    Unplaced {
        /// The unplaced node.
        node: NodeId,
    },
    /// A dependence constraint is violated.
    DependenceViolated {
        /// Producer.
        from: NodeId,
        /// Consumer.
        to: NodeId,
        /// Negative slack of the constraint.
        slack: i64,
    },
    /// A resource is oversubscribed in some kernel cycle.
    ResourceOverflow {
        /// The oversubscribed resource.
        kind: ResourceKind,
        /// Kernel cycle (mod II).
        kernel_cycle: u32,
    },
    /// An operation consumes a value produced in a different cluster.
    NonLocalOperand {
        /// The consumer node.
        node: NodeId,
        /// Cluster of the producer.
        producer_cluster: ClusterId,
        /// Cluster of the consumer.
        consumer_cluster: ClusterId,
    },
    /// The schedule needs more registers than a cluster provides.
    RegisterOverflow {
        /// The over-pressured cluster.
        cluster: ClusterId,
        /// Registers required (`MaxLive`).
        required: u32,
        /// Registers available.
        available: u32,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Unplaced { node } => write!(f, "node {node} is not placed"),
            ValidationError::DependenceViolated { from, to, slack } => {
                write!(f, "dependence {from} -> {to} violated (slack {slack})")
            }
            ValidationError::ResourceOverflow { kind, kernel_cycle } => {
                write!(
                    f,
                    "resource {kind} oversubscribed at kernel cycle {kernel_cycle}"
                )
            }
            ValidationError::NonLocalOperand {
                node,
                producer_cluster,
                consumer_cluster,
            } => write!(
                f,
                "node {node} in {consumer_cluster} reads a value produced in {producer_cluster}"
            ),
            ValidationError::RegisterOverflow {
                cluster,
                required,
                available,
            } => write!(
                f,
                "cluster {cluster} needs {required} registers but has {available}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_cycles_combine_span_and_ii() {
        let r = ScheduleResult {
            loop_name: "t".into(),
            ii: 3,
            mii: 3,
            graph: DepGraph::new(),
            placements: HashMap::default(),
            max_live: vec![0],
            memory_traffic: 0,
            moves: 0,
            span: 10,
            stats: SchedulerStats::default(),
            search: SearchMeta::default(),
        };
        assert_eq!(r.execution_cycles(100), 10 + 300);
        assert_eq!(r.execution_cycles(0), 10);
    }

    #[test]
    fn proof_carries_its_certified_bound() {
        assert_eq!(SearchProof::Heuristic.certified_lower_bound(7), None);
        assert_eq!(SearchProof::Optimal.certified_lower_bound(7), Some(7));
        assert_eq!(SearchProof::LowerBound(5).certified_lower_bound(7), Some(5));
        assert_eq!(
            SearchProof::BudgetExhausted(4).certified_lower_bound(7),
            Some(4)
        );
        assert!(SearchProof::Optimal.is_optimal());
        assert!(!SearchProof::LowerBound(5).is_optimal());
        assert_eq!(SearchProof::default(), SearchProof::Heuristic);
        assert_eq!(SearchProof::LowerBound(5).to_string(), "lower-bound(5)");
        assert_eq!(SearchProof::Optimal.to_string(), "optimal");
    }

    #[test]
    fn search_meta_equality_includes_the_proof() {
        let a = SearchMeta::default();
        let b = SearchMeta {
            proof: SearchProof::Optimal,
            ..a
        };
        assert_ne!(a, b);
    }

    #[test]
    fn validation_errors_have_readable_display() {
        let msgs = [
            ValidationError::Unplaced { node: NodeId(1) }.to_string(),
            ValidationError::DependenceViolated {
                from: NodeId(0),
                to: NodeId(1),
                slack: -2,
            }
            .to_string(),
            ValidationError::ResourceOverflow {
                kind: ResourceKind::Bus,
                kernel_cycle: 3,
            }
            .to_string(),
            ValidationError::NonLocalOperand {
                node: NodeId(2),
                producer_cluster: ClusterId(0),
                consumer_cluster: ClusterId(1),
            }
            .to_string(),
            ValidationError::RegisterOverflow {
                cluster: ClusterId(0),
                required: 40,
                available: 32,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn empty_schedule_validates() {
        let machine = MachineConfig::paper_config(1, 64).unwrap();
        let r = ScheduleResult {
            loop_name: "empty".into(),
            ii: 1,
            mii: 1,
            graph: DepGraph::new(),
            placements: HashMap::default(),
            max_live: vec![0],
            memory_traffic: 0,
            moves: 0,
            span: 0,
            stats: SchedulerStats::default(),
            search: SearchMeta::default(),
        };
        assert!(r.validate(&machine).is_ok());
    }
}
