//! Incremental per-cluster register-pressure tracking.
//!
//! The Check-and-Insert-Spill heuristic runs after *every* scheduled
//! operation, and the seed implementation recomputed every value lifetime in
//! the graph on each run — O(values × edges) per placed node, the single
//! hottest path of the scheduler. This module keeps per-cluster
//! [`PressureMap`]s current instead: each value's present contribution (a
//! lifetime interval in its producer's cluster, or one uniform register per
//! cluster using a loop invariant) is recorded, and only values *touched*
//! since the last read — by a placement, an ejection, or a graph rewrite
//! such as spill insertion or move removal — are re-derived on
//! [`PressureTracker::flush`].
//!
//! The tracker is deliberately lazy: scheduling hooks only mark values
//! dirty, so bursts of mutations (a forced placement ejecting several
//! neighbours, a spill rewiring a dozen consumers) cost one recomputation
//! per distinct value, not one per mutation. Correctness is pinned two
//! ways: `debug_assert`s compare the flushed maps against the from-scratch
//! computation throughout the test suite, and the place/eject property test
//! drives random schedules against the same oracle.
//!
//! Folding and reading stay cheap. A [`PressureMap`] keeps the pressure in
//! step form, so folding or unfolding a lifetime is O(1). Each recorded
//! interval keeps its *phase*, the kernel cycle its producer was placed in
//! (which the schedule already stores), and is folded by phase and length:
//! nothing divides unless the lifetime is at least one II long. The spill
//! heuristic walks a cluster's intervals and their phases in place through
//! [`PressureTracker::intervals_in`], in value-id order, without
//! collecting them.

use crate::schedule::PartialSchedule;
use ddg::lifetime::{LifetimeInterval, PressureMap};
use ddg::{DepGraph, NodeId, ValueId};
use std::ops::Range;

/// What one value currently contributes to the per-cluster pressure maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Contribution {
    /// Nothing: unscheduled producer, or an unused invariant.
    #[default]
    None,
    /// A register lifetime in the producer's cluster.
    Interval {
        /// Cluster index holding the register.
        cluster: usize,
        /// The folded lifetime.
        interval: LifetimeInterval,
        /// Kernel cycle the lifetime starts in (`start mod II`).
        phase: u32,
    },
    /// A loop invariant: one register for the whole loop in every cluster
    /// its row of [`PressureTracker::invariant_in`] flags.
    Invariant,
}

/// Incrementally maintained per-cluster register-pressure gauges of one
/// scheduling attempt.
#[derive(Debug, Clone)]
pub(crate) struct PressureTracker {
    maps: Vec<PressureMap>,
    /// Contribution currently folded into `maps`, per value id.
    recorded: Vec<Contribution>,
    /// Clusters an invariant's recorded contribution occupies, at
    /// `value · clusters + cluster` (all false for other values). A flat
    /// table rather than a list per contribution, so a flush allocates
    /// nothing for any cluster count.
    invariant_in: Vec<bool>,
    /// Values whose contribution may be stale.
    dirty: Vec<ValueId>,
    dirty_flag: Vec<bool>,
}

impl PressureTracker {
    /// Fresh tracker for a `clusters`-cluster machine at interval `ii`,
    /// sized for `values` existing value ids (it grows as the scheduler
    /// introduces spill and move values).
    pub fn new(clusters: usize, ii: u32, values: usize) -> Self {
        Self {
            maps: vec![PressureMap::new(ii); clusters],
            recorded: vec![Contribution::None; values],
            invariant_in: vec![false; values * clusters],
            dirty: Vec::new(),
            dirty_flag: vec![false; values],
        }
    }

    /// Reset to the state [`PressureTracker::new`] would build, reusing the
    /// dirty-tracking storage (the per-cluster maps are re-made because the
    /// II changes between attempts).
    pub fn reset(&mut self, clusters: usize, ii: u32, values: usize) {
        self.maps.clear();
        self.maps.resize(clusters, PressureMap::new(ii));
        self.recorded.clear();
        self.recorded.resize(values, Contribution::None);
        self.invariant_in.clear();
        self.invariant_in.resize(values * clusters, false);
        self.dirty.clear();
        self.dirty_flag.clear();
        self.dirty_flag.resize(values, false);
    }

    /// Mark one value stale.
    pub fn mark_value(&mut self, v: ValueId) {
        if v.index() >= self.dirty_flag.len() {
            self.dirty_flag.resize(v.index() + 1, false);
            self.recorded.resize(v.index() + 1, Contribution::None);
            self.invariant_in
                .resize((v.index() + 1) * self.maps.len(), false);
        }
        if !self.dirty_flag[v.index()] {
            self.dirty_flag[v.index()] = true;
            self.dirty.push(v);
        }
    }

    /// Mark every value `node` defines or consumes stale — the hook called
    /// after placing or ejecting `node`.
    ///
    /// Besides `dest` and `srcs`, every value carried on an outgoing edge is
    /// marked: a closed recurrence re-points a value's producer at a node
    /// whose `dest` is a *different* value, so the carried value is only
    /// reachable through the flow edges the recurrence closure added.
    pub fn touch_node(&mut self, graph: &DepGraph, node: NodeId) {
        let op = graph.op(node);
        if let Some(dest) = op.dest {
            self.mark_value(dest);
        }
        for &v in op.srcs() {
            self.mark_value(v);
        }
        for &e in graph.out_edge_ids(node) {
            if let Some(v) = graph.edge(e).value {
                self.mark_value(v);
            }
        }
    }

    /// Re-derive every stale value's contribution so the maps reflect
    /// `graph` and `sched` exactly.
    pub fn flush(&mut self, graph: &DepGraph, sched: &PartialSchedule) {
        while let Some(v) = self.dirty.pop() {
            self.dirty_flag[v.index()] = false;
            let old = std::mem::take(&mut self.recorded[v.index()]);
            self.unfold(v, old);
            let new = self.derive(graph, sched, v);
            self.fold(v, new);
            self.recorded[v.index()] = new;
        }
    }

    /// Range of value `v`'s row in `invariant_in`.
    fn row(&self, v: ValueId) -> Range<usize> {
        let k = self.maps.len();
        v.index() * k..(v.index() + 1) * k
    }

    /// Current contribution of value `v` under `graph` and `sched` —
    /// the same lifetime rules the from-scratch computation in
    /// `SchedState::cluster_lifetimes` applies. For an invariant, the
    /// clusters of its scheduled consumers are flagged in its (cleared)
    /// `invariant_in` row.
    fn derive(&mut self, graph: &DepGraph, sched: &PartialSchedule, v: ValueId) -> Contribution {
        let data = graph.value(v);
        let ii = i64::from(sched.ii());
        if data.invariant {
            let row = self.row(v);
            let row = &mut self.invariant_in[row];
            let mut used = false;
            for &c in graph.consumer_ids(v) {
                if let Some(cc) = sched.cluster_of(c) {
                    row[cc.index()] = true;
                    used = true;
                }
            }
            return if used {
                Contribution::Invariant
            } else {
                Contribution::None
            };
        }
        let Some(producer) = data.producer else {
            return Contribution::None;
        };
        let Some(def) = sched.info(producer) else {
            return Contribution::None;
        };
        let def_cycle = def.cycle;
        let mut end = def_cycle;
        for &e in graph.out_edge_ids(producer) {
            let edge = graph.edge(e);
            if edge.value != Some(v) {
                continue;
            }
            if let Some(uc) = sched.cycle_of(edge.to) {
                end = end.max(uc + ii * i64::from(edge.distance));
            }
        }
        Contribution::Interval {
            cluster: def.cluster.index(),
            interval: LifetimeInterval {
                value: v,
                start: def_cycle,
                end,
            },
            phase: def.slot,
        }
    }

    /// Add value `v`'s contribution `c` to the maps.
    fn fold(&mut self, v: ValueId, c: Contribution) {
        match c {
            Contribution::None => {}
            Contribution::Interval {
                cluster,
                interval,
                phase,
            } => self.maps[cluster].add_at(phase, interval.len()),
            Contribution::Invariant => {
                let row = self.row(v);
                for (map, &used) in self.maps.iter_mut().zip(&self.invariant_in[row]) {
                    if used {
                        map.add_uniform(1);
                    }
                }
            }
        }
    }

    /// Remove value `v`'s recorded contribution `c` from the maps, clearing
    /// its `invariant_in` row.
    fn unfold(&mut self, v: ValueId, c: Contribution) {
        match c {
            Contribution::None => {}
            Contribution::Interval {
                cluster,
                interval,
                phase,
            } => self.maps[cluster].remove_at(phase, interval.len()),
            Contribution::Invariant => {
                let row = self.row(v);
                for (map, used) in self.maps.iter_mut().zip(&mut self.invariant_in[row]) {
                    if std::mem::take(used) {
                        map.remove_uniform(1);
                    }
                }
            }
        }
    }

    /// Pressure gauge of one cluster. Callers must [`flush`] first, as the
    /// spill check does before every read.
    ///
    /// [`flush`]: PressureTracker::flush
    pub fn cluster(&self, idx: usize) -> &PressureMap {
        &self.maps[idx]
    }

    /// `MaxLive` per cluster (requires a preceding flush).
    pub fn max_live_per_cluster(&self) -> Vec<u32> {
        self.maps.iter().map(PressureMap::max_live).collect()
    }

    /// Lifetime intervals currently contributing to `cluster`, each with
    /// the kernel cycle it starts in, in value-id order — the iteration
    /// order the spill-candidate selection depends on for deterministic
    /// tie-breaking (requires a preceding flush). Read in place: nothing is
    /// collected.
    pub fn intervals_in(
        &self,
        cluster: usize,
    ) -> impl Iterator<Item = (LifetimeInterval, u32)> + '_ {
        self.recorded.iter().filter_map(move |c| match *c {
            Contribution::Interval {
                cluster: cl,
                interval,
                phase,
            } if cl == cluster => Some((interval, phase)),
            _ => None,
        })
    }
}
