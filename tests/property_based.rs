//! Property-based tests: every randomly generated loop must schedule to a
//! valid modulo schedule on every machine shape, and core invariants of the
//! substrate crates must hold for arbitrary inputs.

use ddg::lifetime::{LifetimeInterval, Pressure, PressureMap};
use ddg::{NodeId, ValueId};
use loopgen::{synthetic, SyntheticParams};
use mirs::{FoldedTable, MirsScheduler, PartialSchedule, SchedulerOptions};
use proptest::prelude::*;
use std::collections::BTreeMap;
use vliw::{
    ClusterConfig, ClusterId, LatencyModel, MachineConfig, Opcode, ReservationTable, ResourceKind,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Any synthetic loop schedules to a validated schedule on any paper
    /// machine shape, and the achieved II never beats the MII.
    #[test]
    fn random_loops_schedule_and_validate(
        seed in 0u64..1000,
        arith in 3usize..20,
        streams in 1usize..5,
        recurrences in 0usize..2,
        clusters_pow in 0u32..3,
        regs_idx in 0usize..3,
    ) {
        let params = SyntheticParams {
            arith_ops: arith,
            input_streams: streams,
            output_stores: 1,
            invariants: 1,
            recurrences,
            ..SyntheticParams::default()
        };
        let lp = synthetic::generate(&params, seed);
        let k = 1u32 << clusters_pow;
        let regs = [16u32, 32, 64][regs_idx];
        let machine = MachineConfig::builder()
            .identical_clusters(k, ClusterConfig::new(8 / k, 4 / k, regs))
            .buses(2)
            .build()
            .unwrap();
        let lat = machine.latencies();
        let bounds = ddg::mii::mii(&lp.graph, lat, 8, 4);
        let result = MirsScheduler::new(&machine, SchedulerOptions::default())
            .schedule(&lp)
            .expect("synthetic loops always converge under MIRS-C");
        prop_assert!(result.ii >= bounds.mii());
        prop_assert!(result.validate(&machine).is_ok());
        prop_assert!(result.memory_traffic as usize >= lp.memory_ops());
    }

    /// Folding lifetimes modulo the II never undercounts: MaxLive is at
    /// least the number of registers any single lifetime needs, and the sum
    /// over kernel cycles equals the total covered cycles.
    #[test]
    fn pressure_folding_is_consistent(
        intervals in proptest::collection::vec((0i64..200, 0i64..60), 1..20),
        ii in 1u32..40,
    ) {
        let ivs: Vec<LifetimeInterval> = intervals
            .iter()
            .enumerate()
            .map(|(i, &(start, len))| LifetimeInterval { value: ValueId(i as u32), start, end: start + len })
            .collect();
        let p = Pressure::compute(ivs.iter(), ii, 0);
        let max_single = ivs.iter().map(|iv| iv.registers(ii)).max().unwrap_or(0);
        prop_assert!(p.max_live() >= max_single);
        let total_cells: i64 = p.per_cycle().iter().map(|&c| i64::from(c)).sum();
        let total_covered: i64 = ivs.iter().map(LifetimeInterval::len).sum();
        prop_assert_eq!(total_cells, total_covered);
        prop_assert!(p.critical_cycle() < ii);
    }

    /// Unrolling multiplies body size and divides the trip count.
    #[test]
    fn unrolling_scales_structurally(seed in 0u64..200, factor in 1u32..5) {
        let lp = synthetic::generate(&SyntheticParams::small(), seed);
        let unrolled = ddg::unroll::unroll(&lp, factor);
        prop_assert_eq!(unrolled.body_size(), lp.body_size() * factor as usize);
        prop_assert_eq!(unrolled.trip_count, lp.trip_count / u64::from(factor));
        prop_assert_eq!(
            unrolled.graph.edge_count(),
            lp.graph.edge_count() * factor as usize
        );
    }

    /// Random place/try_place/eject churn on the flat modulo reservation
    /// table, checked against a test-side model that keeps every placed
    /// node's cycle and unfolded reservation table and recounts each use
    /// with `(cycle + offset) mod II`, so it shares nothing with the MRT's
    /// folded tables. The incremental cell counts and per-kind occupancy
    /// gauges must equal the recount; `can_place` and
    /// `intrinsically_infeasible` must equal the brute-force per-cell
    /// checks; `conflicts` must return exactly the occupants of the cells
    /// that would overflow, in placement order. The 17-use divide, the
    /// 30-use square root and a λm = 3 move wrap the MRT at small IIs and
    /// fit without wrapping at large ones. The node-indexed placement
    /// queries must equal the model after the churn, and again after a
    /// `reset` to another II and a replay in descending id order, so no
    /// slot outlives the attempt that wrote it. After every step, and after
    /// the replay, the critical-cycle victim query `first_placed_in` must
    /// name the first node in placement order on each (cluster, kernel
    /// cycle).
    #[test]
    fn place_eject_round_trip_matches_recount(
        ops in proptest::collection::vec(
            (0u32..24, -12i64..24, 0u16..2, 0usize..7, 0u32..2),
            1..80,
        ),
        ii in 1u32..40,
    ) {
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        let ix = machine.resource_indexer();
        let lat = LatencyModel::default();
        let slow_moves = LatencyModel::with_move_latency(3);
        let table = |idx: usize, cluster: ClusterId| -> ReservationTable {
            let other = ClusterId(1 - cluster.0);
            match idx {
                0 => ReservationTable::for_op(Opcode::FpAdd, cluster, &lat),
                1 => ReservationTable::for_op(Opcode::Load, cluster, &lat),
                2 => ReservationTable::for_op(Opcode::FpDiv, cluster, &lat),
                3 => ReservationTable::for_op(Opcode::FpMul, cluster, &lat),
                4 => ReservationTable::for_op(Opcode::FpSqrt, cluster, &lat),
                5 => ReservationTable::for_move(cluster, other, &lat),
                _ => ReservationTable::for_move(cluster, other, &slow_moves),
            }
        };
        let mut sched = PartialSchedule::new(&machine, ii);
        // Every table folded once, as the scheduler does per attempt.
        let tables: Vec<Vec<(ReservationTable, FoldedTable)>> = (0..2u16)
            .map(|c| {
                (0..7)
                    .map(|idx| {
                        let rt = table(idx, ClusterId(c));
                        let folded = sched.fold(&rt);
                        (rt, folded)
                    })
                    .collect()
            })
            .collect();
        let cell = |kind: ResourceKind, cycle: i64, offset: u32| -> usize {
            let slot = (cycle + i64::from(offset)).rem_euclid(i64::from(ii));
            ix.index_of(kind) * ii as usize + slot as usize
        };
        let cap = |kind: ResourceKind| machine.resource_count(kind);
        // The model: placed nodes in placement order, recounted per use
        // into (cell counts, reserved slots per resource).
        let mut placed: Vec<(NodeId, i64, ReservationTable)> = Vec::new();
        // Cycle and cluster of every placed node, by id.
        let mut model: BTreeMap<NodeId, (i64, ClusterId)> = BTreeMap::new();
        let mut conflicts = Vec::new();
        let recount = |placed: &[(NodeId, i64, ReservationTable)]| {
            let mut counts = vec![0u32; ix.len() * ii as usize];
            let mut by_kind = vec![0u32; ix.len()];
            for (_, c, rt) in placed {
                for u in rt {
                    counts[cell(u.kind, *c, u.offset)] += 1;
                    by_kind[ix.index_of(u.kind)] += 1;
                }
            }
            (counts, by_kind)
        };
        for (node, cycle, cluster, kind, force) in ops {
            let node = NodeId(node);
            let (rt, folded) = &tables[usize::from(cluster)][kind];
            if sched.is_scheduled(node) {
                let back = sched.eject(node);
                let pos = placed.iter().position(|(n, ..)| *n == node).unwrap();
                prop_assert_eq!(back, placed.remove(pos).1);
                prop_assert!(!sched.is_scheduled(node));
                model.remove(&node);
            } else if force == 1 {
                // Forced placements may oversubscribe, like the
                // Forcing-and-Ejection heuristic does.
                sched.place(node, cycle, ClusterId(cluster), *folded);
                placed.push((node, cycle, rt.clone()));
                model.insert(node, (cycle, ClusterId(cluster)));
            } else {
                let (counts, _) = recount(&placed);
                let mut added = vec![0u32; counts.len()];
                for u in rt {
                    added[cell(u.kind, cycle, u.offset)] += 1;
                }
                let over = |i: usize, base: u32| base + added[i] > cap(ix.kind_at(i / ii as usize));
                let full: Vec<usize> = (0..counts.len())
                    .filter(|&i| added[i] > 0 && over(i, counts[i]))
                    .collect();
                let fits = full.is_empty();
                prop_assert_eq!(sched.can_place(*folded, cycle), fits);
                prop_assert_eq!(
                    sched.intrinsically_infeasible(*folded),
                    (0..counts.len()).any(|i| added[i] > 0 && over(i, 0))
                );
                let expected: Vec<NodeId> = placed
                    .iter()
                    .filter(|(_, c, prt)| {
                        prt.iter().any(|u| full.contains(&cell(u.kind, *c, u.offset)))
                    })
                    .map(|(n, ..)| *n)
                    .collect();
                sched.conflicts(*folded, cycle, &mut conflicts);
                prop_assert_eq!(&conflicts, &expected);
                prop_assert_eq!(
                    sched.try_place(node, cycle, ClusterId(cluster), *folded),
                    fits
                );
                if fits {
                    placed.push((node, cycle, rt.clone()));
                    model.insert(node, (cycle, ClusterId(cluster)));
                }
            }
            let (counts, by_kind) = recount(&placed);
            let (gauge_counts, gauge_kind) = sched.gauges();
            prop_assert_eq!(&gauge_counts, &counts, "cell counts drifted from the placements");
            prop_assert_eq!(&gauge_kind, &by_kind, "occupancy gauges drifted");
            for kind in ix.kinds() {
                prop_assert_eq!(sched.occupancy(kind), by_kind[ix.index_of(kind)]);
            }
            prop_assert_eq!(sched.len(), placed.len());
            let order: Vec<(NodeId, i64, ClusterId)> =
                placed.iter().map(|(n, c, _)| (*n, *c, model[n].1)).collect();
            assert_victims_match(&sched, &order);
        }
        assert_placements_match(&sched, &model);
        // A new attempt at another II starts empty, whatever the old one
        // left; replaying in descending id order must still iterate by id.
        let other_ii = ii % 39 + 1;
        sched.reset(&machine, other_ii);
        assert_placements_match(&sched, &BTreeMap::new());
        assert_victims_match(&sched, &[]);
        let mut replayed = BTreeMap::new();
        let mut replay_order = Vec::new();
        for (n, cycle, rt) in placed.iter().rev().step_by(2) {
            let folded = sched.fold(rt);
            let (_, cluster) = model[n];
            sched.place(*n, *cycle + 1, cluster, folded);
            replayed.insert(*n, (*cycle + 1, cluster));
            replay_order.push((*n, *cycle + 1, cluster));
        }
        assert_placements_match(&sched, &replayed);
        assert_victims_match(&sched, &replay_order);
    }

    /// Incremental pressure maps equal the from-scratch computation after
    /// any interleaving of lifetime additions and removals, and their
    /// register sum bounds MaxLive.
    #[test]
    fn pressure_map_tracks_compute_under_churn(
        intervals in proptest::collection::vec((-40i64..200, 0i64..60), 1..24),
        keep in proptest::collection::vec(0u32..2, 24..25),
        ii in 1u32..12,
        uniform in 0u32..4,
    ) {
        let ivs: Vec<LifetimeInterval> = intervals
            .iter()
            .enumerate()
            .map(|(i, &(start, len))| LifetimeInterval {
                value: ValueId(i as u32),
                start,
                end: start + len,
            })
            .collect();
        let mut map = PressureMap::new(ii);
        map.add_uniform(uniform);
        for iv in &ivs {
            map.add(iv);
        }
        // Remove a random subset again.
        let kept: Vec<&LifetimeInterval> = ivs
            .iter()
            .enumerate()
            .filter(|(i, _)| keep.get(*i).copied().unwrap_or(0) == 1)
            .map(|(_, iv)| iv)
            .collect();
        for (i, iv) in ivs.iter().enumerate() {
            if keep.get(i).copied().unwrap_or(0) != 1 {
                map.remove(iv);
            }
        }
        let registers: u32 = kept.iter().map(|iv| iv.registers(ii)).sum();
        let scratch = Pressure::compute(kept.into_iter(), ii, uniform);
        prop_assert_eq!(map.per_cycle(), scratch.per_cycle());
        prop_assert_eq!(map.max_live(), scratch.max_live());
        prop_assert_eq!(map.critical_cycle(), scratch.critical_cycle());
        // The register sum bounds MaxLive, and is Σ registers + uniform.
        prop_assert!(map.max_live() <= map.bound());
        prop_assert_eq!(map.bound(), registers + uniform);
    }

    /// The HRMS ordering is always a permutation of the nodes.
    #[test]
    fn hrms_order_is_a_permutation(seed in 0u64..300, recurrences in 0usize..3) {
        let params = SyntheticParams { recurrences, ..SyntheticParams::default() };
        let lp = synthetic::generate(&params, seed);
        let order = ddg::hrms::hrms_order(&lp.graph, &vliw::LatencyModel::default());
        prop_assert_eq!(order.len(), lp.graph.node_count());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), order.len());
    }
}

/// `first_placed_in` agrees with a scan of `order` (every placed node with
/// its cycle and cluster, in placement order) for every cluster and kernel
/// cycle: the answer is the first node whose `cycle.rem_euclid(ii)` is that
/// kernel cycle, among all nodes and among the even ids only (a predicate
/// that rejects some earlier candidates). The churn's negative cycles are
/// where a kernel cycle taken without a Euclidean remainder goes wrong.
fn assert_victims_match(sched: &PartialSchedule, order: &[(NodeId, i64, ClusterId)]) {
    let ii = sched.ii();
    let even = |n: NodeId| n.0 % 2 == 0;
    for cluster in [ClusterId(0), ClusterId(1)] {
        for slot in 0..ii {
            let mut here = order.iter().filter(|&&(_, cycle, cl)| {
                cl == cluster && cycle.rem_euclid(i64::from(ii)) == i64::from(slot)
            });
            let first = here.clone().next().map(|p| p.0);
            let first_even = here.find(|p| even(p.0)).map(|p| p.0);
            assert_eq!(
                sched.first_placed_in(cluster, slot, |_| true),
                first,
                "first placed on {cluster} in kernel cycle {slot} at ii {ii}"
            );
            assert_eq!(
                sched.first_placed_in(cluster, slot, even),
                first_even,
                "first even id placed on {cluster} in kernel cycle {slot} at ii {ii}"
            );
        }
    }
}

/// Every node-indexed query of `sched` agrees with `model` (cycle and
/// cluster by node id): `is_scheduled`, `cycle_of`, `cluster_of` and `len`,
/// and `iter` yields exactly the model's entries in ascending id order.
/// Ids up to 32 cover every id the churn uses and some it never does.
fn assert_placements_match(sched: &PartialSchedule, model: &BTreeMap<NodeId, (i64, ClusterId)>) {
    for n in (0..32).map(NodeId) {
        let want = model.get(&n);
        assert_eq!(sched.is_scheduled(n), want.is_some(), "is_scheduled({n})");
        assert_eq!(sched.cycle_of(n), want.map(|p| p.0), "cycle_of({n})");
        assert_eq!(sched.cluster_of(n), want.map(|p| p.1), "cluster_of({n})");
    }
    assert_eq!(sched.len(), model.len());
    let listed: Vec<(NodeId, i64, ClusterId)> = sched.iter().collect();
    let expected: Vec<(NodeId, i64, ClusterId)> =
        model.iter().map(|(&n, &(c, cl))| (n, c, cl)).collect();
    assert_eq!(
        listed, expected,
        "iter must yield the placements by ascending id"
    );
}
