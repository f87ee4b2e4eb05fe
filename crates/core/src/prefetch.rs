//! Selective binding prefetching (Section 4.3 of the paper).
//!
//! Binding prefetching tolerates cache-miss latency by *scheduling* load
//! operations as if they missed: the consumer is placed `miss-latency`
//! cycles later, so when the miss actually happens the data has arrived by
//! the time it is needed. It costs register pressure (the loaded value is
//! live much longer) but no extra memory traffic, which is why the paper
//! argues clustered machines — with more total registers — profit most.
//!
//! The *selective* policy of Sánchez & González keeps the hit latency for
//! loads that are part of recurrences (stretching a recurrence would inflate
//! the II directly), for spill loads, and for loops that execute only a few
//! iterations (long prologues would dominate).

use crate::options::PrefetchPolicy;
use ddg::{recurrence, DepGraph};
use vliw::{LatencyModel, MemLatency, Opcode};

/// Annotate every load in `graph` with the latency assumption mandated by
/// `policy`. Returns the number of loads that were marked for prefetching
/// (scheduled with miss latency).
pub fn apply_prefetch_policy(
    graph: &mut DepGraph,
    lat: &LatencyModel,
    policy: &PrefetchPolicy,
    trip_count: u64,
) -> usize {
    // One node-id snapshot serves both policies (iterating and mutating the
    // graph at once is not possible, and collecting per branch doubled the
    // allocation on the scheduler's per-loop setup path).
    let nodes: Vec<_> = graph.node_ids().collect();
    match policy {
        PrefetchPolicy::HitLatency => {
            for n in nodes {
                if graph.op(n).opcode.is_load() && graph.op(n).mem_latency != MemLatency::Hit {
                    graph.op_mut(n).mem_latency = MemLatency::Hit;
                }
            }
            0
        }
        PrefetchPolicy::SelectiveBinding { min_trip_count } => {
            if trip_count < *min_trip_count {
                return 0;
            }
            let in_recurrence = recurrence::nodes_in_recurrences(graph, lat);
            let mut marked = 0;
            for n in nodes {
                let op = graph.op(n).opcode;
                if op != Opcode::Load {
                    continue; // spill loads keep hit latency
                }
                if in_recurrence.contains(&n) {
                    continue;
                }
                graph.op_mut(n).mem_latency = MemLatency::Miss;
                marked += 1;
            }
            marked
        }
    }
}

/// Whether [`apply_prefetch_policy`] would leave `graph` as it is: the
/// policy is `HitLatency` and every load already has hit latency. The
/// scheduler then attempts copies of the loop's own graph instead of a
/// clone with the policy applied.
pub(crate) fn leaves_unchanged(graph: &DepGraph, policy: &PrefetchPolicy) -> bool {
    matches!(policy, PrefetchPolicy::HitLatency)
        && graph.node_ids().all(|n| {
            let op = graph.op(n);
            !op.opcode.is_load() || op.mem_latency == MemLatency::Hit
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddg::LoopBuilder;
    use vliw::Opcode;

    fn loop_with_recurrence_load() -> ddg::Loop {
        // One streaming load (prefetchable) and one load feeding a
        // recurrence (must keep hit latency).
        let mut b = LoopBuilder::new("t");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.recurrence("s");
        // The recurrence goes through the load of y: s -> address-ish dep.
        let add = b.op(Opcode::FpAdd, &[s, y]);
        b.close_recurrence(s, add, 1);
        let t = b.op(Opcode::FpMul, &[x, x]);
        b.store("z", t);
        // Make the y load part of the circuit: add -> load y (loop carried).
        let y_node = b.producer_of(y).unwrap();
        let add_node = b.producer_of(add).unwrap();
        b.control_dep(add_node, y_node, 1);
        b.finish(1000)
    }

    /// Apply `policy` to one working copy of the loop's graph — the single
    /// clone site shared by every test below.
    fn applied(lp: &ddg::Loop, policy: &PrefetchPolicy) -> (ddg::DepGraph, usize) {
        let mut g = lp.graph.clone();
        let marked = apply_prefetch_policy(&mut g, &LatencyModel::default(), policy, lp.trip_count);
        (g, marked)
    }

    #[test]
    fn hit_policy_marks_nothing() {
        let lp = loop_with_recurrence_load();
        let (g, n) = applied(&lp, &PrefetchPolicy::HitLatency);
        assert_eq!(n, 0);
        assert!(g.node_ids().all(|n| g.op(n).mem_latency == MemLatency::Hit));
    }

    #[test]
    fn selective_policy_skips_recurrence_loads() {
        let lp = loop_with_recurrence_load();
        let (g, marked) = applied(
            &lp,
            &PrefetchPolicy::SelectiveBinding { min_trip_count: 16 },
        );
        assert_eq!(marked, 1, "only the streaming load is prefetched");
        let miss_loads = g
            .node_ids()
            .filter(|&n| g.op(n).mem_latency == MemLatency::Miss)
            .count();
        assert_eq!(miss_loads, 1);
    }

    #[test]
    fn short_loops_are_not_prefetched() {
        let lp = loop_with_recurrence_load();
        let (_g, marked) = applied(
            &lp,
            &PrefetchPolicy::SelectiveBinding {
                min_trip_count: 5000,
            },
        );
        assert_eq!(marked, 0);
    }
}
