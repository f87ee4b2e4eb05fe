//! Recurrence circuits (strongly connected components) of a dependence graph.
//!
//! Recurrences constrain the initiation interval (`RecMII`) and drive both
//! the HRMS node ordering (recurrences are scheduled first) and selective
//! binding prefetching (loads inside recurrences keep the hit latency).
//!
//! The components come from Tarjan's algorithm in
//! [`LoopAnalysis`], over the arcs it reads
//! from the graph once. A recurrence's `RecMII` is the smallest II at
//! which its own arcs, weighted `latency − II · distance`, close no
//! positive cycle: a binary search over `[1, Σ (latency + 1)]` of
//! Bellman–Ford probes. A positive cycle lies inside one component, so the
//! largest of these is the whole graph's `RecMII` ([`crate::mii::rec_mii`]),
//! and no search runs over the whole graph.

use crate::analysis::LoopAnalysis;
use crate::graph::DepGraph;
use crate::ids::NodeId;
use vliw::LatencyModel;

/// A strongly connected component with more than one node, or a single node
/// with a self edge: a recurrence circuit of the loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recurrence {
    /// Nodes participating in the recurrence.
    pub nodes: Vec<NodeId>,
    /// Lower bound on the II imposed by this recurrence:
    /// `ceil(total latency / total distance)` over its critical circuit.
    pub rec_mii: u32,
}

/// All recurrence circuits of the graph with their `RecMII` contribution,
/// sorted by decreasing `rec_mii` (the order HRMS orders them in), then
/// by size. Runs [`LoopAnalysis::analyse`] on a fresh workspace.
#[must_use]
pub fn recurrences(g: &DepGraph, lat: &LatencyModel) -> Vec<Recurrence> {
    let mut analysis = LoopAnalysis::new();
    analysis.analyse(g, lat);
    analysis.into_recurrences()
}

/// Nodes that belong to some recurrence circuit: the members of the
/// components [`recurrences`] keeps, found without its `RecMII` searches.
#[must_use]
pub fn nodes_in_recurrences(g: &DepGraph) -> crate::collections::HashSet<NodeId> {
    let mut analysis = LoopAnalysis::new();
    analysis.read(g, &LatencyModel::default());
    analysis
        .components()
        .filter(|&(_, rec)| rec)
        .flat_map(|(nodes, _)| nodes.iter().map(|&n| NodeId(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use vliw::Opcode;

    fn accumulation_loop() -> crate::Loop {
        // s = s + x[i]
        let mut b = LoopBuilder::new("sum");
        let x = b.load("x");
        let s = b.recurrence("s");
        let add = b.op(Opcode::FpAdd, &[s, x]);
        b.close_recurrence(s, add, 1);
        b.finish(100)
    }

    #[test]
    fn sccs_partition_the_nodes() {
        let lp = accumulation_loop();
        let mut analysis = LoopAnalysis::new();
        analysis.read(&lp.graph, &LatencyModel::default());
        let mut seen: Vec<u32> = analysis
            .components()
            .flat_map(|(c, _)| c.to_vec())
            .collect();
        seen.sort_unstable();
        let live: Vec<u32> = lp.graph.node_ids().map(|n| n.0).collect();
        assert_eq!(seen, live);
    }

    #[test]
    fn accumulation_has_one_single_node_recurrence() {
        let lp = accumulation_loop();
        let lat = LatencyModel::default();
        let recs = recurrences(&lp.graph, &lat);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].nodes.len(), 1);
        // Latency 4 / distance 1.
        assert_eq!(recs[0].rec_mii, 4);
    }

    #[test]
    fn two_node_recurrence_rec_mii() {
        // t = a * s;  s = t + x   with s carried across one iteration:
        // circuit latency = 4 + 4 = 8, distance 1 -> RecMII = 8.
        let mut b = LoopBuilder::new("two");
        let a = b.invariant("a");
        let x = b.load("x");
        let s = b.recurrence("s");
        let t = b.op(Opcode::FpMul, &[a, s]);
        let s_next = b.op(Opcode::FpAdd, &[t, x]);
        b.close_recurrence(s, s_next, 1);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        let recs = recurrences(&lp.graph, &lat);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].nodes.len(), 2);
        assert_eq!(recs[0].rec_mii, 8);
    }

    #[test]
    fn distance_two_halves_the_rec_mii() {
        let mut b = LoopBuilder::new("d2");
        let x = b.load("x");
        let s = b.recurrence("s");
        let add = b.op(Opcode::FpAdd, &[s, x]);
        b.close_recurrence(s, add, 2);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        let recs = recurrences(&lp.graph, &lat);
        assert_eq!(recs[0].rec_mii, 2); // ceil(4 / 2)
    }

    #[test]
    fn loop_without_recurrences_has_none() {
        let mut b = LoopBuilder::new("vecadd");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.op(Opcode::FpAdd, &[x, y]);
        b.store("z", s);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        assert!(recurrences(&lp.graph, &lat).is_empty());
        assert!(nodes_in_recurrences(&lp.graph).is_empty());
    }

    #[test]
    fn recurrence_membership() {
        let lp = accumulation_loop();
        let members = nodes_in_recurrences(&lp.graph);
        assert_eq!(members.len(), 1);
        // The load is not in a recurrence.
        let load_node = lp
            .graph
            .node_ids()
            .find(|&n| lp.graph.op(n).opcode == Opcode::Load)
            .unwrap();
        assert!(!members.contains(&load_node));
    }

    #[test]
    fn recurrences_sorted_by_rec_mii_descending() {
        let mut b = LoopBuilder::new("multi");
        let x = b.load("x");
        // Fast recurrence: s1 += x (RecMII 4).
        let s1 = b.recurrence("s1");
        let a1 = b.op(Opcode::FpAdd, &[s1, x]);
        b.close_recurrence(s1, a1, 1);
        // Slow recurrence: s2 = s2 / x (RecMII 17).
        let s2 = b.recurrence("s2");
        let d = b.op(Opcode::FpDiv, &[s2, x]);
        b.close_recurrence(s2, d, 1);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        let recs = recurrences(&lp.graph, &lat);
        assert_eq!(recs.len(), 2);
        assert!(recs[0].rec_mii >= recs[1].rec_mii);
        assert_eq!(recs[0].rec_mii, 17);
        // Membership is the union of the circuits, RecMII aside.
        let members = nodes_in_recurrences(&lp.graph);
        let union: crate::collections::HashSet<NodeId> =
            recs.into_iter().flat_map(|r| r.nodes).collect();
        assert_eq!(members, union);
        assert_eq!(members.len(), 2);
    }
}
