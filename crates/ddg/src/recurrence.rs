//! Recurrence circuits (strongly connected components) of a dependence graph.
//!
//! Recurrences constrain the initiation interval (`RecMII`) and drive both
//! the HRMS node ordering (recurrences are scheduled first) and selective
//! binding prefetching (loads inside recurrences keep the hit latency).

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

/// Compute all strongly connected components of the live nodes (Tarjan).
///
/// Components are returned in reverse topological order (callees of Tarjan's
/// algorithm); singleton components without self edges are included, so the
/// result partitions the node set.
///
/// State is kept in dense per-node-id arrays and successors are walked
/// straight off the adjacency lists (duplicate targets from parallel edges
/// only repeat an idempotent lowlink update, so the discovered components —
/// and their emission order — match the deduplicated walk exactly). The
/// function runs once per scheduled loop on the setup path, where the old
/// hash-map state and per-node successor allocations were measurable.
#[must_use]
pub fn strongly_connected_components(g: &DepGraph) -> Vec<Vec<NodeId>> {
    const UNVISITED: u32 = u32::MAX;
    struct Tarjan<'a> {
        g: &'a DepGraph,
        index: Vec<u32>,
        lowlink: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<NodeId>,
        next_index: u32,
        sccs: Vec<Vec<NodeId>>,
    }

    impl Tarjan<'_> {
        fn strongconnect(&mut self, v: NodeId) {
            // Iterative Tarjan to avoid deep recursion on long chains. Each
            // frame is (node, position in its out-edge list).
            let mut call_stack: Vec<(NodeId, usize)> = vec![(v, 0)];
            self.index[v.index()] = self.next_index;
            self.lowlink[v.index()] = self.next_index;
            self.next_index += 1;
            self.stack.push(v);
            self.on_stack[v.index()] = true;

            while let Some((node, mut i)) = call_stack.pop() {
                let mut descended = false;
                let out = self.g.out_edge_ids(node);
                while i < out.len() {
                    let w = self.g.edge(out[i]).to;
                    i += 1;
                    if self.index[w.index()] == UNVISITED {
                        // Descend into w.
                        self.index[w.index()] = self.next_index;
                        self.lowlink[w.index()] = self.next_index;
                        self.next_index += 1;
                        self.stack.push(w);
                        self.on_stack[w.index()] = true;
                        call_stack.push((node, i));
                        call_stack.push((w, 0));
                        descended = true;
                        break;
                    } else if self.on_stack[w.index()] {
                        let wl = self.index[w.index()];
                        let nl = self.lowlink[node.index()];
                        self.lowlink[node.index()] = nl.min(wl);
                    }
                }
                if descended {
                    continue;
                }
                // Finished node: pop SCC if root, propagate lowlink to parent.
                if self.lowlink[node.index()] == self.index[node.index()] {
                    let mut scc = Vec::new();
                    loop {
                        let w = self.stack.pop().expect("tarjan stack underflow");
                        self.on_stack[w.index()] = false;
                        scc.push(w);
                        if w == node {
                            break;
                        }
                    }
                    self.sccs.push(scc);
                }
                if let Some(&(parent, _)) = call_stack.last() {
                    let nl = self.lowlink[node.index()];
                    let pl = self.lowlink[parent.index()];
                    self.lowlink[parent.index()] = pl.min(nl);
                }
            }
        }
    }

    let cap = g.node_capacity();
    let mut t = Tarjan {
        g,
        index: vec![UNVISITED; cap],
        lowlink: vec![0; cap],
        on_stack: vec![false; cap],
        stack: Vec::new(),
        next_index: 0,
        sccs: Vec::new(),
    };
    for n in g.node_ids() {
        if t.index[n.index()] == UNVISITED {
            t.strongconnect(n);
        }
    }
    t.sccs
}

/// One edge of a dense constraint graph: `(from, to, latency, distance)`.
/// At initiation interval `ii` its weight is `latency − ii · distance`.
type ConstraintEdge = (usize, usize, i64, i64);

/// Collect the constraint edges of the subgraph induced by `nodes` once, in
/// dense indices — the binary searches below probe the same edge set at
/// many II values, and re-deriving it per probe dominated their cost.
fn constraint_edges(g: &DepGraph, nodes: &[NodeId], lat: &LatencyModel) -> Vec<ConstraintEdge> {
    let mut idx = vec![usize::MAX; g.node_capacity()];
    for (i, &n) in nodes.iter().enumerate() {
        idx[n.index()] = i;
    }
    g.edge_ids()
        .filter_map(|e| {
            let edge = g.edge(e);
            let f = idx[edge.from.index()];
            let t = idx[edge.to.index()];
            if f == usize::MAX || t == usize::MAX {
                return None;
            }
            Some((f, t, g.edge_latency(e, lat), i64::from(edge.distance)))
        })
        .collect()
}

/// Whether the dense constraint graph has a positive-weight cycle at `ii`.
///
/// Longest-path Bellman-Ford from a virtual source connected to everything
/// with weight 0: a positive cycle exists iff some distance still improves
/// after `node_count` relaxation rounds.
fn has_positive_cycle(node_count: usize, edges: &[ConstraintEdge], ii: i64) -> bool {
    if node_count == 0 {
        return false;
    }
    let mut dist = vec![0i64; node_count];
    for round in 0..=node_count {
        let mut changed = false;
        for &(f, t, latency, distance) in edges {
            let w = latency - ii * distance;
            if dist[f] + w > dist[t] {
                dist[t] = dist[f] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == node_count {
            return true;
        }
    }
    false
}

/// Smallest `ii ∈ [1, upper]` at which `edges` has no positive cycle.
fn min_ii_without_positive_cycle(node_count: usize, edges: &[ConstraintEdge], upper: u64) -> u32 {
    let mut lo = 1u64;
    let mut hi = upper.max(1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if has_positive_cycle(node_count, edges, mid as i64) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    u32::try_from(lo).unwrap_or(u32::MAX)
}

/// Lower bound on the II imposed by the whole graph's recurrences: the
/// smallest `ii` such that the full constraint graph (edge weight
/// `latency − ii · distance`) has no positive cycle. This is `RecMII`;
/// [`crate::mii::rec_mii`] delegates here.
#[must_use]
pub fn rec_mii_of_graph(g: &DepGraph, lat: &LatencyModel) -> u32 {
    if g.is_empty() {
        return 1;
    }
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let edges = constraint_edges(g, &nodes, lat);
    min_ii_without_positive_cycle(nodes.len(), &edges, g.latency_sum(lat).max(1))
}

/// Lower bound on the II imposed by the subgraph induced by `nodes`.
///
/// Computed as the smallest `ii` such that the constraint graph restricted
/// to `nodes` (edge weight `latency − ii · distance`) has no positive cycle.
#[must_use]
pub fn rec_mii_of(g: &DepGraph, nodes: &[NodeId], lat: &LatencyModel) -> u32 {
    if nodes.len() == 1 {
        let n = nodes[0];
        let has_self_edge = g.out_edge_ids(n).iter().any(|&e| g.edge(e).to == n);
        if !has_self_edge {
            return 1;
        }
    }
    let edges = constraint_edges(g, nodes, lat);
    min_ii_without_positive_cycle(nodes.len(), &edges, g.latency_sum(lat).max(1))
}

/// Whether the strongly connected component `scc` is a recurrence
/// circuit: it has more than one node, or a self edge.
fn is_recurrence(g: &DepGraph, scc: &[NodeId]) -> bool {
    scc.len() > 1
        || g.out_edge_ids(scc[0])
            .iter()
            .any(|&e| g.edge(e).to == scc[0])
}

/// All recurrence circuits of the graph with their `RecMII` contribution,
/// sorted by decreasing `rec_mii` (the order HRMS schedules them in).
#[must_use]
pub fn recurrences(g: &DepGraph, lat: &LatencyModel) -> Vec<Recurrence> {
    let mut recs: Vec<Recurrence> = strongly_connected_components(g)
        .into_iter()
        .filter(|scc| is_recurrence(g, scc))
        .map(|nodes| {
            let rec_mii = rec_mii_of(g, &nodes, lat);
            Recurrence { nodes, rec_mii }
        })
        .collect();
    recs.sort_by(|a, b| {
        b.rec_mii
            .cmp(&a.rec_mii)
            .then(a.nodes.len().cmp(&b.nodes.len()))
    });
    recs
}

/// Nodes that belong to some recurrence circuit: the members of the
/// components [`recurrences`] keeps, found without its `RecMII` searches.
#[must_use]
pub fn nodes_in_recurrences(g: &DepGraph) -> crate::collections::HashSet<NodeId> {
    strongly_connected_components(g)
        .into_iter()
        .filter(|scc| is_recurrence(g, scc))
        .flatten()
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
        let sccs = strongly_connected_components(&lp.graph);
        let total: usize = sccs.iter().map(Vec::len).sum();
        assert_eq!(total, lp.graph.node_count());
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
