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

use crate::collections::HashSet;
use crate::graph::DepGraph;
use crate::ids::NodeId;
use crate::recurrence::{recurrences, Recurrence};
use vliw::LatencyModel;

/// Compute the HRMS-style priority order of all live nodes.
///
/// The first element has the highest priority (it is scheduled first).
#[must_use]
pub fn hrms_order(g: &DepGraph, lat: &LatencyModel) -> Vec<NodeId> {
    hrms_order_with(g, lat, &recurrences(g, lat))
}

/// [`hrms_order`] on an already-computed recurrence set.
///
/// The scheduler derives the recurrences once per loop (they also feed the
/// `RecMII` bound through [`crate::mii::mii_with_recurrences`]) and shares
/// them here instead of running a second Tarjan + per-circuit binary
/// search on its setup path.
#[must_use]
pub fn hrms_order_with(g: &DepGraph, lat: &LatencyModel, recs: &[Recurrence]) -> Vec<NodeId> {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    if nodes.is_empty() {
        return Vec::new();
    }
    let height = heights_dense(g, lat);
    let adj = Adjacency::build(g);
    let mut counts = adj.initial_counts();

    let mut ordered: Vec<NodeId> = Vec::with_capacity(nodes.len());
    let mut placed: HashSet<NodeId> = HashSet::default();

    for rec in recs {
        let mut set: HashSet<NodeId> = rec
            .nodes
            .iter()
            .copied()
            .filter(|n| !placed.contains(n))
            .collect();
        if set.is_empty() {
            continue;
        }
        // Extend with nodes on paths between the already-ordered region and
        // this recurrence (in either direction) so intermediate nodes are
        // ordered before later, less constrained sets.
        let path = path_nodes(g, &adj, &placed, &set);
        set.extend(path);
        order_set(&adj, &set, &height, &mut counts, &mut ordered, &mut placed);
    }

    // Remaining nodes (not in any recurrence or connecting path).
    let rest: HashSet<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| !placed.contains(n))
        .collect();
    if !rest.is_empty() {
        order_set(&adj, &rest, &height, &mut counts, &mut ordered, &mut placed);
    }
    debug_assert_eq!(ordered.len(), nodes.len());
    ordered
}

/// Deduplicated neighbour lists (self-edges excluded), indexed by node id —
/// built once per ordering instead of re-derived (with an allocation) for
/// every candidate of every pick, which made the ordering pass O(set² ·
/// degree) and the single most expensive part of per-loop setup once the
/// scheduler stopped cloning graphs.
struct Adjacency {
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
}

impl Adjacency {
    fn build(g: &DepGraph) -> Self {
        let cap = g.node_capacity();
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); cap];
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); cap];
        for n in g.node_ids() {
            // Same dedup-in-edge-order semantics as `DepGraph::predecessors`
            // / `successors`, minus self-edges (the ordering ignores them).
            for &e in g.in_edge_ids(n) {
                let from = g.edge(e).from;
                if from != n && !preds[n.index()].contains(&from) {
                    preds[n.index()].push(from);
                }
            }
            for &e in g.out_edge_ids(n) {
                let to = g.edge(e).to;
                if to != n && !succs[n.index()].contains(&to) {
                    succs[n.index()].push(to);
                }
            }
        }
        Self { preds, succs }
    }

    /// Per-node counts of yet-unordered unique predecessors/successors
    /// (everything starts unordered).
    fn initial_counts(&self) -> NeighbourCounts {
        NeighbourCounts {
            preds: self.preds.iter().map(|p| p.len() as i64).collect(),
            succs: self.succs.iter().map(|s| s.len() as i64).collect(),
        }
    }
}

/// Incrementally maintained |unique neighbours ∉ placed| per node: exactly
/// the quantity the readiness test of `order_set` needs, updated in
/// O(degree) per placed node.
struct NeighbourCounts {
    preds: Vec<i64>,
    succs: Vec<i64>,
}

impl NeighbourCounts {
    /// Record that `n` was ordered: each neighbour has one fewer unordered
    /// counterpart.
    fn place(&mut self, adj: &Adjacency, n: NodeId) {
        for &s in &adj.succs[n.index()] {
            self.preds[s.index()] -= 1;
        }
        for &p in &adj.preds[n.index()] {
            self.succs[p.index()] -= 1;
        }
    }
}

/// Longest-path height of every node over intra-iteration (distance 0)
/// edges: the accumulated latency from the node to the furthest sink.
/// Deeper nodes are more urgent. Indexed by `NodeId::index`; removed ids
/// hold 0.
fn heights_dense(g: &DepGraph, lat: &LatencyModel) -> Vec<i64> {
    let mut height: Vec<i64> = vec![0; g.node_capacity()];
    // Hoist the distance-0 edges (with their latencies) out of the fixpoint
    // rounds: the relaxation re-reads them up to |V| times.
    let edges: Vec<(usize, usize, i64)> = g
        .edge_ids()
        .filter_map(|e| {
            let edge = g.edge(e);
            if edge.distance != 0 {
                return None;
            }
            Some((edge.from.index(), edge.to.index(), g.edge_latency(e, lat)))
        })
        .collect();
    // The distance-0 subgraph is acyclic (a zero-distance cycle would make
    // the loop unschedulable), so a simple relaxation to fixpoint converges
    // in at most |V| rounds.
    for _ in 0..g.node_capacity() {
        let mut changed = false;
        for &(from, to, latency) in &edges {
            let cand = height[to] + latency;
            if cand > height[from] {
                height[from] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    height
}

/// Nodes lying on a dependence path (any direction, distance-0 edges)
/// between `from_set` and `to_set`, excluding nodes already in either set.
fn path_nodes(
    g: &DepGraph,
    adj: &Adjacency,
    a: &HashSet<NodeId>,
    b: &HashSet<NodeId>,
) -> Vec<NodeId> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let down_a = reach(adj, a, true);
    let up_b = reach(adj, b, false);
    let down_b = reach(adj, b, true);
    let up_a = reach(adj, a, false);
    g.node_ids()
        .filter(|n| !a.contains(n) && !b.contains(n))
        .filter(|n| {
            (down_a.contains(n) && up_b.contains(n)) || (down_b.contains(n) && up_a.contains(n))
        })
        .collect()
}

fn reach(adj: &Adjacency, start: &HashSet<NodeId>, forward: bool) -> HashSet<NodeId> {
    let mut seen: HashSet<NodeId> = start.clone();
    let mut stack: Vec<NodeId> = start.iter().copied().collect();
    while let Some(n) = stack.pop() {
        let next = if forward {
            &adj.succs[n.index()]
        } else {
            &adj.preds[n.index()]
        };
        for &m in next {
            if seen.insert(m) {
                stack.push(m);
            }
        }
    }
    seen
}

/// Order the nodes of `set`, appending to `ordered`.
///
/// Nodes become *ready* when, within the yet-unordered part of the whole
/// graph, they have no unordered predecessor or no unordered successor —
/// i.e. placing them keeps the "only predecessors or only successors
/// already placed" property. Among ready nodes the one with the largest
/// height is placed first. If a cycle makes no node ready (the last node of
/// a recurrence circuit), the node with fewest unordered neighbours breaks
/// the tie.
///
/// The readiness counts come from the incrementally maintained
/// [`NeighbourCounts`] (identical values to a per-candidate neighbour
/// scan); candidate iteration still walks the same hash set in the same
/// order, so ties resolve exactly as before and the produced ordering is
/// unchanged.
fn order_set(
    adj: &Adjacency,
    set: &HashSet<NodeId>,
    height: &[i64],
    counts: &mut NeighbourCounts,
    ordered: &mut Vec<NodeId>,
    placed: &mut HashSet<NodeId>,
) {
    let mut remaining: HashSet<NodeId> = set
        .iter()
        .copied()
        .filter(|n| !placed.contains(n))
        .collect();
    while !remaining.is_empty() {
        let mut best: Option<(NodeId, (i64, i64))> = None;
        for &n in &remaining {
            let unordered_preds = counts.preds[n.index()];
            let unordered_succs = counts.succs[n.index()];
            let ready = unordered_preds == 0 || unordered_succs == 0;
            // Primary key: readiness; secondary: height; tertiary: fewer
            // unordered neighbours (to close recurrences quickly).
            let key = (
                if ready { 1 } else { 0 } * 1_000_000 + height[n.index()],
                -(unordered_preds + unordered_succs),
            );
            match best {
                Some((_, bk)) if bk >= key => {}
                _ => best = Some((n, key)),
            }
        }
        let (chosen, _) = best.expect("remaining set is non-empty");
        remaining.remove(&chosen);
        placed.insert(chosen);
        counts.place(adj, chosen);
        ordered.push(chosen);
    }
}

/// Check the HRMS invariant for an ordering: when each node is placed, the
/// already-placed nodes among its neighbours are only predecessors or only
/// successors (nodes inside recurrence circuits are exempt). Returns the
/// ids of nodes violating the property; used by tests.
#[must_use]
pub fn ordering_violations(g: &DepGraph, order: &[NodeId]) -> Vec<NodeId> {
    let in_rec = crate::recurrence::nodes_in_recurrences(g);
    let mut placed: HashSet<NodeId> = HashSet::default();
    let mut bad = Vec::new();
    for &n in order {
        if !in_rec.contains(&n) {
            let has_pred = g.predecessors(n).iter().any(|p| placed.contains(p));
            let has_succ = g.successors(n).iter().any(|s| placed.contains(s));
            if has_pred && has_succ {
                bad.push(n);
            }
        }
        placed.insert(n);
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
        let set: HashSet<_> = order.iter().collect();
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
        let h = heights_dense(&lp.graph, &lat);
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
