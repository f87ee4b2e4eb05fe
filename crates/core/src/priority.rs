//! The priority list driving the iterative scheduler.

use ddg::NodeId;

/// Priority list of nodes waiting to be scheduled.
///
/// Nodes are pre-ordered by the HRMS strategy; the list always hands out the
/// unscheduled node with the highest priority (lowest rank). Ejected nodes
/// return to the list with their *original* priority; spill and move nodes
/// inherit the priority of their associated producer/consumer (minus a small
/// bias so they are picked just before it).
#[derive(Debug, Clone, Default)]
pub struct PriorityList {
    /// Rank of every known node (lower = more urgent), at
    /// [`NodeId::index`]; grown on demand.
    rank: Vec<Option<f64>>,
    /// Nodes currently waiting.
    pending: Vec<NodeId>,
}

impl PriorityList {
    // Some accessors are only exercised by unit tests and debugging code.
    #![allow(dead_code)]
    /// Build the list from an HRMS ordering (first element = highest
    /// priority).
    #[must_use]
    pub fn from_order(order: &[NodeId]) -> Self {
        let mut list = Self::default();
        list.reset_from_order(order);
        list
    }

    /// Reload the list from an HRMS ordering, forgetting all previous ranks
    /// and pending nodes but keeping the allocations — equivalent to
    /// [`PriorityList::from_order`] on a warmed buffer.
    pub fn reset_from_order(&mut self, order: &[NodeId]) {
        self.rank.clear();
        self.pending.clear();
        self.pending.extend_from_slice(order);
        for (i, &n) in order.iter().enumerate() {
            self.set_rank(n, Some(i as f64));
        }
    }

    fn set_rank(&mut self, node: NodeId, rank: Option<f64>) {
        if node.index() >= self.rank.len() {
            self.rank.resize(node.index() + 1, None);
        }
        self.rank[node.index()] = rank;
    }

    /// Whether no node is waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of waiting nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Rank of a node (lower is more urgent), if known.
    #[must_use]
    pub fn rank_of(&self, node: NodeId) -> Option<f64> {
        self.rank.get(node.index()).copied().flatten()
    }

    /// Pop the highest-priority waiting node.
    pub fn pop(&mut self) -> Option<NodeId> {
        if self.pending.is_empty() {
            return None;
        }
        let (idx, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let ra = self.rank_of(**a).unwrap_or(f64::MAX);
                let rb = self.rank_of(**b).unwrap_or(f64::MAX);
                ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("pending is non-empty");
        Some(self.pending.swap_remove(idx))
    }

    /// Return a node to the list with its original priority (after an
    /// ejection). Does nothing if the node is already waiting.
    pub fn push_back(&mut self, node: NodeId) {
        debug_assert!(
            self.rank_of(node).is_some(),
            "push_back of a node without a registered priority"
        );
        if !self.pending.contains(&node) {
            self.pending.push(node);
        }
    }

    /// Register a node inserted during scheduling (spill or move) with a
    /// priority derived from `anchor` (it will be picked just before the
    /// anchor would be re-picked) and add it to the list.
    pub fn insert_with_anchor(&mut self, node: NodeId, anchor: NodeId) {
        self.register_with_anchor(node, anchor);
        if !self.pending.contains(&node) {
            self.pending.push(node);
        }
    }

    /// Register a priority for a node derived from `anchor` without adding
    /// it to the pending list (used for move nodes that are scheduled
    /// immediately but may be ejected and re-queued later).
    pub fn register_with_anchor(&mut self, node: NodeId, anchor: NodeId) {
        let base = self.rank_of(anchor).unwrap_or(0.0);
        self.set_rank(node, Some(base - 0.5));
    }

    /// Remove a node from the list and forget its priority (used when a
    /// move or spill node is deleted from the graph before being placed).
    pub fn remove(&mut self, node: NodeId) {
        self.pending.retain(|&n| n != node);
        if let Some(r) = self.rank.get_mut(node.index()) {
            *r = None;
        }
    }

    /// Whether the node is currently waiting in the list.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.pending.contains(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let order = [NodeId(5), NodeId(2), NodeId(9)];
        let mut pl = PriorityList::from_order(&order);
        assert_eq!(pl.len(), 3);
        assert_eq!(pl.pop(), Some(NodeId(5)));
        assert_eq!(pl.pop(), Some(NodeId(2)));
        assert_eq!(pl.pop(), Some(NodeId(9)));
        assert_eq!(pl.pop(), None);
        assert!(pl.is_empty());
    }

    #[test]
    fn push_back_restores_original_priority() {
        let order = [NodeId(1), NodeId(2), NodeId(3)];
        let mut pl = PriorityList::from_order(&order);
        assert_eq!(pl.pop(), Some(NodeId(1)));
        assert_eq!(pl.pop(), Some(NodeId(2)));
        // Eject node 1: it comes back before node 3.
        pl.push_back(NodeId(1));
        assert_eq!(pl.pop(), Some(NodeId(1)));
        assert_eq!(pl.pop(), Some(NodeId(3)));
    }

    #[test]
    fn push_back_does_not_duplicate() {
        let order = [NodeId(1)];
        let mut pl = PriorityList::from_order(&order);
        pl.push_back(NodeId(1));
        assert_eq!(pl.len(), 1);
    }

    #[test]
    fn inserted_nodes_run_just_before_their_anchor() {
        let order = [NodeId(1), NodeId(2)];
        let mut pl = PriorityList::from_order(&order);
        // A spill load anchored at node 2.
        pl.insert_with_anchor(NodeId(10), NodeId(2));
        assert_eq!(pl.pop(), Some(NodeId(1)));
        assert_eq!(pl.pop(), Some(NodeId(10)));
        assert_eq!(pl.pop(), Some(NodeId(2)));
    }

    #[test]
    fn remove_forgets_the_node() {
        let order = [NodeId(1), NodeId(2)];
        let mut pl = PriorityList::from_order(&order);
        pl.insert_with_anchor(NodeId(10), NodeId(1));
        pl.remove(NodeId(10));
        assert!(!pl.contains(NodeId(10)));
        assert_eq!(pl.rank_of(NodeId(10)), None);
        assert_eq!(pl.len(), 2);
    }
}
