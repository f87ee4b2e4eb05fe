//! Scheduling windows: `EarlyStart`, `LateStart`, search `Direction` and the
//! free-slot search (Section 3.1 of the paper).

use crate::schedule::FoldedTable;
use crate::scheduler::{Direction, SchedState, Window};
use ddg::{NodeId, NodeOrigin};

impl SchedState<'_, '_> {
    /// Earliest cycle at which `node` can issue so that all of its already
    /// scheduled predecessors complete first.
    pub(crate) fn early_start(&self, node: NodeId) -> Option<i64> {
        let lat = self.machine.latencies();
        let ii = i64::from(self.sched.ii());
        let mut early: Option<i64> = None;
        for &e in self.graph.in_edge_ids(node) {
            let edge = self.graph.edge(e);
            if edge.from == node {
                continue; // self edge constrains nothing within one iteration
            }
            if let Some(pc) = self.sched.cycle_of(edge.from) {
                let bound = pc + self.graph.latency_of(edge, lat) - ii * i64::from(edge.distance);
                early = Some(early.map_or(bound, |c| c.max(bound)));
            }
        }
        early
    }

    /// Latest cycle at which `node` can issue so that all of its already
    /// scheduled successors still receive their operands in time.
    pub(crate) fn late_start(&self, node: NodeId) -> Option<i64> {
        let lat = self.machine.latencies();
        let ii = i64::from(self.sched.ii());
        let mut late: Option<i64> = None;
        for &e in self.graph.out_edge_ids(node) {
            let edge = self.graph.edge(e);
            if edge.to == node {
                continue;
            }
            if let Some(sc) = self.sched.cycle_of(edge.to) {
                let bound = sc - self.graph.latency_of(edge, lat) + ii * i64::from(edge.distance);
                late = Some(late.map_or(bound, |c| c.min(bound)));
            }
        }
        late
    }

    /// Search window and direction for `node` (the `Early_Start`,
    /// `Late_Start` and `Direction` computation of Figure 3).
    ///
    /// * Only predecessors scheduled → search forward from `EarlyStart` over
    ///   at most II cycles.
    /// * Only successors scheduled → search backward from `LateStart` over
    ///   at most II cycles.
    /// * Both → search forward in `[EarlyStart, min(LateStart, EarlyStart+II−1)]`.
    /// * Neither → search forward from cycle 0.
    ///
    /// Spill loads and stores are additionally constrained by the distance
    /// gauge `DG` so they stay close to their consumer/producer.
    ///
    /// The window depends only on the node and the already-placed
    /// neighbours — not on the candidate cluster — which is why
    /// `select_cluster` computes it once and probes every cluster's
    /// reservation table against the same window.
    pub(crate) fn window(&self, node: NodeId) -> Window {
        let ii = i64::from(self.sched.ii());
        let early = self.early_start(node);
        let late = self.late_start(node);
        let dg = self.opts.distance_gauge;
        let origin = self.graph.op(node).origin;

        let (mut early, mut late, direction) = match (early, late) {
            (Some(e), Some(l)) => (e, l.min(e + ii - 1), Direction::Forward),
            (Some(e), None) => (e, e + ii - 1, Direction::Forward),
            (None, Some(l)) => (l - ii + 1, l, Direction::Backward),
            (None, None) => (0, ii - 1, Direction::Forward),
        };
        // The distance gauge keeps spill code near the operation it serves:
        // a spill load is placed at most DG cycles before its consumer, a
        // spill store at most DG cycles after its producer.
        match origin {
            NodeOrigin::SpillLoad { .. } => {
                early = early.max(late - dg);
            }
            NodeOrigin::SpillStore { .. } => {
                late = late.min(early + dg);
            }
            _ => {}
        }
        Window {
            early,
            late,
            direction,
        }
    }

    /// Find a cycle inside `window` where `table` fits without any resource
    /// conflict, honouring the search direction.
    pub(crate) fn find_free_slot(&self, table: FoldedTable, window: Window) -> Option<i64> {
        if window.late < window.early {
            return None;
        }
        // Never scan more than II cycles: beyond that the MRT repeats.
        let span = (window.late - window.early + 1).min(i64::from(self.sched.ii()));
        match window.direction {
            Direction::Forward => (0..span)
                .map(|k| window.early + k)
                .find(|&c| self.sched.can_place(table, c)),
            Direction::Backward => (0..span)
                .map(|k| window.late - k)
                .find(|&c| self.sched.can_place(table, c)),
        }
    }
}
