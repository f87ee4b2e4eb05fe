//! Reusable scheduling buffers: one [`SchedScratch`] per worker amortises
//! every per-attempt allocation of the scheduler across II restarts *and*
//! across loops.
//!
//! A scheduling attempt needs a partial schedule (MRT arrays sized by
//! resources × II), per-cluster pressure gauges, a priority list and four
//! bookkeeping hash maps. Allocating those per attempt was cheap next to
//! the old per-attempt `DepGraph::clone`, but once the clone is replaced by
//! transactional rollback they become the next allocation hot spot. The
//! scratch holds them between attempts: `take_*` hands a buffer out (reset
//! to empty, capacity preserved), `reclaim` puts it back when the attempt
//! ends.
//!
//! Reuse is invisible to the schedule: every buffer is reset to exactly the
//! state a freshly constructed one would have, and outcome-affecting
//! iteration never depends on hash-map capacity (placement victims are
//! selected by minimum placement order, hashes sort their keys). The golden
//! `schedule_hash` tests pin this.

use crate::pressure::PressureTracker;
use crate::priority::PriorityList;
use crate::schedule::PartialSchedule;
use crate::spill::SpillMemo;
use ddg::collections::HashMap;
use ddg::{NodeId, ValueId};
use vliw::{ClusterId, MachineConfig};

/// Reusable per-worker scheduling state.
///
/// Create one per thread (or per sequential batch of loops) and pass it to
/// [`MirsScheduler::schedule_with`](crate::MirsScheduler::schedule_with);
/// the parallel sweep harness keeps one per worker. A scratch carries no
/// results — only warmed allocations — so reusing it across loops and
/// machine configurations is always safe.
#[derive(Debug, Default)]
pub struct SchedScratch {
    sched: Option<PartialSchedule>,
    pressure: Option<PressureTracker>,
    plist: PriorityList,
    prev_cycle: HashMap<NodeId, i64>,
    move_route: HashMap<NodeId, (ClusterId, ClusterId)>,
    move_into: HashMap<(ValueId, ClusterId), NodeId>,
    spill_store_of: HashMap<ValueId, NodeId>,
    /// Cross-restart spill memo. Unlike the other buffers it carries
    /// loop-scoped *state*, not just warmed capacity: entries persist
    /// across the II attempts of one loop (that is its whole point) and
    /// the search driver resets it via [`SchedScratch::spill_memo_mut`]
    /// when a new loop begins, so reuse across loops stays invisible.
    spill_memo: SpillMemo,
}

impl SchedScratch {
    /// Fresh scratch with no warmed buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Partial schedule for `machine` at `ii`, reusing prior MRT storage.
    pub(crate) fn take_sched(&mut self, machine: &MachineConfig, ii: u32) -> PartialSchedule {
        match self.sched.take() {
            Some(mut s) => {
                s.reset(machine, ii);
                s
            }
            None => PartialSchedule::new(machine, ii),
        }
    }

    /// Pressure tracker for a `clusters`-cluster machine at `ii` with
    /// `values` pre-existing value ids, reusing prior storage.
    pub(crate) fn take_pressure(
        &mut self,
        clusters: usize,
        ii: u32,
        values: usize,
    ) -> PressureTracker {
        match self.pressure.take() {
            Some(mut p) => {
                p.reset(clusters, ii, values);
                p
            }
            None => PressureTracker::new(clusters, ii, values),
        }
    }

    /// Priority list loaded from an HRMS order, reusing prior storage.
    pub(crate) fn take_plist(&mut self, order: &[NodeId]) -> PriorityList {
        let mut pl = std::mem::take(&mut self.plist);
        pl.reset_from_order(order);
        pl
    }

    /// Cleared previous-cycle map.
    pub(crate) fn take_prev_cycle(&mut self) -> HashMap<NodeId, i64> {
        let mut m = std::mem::take(&mut self.prev_cycle);
        m.clear();
        m
    }

    /// Cleared move-route map.
    pub(crate) fn take_move_route(&mut self) -> HashMap<NodeId, (ClusterId, ClusterId)> {
        let mut m = std::mem::take(&mut self.move_route);
        m.clear();
        m
    }

    /// Cleared (value, destination) → move index.
    pub(crate) fn take_move_into(&mut self) -> HashMap<(ValueId, ClusterId), NodeId> {
        let mut m = std::mem::take(&mut self.move_into);
        m.clear();
        m
    }

    /// Cleared value → spill-store index.
    pub(crate) fn take_spill_store_of(&mut self) -> HashMap<ValueId, NodeId> {
        let mut m = std::mem::take(&mut self.spill_store_of);
        m.clear();
        m
    }

    /// The spill memo, *not* cleared: it deliberately survives from one II
    /// attempt to the next within a loop (the search driver calls
    /// [`SpillMemo::begin_loop`] through [`SchedScratch::spill_memo_mut`]
    /// at loop start and [`SpillMemo::begin_attempt`] before each attempt).
    pub(crate) fn take_spill_memo(&mut self) -> SpillMemo {
        std::mem::take(&mut self.spill_memo)
    }

    /// Direct access for the search driver's per-loop/per-attempt resets.
    pub(crate) fn spill_memo_mut(&mut self) -> &mut SpillMemo {
        &mut self.spill_memo
    }

    /// Return every buffer of a finished attempt so the next one (or the
    /// next loop) reuses the allocations.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reclaim(
        &mut self,
        sched: PartialSchedule,
        pressure: PressureTracker,
        plist: PriorityList,
        prev_cycle: HashMap<NodeId, i64>,
        move_route: HashMap<NodeId, (ClusterId, ClusterId)>,
        move_into: HashMap<(ValueId, ClusterId), NodeId>,
        spill_store_of: HashMap<ValueId, NodeId>,
        spill_memo: SpillMemo,
    ) {
        self.sched = Some(sched);
        self.pressure = Some(pressure);
        self.plist = plist;
        self.prev_cycle = prev_cycle;
        self.move_route = move_route;
        self.move_into = move_into;
        self.spill_store_of = spill_store_of;
        self.spill_memo = spill_memo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw::MachineConfig;

    #[test]
    fn taken_buffers_start_empty_for_any_history() {
        let mut scratch = SchedScratch::new();
        let m2 = MachineConfig::paper_config(2, 32).unwrap();
        let m1 = MachineConfig::paper_config(1, 64).unwrap();

        let mut sched = scratch.take_sched(&m2, 7);
        let add = sched.op_table(&m2, vliw::Opcode::FpAdd, vliw::ClusterId(0));
        sched.place(ddg::NodeId(0), 3, vliw::ClusterId(0), add);
        let mut prev = scratch.take_prev_cycle();
        prev.insert(ddg::NodeId(0), 3);
        let pressure = scratch.take_pressure(2, 7, 4);
        let plist = scratch.take_plist(&[ddg::NodeId(0)]);
        let move_route = scratch.take_move_route();
        let move_into = scratch.take_move_into();
        let spill_store_of = scratch.take_spill_store_of();
        let spill_memo = scratch.take_spill_memo();
        scratch.reclaim(
            sched,
            pressure,
            plist,
            prev,
            move_route,
            move_into,
            spill_store_of,
            spill_memo,
        );

        // Re-take for a different machine/II: everything must look fresh.
        let sched = scratch.take_sched(&m1, 3);
        assert_eq!(sched.ii(), 3);
        assert!(sched.is_empty());
        assert!(!sched.is_scheduled(ddg::NodeId(0)));
        let (counts, by_kind) = sched.gauges();
        assert!(counts.iter().all(|&c| c == 0));
        assert!(by_kind.iter().all(|&c| c == 0));
        assert!(scratch.take_prev_cycle().is_empty());
        let plist = scratch.take_plist(&[ddg::NodeId(5)]);
        assert_eq!(plist.len(), 1);
        assert_eq!(plist.rank_of(ddg::NodeId(0)), None, "old ranks forgotten");
    }
}
