//! Minimum initiation interval bounds.
//!
//! The initiation interval (II) of a modulo schedule is bounded below by
//! * `ResMII` — the most heavily used resource class cannot issue more than
//!   one operation per unit per cycle, and
//! * `RecMII` — every recurrence circuit must fit its total latency within
//!   `II · distance` cycles.
//!
//! `MII = max(ResMII, RecMII)` is the starting II of both the MIRS-C
//! scheduler and the non-iterative baseline.

use crate::analysis::LoopAnalysis;
use crate::graph::DepGraph;
use crate::recurrence::Recurrence;
use vliw::{LatencyModel, OpClass};

/// The initiation-interval lower bounds of a loop on a machine with
/// `gp_units` general-purpose units and `mem_ports` memory ports in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiiBounds {
    /// Resource-constrained minimum II.
    pub res_mii: u32,
    /// Recurrence-constrained minimum II.
    pub rec_mii: u32,
}

impl MiiBounds {
    /// `MII = max(ResMII, RecMII)`.
    #[must_use]
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii)
    }
}

/// Resource-constrained minimum II.
///
/// Cluster assignment is not known at this point, so the bound uses the
/// *total* number of units of each class across clusters, which is exactly
/// the bound a unified machine would have (and therefore a valid lower bound
/// for any clustering of the same resources). Inter-cluster move operations
/// are not counted because none exist before scheduling.
///
/// Divides and square roots block their unit for several cycles, so the
/// bound counts occupancy under `lat`, the model the modulo reservation
/// table uses: the machine's own.
#[must_use]
pub fn res_mii(g: &DepGraph, lat: &LatencyModel, gp_units: u32, mem_ports: u32) -> u32 {
    let mut gp_cycles: u64 = 0;
    let mut mem_cycles: u64 = 0;
    for n in g.node_ids() {
        let op = g.op(n).opcode;
        match op.class() {
            OpClass::Gp => gp_cycles += u64::from(lat.occupancy(op)),
            OpClass::Mem => mem_cycles += 1,
            OpClass::Move => {}
        }
    }
    let gp_bound = div_ceil(gp_cycles, u64::from(gp_units.max(1)));
    let mem_bound = div_ceil(mem_cycles, u64::from(mem_ports.max(1)));
    u32::try_from(gp_bound.max(mem_bound).max(1)).unwrap_or(u32::MAX)
}

/// Recurrence-constrained minimum II: the smallest II at which the
/// dependence-constraint graph has no positive cycle, which is the largest
/// `RecMII` of its recurrences ([`LoopAnalysis::rec_mii`]).
#[must_use]
pub fn rec_mii(g: &DepGraph, lat: &LatencyModel) -> u32 {
    let mut analysis = LoopAnalysis::new();
    analysis.analyse(g, lat);
    analysis.rec_mii()
}

/// Both bounds at once, under the machine's latency model `lat`.
#[must_use]
pub fn mii(g: &DepGraph, lat: &LatencyModel, gp_units: u32, mem_ports: u32) -> MiiBounds {
    MiiBounds {
        res_mii: res_mii(g, lat, gp_units, mem_ports),
        rec_mii: rec_mii(g, lat),
    }
}

/// Both bounds from an already-computed recurrence set.
///
/// A positive cycle of the whole constraint graph always lies inside one
/// strongly connected component, so `RecMII` equals the maximum per-circuit
/// `rec_mii` (1 when there is none).
///
/// `ResMII` counts occupancy under [`LatencyModel::default`]: this
/// signature has no latency model, and the recurrences carry none. On a
/// machine with other divide or square-root latencies, use [`mii`] or
/// [`res_mii`] with the machine's model.
#[must_use]
pub fn mii_with_recurrences(
    g: &DepGraph,
    recs: &[Recurrence],
    gp_units: u32,
    mem_ports: u32,
) -> MiiBounds {
    MiiBounds {
        res_mii: res_mii(g, &LatencyModel::default(), gp_units, mem_ports),
        rec_mii: recs.iter().map(|r| r.rec_mii).max().unwrap_or(1),
    }
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use vliw::Opcode;

    #[test]
    fn res_mii_counts_the_most_loaded_class() {
        // 5 memory ops, 2 arithmetic ops on an 8-GP / 4-mem machine:
        // ResMII = max(ceil(2/8), ceil(5/4)) = 2.
        let mut b = LoopBuilder::new("t");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.op(Opcode::FpAdd, &[x, y]);
        let t = b.op(Opcode::FpMul, &[s, s]);
        b.store("z", t);
        let w = b.load("w");
        b.store("q", w);
        let lp = b.finish(10);
        assert_eq!(res_mii(&lp.graph, &LatencyModel::default(), 8, 4), 2);
        // On a 2-GP / 1-mem machine the 5 memory ops dominate: ResMII = 5.
        assert_eq!(res_mii(&lp.graph, &LatencyModel::default(), 2, 1), 5);
    }

    #[test]
    fn res_mii_accounts_for_unpipelined_divides() {
        let mut b = LoopBuilder::new("divs");
        let x = b.load("x");
        let y = b.load("y");
        let _ = b.op(Opcode::FpDiv, &[x, y]);
        let lp = b.finish(10);
        // One divide blocks a unit for 17 cycles: with one GP unit, II >= 17.
        assert_eq!(res_mii(&lp.graph, &LatencyModel::default(), 1, 4), 17);
        // With 8 GP units it still needs ceil(17/8) = 3.
        assert_eq!(res_mii(&lp.graph, &LatencyModel::default(), 8, 4), 3);
        // A machine with an 8-cycle divider: occupancy follows its model.
        let fast = LatencyModel {
            fp_div: 8,
            ..LatencyModel::default()
        };
        assert_eq!(res_mii(&lp.graph, &fast, 1, 4), 8);
        assert_eq!(mii(&lp.graph, &fast, 1, 4).mii(), 8);
    }

    #[test]
    fn rec_mii_of_recurrence_free_loop_is_one() {
        let mut b = LoopBuilder::new("t");
        let x = b.load("x");
        let y = b.op(Opcode::FpAdd, &[x, x]);
        b.store("y", y);
        let lp = b.finish(10);
        assert_eq!(rec_mii(&lp.graph, &LatencyModel::default()), 1);
    }

    #[test]
    fn rec_mii_matches_circuit_latency_over_distance() {
        let mut b = LoopBuilder::new("t");
        let x = b.load("x");
        let s = b.recurrence("s");
        let m = b.op(Opcode::FpMul, &[s, x]);
        let a = b.op(Opcode::FpAdd, &[m, x]);
        b.close_recurrence(s, a, 1);
        let lp = b.finish(10);
        // mul(4) + add(4) over distance 1 = 8.
        assert_eq!(rec_mii(&lp.graph, &LatencyModel::default()), 8);
    }

    #[test]
    fn mii_is_max_of_both_bounds() {
        let mut b = LoopBuilder::new("t");
        let x = b.load("x");
        let s = b.recurrence("s");
        let a = b.op(Opcode::FpAdd, &[s, x]);
        b.close_recurrence(s, a, 1);
        let lp = b.finish(10);
        let lat = LatencyModel::default();
        let bounds = mii(&lp.graph, &lat, 8, 4);
        assert_eq!(bounds.rec_mii, 4);
        assert_eq!(bounds.res_mii, 1);
        assert_eq!(bounds.mii(), 4);
    }

    #[test]
    fn empty_graph_has_trivial_bounds() {
        let g = DepGraph::new();
        let lat = LatencyModel::default();
        assert_eq!(res_mii(&g, &lat, 8, 4), 1);
        assert_eq!(rec_mii(&g, &lat), 1);
    }
}
