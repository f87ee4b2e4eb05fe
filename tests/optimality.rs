//! Soundness of the exact branch-and-bound certifier.
//!
//! The one property that must never break: the certified lower bound is a
//! true bound — **no** converged heuristic schedule, under any strategy on
//! any machine shape, may achieve an II below it. The bound relaxes the
//! problem (aggregate resource pools, residue decomposition, no register
//! pressure), so the relaxation's feasible region must contain every real
//! schedule; a heuristic beating the bound means the relaxation dropped a
//! constraint it must keep.
//!
//! Budget handling rides along: exhaustion must degrade the proof honestly
//! (`BudgetExhausted`, never a fabricated `Optimal`), and the proof
//! stamping must distinguish heuristic results from certified ones.

use loopgen::{hard_cases, synthetic, SyntheticParams};
use mirs::{
    MirsScheduler, ScheduleResult, SchedulerOptions, SearchConfig, SearchProof, SearchStrategyKind,
};
use proptest::prelude::*;
use vliw::{ClusterConfig, LatencyModel, MachineConfig, Opcode};

fn schedule(
    machine: &MachineConfig,
    lp: &ddg::Loop,
    search: SearchConfig,
) -> Option<ScheduleResult> {
    MirsScheduler::new(machine, SchedulerOptions::default().with_search(search))
        .schedule(lp)
        .ok()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// On random synthetic loops, every converged heuristic II is at least
    /// the certified lower bound, on clustered and unclustered shapes with
    /// tight and roomy register files alike.
    #[test]
    fn certified_bound_never_exceeds_any_converged_heuristic(
        seed in 0u64..500,
        arith in 3usize..12,
        streams in 1usize..3,
        recurrences in 0usize..3,
        rec_distance in 1u32..3,
        long_idx in 0usize..3,
        clusters_pow in 0u32..2,
        regs_idx in 0usize..3,
    ) {
        let params = SyntheticParams {
            arith_ops: arith,
            input_streams: streams,
            output_stores: 1,
            invariants: 1,
            long_latency_fraction: [0.0, 0.3, 0.7][long_idx],
            recurrences,
            recurrence_distance: rec_distance,
            ..SyntheticParams::default()
        };
        let lp = synthetic::generate(&params, seed);
        let k = 1u32 << clusters_pow;
        let regs = [8u32, 16, 64][regs_idx];
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        // A modest budget keeps debug builds fast; an undecided probe just
        // weakens the bound, never unsoundly strengthens it.
        let exact = schedule(&machine, &lp, SearchConfig::exact().with_exact_budget(5_000));
        let Some(exact) = exact else { return; };
        let lb = exact.certified_lower_bound().expect("exact always certifies");
        prop_assert!(lb >= exact.mii, "the bound can only refine the MII upward");
        prop_assert!(
            lb <= exact.ii,
            "{}: exact converged at II {} below its own bound {}", lp.name, exact.ii, lb
        );
        for cfg in [SearchConfig::linear(), SearchConfig::backtracking()] {
            if let Some(r) = schedule(&machine, &lp, cfg) {
                prop_assert!(
                    r.ii >= lb,
                    "{}: {} converged at II {} below the certified bound {}",
                    lp.name, cfg.strategy, r.ii, lb
                );
                prop_assert_eq!(r.search.proof, SearchProof::Heuristic);
            }
        }
    }

    /// Exact scheduling is deterministic, bound and proof included.
    #[test]
    fn exact_is_deterministic_with_its_proof(seed in 0u64..200) {
        let lp = synthetic::generate(&SyntheticParams::small(), seed);
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        let a = schedule(&machine, &lp, SearchConfig::exact());
        let b = schedule(&machine, &lp, SearchConfig::exact());
        match (a, b) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.schedule_hash(), b.schedule_hash());
                prop_assert_eq!(a.search, b.search);
                prop_assert_eq!(a.search.strategy, SearchStrategyKind::Exact);
            }
            (None, None) => {}
            _ => prop_assert!(false, "convergence itself must be deterministic"),
        }
    }
}

/// The pinned hard cases stay sound: the heuristics may sit above the
/// certified bound (that is what makes them hard), never below it.
#[test]
fn hard_cases_keep_their_certified_bounds_sound() {
    for lp in hard_cases() {
        for (k, regs) in [(1u32, 8u32), (2, 8), (1, 64)] {
            let machine = MachineConfig::paper_config(k, regs).unwrap();
            let Some(exact) = schedule(&machine, &lp, SearchConfig::exact()) else {
                continue;
            };
            let lb = exact
                .certified_lower_bound()
                .expect("exact always certifies");
            for cfg in [SearchConfig::linear(), SearchConfig::backtracking()] {
                if let Some(r) = schedule(&machine, &lp, cfg) {
                    assert!(
                        r.ii >= lb,
                        "{}/{}: {} II {} below certified bound {}",
                        machine.name(),
                        lp.name,
                        cfg.strategy,
                        r.ii,
                        lb
                    );
                }
            }
        }
    }
}

/// The MII counts divide occupancy under the machine's own latency model,
/// the one the modulo reservation table uses. With an 8-cycle divider on
/// one GP unit and one memory port, load → divide → store has MII 8; an
/// MII counted under the default 17-cycle divider would start every climb
/// at 17 and let `exact` certify II 17 as optimal.
#[test]
fn mii_counts_occupancy_under_the_machine_latency_model() {
    let machine = MachineConfig::builder()
        .cluster(ClusterConfig::new(1, 1, 64))
        .latencies(LatencyModel {
            fp_div: 8,
            ..LatencyModel::default()
        })
        .build()
        .unwrap();
    let mut b = ddg::LoopBuilder::new("div");
    let x = b.load("x");
    let d = b.op(Opcode::FpDiv, &[x, x]);
    b.store("y", d);
    let lp = b.finish(100);
    let bounds = ddg::mii::mii(&lp.graph, machine.latencies(), 1, 1);
    assert_eq!((bounds.res_mii, bounds.mii()), (8, 8));
    for search in [SearchConfig::linear(), SearchConfig::exact()] {
        let r = schedule(&machine, &lp, search).expect("the loop converges");
        r.validate(&machine).expect("schedule validates");
        assert_eq!((r.mii, r.ii), (8, 8), "{}", search.strategy);
    }
    let exact = schedule(&machine, &lp, SearchConfig::exact()).unwrap();
    assert_eq!(exact.search.proof, SearchProof::Optimal);
}
