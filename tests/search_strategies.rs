//! Pins the II-search layer's contracts:
//!
//! * the default `Linear` strategy is *bit-identical* to the pre-search
//!   scheduler — the golden workbench hashes recorded before the refactor
//!   must reproduce exactly, explicit-`Linear` and default options must
//!   agree loop by loop;
//! * the branching `Backtracking` strategy never returns a worse
//!   `(II, spill-ops)` pair than `Linear` on the 60-loop workbench — it
//!   always includes `Linear`'s canonical attempts in its candidate set —
//!   and strictly improves at least one loop on the restart-heavy
//!   4-cluster configuration; both strategies' schedules pass the
//!   structural oracle there;
//! * every strategy is deterministic (same loop, same machine, same hash)
//!   and records its metadata in `ScheduleResult::search`;
//! * `Exact` reproduces `Backtracking`'s schedule and stamps a sound
//!   proof.

use loopgen::{Workbench, WorkbenchParams};
use mirs::{
    MirsScheduler, SchedScratch, ScheduleResult, SchedulerOptions, SearchConfig, SearchProof,
    SearchStrategyKind,
};
use vliw::MachineConfig;

/// Recorded from the seed (pre-flat-MRT) scheduler and unchanged ever
/// since; the search layer must keep reproducing them through `Linear`
/// (same constants as `tests/schedule_hash.rs`).
const GOLDEN_1X64: u64 = 0xe16d_bd67_223a_565e;
const GOLDEN_2X32: u64 = 0xda8c_f0c2_9b3e_3938;

fn workbench(loops: usize) -> Workbench {
    Workbench::generate(&WorkbenchParams {
        loops,
        ..WorkbenchParams::default()
    })
}

fn schedule(
    machine: &MachineConfig,
    lp: &ddg::Loop,
    search: SearchConfig,
    scratch: &mut SchedScratch,
) -> ScheduleResult {
    let opts = SchedulerOptions::default().with_search(search);
    MirsScheduler::new(machine, opts)
        .schedule_with(lp, scratch)
        .expect("workbench loops converge")
}

fn spill_ops(r: &ScheduleResult) -> u32 {
    r.stats.spill_stores + r.stats.spill_loads
}

#[test]
fn linear_reproduces_every_golden_schedule_hash() {
    let wb = workbench(10);
    let mut scratch = SchedScratch::new();
    for (machine, golden) in [
        (MachineConfig::paper_config(1, 64).unwrap(), GOLDEN_1X64),
        (MachineConfig::paper_config(2, 32).unwrap(), GOLDEN_2X32),
    ] {
        let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
        for lp in wb.loops() {
            let explicit = schedule(&machine, lp, SearchConfig::linear(), &mut scratch);
            let default = MirsScheduler::new(&machine, SchedulerOptions::default())
                .schedule(lp)
                .expect("workbench loops converge");
            assert_eq!(
                explicit.schedule_hash(),
                default.schedule_hash(),
                "{}: explicit Linear must equal the default options on {}",
                machine.name(),
                lp.name
            );
            assert_eq!(explicit.search.strategy, SearchStrategyKind::Linear);
            assert_eq!(
                explicit.search.attempts,
                explicit.stats.restarts + 1,
                "linear search makes exactly one attempt per II"
            );
            assert_eq!(explicit.search.candidates, 1);
            combined = combined
                .rotate_left(7)
                .wrapping_mul(0x0000_0100_0000_01b3)
                .wrapping_add(explicit.schedule_hash());
        }
        assert_eq!(
            combined,
            golden,
            "{}: Linear diverged from the golden hashes: got {combined:#018x}",
            machine.name()
        );
    }
}

/// `Backtracking` dominates `Linear` loop-by-loop on the paper's
/// `(II, spill-ops)` order and strictly improves at least one loop on the
/// 4-cluster configuration (that is the configuration whose restarts the
/// multi-II search was built for). Every schedule of both strategies must
/// pass the structural oracle.
#[test]
fn branching_strategies_never_lose_to_linear_on_the_60_loop_workbench() {
    let wb = workbench(60);
    let mut scratch = SchedScratch::new();
    let mut bt_improved_on_4x16 = 0usize;
    for (k, regs) in [(2u32, 32u32), (4, 16)] {
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        for lp in wb.loops() {
            let lin = schedule(&machine, lp, SearchConfig::linear(), &mut scratch);
            if let Err(err) = lin.validate(&machine) {
                panic!(
                    "{}/{}: linear schedule fails the structural oracle: {err:?} \
                     (regression guard: removing a move must cascade to moves \
                     chained onto its copy)",
                    machine.name(),
                    lp.name
                );
            }
            let lin_key = (lin.ii, spill_ops(&lin));
            let r = schedule(&machine, lp, SearchConfig::backtracking(), &mut scratch);
            r.validate(&machine).expect("explored schedules validate");
            let key = (r.ii, spill_ops(&r));
            assert!(
                key <= lin_key,
                "{}/{}: backtrack returned (II {}, spills {}) worse than Linear's \
                 (II {}, spills {})",
                machine.name(),
                lp.name,
                key.0,
                key.1,
                lin_key.0,
                lin_key.1
            );
            assert_eq!(r.search.strategy, SearchStrategyKind::Backtracking);
            assert!(r.search.attempts >= lin.search.attempts.min(2));
            if k == 4 && key < lin_key {
                bt_improved_on_4x16 += 1;
            }
        }
    }
    assert!(
        bt_improved_on_4x16 > 0,
        "Backtracking should strictly improve (II, spill-ops) on at least one \
         4-cluster loop"
    );
}

#[test]
fn every_strategy_is_deterministic() {
    let wb = workbench(8);
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let mut scratch = SchedScratch::new();
    for cfg in [
        SearchConfig::linear(),
        SearchConfig::backtracking(),
        SearchConfig::exact(),
    ] {
        for lp in wb.loops() {
            let a = schedule(&machine, lp, cfg, &mut scratch);
            let b = schedule(&machine, lp, cfg, &mut SchedScratch::new());
            assert_eq!(
                a.schedule_hash(),
                b.schedule_hash(),
                "{}: {} must be deterministic (scratch reuse included)",
                lp.name,
                cfg.strategy
            );
            assert_eq!(a.search, b.search);
        }
    }
}

/// `Exact` is the backtracking climb with a certification phase in front:
/// at the converged II the schedules are byte-identical (the cache's
/// top-tier metric-tie refinement depends on this), and the result carries a
/// non-heuristic [`SearchProof`] whose bound never exceeds the achieved II
/// — the soundness contract of the relaxation.
#[test]
fn exact_matches_backtracking_and_stamps_a_sound_proof() {
    let wb = workbench(12);
    let mut scratch = SchedScratch::new();
    for (k, regs) in [(1u32, 64u32), (4, 16)] {
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        for lp in wb.loops() {
            let bt = schedule(&machine, lp, SearchConfig::backtracking(), &mut scratch);
            let ex = schedule(&machine, lp, SearchConfig::exact(), &mut scratch);
            assert_eq!(ex.search.strategy, SearchStrategyKind::Exact);
            assert_eq!(
                ex.schedule_hash(),
                bt.schedule_hash(),
                "{}/{}: the exact climb must reproduce backtracking's schedule",
                machine.name(),
                lp.name
            );
            // Heuristic results carry no proof; exact always certifies.
            assert_eq!(bt.search.proof, SearchProof::Heuristic);
            assert!(bt.certified_lower_bound().is_none());
            assert_ne!(ex.search.proof, SearchProof::Heuristic);
            let lb = ex.certified_lower_bound().expect("exact always certifies");
            assert!(
                lb <= ex.ii && lb <= bt.ii,
                "{}/{}: certified bound {} exceeds an achieved II ({} exact, {} backtrack)",
                machine.name(),
                lp.name,
                lb,
                ex.ii,
                bt.ii
            );
            if ex.search.proof.is_optimal() {
                assert_eq!(lb, ex.ii, "optimal means the achieved II is the bound");
            }
        }
    }
}

/// A zero certification budget cannot decide anything: the proof degrades
/// to `BudgetExhausted` at the MII — never a fabricated `Optimal`.
#[test]
fn zero_exact_budget_degrades_the_proof_honestly() {
    let wb = workbench(4);
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let mut scratch = SchedScratch::new();
    for lp in wb.loops() {
        let r = schedule(
            &machine,
            lp,
            SearchConfig::exact().with_exact_budget(0),
            &mut scratch,
        );
        match r.search.proof {
            // With no budget the certifier stops at the MII undecided; the
            // climb can still *achieve* the MII, which proves optimality
            // without spending certification work.
            SearchProof::Optimal => assert_eq!(r.ii, r.mii),
            SearchProof::BudgetExhausted(lb) => assert!(lb <= r.ii),
            other => panic!("{}: unexpected proof {other}", lp.name),
        }
    }
}
