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
//! * the branch-parallel path of `Backtracking` and `Exact`
//!   (`SearchConfig::branch_jobs > 1`, fanned across a
//!   `harness::sweep::BranchPool`) is byte-identical to the serial search
//!   for any worker count, on converged loops and on `NotConverged`
//!   verdicts alike — including when the outer workbench sweep already
//!   saturates the machine's cores.

use harness::sweep::BranchPool;
use loopgen::{Workbench, WorkbenchParams};
use mirs::{
    MirsScheduler, SchedScratch, ScheduleResult, SchedulerOptions, SearchConfig, SearchProof,
    SearchStrategyKind,
};
use proptest::prelude::*;
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

/// Schedule with an explicit branch-job count through a [`BranchPool`] of
/// `pool_jobs` workers, as the harness runners do (the scheduler keeps
/// `branch_jobs <= 1` and `Linear` on the serial in-process path).
fn schedule_jobs(
    machine: &MachineConfig,
    lp: &ddg::Loop,
    opts: SchedulerOptions,
    branch_jobs: u32,
    pool_jobs: usize,
    scratch: &mut SchedScratch,
) -> Result<ScheduleResult, mirs::ScheduleError> {
    let opts = opts.with_search(opts.search.with_branch_jobs(branch_jobs));
    MirsScheduler::new(machine, opts).schedule_with_exec(lp, scratch, &BranchPool::new(pool_jobs))
}

/// Everything observable about the search outcome that must not depend on
/// the branch-job count.
fn outcome_fingerprint(r: &ScheduleResult) -> (u64, u32, u32, u32, u32, mirs::SearchMeta) {
    (
        r.schedule_hash(),
        r.ii,
        r.stats.restarts,
        spill_ops(r),
        r.stats.moves,
        r.search,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The relaxation admission filter only skips candidate IIs it *proves*
    /// infeasible, so `MIRS_PRUNE` on/off must produce byte-identical
    /// schedules for every strategy and machine. The
    /// attempt counters legitimately differ — a pruned II never runs, so
    /// it is excluded from `attempts` — but for the linear climb they
    /// reconcile exactly: `attempts(on) + pruned_iis(on) = attempts(off)`.
    #[test]
    fn prune_on_and_off_are_byte_identical(
        seed in 0u64..400,
        loops in 3usize..7,
    ) {
        let wb = Workbench::generate(&WorkbenchParams {
            loops,
            seed,
            ..WorkbenchParams::default()
        });
        let mut scratch = SchedScratch::new();
        // 1x16 is where the filter fires on ordinary loops, so the
        // potential screen falls back to the closure there.
        for (k, regs) in [(1u32, 64u32), (1, 16), (4, 16)] {
            let machine = MachineConfig::paper_config(k, regs).unwrap();
            for base in [
                SearchConfig::linear(),
                SearchConfig::backtracking(),
                SearchConfig::exact(),
            ] {
                for lp in wb.loops() {
                    let on = schedule(&machine, lp, base.with_prune(true), &mut scratch);
                    let off = schedule(&machine, lp, base.with_prune(false), &mut scratch);
                    prop_assert_eq!(off.search.pruned_iis, 0, "filter off must prune nothing");
                    prop_assert_eq!(
                        (on.schedule_hash(), on.ii, on.mii, spill_ops(&on), on.stats.moves,
                         on.search.candidates, on.search.proof),
                        (off.schedule_hash(), off.ii, off.mii, spill_ops(&off), off.stats.moves,
                         off.search.candidates, off.search.proof),
                        "{}/{}/{}: pruning changed the search outcome",
                        machine.name(), lp.name, base.strategy
                    );
                    if base.strategy == SearchStrategyKind::Linear {
                        prop_assert_eq!(
                            on.search.attempts + on.search.pruned_iis,
                            off.search.attempts,
                            "{}/{}: linear attempts must reconcile with the pruned count",
                            machine.name(), lp.name
                        );
                    }
                }
            }
        }
    }

    /// `MIRS_BRANCH_JOBS=1` and `=4` produce byte-identical schedules and
    /// identical `SearchMeta` on randomized workbenches, for every
    /// strategy. For `Backtracking` and `Exact` this crosses three
    /// executions of each group: on the transactional working graph
    /// (`branch_jobs = 1`), on graph clones merged one after another (a
    /// one-worker pool) and on graph clones fanned across a real thread
    /// pool.
    #[test]
    fn branch_jobs_one_and_four_are_byte_identical(
        seed in 0u64..400,
        loops in 3usize..7,
        clusters_pow in 1u32..3,
    ) {
        let wb = Workbench::generate(&WorkbenchParams {
            loops,
            seed,
            ..WorkbenchParams::default()
        });
        let k = 1u32 << clusters_pow;
        let machine = MachineConfig::paper_config(k, 64 / k).unwrap();
        let mut scratch = SchedScratch::new();
        for cfg in [
            SearchConfig::linear(),
            SearchConfig::backtracking(),
            SearchConfig::exact(),
        ] {
            let opts = SchedulerOptions::default().with_search(cfg);
            for lp in wb.loops() {
                let run = |branch_jobs, pool_jobs, scratch: &mut SchedScratch| {
                    schedule_jobs(&machine, lp, opts, branch_jobs, pool_jobs, scratch)
                        .expect("workbench loops converge")
                };
                let serial = run(1, 1, &mut scratch);
                let fanned = run(4, 4, &mut scratch);
                prop_assert_eq!(
                    outcome_fingerprint(&serial),
                    outcome_fingerprint(&fanned),
                    "{}/{}: branch_jobs=4 diverged from serial", cfg.strategy, lp.name
                );
                // The group merge on a one-worker pool: also identical.
                let inline = run(4, 1, &mut scratch);
                prop_assert_eq!(
                    outcome_fingerprint(&serial),
                    outcome_fingerprint(&inline),
                    "{}/{}: inline branch groups diverged from serial", cfg.strategy, lp.name
                );
            }
        }
    }
}

/// A branch pool opened while the *outer* workbench sweep already
/// saturates every core must neither deadlock nor change results: the
/// nested pools clamp themselves to the free cores (degrading to in-thread
/// runs) and the merge order is deterministic either way.
#[test]
fn nested_branch_pools_under_a_saturated_outer_sweep_match_serial() {
    use harness::runner::{run_workbench, SchedulerKind};
    use harness::sweep::SweepExecutor;
    use mirs::PrefetchPolicy;

    let wb = workbench(16);
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // More outer workers than cores: every branch pool is opened from a
    // worker of an already-oversubscribed sweep.
    let outer = SweepExecutor::new(cores * 2).with_chunk(1);
    let fanned = run_workbench(
        &outer,
        &wb,
        &machine,
        SchedulerKind::MirsC,
        PrefetchPolicy::HitLatency,
        SearchConfig::backtracking().with_branch_jobs(4),
    );
    let serial = run_workbench(
        &SweepExecutor::serial(),
        &wb,
        &machine,
        SchedulerKind::MirsC,
        PrefetchPolicy::HitLatency,
        SearchConfig::backtracking(),
    );
    assert_eq!(serial.outcomes.len(), fanned.outcomes.len());
    for (a, b) in serial.outcomes.iter().zip(&fanned.outcomes) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.ii, b.ii, "II of {}", a.name);
        let ha = a.result.as_ref().map(outcome_fingerprint);
        let hb = b.result.as_ref().map(outcome_fingerprint);
        assert_eq!(ha, hb, "fingerprint of {}", a.name);
    }
}

/// The whole verdict must agree across the serial and branch-parallel
/// paths, `NotConverged` included: on 4x16 an II cap of 0 lies below every
/// MII, and caps of 4 and 6 stop many climbs part-way, so the fanned path
/// must end at the same `last_ii` as the serial one (never a hang, never a
/// bogus schedule).
#[test]
fn branch_parallel_not_converged_matches_serial() {
    let wb = workbench(30);
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let mut scratch = SchedScratch::new();
    for cfg in [SearchConfig::backtracking(), SearchConfig::exact()] {
        for max_ii in [0u32, 4, 6] {
            let opts = SchedulerOptions {
                max_ii,
                ..SchedulerOptions::default()
            }
            .with_search(cfg);
            for lp in wb.loops() {
                let [serial, fanned] = [1u32, 4].map(|jobs| {
                    schedule_jobs(&machine, lp, opts, jobs, jobs as usize, &mut scratch)
                        .as_ref()
                        .map(outcome_fingerprint)
                        .map_err(Clone::clone)
                });
                assert_eq!(
                    serial, fanned,
                    "{}/{}/max_ii {max_ii}: branch_jobs=4 diverged from serial",
                    cfg.strategy, lp.name
                );
                if max_ii == 0 {
                    assert!(
                        matches!(serial, Err(mirs::ScheduleError::NotConverged { .. })),
                        "{}: max_ii 0 cannot converge",
                        lp.name
                    );
                }
            }
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

/// The admission filter earns its keep on the pinned register-tight hard
/// cases: the linear climb there grinds through several relaxation-provably
/// infeasible IIs, so the filter must (a) leave every schedule
/// byte-identical, (b) prune exactly the pinned number of IIs per case,
/// and (c) stay sound — the pruned set is the contiguous prefix
/// `[mii, mii+pruned)` of the climb, and every member must sit strictly
/// below the exact oracle's certified lower bound (all hard cases are
/// within the ≤12-op certifiable slice).
#[test]
fn admission_filter_prunes_hard_cases_soundly() {
    let mut scratch = SchedScratch::new();
    let pinned = [
        ("hard/div-tight", 0),
        ("hard/div-deep", 1),
        ("hard/rec-tight", 2),
        ("hard/rec-deep", 1),
        ("hard/clustered-rec", 0),
    ];
    let cases = loopgen::hard_cases();
    assert_eq!(cases.len(), pinned.len());
    for (lp, (name, pruned)) in cases.iter().zip(pinned) {
        assert_eq!(lp.name, name);
        let machine = if lp.name.contains("clustered") {
            MachineConfig::paper_config(2, 8).unwrap()
        } else {
            MachineConfig::paper_config(1, 8).unwrap()
        };
        let on = schedule(&machine, lp, SearchConfig::linear(), &mut scratch);
        let off = schedule(
            &machine,
            lp,
            SearchConfig::linear().with_prune(false),
            &mut scratch,
        );
        assert_eq!(
            on.schedule_hash(),
            off.schedule_hash(),
            "{}: pruning changed the schedule",
            lp.name
        );
        assert_eq!(off.search.pruned_iis, 0);
        assert_eq!(
            on.search.attempts + on.search.pruned_iis,
            off.search.attempts,
            "{}: pruned IIs must account exactly for the skipped attempts",
            lp.name
        );
        assert_eq!(on.search.pruned_iis, pruned, "{}: pruned IIs", lp.name);
        // Soundness: the pruned prefix is [mii, mii + pruned), so its
        // largest member is mii + pruned - 1; the certified bound must sit
        // at or above mii + pruned (every pruned II is proven infeasible,
        // and the oracle proves at least as much as the relaxation).
        let ex = schedule(&machine, lp, SearchConfig::exact(), &mut scratch);
        let lb = ex.certified_lower_bound().expect("exact always certifies");
        assert!(
            on.mii + on.search.pruned_iis <= lb,
            "{}: pruned II {} is not below the certified bound {}",
            lp.name,
            on.mii + on.search.pruned_iis - 1,
            lb
        );
    }
}

/// The spill memo is an accelerator, never a behaviour change; its counters
/// surface through the result stats so hit rates are observable.
#[test]
fn spill_memo_counters_are_exposed_and_active_under_pressure() {
    let wb = workbench(20);
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let mut scratch = SchedScratch::new();
    let mut total_hits = 0u64;
    for lp in wb.loops() {
        let r = schedule(&machine, lp, SearchConfig::linear(), &mut scratch);
        total_hits += r.stats.spill_memo_hits;
    }
    assert!(
        total_hits > 0,
        "the 4x16 workbench spills; some candidate evaluations must hit the memo"
    );
}
