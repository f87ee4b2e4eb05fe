//! Pins the one-time loop analysis on the populations perfbench schedules.
//!
//! For every loop, the digest folds its recurrences (`RecMII`, then the
//! nodes in the order the analysis lists them), its whole-graph `RecMII`
//! and `ResMII`, and its HRMS priority order. Schedules follow from the
//! order, so an analysis that reorders even one tie moves these digests
//! before it moves any schedule pin.

use ddg::analysis::LoopAnalysis;
use ddg::{hrms, mii, recurrence, DepGraph, Loop};
use loopgen::{Workbench, WorkbenchParams};
use mirs::{MirsScheduler, SchedulerOptions};
use vliw::{LatencyModel, MachineConfig};

/// Fold one word into a running digest.
fn fold(combined: u64, word: u64) -> u64 {
    combined
        .rotate_left(7)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .wrapping_add(word)
}

/// Digest, loop count and recurrence count of the analysis of `loops`.
fn digest(loops: &[Loop]) -> (u64, usize, usize) {
    let lat = LatencyModel::default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut recurrences = 0;
    for lp in loops {
        let g = &lp.graph;
        let recs = recurrence::recurrences(g, &lat);
        recurrences += recs.len();
        for r in &recs {
            h = fold(h, 0x5ec0_0000 | u64::from(r.rec_mii));
            for n in &r.nodes {
                h = fold(h, u64::from(n.0));
            }
        }
        let bounds = mii::mii_with_recurrences(g, &recs, 8, 4);
        h = fold(
            h,
            u64::from(bounds.res_mii) << 32 | u64::from(bounds.rec_mii),
        );
        h = fold(h, u64::from(mii::rec_mii(g, &lat)));
        for n in hrms::hrms_order_with(g, &lat, &recs) {
            h = fold(h, u64::from(n.0));
        }
    }
    (h, loops.len(), recurrences)
}

fn workbench(base: WorkbenchParams, loops: usize, seed: u64) -> Vec<Loop> {
    Workbench::generate(&WorkbenchParams {
        loops,
        seed,
        ..base
    })
    .loops()
    .to_vec()
}

#[test]
fn analysis_of_the_paper_scale_workbench_is_pinned() {
    for (seed, golden) in [(0x5eed_cafe, PAPER_5EEDCAFE), (31_415_926, PAPER_31415926)] {
        let loops = workbench(WorkbenchParams::paper_scale(), 1258, seed);
        let got = digest(&loops);
        assert_eq!(got, golden, "generator seed {seed}: got {got:#x?}");
    }
}

#[test]
fn analysis_of_the_unsaturated_workbench_is_pinned() {
    let loops = workbench(WorkbenchParams::unsaturated(), 500, 0x5eed_cafe);
    let got = digest(&loops);
    assert_eq!(got, UNSATURATED, "got {got:#x?}");
}

#[test]
fn analysis_of_the_hard_cases_is_pinned() {
    let got = digest(&loopgen::hard_cases());
    assert_eq!(got, HARD, "got {got:#x?}");
}

/// One workspace reused over loops whose node capacity grows and shrinks,
/// and over scheduled graphs with removed nodes, gives the recurrences,
/// `RecMII` and order a fresh workspace gives.
#[test]
fn a_reused_workspace_matches_a_fresh_one() {
    let lat = LatencyModel::default();
    let mut loops = workbench(WorkbenchParams::paper_scale(), 120, 0x5eed_cafe);
    loops.sort_by_key(|lp| lp.graph.node_capacity());
    let shrinking: Vec<Loop> = loops.iter().rev().cloned().collect();
    loops.extend(shrinking);
    loops.extend(loopgen::hard_cases());
    let mut graphs: Vec<DepGraph> = loops.into_iter().map(|lp| lp.graph).collect();
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let sched = MirsScheduler::new(&machine, SchedulerOptions::default());
    let scheduled: Vec<DepGraph> = workbench(WorkbenchParams::default(), 20, 0x5eed_cafe)
        .iter()
        .filter_map(|lp| sched.schedule(lp).ok().map(|r| r.graph))
        .collect();
    assert!(
        scheduled.iter().any(|g| g.node_capacity() > g.node_count()),
        "some scheduled graph has removed nodes"
    );
    graphs.extend(scheduled);

    let mut reused = LoopAnalysis::new();
    let mut order = Vec::new();
    for g in &graphs {
        reused.analyse(g, &lat);
        reused.order(&mut order);
        let mut fresh = LoopAnalysis::new();
        fresh.analyse(g, &lat);
        assert_eq!(reused.recurrences(), fresh.recurrences());
        assert_eq!(reused.rec_mii(), fresh.rec_mii());
        assert_eq!(order, hrms::hrms_order(g, &lat));
    }
}

/// Recorded from the analysis that ran Tarjan, the `RecMII` searches, the
/// heights fixpoint and the HRMS ordering as separate passes over the
/// graph, each ordered set iterated from a `HashSet`.
const PAPER_5EEDCAFE: (u64, usize, usize) = (0xcf5d_8047_4730_584b, 1258, 346);
const PAPER_31415926: (u64, usize, usize) = (0x2ddc_cd2a_0de9_7450, 1258, 343);
const UNSATURATED: (u64, usize, usize) = (0xbaf3_dcd7_378e_a971, 500, 131);
const HARD: (u64, usize, usize) = (0xfa10_8521_1aca_5d07, 5, 1);
