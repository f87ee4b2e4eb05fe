//! Per-loop golden manifest: one row per loop × machine × strategy.
//!
//! `tests/golden/schedules.tsv` pins, per row, the II, spill operations,
//! moves and `schedule_hash` of the accepted schedule and the climb's work
//! counters: picks (`SchedulerStats::attempts`), ejections, forced
//! placements, removed moves and restarts. Two sets of problems are pinned:
//!
//! * `workbench`: every loop of the 60-loop workbench on 1x64, 2x32, 4x16
//!   and 1x16 under `linear` and `backtrack`;
//! * `tight`: the register-starved population `GOLDEN_SPILL` folds — the
//!   first 40 unsaturated workbench loops on 1x16 and 2x16 and the hard
//!   cases on 1x8 and 2x8, under `linear` at an II cap of 64.
//!
//! Unlike the folded `GOLDEN_*` digests of `schedule_hash.rs`, a mismatch
//! names every row that moved, so a moved spill choice or work counter
//! names its loop. The test then writes the fresh table to
//! `target/tmp/golden/schedules.tsv`, so a deliberate re-pin is a copy of
//! that file and a reviewed diff.

use ddg::Loop;
use loopgen::{Workbench, WorkbenchParams};
use mirs::{MirsScheduler, SchedScratch, ScheduleError, SchedulerOptions, SearchConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use vliw::MachineConfig;

const HEADER: &str = "set\tloop\tconfig\tstrategy\tii\tspill_ops\tmoves\tschedule_hash\t\
                      picks\tejections\tforced\tmoves_removed\trestarts";

/// Key columns of a row: set, loop, config and strategy.
const KEY_COLUMNS: usize = 4;

/// The manifest the scheduler produces today, in row order.
fn fresh_manifest() -> String {
    let mut scratch = SchedScratch::new();
    let mut out = String::from(HEADER);
    out.push('\n');
    // One row per loop of `loops` on the `k`-cluster machine with `regs`
    // registers per cluster.
    let mut push = |set: &str, strategy: &str, (k, regs): (u32, u32), opts, loops: &[Loop]| {
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        let sched = MirsScheduler::new(&machine, opts);
        for lp in loops {
            let row = match sched.schedule_with(lp, &mut scratch) {
                Ok(r) => {
                    r.validate(&machine).expect("schedule validates");
                    let s = &r.stats;
                    format!(
                        "{}\t{}\t{}\t{:#018x}\t{}\t{}\t{}\t{}\t{}",
                        r.ii,
                        s.spill_stores + s.spill_loads,
                        r.moves,
                        r.schedule_hash(),
                        s.attempts,
                        s.ejections,
                        s.forced,
                        s.moves_removed,
                        s.restarts
                    )
                }
                Err(ScheduleError::NotConverged { last_ii, .. }) => {
                    format!("nc@{last_ii}\t-\t-\t-\t-\t-\t-\t-\t-")
                }
                Err(e) => panic!("{} on {}: {e}", lp.name, machine.name()),
            };
            writeln!(out, "{set}\t{}\t{k}x{regs}\t{strategy}\t{row}", lp.name).unwrap();
        }
    };

    let wb = Workbench::generate(&WorkbenchParams {
        loops: 60,
        ..WorkbenchParams::default()
    });
    for config in [(1, 64), (2, 32), (4, 16), (1, 16)] {
        for (strategy, search) in [
            ("linear", SearchConfig::linear()),
            ("backtrack", SearchConfig::backtracking()),
        ] {
            let opts = SchedulerOptions::default().with_search(search);
            push("workbench", strategy, config, opts, wb.loops());
        }
    }

    let unsaturated = Workbench::generate(&WorkbenchParams {
        loops: 40,
        ..WorkbenchParams::unsaturated()
    });
    let hard = loopgen::hard_cases();
    let opts = SchedulerOptions {
        max_ii: 64,
        ..SchedulerOptions::default()
    }
    .with_search(SearchConfig::linear());
    for (loops, config) in [
        (unsaturated.loops(), (1, 16)),
        (unsaturated.loops(), (2, 16)),
        (&hard[..], (1, 8)),
        (&hard[..], (2, 8)),
    ] {
        push("tight", "linear", config, opts, loops);
    }
    out
}

/// Rows keyed by (set, loop, config, strategy), valued by the pinned
/// columns.
fn rows(table: &str) -> BTreeMap<Vec<String>, String> {
    table
        .lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut f: Vec<String> = l.splitn(KEY_COLUMNS + 1, '\t').map(String::from).collect();
            assert_eq!(f.len(), KEY_COLUMNS + 1, "malformed manifest row {l:?}");
            let value = f.pop().unwrap();
            (f, value)
        })
        .collect()
}

#[test]
fn every_loop_schedule_matches_the_manifest() {
    let pinned_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedules.tsv");
    let pinned = std::fs::read_to_string(&pinned_path).unwrap_or_default();
    let fresh = fresh_manifest();
    let problems = 60 * 4 * 2 + 40 * 2 + 5 * 2;
    assert_eq!(fresh.lines().count(), 1 + problems, "one row per problem");
    assert_eq!(rows(&fresh).len(), problems, "row keys are unique");
    if fresh == pinned {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden/schedules.tsv");
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    std::fs::write(&out, &fresh).unwrap();
    let (old, new) = (rows(&pinned), rows(&fresh));
    let mut moved = String::new();
    for (key, now) in &new {
        match old.get(key) {
            Some(was) if was == now => {}
            Some(was) => writeln!(moved, "  {key:?}: {was} -> {now}").unwrap(),
            None => writeln!(moved, "  {key:?}: new row {now}").unwrap(),
        }
    }
    for key in old.keys().filter(|k| !new.contains_key(*k)) {
        writeln!(moved, "  {key:?}: row gone").unwrap();
    }
    panic!(
        "schedules moved against {}:\n{moved}fresh table written to {}",
        pinned_path.display(),
        out.display()
    );
}
