//! Per-loop golden manifest: one row per loop × machine × strategy.
//!
//! `tests/golden/schedules.tsv` pins the II, spill operations, moves and
//! `schedule_hash` of every loop of the 60-loop workbench on 1x64, 2x32,
//! 4x16 and 1x16 under `linear` and `backtrack`. Unlike the folded
//! `GOLDEN_*` digests of `schedule_hash.rs`, a mismatch names every row
//! that moved. The test then writes the fresh table to
//! `target/tmp/golden/schedules.tsv`, so a deliberate re-pin is a copy of
//! that file and a reviewed diff.

use loopgen::{Workbench, WorkbenchParams};
use mirs::{MirsScheduler, SchedScratch, ScheduleError, SchedulerOptions, SearchConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use vliw::MachineConfig;

const HEADER: &str = "loop\tconfig\tstrategy\tii\tspill_ops\tmoves\tschedule_hash";

/// The manifest the scheduler produces today, in row order.
fn fresh_manifest() -> String {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 60,
        ..WorkbenchParams::default()
    });
    let mut scratch = SchedScratch::new();
    let mut out = String::from(HEADER);
    out.push('\n');
    for (k, regs) in [(1u32, 64u32), (2, 32), (4, 16), (1, 16)] {
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        for (strategy, search) in [
            ("linear", SearchConfig::linear()),
            ("backtrack", SearchConfig::backtracking()),
        ] {
            let sched =
                MirsScheduler::new(&machine, SchedulerOptions::default().with_search(search));
            for lp in wb.loops() {
                let row = match sched.schedule_with(lp, &mut scratch) {
                    Ok(r) => {
                        r.validate(&machine).expect("schedule validates");
                        format!(
                            "{}\t{}\t{}\t{:#018x}",
                            r.ii,
                            r.stats.spill_stores + r.stats.spill_loads,
                            r.moves,
                            r.schedule_hash()
                        )
                    }
                    Err(ScheduleError::NotConverged { last_ii, .. }) => {
                        format!("nc@{last_ii}\t-\t-\t-")
                    }
                    Err(e) => panic!("{} on {}: {e}", lp.name, machine.name()),
                };
                writeln!(out, "{}\t{k}x{regs}\t{strategy}\t{row}", lp.name).unwrap();
            }
        }
    }
    out
}

/// Rows keyed by (loop, config, strategy), valued by the pinned columns.
fn rows(table: &str) -> BTreeMap<(String, String, String), String> {
    table
        .lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.splitn(4, '\t').collect();
            assert_eq!(f.len(), 4, "malformed manifest row {l:?}");
            (
                (f[0].to_string(), f[1].to_string(), f[2].to_string()),
                f[3].to_string(),
            )
        })
        .collect()
}

#[test]
fn every_loop_schedule_matches_the_manifest() {
    let pinned_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedules.tsv");
    let pinned = std::fs::read_to_string(&pinned_path).unwrap_or_default();
    let fresh = fresh_manifest();
    assert_eq!(fresh.lines().count(), 1 + 60 * 4 * 2, "one row per problem");
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
