//! End-to-end scheduler-throughput probe: times full MIRS-C passes over a
//! loopgen workbench on the paper's register-constrained configurations,
//! serial and parallel, for one or several II-search strategies.
//!
//! This is the workload behind the flat-MRT, parallel-sweep and search-layer
//! speedup claims; run it in release mode before and after touching the
//! scheduler's hot loop, the sweep engine or the search strategies:
//!
//! ```text
//! cargo run --release --example sched_time
//! cargo run --release --example sched_time -- --jobs 4
//! cargo run --release --example sched_time -- --strategy linear,backtrack,exact
//! MIRS_SCHEDTIME_LOOPS=100 MIRS_SCHEDTIME_REPEATS=5 \
//!     cargo run --release --example sched_time -- --jobs 1
//! ```
//!
//! `--jobs N` (or `MIRS_JOBS=N`) sets the worker count; `--jobs 1` is a
//! genuinely serial run — the baseline of every speedup number printed in
//! the last two columns. `--strategy a,b,…` selects the II-search
//! strategies to compare (same names as `MIRS_STRATEGY`: `linear`,
//! `backtrack`, `exact`; default: `MIRS_STRATEGY`'s strategy) and prints
//! one row per (config, strategy) with the per-strategy ΣII and spill-op
//! columns next to the timings. Schedules are byte-identical for any
//! worker count.
//!
//! When the persistent schedule cache is enabled (`MIRS_CACHE_DIR`), the
//! metrics pass routes through it and a `cache` column reports the pass's
//! hits/misses/refines; the timed passes always schedule fresh — they
//! measure the scheduler, not the disk.

use harness::runner::{run_workbench, time_workbench, SchedTimeTrial, SchedulerKind};
use harness::service::run_workbench_cached;
use loopgen::{Workbench, WorkbenchParams};
use mirs::{PrefetchPolicy, SearchConfig};
use mirs_repro::cli;
use vliw::MachineConfig;

fn main() {
    let loops = cli::env_usize("MIRS_SCHEDTIME_LOOPS", 60);
    let repeats = cli::env_usize("MIRS_SCHEDTIME_REPEATS", 3) as u32;
    let exec = cli::executor();
    // The strategy list comes from `--strategy`, else from `MIRS_STRATEGY`.
    let env = cli::env_search();
    let strategies = cli::strategies_flag().unwrap_or_else(|| vec![env.strategy]);
    let cache = cli::env_cache();
    let wb = Workbench::generate(&WorkbenchParams {
        loops,
        ..WorkbenchParams::default()
    });
    println!(
        "scheduling {loops} loops x {repeats} passes per configuration on {} worker(s){}\n",
        exec.jobs(),
        cache
            .dir()
            .map_or(String::new(), |d| format!(", cache at {}", d.display()))
    );
    println!(
        "{:<18} {:>9} {:>6} {:>9} {:>12} {:>12} {:>12} {:>14} {:>8} {:>12}",
        "config",
        "strategy",
        "ΣII",
        "spill-ops",
        "sched (s)",
        "mean (s)",
        "wall (s)",
        "loops/s (wall)",
        "speedup",
        "cache h/m/r"
    );
    for (k, regs) in [(1u32, 64u32), (2, 32), (4, 16)] {
        let machine = MachineConfig::paper_config(k, regs).expect("paper config");
        for &strategy in &strategies {
            let search = SearchConfig { strategy, ..env };
            // The metrics pass doubles as one of the timed passes when the
            // cache is off: its wall clock and aggregate scheduling seconds
            // fold into the trial below, so the SII/spill columns cost no
            // extra workbench scheduling. With the cache on, the metrics
            // pass routes through it (populating / replaying entries) and
            // the timed passes all schedule fresh — the timings measure the
            // scheduler, never disk replay.
            let before = cache.stats();
            let started = std::time::Instant::now();
            let summary = if cache.is_enabled() {
                run_workbench_cached(
                    &exec,
                    &cache,
                    &wb,
                    &machine,
                    SchedulerKind::MirsC,
                    PrefetchPolicy::HitLatency,
                    search,
                )
                .0
            } else {
                run_workbench(
                    &exec,
                    &wb,
                    &machine,
                    SchedulerKind::MirsC,
                    PrefetchPolicy::HitLatency,
                    search,
                )
            };
            let metrics_wall = started.elapsed().as_secs_f64();
            let after = cache.stats();
            let spill_ops: u64 = summary
                .outcomes
                .iter()
                .map(|o| u64::from(o.spill_ops()))
                .sum();
            let fold_metrics_pass = !cache.is_enabled();
            let timed_repeats = if fold_metrics_pass {
                repeats.saturating_sub(1)
            } else {
                repeats
            };
            let mut trial = if timed_repeats > 0 {
                time_workbench(
                    &exec,
                    &wb,
                    &machine,
                    SchedulerKind::MirsC,
                    PrefetchPolicy::HitLatency,
                    timed_repeats,
                    search,
                )
            } else {
                SchedTimeTrial {
                    config: machine.name(),
                    scheduler: SchedulerKind::MirsC,
                    loops: wb.loops().len(),
                    jobs: exec.jobs(),
                    pass_seconds: Vec::new(),
                    wall_seconds: Vec::new(),
                }
            };
            if fold_metrics_pass {
                trial.pass_seconds.push(summary.total_scheduling_seconds());
                trial.wall_seconds.push(metrics_wall);
            }
            let cache_cell = if cache.is_enabled() {
                format!(
                    "{}/{}/{}",
                    after.hits - before.hits,
                    after.misses - before.misses,
                    after.refines - before.refines
                )
            } else {
                "-".to_string()
            };
            println!(
                "{:<18} {:>9} {:>6} {:>9} {:>12.4} {:>12.4} {:>12.4} {:>14.1} {:>7.2}x {:>12}",
                trial.config,
                strategy.label(),
                summary.sum_ii(|_| true),
                spill_ops,
                trial.best_seconds(),
                trial.mean_seconds(),
                trial.best_wall_seconds(),
                trial.loops as f64 / trial.best_wall_seconds(),
                trial.speedup(),
                cache_cell
            );
        }
    }
}
