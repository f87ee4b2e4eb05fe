//! Relaxation admission filter on the pinned `loopgen::hard` cases:
//! cold linear climbs on the register-tight 1x8/2x8 machines where the
//! search grinds through many infeasible IIs, with the filter on and off.
//!
//! This is the series behind the pruning tentpole's wall-clock claim: the
//! `<case>_prune_on` rows must stay well below their `_prune_off` twins
//! (the filter skips the infeasible prefix of the climb without changing
//! the schedule — byte-identity is pinned by `tests/search_strategies.rs`).
//!
//! The `roomy60_prune_on`/`_prune_off` pair tracks the opposite case: a
//! 60-loop paper-scale workbench slice on 1x64, where almost every loop
//! lands at its MII and the filter cannot fire. The filter is built only
//! after a failed first attempt, for 3 of the 60 loops, so the gap
//! between the two rows is what those builds cost.
//!
//! The per-row means land in `target/criterion/ii_pruning/summary.json`
//! and fold into the `bench_trend` longitudinal series.

use criterion::{criterion_group, criterion_main, Criterion};
use loopgen::hard::HARD_CASES;
use loopgen::{hard_cases, Workbench, WorkbenchParams};
use mirs::{MirsScheduler, SchedulerOptions, SearchConfig};
use vliw::MachineConfig;

fn bench(c: &mut Criterion) {
    let loops = hard_cases();
    let mut g = c.benchmark_group("ii_pruning");
    g.sample_size(10);
    for (case, lp) in HARD_CASES.iter().zip(&loops) {
        // The gaps that make these cases hard only appear on the
        // register-tight files; `clustered-rec` was pinned on 2x8.
        let machine = if case.name.starts_with("clustered") {
            MachineConfig::paper_config(2, 8).unwrap()
        } else {
            MachineConfig::paper_config(1, 8).unwrap()
        };
        for (suffix, prune) in [("prune_on", true), ("prune_off", false)] {
            let opts =
                SchedulerOptions::default().with_search(SearchConfig::linear().with_prune(prune));
            g.bench_function(&format!("{}_{suffix}", case.name), |b| {
                b.iter(|| {
                    let r = MirsScheduler::new(&machine, opts)
                        .schedule(lp)
                        .expect("hard cases converge");
                    std::hint::black_box((r.ii, r.search.pruned_iis))
                })
            });
        }
    }
    let slice = Workbench::generate(&WorkbenchParams {
        loops: 60,
        ..WorkbenchParams::paper_scale()
    });
    let roomy = MachineConfig::paper_config(1, 64).unwrap();
    for (suffix, prune) in [("prune_on", true), ("prune_off", false)] {
        let opts =
            SchedulerOptions::default().with_search(SearchConfig::linear().with_prune(prune));
        g.bench_function(&format!("roomy60_{suffix}"), |b| {
            b.iter(|| {
                let sched = MirsScheduler::new(&roomy, opts);
                let ii_sum: u32 = slice
                    .loops()
                    .iter()
                    .filter_map(|lp| sched.schedule(lp).ok())
                    .map(|r| r.ii)
                    .sum();
                std::hint::black_box(ii_sum)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
