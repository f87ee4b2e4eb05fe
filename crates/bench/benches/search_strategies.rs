//! II-search strategy comparison on the restart-heavy 4x16 workbench
//! slice: full serial MIRS-C passes under `linear` and `backtrack`.
//!
//! The per-strategy wall-clock means land in
//! `target/criterion/search_strategies/summary.json`, which the
//! `bench_trend` aggregator folds into `BENCH_trend.json` — so the cost of
//! the branching strategies (and any creep in the linear fast path) is a
//! longitudinal series next to the sched-time numbers. `MIRS_BENCH_LOOPS`
//! scales the slice for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::runner::{run_workbench, SchedulerKind};
use harness::sweep::SweepExecutor;
use loopgen::{Workbench, WorkbenchParams};
use mirs::{PrefetchPolicy, SearchConfig, SearchStrategyKind};
use mirs_repro::cli;
use vliw::MachineConfig;

fn bench(c: &mut Criterion) {
    let loops = cli::env_usize("MIRS_BENCH_LOOPS", 16);
    let wb = Workbench::generate(&WorkbenchParams {
        loops,
        ..WorkbenchParams::default()
    });
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let exec = SweepExecutor::serial();
    let mut g = c.benchmark_group("search_strategies");
    g.sample_size(10);
    for strategy in [SearchStrategyKind::Linear, SearchStrategyKind::Backtracking] {
        let search = SearchConfig::for_strategy(strategy);
        g.bench_function(&format!("{}_4x16", strategy.label()), |b| {
            b.iter(|| {
                let summary = run_workbench(
                    &exec,
                    &wb,
                    &machine,
                    SchedulerKind::MirsC,
                    PrefetchPolicy::HitLatency,
                    search,
                );
                std::hint::black_box(summary.sum_ii(|_| true))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
