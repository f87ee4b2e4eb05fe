//! Regenerates Figure 6: scalability with cluster count and buses.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::fig6;
use loopgen::{Workbench, WorkbenchParams};
use mirs_repro::cli;

fn bench(c: &mut Criterion) {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 10,
        ..Default::default()
    });
    let (exec, search) = (cli::env_executor(), cli::env_search());
    let fig = fig6::run(&exec, &wb, 8, search);
    println!("\n{fig}");
    let small = Workbench::generate(&WorkbenchParams {
        loops: 2,
        ..Default::default()
    });
    let mut g = c.benchmark_group("fig6_scalability");
    g.sample_size(10);
    g.bench_function("workbench2_k4", |b| {
        b.iter(|| std::hint::black_box(fig6::run(&exec, &small, 4, search)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
