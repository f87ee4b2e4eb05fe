//! Regenerates Figure 7: real memory hierarchy and binding prefetching.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::fig7;
use loopgen::{Workbench, WorkbenchParams};
use mirs_repro::cli;
use vliw::HwModel;

fn bench(c: &mut Criterion) {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 10,
        ..Default::default()
    });
    let (exec, search) = (cli::env_executor(), cli::env_search());
    let fig = fig7::run(&exec, &wb, &HwModel::default(), search);
    println!("\n{fig}");
    let small = Workbench::generate(&WorkbenchParams {
        loops: 2,
        ..Default::default()
    });
    let mut g = c.benchmark_group("fig7_real_memory");
    g.sample_size(10);
    g.bench_function("workbench2", |b| {
        b.iter(|| std::hint::black_box(fig7::run(&exec, &small, &HwModel::default(), search)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
