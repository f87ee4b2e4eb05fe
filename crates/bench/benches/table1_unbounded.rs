//! Regenerates Table 1: [31] vs MIRS-C with unbounded registers.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::table1;
use loopgen::{Workbench, WorkbenchParams};
use mirs_repro::cli;

fn bench(c: &mut Criterion) {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 12,
        ..Default::default()
    });
    let (exec, search) = (cli::env_executor(), cli::env_search());
    let table = table1::run(&exec, &wb, search);
    println!("\n{table}");
    let small = Workbench::generate(&WorkbenchParams {
        loops: 3,
        ..Default::default()
    });
    let mut g = c.benchmark_group("table1_unbounded");
    g.sample_size(10);
    g.bench_function("workbench3", |b| {
        b.iter(|| std::hint::black_box(table1::run(&exec, &small, search)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
