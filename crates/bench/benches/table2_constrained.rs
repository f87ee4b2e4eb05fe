//! Regenerates Table 2: [31] vs MIRS-C with k x z = 64 registers.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::table2;
use loopgen::{Workbench, WorkbenchParams};
use mirs_repro::cli;

fn bench(c: &mut Criterion) {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 12,
        ..Default::default()
    });
    let (exec, search) = (cli::env_executor(), cli::env_search());
    let table = table2::run(&exec, &wb, search);
    println!("\n{table}");
    let small = Workbench::generate(&WorkbenchParams {
        loops: 3,
        ..Default::default()
    });
    let mut g = c.benchmark_group("table2_constrained");
    g.sample_size(10);
    g.bench_function("workbench3", |b| {
        b.iter(|| std::hint::black_box(table2::run(&exec, &small, search)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
