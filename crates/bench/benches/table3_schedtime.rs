//! Regenerates Table 3: scheduling time of [31] vs MIRS-C.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::table3;
use loopgen::{Workbench, WorkbenchParams};
use mirs_repro::cli;

fn bench(c: &mut Criterion) {
    // MIRS_TABLE3_LOOPS scales the printed table's workbench so CI smoke
    // runs stay quick while local runs keep the full default.
    let loops = cli::env_usize("MIRS_TABLE3_LOOPS", 12);
    let (exec, search) = (cli::env_executor(), cli::env_search());
    let wb = Workbench::generate(&WorkbenchParams {
        loops,
        ..Default::default()
    });
    let table = table3::run(&exec, &wb, search);
    println!("\n{table}");
    let small = Workbench::generate(&WorkbenchParams {
        loops: 2,
        ..Default::default()
    });
    let mut g = c.benchmark_group("table3_schedtime");
    g.sample_size(10);
    g.bench_function("workbench2", |b| {
        b.iter(|| std::hint::black_box(table3::run(&exec, &small, search)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
