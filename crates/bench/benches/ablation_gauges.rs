//! Ablation: sensitivity of MIRS-C to the spill gauge (SG), minimum span
//! gauge (MSG) and distance gauge (DG) — the knobs DESIGN.md calls out.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::{run_workbench, SchedulerKind};
use loopgen::{Workbench, WorkbenchParams};
use mirs::{MirsScheduler, PrefetchPolicy, SchedulerOptions};
use mirs_repro::cli;
use vliw::MachineConfig;

fn bench(c: &mut Criterion) {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 8,
        ..Default::default()
    });
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    println!("\nAblation: gauges on 4-(GP2M1-REG16)");
    println!(
        "{:>4} {:>4} {:>4} {:>10} {:>10}",
        "SG", "MSG", "DG", "sum II", "sum trf"
    );
    for (sg, msg, dg) in [
        (1.0, 4, 4),
        (2.0, 4, 4),
        (4.0, 4, 4),
        (2.0, 1, 4),
        (2.0, 8, 4),
        (2.0, 4, 1),
        (2.0, 4, 8),
    ] {
        let opts = SchedulerOptions::default()
            .with_spill_gauge(sg)
            .with_min_span_gauge(msg)
            .with_distance_gauge(dg);
        let mut sum_ii = 0u64;
        let mut sum_trf = 0u64;
        for lp in wb.loops() {
            if let Ok(r) = MirsScheduler::new(&machine, opts).schedule(lp) {
                sum_ii += u64::from(r.ii);
                sum_trf += u64::from(r.memory_traffic);
            }
        }
        println!("{sg:>4} {msg:>4} {dg:>4} {sum_ii:>10} {sum_trf:>10}");
    }
    let small = Workbench::generate(&WorkbenchParams {
        loops: 2,
        ..Default::default()
    });
    let (exec, search) = (cli::env_executor(), cli::env_search());
    let mut g = c.benchmark_group("ablation_gauges");
    g.sample_size(10);
    g.bench_function("default_gauges", |b| {
        b.iter(|| {
            std::hint::black_box(run_workbench(
                &exec,
                &small,
                &machine,
                SchedulerKind::MirsC,
                PrefetchPolicy::HitLatency,
                search,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
