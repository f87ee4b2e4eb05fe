//! Microbenchmarks of the flat modulo reservation table and the end-to-end
//! scheduler throughput it buys.
//!
//! The `probe/*` routines time the MRT's innermost operations (the
//! free-slot probe, place/eject churn, conflict reporting, occupancy reads)
//! in isolation; `schedtime/*` times full MIRS-C passes over a loopgen
//! workbench through the harness's timed-runner mode — the number behind
//! the paper's Table 3 scheduling-time comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::runner::{time_workbench, SchedulerKind};
use loopgen::{Workbench, WorkbenchParams};
use mirs::{PartialSchedule, PrefetchPolicy};
use mirs_repro::cli;
use vliw::{ClusterId, MachineConfig, Opcode, ResourceKind};

fn mrt_probes(c: &mut Criterion) {
    let machine = MachineConfig::paper_config(2, 32).unwrap();

    let mut g = c.benchmark_group("mrt_microbench");
    g.sample_size(10);

    // A realistic mixed occupancy at II = 8. Every table the probes use is
    // folded once up front, as the scheduler does once per attempt; the
    // 17-use divide wraps the MRT twice.
    let mut s = PartialSchedule::new(&machine, 8);
    let add = s.op_table(&machine, Opcode::FpAdd, ClusterId(0));
    let load = s.op_table(&machine, Opcode::Load, ClusterId(0));
    let div = s.op_table(&machine, Opcode::FpDiv, ClusterId(0));
    let mul = s.op_table(&machine, Opcode::FpMul, ClusterId(0));
    let mv = s.move_table(&machine, ClusterId(0), ClusterId(1));
    for i in 0..12u32 {
        let cluster = ClusterId((i % 2) as u16);
        let t = s.op_table(&machine, Opcode::FpAdd, cluster);
        s.place(ddg::NodeId(i), i64::from(i), cluster, t);
    }

    g.bench_function("probe/can_place", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for cycle in 0..64i64 {
                hits += u32::from(s.can_place(add, cycle));
                hits += u32::from(s.can_place(load, cycle));
                hits += u32::from(s.can_place(div, cycle));
                hits += u32::from(s.can_place(mv, cycle));
            }
            hits
        })
    });

    g.bench_function("probe/conflicts", |b| {
        // One reused buffer, as the scheduler's forcing loop keeps.
        let mut out = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for cycle in 0..64i64 {
                s.conflicts(add, cycle, &mut out);
                total += out.len();
            }
            total
        })
    });

    g.bench_function("probe/occupancy", |b| {
        b.iter(|| {
            let mut total = 0u32;
            for _ in 0..256 {
                total += s.occupancy(ResourceKind::GpUnit {
                    cluster: ClusterId(0),
                });
                total += s.occupancy(ResourceKind::Bus);
            }
            total
        })
    });

    g.bench_function("probe/place_eject_churn", |b| {
        b.iter(|| {
            let mut s = s.clone();
            for round in 0..32u32 {
                let n = ddg::NodeId(100 + round);
                s.place(n, i64::from(round), ClusterId(0), mul);
                let _ = s.eject(n);
            }
            s.len()
        })
    });
    g.finish();
}

fn schedtime(c: &mut Criterion) {
    let loops = cli::env_usize("MIRS_BENCH_LOOPS", 12);
    let (exec, search) = (cli::env_executor(), cli::env_search());
    let wb = Workbench::generate(&WorkbenchParams {
        loops,
        ..WorkbenchParams::default()
    });
    let mut g = c.benchmark_group("mrt_schedtime");
    g.sample_size(10);
    for k in [1u32, 2, 4] {
        let machine = MachineConfig::paper_config(k, 64 / k).unwrap();
        g.bench_function(&format!("workbench_{}x{}", k, 64 / k), |b| {
            b.iter(|| {
                time_workbench(
                    &exec,
                    &wb,
                    &machine,
                    SchedulerKind::MirsC,
                    PrefetchPolicy::HitLatency,
                    1,
                    search,
                )
                .best_seconds()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, mrt_probes, schedtime);
criterion_main!(benches);
