//! End-to-end tests of the MIRS-C scheduler on hand-written loops across
//! machine configurations. Every produced schedule is validated against the
//! machine: dependences, resources, operand locality and register files.

use ddg::{mii, Loop, LoopBuilder};
use mirs::{apply_prefetch_policy, MirsScheduler, PrefetchPolicy, SchedulerOptions};
use vliw::{MachineConfig, Opcode};

fn daxpy() -> Loop {
    let mut b = LoopBuilder::new("daxpy");
    let a = b.invariant("a");
    let x = b.load("x");
    let y = b.load("y");
    let ax = b.op(Opcode::FpMul, &[a, x]);
    let s = b.op(Opcode::FpAdd, &[ax, y]);
    b.store("y", s);
    b.finish(1000)
}

fn dot_product() -> Loop {
    let mut b = LoopBuilder::new("dot");
    let x = b.load("x");
    let y = b.load("y");
    let p = b.op(Opcode::FpMul, &[x, y]);
    let s = b.recurrence("s");
    let acc = b.op(Opcode::FpAdd, &[s, p]);
    b.close_recurrence(s, acc, 1);
    b.finish(1000)
}

fn stencil3() -> Loop {
    // y[i] = c0*x[i-1] + c1*x[i] + c2*x[i+1]
    let mut b = LoopBuilder::new("stencil3");
    let c0 = b.invariant("c0");
    let c1 = b.invariant("c1");
    let c2 = b.invariant("c2");
    let sym = b.array("x");
    let xm = b.load_with(
        "x",
        ddg::MemAccess {
            array: sym,
            offset: -8,
            stride: 8,
        },
    );
    let x0 = b.load_with(
        "x",
        ddg::MemAccess {
            array: sym,
            offset: 0,
            stride: 8,
        },
    );
    let xp = b.load_with(
        "x",
        ddg::MemAccess {
            array: sym,
            offset: 8,
            stride: 8,
        },
    );
    let t0 = b.op(Opcode::FpMul, &[c0, xm]);
    let t1 = b.op(Opcode::FpMul, &[c1, x0]);
    let t2 = b.op(Opcode::FpMul, &[c2, xp]);
    let s0 = b.op(Opcode::FpAdd, &[t0, t1]);
    let s1 = b.op(Opcode::FpAdd, &[s0, t2]);
    b.store("y", s1);
    b.finish(512)
}

fn divide_heavy() -> Loop {
    let mut b = LoopBuilder::new("divides");
    let x = b.load("x");
    let y = b.load("y");
    let d = b.op(Opcode::FpDiv, &[x, y]);
    let q = b.op(Opcode::FpSqrt, &[d]);
    b.store("z", q);
    b.finish(256)
}

/// A wide loop with many independent long chains: high register pressure.
fn register_hungry(chains: usize) -> Loop {
    let mut b = LoopBuilder::new(format!("hungry{chains}"));
    let mut partials = Vec::new();
    for i in 0..chains {
        let x = b.load(&format!("x{i}"));
        let y = b.load(&format!("y{i}"));
        let m = b.op(Opcode::FpMul, &[x, y]);
        partials.push(m);
    }
    // Combine all partials with a reduction tree to create long lifetimes.
    let mut level = partials;
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(b.op(Opcode::FpAdd, &[pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    b.store("out", level[0]);
    b.finish(200)
}

fn all_loops() -> Vec<Loop> {
    vec![
        daxpy(),
        dot_product(),
        stencil3(),
        divide_heavy(),
        register_hungry(8),
        register_hungry(16),
    ]
}

fn schedule_and_validate(
    lp: &Loop,
    machine: &MachineConfig,
    opts: SchedulerOptions,
) -> mirs::ScheduleResult {
    let sched = MirsScheduler::new(machine, opts);
    let result = sched
        .schedule(lp)
        .unwrap_or_else(|e| panic!("loop {} failed to schedule: {e}", lp.name));
    if let Err(v) = result.validate(machine) {
        panic!("loop {} produced an invalid schedule: {v}", lp.name);
    }
    result
}

#[test]
fn all_loops_schedule_on_unified_machine() {
    let machine = MachineConfig::paper_config(1, 64).unwrap();
    for lp in all_loops() {
        let r = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
        assert!(r.ii >= r.mii || r.mii == 0, "II can never beat the MII");
    }
}

#[test]
fn all_loops_schedule_on_two_cluster_machine() {
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    for lp in all_loops() {
        let _ = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    }
}

#[test]
fn all_loops_schedule_on_four_cluster_machine() {
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    for lp in all_loops() {
        let _ = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    }
}

#[test]
fn all_loops_schedule_with_slow_moves() {
    let machine = MachineConfig::builder()
        .identical_clusters(4, vliw::ClusterConfig::new(2, 1, 32))
        .buses(2)
        .move_latency(3)
        .build()
        .unwrap();
    for lp in all_loops() {
        let _ = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    }
}

#[test]
fn dot_product_ii_is_bounded_by_its_recurrence() {
    let machine = MachineConfig::paper_config(1, 64).unwrap();
    let lp = dot_product();
    let r = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    // The accumulation recurrence imposes RecMII = 4 (fadd latency).
    assert!(r.ii >= 4);
    assert!(
        r.ii <= 8,
        "a simple dot product should stay close to its MII"
    );
}

#[test]
fn daxpy_achieves_mii_on_wide_unified_machine() {
    let machine = MachineConfig::paper_config(1, 64).unwrap();
    let lp = daxpy();
    let lat = machine.latencies();
    let bounds = mii::mii(&lp.graph, lat, 8, 4);
    let r = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    assert_eq!(
        r.ii,
        bounds.mii(),
        "daxpy is trivially schedulable at its MII"
    );
}

#[test]
fn clustered_schedules_insert_moves_when_needed() {
    // A chain long enough that it gets split across clusters on a 4-cluster
    // machine at least sometimes; the result must remain valid either way.
    let machine = MachineConfig::paper_config(4, 64).unwrap();
    let lp = register_hungry(16);
    let r = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    // Operand locality is enforced by validate(); if any value crosses
    // clusters there must be moves.
    let cross_cluster_values = r
        .graph
        .node_ids()
        .filter(|&n| r.graph.op(n).opcode.is_move())
        .count();
    assert_eq!(cross_cluster_values as u32, r.moves);
}

/// A loop whose register pressure comes from *long* lifetimes: the loaded
/// values are only consumed at the end of a long multiply chain, so they sit
/// in registers for tens of cycles — exactly the situation integrated
/// spilling is designed for.
fn long_lived(values: usize) -> Loop {
    let mut b = LoopBuilder::new(format!("long_lived{values}"));
    let mut held = Vec::new();
    for i in 0..values {
        held.push(b.load(&format!("x{i}")));
    }
    // A serial chain of multiplies that keeps the core busy for a while.
    let mut chain = b.load("c");
    for _ in 0..8 {
        chain = b.op(Opcode::FpMul, &[chain, chain]);
    }
    // Only now are the held values consumed.
    let mut acc = chain;
    for v in held {
        acc = b.op(Opcode::FpAdd, &[acc, v]);
    }
    b.store("out", acc);
    b.finish(300)
}

#[test]
fn register_constrained_machine_forces_spills_or_larger_ii() {
    // Same loop, plenty of registers vs few registers.
    let lp = long_lived(20);
    let roomy = MachineConfig::paper_config(1, 128).unwrap();
    let tight = MachineConfig::paper_config(1, 24).unwrap();
    let r_roomy = schedule_and_validate(&lp, &roomy, SchedulerOptions::default());
    let r_tight = schedule_and_validate(&lp, &tight, SchedulerOptions::default());
    assert!(
        r_tight.memory_traffic > r_roomy.memory_traffic || r_tight.ii > r_roomy.ii,
        "a 24-register file must pay with spill traffic or a larger II"
    );
    assert!(r_tight.max_live.iter().all(|&ml| ml <= 24));
}

#[test]
fn unbounded_registers_never_spill() {
    let machine = MachineConfig::paper_config_unbounded(2).unwrap();
    for lp in all_loops() {
        let r = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
        assert_eq!(r.stats.spill_loads, 0);
        assert_eq!(r.stats.spill_stores, 0);
    }
}

#[test]
fn binding_prefetch_increases_register_pressure_but_not_traffic() {
    let machine = MachineConfig::paper_config_unbounded(1).unwrap();
    let lp = stencil3();
    let normal = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    let pf_opts = SchedulerOptions::default()
        .with_prefetch(PrefetchPolicy::SelectiveBinding { min_trip_count: 16 });
    let prefetched = schedule_and_validate(&lp, &machine, pf_opts);
    assert_eq!(
        normal.memory_traffic, prefetched.memory_traffic,
        "binding prefetching adds no memory traffic"
    );
    assert!(
        prefetched.max_live.iter().sum::<u32>() >= normal.max_live.iter().sum::<u32>(),
        "scheduling loads with miss latency lengthens lifetimes"
    );
}

#[test]
fn hit_latency_schedules_loads_already_marked_miss_as_hits() {
    // The scheduler attempts copies of the loop's own graph only when the
    // prefetch policy would change nothing; loads that arrive marked for
    // prefetching must still be reset to hit latency first.
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let selective = PrefetchPolicy::SelectiveBinding { min_trip_count: 16 };
    let mut marked_loops = 0;
    for hit in all_loops() {
        let mut miss = hit.clone();
        let marked = apply_prefetch_policy(
            &mut miss.graph,
            machine.latencies(),
            &selective,
            miss.trip_count,
        );
        if marked > 0 {
            marked_loops += 1;
        }
        let want = schedule_and_validate(&hit, &machine, SchedulerOptions::default());
        let got = schedule_and_validate(&miss, &machine, SchedulerOptions::default());
        assert_eq!(
            got.schedule_hash(),
            want.schedule_hash(),
            "loop {}",
            hit.name
        );
        assert_eq!(got.ii, want.ii, "loop {}", hit.name);
        assert_eq!(got.placements, want.placements, "loop {}", hit.name);
    }
    assert!(marked_loops > 0, "no load was marked for prefetching");
}

#[test]
fn empty_loop_is_rejected() {
    let machine = MachineConfig::paper_config(1, 64).unwrap();
    let lp = Loop::new("empty", ddg::DepGraph::new(), 10);
    let sched = MirsScheduler::new(&machine, SchedulerOptions::default());
    assert!(matches!(
        sched.schedule(&lp),
        Err(mirs::ScheduleError::NotConverged { .. }) | Err(mirs::ScheduleError::EmptyLoop { .. })
    ));
}

#[test]
fn unrolled_loops_still_schedule_and_validate() {
    let machine = MachineConfig::paper_config(2, 64).unwrap();
    for lp in [daxpy(), dot_product()] {
        let unrolled = ddg::unroll::unroll(&lp, 4);
        let _ = schedule_and_validate(&unrolled, &machine, SchedulerOptions::default());
    }
}

#[test]
fn ejection_policy_all_also_produces_valid_schedules() {
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let opts = SchedulerOptions::default().with_ejection(mirs::EjectionPolicy::All);
    for lp in all_loops() {
        let _ = schedule_and_validate(&lp, &machine, opts);
    }
}

#[test]
fn tiny_register_files_still_converge_via_spilling() {
    let machine = MachineConfig::builder()
        .identical_clusters(1, vliw::ClusterConfig::new(8, 4, 16))
        .buses(2)
        .build()
        .unwrap();
    let lp = long_lived(20);
    let r = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    assert!(r.max_live[0] <= 16);
    assert!(
        r.stats.spill_loads + r.stats.spill_stores > 0 || r.ii > r.mii,
        "pressure must be resolved by spilling or by slowing down"
    );
}

#[test]
fn scheduling_statistics_are_consistent() {
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let lp = register_hungry(8);
    let r = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    assert!(r.stats.attempts as usize >= lp.body_size());
    assert_eq!(
        r.stats.spill_loads,
        r.graph.count_ops(|o| o == Opcode::SpillLoad) as u32
    );
    assert_eq!(
        r.stats.spill_stores,
        r.graph.count_ops(|o| o == Opcode::SpillStore) as u32
    );
    assert!(r.stats.scheduling_seconds >= 0.0);
    assert_eq!(
        r.memory_traffic,
        r.graph.count_ops(|o| o.is_memory()) as u32
    );
}

#[test]
fn unpipelined_divide_at_small_ii_raises_ii_instead_of_force_placing() {
    // One unpipelined divide (occupancy 17) among cheap operations: the
    // total-resource MII underestimates the per-cluster constraint. On a
    // 2-cluster machine with 4 GP units per cluster, the divide's
    // reservation table folds to ceil(17/II) uses of one kernel slot, so
    // any II < 5 is *intrinsically* infeasible on every cluster — no
    // ejection can help. The scheduler must surface that and raise the II
    // without force-placing an operation that can never fit (the old
    // behaviour drained the whole budget per infeasible II and could only
    // recover through the restart valve).
    let mut b = LoopBuilder::new("divide_heavy");
    let x = b.load("x");
    let y = b.load("y");
    let q = b.op(Opcode::FpDiv, &[x, y]);
    let s = b.op(Opcode::FpAdd, &[q, x]);
    b.store("z", s);
    let lp = b.finish(100);

    let machine = MachineConfig::paper_config(2, 64).unwrap();
    let bounds = mii::mii(&lp.graph, machine.latencies(), 8, 4);
    assert!(
        bounds.mii() < 5,
        "the MII ({}) must undercut the per-cluster divide bound for this \
         regression to exercise the infeasible IIs",
        bounds.mii()
    );
    let r = schedule_and_validate(&lp, &machine, SchedulerOptions::default());
    assert!(
        r.ii >= 5,
        "ceil(17/II) must fit in 4 GP units, got II {}",
        r.ii
    );
    assert!(
        r.stats.restarts >= 5 - bounds.mii(),
        "every infeasible II restarts exactly once"
    );
}
