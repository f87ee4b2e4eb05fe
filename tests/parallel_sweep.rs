//! Determinism of the parallel sweep engine: a workbench run sharded
//! across any number of workers must be **byte-identical** to a serial
//! run — same `LoopOutcome` vectors, same `schedule_hash`es, for random
//! workbenches and machine shapes.
//!
//! Together with the golden schedule-hash tests (which pin the absolute
//! hashes) this is the contract that lets `MIRS_JOBS` default to all cores
//! without the experiment outputs ever depending on thread interleaving.
//! Every run here climbs with the search configuration the `MIRS_*`
//! variables select, so the CI strategy legs reach these tests too.

use harness::runner::{run_sweep, run_workbench, SweepJob, WorkbenchSummary};
use harness::sweep::{SweepError, SweepExecutor};
use harness::SchedulerKind;
use loopgen::{Workbench, WorkbenchParams};
use mirs::{PrefetchPolicy, SchedScratch};
use mirs_repro::cli;
use proptest::prelude::*;
use vliw::MachineConfig;

/// Everything about two summaries must match except wall-clock timings.
fn assert_identical(a: &WorkbenchSummary, b: &WorkbenchSummary, label: &str) {
    assert_eq!(a.config, b.config, "{label}: config");
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{label}: loop count");
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.name, ob.name, "{label}: loop order");
        assert_eq!(oa.ii, ob.ii, "{label}: II of {}", oa.name);
        assert_eq!(oa.mii, ob.mii, "{label}: MII of {}", oa.name);
        assert_eq!(
            oa.memory_traffic, ob.memory_traffic,
            "{label}: traffic of {}",
            oa.name
        );
        assert_eq!(oa.moves, ob.moves, "{label}: moves of {}", oa.name);
        assert_eq!(
            oa.trip_count, ob.trip_count,
            "{label}: trip count of {}",
            oa.name
        );
        let ha = oa.result.as_ref().map(|r| r.schedule_hash());
        let hb = ob.result.as_ref().map(|r| r.schedule_hash());
        assert_eq!(ha, hb, "{label}: schedule hash of {}", oa.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// `run_workbench` with 1, 2 and N threads — at several task-claim
    /// chunk sizes — yields identical outcome vectors and identical
    /// schedule hashes on randomized workbenches. Chunked claiming and
    /// per-worker scratch reuse are scheduling-granularity decisions only;
    /// neither may leak into the results.
    #[test]
    fn workbench_outcomes_are_identical_for_any_worker_count_and_chunk(
        seed in 0u64..500,
        loops in 4usize..9,
        clusters_pow in 0u32..3,
        regs_idx in 0usize..3,
    ) {
        let wb = Workbench::generate(&WorkbenchParams {
            loops,
            seed,
            ..WorkbenchParams::default()
        });
        let k = 1u32 << clusters_pow;
        let regs = [16u32, 32, 64][regs_idx];
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        let search = cli::env_search();
        let run = |jobs: usize, chunk: usize| {
            run_workbench(
                &SweepExecutor::new(jobs).with_chunk(chunk),
                &wb,
                &machine,
                SchedulerKind::MirsC,
                PrefetchPolicy::HitLatency,
                search,
            )
        };
        let serial = run(1, 1);
        for (jobs, chunk) in [(1, 8), (2, 1), (2, 8), (8, 3), (8, 64)] {
            let parallel = run(jobs, chunk);
            assert_identical(&serial, &parallel, &format!("{jobs} workers, chunk {chunk}"));
        }
    }
}

/// A flattened multi-config sweep equals per-config serial runs, job by job.
#[test]
fn run_sweep_matches_per_config_serial_runs() {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 6,
        ..WorkbenchParams::default()
    });
    let search = cli::env_search();
    let jobs = vec![
        SweepJob::mirs(MachineConfig::paper_config(1, 64).unwrap(), search),
        SweepJob::baseline(MachineConfig::paper_config(1, 64).unwrap()),
        SweepJob::mirs(MachineConfig::paper_config(2, 32).unwrap(), search),
        SweepJob::mirs(MachineConfig::paper_config(4, 16).unwrap(), search),
    ];
    let parallel = run_sweep(&SweepExecutor::new(4), &wb, &jobs);
    assert_eq!(parallel.len(), jobs.len());
    let serial = SweepExecutor::serial();
    for (job, got) in jobs.iter().zip(&parallel) {
        let want = run_workbench(
            &serial,
            &wb,
            &job.machine,
            job.scheduler,
            job.prefetch,
            job.search,
        );
        assert_eq!(got.scheduler, job.scheduler);
        assert_identical(&want, got, &job.machine.name());
    }
}

/// A panicking scheduling task surfaces as `SweepError::WorkerPanicked`
/// with the lost loop's index — never a hang, never a silent partial
/// result vector.
#[test]
fn scheduling_worker_panic_is_surfaced_as_error() {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 8,
        ..WorkbenchParams::default()
    });
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let exec = SweepExecutor::new(4);
    let search = cli::env_search();
    let out = exec.try_run(wb.loops(), |i, lp| {
        assert!(i != 3, "synthetic failure on loop 3");
        harness::runner::schedule_loop(
            &mut SchedScratch::default(),
            lp,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            search,
        )
    });
    match out {
        Err(SweepError::WorkerPanicked { lost_tasks }) => {
            assert_eq!(lost_tasks, vec![3]);
        }
        other => panic!("expected WorkerPanicked, got {:?}", other.map(|v| v.len())),
    }
}

/// The executor `MIRS_JOBS` sizes at the edge agrees with a serial one
/// on the workbench.
#[test]
fn from_env_executor_is_deterministic_too() {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 5,
        ..WorkbenchParams::default()
    });
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let search = cli::env_search();
    let via_env = run_workbench(
        &cli::env_executor(),
        &wb,
        &machine,
        SchedulerKind::MirsC,
        PrefetchPolicy::HitLatency,
        search,
    );
    let serial = run_workbench(
        &SweepExecutor::serial(),
        &wb,
        &machine,
        SchedulerKind::MirsC,
        PrefetchPolicy::HitLatency,
        search,
    );
    assert_identical(&serial, &via_env, "from_env");
}
