//! Shared machinery: run a workbench through a scheduler and aggregate the
//! per-loop metrics the paper reports.
//!
//! All workbench traversal routes through the [`SweepExecutor`]
//! (crate::sweep): loops are independent tasks, outcomes are collected by
//! loop index, and a parallel run is byte-identical to a serial one.

use crate::sweep::SweepExecutor;
use baseline::{BaselineOptions, BaselineScheduler};
use ddg::Loop;
use loopgen::Workbench;
use mirs::{
    MirsScheduler, PrefetchPolicy, SchedScratch, ScheduleResult, SchedulerOptions, SearchConfig,
};
use serde::{Deserialize, Serialize};
use vliw::MachineConfig;

/// Which scheduler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// MIRS-C: iterative, with integrated spilling and cluster assignment.
    MirsC,
    /// Non-iterative baseline in the style of reference \[31\].
    Baseline,
}

impl SchedulerKind {
    /// Short label used in table headers.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::MirsC => "MIRS-C",
            SchedulerKind::Baseline => "[31]",
        }
    }
}

/// Result of scheduling one loop of the workbench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoopOutcome {
    /// Loop name.
    pub name: String,
    /// Workbench weight of the loop.
    pub weight: f64,
    /// Trip count used for cycle accounting.
    pub trip_count: u64,
    /// Achieved II (`None` when the scheduler did not converge).
    pub ii: Option<u32>,
    /// Minimum II bound of the loop.
    pub mii: u32,
    /// Memory operations per iteration, including spill code.
    pub memory_traffic: u32,
    /// Inter-cluster moves per iteration.
    pub moves: u32,
    /// Wall-clock scheduling time in seconds.
    pub scheduling_seconds: f64,
    /// Full schedule (kept for downstream memory simulation); `None` when
    /// the scheduler did not converge.
    #[serde(skip)]
    pub result: Option<ScheduleResult>,
}

impl LoopOutcome {
    /// Whether the scheduler converged on this loop.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.ii.is_some()
    }

    /// Spill operations (stores + loads) of the schedule, 0 when the
    /// scheduler did not converge — the strategy-comparison metric next
    /// to the II.
    #[must_use]
    pub fn spill_ops(&self) -> u32 {
        self.result
            .as_ref()
            .map(|r| r.stats.spill_stores + r.stats.spill_loads)
            .unwrap_or(0)
    }

    /// Execution cycles under the ideal-memory model (`II × trip + span`).
    #[must_use]
    pub fn execution_cycles(&self) -> u64 {
        self.result
            .as_ref()
            .map(|r| r.execution_cycles(self.trip_count))
            .unwrap_or(0)
    }
}

/// Aggregated metrics over a whole workbench run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkbenchSummary {
    /// Name of the machine configuration.
    pub config: String,
    /// Scheduler that produced the run.
    pub scheduler: SchedulerKind,
    /// Per-loop outcomes, in workbench order.
    pub outcomes: Vec<LoopOutcome>,
}

impl WorkbenchSummary {
    /// Number of loops that did not converge.
    #[must_use]
    pub fn not_converged(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.converged()).count()
    }

    /// Sum of IIs over the loops selected by `filter` (the paper's ΣII).
    pub fn sum_ii(&self, mut filter: impl FnMut(&LoopOutcome) -> bool) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| filter(o))
            .filter_map(|o| o.ii.map(u64::from))
            .sum()
    }

    /// Weighted execution cycles over the whole workbench (ideal memory).
    #[must_use]
    pub fn weighted_execution_cycles(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.weight * o.execution_cycles() as f64)
            .sum()
    }

    /// Weighted memory traffic (accesses per iteration × trip count).
    #[must_use]
    pub fn weighted_memory_traffic(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.weight * f64::from(o.memory_traffic) * o.trip_count as f64)
            .sum()
    }

    /// Total scheduling time in seconds.
    #[must_use]
    pub fn total_scheduling_seconds(&self) -> f64 {
        self.outcomes.iter().map(|o| o.scheduling_seconds).sum()
    }

    /// The loops that `self` and `other`, two runs over the same
    /// workbench, both converged on with a different II or memory traffic,
    /// and each run's ΣII and Σtrf over them (the "different" columns of
    /// Tables 1 and 2).
    #[must_use]
    pub fn differing(&self, other: &WorkbenchSummary) -> Differing {
        let mut d = Differing::default();
        for (a, b) in self.outcomes.iter().zip(&other.outcomes) {
            let (Some(ii_a), Some(ii_b)) = (a.ii, b.ii) else {
                continue;
            };
            if ii_a == ii_b && a.memory_traffic == b.memory_traffic {
                continue;
            }
            d.loops += 1;
            d.sum_ii[0] += u64::from(ii_a);
            d.sum_ii[1] += u64::from(ii_b);
            d.sum_trf[0] += u64::from(a.memory_traffic);
            d.sum_trf[1] += u64::from(b.memory_traffic);
        }
        d
    }
}

/// What [`WorkbenchSummary::differing`] counts: the loops two runs
/// schedule differently, and the sums of each run over them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Differing {
    /// Loops both runs converged on with a different II or memory traffic.
    pub loops: usize,
    /// ΣII over those loops: the first run's, then the other's.
    pub sum_ii: [u64; 2],
    /// Σtrf over those loops: the first run's, then the other's.
    pub sum_trf: [u64; 2],
}

/// Schedule one loop with the chosen scheduler and II-search
/// configuration (the baseline scheduler ignores `search`).
///
/// `scratch` carries warmed allocations from loop to loop, so a worker
/// scheduling many loops allocates its MRT/pressure/priority storage once;
/// outcomes are byte-identical for any reuse pattern. MIRS-C loops go
/// through [`MirsScheduler::schedule_with`], which runs every attempt on
/// the calling thread.
#[must_use]
pub fn schedule_loop(
    scratch: &mut SchedScratch,
    lp: &Loop,
    machine: &MachineConfig,
    kind: SchedulerKind,
    prefetch: PrefetchPolicy,
    search: SearchConfig,
) -> LoopOutcome {
    let lat = machine.latencies();
    let bounds = ddg::mii::mii(
        &lp.graph,
        lat,
        machine.total_gp_units(),
        machine.total_mem_ports(),
    );
    let started = std::time::Instant::now();
    let result = match kind {
        SchedulerKind::MirsC => {
            let opts = SchedulerOptions::default()
                .with_prefetch(prefetch)
                .with_search(search);
            MirsScheduler::new(machine, opts)
                .schedule_with(lp, scratch)
                .ok()
        }
        SchedulerKind::Baseline => {
            let opts = BaselineOptions {
                prefetch,
                ..BaselineOptions::default()
            };
            BaselineScheduler::with_options(machine, opts)
                .schedule(lp)
                .ok()
        }
    };
    let scheduling_seconds = started.elapsed().as_secs_f64();
    LoopOutcome {
        name: lp.name.clone(),
        weight: lp.weight,
        trip_count: lp.trip_count,
        ii: result.as_ref().map(|r| r.ii),
        mii: bounds.mii(),
        memory_traffic: result.as_ref().map(|r| r.memory_traffic).unwrap_or(0),
        moves: result.as_ref().map(|r| r.moves).unwrap_or(0),
        scheduling_seconds,
        result,
    }
}

/// Wall-clock measurement of repeated full-workbench scheduling passes —
/// the end-to-end "scheduling time" experiment behind Table 3, exposed as a
/// first-class runner mode so benchmarks and CI can track scheduler
/// throughput without re-deriving the methodology.
///
/// Two time series are kept per pass: the *aggregate* per-loop scheduling
/// seconds (the serial-equivalent CPU time, comparable across worker
/// counts) and the *wall-clock* seconds of the pass. Their ratio is the
/// parallel speedup of the sweep engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedTimeTrial {
    /// Machine configuration name.
    pub config: String,
    /// Scheduler that was timed.
    pub scheduler: SchedulerKind,
    /// Number of loops per pass.
    pub loops: usize,
    /// Worker threads the pass was sharded across.
    pub jobs: usize,
    /// Sum of per-loop scheduling seconds of each pass (serial-equivalent
    /// CPU time; independent of the worker count up to timer noise).
    pub pass_seconds: Vec<f64>,
    /// Wall-clock seconds of each pass over the whole workbench.
    pub wall_seconds: Vec<f64>,
}

impl SchedTimeTrial {
    /// Fastest pass by aggregate scheduling time (the number to compare
    /// across scheduler versions: it has the least measurement noise).
    #[must_use]
    pub fn best_seconds(&self) -> f64 {
        self.pass_seconds
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean over all passes (aggregate scheduling time).
    #[must_use]
    pub fn mean_seconds(&self) -> f64 {
        if self.pass_seconds.is_empty() {
            return 0.0;
        }
        self.pass_seconds.iter().sum::<f64>() / self.pass_seconds.len() as f64
    }

    /// Fastest pass by wall-clock time.
    #[must_use]
    pub fn best_wall_seconds(&self) -> f64 {
        self.wall_seconds
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Parallel speedup of the best pass: serial-equivalent scheduling
    /// seconds over wall-clock seconds. ~1.0 for a serial run; approaches
    /// the worker count when the sweep scales.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let wall = self.best_wall_seconds();
        if wall > 0.0 {
            self.best_seconds() / wall
        } else {
            1.0
        }
    }
}

/// Time `repeats` full passes of the workbench through the chosen scheduler
/// and II-search configuration on `exec`.
///
/// Each pass schedules every loop and records both the pass's aggregate
/// scheduling time and its wall-clock time (scheduler construction and
/// graph generation excluded from the former).
#[must_use]
pub fn time_workbench(
    exec: &SweepExecutor,
    wb: &Workbench,
    machine: &MachineConfig,
    kind: SchedulerKind,
    prefetch: PrefetchPolicy,
    repeats: u32,
    search: SearchConfig,
) -> SchedTimeTrial {
    let repeats = repeats.max(1) as usize;
    let mut pass_seconds = Vec::with_capacity(repeats);
    let mut wall_seconds = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let started = std::time::Instant::now();
        let summary = run_workbench(exec, wb, machine, kind, prefetch, search);
        wall_seconds.push(started.elapsed().as_secs_f64());
        pass_seconds.push(summary.total_scheduling_seconds());
    }
    SchedTimeTrial {
        config: machine.name(),
        scheduler: kind,
        loops: wb.loops().len(),
        jobs: exec.jobs(),
        pass_seconds,
        wall_seconds,
    }
}

/// Run every loop of the workbench through the chosen scheduler and
/// II-search configuration, sharded across `exec`. Outcomes are in
/// workbench order and byte-identical to a serial run regardless of the
/// worker count.
#[must_use]
pub fn run_workbench(
    exec: &SweepExecutor,
    wb: &Workbench,
    machine: &MachineConfig,
    kind: SchedulerKind,
    prefetch: PrefetchPolicy,
    search: SearchConfig,
) -> WorkbenchSummary {
    let outcomes = exec.run_scratch(wb.loops(), SchedScratch::default, |scratch, _, lp| {
        schedule_loop(scratch, lp, machine, kind, prefetch, search)
    });
    WorkbenchSummary {
        config: machine.name(),
        scheduler: kind,
        outcomes,
    }
}

/// One (machine, scheduler, prefetch, search) workbench run of a
/// multi-config sweep — the unit [`run_sweep`] shards together with the
/// loop dimension.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Machine configuration to schedule for.
    pub machine: MachineConfig,
    /// Scheduler to run.
    pub scheduler: SchedulerKind,
    /// Prefetch policy to schedule under.
    pub prefetch: PrefetchPolicy,
    /// II-search configuration (MIRS-C only).
    pub search: SearchConfig,
}

impl SweepJob {
    /// MIRS-C with the given II search under the default hit-latency
    /// assumption on `machine`.
    #[must_use]
    pub fn mirs(machine: MachineConfig, search: SearchConfig) -> Self {
        Self {
            machine,
            scheduler: SchedulerKind::MirsC,
            prefetch: PrefetchPolicy::HitLatency,
            search,
        }
    }

    /// The baseline scheduler \[31\] under hit latency on `machine`.
    #[must_use]
    pub fn baseline(machine: MachineConfig) -> Self {
        Self {
            machine,
            scheduler: SchedulerKind::Baseline,
            prefetch: PrefetchPolicy::HitLatency,
            search: SearchConfig::default(),
        }
    }

    /// Builder-style override of the prefetch policy.
    #[must_use]
    pub fn with_prefetch(mut self, prefetch: PrefetchPolicy) -> Self {
        self.prefetch = prefetch;
        self
    }
}

/// Run the workbench against every job, flattening all (job, loop) pairs
/// into one task bag so the worker pool stays saturated across
/// configuration boundaries (the last big loop of config A overlaps the
/// first loops of config B instead of serialising behind them).
///
/// Returns one [`WorkbenchSummary`] per job, in job order, each with
/// outcomes in workbench order — exactly what per-job [`run_workbench`]
/// calls would produce.
#[must_use]
pub fn run_sweep(
    exec: &SweepExecutor,
    wb: &Workbench,
    sweep_jobs: &[SweepJob],
) -> Vec<WorkbenchSummary> {
    let loops = wb.loops();
    let tasks: Vec<(usize, usize)> = (0..sweep_jobs.len())
        .flat_map(|j| (0..loops.len()).map(move |l| (j, l)))
        .collect();
    let outcomes = exec.run_scratch(&tasks, SchedScratch::default, |scratch, _, &(j, l)| {
        let job = &sweep_jobs[j];
        schedule_loop(
            scratch,
            &loops[l],
            &job.machine,
            job.scheduler,
            job.prefetch,
            job.search,
        )
    });
    let mut remaining = outcomes.into_iter();
    sweep_jobs
        .iter()
        .map(|job| WorkbenchSummary {
            config: job.machine.name(),
            scheduler: job.scheduler,
            outcomes: remaining.by_ref().take(loops.len()).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_env;
    use loopgen::WorkbenchParams;

    fn small_wb() -> Workbench {
        Workbench::generate(&WorkbenchParams {
            loops: 6,
            ..WorkbenchParams::default()
        })
    }

    #[test]
    fn run_workbench_covers_every_loop() {
        let wb = small_wb();
        let machine = MachineConfig::paper_config(2, 64).unwrap();
        let s = run_workbench(
            &test_env::executor(),
            &wb,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            test_env::search(),
        );
        assert_eq!(s.outcomes.len(), wb.loops().len());
        assert_eq!(s.not_converged(), 0, "MIRS-C converges on the workbench");
        assert!(s.weighted_execution_cycles() > 0.0);
        assert!(s.sum_ii(|_| true) > 0);
    }

    #[test]
    fn mirs_ii_is_never_worse_than_baseline_with_unbounded_registers() {
        let wb = small_wb();
        let machine = MachineConfig::paper_config_unbounded(2).unwrap();
        let exec = test_env::executor();
        let search = test_env::search();
        let m = run_workbench(
            &exec,
            &wb,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            search,
        );
        let b = run_workbench(
            &exec,
            &wb,
            &machine,
            SchedulerKind::Baseline,
            PrefetchPolicy::HitLatency,
            search,
        );
        for (mo, bo) in m.outcomes.iter().zip(&b.outcomes) {
            if let (Some(mi), Some(bi)) = (mo.ii, bo.ii) {
                assert!(mi <= bi, "{}: MIRS-C II {mi} vs baseline {bi}", mo.name);
            }
        }
    }

    #[test]
    fn timed_trials_record_wall_clock_and_jobs() {
        let wb = small_wb();
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        let exec = SweepExecutor::new(2);
        let trial = time_workbench(
            &exec,
            &wb,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            2,
            test_env::search(),
        );
        assert_eq!(trial.jobs, 2);
        assert_eq!(trial.loops, wb.loops().len());
        assert_eq!(trial.pass_seconds.len(), 2);
        assert_eq!(trial.wall_seconds.len(), 2);
        assert!(trial.best_seconds() > 0.0);
        assert!(trial.best_wall_seconds() > 0.0);
        assert!(trial.speedup() > 0.0);
        // A pass's wall clock includes the aggregate scheduling work, so
        // the speedup can never exceed the worker count (up to timer noise).
        assert!(trial.speedup() <= trial.jobs as f64 * 1.5);
    }

    #[test]
    fn sweep_summaries_chunk_outcomes_per_job() {
        let wb = small_wb();
        let jobs = vec![
            SweepJob::mirs(
                MachineConfig::paper_config(1, 64).unwrap(),
                test_env::search(),
            ),
            SweepJob::baseline(MachineConfig::paper_config(2, 32).unwrap()),
        ];
        let summaries = run_sweep(&SweepExecutor::new(3), &wb, &jobs);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].scheduler, SchedulerKind::MirsC);
        assert_eq!(summaries[0].config, "1-(GP8M4-REG64)");
        assert_eq!(summaries[1].scheduler, SchedulerKind::Baseline);
        for s in &summaries {
            assert_eq!(s.outcomes.len(), wb.loops().len());
        }
    }

    #[test]
    fn outcome_helpers_are_consistent() {
        let wb = small_wb();
        let machine = MachineConfig::paper_config(1, 64).unwrap();
        let s = run_workbench(
            &test_env::executor(),
            &wb,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            test_env::search(),
        );
        for o in &s.outcomes {
            assert!(o.converged());
            assert!(o.ii.unwrap() >= 1);
            assert!(o.execution_cycles() >= u64::from(o.ii.unwrap()) * o.trip_count);
        }
        assert_eq!(SchedulerKind::MirsC.label(), "MIRS-C");
        assert_eq!(SchedulerKind::Baseline.label(), "[31]");
    }
}
