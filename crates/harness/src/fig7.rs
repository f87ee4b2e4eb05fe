//! Figure 7: useful vs. stall cycles and execution time under a real memory
//! hierarchy, with and without selective binding prefetching.

use crate::runner::{run_sweep, SweepJob};
use crate::sweep::SweepExecutor;
use loopgen::Workbench;
use memsim::{simulate, MemoryParams};
use mirs::{PrefetchPolicy, SearchConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use vliw::{ClusterConfig, HwModel, MachineConfig};

/// One bar of Figure 7.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Clusters.
    pub clusters: u32,
    /// Registers per cluster.
    pub registers: u32,
    /// Whether selective binding prefetching was applied.
    pub prefetching: bool,
    /// Weighted useful cycles.
    pub useful_cycles: f64,
    /// Weighted stall cycles.
    pub stall_cycles: f64,
    /// Weighted execution time in nanoseconds.
    pub execution_time_ns: f64,
}

/// The full figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7 {
    /// One row per (config, prefetching).
    pub rows: Vec<Fig7Row>,
}

/// The configurations the paper plots: k1 z∈{64,128}, k2 z∈{32,64},
/// k4 z∈{32,64}.
#[must_use]
pub fn paper_configs() -> Vec<(u32, u32)> {
    vec![(1, 64), (1, 128), (2, 32), (2, 64), (4, 32), (4, 64)]
}

/// Run the real-memory evaluation with MIRS-C climbing with `search`,
/// sharding every (design point, policy, loop) task across `exec`.
#[must_use]
pub fn run(exec: &SweepExecutor, wb: &Workbench, hw: &HwModel, search: SearchConfig) -> Fig7 {
    let mut points: Vec<(u32, u32, bool)> = Vec::new();
    let mut jobs: Vec<SweepJob> = Vec::new();
    for &(k, z) in &paper_configs() {
        for &prefetching in &[false, true] {
            let mc = MachineConfig::builder()
                .identical_clusters(k, ClusterConfig::new(8 / k, 4 / k, z))
                .buses(2)
                .build()
                .expect("valid config");
            let policy = if prefetching {
                PrefetchPolicy::SelectiveBinding { min_trip_count: 16 }
            } else {
                PrefetchPolicy::HitLatency
            };
            points.push((k, z, prefetching));
            jobs.push(SweepJob::mirs(mc, search).with_prefetch(policy));
        }
    }
    let summaries = run_sweep(exec, wb, &jobs);
    let rows = points
        .into_iter()
        .zip(&jobs)
        .zip(&summaries)
        .map(|(((k, z, prefetching), job), summary)| {
            let cycle_time = hw.cycle_time_ps(&job.machine);
            let params = MemoryParams {
                cycle_time_ps: cycle_time,
                ..MemoryParams::default()
            };
            let mut useful = 0.0;
            let mut stall = 0.0;
            for o in &summary.outcomes {
                if let Some(result) = &o.result {
                    let out = simulate(result, o.trip_count, &params);
                    useful += o.weight * out.useful_cycles as f64;
                    stall += o.weight * out.stall_cycles as f64;
                }
            }
            Fig7Row {
                clusters: k,
                registers: z,
                prefetching,
                useful_cycles: useful,
                stall_cycles: stall,
                execution_time_ns: (useful + stall) * cycle_time / 1000.0,
            }
        })
        .collect();
    Fig7 { rows }
}

impl Fig7 {
    /// Row lookup.
    #[must_use]
    pub fn row(&self, clusters: u32, registers: u32, prefetching: bool) -> Option<&Fig7Row> {
        self.rows.iter().find(|r| {
            r.clusters == clusters && r.registers == registers && r.prefetching == prefetching
        })
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 7: real memory and binding prefetching (MIRS-C)")?;
        writeln!(
            f,
            "{:>2} {:>4} {:>10} {:>14} {:>14} {:>16}",
            "k", "z", "prefetch", "useful", "stall", "exec time [ns]"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>2} {:>4} {:>10} {:>14.0} {:>14.0} {:>16.0}",
                r.clusters,
                r.registers,
                if r.prefetching { "yes" } else { "no" },
                r.useful_cycles,
                r.stall_cycles,
                r.execution_time_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_env;
    use loopgen::WorkbenchParams;

    #[test]
    fn prefetching_reduces_stall_cycles() {
        let wb = Workbench::generate(&WorkbenchParams {
            loops: 4,
            ..Default::default()
        });
        let fig = run(
            &test_env::executor(),
            &wb,
            &HwModel::default(),
            test_env::search(),
        );
        assert_eq!(fig.rows.len(), 12);
        for &(k, z) in &paper_configs() {
            let normal = fig.row(k, z, false).unwrap();
            let pf = fig.row(k, z, true).unwrap();
            assert!(
                pf.stall_cycles <= normal.stall_cycles,
                "k={k} z={z}: prefetching must not add stalls"
            );
        }
        assert!(fig.to_string().contains("Figure 7"));
    }
}
