//! Figure 5: execution cycles, memory traffic and execution time of
//! `k-(GPxMy-REGz)` configurations under the ideal memory assumption.

use crate::runner::{run_sweep, SweepJob};
use crate::sweep::SweepExecutor;
use loopgen::Workbench;
use mirs::SearchConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use vliw::{ClusterConfig, HwModel, MachineConfig};

/// One bar group of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Clusters.
    pub clusters: u32,
    /// Registers per cluster.
    pub registers: u32,
    /// Move latency λm.
    pub move_latency: u32,
    /// Weighted execution cycles (II × iterations, ideal memory).
    pub execution_cycles: f64,
    /// Weighted memory traffic (accesses, including spill code).
    pub memory_traffic: f64,
    /// Execution time in weighted nanoseconds (cycles × cycle time).
    pub execution_time_ns: f64,
    /// Loops that did not converge (always 0 for MIRS-C).
    pub not_converged: usize,
}

/// The full figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5 {
    /// One row per (k, z, λm).
    pub rows: Vec<Fig5Row>,
}

/// Run the design-space sweep with MIRS-C (climbing with `search`) under
/// ideal memory, sharding every (design point, loop) task across `exec`.
#[must_use]
pub fn run(exec: &SweepExecutor, wb: &Workbench, hw: &HwModel, search: SearchConfig) -> Fig5 {
    let mut points: Vec<(u32, u32, u32)> = Vec::new();
    let mut jobs: Vec<SweepJob> = Vec::new();
    for &lm in &[1u32, 3] {
        for &k in &[1u32, 2, 4] {
            for &z in &[16u32, 32, 64, 128] {
                let mc = MachineConfig::builder()
                    .identical_clusters(k, ClusterConfig::new(8 / k, 4 / k, z))
                    .buses(2)
                    .move_latency(lm)
                    .build()
                    .expect("valid config");
                points.push((lm, k, z));
                jobs.push(SweepJob::mirs(mc, search));
            }
        }
    }
    let summaries = run_sweep(exec, wb, &jobs);
    let rows = points
        .into_iter()
        .zip(&jobs)
        .zip(&summaries)
        .map(|(((lm, k, z), job), summary)| {
            let cycles = summary.weighted_execution_cycles();
            let cycle_time = hw.cycle_time_ps(&job.machine);
            Fig5Row {
                clusters: k,
                registers: z,
                move_latency: lm,
                execution_cycles: cycles,
                memory_traffic: summary.weighted_memory_traffic(),
                execution_time_ns: cycles * cycle_time / 1000.0,
                not_converged: summary.not_converged(),
            }
        })
        .collect();
    Fig5 { rows }
}

impl Fig5 {
    /// Row for a given configuration.
    #[must_use]
    pub fn row(&self, clusters: u32, registers: u32, move_latency: u32) -> Option<&Fig5Row> {
        self.rows.iter().find(|r| {
            r.clusters == clusters && r.registers == registers && r.move_latency == move_latency
        })
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 5: ideal-memory design space (MIRS-C)")?;
        writeln!(
            f,
            "{:>3} {:>2} {:>4} {:>16} {:>14} {:>16} {:>8}",
            "lm", "k", "z", "exec cycles", "mem traffic", "exec time [ns]", "NotCnvr"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>3} {:>2} {:>4} {:>16.0} {:>14.0} {:>16.0} {:>8}",
                r.move_latency,
                r.clusters,
                r.registers,
                r.execution_cycles,
                r.memory_traffic,
                r.execution_time_ns,
                r.not_converged
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
    fn sweep_covers_24_design_points_and_clustering_wins_on_time() {
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
        assert_eq!(fig.rows.len(), 24);
        // Clustered configurations take at least as many cycles as the
        // unified one with the same total registers, but win on time.
        let uni = fig.row(1, 64, 1).unwrap();
        let four = fig.row(4, 16, 1).unwrap();
        assert!(four.execution_cycles >= uni.execution_cycles * 0.99);
        assert!(four.execution_time_ns < uni.execution_time_ns);
        assert!(fig.to_string().contains("Figure 5"));
    }
}
