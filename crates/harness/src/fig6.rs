//! Figure 6: scalability of clustered cores — replicate a `GP2M1-REG32`
//! cluster element 1..8 times with 2, 3, 4 or unbounded buses.

use crate::runner::{run_sweep, SweepJob};
use crate::sweep::SweepExecutor;
use loopgen::Workbench;
use mirs::SearchConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use vliw::MachineConfig;

/// One point of Figure 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Number of replicated clusters.
    pub clusters: u32,
    /// Number of buses (`u32::MAX` = unbounded).
    pub buses: u32,
    /// Weighted execution cycles.
    pub execution_cycles: f64,
    /// Weighted execution cycles relative to the single-cluster machine
    /// with the same bus count.
    pub relative_cycles: f64,
    /// Inter-cluster moves summed over the workbench.
    pub total_moves: u64,
}

/// The full figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6 {
    /// One row per (k, buses).
    pub rows: Vec<Fig6Row>,
}

/// Run the scalability sweep with MIRS-C climbing with `search`.
/// `max_clusters` is 8 in the paper. Every (design point, loop) task is
/// sharded across `exec`.
#[must_use]
pub fn run(exec: &SweepExecutor, wb: &Workbench, max_clusters: u32, search: SearchConfig) -> Fig6 {
    let mut points: Vec<(u32, u32)> = Vec::new();
    let mut jobs: Vec<SweepJob> = Vec::new();
    for &buses in &[2u32, 3, 4, u32::MAX] {
        for k in 1..=max_clusters {
            let mc = MachineConfig::replicated(k, buses).expect("valid replicated config");
            points.push((k, buses));
            jobs.push(SweepJob::mirs(mc, search));
        }
    }
    let summaries = run_sweep(exec, wb, &jobs);
    let mut rows = Vec::new();
    let mut single_cluster_cycles = 0.0;
    for ((k, buses), summary) in points.into_iter().zip(&summaries) {
        let cycles = summary.weighted_execution_cycles();
        if k == 1 {
            single_cluster_cycles = cycles;
        }
        let total_moves = summary.outcomes.iter().map(|o| u64::from(o.moves)).sum();
        rows.push(Fig6Row {
            clusters: k,
            buses,
            execution_cycles: cycles,
            relative_cycles: cycles / single_cluster_cycles,
            total_moves,
        });
    }
    Fig6 { rows }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6: scalability with clusters and buses (GP2M1-REG32 elements)"
        )?;
        writeln!(
            f,
            "{:>5} {:>2} {:>16} {:>10} {:>10}",
            "buses", "k", "exec cycles", "relative", "moves"
        )?;
        for r in &self.rows {
            let buses = if r.buses == u32::MAX {
                "inf".to_string()
            } else {
                r.buses.to_string()
            };
            writeln!(
                f,
                "{:>5} {:>2} {:>16.0} {:>10.3} {:>10}",
                buses, r.clusters, r.execution_cycles, r.relative_cycles, r.total_moves
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
    fn more_clusters_never_reduce_capability_with_enough_buses() {
        let wb = Workbench::generate(&WorkbenchParams {
            loops: 4,
            ..Default::default()
        });
        let fig = run(&test_env::executor(), &wb, 4, test_env::search());
        assert_eq!(fig.rows.len(), 16);
        // With an unbounded interconnect, adding clusters adds resources, so
        // weighted cycles must not increase dramatically (degradation comes
        // only from communication).
        let unbounded: Vec<&Fig6Row> = fig.rows.iter().filter(|r| r.buses == u32::MAX).collect();
        let single = unbounded.iter().find(|r| r.clusters == 1).unwrap();
        let four = unbounded.iter().find(|r| r.clusters == 4).unwrap();
        assert!(four.execution_cycles <= single.execution_cycles * 1.05);
        assert!(fig.to_string().contains("Figure 6"));
    }
}
