//! Table 1: ΣII and Σtrf of the baseline \[31\] vs MIRS-C with an unbounded
//! number of registers per cluster, for k ∈ {1,2,4} and λm ∈ {1,3}.

use crate::runner::{run_sweep, SweepJob, WorkbenchSummary};
use crate::sweep::SweepExecutor;
use loopgen::Workbench;
use mirs::SearchConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use vliw::{ClusterConfig, MachineConfig};

/// One row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Number of clusters.
    pub clusters: u32,
    /// Move latency λm.
    pub move_latency: u32,
    /// Loops for which the two schedulers produce a different II or traffic.
    pub different_schedules: usize,
    /// ΣII of the baseline over those loops.
    pub baseline_sum_ii: u64,
    /// Σtrf of the baseline over those loops.
    pub baseline_sum_trf: u64,
    /// ΣII of MIRS-C over those loops.
    pub mirs_sum_ii: u64,
    /// Σtrf of MIRS-C over those loops.
    pub mirs_sum_trf: u64,
}

/// The full table plus the raw per-configuration runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// One row per (k, λm).
    pub rows: Vec<Table1Row>,
}

/// Build the machine for one cell: k clusters, unbounded registers, λm.
#[must_use]
pub fn machine(clusters: u32, move_latency: u32) -> MachineConfig {
    MachineConfig::builder()
        .identical_clusters(
            clusters,
            ClusterConfig::unbounded_registers(8 / clusters, 4 / clusters),
        )
        .buses(2)
        .move_latency(move_latency)
        .build()
        .expect("valid unbounded paper config")
}

fn row_from(
    clusters: u32,
    move_latency: u32,
    base: &WorkbenchSummary,
    mirs: &WorkbenchSummary,
) -> Table1Row {
    // Only loops both schedulers converge on are compared (our synthetic
    // workbench occasionally defeats the non-iterative baseline even with
    // unbounded registers, which the paper's workload did not).
    let different: Vec<usize> = base
        .outcomes
        .iter()
        .zip(&mirs.outcomes)
        .enumerate()
        .filter(|(_, (b, m))| b.converged() && m.converged())
        .filter(|(_, (b, m))| b.ii != m.ii || b.memory_traffic != m.memory_traffic)
        .map(|(i, _)| i)
        .collect();
    let in_set = |idx: &[usize], i: usize| idx.contains(&i);
    let sum = |s: &WorkbenchSummary, f: &dyn Fn(&crate::runner::LoopOutcome) -> u64| -> u64 {
        s.outcomes
            .iter()
            .enumerate()
            .filter(|(i, _)| in_set(&different, *i))
            .map(|(_, o)| f(o))
            .sum()
    };
    Table1Row {
        clusters,
        move_latency,
        different_schedules: different.len(),
        baseline_sum_ii: sum(base, &|o| o.ii.map(u64::from).unwrap_or(0)),
        baseline_sum_trf: sum(base, &|o| u64::from(o.memory_traffic)),
        mirs_sum_ii: sum(mirs, &|o| o.ii.map(u64::from).unwrap_or(0)),
        mirs_sum_trf: sum(mirs, &|o| u64::from(o.memory_traffic)),
    }
}

/// Run the whole table on a workbench, sharding every (configuration,
/// scheduler, loop) task across `exec`; MIRS-C climbs with `search`.
#[must_use]
pub fn run(exec: &SweepExecutor, wb: &Workbench, search: SearchConfig) -> Table1 {
    let mut cells: Vec<(u32, u32)> = Vec::new();
    let mut jobs: Vec<SweepJob> = Vec::new();
    for &k in &[1u32, 2, 4] {
        for &lm in &[1u32, 3] {
            let mc = machine(k, lm);
            cells.push((k, lm));
            jobs.push(SweepJob::baseline(mc.clone()));
            jobs.push(SweepJob::mirs(mc, search));
        }
    }
    let summaries = run_sweep(exec, wb, &jobs);
    let rows = cells
        .into_iter()
        .zip(summaries.chunks_exact(2))
        .map(|((k, lm), pair)| row_from(k, lm, &pair[0], &pair[1]))
        .collect();
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: [31] vs MIRS-C, unbounded registers")?;
        writeln!(
            f,
            "{:>2} {:>3} | {:>9} | {:>8} {:>8} | {:>8} {:>8}",
            "k", "lm", "different", "[31] II", "[31] trf", "MIRS II", "MIRS trf"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>2} {:>3} | {:>9} | {:>8} {:>8} | {:>8} {:>8}",
                r.clusters,
                r.move_latency,
                r.different_schedules,
                r.baseline_sum_ii,
                r.baseline_sum_trf,
                r.mirs_sum_ii,
                r.mirs_sum_trf
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
    fn mirs_never_loses_on_sum_ii() {
        let wb = Workbench::generate(&WorkbenchParams {
            loops: 5,
            ..Default::default()
        });
        let t = run(&test_env::executor(), &wb, test_env::search());
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            assert!(
                r.mirs_sum_ii <= r.baseline_sum_ii,
                "k={} lm={}: {} > {}",
                r.clusters,
                r.move_latency,
                r.mirs_sum_ii,
                r.baseline_sum_ii
            );
        }
        assert!(t.to_string().contains("Table 1"));
    }
}
