//! Table 2: ΣII and Σtrf of the baseline \[31\] vs MIRS-C when the total
//! number of registers is constrained to k × z = 64, plus the number of
//! loops for which the baseline does not converge.

use crate::runner::{run_sweep, SweepJob, WorkbenchSummary};
use crate::sweep::SweepExecutor;
use loopgen::Workbench;
use mirs::SearchConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use vliw::MachineConfig;

/// One row of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Number of clusters (z = 64/k registers per cluster).
    pub clusters: u32,
    /// Move latency λm.
    pub move_latency: u32,
    /// Loops on which the baseline does not converge ("Not Cnvr").
    pub baseline_not_converged: usize,
    /// Loops on which MIRS-C does not converge (expected 0).
    pub mirs_not_converged: usize,
    /// Loops with different II and/or traffic (among those both schedule).
    pub different_schedules: usize,
    /// ΣII of the baseline over the differing loops.
    pub baseline_sum_ii: u64,
    /// Σtrf of the baseline over the differing loops.
    pub baseline_sum_trf: u64,
    /// ΣII of MIRS-C over the differing loops.
    pub mirs_sum_ii: u64,
    /// Σtrf of MIRS-C over the differing loops.
    pub mirs_sum_trf: u64,
}

/// The full table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// One row per (k, λm).
    pub rows: Vec<Table2Row>,
}

fn row_from(
    clusters: u32,
    move_latency: u32,
    base: &WorkbenchSummary,
    mirs: &WorkbenchSummary,
) -> Table2Row {
    let both: Vec<usize> = base
        .outcomes
        .iter()
        .zip(&mirs.outcomes)
        .enumerate()
        .filter(|(_, (b, m))| b.converged() && m.converged())
        .filter(|(_, (b, m))| b.ii != m.ii || b.memory_traffic != m.memory_traffic)
        .map(|(i, _)| i)
        .collect();
    let sum = |s: &WorkbenchSummary, f: &dyn Fn(&crate::runner::LoopOutcome) -> u64| -> u64 {
        s.outcomes
            .iter()
            .enumerate()
            .filter(|(i, _)| both.contains(i))
            .map(|(_, o)| f(o))
            .sum()
    };
    Table2Row {
        clusters,
        move_latency,
        baseline_not_converged: base.not_converged(),
        mirs_not_converged: mirs.not_converged(),
        different_schedules: both.len(),
        baseline_sum_ii: sum(base, &|o| o.ii.map(u64::from).unwrap_or(0)),
        baseline_sum_trf: sum(base, &|o| u64::from(o.memory_traffic)),
        mirs_sum_ii: sum(mirs, &|o| o.ii.map(u64::from).unwrap_or(0)),
        mirs_sum_trf: sum(mirs, &|o| u64::from(o.memory_traffic)),
    }
}

/// Run the whole table on a workbench (k × z = 64 registers in total),
/// sharding every (configuration, scheduler, loop) task across `exec`;
/// MIRS-C climbs with `search`.
#[must_use]
pub fn run(exec: &SweepExecutor, wb: &Workbench, search: SearchConfig) -> Table2 {
    let mut cells: Vec<(u32, u32)> = Vec::new();
    let mut jobs: Vec<SweepJob> = Vec::new();
    for &k in &[1u32, 2, 4] {
        for &lm in &[1u32, 3] {
            let mc = MachineConfig::builder()
                .identical_clusters(k, vliw::ClusterConfig::new(8 / k, 4 / k, 64 / k))
                .buses(2)
                .move_latency(lm)
                .build()
                .expect("valid constrained config");
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
    Table2 { rows }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2: [31] vs MIRS-C, k x z = 64 registers")?;
        writeln!(
            f,
            "{:>2} {:>3} | {:>8} {:>8} | {:>9} | {:>8} {:>8} | {:>8} {:>8}",
            "k",
            "lm",
            "NotCnvr",
            "MIRS-NC",
            "different",
            "[31] II",
            "[31] trf",
            "MIRS II",
            "MIRS trf"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>2} {:>3} | {:>8} {:>8} | {:>9} | {:>8} {:>8} | {:>8} {:>8}",
                r.clusters,
                r.move_latency,
                r.baseline_not_converged,
                r.mirs_not_converged,
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
    fn mirs_always_converges_and_never_loses_on_ii() {
        let wb = Workbench::generate(&WorkbenchParams {
            loops: 5,
            ..Default::default()
        });
        let t = run(&test_env::executor(), &wb, test_env::search());
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            assert_eq!(r.mirs_not_converged, 0, "MIRS-C must always converge");
            assert!(r.mirs_sum_ii <= r.baseline_sum_ii);
        }
        assert!(t.to_string().contains("Table 2"));
    }
}
