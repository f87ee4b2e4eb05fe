//! Table 3: scheduling (compile) time of the baseline \[31\] vs MIRS-C for
//! several unbounded and register-constrained configurations.

use crate::runner::{run_sweep, SweepJob};
use crate::sweep::SweepExecutor;
use loopgen::Workbench;
use mirs::SearchConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use vliw::{ClusterConfig, MachineConfig};

/// One row of Table 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Configuration label (`k x z`, with `z = inf` for unbounded).
    pub config: String,
    /// Move latency λm.
    pub move_latency: u32,
    /// Loops for which the baseline found a schedule.
    pub baseline_converged: usize,
    /// Total scheduling seconds of the baseline (over converged loops).
    pub baseline_seconds: f64,
    /// Total scheduling seconds of MIRS-C over the same subset of loops.
    pub mirs_seconds_same_subset: f64,
    /// Total scheduling seconds of MIRS-C over all loops.
    pub mirs_seconds_all: f64,
}

/// The full table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// One row per configuration and move latency.
    pub rows: Vec<Table3Row>,
}

/// Run the scheduling-time comparison on a workbench, sharding every
/// (configuration, scheduler, loop) task across `exec`; MIRS-C climbs
/// with `search`.
#[must_use]
pub fn run(exec: &SweepExecutor, wb: &Workbench, search: SearchConfig) -> Table3 {
    let configs: Vec<(String, u32, Option<u32>)> = vec![
        ("1 x inf".into(), 1, None),
        ("1 x 64".into(), 1, Some(64)),
        ("2 x inf".into(), 2, None),
        ("2 x 32".into(), 2, Some(32)),
        ("4 x inf".into(), 4, None),
        ("4 x 16".into(), 4, Some(16)),
    ];
    let mut cells: Vec<(String, u32)> = Vec::new();
    let mut jobs: Vec<SweepJob> = Vec::new();
    for &lm in &[1u32, 3] {
        for (label, k, z) in &configs {
            let cluster = match z {
                Some(z) => ClusterConfig::new(8 / k, 4 / k, *z),
                None => ClusterConfig::unbounded_registers(8 / k, 4 / k),
            };
            let mc = MachineConfig::builder()
                .identical_clusters(*k, cluster)
                .buses(2)
                .move_latency(lm)
                .build()
                .expect("valid config");
            cells.push((label.clone(), lm));
            jobs.push(SweepJob::baseline(mc.clone()));
            jobs.push(SweepJob::mirs(mc, search));
        }
    }
    let summaries = run_sweep(exec, wb, &jobs);
    let rows = cells
        .into_iter()
        .zip(summaries.chunks_exact(2))
        .map(|((config, move_latency), pair)| {
            let (base, mirs) = (&pair[0], &pair[1]);
            let converged_idx: Vec<usize> = base
                .outcomes
                .iter()
                .enumerate()
                .filter(|(_, o)| o.converged())
                .map(|(i, _)| i)
                .collect();
            let baseline_seconds: f64 = converged_idx
                .iter()
                .map(|&i| base.outcomes[i].scheduling_seconds)
                .sum();
            let mirs_same: f64 = converged_idx
                .iter()
                .map(|&i| mirs.outcomes[i].scheduling_seconds)
                .sum();
            Table3Row {
                config,
                move_latency,
                baseline_converged: converged_idx.len(),
                baseline_seconds,
                mirs_seconds_same_subset: mirs_same,
                mirs_seconds_all: mirs.total_scheduling_seconds(),
            }
        })
        .collect();
    Table3 { rows }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 3: scheduling time (seconds)")?;
        writeln!(
            f,
            "{:<10} {:>3} {:>8} {:>12} {:>14} {:>12}",
            "config", "lm", "loops", "[31] time", "MIRS-C (same)", "MIRS-C (all)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>3} {:>8} {:>12.3} {:>14.3} {:>12.3}",
                r.config,
                r.move_latency,
                r.baseline_converged,
                r.baseline_seconds,
                r.mirs_seconds_same_subset,
                r.mirs_seconds_all
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
    fn table_has_all_configurations_and_positive_times() {
        let wb = Workbench::generate(&WorkbenchParams {
            loops: 3,
            ..Default::default()
        });
        let t = run(&test_env::executor(), &wb, test_env::search());
        assert_eq!(t.rows.len(), 12);
        for r in &t.rows {
            assert!(r.mirs_seconds_all >= r.mirs_seconds_same_subset);
            assert!(r.mirs_seconds_all > 0.0);
        }
        assert!(t.to_string().contains("Table 3"));
    }
}
