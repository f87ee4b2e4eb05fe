//! Output checks that do not rely on the scheduler grading itself.

use ddg::lifetime::{LifetimeInterval, Pressure};
use ddg::Loop;
use mirs::{ScheduleError, ScheduleResult};
use vliw::MachineConfig;

/// What one scheduling call produced, and whether it passed every check.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// A schedule was produced (`NotConverged` otherwise).
    pub converged: bool,
    /// First check the schedule failed, if any.
    pub failure: Option<String>,
    pub ii: u32,
    /// MII recomputed from the input loop.
    pub mii: u32,
    pub spill_ops: u32,
    pub moves: u32,
    pub hash: u64,
    pub ops_in: usize,
    pub ops_out: usize,
    /// `memsim` total cycles per iteration.
    pub cycles_per_iter: f64,
}

impl Verdict {
    /// Converged and passed every check.
    pub fn ok(&self) -> bool {
        self.converged && self.failure.is_none()
    }

    pub fn label(&self) -> &'static str {
        match (self.converged, self.failure.is_some()) {
            (_, true) => "failed",
            (true, false) => "ok",
            (false, false) => "not-converged",
        }
    }

    pub fn fail(&mut self, reason: String) {
        self.failure.get_or_insert(reason);
    }
}

/// `MaxLive` per cluster recomputed from the placements of `r`: a value
/// lives in its producer's cluster from its definition to its last use
/// (carried uses shifted by `II × distance`); an invariant holds one
/// register in every cluster that consumes it.
pub fn max_live(r: &ScheduleResult, clusters: usize) -> Vec<u32> {
    let g = &r.graph;
    let ii = i64::from(r.ii);
    let mut intervals: Vec<Vec<LifetimeInterval>> = vec![Vec::new(); clusters];
    let mut invariants = vec![0u32; clusters];
    for v in g.value_ids() {
        let data = g.value(v);
        if data.invariant {
            let mut used = vec![false; clusters];
            for c in g.consumers_of(v) {
                if let Some(p) = r.placements.get(&c) {
                    used[p.cluster.index()] = true;
                }
            }
            for (n, u) in invariants.iter_mut().zip(used) {
                *n += u32::from(u);
            }
            continue;
        }
        let Some((producer, def)) = data
            .producer
            .and_then(|p| r.placements.get(&p).map(|d| (p, d)))
        else {
            continue;
        };
        let mut end = def.cycle;
        for &e in g.out_edge_ids(producer) {
            let edge = g.edge(e);
            if edge.value != Some(v) {
                continue;
            }
            if let Some(u) = r.placements.get(&edge.to) {
                end = end.max(u.cycle + ii * i64::from(edge.distance));
            }
        }
        intervals[def.cluster.index()].push(LifetimeInterval {
            value: v,
            start: def.cycle,
            end,
        });
    }
    intervals
        .iter()
        .zip(&invariants)
        .map(|(iv, &inv)| Pressure::compute(iv, r.ii, inv).max_live())
        .collect()
}

/// Check one scheduling outcome of `lp` on `machine`.
pub fn check(
    lp: &Loop,
    machine: &MachineConfig,
    outcome: Result<&ScheduleResult, &ScheduleError>,
) -> Verdict {
    let mii = ddg::mii::mii(
        &lp.graph,
        machine.latencies(),
        machine.total_gp_units(),
        machine.total_mem_ports(),
    )
    .mii();
    let mut v = Verdict {
        mii,
        ops_in: lp.graph.node_count(),
        ..Verdict::default()
    };
    let r = match outcome {
        Ok(r) => r,
        Err(ScheduleError::NotConverged { .. }) => return v,
        Err(e) => {
            v.fail(format!("scheduling error: {e}"));
            return v;
        }
    };
    v.converged = true;
    v.ii = r.ii;
    v.spill_ops = r.stats.spill_stores + r.stats.spill_loads;
    v.moves = r.moves;
    v.hash = r.schedule_hash();
    v.ops_out = r.graph.node_count();
    if let Err(e) = r.validate(machine) {
        v.fail(format!("validate: {e:?}"));
    }
    if r.ii < mii {
        v.fail(format!("II {} below the recomputed MII {mii}", r.ii));
    }
    for (c, (live, cfg)) in max_live(r, machine.clusters())
        .into_iter()
        .zip(machine.cluster_configs())
        .enumerate()
    {
        if live > cfg.registers {
            v.fail(format!(
                "cluster {c}: recomputed MaxLive {live} exceeds {} registers",
                cfg.registers
            ));
        }
    }
    let run = memsim::simulate(r, lp.trip_count, &memsim::MemoryParams::default());
    v.cycles_per_iter = run.total_cycles() as f64 / lp.trip_count.max(1) as f64;
    v
}
