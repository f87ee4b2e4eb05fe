//! Experiment drivers reproducing every table and figure of the MIRS-C
//! paper's evaluation (Section 4).
//!
//! Each experiment module runs the workbench (crate `loopgen`) through the
//! MIRS-C scheduler (crate `mirs`) and, where the paper compares against the
//! non-iterative scheduler of reference \[31\], through the baseline
//! scheduler (crate `baseline`). The modules return plain data structures
//! and implement [`std::fmt::Display`], so the examples print tables shaped
//! like the paper's: `examples/artefacts.rs` prints every one of them.
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Figure 2 (cycle time / area / power)            | [`fig2`] |
//! | Table 1 (unbounded registers, \[31\] vs MIRS-C)   | [`table1`] |
//! | Table 2 (64 registers total, \[31\] vs MIRS-C)    | [`table2`] |
//! | Table 3 (scheduling time)                       | [`table3`] |
//! | Figure 5 (ideal memory design-space sweep)      | [`fig5`] |
//! | Figure 6 (scalability with clusters and buses)  | [`fig6`] |
//! | Figure 7 (real memory and binding prefetching)  | [`fig7`] |
//!
//! # Parallel execution and the determinism guarantee
//!
//! Every experiment routes its per-(loop, machine-config) tasks through the
//! [`sweep::SweepExecutor`] worker pool its caller passes in. Results are
//! collected by task index, never by completion order,
//! so a parallel run is **byte-identical** to a serial one: the same
//! `LoopOutcome` vectors, the same `ScheduleResult::schedule_hash` values,
//! the same printed tables, for any thread count and any interleaving. The
//! guarantee is enforced by the golden schedule-hash tests, by a property
//! test driving 1-, 2- and N-thread sweeps against each other
//! (`tests/parallel_sweep.rs`), and by the CI matrix running the whole
//! suite under both `MIRS_JOBS=1` and `MIRS_JOBS=4`.
//!
//! # Search-strategy selection
//!
//! Every MIRS-C entry point ([`runner::schedule_loop`],
//! [`runner::run_workbench`], [`runner::time_workbench`],
//! [`SweepJob::mirs`] and each table and figure driver's `run`) takes its
//! `mirs::SearchConfig` as an argument: `linear` (the paper's climb),
//! `backtrack` or `exact`. The library reads no environment variable, so
//! one process can compare several strategies and a call behaves the same
//! in every process. Strategy exploration is seed-derived and
//! deterministic, so the parallel-equals-serial guarantee above holds for
//! every strategy. Parallelism is across loops only: one loop's search
//! runs its attempts one after another on the worker that claimed it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod runner;
pub mod service;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;

pub use cache::{cache_key, CacheKey, CacheStats, ScheduleCache, StoreOutcome};
pub use runner::{
    run_sweep, run_workbench, LoopOutcome, SchedulerKind, SweepJob, WorkbenchSummary,
};
pub use service::{Provenance, ScheduleRequest, ScheduleResponse, ScheduleService};
pub use sweep::{SweepError, SweepExecutor};

/// The unit tests' edge: the process environment parsed the way the front
/// ends parse it, so the `MIRS_JOBS`, `MIRS_STRATEGY` and `MIRS_PRUNE` CI
/// legs reach the table, figure and runner tests too.
#[cfg(test)]
mod test_env {
    fn var(name: &str) -> Option<String> {
        std::env::var(name).ok()
    }

    /// The sweep executor `MIRS_JOBS` selects.
    pub(crate) fn executor() -> crate::SweepExecutor {
        crate::SweepExecutor::from_vars(var)
    }

    /// The search configuration the `MIRS_*` search variables select.
    pub(crate) fn search() -> mirs::SearchConfig {
        mirs::SearchConfig::from_vars(var)
    }
}
