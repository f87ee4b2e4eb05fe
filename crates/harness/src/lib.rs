//! Experiment drivers reproducing every table and figure of the MIRS-C
//! paper's evaluation (Section 4).
//!
//! Each experiment module runs the workbench (crate `loopgen`) through the
//! MIRS-C scheduler (crate `mirs`) and, where the paper compares against the
//! non-iterative scheduler of reference \[31\], through the baseline
//! scheduler (crate `baseline`). The modules return plain data structures
//! and implement [`std::fmt::Display`] so the bench harness, the examples
//! and the command-line runners can print tables shaped like the paper's.
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
//! [`sweep::SweepExecutor`] worker pool (`MIRS_JOBS` threads, default: all
//! cores). Results are collected by task index, never by completion order,
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
//! Every MIRS-C entry point honours the `MIRS_STRATEGY` environment
//! variable (`linear` — the default paper climb —, `backtrack`,
//! `exact`); the `_opts` runner variants
//! ([`runner::schedule_loop_opts`], [`runner::run_workbench_opts`],
//! [`runner::time_workbench_opts`]) and [`SweepJob::with_search`] take an
//! explicit `mirs::SearchConfig` instead, which is how one process
//! compares several strategies. Strategy exploration is seed-derived and
//! deterministic, so the parallel-equals-serial guarantee above holds for
//! every strategy.
//!
//! The `backtrack` and `exact` strategies can additionally fan the
//! independent attempts of each candidate-II group across a nested
//! [`sweep::BranchPool`] (`MIRS_BRANCH_JOBS` workers, default 1). Branch outcomes are merged in
//! deterministic attempt order, so schedules stay byte-identical to the
//! serial search for any `MIRS_JOBS` × `MIRS_BRANCH_JOBS` combination;
//! nested pools clamp themselves to the cores the outer sweep leaves free.

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
    run_sweep, run_workbench, run_workbench_opts, run_workbench_with, LoopOutcome, SchedulerKind,
    SweepJob, WorkbenchSummary,
};
pub use service::{Provenance, ScheduleRequest, ScheduleResponse, ScheduleService};
pub use sweep::{BranchPool, CancelToken, SweepError, SweepExecutor, SweepHooks};
