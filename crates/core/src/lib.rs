//! MIRS-C: **M**odulo scheduling with **I**ntegrated **R**egister
//! **S**pilling and **C**luster assignment.
//!
//! This crate implements the scheduling algorithm of Zalamea, Llosa, Ayguadé
//! and Valero (MICRO-34, 2001). MIRS-C software-pipelines an innermost loop
//! for a (possibly clustered) VLIW core while performing, *in a single
//! step*:
//!
//! * instruction scheduling at an initiation interval (II) as close as
//!   possible to the minimum II,
//! * register allocation (register requirements are tracked as `MaxLive`),
//! * register spilling (store/load insertion controlled by the spill gauge,
//!   minimum span gauge and distance gauge heuristics), and
//! * cluster assignment with insertion of inter-cluster `move` operations.
//!
//! The algorithm is *iterative with limited backtracking*: when an operation
//! cannot be placed it is forced into a cycle and the conflicting operation
//! (plus any dependence-violated neighbours) is ejected back onto the
//! priority list; spill code and moves can likewise be undone. A *budget*
//! bounds the number of attempts before the II is increased and the
//! schedule restarted.
//!
//! # Quick start
//!
//! ```
//! use ddg::LoopBuilder;
//! use mirs::{MirsScheduler, SchedulerOptions};
//! use vliw::{MachineConfig, Opcode};
//!
//! // y[i] = a * x[i] + y[i]
//! let mut b = LoopBuilder::new("daxpy");
//! let a = b.invariant("a");
//! let x = b.load("x");
//! let y = b.load("y");
//! let ax = b.op(Opcode::FpMul, &[a, x]);
//! let sum = b.op(Opcode::FpAdd, &[ax, y]);
//! b.store("y", sum);
//! let lp = b.finish(1000);
//!
//! let machine = MachineConfig::paper_config(2, 32)?;          // 2-(GP4M2-REG32)
//! let scheduler = MirsScheduler::new(&machine, SchedulerOptions::default());
//! let result = scheduler.schedule(&lp).expect("schedulable loop");
//! assert!(result.ii >= 1);
//! # Ok::<(), vliw::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster_assign;
mod error;
mod options;
mod prefetch;
mod pressure;
mod priority;
mod result;
mod schedule;
mod scheduler;
mod scratch;
pub mod search;
mod slots;
pub mod snap;
mod spill;

pub use error::ScheduleError;
pub use options::{
    EjectionPolicy, PrefetchPolicy, SchedulerOptions, SearchConfig, SearchStrategyKind,
    BRANCH_JOBS_ENV, PRUNE_ENV, STRATEGY_ENV,
};
pub use prefetch::apply_prefetch_policy;
pub use result::{
    Placement, ScheduleResult, SchedulerStats, SearchMeta, SearchProof, ValidationError,
};
pub use schedule::{FoldedTable, PartialSchedule};
pub use scheduler::MirsScheduler;
pub use scratch::SchedScratch;
pub use search::BranchExecutor;
