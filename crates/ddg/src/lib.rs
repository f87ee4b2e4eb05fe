//! Loop intermediate representation and data-dependence graphs for modulo
//! scheduling.
//!
//! This crate provides the substrate the MIRS-C scheduler (crate `mirs`)
//! operates on:
//!
//! * [`DepGraph`] — a mutable data-dependence graph whose nodes are machine
//!   operations ([`vliw::Opcode`]) and whose edges carry a dependence kind
//!   and an *iteration distance* (loop-carried dependences). The graph
//!   supports dynamic insertion and removal of nodes, which the scheduler
//!   uses for spill code and inter-cluster moves.
//! * [`LoopBuilder`] / [`Loop`] — a convenient way to describe innermost
//!   loops (the unit of software pipelining), including loop-invariant
//!   values, recurrences and memory access patterns.
//! * [`mii`] — minimum initiation interval bounds (resource-constrained
//!   `ResMII` and recurrence-constrained `RecMII`).
//! * [`recurrence`] — strongly connected components / recurrence circuits.
//! * [`hrms`] — the HRMS-style node pre-ordering used as the priority list
//!   of the iterative scheduler.
//! * [`lifetime`] — value lifetimes, register pressure (`MaxLive`) and the
//!   critical cycle, folded modulo the initiation interval.
//! * [`unroll`] — loop unrolling, used by the workbench to saturate wide
//!   cores with small loop bodies.
//! * [`snap`] — the snapshot codec of dependence graphs, which schedule
//!   cache entries carry, and the loop fingerprint of the cache key.
//!
//! # Example
//!
//! ```
//! use ddg::LoopBuilder;
//! use vliw::{LatencyModel, Opcode};
//!
//! // s = s + a * x[i]
//! let mut b = LoopBuilder::new("dot-step");
//! let a = b.invariant("a");
//! let x = b.load("x");
//! let prod = b.op(Opcode::FpMul, &[a, x]);
//! let s = b.recurrence("s");
//! let sum = b.op(Opcode::FpAdd, &[s, prod]);
//! b.close_recurrence(s, sum, 1);
//! let lp = b.finish(1000);
//!
//! let lat = LatencyModel::default();
//! let mii = ddg::mii::mii(&lp.graph, &lat, 8, 4);
//! // The recurrence s = s + ... forces at least the adder latency per iteration.
//! assert!(mii.rec_mii >= 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod builder;
pub mod collections;
mod graph;
pub mod hrms;
mod ids;
pub mod lifetime;
mod loop_ir;
pub mod mii;
pub mod recurrence;
mod small_list;
pub mod snap;
pub mod unroll;

pub use builder::LoopBuilder;
pub use graph::{DepEdge, DepGraph, DepKind, EdgeId, NodeOrigin, OperationData, ValueData};
pub use ids::{NodeId, ValueId};
pub use loop_ir::{Loop, MemAccess};
