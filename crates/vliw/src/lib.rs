//! Clustered VLIW machine model for modulo scheduling research.
//!
//! This crate describes the *target architecture* used by the MIRS-C
//! reproduction: a statically scheduled VLIW core whose functional units and
//! register files are partitioned into **clusters**, connected by a small
//! number of **buses**. It provides:
//!
//! * [`Opcode`] / [`OpClass`] — the operation repertoire of the core
//!   (floating-point arithmetic, memory accesses, spill accesses and
//!   inter-cluster `move` operations) together with a configurable
//!   [`LatencyModel`].
//! * [`ReservationTable`] — the per-operation resource usage pattern,
//!   including the *coupled send/receive* pattern of inter-cluster moves.
//! * [`ClusterConfig`] and [`MachineConfig`] — the machine description used
//!   throughout the workspace, with the paper's `k-(GPxMy-REGz)` naming.
//! * [`HwModel`] — an analytical register-file technology model in the style
//!   of Rixner et al. used to reproduce Figure 2 of the paper (cycle time,
//!   area and power as a function of registers, ports and clustering).
//! * [`snap`] — the versioned binary snapshot codec ([`SnapEncode`] /
//!   [`SnapDecode`], the sealed envelope, typed [`SnapError`]) that the
//!   schedule cache's entries are written in.
//!
//! # Example
//!
//! ```
//! use vliw::{MachineConfig, HwModel};
//!
//! // The paper's 4-cluster configuration: 4 x (GP2 M1 REG32), 2 buses.
//! let mc = MachineConfig::paper_config(4, 32)?;
//! assert_eq!(mc.clusters(), 4);
//! assert_eq!(mc.total_registers(), 128);
//!
//! let hw = HwModel::default();
//! let unified = MachineConfig::paper_config(1, 64)?;
//! // Clustering shortens the register-file critical path.
//! assert!(hw.cycle_time_ps(&mc) < hw.cycle_time_ps(&unified));
//! # Ok::<(), vliw::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cluster;
mod config;
mod error;
mod hw_model;
mod op;
mod reservation;
mod resource;
pub mod snap;

pub use cluster::ClusterConfig;
pub use config::{MachineBuilder, MachineConfig};
pub use error::ConfigError;
pub use hw_model::{HwEstimate, HwModel};
pub use op::{LatencyModel, MemLatency, OpClass, Opcode};
pub use reservation::{ReservationTable, ResourceUse};
pub use resource::{ClusterId, ResourceIndexer, ResourceKind};
pub use snap::{SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
