//! Workspace umbrella crate for the MIRS-C reproduction.
//!
//! This crate hosts the cross-crate integration tests under `tests/`, the
//! runnable examples under `examples/` and [`cli`], the one place those
//! front ends parse flags and `MIRS_*` variables.
//! The actual implementation lives in the `crates/` members:
//!
//! * `vliw` — clustered VLIW machine model and hardware cost model.
//! * `ddg` — loop IR, data-dependence graphs, MII bounds, HRMS ordering.
//! * `mirs` — the MIRS-C iterative modulo scheduler itself.
//! * `baseline` — the non-iterative comparison scheduler (ref. \[31\]).
//! * `loopgen` — synthetic workbench standing in for the Perfect Club loops.
//! * `memsim` — lockup-free cache and execution model.
//! * `harness` — drivers reproducing every paper table and figure.

pub mod cli;
