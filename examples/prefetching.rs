//! Binding prefetching under a real memory hierarchy: useful vs. stall
//! cycles for clustered and unified cores — the experiment behind Figure 7.
//!
//! Run with: `cargo run --release --example prefetching`

use harness::fig7;
use loopgen::{Workbench, WorkbenchParams};
use mirs_repro::cli;
use vliw::HwModel;

fn main() {
    let wb = Workbench::generate(&WorkbenchParams {
        loops: 12,
        ..Default::default()
    });
    let hw = HwModel::default();
    let fig = fig7::run(&cli::env_executor(), &wb, &hw, cli::env_search());
    println!("{fig}");

    // The paper's observation: prefetching removes stall cycles at the cost
    // of register pressure, so configurations with more total registers
    // (clustered ones) benefit the most.
    for &(k, z) in &fig7::paper_configs() {
        if let (Some(normal), Some(pf)) = (fig.row(k, z, false), fig.row(k, z, true)) {
            let saved = normal.stall_cycles - pf.stall_cycles.min(normal.stall_cycles);
            println!(
                "k={k} z={z}: prefetching removes {:.0}% of stall cycles",
                if normal.stall_cycles > 0.0 {
                    100.0 * saved / normal.stall_cycles
                } else {
                    0.0
                }
            );
        }
    }
}
