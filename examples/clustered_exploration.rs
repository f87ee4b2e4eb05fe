//! Design-space exploration: how clustering trades execution cycles for
//! cycle time, area and power — the experiment behind Figures 2 and 5.
//!
//! Run with: `cargo run --release --example clustered_exploration`
//!
//! `--strategy linear|backtrack|exact` selects the II-search strategy for
//! every scheduled loop (default: `MIRS_STRATEGY`); `MIRS_JOBS` sizes the
//! sweep.

use harness::{fig2, fig5};
use loopgen::{Workbench, WorkbenchParams};
use mirs_repro::cli;
use vliw::HwModel;

fn main() {
    let search = cli::search();
    if cli::flag_arg("strategy").is_some() {
        println!("II-search strategy: {}\n", search.strategy);
    }
    let hw = HwModel::default();
    println!("{}", fig2::run(&hw));

    let wb = Workbench::generate(&WorkbenchParams {
        loops: 16,
        ..Default::default()
    });
    println!(
        "Scheduling a {}-loop workbench on every k/z/lambda_m design point...\n",
        wb.loops().len()
    );
    let fig = fig5::run(&cli::env_executor(), &wb, &hw, search);
    println!("{fig}");

    // The paper's headline: clustered configurations lose a few percent in
    // cycles but win once the shorter cycle time is factored in.
    if let (Some(uni), Some(two), Some(four)) =
        (fig.row(1, 64, 1), fig.row(2, 32, 1), fig.row(4, 16, 1))
    {
        println!("relative to 1-(GP8M4-REG64) with the same 64 total registers:");
        for (label, row) in [("2 clusters", two), ("4 clusters", four)] {
            println!(
                "  {label}: {:+.1}% cycles, speed-up {:.2}x in execution time",
                (row.execution_cycles / uni.execution_cycles - 1.0) * 100.0,
                uni.execution_time_ns / row.execution_time_ns
            );
        }
    }
}
