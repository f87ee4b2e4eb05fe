//! Design-space exploration: how clustering trades execution cycles for
//! cycle time, area and power — the experiment behind Figures 2 and 5.
//!
//! Run with: `cargo run --release --example clustered_exploration`
//!
//! `--strategy linear|backtrack|exact` selects the II-search strategy for
//! every scheduled loop by mapping the flag onto `MIRS_STRATEGY` before the
//! first scheduler run (the table/fig runners all read that variable).

use harness::{fig2, fig5};
use loopgen::{Workbench, WorkbenchParams};
use vliw::HwModel;

/// Map a `--strategy NAME` flag onto the `MIRS_STRATEGY` environment
/// variable (validated), so every runner downstream picks it up.
fn apply_strategy_flag() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let name = loop {
        match it.next() {
            Some(a) if a == "--strategy" => break it.next().cloned(),
            Some(a) => {
                if let Some(v) = a.strip_prefix("--strategy=") {
                    break Some(v.to_string());
                }
            }
            None => break None,
        }
    };
    if let Some(name) = name {
        if mirs::SearchStrategyKind::parse(&name).is_none() {
            let expected = mirs::SearchStrategyKind::ALL.map(|s| s.label()).join("|");
            eprintln!("unknown strategy '{name}' (expected {expected})");
            std::process::exit(2);
        }
        std::env::set_var(mirs::STRATEGY_ENV, &name);
        println!("II-search strategy: {name}\n");
    }
}

fn main() {
    apply_strategy_flag();
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
    let fig = fig5::run(&wb, &hw);
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
