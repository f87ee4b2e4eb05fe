//! Every artefact of the paper's evaluation in one command: Figure 2,
//! Tables 1–3, Figures 5–7 and the two ablations, printed in the paper's
//! layout on scaled-down workbenches.
//!
//! ```text
//! cargo run --release --example artefacts                  # all nine
//! cargo run --release --example artefacts -- table1 fig5   # a subset
//! ```
//!
//! Names are `fig2`, `table1`, `table2`, `table3`, `fig5`, `fig6`, `fig7`,
//! `gauges` and `ejection`; a subset prints in that order, and an unknown
//! name ends the run with status 2. `MIRS_JOBS` sizes the sweep and
//! `MIRS_STRATEGY`/`MIRS_PRUNE` select the II search. Every line is the same
//! for any worker count except Table 3's seconds columns.

use harness::sweep::SweepExecutor;
use harness::{fig2, fig5, fig6, fig7, table1, table2, table3};
use loopgen::{Workbench, WorkbenchParams};
use mirs::{EjectionPolicy, MirsScheduler, SchedulerOptions, SearchConfig};
use mirs_repro::cli;
use vliw::{HwModel, MachineConfig};

/// One artefact: its name and the function that prints it.
type Artefact = (&'static str, fn(&SweepExecutor, SearchConfig));

const ARTEFACTS: [Artefact; 9] = [
    ("fig2", |_, _| print!("{}", fig2::run(&HwModel::default()))),
    ("table1", |exec, search| {
        print!("{}", table1::run(exec, &workbench(12), search));
    }),
    ("table2", |exec, search| {
        print!("{}", table2::run(exec, &workbench(12), search));
    }),
    ("table3", |exec, search| {
        print!("{}", table3::run(exec, &workbench(12), search));
    }),
    ("fig5", print_fig5),
    ("fig6", |exec, search| {
        print!("{}", fig6::run(exec, &workbench(10), 8, search));
    }),
    ("fig7", print_fig7),
    ("gauges", print_gauges),
    ("ejection", print_ejection),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = ARTEFACTS.iter().map(|(name, _)| *name).collect();
    if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!("unknown artefact '{bad}' (expected {})", known.join("|"));
        std::process::exit(2);
    }
    let (exec, search) = (cli::env_executor(), cli::env_search());
    let chosen = ARTEFACTS
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name));
    for (i, (_, print)) in chosen.enumerate() {
        if i > 0 {
            println!();
        }
        print(&exec, search);
    }
}

/// The default synthetic workbench, `loops` loops long.
fn workbench(loops: usize) -> Workbench {
    Workbench::generate(&WorkbenchParams {
        loops,
        ..Default::default()
    })
}

/// Figure 5, then the paper's headline: clustered configurations lose a
/// few percent in cycles but win once the shorter cycle time counts.
fn print_fig5(exec: &SweepExecutor, search: SearchConfig) {
    let fig = fig5::run(exec, &workbench(16), &HwModel::default(), search);
    println!("{fig}");
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

/// Figure 7, then the share of stall cycles binding prefetching removes:
/// it costs registers, so the clustered configurations gain the most.
fn print_fig7(exec: &SweepExecutor, search: SearchConfig) {
    let fig = fig7::run(exec, &workbench(12), &HwModel::default(), search);
    println!("{fig}");
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

/// ΣII, Σ memory traffic and Σ ejections over the loops of `wb` that
/// converge with `opts` on `machine`.
fn sums(wb: &Workbench, machine: &MachineConfig, opts: SchedulerOptions) -> (u64, u64, u64) {
    let mut sums = (0, 0, 0);
    for lp in wb.loops() {
        if let Ok(r) = MirsScheduler::new(machine, opts).schedule(lp) {
            sums.0 += u64::from(r.ii);
            sums.1 += u64::from(r.memory_traffic);
            sums.2 += r.stats.ejections;
        }
    }
    sums
}

/// Ablation: the spill gauge (SG), minimum span gauge (MSG) and distance
/// gauge (DG) varied one at a time around the defaults.
fn print_gauges(_: &SweepExecutor, search: SearchConfig) {
    let wb = workbench(8);
    let machine = MachineConfig::paper_config(4, 16).expect("paper config");
    println!("Ablation: gauges on 4-(GP2M1-REG16)");
    println!(
        "{:>4} {:>4} {:>4} {:>10} {:>10}",
        "SG", "MSG", "DG", "sum II", "sum trf"
    );
    for (sg, msg, dg) in [
        (1.0, 4, 4),
        (2.0, 4, 4),
        (4.0, 4, 4),
        (2.0, 1, 4),
        (2.0, 8, 4),
        (2.0, 4, 1),
        (2.0, 4, 8),
    ] {
        let opts = SchedulerOptions::default()
            .with_search(search)
            .with_spill_gauge(sg)
            .with_min_span_gauge(msg)
            .with_distance_gauge(dg);
        let (sum_ii, sum_trf, _) = sums(&wb, &machine, opts);
        println!("{sg:>4} {msg:>4} {dg:>4} {sum_ii:>10} {sum_trf:>10}");
    }
}

/// Ablation: ejecting one conflicting operation (MIRS-C) against ejecting
/// all of them (Huff/Rau-style iterative schedulers).
fn print_ejection(_: &SweepExecutor, search: SearchConfig) {
    let wb = workbench(8);
    let machine = MachineConfig::paper_config(4, 32).expect("paper config");
    println!("Ablation: ejection policy on 4-(GP2M1-REG32)");
    println!(
        "{:>8} {:>10} {:>10} {:>12}",
        "policy", "sum II", "sum trf", "ejections"
    );
    for (name, policy) in [("one", EjectionPolicy::One), ("all", EjectionPolicy::All)] {
        let opts = SchedulerOptions::default()
            .with_search(search)
            .with_ejection(policy);
        let (sum_ii, sum_trf, ejections) = sums(&wb, &machine, opts);
        println!("{name:>8} {sum_ii:>10} {sum_trf:>10} {ejections:>12}");
    }
}
