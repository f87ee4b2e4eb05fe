//! `optimality_gap` — CI auditor comparing the heuristic strategies
//! against the exact branch-and-bound certifier.
//!
//! Schedules a slice of small loops (pinned hard cases, the hand-written
//! kernels, and a deterministic grid of synthetic generator specs) three
//! times — `linear`, `backtrack`, `exact` — on the paper's 1x64
//! configuration, and writes a `GAP_report.json` with one row per loop:
//! the certified lower bound, every achieved II, the optimality proof and
//! the heuristic gap.
//!
//! The audit **fails** (non-zero exit) when:
//!
//! * any strategy converges *below* the certified lower bound — a
//!   soundness violation in the certifier's relaxation, the one thing this
//!   audit exists to catch;
//! * the exact strategy proves optimality for less than
//!   `--min-optimal-frac` of the slice (default 0.8) — the budget or the
//!   pruning regressed;
//! * the median `linear II − lower bound` gap exceeds `--max-median-gap`
//!   (default 1) — the heuristic regressed against the oracle.
//!
//! Synthetic loops where the linear climb lands ≥ 2 cycles above the
//! certified bound are printed as ready-to-pin [`loopgen::HardCase`]
//! specs, the feed stock for `loopgen::hard::HARD_CASES`.
//!
//! ```text
//! cargo run --release --example optimality_gap -- --loops 48 --report GAP_report.json
//! ```

use loopgen::{hard_cases, kernels, synthetic, SyntheticParams};
use mirs::{MirsScheduler, ScheduleResult, SchedulerOptions, SearchConfig};
use mirs_repro::cli;
use vliw::MachineConfig;

/// One audited loop: its provenance plus the three scheduling outcomes.
struct Row {
    name: String,
    nodes: usize,
    mii: u32,
    lower_bound: u32,
    proof: String,
    optimal: bool,
    exact_ii: u32,
    backtrack_ii: u32,
    linear_ii: u32,
    gap_linear: i64,
    /// Candidate IIs the admission filter pruned from the linear climb —
    /// a free coverage signal for the relaxation's strength on this loop.
    pruned_iis: u32,
    /// Generator spec when the loop is synthetic (pinnable as a HardCase).
    spec: Option<(SyntheticParams, u64)>,
}

fn schedule(
    machine: &MachineConfig,
    lp: &ddg::Loop,
    search: SearchConfig,
) -> Option<ScheduleResult> {
    MirsScheduler::new(machine, SchedulerOptions::default().with_search(search))
        .schedule(lp)
        .ok()
}

/// Deterministic grid of small synthetic generator specs: every audited
/// loop has a printable `(params, seed)` so a bad one can be pinned as a
/// named regression workload verbatim.
fn synthetic_grid(limit: usize, max_nodes: usize) -> Vec<(ddg::Loop, SyntheticParams, u64)> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    for arith in 3..=8usize {
        for streams in 1..=2usize {
            for recurrences in 0..=2usize {
                for &long_latency_fraction in &[0.0, 0.3, 0.7] {
                    for recurrence_distance in 1..=2u32 {
                        seed += 1;
                        if out.len() >= limit {
                            return out;
                        }
                        let params = SyntheticParams {
                            arith_ops: arith,
                            input_streams: streams,
                            output_stores: 1,
                            invariants: 1,
                            long_latency_fraction,
                            recurrences,
                            recurrence_distance,
                            trip_count: 500,
                        };
                        let lp = synthetic::generate(&params, seed);
                        if lp.body_size() <= max_nodes {
                            out.push((lp, params, seed));
                        }
                    }
                }
            }
        }
    }
    out
}

fn median(mut xs: Vec<i64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2] as f64
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) as f64 / 2.0
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn main() {
    let loops: usize = cli::flag_parse("loops").unwrap_or(48);
    let max_nodes: usize = cli::flag_parse("max-nodes").unwrap_or(12);
    let budget: u64 = cli::flag_parse("budget").unwrap_or(SearchConfig::exact().exact_budget);
    let min_optimal_frac: f64 = cli::flag_parse("min-optimal-frac").unwrap_or(0.8);
    let max_median_gap: f64 = cli::flag_parse("max-median-gap").unwrap_or(1.0);
    let report_path = cli::flag_arg("report").unwrap_or_else(|| "GAP_report.json".to_string());

    // Default is the paper's unclustered 1x64; `--config KxR` (e.g. 1x16)
    // audits a register-tight machine where spilling pushes the heuristics
    // away from the resource/recurrence bound.
    let machine = cli::paper_config(&cli::flag_arg("config").unwrap_or_else(|| "1x64".to_string()));

    // The audited slice: pinned hard cases, the small hand-written
    // kernels, then the deterministic synthetic grid.
    let mut slice: Vec<(ddg::Loop, Option<(SyntheticParams, u64)>)> = Vec::new();
    for lp in hard_cases() {
        slice.push((lp, None));
    }
    for lp in kernels::all_kernels(1000) {
        if lp.body_size() <= max_nodes {
            slice.push((lp, None));
        }
    }
    for (lp, params, seed) in synthetic_grid(loops, max_nodes) {
        slice.push((lp, Some((params, seed))));
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut skipped = 0usize;
    let mut soundness_violations = 0usize;
    for (lp, spec) in &slice {
        let exact = schedule(
            &machine,
            lp,
            SearchConfig::exact().with_exact_budget(budget),
        );
        let backtrack = schedule(&machine, lp, SearchConfig::backtracking());
        let linear = schedule(&machine, lp, SearchConfig::linear());
        let (Some(exact), Some(backtrack), Some(linear)) = (exact, backtrack, linear) else {
            skipped += 1;
            continue;
        };
        let lower_bound = exact.certified_lower_bound().unwrap_or(exact.mii);
        for (strategy, r) in [
            ("exact", &exact),
            ("backtrack", &backtrack),
            ("linear", &linear),
        ] {
            if r.ii < lower_bound {
                soundness_violations += 1;
                eprintln!(
                    "SOUNDNESS VIOLATION: {} converged at II {} below the \
                     certified lower bound {} on '{}'",
                    strategy, r.ii, lower_bound, lp.name
                );
            }
        }
        rows.push(Row {
            name: lp.name.clone(),
            nodes: lp.body_size(),
            mii: exact.mii,
            lower_bound,
            proof: exact.search.proof.label().to_string(),
            optimal: exact.search.proof.is_optimal(),
            exact_ii: exact.ii,
            backtrack_ii: backtrack.ii,
            linear_ii: linear.ii,
            gap_linear: i64::from(linear.ii) - i64::from(lower_bound),
            pruned_iis: linear.search.pruned_iis,
            spec: *spec,
        });
    }

    let optimal = rows.iter().filter(|r| r.optimal).count();
    let optimal_fraction = if rows.is_empty() {
        0.0
    } else {
        optimal as f64 / rows.len() as f64
    };
    let median_gap = median(rows.iter().map(|r| r.gap_linear).collect());
    let pruned_total: u64 = rows.iter().map(|r| u64::from(r.pruned_iis)).sum();
    let pruned_loops = rows.iter().filter(|r| r.pruned_iis > 0).count();

    // Stash hook: print pin-ready specs for synthetic loops where the
    // linear climb is far from the certified optimum.
    for r in rows.iter().filter(|r| r.gap_linear >= 2) {
        if let Some((p, seed)) = &r.spec {
            println!(
                "HARD CASE candidate '{}' (linear {} vs bound {}): \
                 HardCase {{ name: \"...\", params: SyntheticParams {{ \
                 arith_ops: {}, input_streams: {}, output_stores: {}, \
                 invariants: {}, long_latency_fraction: {}, recurrences: {}, \
                 recurrence_distance: {}, trip_count: {} }}, seed: {} }}",
                r.name,
                r.linear_ii,
                r.lower_bound,
                p.arith_ops,
                p.input_streams,
                p.output_stores,
                p.invariants,
                p.long_latency_fraction,
                p.recurrences,
                p.recurrence_distance,
                p.trip_count,
                seed,
            );
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"machine\": \"{}\", \"budget\": {budget}, \
         \"max_nodes\": {max_nodes}, \"min_optimal_frac\": {min_optimal_frac}, \
         \"max_median_gap\": {max_median_gap}}},\n",
        json_escape(&machine.name()),
    ));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"loop\": \"{}\", \"nodes\": {}, \"mii\": {}, \
             \"lower_bound\": {}, \"proof\": \"{}\", \"exact_ii\": {}, \
             \"backtrack_ii\": {}, \"linear_ii\": {}, \"gap_linear\": {}, \
             \"pruned_iis\": {}}}{}\n",
            json_escape(&r.name),
            r.nodes,
            r.mii,
            r.lower_bound,
            r.proof,
            r.exact_ii,
            r.backtrack_ii,
            r.linear_ii,
            r.gap_linear,
            r.pruned_iis,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"summary\": {{\"loops\": {}, \"skipped\": {skipped}, \
         \"optimal\": {optimal}, \"optimal_fraction\": {optimal_fraction:.4}, \
         \"median_gap_linear\": {median_gap:.2}, \
         \"pruned_iis_total\": {pruned_total}, \
         \"pruned_loops\": {pruned_loops}, \
         \"soundness_violations\": {soundness_violations}}}\n",
        rows.len(),
    ));
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&report_path, &json) {
        eprintln!("failed to write {report_path}: {e}");
        std::process::exit(1);
    }

    println!(
        "optimality audit: {} loops ({} skipped), {} proven optimal \
         ({:.0}% vs gate {:.0}%), median linear gap {:.2} (gate {:.2}), \
         filter pruned {} grid IIs on {} loops, \
         {} soundness violations -> {}",
        rows.len(),
        skipped,
        optimal,
        optimal_fraction * 100.0,
        min_optimal_frac * 100.0,
        median_gap,
        max_median_gap,
        pruned_total,
        pruned_loops,
        soundness_violations,
        report_path,
    );

    let mut failed = false;
    if soundness_violations > 0 {
        eprintln!("FAIL: a heuristic beat the certified lower bound — the relaxation is unsound");
        failed = true;
    }
    if optimal_fraction < min_optimal_frac {
        eprintln!("FAIL: optimal fraction {optimal_fraction:.4} below gate {min_optimal_frac:.4}");
        failed = true;
    }
    if median_gap > max_median_gap {
        eprintln!("FAIL: median linear gap {median_gap:.2} above gate {max_median_gap:.2}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
