//! `mirsd` — batch scheduling service front end over the persistent
//! schedule cache.
//!
//! Builds one batch of `(loop, machine-config, strategy)` requests from a
//! loopgen workbench, answers it through
//! [`harness::service::ScheduleService`] — persistent cache first, in-batch
//! dedup second, fresh scheduling last — and streams one result row per
//! request with its provenance (`hit` / `fresh` / `shared`). Repeated
//! passes exercise the cache: the first pass populates it, later passes
//! replay from it.
//!
//! ```text
//! cargo run --release --example mirsd -- --cache-dir /tmp/mirs-cache
//! cargo run --release --example mirsd -- --cache-dir /tmp/mirs-cache \
//!     --configs 2x32,4x16 --loops 20 --passes 2 --assert-warm-all-hits
//! MIRS_CACHE_DIR=/tmp/mirs-cache cargo run --release --example mirsd
//! ```
//!
//! Flags: `--loops N` (workbench size, default 60; `MIRS_SCHEDTIME_LOOPS`
//! is honoured too), `--configs KxR,…` (paper configurations, default
//! `1x64,2x32,4x16`), `--strategy linear|backtrack|exact`
//! (default: the `MIRS_STRATEGY` environment), `--passes N` (default 2:
//! cold + warm),
//! `--cache-dir DIR` (default: `MIRS_CACHE_DIR`), `--jobs N`, `--quiet`
//! (summary lines only), and `--assert-warm-all-hits` (exit non-zero
//! unless the last pass was served entirely from the cache — the CI
//! warm-cache gate).

use harness::cache::ScheduleCache;
use harness::service::{Provenance, ScheduleRequest, ScheduleService};
use harness::sweep::SweepExecutor;
use loopgen::{Workbench, WorkbenchParams};
use mirs::{SearchConfig, SearchStrategyKind};
use vliw::MachineConfig;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Value of `--NAME X` (also accepts `--NAME=X`), if present.
fn flag_arg(name: &str) -> Option<String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == &long {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(&prefixed) {
            return Some(v.to_string());
        }
    }
    None
}

/// Whether the bare flag `--NAME` is present.
fn flag_set(name: &str) -> bool {
    let long = format!("--{name}");
    std::env::args().skip(1).any(|a| a == long)
}

/// Parse a `KxR` configuration name into the paper machine config.
fn bad_config(spec: &str) -> ! {
    eprintln!("bad config '{spec}' (expected KxR, e.g. 2x32)");
    std::process::exit(2);
}

fn parse_config(spec: &str) -> MachineConfig {
    let (k, regs) = spec
        .trim()
        .split_once(['x', 'X'])
        .unwrap_or_else(|| bad_config(spec));
    let k: u32 = k.parse().unwrap_or_else(|_| bad_config(spec));
    let regs: u32 = regs.parse().unwrap_or_else(|_| bad_config(spec));
    MachineConfig::paper_config(k, regs).unwrap_or_else(|e| {
        eprintln!("invalid config '{spec}': {e}");
        std::process::exit(2);
    })
}

fn main() {
    let loops = flag_arg("loops")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| env_usize("MIRS_SCHEDTIME_LOOPS", 60));
    let passes: u32 = flag_arg("passes").and_then(|v| v.parse().ok()).unwrap_or(2);
    let quiet = flag_set("quiet");
    let strategy = match flag_arg("strategy") {
        Some(name) => SearchStrategyKind::parse(&name).unwrap_or_else(|| {
            // Derived from the tier ladder so a new strategy shows up here
            // without anyone remembering to edit a string.
            let expected = SearchStrategyKind::ALL.map(|s| s.label()).join("|");
            eprintln!("unknown strategy '{name}' (expected {expected})");
            std::process::exit(2);
        }),
        None => SearchConfig::from_env().strategy,
    };
    // Keep the env-derived knobs (branch_jobs, exact_budget); only the
    // strategy is overridden by the flag.
    let search = SearchConfig {
        strategy,
        ..SearchConfig::from_env()
    };
    let machines: Vec<MachineConfig> = flag_arg("configs")
        .unwrap_or_else(|| "1x64,2x32,4x16".to_string())
        .split(',')
        .map(parse_config)
        .collect();
    let exec = match flag_arg("jobs").and_then(|v| v.parse().ok()) {
        Some(jobs) => SweepExecutor::new(jobs),
        None => SweepExecutor::from_env(),
    };
    let cache = match flag_arg("cache-dir") {
        Some(dir) => ScheduleCache::at(dir),
        None => ScheduleCache::from_env(),
    };
    if !cache.is_enabled() {
        eprintln!(
            "note: cache disabled (set --cache-dir or MIRS_CACHE_DIR); every pass schedules fresh"
        );
    }

    let wb = Workbench::generate(&WorkbenchParams {
        loops,
        ..WorkbenchParams::default()
    });
    let requests: Vec<ScheduleRequest<'_>> = machines
        .iter()
        .flat_map(|machine| {
            wb.loops()
                .iter()
                .map(move |lp| ScheduleRequest::mirs(lp, machine, search))
        })
        .collect();
    let service = ScheduleService::new(&cache, &exec);
    println!(
        "mirsd: {} requests ({} loops x {} configs, strategy {}) on {} worker(s), cache {}",
        requests.len(),
        loops,
        machines.len(),
        strategy.label(),
        exec.jobs(),
        cache
            .dir()
            .map_or("disabled".to_string(), |d| d.display().to_string()),
    );

    let mut last_all_hits = false;
    for pass in 1..=passes.max(1) {
        let started = std::time::Instant::now();
        let responses = service.serve(&requests);
        let wall = started.elapsed().as_secs_f64();
        if !quiet {
            println!(
                "\nconfig             loop            strategy   II  mii spill-ops  moves \
                 pruned    prov  schedule-hash"
            );
            for (rq, resp) in requests.iter().zip(&responses) {
                let o = &resp.outcome;
                println!(
                    "{:<18} {:<14} {:>9} {:>4} {:>4} {:>9} {:>6} {:>6} {:>7}  {}",
                    rq.machine.name(),
                    o.name,
                    rq.search.strategy.label(),
                    o.ii.map_or("-".to_string(), |ii| ii.to_string()),
                    o.mii,
                    o.spill_ops(),
                    o.moves,
                    o.result
                        .as_ref()
                        .map_or("-".to_string(), |r| r.search.pruned_iis.to_string()),
                    resp.provenance.label(),
                    o.result
                        .as_ref()
                        .map_or("-".to_string(), |r| format!("{:016x}", r.schedule_hash())),
                );
            }
        }
        let count = |p: Provenance| responses.iter().filter(|r| r.provenance == p).count();
        let (hits, fresh, shared) = (
            count(Provenance::Hit),
            count(Provenance::Fresh),
            count(Provenance::Shared),
        );
        last_all_hits = hits == responses.len();
        println!(
            "pass {pass}: {hits} hit / {fresh} fresh / {shared} shared in {wall:.3}s  (cache: {})",
            cache.stats()
        );
    }

    if flag_set("assert-warm-all-hits") && !last_all_hits {
        eprintln!("error: final pass was not served entirely from the cache");
        std::process::exit(1);
    }
}
