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
//! (default: `MIRS_STRATEGY`), `--passes N` (default 2:
//! cold + warm),
//! `--cache-dir DIR` (default: `MIRS_CACHE_DIR`), `--jobs N`, `--quiet`
//! (summary lines only), and `--assert-warm-all-hits` (exit non-zero
//! unless the last pass was served entirely from the cache — the CI
//! warm-cache gate).

use harness::cache::ScheduleCache;
use harness::service::{Provenance, ScheduleRequest, ScheduleService};
use loopgen::{Workbench, WorkbenchParams};
use mirs_repro::cli;
use vliw::MachineConfig;

fn main() {
    let loops =
        cli::flag_parse("loops").unwrap_or_else(|| cli::env_usize("MIRS_SCHEDTIME_LOOPS", 60));
    let passes: u32 = cli::flag_parse("passes").unwrap_or(2);
    let quiet = cli::flag_set("quiet");
    // `--strategy` overrides only the strategy; the other search knobs
    // come from the environment.
    let search = cli::search();
    let strategy = search.strategy;
    let machines: Vec<MachineConfig> = cli::flag_arg("configs")
        .unwrap_or_else(|| "1x64,2x32,4x16".to_string())
        .split(',')
        .map(cli::paper_config)
        .collect();
    let exec = cli::executor();
    let cache = cli::flag_arg("cache-dir").map_or_else(cli::env_cache, ScheduleCache::at);
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
                "\nconfig             loop            strategy   II  mii \
                 spill-ops  moves    prov  schedule-hash"
            );
            for (rq, resp) in requests.iter().zip(&responses) {
                let o = &resp.outcome;
                println!(
                    "{:<18} {:<14} {:>9} {:>4} {:>4} {:>9} {:>6} {:>7}  {}",
                    rq.machine.name(),
                    o.name,
                    rq.search.strategy.label(),
                    o.ii.map_or("-".to_string(), |ii| ii.to_string()),
                    o.mii,
                    o.spill_ops(),
                    o.moves,
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

    if cli::flag_set("assert-warm-all-hits") && !last_all_hits {
        eprintln!("error: final pass was not served entirely from the cache");
        std::process::exit(1);
    }
}
