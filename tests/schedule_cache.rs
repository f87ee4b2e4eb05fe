//! Persistent schedule-cache behaviour, end to end: dominance-ordered
//! refinement across search strategies, warm-pass replay that reproduces
//! the uncached golden hashes byte-identically, and graceful degradation
//! on corrupt entries.

use harness::cache::{ScheduleCache, StoreOutcome};
use harness::runner::run_workbench;
use harness::service::{run_workbench_cached, Provenance, ScheduleRequest, ScheduleService};
use harness::{SchedulerKind, SweepExecutor};
use loopgen::{Workbench, WorkbenchParams};
use mirs::{MirsScheduler, PrefetchPolicy, SchedulerOptions, SearchConfig, SearchStrategyKind};
use vliw::MachineConfig;

fn tmp_cache(tag: &str) -> ScheduleCache {
    let dir = std::env::temp_dir().join(format!("mirs-cache-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ScheduleCache::at(dir)
}

fn small_wb(loops: usize) -> Workbench {
    Workbench::generate(&WorkbenchParams {
        loops,
        ..WorkbenchParams::default()
    })
}

/// On the register-starved 4x16 configuration, a Backtracking run refines
/// every Linear entry in place (its results are never worse on the
/// `(II, spill-ops, moves)` metric, so the dominance rule always lets the
/// higher tier through), after which Backtracking requests hit too.
#[test]
fn backtracking_upgrades_linear_entries() {
    let cache = tmp_cache("upgrade");
    let wb = small_wb(8);
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let linear = SearchConfig::default();
    let backtrack = SearchConfig::backtracking();

    for lp in wb.loops() {
        let key = ScheduleRequest::mirs(lp, &machine, linear).key();
        // Same key for both strategies: that is what makes refinement work.
        assert_eq!(key, ScheduleRequest::mirs(lp, &machine, backtrack).key());
        let lr = MirsScheduler::new(&machine, SchedulerOptions::default().with_search(linear))
            .schedule(lp)
            .expect("linear converges");
        assert_eq!(cache.store(key, &lr), StoreOutcome::Inserted);
        // The linear entry serves linear but not backtracking requests.
        assert!(cache.lookup(key, SearchStrategyKind::Linear).is_some());
        assert!(cache
            .lookup(key, SearchStrategyKind::Backtracking)
            .is_none());

        let br = MirsScheduler::new(&machine, SchedulerOptions::default().with_search(backtrack))
            .schedule(lp)
            .expect("backtracking converges");
        assert_eq!(
            cache.store(key, &br),
            StoreOutcome::Refined,
            "{}: backtracking must upgrade the linear entry",
            lp.name
        );
        // Now everyone is served, from the backtracking entry.
        let served = cache.lookup(key, SearchStrategyKind::Backtracking).unwrap();
        assert_eq!(served.schedule_hash(), br.schedule_hash());
        let served_linear = cache.lookup(key, SearchStrategyKind::Linear).unwrap();
        assert_eq!(
            served_linear.search.strategy.tier(),
            SearchStrategyKind::Backtracking.tier()
        );

        // And the (possibly worse, never better) linear result can no
        // longer downgrade the entry.
        assert_eq!(cache.store(key, &lr), StoreOutcome::Kept);
    }
}

/// The exact tier sits on top of the ladder: an exact pass refines cached
/// backtracking entries in place (it reproduces backtracking's schedule,
/// so the metric ties and the higher tier wins), after which one entry —
/// now carrying its optimality proof — serves every strategy warm.
#[test]
fn exact_refines_backtrack_entries_and_serves_the_whole_ladder() {
    let cache = tmp_cache("exact-tier");
    let wb = small_wb(6);
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let backtrack = SearchConfig::backtracking();
    let exact = SearchConfig::exact();

    for lp in wb.loops() {
        let key = ScheduleRequest::mirs(lp, &machine, backtrack).key();
        // The certification budget is not part of the key either.
        assert_eq!(
            key,
            ScheduleRequest::mirs(lp, &machine, exact.with_exact_budget(17)).key()
        );
        let br = MirsScheduler::new(&machine, SchedulerOptions::default().with_search(backtrack))
            .schedule(lp)
            .expect("backtracking converges");
        assert_eq!(cache.store(key, &br), StoreOutcome::Inserted);
        // A backtrack entry does not serve exact requests...
        assert!(cache.lookup(key, SearchStrategyKind::Exact).is_none());

        let er = MirsScheduler::new(&machine, SchedulerOptions::default().with_search(exact))
            .schedule(lp)
            .expect("exact converges");
        assert_eq!(
            er.schedule_hash(),
            br.schedule_hash(),
            "{}: the exact climb must tie backtracking's schedule",
            lp.name
        );
        assert_eq!(
            cache.store(key, &er),
            StoreOutcome::Refined,
            "{}: exact must upgrade the backtrack entry in place",
            lp.name
        );
        // ...but the refined entry serves the whole ladder, proof intact.
        for requested in SearchStrategyKind::ALL {
            let served = cache.lookup(key, requested).unwrap();
            assert_eq!(served.search.strategy, SearchStrategyKind::Exact);
            assert_eq!(served.schedule_hash(), er.schedule_hash());
            assert!(
                served.certified_lower_bound().is_some(),
                "{}: the proof must survive the cache round trip",
                lp.name
            );
        }
        // Neither heuristic can downgrade the certified entry.
        assert_eq!(cache.store(key, &br), StoreOutcome::Kept);
    }
}

/// A warm second workbench pass is 100% hits, performs zero scheduling
/// attempts and reproduces every schedule hash of an uncached reference
/// run byte-identically — the headline acceptance criterion.
#[test]
fn warm_pass_replays_golden_hashes_without_scheduling() {
    let cache = tmp_cache("warm");
    let wb = small_wb(12);
    let exec = SweepExecutor::new(2);
    let search = SearchConfig::default();
    for machine in [
        MachineConfig::paper_config(1, 64).unwrap(),
        MachineConfig::paper_config(2, 32).unwrap(),
    ] {
        let reference = run_workbench(
            &exec,
            &wb,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            search,
        );
        let (_, cold_prov) = run_workbench_cached(
            &exec,
            &cache,
            &wb,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            search,
        );
        assert!(cold_prov.iter().all(|p| *p == Provenance::Fresh));
        let (warm, warm_prov) = run_workbench_cached(
            &exec,
            &cache,
            &wb,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            search,
        );
        assert!(
            warm_prov.iter().all(|p| *p == Provenance::Hit),
            "{}: warm pass must be all hits",
            machine.name()
        );
        for (r, w) in reference.outcomes.iter().zip(&warm.outcomes) {
            assert_eq!(
                r.result.as_ref().unwrap().schedule_hash(),
                w.result.as_ref().unwrap().schedule_hash(),
                "{}/{}: cached replay diverged from the uncached run",
                machine.name(),
                r.name
            );
            assert_eq!(
                w.scheduling_seconds, 0.0,
                "a hit must not spend scheduling time"
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.refines, 0);
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.hits, stats.inserts, "every insert was replayed once");
}

/// Corrupting entries on disk degrades the next pass to fresh scheduling
/// with identical results — never an error, and the cache heals itself.
#[test]
fn corrupt_entries_degrade_to_fresh_identical_schedules() {
    let cache = tmp_cache("heal");
    let wb = small_wb(6);
    let exec = SweepExecutor::new(1);
    let search = SearchConfig::default();
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let (cold, _) = run_workbench_cached(
        &exec,
        &cache,
        &wb,
        &machine,
        SchedulerKind::MirsC,
        PrefetchPolicy::HitLatency,
        search,
    );

    // Vandalise every entry a different way.
    let dir = cache.dir().unwrap().to_path_buf();
    for (i, entry) in std::fs::read_dir(&dir).unwrap().enumerate() {
        let path = entry.unwrap().path();
        match i % 3 {
            0 => std::fs::write(&path, b"garbage").unwrap(),
            1 => {
                let blob = std::fs::read(&path).unwrap();
                std::fs::write(&path, &blob[..blob.len() / 3]).unwrap();
            }
            _ => {
                let mut blob = std::fs::read(&path).unwrap();
                let mid = blob.len() / 2;
                blob[mid] ^= 0x55;
                std::fs::write(&path, &blob).unwrap();
            }
        }
    }

    let (healed, prov) = run_workbench_cached(
        &exec,
        &cache,
        &wb,
        &machine,
        SchedulerKind::MirsC,
        PrefetchPolicy::HitLatency,
        search,
    );
    assert!(
        prov.iter().all(|p| *p == Provenance::Fresh),
        "corrupt entries must fall through to fresh scheduling"
    );
    assert_eq!(cache.stats().corrupt as usize, wb.loops().len());
    for (c, h) in cold.outcomes.iter().zip(&healed.outcomes) {
        assert_eq!(
            c.result.as_ref().unwrap().schedule_hash(),
            h.result.as_ref().unwrap().schedule_hash(),
            "{}: degraded rerun diverged",
            c.name
        );
    }
    // The healing pass re-populated the cache: third pass is all hits.
    let (_, prov) = run_workbench_cached(
        &exec,
        &cache,
        &wb,
        &machine,
        SchedulerKind::MirsC,
        PrefetchPolicy::HitLatency,
        search,
    );
    assert!(prov.iter().all(|p| *p == Provenance::Hit));
}

/// The service answers mixed batches — several machine configurations,
/// duplicate requests — with correct provenance and the same schedules the
/// plain runner produces.
#[test]
fn service_batches_mix_configs_and_dedup() {
    let cache = tmp_cache("batch");
    let wb = small_wb(4);
    let exec = SweepExecutor::new(2);
    let search = SearchConfig::default();
    let m1 = MachineConfig::paper_config(1, 64).unwrap();
    let m2 = MachineConfig::paper_config(2, 32).unwrap();
    let mut requests = Vec::new();
    for machine in [&m1, &m2] {
        for lp in wb.loops() {
            requests.push(ScheduleRequest::mirs(lp, machine, search));
        }
    }
    // Duplicate the whole m1 block within the same batch.
    for lp in wb.loops() {
        requests.push(ScheduleRequest::mirs(lp, &m1, search));
    }
    let responses = ScheduleService::new(&cache, &exec).serve(&requests);
    let n = wb.loops().len();
    assert!(responses[..2 * n]
        .iter()
        .all(|r| r.provenance == Provenance::Fresh));
    assert!(responses[2 * n..]
        .iter()
        .all(|r| r.provenance == Provenance::Shared));
    for (dup, orig) in responses[2 * n..].iter().zip(&responses[..n]) {
        assert_eq!(
            dup.outcome.result.as_ref().unwrap().schedule_hash(),
            orig.outcome.result.as_ref().unwrap().schedule_hash()
        );
    }
    // Per-config reference runs agree with the batch.
    for (machine, chunk) in [(&m1, &responses[..n]), (&m2, &responses[n..2 * n])] {
        let reference = run_workbench(
            &exec,
            &wb,
            machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            search,
        );
        for (r, resp) in reference.outcomes.iter().zip(chunk) {
            assert_eq!(
                r.result.as_ref().unwrap().schedule_hash(),
                resp.outcome.result.as_ref().unwrap().schedule_hash()
            );
        }
    }
}
