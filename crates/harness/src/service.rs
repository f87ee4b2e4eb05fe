//! Batch scheduling service: the cache-aware front end over the sweep
//! engine.
//!
//! A [`ScheduleService`] accepts a batch of scheduling requests — each a
//! `(loop, machine, scheduler, prefetch, search)` tuple — and answers every
//! one, cheapest source first:
//!
//! 1. **Cache hits** are replayed from the persistent
//!    [`ScheduleCache`] (subject to its
//!    strategy-tier serve rule) without touching the scheduler.
//! 2. **Duplicate misses** are deduplicated within the batch: identical
//!    problems are scheduled once and the result is shared.
//! 3. **Remaining misses** are flattened into one task bag and scheduled
//!    through the [`SweepExecutor`] worker pool, exactly like
//!    [`run_workbench`](crate::runner::run_workbench) would.
//!
//! Responses come back in request order, each tagged with its
//! [`Provenance`] (hit / fresh / shared), and fresh converged results are
//! written back to the cache under the refinement rule. Scheduling itself
//! is byte-identical to the uncached paths — the service only changes
//! *where* a result comes from, never *what* it is. `examples/mirsd.rs` is
//! the command-line front end over this module.

use std::collections::HashMap;

use ddg::Loop;
use loopgen::Workbench;
use mirs::{PrefetchPolicy, SchedScratch, ScheduleResult, SearchConfig};
use vliw::MachineConfig;

use crate::cache::{cache_key, CacheKey, ScheduleCache};
use crate::runner::{schedule_loop, LoopOutcome, SchedulerKind, WorkbenchSummary};
use crate::sweep::SweepExecutor;

/// One scheduling problem submitted to the service. Borrows its loop and
/// machine so a batch over a workbench allocates nothing per request.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleRequest<'a> {
    /// Loop to schedule.
    pub lp: &'a Loop,
    /// Machine configuration to schedule for.
    pub machine: &'a MachineConfig,
    /// Scheduler to run.
    pub kind: SchedulerKind,
    /// Prefetch policy to schedule under.
    pub prefetch: PrefetchPolicy,
    /// II-search configuration.
    pub search: SearchConfig,
}

impl<'a> ScheduleRequest<'a> {
    /// MIRS-C under hit latency with the given search configuration — the
    /// common case.
    #[must_use]
    pub fn mirs(lp: &'a Loop, machine: &'a MachineConfig, search: SearchConfig) -> Self {
        Self {
            lp,
            machine,
            kind: SchedulerKind::MirsC,
            prefetch: PrefetchPolicy::HitLatency,
            search,
        }
    }

    /// The request's content-addressed cache key.
    #[must_use]
    pub fn key(&self) -> CacheKey {
        cache_key(self.lp, self.machine, self.kind, self.prefetch)
    }
}

/// Where a response's schedule came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Replayed from the persistent cache.
    Hit,
    /// Scheduled in this batch.
    Fresh,
    /// Copied from another request in the same batch that posed the
    /// identical problem.
    Shared,
}

impl Provenance {
    /// Short label for table columns (`hit` / `fresh` / `shared`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Provenance::Hit => "hit",
            Provenance::Fresh => "fresh",
            Provenance::Shared => "shared",
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct ScheduleResponse {
    /// Cache key of the request's problem.
    pub key: CacheKey,
    /// Where the schedule came from.
    pub provenance: Provenance,
    /// The schedule and its per-loop metrics (same shape the workbench
    /// runners produce).
    pub outcome: LoopOutcome,
}

/// Cache-aware batch scheduler: shared persistent cache in front, sweep
/// worker pool behind.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleService<'a> {
    cache: &'a ScheduleCache,
    exec: &'a SweepExecutor,
}

impl<'a> ScheduleService<'a> {
    /// A service over the given cache and worker pool.
    #[must_use]
    pub fn new(cache: &'a ScheduleCache, exec: &'a SweepExecutor) -> Self {
        Self { cache, exec }
    }

    /// Answer every request, in request order.
    ///
    /// Cache hits are replayed, identical in-batch problems are scheduled
    /// once, and the remaining misses run through the worker pool.
    /// Converged fresh results are stored back to the cache under the
    /// refinement rule. Schedules are byte-identical to the uncached
    /// runner paths for every request.
    #[must_use]
    pub fn serve(&self, requests: &[ScheduleRequest<'_>]) -> Vec<ScheduleResponse> {
        let keys: Vec<CacheKey> = requests.iter().map(ScheduleRequest::key).collect();
        let mut responses: Vec<Option<ScheduleResponse>> = requests.iter().map(|_| None).collect();

        // Cache pass + in-batch dedup. Two requests pose the identical
        // problem when their keys match *and* they ask for the same
        // strategy (the key deliberately excludes the strategy so the
        // cache can refine across tiers).
        let mut first_for: HashMap<(CacheKey, &'static str), usize> = HashMap::new();
        let mut misses: Vec<usize> = Vec::new();
        let mut shared: Vec<(usize, usize)> = Vec::new();
        for (i, rq) in requests.iter().enumerate() {
            if let Some(r) = self.cache.lookup(keys[i], rq.search.strategy) {
                responses[i] = Some(ScheduleResponse {
                    key: keys[i],
                    provenance: Provenance::Hit,
                    outcome: replayed_outcome(rq.lp, r),
                });
                continue;
            }
            match first_for.entry((keys[i], rq.search.strategy.label())) {
                std::collections::hash_map::Entry::Occupied(e) => shared.push((i, *e.get())),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                    misses.push(i);
                }
            }
        }

        // Schedule the deduplicated misses as one task bag.
        let fresh = self
            .exec
            .run_scratch(&misses, SchedScratch::default, |scratch, _, &i| {
                let rq = &requests[i];
                schedule_loop(scratch, rq.lp, rq.machine, rq.kind, rq.prefetch, rq.search)
            });
        for (&i, outcome) in misses.iter().zip(fresh) {
            if let Some(r) = outcome.result.as_ref() {
                let _ = self.cache.store(keys[i], r);
            }
            responses[i] = Some(ScheduleResponse {
                key: keys[i],
                provenance: Provenance::Fresh,
                outcome,
            });
        }
        for (i, canon) in shared {
            let outcome = responses[canon]
                .as_ref()
                .expect("canonical miss answered above")
                .outcome
                .clone();
            responses[i] = Some(ScheduleResponse {
                key: keys[i],
                provenance: Provenance::Shared,
                outcome,
            });
        }
        responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }
}

/// Rehydrate a cached [`ScheduleResult`] into the [`LoopOutcome`] shape the
/// workbench runners produce. `scheduling_seconds` is 0 — nothing was
/// scheduled, which is the whole point.
fn replayed_outcome(lp: &Loop, result: ScheduleResult) -> LoopOutcome {
    LoopOutcome {
        name: lp.name.clone(),
        weight: lp.weight,
        trip_count: lp.trip_count,
        ii: Some(result.ii),
        mii: result.mii,
        memory_traffic: result.memory_traffic,
        moves: result.moves,
        scheduling_seconds: 0.0,
        result: Some(result),
    }
}

/// [`run_workbench`](crate::runner::run_workbench) through the
/// cache: hits replay, misses schedule and populate the cache. Returns the
/// summary plus each loop's [`Provenance`] in workbench order — a fully
/// warm cache yields all-[`Provenance::Hit`] and performs zero scheduling
/// attempts.
#[must_use]
pub fn run_workbench_cached(
    exec: &SweepExecutor,
    cache: &ScheduleCache,
    wb: &Workbench,
    machine: &MachineConfig,
    kind: SchedulerKind,
    prefetch: PrefetchPolicy,
    search: SearchConfig,
) -> (WorkbenchSummary, Vec<Provenance>) {
    let requests: Vec<ScheduleRequest<'_>> = wb
        .loops()
        .iter()
        .map(|lp| ScheduleRequest {
            lp,
            machine,
            kind,
            prefetch,
            search,
        })
        .collect();
    let responses = ScheduleService::new(cache, exec).serve(&requests);
    let mut provenance = Vec::with_capacity(responses.len());
    let outcomes = responses
        .into_iter()
        .map(|r| {
            provenance.push(r.provenance);
            r.outcome
        })
        .collect();
    (
        WorkbenchSummary {
            config: machine.name(),
            scheduler: kind,
            outcomes,
        },
        provenance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_workbench;
    use loopgen::WorkbenchParams;

    fn small_wb() -> Workbench {
        Workbench::generate(&WorkbenchParams {
            loops: 6,
            ..WorkbenchParams::default()
        })
    }

    fn tmp_cache(tag: &str) -> ScheduleCache {
        let dir =
            std::env::temp_dir().join(format!("mirs-service-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScheduleCache::at(dir)
    }

    #[test]
    fn cold_then_warm_pass_reproduces_uncached_hashes() {
        let wb = small_wb();
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        let exec = SweepExecutor::new(2);
        let search = SearchConfig::default();
        let cache = tmp_cache("warm");

        let reference = run_workbench(
            &exec,
            &wb,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
            search,
        );
        let (cold, cold_prov) = run_workbench_cached(
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
            "second pass must be served entirely from the cache"
        );
        for ((r, c), w) in reference
            .outcomes
            .iter()
            .zip(&cold.outcomes)
            .zip(&warm.outcomes)
        {
            let rh = r.result.as_ref().unwrap().schedule_hash();
            assert_eq!(rh, c.result.as_ref().unwrap().schedule_hash());
            assert_eq!(rh, w.result.as_ref().unwrap().schedule_hash());
            assert_eq!((r.ii, r.mii, r.moves), (w.ii, w.mii, w.moves));
            assert_eq!(w.scheduling_seconds, 0.0, "hits schedule nothing");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits as usize, wb.loops().len());
        assert_eq!(stats.inserts as usize, wb.loops().len());
    }

    #[test]
    fn identical_requests_in_one_batch_are_shared() {
        let wb = small_wb();
        let lp = &wb.loops()[0];
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        let exec = SweepExecutor::new(1);
        let cache = ScheduleCache::disabled();
        let search = SearchConfig::default();
        let rq = ScheduleRequest::mirs(lp, &machine, search);
        let responses = ScheduleService::new(&cache, &exec).serve(&[rq, rq, rq]);
        assert_eq!(responses[0].provenance, Provenance::Fresh);
        assert_eq!(responses[1].provenance, Provenance::Shared);
        assert_eq!(responses[2].provenance, Provenance::Shared);
        let h = |r: &ScheduleResponse| r.outcome.result.as_ref().unwrap().schedule_hash();
        assert_eq!(h(&responses[0]), h(&responses[1]));
        assert_eq!(h(&responses[0]), h(&responses[2]));
    }

    #[test]
    fn different_strategies_are_not_deduplicated() {
        let wb = small_wb();
        let lp = &wb.loops()[0];
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        let exec = SweepExecutor::new(1);
        let cache = ScheduleCache::disabled();
        let linear = ScheduleRequest::mirs(lp, &machine, SearchConfig::default());
        let bt = ScheduleRequest::mirs(lp, &machine, SearchConfig::backtracking());
        let responses = ScheduleService::new(&cache, &exec).serve(&[linear, bt]);
        assert_eq!(responses[0].provenance, Provenance::Fresh);
        assert_eq!(responses[1].provenance, Provenance::Fresh);
        // Same problem key (strategy excluded), different strategies.
        assert_eq!(responses[0].key, responses[1].key);
    }

    #[test]
    fn provenance_labels() {
        assert_eq!(Provenance::Hit.label(), "hit");
        assert_eq!(Provenance::Fresh.label(), "fresh");
        assert_eq!(Provenance::Shared.label(), "shared");
    }
}
