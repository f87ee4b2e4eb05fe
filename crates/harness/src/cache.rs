//! Persistent, content-addressed schedule cache (`MCHE` entries).
//!
//! Scheduling a loop is a pure function of `(loop, machine, scheduler,
//! prefetch policy, II-search strategy)` — the same inputs always
//! produce the byte-identical [`ScheduleResult`]. The cache exploits that:
//! results are stored on disk under a content-addressed key, so repeated
//! workbench runs (CI, sweeps, the `mirsd` batch service) skip the
//! scheduling work entirely and replay the stored schedule.
//!
//! # Key
//!
//! [`cache_key`] hashes the loop's structural fingerprint
//! ([`ddg::snap::loop_fingerprint`]), the machine configuration name, the
//! scheduler kind and the prefetch policy. No [`mirs::SearchConfig`] field is
//! part of the key: `branch_jobs` and `prune` never change the schedule
//! bytes, `exact_budget` only changes how much of the lower bound is
//! certified, and the search **strategy** is deliberately *excluded* —
//! strategies form a quality ladder over the same problem, which enables
//! the refinement rule below.
//!
//! # Serve rule and refinement
//!
//! Strategies are tiered by search effort: `linear` (0) <
//! `backtrack` (1) < `exact` (2); the ladder lives in
//! [`SearchStrategyKind::tier`] as an exhaustive match, so adding a
//! strategy without ranking it is a compile error. A cached entry
//! (tagged with the strategy that produced it) serves a request iff its
//! tier is **at least** the requested tier — a Backtracking result
//! satisfies a Linear request (it is never worse on the paper's metric),
//! but a Linear entry never masquerades as a Backtracking result, and an
//! Exact entry (which also carries its optimality proof) serves the
//! whole ladder.
//!
//! [`ScheduleCache::store`] only replaces an existing entry when the new
//! result strictly dominates by the paper's lexicographic
//! `(II, spill-ops, moves)` metric, or ties it from a higher tier. Cached
//! quality is therefore monotone: entries only ever get better.
//!
//! # Durability
//!
//! Entries are sealed snapshot blobs (`MCHE` magic, format version,
//! payload checksum) carrying the result's
//! [`schedule_hash`](ScheduleResult::schedule_hash), which is recomputed
//! and verified on load. Writes go to a temporary file first and are
//! published with an atomic rename, so readers never observe a torn entry.
//! Any corrupt, truncated or stale-format entry is deleted and counted —
//! the caller falls through to a fresh schedule, never an error.
//!
//! The cache is **off by default**. A front end enables it with
//! [`ScheduleCache::at`], or with [`ScheduleCache::from_vars`] when the
//! [`CACHE_DIR_ENV`] variable names a directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ddg::Loop;
use mirs::{PrefetchPolicy, ScheduleResult, SearchStrategyKind};
use vliw::snap::{fnv1a, seal, unseal, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
use vliw::MachineConfig;

use crate::runner::SchedulerKind;

/// Variable naming the on-disk cache directory for
/// [`ScheduleCache::from_vars`]. Unset or blank means the cache is
/// disabled.
pub const CACHE_DIR_ENV: &str = "MIRS_CACHE_DIR";

/// Envelope magic of a cache entry blob.
pub const ENTRY_MAGIC: [u8; 4] = *b"MCHE";

/// The paper's schedule-quality metric, lexicographic: initiation
/// interval, then spill operations, then inter-cluster moves.
#[must_use]
pub fn quality_metric(result: &ScheduleResult) -> (u32, u32, u32) {
    (
        result.ii,
        result.stats.spill_stores + result.stats.spill_loads,
        result.moves,
    )
}

/// Whether `new` may replace `old` in the cache: strictly better on the
/// `(II, spill-ops, moves)` metric, or the same metric from a higher
/// search tier. Anything else keeps `old`, so cached quality is monotone.
#[must_use]
pub fn replaces(new: &ScheduleResult, old: &ScheduleResult) -> bool {
    let (mn, mo) = (quality_metric(new), quality_metric(old));
    mn < mo || (mn == mo && new.search.strategy.tier() > old.search.strategy.tier())
}

/// Content address of one `(loop, machine, scheduler, prefetch)`
/// scheduling problem — 128 bits of FNV-1a over the canonical key bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// File name of this key's entry inside the cache directory.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("{:016x}{:016x}.mcs", self.hi, self.lo)
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Compute the cache key of one scheduling problem.
///
/// The search configuration is *not* part of the key (see the module
/// docs): all strategies address the same entry, which is what lets a
/// Backtracking run refine a Linear entry in place.
#[must_use]
pub fn cache_key(
    lp: &Loop,
    machine: &MachineConfig,
    kind: SchedulerKind,
    prefetch: PrefetchPolicy,
) -> CacheKey {
    let mut w = SnapWriter::new();
    w.put_u64(ddg::snap::loop_fingerprint(lp));
    w.put_str(&machine.name());
    w.put_str(kind.label());
    match prefetch {
        PrefetchPolicy::HitLatency => w.put_u8(0),
        PrefetchPolicy::SelectiveBinding { min_trip_count } => {
            w.put_u8(1);
            w.put_u64(min_trip_count);
        }
    }
    let bytes = w.into_bytes();
    let hi = fnv1a(&bytes);
    let mut salted = Vec::with_capacity(8 + bytes.len());
    salted.extend_from_slice(&hi.to_le_bytes());
    salted.extend_from_slice(&bytes);
    CacheKey {
        hi,
        lo: fnv1a(&salted),
    }
}

/// What [`ScheduleCache::store`] did with a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The cache is disabled; nothing was written.
    Disabled,
    /// No (valid) entry existed; the result was inserted.
    Inserted,
    /// An entry existed and the new result replaced it under the
    /// refinement rule.
    Refined,
    /// An entry existed and was at least as good; it was kept. Also
    /// returned when an I/O error left the entry unchanged.
    Kept,
}

/// Counter snapshot of a cache's activity (see [`ScheduleCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that fell through to a fresh schedule (absent entry,
    /// insufficient tier, or corrupt entry).
    pub misses: u64,
    /// Stores that inserted a first entry.
    pub inserts: u64,
    /// Stores that replaced an existing entry with a better result.
    pub refines: u64,
    /// Entries rejected (and deleted) because they failed validation.
    pub corrupt: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} inserts / {} refines",
            self.hits, self.misses, self.inserts, self.refines
        )?;
        if self.corrupt > 0 {
            write!(f, " / {} corrupt", self.corrupt)?;
        }
        Ok(())
    }
}

/// Persistent content-addressed store of [`ScheduleResult`]s.
///
/// Thread-safe behind a shared reference: the counters are atomics and
/// every write is publish-by-rename, so sweep workers share one cache.
/// Concurrent stores to the same key are last-writer-wins; since every
/// candidate passed the refinement check against the entry it read, the
/// surviving entry is always one of the valid candidates.
#[derive(Debug)]
pub struct ScheduleCache {
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    refines: AtomicU64,
    corrupt: AtomicU64,
}

impl ScheduleCache {
    /// A disabled cache: every lookup misses silently (without counting),
    /// every store is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            refines: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// A cache rooted at `dir`, created if missing. Falls back to a
    /// disabled cache when the directory cannot be created.
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        if std::fs::create_dir_all(&dir).is_err() {
            return Self::disabled();
        }
        Self {
            dir: Some(dir),
            ..Self::disabled()
        }
    }

    /// A cache at the directory [`CACHE_DIR_ENV`] names, as `var` looks
    /// it up; disabled when the variable is unset or blank, so caching is
    /// strictly opt-in. Front ends pass the process environment in; the
    /// library never reads it.
    #[must_use]
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        match var(CACHE_DIR_ENV) {
            Some(dir) if !dir.trim().is_empty() => Self::at(dir.trim()),
            _ => Self::disabled(),
        }
    }

    /// Whether lookups can ever hit (a directory is configured).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The cache directory, when enabled.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Fetch the entry for `key` if it exists, validates, and was produced
    /// by a strategy of at least the requested tier. Corrupt entries are
    /// deleted and count as misses — never an error.
    #[must_use]
    pub fn lookup(&self, key: CacheKey, requested: SearchStrategyKind) -> Option<ScheduleResult> {
        let dir = self.dir.as_ref()?;
        match self.read_valid(&dir.join(key.file_name())) {
            Some(r) if r.search.strategy.tier() >= requested.tier() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Write `result` under `key`, honouring the refinement rule: an
    /// existing entry is only replaced when [`replaces`] says the new
    /// result is an improvement.
    pub fn store(&self, key: CacheKey, result: &ScheduleResult) -> StoreOutcome {
        let Some(dir) = self.dir.as_ref() else {
            return StoreOutcome::Disabled;
        };
        let path = dir.join(key.file_name());
        let refined = match self.read_valid(&path) {
            Some(old) if !replaces(result, &old) => return StoreOutcome::Kept,
            Some(_) => true,
            None => false,
        };
        if write_atomic(dir, &path, &encode_entry(result)).is_err() {
            return StoreOutcome::Kept;
        }
        if refined {
            self.refines.fetch_add(1, Ordering::Relaxed);
            StoreOutcome::Refined
        } else {
            self.inserts.fetch_add(1, Ordering::Relaxed);
            StoreOutcome::Inserted
        }
    }

    /// Snapshot of the activity counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            refines: self.refines.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Read and fully validate the entry at `path`; delete it (and bump
    /// the corrupt counter) when it fails any check.
    fn read_valid(&self, path: &Path) -> Option<ScheduleResult> {
        let blob = std::fs::read(path).ok()?;
        match decode_entry(&blob) {
            Ok(result) => Some(result),
            Err(_) => {
                let _ = std::fs::remove_file(path);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

/// Encode a result into a sealed `MCHE` entry blob: the schedule hash
/// followed by the result's snapshot payload.
#[must_use]
pub fn encode_entry(result: &ScheduleResult) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u64(result.schedule_hash());
    result.encode_snap(&mut w);
    seal(ENTRY_MAGIC, &w.into_bytes())
}

/// Decode and validate a sealed `MCHE` entry blob. Besides the envelope
/// checks, the decoded result's [`ScheduleResult::schedule_hash`] must
/// reproduce the stored hash — an end-to-end integrity check over the
/// whole decode path.
///
/// # Errors
///
/// Any [`SnapError`] from the envelope, the payload, or the hash check.
pub fn decode_entry(blob: &[u8]) -> Result<ScheduleResult, SnapError> {
    let payload = unseal(ENTRY_MAGIC, blob)?;
    let mut r = SnapReader::new(payload);
    let stored = r.get_u64()?;
    let result = ScheduleResult::decode_snap(&mut r)?;
    r.expect_end()?;
    if result.schedule_hash() != stored {
        return Err(SnapError::Malformed(
            "entry schedule hash does not match its payload",
        ));
    }
    Ok(result)
}

static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to a process-unique temporary file in `dir` and publish
/// it at `path` with an atomic rename, so concurrent readers never see a
/// torn entry.
fn write_atomic(dir: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".tmp-{}-{nonce}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ScheduleRequest;
    use ddg::LoopBuilder;
    use mirs::{MirsScheduler, SchedulerOptions, SearchConfig};
    use vliw::Opcode;

    fn daxpy() -> Loop {
        let mut b = LoopBuilder::new("daxpy");
        let a = b.invariant("a");
        let x = b.load("x");
        let y = b.load("y");
        let ax = b.op(Opcode::FpMul, &[a, x]);
        let sum = b.op(Opcode::FpAdd, &[ax, y]);
        b.store("y", sum);
        b.finish(1000)
    }

    fn scheduled(lp: &Loop, search: SearchConfig) -> ScheduleResult {
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        MirsScheduler::new(&machine, SchedulerOptions::default().with_search(search))
            .schedule(lp)
            .expect("schedulable loop")
    }

    fn tmp_cache(tag: &str) -> ScheduleCache {
        let dir =
            std::env::temp_dir().join(format!("mirs-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScheduleCache::at(dir)
    }

    fn problem_key(lp: &Loop) -> CacheKey {
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        cache_key(
            lp,
            &machine,
            SchedulerKind::MirsC,
            PrefetchPolicy::HitLatency,
        )
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = ScheduleCache::disabled();
        assert!(!cache.is_enabled());
        let lp = daxpy();
        let search = SearchConfig::default();
        let key = problem_key(&lp);
        assert!(cache.lookup(key, search.strategy).is_none());
        let r = scheduled(&lp, search);
        assert_eq!(cache.store(key, &r), StoreOutcome::Disabled);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn insert_then_hit_round_trips_the_schedule() {
        let cache = tmp_cache("hit");
        let lp = daxpy();
        let search = SearchConfig::default();
        let key = problem_key(&lp);
        assert!(cache.lookup(key, search.strategy).is_none());
        let r = scheduled(&lp, search);
        assert_eq!(cache.store(key, &r), StoreOutcome::Inserted);
        let back = cache.lookup(key, search.strategy).expect("cached entry");
        assert_eq!(back.schedule_hash(), r.schedule_hash());
        assert_eq!(back.ii, r.ii);
        assert!(back.graph.same_content(&r.graph));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn tier_gates_which_requests_an_entry_serves() {
        let cache = tmp_cache("tier");
        let lp = daxpy();
        let search = SearchConfig::default();
        let key = problem_key(&lp);
        let linear = scheduled(&lp, search);
        assert_eq!(linear.search.strategy, SearchStrategyKind::Linear);
        cache.store(key, &linear);
        // A linear entry must not serve a backtracking request...
        assert!(cache
            .lookup(key, SearchStrategyKind::Backtracking)
            .is_none());
        // ...but a backtracking entry serves everyone.
        let bt = scheduled(&lp, SearchConfig::backtracking());
        assert!(matches!(
            cache.store(key, &bt),
            StoreOutcome::Refined | StoreOutcome::Kept
        ));
        if cache.store(key, &bt) == StoreOutcome::Kept
            && cache
                .lookup(key, SearchStrategyKind::Linear)
                .unwrap()
                .search
                .strategy
                .tier()
                < SearchStrategyKind::Backtracking.tier()
        {
            // Backtracking did not improve on (or tie) linear here; the
            // linear entry stays and backtracking requests keep missing.
            assert!(cache
                .lookup(key, SearchStrategyKind::Backtracking)
                .is_none());
        } else {
            assert!(cache
                .lookup(key, SearchStrategyKind::Backtracking)
                .is_some());
            assert!(cache.lookup(key, SearchStrategyKind::Linear).is_some());
        }
    }

    #[test]
    fn exact_entry_serves_every_tier_and_refines_backtrack_in_place() {
        let cache = tmp_cache("exact");
        let lp = daxpy();
        let search = SearchConfig::backtracking();
        let key = problem_key(&lp);
        let bt = scheduled(&lp, search);
        assert_eq!(bt.search.strategy, SearchStrategyKind::Backtracking);
        assert_eq!(cache.store(key, &bt), StoreOutcome::Inserted);
        // A backtrack entry must not serve an exact request...
        assert!(cache.lookup(key, SearchStrategyKind::Exact).is_none());
        // ...but an exact run over the same problem ties backtrack on the
        // metric (same climb, same schedule bytes) from a higher tier, so
        // it refines the cached entry in place rather than inserting.
        let exact = scheduled(&lp, SearchConfig::exact());
        assert_eq!(exact.search.strategy, SearchStrategyKind::Exact);
        assert_eq!(exact.schedule_hash(), bt.schedule_hash());
        assert_eq!(cache.store(key, &exact), StoreOutcome::Refined);
        // The refined entry now serves the whole ladder warm, proof intact.
        for requested in SearchStrategyKind::ALL {
            let back = cache.lookup(key, requested).expect("exact serves all");
            assert_eq!(back.search.strategy, SearchStrategyKind::Exact);
            assert!(back.certified_lower_bound().is_some());
        }
    }

    #[test]
    fn exact_budget_is_not_part_of_the_key() {
        let lp = daxpy();
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        let base = SearchConfig::exact();
        // The certification budget cannot change the schedule bytes, so
        // two budgets must address the same entry.
        assert_eq!(
            ScheduleRequest::mirs(&lp, &machine, base).key(),
            ScheduleRequest::mirs(&lp, &machine, base.with_exact_budget(7)).key()
        );
    }

    #[test]
    fn refinement_is_monotone() {
        let cache = tmp_cache("refine");
        let lp = daxpy();
        let search = SearchConfig::default();
        let key = problem_key(&lp);
        let good = scheduled(&lp, search);
        let mut bad = good.clone();
        bad.stats.spill_stores += 3; // strictly worse on (II, spills, moves)
        assert_eq!(cache.store(key, &bad), StoreOutcome::Inserted);
        // A better result refines the entry in place...
        assert_eq!(cache.store(key, &good), StoreOutcome::Refined);
        // ...and a worse one can never downgrade it back.
        assert_eq!(cache.store(key, &bad), StoreOutcome::Kept);
        let back = cache.lookup(key, search.strategy).unwrap();
        assert_eq!(back.schedule_hash(), good.schedule_hash());
        // Equal metric from a higher tier upgrades the entry's tier.
        let mut upgraded = good.clone();
        upgraded.search.strategy = SearchStrategyKind::Backtracking;
        assert_eq!(cache.store(key, &upgraded), StoreOutcome::Refined);
        assert_eq!(cache.store(key, &good), StoreOutcome::Kept);
    }

    #[test]
    fn corrupt_entries_degrade_to_misses_and_are_deleted() {
        let cache = tmp_cache("corrupt");
        let lp = daxpy();
        let search = SearchConfig::default();
        let key = problem_key(&lp);
        let r = scheduled(&lp, search);
        cache.store(key, &r);
        let path = cache.dir().unwrap().join(key.file_name());

        // Truncated blob.
        let blob = std::fs::read(&path).unwrap();
        std::fs::write(&path, &blob[..blob.len() / 2]).unwrap();
        assert!(cache.lookup(key, search.strategy).is_none());
        assert!(!path.exists(), "corrupt entry is deleted");

        // Flipped payload byte (checksum catches it).
        cache.store(key, &r);
        let mut blob = std::fs::read(&path).unwrap();
        let mid = blob.len() / 2;
        blob[mid] ^= 0xff;
        std::fs::write(&path, &blob).unwrap();
        assert!(cache.lookup(key, search.strategy).is_none());

        // Garbage file.
        std::fs::write(&path, b"not a cache entry").unwrap();
        assert!(cache.lookup(key, search.strategy).is_none());

        assert_eq!(cache.stats().corrupt, 3);
        // After the corruption storms, a fresh store works again.
        assert_eq!(cache.store(key, &r), StoreOutcome::Inserted);
        assert!(cache.lookup(key, search.strategy).is_some());
    }

    #[test]
    fn hash_mismatch_inside_valid_envelope_is_rejected() {
        let lp = daxpy();
        let r = scheduled(&lp, SearchConfig::default());
        let mut w = SnapWriter::new();
        w.put_u64(r.schedule_hash() ^ 1); // wrong stored hash
        r.encode_snap(&mut w);
        let blob = seal(ENTRY_MAGIC, &w.into_bytes());
        assert!(matches!(
            decode_entry(&blob),
            Err(SnapError::Malformed(
                "entry schedule hash does not match its payload"
            ))
        ));
    }

    #[test]
    fn key_tracks_problem_not_strategy() {
        let lp = daxpy();
        let key = problem_key(&lp);
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        // Strategy and branch_jobs are not part of the key.
        assert_eq!(
            key,
            ScheduleRequest::mirs(&lp, &machine, SearchConfig::backtracking()).key()
        );
        assert_eq!(
            key,
            ScheduleRequest::mirs(&lp, &machine, SearchConfig::default().with_branch_jobs(8)).key()
        );
        // Everything else is.
        let other_machine = MachineConfig::paper_config(4, 16).unwrap();
        assert_ne!(
            key,
            cache_key(
                &lp,
                &other_machine,
                SchedulerKind::MirsC,
                PrefetchPolicy::HitLatency,
            )
        );
        assert_ne!(
            key,
            cache_key(
                &lp,
                &machine,
                SchedulerKind::Baseline,
                PrefetchPolicy::HitLatency,
            )
        );
        assert_ne!(
            key,
            cache_key(
                &lp,
                &machine,
                SchedulerKind::MirsC,
                PrefetchPolicy::SelectiveBinding { min_trip_count: 32 },
            )
        );
        // A structurally different loop gets a different key.
        let mut b = LoopBuilder::new("daxpy");
        let a = b.invariant("a");
        let x = b.load("x");
        let ax = b.op(Opcode::FpMul, &[a, x]);
        b.store("y", ax);
        let other = b.finish(1000);
        assert_ne!(key, problem_key(&other));
    }

    #[test]
    fn env_selection_rules() {
        let from = |dir: Option<&str>| {
            ScheduleCache::from_vars(|name| {
                assert_eq!(name, CACHE_DIR_ENV);
                dir.map(str::to_string)
            })
        };
        assert!(!from(None).is_enabled());
        assert!(!from(Some("   ")).is_enabled());
        let dir = std::env::temp_dir().join(format!("mirs-cache-test-{}-env", std::process::id()));
        let cache = from(Some(&format!(" {} ", dir.display())));
        assert_eq!(cache.dir(), Some(dir.as_path()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_display_is_compact() {
        let s = CacheStats {
            hits: 3,
            misses: 2,
            inserts: 2,
            refines: 1,
            corrupt: 0,
        };
        assert_eq!(s.to_string(), "3 hits / 2 misses / 2 inserts / 1 refines");
    }
}
