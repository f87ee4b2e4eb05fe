//! The parallel sweep engine: a small work-stealing worker pool over an
//! atomic task queue, built from scoped threads only (no runtime deps).
//!
//! Every experiment in this crate is a bag of independent
//! (loop, machine-config) tasks — the 1258-loop workbench, the fig5/fig6
//! design-space sweeps, the table3 scheduling-time comparison. The
//! [`SweepExecutor`] shards such a bag across `MIRS_JOBS` threads (default:
//! all cores) while keeping the output *byte-identical* to a serial run:
//!
//! * workers claim **chunks** of task indices from one shared atomic
//!   counter (cheap work stealing with NUMA-friendly locality: one
//!   fetch-add hands out up to [`DEFAULT_CHUNK`] — 8 — consecutive
//!   tasks, cutting counter contention and keeping a worker's consecutive
//!   loops in its local cache; small bags are auto-declustered so every
//!   worker still gets work),
//! * each result is tagged with its task index and the final vector is
//!   assembled by index, so the outcome order never depends on thread
//!   interleaving or the chunk size,
//! * each task sees an immutable `&` view of the inputs (`Workbench`,
//!   `MachineConfig`, shared `DepGraph` bases inside each `Loop`) — the
//!   scheduler itself is `Send + Sync` and stateless between loops,
//! * per-worker *scratch* state (reusable scheduling buffers, see
//!   [`SweepExecutor::run_scratch`]) is created once per worker and
//!   threaded through its tasks, so a sweep allocates per worker, not per
//!   task.
//!
//! Determinism is pinned by the golden `schedule_hash` tests and a property
//! test driving 1-, 2- and N-thread runs at several chunk sizes against
//! each other (see `tests/parallel_sweep.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable overriding the worker count (`0` or unparsable
/// values fall back to the default).
pub const JOBS_ENV: &str = "MIRS_JOBS";

/// Default number of consecutive tasks one atomic claim hands a worker.
pub const DEFAULT_CHUNK: usize = 8;

thread_local! {
    /// Marks threads spawned by a pooled sweep, so a sweep started *from*
    /// such a thread (e.g. a [`BranchPool`] fanning search branches out of
    /// a loop that is itself a sweep task) knows it is nested.
    static IN_SWEEP_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Worker threads currently spawned by pooled sweeps, process-wide. Feeds
/// the nested-sweep oversubscription guard below.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Registers `count` pooled workers for the duration of a sweep; the
/// `Drop` keeps the gauge honest even if the sweep unwinds.
struct ActiveWorkersGuard(usize);

impl ActiveWorkersGuard {
    fn register(count: usize) -> Self {
        ACTIVE_WORKERS.fetch_add(count, Ordering::Relaxed);
        Self(count)
    }
}

impl Drop for ActiveWorkersGuard {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Worker budget for a sweep that may be nested inside another sweep's
/// worker thread.
///
/// `SweepExecutor` spawns fresh scoped threads per run rather than sharing
/// a fixed pool, so a nested sweep can never *deadlock* a saturated outer
/// pool — submitting from a worker always makes progress. What nesting
/// *can* do is oversubscribe the machine: an 8-worker outer sweep whose
/// every task opens a 4-worker branch pool would ask for 32 threads on a
/// handful of cores. This clamps a **nested** run to the cores not already
/// claimed by pooled workers (counting the calling worker's own core as
/// free — it blocks until the nested sweep finishes), degrading to an
/// inline run when the outer sweep has the machine saturated. Top-level
/// sweeps are never clamped: an explicit `SweepExecutor::new(8)` keeps its
/// 8 workers, oversubscribed or not, so scaling benchmarks measure what
/// they configure. Results are byte-identical for every worker count, so
/// the clamp is invisible outside of wall-clock time.
fn nested_worker_budget(requested: usize) -> usize {
    if requested <= 1 || !IN_SWEEP_WORKER.with(std::cell::Cell::get) {
        return requested;
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let free = cores
        .saturating_sub(ACTIVE_WORKERS.load(Ordering::Relaxed))
        .saturating_add(1);
    requested.min(free.max(1))
}

/// Why a sweep did not produce a full result vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// At least one worker panicked; the listed task indices have no result.
    /// The panic is *surfaced*, never swallowed into a hang: remaining
    /// workers drain the queue and the join reports the loss.
    WorkerPanicked {
        /// Task indices whose results were lost to the panic(s).
        lost_tasks: Vec<usize>,
    },
    /// The sweep was cancelled through its [`CancelToken`].
    Cancelled {
        /// Number of tasks that completed before cancellation won.
        completed: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::WorkerPanicked { lost_tasks } => {
                write!(f, "sweep worker panicked; lost tasks {lost_tasks:?}")
            }
            SweepError::Cancelled { completed } => {
                write!(f, "sweep cancelled after {completed} completed tasks")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Cooperative cancellation handle for a running sweep.
///
/// Cloneable and cheap; workers check it between tasks, so cancellation
/// latency is one task, not one sweep.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Observation hooks for a sweep: progress reporting and cancellation.
///
/// The progress callback runs on worker threads (hence `Sync`); keep it
/// cheap — a counter, a channel send, an `eprint!`.
#[derive(Default)]
pub struct SweepHooks<'h> {
    /// Called after each completed task with `(completed_so_far, total)`.
    ///
    /// Callbacks are **serialized** (an internal lock couples the
    /// completion-counter increment with the call), so an installed hook
    /// observes exactly `1, 2, …, total` in order — never a gap, never a
    /// reordering — for any worker count and claim-chunk size; debug
    /// builds assert this. The serializing lock is taken **only when a
    /// hook is installed**: hook-less sweeps pay a single relaxed atomic
    /// increment per task and are never throttled by the guarantee.
    pub progress: Option<&'h (dyn Fn(usize, usize) + Sync)>,
    /// Checked by every worker before claiming the next task.
    pub cancel: Option<&'h CancelToken>,
}

/// A fixed-width worker pool executing bags of independent tasks in
/// deterministic order.
///
/// The executor itself holds no threads — each [`SweepExecutor::run`] call
/// spawns scoped workers and joins them before returning, so borrowing
/// stack data in tasks is free and nothing outlives the sweep.
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    jobs: usize,
    chunk: usize,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SweepExecutor>();
    assert_send_sync::<CancelToken>();
};

impl Default for SweepExecutor {
    fn default() -> Self {
        Self::from_env()
    }
}

impl SweepExecutor {
    /// Executor with exactly `jobs` workers (clamped to at least 1) and the
    /// default claim chunk.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Single-threaded executor: tasks run inline on the caller's thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Executor sized by the `MIRS_JOBS` environment variable, defaulting
    /// to [`std::thread::available_parallelism`], with the default claim
    /// chunk.
    #[must_use]
    pub fn from_env() -> Self {
        let jobs = std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        Self::new(jobs)
    }

    /// Builder-style override of the claim chunk size (clamped to at least
    /// 1). Results are byte-identical for every chunk size; only the claim
    /// pattern — counter contention and task locality — changes.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Configured worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Configured claim chunk size.
    #[must_use]
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Effective chunk for a bag of `total` tasks: the configured chunk,
    /// declustered so every worker can expect several claims — a 6-task
    /// bag on 4 workers must not collapse onto one worker just because the
    /// chunk is 8. Purely a scheduling-granularity decision; the result
    /// vector is identical either way.
    fn chunk_for(&self, total: usize) -> usize {
        self.chunk.min((total / (self.jobs * 4)).max(1))
    }

    /// Whether a bag of `total` tasks would run on the caller's thread:
    /// one configured worker, a single-task bag, or a nested sweep on a
    /// saturated machine.
    fn runs_inline(&self, total: usize) -> bool {
        nested_worker_budget(self.jobs.min(total)) <= 1
    }

    /// Run `task` over every item and return the results in item order,
    /// regardless of which worker computed what.
    ///
    /// When the effective worker count is 1 this is a plain loop on the
    /// caller's thread — no `catch_unwind` envelope, no completion
    /// atomics — so a `--jobs 1` baseline measures the tasks, not the
    /// pool plumbing, and a task panic propagates unwrapped.
    ///
    /// # Panics
    ///
    /// Re-raises the failure of any worker task.
    pub fn run<I, T, F>(&self, items: &[I], task: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        if self.runs_inline(items.len()) {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| task(i, item))
                .collect();
        }
        match self.try_run_hooked(items, task, &SweepHooks::default()) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`SweepExecutor::run`] with per-worker scratch state: `init` builds
    /// one `S` per worker thread (once, before its first task) and every
    /// task that worker claims receives `&mut` access to it. This is how
    /// the workbench runners thread one
    /// [`mirs::SchedScratch`] per worker through thousands of loops — the
    /// sweep allocates per worker, not per task.
    ///
    /// The scratch must not influence results (the determinism guarantee
    /// quantifies over worker count *and* task→worker assignment); scratch
    /// types like `SchedScratch` that only carry warmed allocations satisfy
    /// this by construction.
    ///
    /// Runs inline (plain loop, one scratch, panics unwrapped) when the
    /// effective worker count is 1, like [`SweepExecutor::run`].
    ///
    /// # Panics
    ///
    /// Re-raises the failure of any worker task.
    pub fn run_scratch<I, T, S, G, F>(&self, items: &[I], init: G, task: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        if self.runs_inline(items.len()) {
            let mut scratch = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| task(&mut scratch, i, item))
                .collect();
        }
        match self.try_run_scratch_hooked(items, init, task, &SweepHooks::default()) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`SweepExecutor::run`] but surfaces worker panics and
    /// cancellation as a [`SweepError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SweepError::WorkerPanicked`] when any task panicked.
    pub fn try_run<I, T, F>(&self, items: &[I], task: F) -> Result<Vec<T>, SweepError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.try_run_hooked(items, task, &SweepHooks::default())
    }

    /// Hooked variant without scratch state.
    ///
    /// # Errors
    ///
    /// [`SweepError::WorkerPanicked`] when any task panicked (the queue is
    /// still drained — a panic never hangs the sweep) and
    /// [`SweepError::Cancelled`] when the [`CancelToken`] fired first.
    pub fn try_run_hooked<I, T, F>(
        &self,
        items: &[I],
        task: F,
        hooks: &SweepHooks<'_>,
    ) -> Result<Vec<T>, SweepError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.try_run_scratch_hooked(items, || (), |_scratch, i, item| task(i, item), hooks)
    }

    /// Full-control variant: per-worker scratch state plus progress and
    /// cancellation hooks. Every other `run` flavour delegates here.
    ///
    /// # Errors
    ///
    /// [`SweepError::WorkerPanicked`] when any task panicked (the queue is
    /// still drained — a panic never hangs the sweep) and
    /// [`SweepError::Cancelled`] when the [`CancelToken`] fired first.
    pub fn try_run_scratch_hooked<I, T, S, G, F>(
        &self,
        items: &[I],
        init: G,
        task: F,
        hooks: &SweepHooks<'_>,
    ) -> Result<Vec<T>, SweepError>
    where
        I: Sync,
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        let total = items.len();
        let done = AtomicUsize::new(0);
        // Progress-hook contract: with a hook installed, the counter
        // increment and the callback happen under one lock, so callbacks
        // are fully serialized and the observed sequence is exactly
        // 1, 2, …, total (one call per *completed task*, never per claimed
        // chunk). Without the lock two workers could race between their
        // `fetch_add` and their call, and the observer would see
        // `progress(5)` before `progress(4)` — non-monotone output that
        // looked like chunk-sized jumps under a claim chunk above 1. The lock
        // exists **only for the hook**: hook-less sweeps skip it entirely
        // and pay one relaxed `fetch_add` per task, so the serialization
        // guarantee — and its cost — apply exclusively to runs that
        // install `SweepHooks::progress`. Debug builds assert the
        // monotonicity on the hook path.
        let progress_lock = Mutex::new(());
        let last_reported = AtomicUsize::new(0);
        let report = |_idx: usize| match hooks.progress {
            Some(progress) => {
                let _serialized = progress_lock.lock().unwrap_or_else(|e| e.into_inner());
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                let previous = last_reported.swap(completed, Ordering::Relaxed);
                debug_assert_eq!(
                    completed,
                    previous + 1,
                    "progress callbacks must observe exactly 1, 2, …, total"
                );
                progress(completed, total);
            }
            None => {
                done.fetch_add(1, Ordering::Relaxed);
            }
        };
        let cancelled = || hooks.cancel.is_some_and(CancelToken::is_cancelled);

        // A sweep launched from inside another sweep's worker (nested
        // branch pools) is clamped to the cores not already running pooled
        // workers; top-level sweeps keep their configured width.
        let workers = nested_worker_budget(self.jobs.min(total));
        if workers <= 1 {
            // Inline fast path: `--jobs 1` is a genuinely serial run (the
            // baseline of every speedup claim), not a one-thread pool. The
            // error semantics mirror the pooled path exactly: the queue
            // drains past panics so `lost_tasks` lists *every* failing
            // task, independent of the worker count.
            let mut scratch = init();
            let mut results = Vec::with_capacity(total);
            let mut lost_tasks: Vec<usize> = Vec::new();
            for (i, item) in items.iter().enumerate() {
                if cancelled() {
                    return Err(SweepError::Cancelled {
                        completed: done.load(Ordering::Relaxed),
                    });
                }
                match catch_unwind(AssertUnwindSafe(|| task(&mut scratch, i, item))) {
                    Ok(t) => {
                        results.push(t);
                        report(i);
                    }
                    Err(_) => lost_tasks.push(i),
                }
            }
            if !lost_tasks.is_empty() {
                return Err(SweepError::WorkerPanicked { lost_tasks });
            }
            return Ok(results);
        }

        // Work-stealing queue: one shared counter of the next unclaimed
        // chunk of tasks. A claim hands out `chunk` consecutive indices —
        // fewer fetch-adds on the shared counter (which otherwise
        // ping-pongs between sockets on big machines) and consecutive
        // loops stay on one worker's warm scratch. Finished-early workers
        // immediately claim pending chunks, so load imbalance (one
        // pathological loop among hundreds) costs at most one chunk of
        // idle time per worker.
        let chunk = self.chunk_for(total);
        let next = AtomicUsize::new(0);
        let task_ref = &task;
        let init_ref = &init;
        let _active = ActiveWorkersGuard::register(workers);
        let parts: Vec<WorkerPart<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        IN_SWEEP_WORKER.with(|flag| flag.set(true));
                        let mut scratch = init_ref();
                        let mut local: Vec<(usize, T)> = Vec::new();
                        let mut lost: Vec<usize> = Vec::new();
                        'claims: loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= total {
                                break;
                            }
                            let end = (start + chunk).min(total);
                            for (i, item) in items[start..end].iter().enumerate() {
                                let i = start + i;
                                // Cancellation latency stays one *task*,
                                // not one chunk.
                                if cancelled() {
                                    break 'claims;
                                }
                                // Catch per-task panics so one bad loop
                                // cannot take the other results on this
                                // worker with it.
                                match catch_unwind(AssertUnwindSafe(|| {
                                    task_ref(&mut scratch, i, item)
                                })) {
                                    Ok(t) => {
                                        local.push((i, t));
                                        report(i);
                                    }
                                    Err(_) => lost.push(i),
                                }
                            }
                        }
                        if lost.is_empty() {
                            Ok(local)
                        } else {
                            Err(WorkerLoss { local, lost })
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    // `catch_unwind` above means scoped workers only die on
                    // non-unwinding aborts; treat a lost handle as losing
                    // whatever it had claimed.
                    Err(_) => Err(WorkerLoss {
                        local: Vec::new(),
                        lost: Vec::new(),
                    }),
                })
                .collect()
        });

        // Reassemble by task index: identical output order for any worker
        // count and any interleaving.
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(total).collect();
        let mut lost_tasks: Vec<usize> = Vec::new();
        let mut worker_died = false;
        for part in parts {
            match part {
                Ok(local) => {
                    for (i, t) in local {
                        slots[i] = Some(t);
                    }
                }
                Err(loss) => {
                    worker_died = true;
                    lost_tasks.extend(loss.lost);
                    for (i, t) in loss.local {
                        slots[i] = Some(t);
                    }
                }
            }
        }
        if worker_died {
            lost_tasks.sort_unstable();
            return Err(SweepError::WorkerPanicked { lost_tasks });
        }
        // A cancellation that raced in *after* the last task completed did
        // not lose anything — return the full result set, like the serial
        // path (whose loop has already exited by then) does.
        let results: Vec<T> = slots.into_iter().flatten().collect();
        if results.len() < total {
            debug_assert!(cancelled(), "missing results without panic or cancel");
            return Err(SweepError::Cancelled {
                completed: done.load(Ordering::Relaxed),
            });
        }
        Ok(results)
    }
}

/// What a panicking worker managed to salvage: completed results plus the
/// indices of the task(s) whose panics were caught.
struct WorkerLoss<T> {
    local: Vec<(usize, T)>,
    lost: Vec<usize>,
}

/// One worker's contribution to a sweep: index-tagged results, or a
/// [`WorkerLoss`] when any of its tasks panicked.
type WorkerPart<T> = Result<Vec<(usize, T)>, WorkerLoss<T>>;

/// A [`mirs::BranchExecutor`] backed by a private [`SweepExecutor`]: fans
/// the independent attempts of one `backtrack` or `exact` candidate-II
/// group across `MIRS_BRANCH_JOBS` workers.
///
/// This is the harness's bridge between the in-loop search and the sweep
/// engine. Scheduling outcomes are byte-identical to the serial search —
/// the core driver merges branch results in deterministic attempt order —
/// so the pool only changes wall-clock time. The scheduler decides whether
/// a group fans out at all
/// ([`MirsScheduler::schedule_with_exec`](mirs::MirsScheduler::schedule_with_exec)).
/// [`SchedScratch`](mirs::SchedScratch)es are pooled across the groups of
/// one loop behind a mutex, so repeated groups reuse warmed allocations
/// instead of re-allocating per branch;
/// [`runner::schedule_loop_opts`](crate::runner::schedule_loop_opts) builds
/// one pool per loop.
///
/// Branch groups are small bags (typically 3 tasks), so the pool claims
/// one branch per atomic fetch (`chunk = 1`). When the pool is opened
/// *inside* an outer sweep's worker — the nested case — an
/// oversubscription guard clamps its width to the cores the outer
/// sweep left free, degrading to a serial in-thread run on a saturated
/// machine: no deadlock is possible either way (every run spawns fresh
/// scoped threads), the clamp only prevents oversubscription.
pub struct BranchPool {
    exec: SweepExecutor,
    scratches: Mutex<Vec<mirs::SchedScratch>>,
}

impl BranchPool {
    /// Pool with exactly `jobs` branch workers (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            exec: SweepExecutor::new(jobs).with_chunk(1),
            scratches: Mutex::new(Vec::new()),
        }
    }

    /// Configured branch-worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.exec.jobs()
    }

    fn pop_scratch(&self) -> mirs::SchedScratch {
        self.scratches
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    fn push_scratch(&self, scratch: mirs::SchedScratch) {
        self.scratches
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(scratch);
    }
}

impl mirs::BranchExecutor for BranchPool {
    fn run_branches(&self, branches: usize, job: &(dyn Fn(usize, &mut mirs::SchedScratch) + Sync)) {
        let indices: Vec<usize> = (0..branches).collect();
        self.exec.run(&indices, |_, &branch| {
            // Pop/push around each branch rather than per-worker `init`
            // state, so the scratches survive the pool's scoped threads
            // and warm the next group. Which scratch a branch gets is
            // interleaving-dependent — fine, because scheduling outcomes
            // never depend on scratch history (the sweep-wide contract).
            let mut scratch = self.pop_scratch();
            job(branch, &mut scratch);
            self.push_scratch(scratch);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1usize, 2, 3, 8, 64] {
            let exec = SweepExecutor::new(jobs);
            let got = exec.run(&items, |_, &x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn results_are_in_item_order_for_any_chunk_size() {
        let items: Vec<u64> = (0..203).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for jobs in [2usize, 4] {
            for chunk in [1usize, 3, 8, 64, 1024] {
                let exec = SweepExecutor::new(jobs).with_chunk(chunk);
                let got = exec.run(&items, |_, &x| x * 3);
                assert_eq!(got, expect, "jobs={jobs} chunk={chunk}");
            }
        }
    }

    #[test]
    fn executor_clamps_to_at_least_one_worker() {
        assert_eq!(SweepExecutor::new(0).jobs(), 1);
        assert_eq!(SweepExecutor::serial().jobs(), 1);
        assert!(SweepExecutor::from_env().jobs() >= 1);
        assert!(SweepExecutor::from_env().chunk() >= 1);
        assert_eq!(SweepExecutor::new(2).with_chunk(0).chunk(), 1);
        assert_eq!(SweepExecutor::new(2).chunk(), DEFAULT_CHUNK);
    }

    #[test]
    fn small_bags_are_declustered_so_every_worker_gets_work() {
        // 6 tasks, 4 workers, chunk 8: the effective chunk must shrink to 1
        // (a single worker must not swallow the whole bag in one claim).
        let exec = SweepExecutor::new(4).with_chunk(8);
        assert_eq!(exec.chunk_for(6), 1);
        // A big bag keeps the configured chunk.
        assert_eq!(exec.chunk_for(1258), 8);
        // And the override is honoured up to the decluster bound.
        assert_eq!(SweepExecutor::new(2).with_chunk(64).chunk_for(1258), 64);
    }

    #[test]
    fn scratch_is_per_worker_and_threaded_through_tasks() {
        // Each worker's scratch counts the tasks it executed; the sum over
        // workers must cover every item exactly once, and the number of
        // init() calls can never exceed the worker count.
        let inits = AtomicUsize::new(0);
        let executed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..50).collect();
        for jobs in [1usize, 4] {
            inits.store(0, Ordering::Relaxed);
            executed.store(0, Ordering::Relaxed);
            let exec = SweepExecutor::new(jobs).with_chunk(4);
            let got = exec.run_scratch(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize // per-worker task counter
                },
                |count, _, &x| {
                    *count += 1;
                    executed.fetch_add(1, Ordering::Relaxed);
                    x + *count // scratch visibly participates
                },
            );
            assert_eq!(got.len(), items.len(), "jobs={jobs}");
            assert_eq!(executed.load(Ordering::Relaxed), items.len());
            assert!(inits.load(Ordering::Relaxed) <= jobs.max(1));
            assert!(inits.load(Ordering::Relaxed) >= 1);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let exec = SweepExecutor::new(4);
        let got: Vec<u32> = exec.run(&[] as &[u32], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn worker_panic_is_surfaced_as_an_error_not_a_hang() {
        for jobs in [1usize, 4] {
            let exec = SweepExecutor::new(jobs);
            let items: Vec<usize> = (0..16).collect();
            let out = exec.try_run(&items, |_, &x| {
                assert!(x != 5, "task 5 exploded");
                x
            });
            match out {
                Err(SweepError::WorkerPanicked { lost_tasks }) => {
                    assert!(lost_tasks.contains(&5), "jobs={jobs}: {lost_tasks:?}")
                }
                other => panic!("jobs={jobs}: expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_panicking_task_is_reported_for_any_worker_count() {
        // The queue drains past panics in the serial path too, so
        // `lost_tasks` is worker-count independent.
        let items: Vec<usize> = (0..16).collect();
        for jobs in [1usize, 4] {
            let exec = SweepExecutor::new(jobs);
            let out = exec.try_run(&items, |_, &x| {
                assert!(x != 3 && x != 7, "tasks 3 and 7 explode");
                x
            });
            assert_eq!(
                out,
                Err(SweepError::WorkerPanicked {
                    lost_tasks: vec![3, 7]
                }),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn run_reraises_worker_panics() {
        let exec = SweepExecutor::new(2);
        let items: Vec<usize> = (0..8).collect();
        let _ = exec.run(&items, |_, &x| {
            assert!(x != 3, "boom");
            x
        });
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn inline_run_propagates_the_original_panic_unwrapped() {
        // One effective worker: no catch_unwind envelope, so the task's
        // own panic message surfaces instead of a SweepError wrapper.
        let exec = SweepExecutor::serial();
        let items: Vec<usize> = (0..8).collect();
        let _ = exec.run(&items, |_, &x| {
            assert!(x != 3, "task 3 exploded");
            x
        });
    }

    #[test]
    fn pre_cancelled_sweep_runs_nothing() {
        let exec = SweepExecutor::new(4);
        let token = CancelToken::new();
        token.cancel();
        let hooks = SweepHooks {
            progress: None,
            cancel: Some(&token),
        };
        let items: Vec<usize> = (0..32).collect();
        let out = exec.try_run_hooked(&items, |_, &x| x, &hooks);
        assert_eq!(out, Err(SweepError::Cancelled { completed: 0 }));
    }

    #[test]
    fn progress_is_monotone_and_exact_for_any_jobs_and_chunk() {
        // The observed completion sequence must be exactly 1..=total, in
        // order, for any worker count and claim-chunk size — per completed
        // *task*, never per claimed chunk, and never out of order (the
        // regression this pins: two workers racing between the counter
        // increment and the callback).
        for jobs in [1usize, 3, 4] {
            for chunk in [1usize, 2, 8] {
                let seen = std::sync::Mutex::new(Vec::new());
                let progress = |completed: usize, total: usize| {
                    assert_eq!(total, 37);
                    seen.lock().unwrap().push(completed);
                };
                let hooks = SweepHooks {
                    progress: Some(&progress),
                    cancel: None,
                };
                let items: Vec<usize> = (0..37).collect();
                let exec = SweepExecutor::new(jobs).with_chunk(chunk);
                let out = exec.try_run_hooked(&items, |_, &x| x, &hooks).unwrap();
                assert_eq!(out.len(), 37);
                let seen = seen.into_inner().unwrap();
                assert_eq!(
                    seen,
                    (1..=37).collect::<Vec<_>>(),
                    "jobs={jobs} chunk={chunk}: progress must be monotone and exact"
                );
            }
        }
    }

    #[test]
    fn progress_hook_sees_every_completion() {
        let count = AtomicUsize::new(0);
        let progress = |_done: usize, total: usize| {
            assert_eq!(total, 24);
            count.fetch_add(1, Ordering::Relaxed);
        };
        let hooks = SweepHooks {
            progress: Some(&progress),
            cancel: None,
        };
        let items: Vec<usize> = (0..24).collect();
        let exec = SweepExecutor::new(3);
        let out = exec.try_run_hooked(&items, |_, &x| x + 1, &hooks).unwrap();
        assert_eq!(out.len(), 24);
        assert_eq!(count.load(Ordering::Relaxed), 24);
    }

    #[test]
    fn errors_format_readably() {
        let e = SweepError::WorkerPanicked {
            lost_tasks: vec![3],
        };
        assert!(e.to_string().contains("lost tasks [3]"));
        let c = SweepError::Cancelled { completed: 7 };
        assert!(c.to_string().contains("after 7"));
    }
}
