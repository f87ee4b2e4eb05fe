//! The parallel sweep engine: a small work-stealing worker pool over an
//! atomic task queue, built from scoped threads only (no runtime deps).
//!
//! Every experiment in this crate is a bag of independent
//! (loop, machine-config) tasks — the 1258-loop workbench, the fig5/fig6
//! design-space sweeps, the table3 scheduling-time comparison. The
//! [`SweepExecutor`] shards such a bag across its worker threads while
//! keeping the output *byte-identical* to a serial run:
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Variable setting the worker count for [`SweepExecutor::from_vars`]
/// (`0` keeps the default: all cores).
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
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::WorkerPanicked { lost_tasks } => {
                write!(f, "sweep worker panicked; lost tasks {lost_tasks:?}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

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
};

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

    /// Executor sized by the [`JOBS_ENV`] variable as `var` looks it up,
    /// defaulting (unset or `0`) to
    /// [`std::thread::available_parallelism`], with the default claim
    /// chunk. Front ends pass the process environment in; the library
    /// never reads it.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set to something other than a worker
    /// count, naming the variable and the accepted values.
    #[must_use]
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let jobs = var(JOBS_ENV).map_or(0, |v| {
            v.trim().parse::<usize>().unwrap_or_else(|_| {
                panic!("{JOBS_ENV}={v:?} is not a worker count (expected 0, 1, 2, ...)")
            })
        });
        if jobs > 0 {
            return Self::new(jobs);
        }
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
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
        self.run_scratch(items, || (), |_scratch, i, item| task(i, item))
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
        match self.run_caught(items, init, task) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`SweepExecutor::run`] but surfaces worker panics as a
    /// [`SweepError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SweepError::WorkerPanicked`] when any task panicked (the queue is
    /// still drained — a panic never hangs the sweep).
    pub fn try_run<I, T, F>(&self, items: &[I], task: F) -> Result<Vec<T>, SweepError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run_caught(items, || (), |_scratch, i, item| task(i, item))
    }

    /// The core every `run` flavour delegates to: per-worker scratch
    /// state, every task panic caught and reported by task index.
    fn run_caught<I, T, S, G, F>(&self, items: &[I], init: G, task: F) -> Result<Vec<T>, SweepError>
    where
        I: Sync,
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        let total = items.len();
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
                match catch_unwind(AssertUnwindSafe(|| task(&mut scratch, i, item))) {
                    Ok(t) => results.push(t),
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
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= total {
                                break;
                            }
                            let end = (start + chunk).min(total);
                            for (i, item) in items[start..end].iter().enumerate() {
                                let i = start + i;
                                // Catch per-task panics so one bad loop
                                // cannot take the other results on this
                                // worker with it.
                                match catch_unwind(AssertUnwindSafe(|| {
                                    task_ref(&mut scratch, i, item)
                                })) {
                                    Ok(t) => local.push((i, t)),
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
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every task ran on a surviving worker"))
            .collect())
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
/// group across
/// [`SearchConfig::branch_jobs`](mirs::SearchConfig::branch_jobs)
/// workers.
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
/// [`runner::schedule_loop`](crate::runner::schedule_loop) builds one pool
/// per loop.
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
        assert_eq!(SweepExecutor::new(2).with_chunk(0).chunk(), 1);
        assert_eq!(SweepExecutor::new(2).chunk(), DEFAULT_CHUNK);
    }

    #[test]
    fn jobs_variable_sizes_the_executor() {
        let jobs = |value: Option<&str>| {
            SweepExecutor::from_vars(|name| {
                assert_eq!(name, JOBS_ENV);
                value.map(str::to_string)
            })
        };
        assert_eq!(jobs(Some("4")).jobs(), 4);
        assert_eq!(jobs(Some(" 1 ")).jobs(), 1);
        // Unset and `0` both mean every core.
        let cores = jobs(None).jobs();
        assert!(cores >= 1);
        assert_eq!(jobs(Some("0")).jobs(), cores);
        assert_eq!(jobs(None).chunk(), DEFAULT_CHUNK);
    }

    #[test]
    #[should_panic(expected = "MIRS_JOBS=\"four\" is not a worker count")]
    fn jobs_variable_that_is_not_a_number_panics() {
        let _ = SweepExecutor::from_vars(|_| Some("four".to_string()));
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
    fn errors_format_readably() {
        let e = SweepError::WorkerPanicked {
            lost_tasks: vec![3],
        };
        assert!(e.to_string().contains("lost tasks [3]"));
    }
}
