//! The pluggable II-search engine.
//!
//! PR 4's transactional [`DepGraph`] made an II restart an O(edits)
//! rollback instead of a graph clone, which makes exploring *several*
//! candidate IIs — or re-entering a failed II with a perturbed priority
//! order — nearly free. This module turns the former monolithic
//! `fail → II+1` loop into a small search layer:
//!
//! * a `SearchDriver` owns the working graph, the nested
//!   [`CheckpointStack`], the epoch-cached HRMS order and the
//!   [`SchedScratch`], runs attempts through the unchanged MIRS-C engine
//!   ([`MirsScheduler::attempt`](crate::MirsScheduler)) and keeps the best
//!   successful candidate;
//! * a [`SearchStrategy`] decides, from a [`SearchView`] of what happened
//!   so far, the next [`SearchMove`]: try an II with the canonical order,
//!   re-enter one with a deterministically perturbed order, accept the
//!   best candidate, or give up.
//!
//! Three strategies ship ([`LinearSearch`], [`BacktrackingSearch`],
//! [`ExactSearch`]); [`LinearSearch`] is the default and is
//! bit-identical to the paper's monotonic climb — the golden schedule-hash
//! tests pin that equivalence. Candidates are compared by the paper's
//! metric order: achieved II first, then spill operations (memory-traffic
//! overhead), then moves, with the earliest attempt winning ties, so the
//! branching strategies can never return a worse (II, spill-ops) pair than
//! the linear climb — they always include its canonical attempts.
//!
//! Determinism: every perturbation seed is derived from a fixed base seed,
//! the II and the branch index by a SplitMix64 mix, so the same loop
//! explores the identical tree in every run, on every thread of the
//! parallel sweep harness.
//!
//! # The admission filter
//!
//! With [`SearchConfig::prune`] on (the default), a bounded relaxation
//! pass (the private `relax` submodule) screens every in-range candidate
//! II before its cold attempt: when the pass *proves* the II infeasible —
//! and every II below
//! it back to the MII is proven too — the driver skips the attempt
//! outright and reports a pruned failure to the strategy. Because only
//! provably-infeasible IIs are ever skipped, the accepted
//! schedule is byte-identical with the filter on or off; only the wasted
//! cold attempts disappear. `SearchMeta::pruned_iis` and
//! `SchedulerStats::relax_seconds` surface what the filter did and what
//! it cost.
//!
//! # Branch-parallel execution
//!
//! The attempts inside one [`BacktrackingSearch`] candidate-II group — the
//! canonical order plus two seeded perturbations — are mutually
//! independent: each one starts from the pristine group-start
//! graph (which the checkpoint discipline makes identical to the search
//! root) and its outcome is a pure function of `(graph, order, ii,
//! options)`. A [`BranchExecutor`] exploits that: when
//! [`SearchConfig::branch_jobs`] `> 1`, the driver hands every group to the
//! executor, each branch schedules a private graph clone with its own
//! [`SchedScratch`], and the outcomes are merged *in branch order* through
//! the same `(II, spill-ops, moves, earliest-attempt)` candidate
//! comparison the serial driver uses — so the
//! accepted schedule, `SearchMeta::attempts` and `SearchMeta::candidates`
//! are byte-identical to the serial search for any worker count. The
//! driver itself stays single-threaded: [`InlineBranchExecutor`] (the
//! default) runs branches sequentially on the caller's thread, and the
//! harness supplies a pool-backed executor built on its sweep engine.

use crate::error::ScheduleError;
use crate::options::{SearchConfig, SearchStrategyKind};
use crate::result::{ScheduleResult, SchedulerStats, SearchMeta, SearchProof};
use crate::scheduler::{debug_enabled, graph_audit_enabled, AttemptOutcome, MirsScheduler};
use crate::scratch::SchedScratch;
use ddg::{hrms, mii, CheckpointStack, DepGraph, Loop, NodeId};
use std::sync::Mutex;
use std::time::Instant;
use vliw::Opcode;

pub(crate) mod exact;
pub(crate) mod relax;

/// Next action requested by a [`SearchStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMove {
    /// Attempt scheduling at `ii` with the canonical HRMS priority order.
    TryII(u32),
    /// Attempt `ii` with the priority order perturbed by `seed`.
    RetryPerturbed {
        /// Candidate initiation interval to re-enter.
        ii: u32,
        /// Perturbation seed (derive it deterministically!).
        seed: u64,
    },
    /// Stop and accept the best candidate found so far.
    Accept,
    /// Stop without a schedule ([`ScheduleError::NotConverged`]).
    GiveUp,
}

/// What one finished attempt looked like, fed back to the strategy.
#[derive(Debug, Clone, Copy)]
pub struct AttemptReport {
    /// Initiation interval that was attempted.
    pub ii: u32,
    /// Perturbation seed, `None` for the canonical order.
    pub seed: Option<u64>,
    /// Whether the attempt produced a valid schedule.
    pub success: bool,
    /// Spill operations of the schedule (0 on failure).
    pub spill_ops: u32,
    /// Whether this attempt became the incumbent best candidate.
    pub became_best: bool,
    /// The attempt never ran: the relaxation admission filter proved the
    /// II infeasible and the driver skipped it (`success` is `false` and
    /// no attempt counter moved).
    pub pruned: bool,
}

/// Read-only view of the search state a strategy decides from.
#[derive(Debug, Clone, Copy)]
pub struct SearchView {
    /// Lower II bound (`max(ResMII, RecMII)`) — where climbs start.
    pub mii: u32,
    /// Hard upper II bound from [`SchedulerOptions::max_ii`](crate::SchedulerOptions).
    pub max_ii: u32,
    /// Attempts made so far.
    pub attempts: u32,
    /// Report of the attempt that just finished (`None` before the first).
    pub last: Option<AttemptReport>,
    /// `(ii, spill_ops)` of the incumbent best candidate, if any.
    pub best: Option<(u32, u32)>,
    /// Distinct candidate IIs the relaxation admission filter has proven
    /// infeasible and skipped so far — a budgeted strategy can treat these
    /// as free failures.
    pub pruned_iis: u32,
}

/// A strategy for searching the candidate-II space.
///
/// The driver calls [`SearchStrategy::next_move`] exactly once per decision
/// point: before the first attempt, and after every finished attempt (the
/// [`SearchView::last`] report tells the strategy how it went). Returning
/// [`SearchMove::Accept`] immediately after a successful attempt accepts
/// that attempt *in place* — no graph clone — which is why the default
/// linear strategy keeps the zero-clone property of the pre-search
/// scheduler.
pub trait SearchStrategy {
    /// Which strategy this is (recorded in [`SearchMeta`]).
    fn kind(&self) -> SearchStrategyKind;
    /// Decide the next move.
    fn next_move(&mut self, view: &SearchView) -> SearchMove;
}

/// Executes the independent attempts of one candidate-II branch group,
/// possibly concurrently.
///
/// The driver calls [`BranchExecutor::run_branches`] once per group with
/// the number of branches to run; the executor must invoke `job(index,
/// scratch)` **exactly once** for every `index` in `0..branches` — in any
/// order, with any concurrency — and return only after every invocation
/// has finished. Each concurrent invocation needs exclusive access to a
/// [`SchedScratch`]; reusing one scratch across sequential invocations is
/// fine (the job fully re-initialises it).
///
/// The job is pure with respect to the executor: results land in
/// per-branch slots owned by the driver, so scheduling outcomes are
/// byte-identical for every conforming executor — from the serial
/// [`InlineBranchExecutor`] to a thread pool. A panicking invocation may
/// be propagated or may abort remaining branches; it must not be
/// swallowed while reporting completion.
pub trait BranchExecutor {
    /// Run `job` for every branch index in `0..branches` and wait for all
    /// of them.
    fn run_branches(&self, branches: usize, job: &(dyn Fn(usize, &mut SchedScratch) + Sync));
}

/// The default [`BranchExecutor`]: runs every branch sequentially on the
/// caller's thread with one reused scratch. With it, the branch-parallel
/// driver degenerates to a serial search — this is what
/// [`MirsScheduler::schedule_with`](crate::MirsScheduler::schedule_with)
/// installs, keeping the core crate single-threaded by default.
#[derive(Debug, Default, Clone, Copy)]
pub struct InlineBranchExecutor;

impl BranchExecutor for InlineBranchExecutor {
    fn run_branches(&self, branches: usize, job: &(dyn Fn(usize, &mut SchedScratch) + Sync)) {
        let mut scratch = SchedScratch::default();
        for index in 0..branches {
            job(index, &mut scratch);
        }
    }
}

/// SplitMix64 mixing step — the deterministic seed/jitter generator used
/// for priority perturbations (no external PRNG dependency).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Perturbed priority orders tried *in addition to* the canonical HRMS
/// order at each candidate II of [`BacktrackingSearch`].
const BRANCHES: u32 = 2;

/// Base seed of the deterministic priority perturbations.
const SEED: u64 = 0x5eed_1e55_c0de_2026;

/// Attempt seed for branch `branch` of candidate II `ii`.
fn derive_seed(ii: u32, branch: u32) -> u64 {
    splitmix64(SEED ^ (u64::from(ii) << 32) ^ u64::from(branch))
}

/// How far (in list positions) a perturbation may displace a node.
const PERTURB_STRENGTH: f64 = 3.0;

/// Deterministically perturb an HRMS order into `out`: every node's rank
/// is jittered by up to [`PERTURB_STRENGTH`] positions and the list
/// re-sorted (stably), so the global HRMS structure survives while local
/// ties and near-ties are reshuffled. Identical `(order, seed)` inputs
/// produce identical outputs on every platform.
pub(crate) fn perturb_order(order: &[NodeId], seed: u64, out: &mut Vec<NodeId>) {
    let mut state = splitmix64(seed);
    let mut keyed: Vec<(f64, NodeId)> = order
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            state = splitmix64(state);
            // 53 uniform mantissa bits in [0, 1).
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            (i as f64 + unit * PERTURB_STRENGTH, n)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
    out.clear();
    out.extend(keyed.into_iter().map(|(_, n)| n));
}

/// The paper's monotonic climb: try `mii`, `mii+1`, … with the canonical
/// order and accept the first success. Bit-identical to the pre-search
/// scheduler (and its zero-clone fast path).
#[derive(Debug, Default)]
pub struct LinearSearch {
    next_ii: Option<u32>,
}

impl SearchStrategy for LinearSearch {
    fn kind(&self) -> SearchStrategyKind {
        SearchStrategyKind::Linear
    }

    fn next_move(&mut self, view: &SearchView) -> SearchMove {
        if view.last.is_some_and(|r| r.success) {
            return SearchMove::Accept;
        }
        let ii = self.next_ii.unwrap_or(view.mii);
        if ii > view.max_ii {
            return SearchMove::GiveUp;
        }
        self.next_ii = Some(ii + 1);
        SearchMove::TryII(ii)
    }
}

/// Branching multi-II exploration: at every candidate II, try the
/// canonical order plus two perturbed orders (each under a nested graph
/// checkpoint), keep climbing while nothing succeeds, and accept the best
/// candidate as soon as the first feasible II's branch group is complete.
///
/// Because the canonical attempt of every II is part of the branch set,
/// the accepted `(ii, spill_ops)` is never worse than [`LinearSearch`]'s —
/// and strictly better whenever a perturbed order unlocks a smaller II or
/// saves spill code at the same II.
#[derive(Debug, Default)]
pub struct BacktrackingSearch {
    ii: Option<u32>,
    /// Next branch index at the current II (0 = canonical still pending).
    branch: u32,
}

impl SearchStrategy for BacktrackingSearch {
    fn kind(&self) -> SearchStrategyKind {
        SearchStrategyKind::Backtracking
    }

    fn next_move(&mut self, view: &SearchView) -> SearchMove {
        let Some(ii) = self.ii else {
            if view.mii > view.max_ii {
                return SearchMove::GiveUp;
            }
            self.ii = Some(view.mii);
            self.branch = 1;
            return SearchMove::TryII(view.mii);
        };
        if self.branch <= BRANCHES {
            let seed = derive_seed(ii, self.branch);
            self.branch += 1;
            return SearchMove::RetryPerturbed { ii, seed };
        }
        // The II's branch group is complete.
        if view.best.is_some() {
            return SearchMove::Accept;
        }
        if ii + 1 > view.max_ii {
            return SearchMove::GiveUp;
        }
        self.ii = Some(ii + 1);
        self.branch = 1;
        SearchMove::TryII(ii + 1)
    }
}

/// The climb phase of the [`SearchStrategyKind::Exact`] strategy: after
/// the branch-and-bound prover has certified a lower bound (which the
/// driver raises the climb floor to), the candidate-II exploration itself
/// is [`BacktrackingSearch`] move-for-move — canonical order plus seeded
/// perturbed branches per II under nested graph checkpoints — so the
/// accepted schedule is byte-identical to what the backtracking strategy
/// finds at the same II, and a cached backtrack entry can be refined in
/// place by its exact twin. Only the reported kind (and, via the driver,
/// the attached [`SearchProof`]) differ.
#[derive(Debug, Default)]
pub struct ExactSearch {
    inner: BacktrackingSearch,
}

impl SearchStrategy for ExactSearch {
    fn kind(&self) -> SearchStrategyKind {
        SearchStrategyKind::Exact
    }

    fn next_move(&mut self, view: &SearchView) -> SearchMove {
        self.inner.next_move(view)
    }
}

/// Stack-allocated dispatch over the shipped strategies (no `Box` per
/// scheduled loop).
#[derive(Debug)]
pub(crate) enum StrategyImpl {
    Linear(LinearSearch),
    Backtracking(BacktrackingSearch),
    Exact(ExactSearch),
}

impl StrategyImpl {
    pub(crate) fn as_dyn(&mut self) -> &mut dyn SearchStrategy {
        match self {
            StrategyImpl::Linear(s) => s,
            StrategyImpl::Backtracking(s) => s,
            StrategyImpl::Exact(s) => s,
        }
    }
}

impl SearchConfig {
    /// Instantiate the configured strategy.
    ///
    /// Note that [`SearchStrategyKind::Exact`] needs the driver's
    /// [`SearchDriver::run_exact`] entry to get its bounding phase; the
    /// bare strategy only reproduces the climb.
    pub(crate) fn strategy_impl(&self) -> StrategyImpl {
        match self.strategy {
            SearchStrategyKind::Linear => StrategyImpl::Linear(LinearSearch::default()),
            SearchStrategyKind::Backtracking => {
                StrategyImpl::Backtracking(BacktrackingSearch::default())
            }
            SearchStrategyKind::Exact => StrategyImpl::Exact(ExactSearch::default()),
        }
    }
}

/// Candidate-comparison key: lower is better. II first (the paper's primary
/// metric), then spill operations (memory-traffic overhead), then moves,
/// then the attempt index — so between otherwise equal schedules the
/// earliest (canonical-first) attempt wins and the search is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CandidateKey {
    ii: u32,
    spill_ops: u32,
    moves: u32,
    attempt: u32,
}

/// A stashed successful attempt.
struct Candidate {
    key: CandidateKey,
    result: ScheduleResult,
}

/// What one fanned-out branch attempt produced, reported back to the
/// driver through its per-branch slot.
struct BranchOutcome {
    /// The finished schedule on success (`stats` holds only this attempt's
    /// own work counters; the merge folds the carried counters in).
    result: Option<ScheduleResult>,
    /// Spill operations of the schedule (candidate metric; 0 on failure).
    spill_ops: u32,
    /// Live moves of the schedule (candidate tie-break; 0 on failure).
    moves: u32,
    /// Work counters of a *failed* attempt (what the serial driver would
    /// have carried into the next attempt's stats).
    delta: SchedulerStats,
    /// Wall-clock seconds of the attempt on its worker.
    seconds: f64,
}

/// Fold the accumulative work counters of `delta` into `into` — exactly
/// the fields [`MirsScheduler::attempt`] accumulates across restarts via
/// the carried stats. Absolute fields (spill/move counts, memo counters,
/// timing) are set at result-packaging time and must not be summed.
fn accumulate(into: &mut SchedulerStats, delta: &SchedulerStats) {
    into.attempts += delta.attempts;
    into.ejections += delta.ejections;
    into.forced += delta.forced;
    into.moves_removed += delta.moves_removed;
}

/// Hard cap on attempts per loop — a backstop against a runaway custom
/// strategy, far above anything the shipped strategies can reach.
const MAX_ATTEMPTS_FLOOR: u32 = 4096;

/// The engine running a [`SearchStrategy`] over one loop.
///
/// Owns the working graph (the one clone of the whole search), the nested
/// [`CheckpointStack`] (search root → candidate-II group → attempt, so
/// branch rollbacks compose), the epoch-cached HRMS order and its perturbed
/// variants, and drives the borrowed [`SchedScratch`] through every
/// attempt.
pub(crate) struct SearchDriver<'a, 'm> {
    sched: &'a MirsScheduler<'m>,
    lp: &'a Loop,
    scratch: &'a mut SchedScratch,
    graph: DepGraph,
    cps: CheckpointStack,
    order: Vec<NodeId>,
    order_epoch: u64,
    perturbed: Vec<NodeId>,
    mem_ops_base: u64,
    mii: u32,
    max_ii: u32,
    debug: bool,
    audit: bool,
    start: Instant,
    // Search bookkeeping.
    attempts: u32,
    failures: u32,
    successes: u32,
    group_ii: Option<u32>,
    last_ii: u32,
    /// Candidate-II groups opened so far (`SearchMeta::groups`).
    groups: u32,
    /// Wall-clock seconds summed over every finished attempt.
    attempt_secs: f64,
    /// Sum of the slowest attempt of every *closed* group (critical path).
    critical_secs: f64,
    /// Slowest attempt of the group currently open.
    group_max_secs: f64,
    carried: SchedulerStats,
    view: SearchView,
    best: Option<Candidate>,
    /// Certified lower bound from the exact bounding phase (`None` for
    /// heuristic strategies); turned into the result's [`SearchProof`].
    bound: Option<exact::CertifiedBound>,
    /// A move the strategy decided right after a success, to be executed on
    /// the next loop turn (so the strategy is consulted once per decision).
    deferred: Option<SearchMove>,
    /// Whether the relaxation admission filter screens candidate IIs
    /// ([`SearchConfig::prune`]).
    prune: bool,
    /// The admission filter, built lazily on the first screened attempt
    /// (eagerly by [`SearchDriver::run_exact`], which shares its cache
    /// with the certifier).
    filter: Option<relax::RelaxFilter>,
    /// Distinct candidate IIs the filter proved infeasible and skipped.
    pruned: std::collections::BTreeSet<u32>,
    /// Wall-clock seconds spent in the relaxation (cache builds plus
    /// per-II verdicts), surfaced as `SchedulerStats::relax_seconds`.
    relax_secs: f64,
}

impl<'a, 'm> SearchDriver<'a, 'm> {
    /// Set up the search for `lp`: clone the working graph, apply the
    /// prefetch policy, derive recurrences/MII/HRMS order once, reset the
    /// scratch's spill memo to the loop's base epoch and open the root of
    /// the checkpoint tree.
    pub(crate) fn new(
        sched: &'a MirsScheduler<'m>,
        lp: &'a Loop,
        scratch: &'a mut SchedScratch,
    ) -> Self {
        let machine = sched.machine();
        let opts = sched.options();
        let lat = machine.latencies();
        // The one graph clone of the whole run: every attempt works on
        // this graph transactionally and is rolled back when abandoned.
        let mut graph = lp.graph.clone();
        crate::prefetch::apply_prefetch_policy(&mut graph, lat, &opts.prefetch, lp.trip_count);

        // Recurrences feed both the RecMII bound and the HRMS ordering —
        // derive them once instead of running Tarjan + the per-circuit
        // binary searches twice per loop.
        let recs = ddg::recurrence::recurrences(&graph, lat);
        let bounds = mii::mii_with_recurrences(
            &graph,
            &recs,
            machine.total_gp_units(),
            machine.total_mem_ports(),
        );
        let mii_value = bounds.mii();
        // The HRMS order depends only on graph structure, and a rollback
        // restores both the structure and the epoch — so one ordering
        // serves every attempt. The epoch check in `run_attempt` keeps the
        // cache honest should an edit ever escape the transaction
        // discipline.
        let order = hrms::hrms_order_with(&graph, lat, &recs);
        let order_epoch = graph.structural_epoch();
        // Invariant across attempts for the same reason the order is: the
        // rollback restores the graph bit-identically at attempt start.
        let mem_ops_base = graph.count_ops(Opcode::is_memory) as u64;
        // Structural memo entries taken at this epoch stay valid across
        // every rollback of the search.
        scratch.spill_memo_mut().begin_loop(&graph, order_epoch);
        let mut cps = CheckpointStack::new();
        cps.push(&mut graph); // depth 1: the root of the search tree
        let view = SearchView {
            mii: mii_value,
            max_ii: opts.max_ii,
            attempts: 0,
            last: None,
            best: None,
            pruned_iis: 0,
        };
        Self {
            sched,
            lp,
            scratch,
            graph,
            cps,
            order,
            order_epoch,
            perturbed: Vec::new(),
            mem_ops_base,
            mii: mii_value,
            max_ii: opts.max_ii,
            debug: debug_enabled(),
            audit: graph_audit_enabled(),
            start: Instant::now(),
            attempts: 0,
            failures: 0,
            successes: 0,
            group_ii: None,
            last_ii: mii_value.saturating_sub(1),
            groups: 0,
            attempt_secs: 0.0,
            critical_secs: 0.0,
            group_max_secs: 0.0,
            carried: SchedulerStats::default(),
            view,
            best: None,
            bound: None,
            deferred: None,
            prune: opts.search.prune,
            filter: None,
            pruned: std::collections::BTreeSet::new(),
            relax_secs: 0.0,
        }
    }

    /// Should the attempt at `ii` be skipped? True only when the
    /// relaxation has proven every II from the MII up to `ii` infeasible —
    /// the attempt could not possibly succeed, so skipping it cannot
    /// change which schedule the search accepts.
    fn should_prune(&mut self, ii: u32) -> bool {
        if !self.prune {
            return false;
        }
        let relax_start = Instant::now();
        let graph = &self.graph;
        let machine = self.sched.machine();
        let mii = self.mii;
        let filter = self
            .filter
            .get_or_insert_with(|| relax::RelaxFilter::new(graph, machine, mii));
        let rejected = filter.rejects(ii);
        self.relax_secs += relax_start.elapsed().as_secs_f64();
        rejected
    }

    /// Bookkeeping for a pruned candidate II: the climb position advances
    /// and the strategy sees a failure report, but no attempt counter
    /// moves — `SearchMeta::attempts` counts only attempts that ran.
    fn note_pruned(&mut self, ii: u32, seed: Option<u64>) {
        self.last_ii = self.last_ii.max(ii);
        if self.pruned.insert(ii) && self.debug {
            eprintln!(
                "PRUNE: loop '{}' ii={ii} relaxation-infeasible, attempt skipped",
                self.lp.name
            );
        }
        self.view.pruned_iis = u32::try_from(self.pruned.len()).unwrap_or(u32::MAX);
        self.record(AttemptReport {
            ii,
            seed,
            success: false,
            spill_ops: 0,
            became_best: false,
            pruned: true,
        });
    }

    /// Drive the [`SearchStrategyKind::Exact`] strategy: certify a lower
    /// bound on the II by branch-and-bound over the residue relaxation
    /// (see [`exact`]), raise the climb floor to that bound — every II
    /// below it is proven infeasible, so attempting them is wasted work —
    /// and then explore with the [`ExactSearch`] climb, which replays
    /// [`BacktrackingSearch`] exactly. [`SearchDriver::finish`] turns the
    /// carried bound into the result's [`SearchProof`].
    pub(crate) fn run_exact(mut self) -> Result<ScheduleResult, ScheduleError> {
        let mut budget = exact::ExactBudget::new(self.sched.options().search.exact_budget);
        // Build the shared relaxation state eagerly: the certifier probes
        // it per candidate II, and the admission filter keeps consulting
        // the same cached closure during the climb afterwards.
        let relax_start = Instant::now();
        let filter = relax::RelaxFilter::new(&self.graph, self.sched.machine(), self.mii);
        self.relax_secs += relax_start.elapsed().as_secs_f64();
        let bound = exact::certify_lower_bound(filter.cache(), self.mii, self.max_ii, &mut budget);
        self.filter = Some(filter);
        if self.debug {
            eprintln!(
                "EXACT: loop '{}' mii={} certified lower bound {}{}",
                self.lp.name,
                self.mii,
                bound.lower_bound,
                if bound.exhausted {
                    " (budget exhausted)"
                } else {
                    ""
                },
            );
        }
        // The strategy reads the climb floor from the view; the driver's
        // own `mii` keeps reporting the ResMII/RecMII bound in the result.
        self.view.mii = bound.lower_bound.max(self.mii);
        self.bound = Some(bound);
        self.run(&mut ExactSearch::default())
    }

    /// Drive `strategy` to completion.
    pub(crate) fn run(
        mut self,
        strategy: &mut dyn SearchStrategy,
    ) -> Result<ScheduleResult, ScheduleError> {
        let attempt_cap = MAX_ATTEMPTS_FLOOR.max(self.max_ii.saturating_mul(8));
        loop {
            let mv = match self.deferred.take() {
                Some(mv) => mv,
                None => strategy.next_move(&self.view),
            };
            let (ii, seed) = match mv {
                // A strategy giving up while holding a feasible candidate
                // still gets that candidate accepted — "stop searching"
                // must never discard a valid schedule.
                SearchMove::Accept | SearchMove::GiveUp => return self.accept(strategy.kind()),
                SearchMove::TryII(ii) => (ii, None),
                SearchMove::RetryPerturbed { ii, seed } => (ii, Some(seed)),
            };
            if self.attempts >= attempt_cap {
                // Backstop: a non-terminating custom strategy degrades to
                // accept-best / NotConverged instead of spinning forever.
                return self.accept(strategy.kind());
            }
            if ii < self.mii || ii > self.max_ii {
                // Out-of-range proposal (custom strategy): report it as a
                // failed attempt so the strategy moves on.
                self.attempts += 1;
                self.record(AttemptReport {
                    ii,
                    seed,
                    success: false,
                    spill_ops: 0,
                    became_best: false,
                    pruned: false,
                });
                continue;
            }
            if self.should_prune(ii) {
                self.note_pruned(ii, seed);
                continue;
            }
            if let Some(accepted) = self.run_attempt(strategy, ii, seed)? {
                return Ok(accepted);
            }
        }
    }

    /// Drive a [`BacktrackingSearch`] with every candidate-II branch group
    /// fanned across `exec`, merging outcomes deterministically.
    ///
    /// This replays the exact attempt sequence of the serial strategy —
    /// canonical order first, then two seeded perturbations per II, the
    /// same group-end accept/climb/give-up rules and the same global
    /// attempt cap — but runs each group's attempts on
    /// private graph clones instead of one transactional working graph.
    /// The two are equivalent because a group opens on the pristine root
    /// state (the serial driver abandons to the search root before every
    /// group) and an attempt's outcome is a pure function of
    /// `(graph, order, ii, options)`; the golden-hash and cross-jobs tests
    /// pin the equivalence.
    pub(crate) fn run_branch_parallel(
        mut self,
        exec: &dyn BranchExecutor,
    ) -> Result<ScheduleResult, ScheduleError> {
        let kind = SearchStrategyKind::Backtracking;
        let attempt_cap = MAX_ATTEMPTS_FLOOR.max(self.max_ii.saturating_mul(8));
        if self.mii > self.max_ii {
            return self.accept(kind);
        }
        // Branch attempts must never touch the shared base graph; with the
        // audit on, every group re-checks it against this pristine copy.
        let audit_base = if self.audit {
            Some(self.graph.clone())
        } else {
            None
        };
        let mut ii = self.mii;
        loop {
            if self.should_prune(ii) {
                // The relaxation proved this II infeasible: the whole
                // canonical+branches group is skipped (the serial driver
                // prunes each of its proposals individually — same
                // counters, same pruned set), and the group-end decision
                // below still runs so the climb matches the serial
                // strategy move-for-move. The rollback audit has nothing
                // to check — no branch ever ran.
                self.note_pruned(ii, None);
            } else {
                // Exactly the attempts `BacktrackingSearch` would issue at
                // this II, truncated by the attempt cap the serial driver
                // enforces before every attempt.
                let branches = (1 + BRANCHES).min(attempt_cap - self.attempts) as usize;
                self.run_group(exec, ii, branches);
                if let Some(base) = &audit_base {
                    assert!(
                        self.graph.same_content(base),
                        "branch-parallel search mutated the shared base graph of \
                         loop '{}' at II {ii}",
                        self.lp.name
                    );
                }
            }
            // `BacktrackingSearch::next_move`'s group-end decision, verbatim.
            if self.best.is_some() || ii + 1 > self.max_ii || self.attempts >= attempt_cap {
                return self.accept(kind);
            }
            ii += 1;
        }
    }

    /// Fan one candidate-II branch group across the executor, then merge
    /// the outcomes *in branch order* — which is the serial attempt order,
    /// so the incumbent-best updates, failure counts and carried work
    /// counters replay the serial search exactly, for any executor and any
    /// worker count.
    fn run_group(&mut self, exec: &dyn BranchExecutor, ii: u32, branches: usize) {
        self.groups += 1;
        self.group_ii = Some(ii);
        self.last_ii = self.last_ii.max(ii);
        let slots: Vec<Mutex<Option<BranchOutcome>>> = std::iter::repeat_with(|| Mutex::new(None))
            .take(branches)
            .collect();
        {
            let sched = self.sched;
            let lp = self.lp;
            let graph = &self.graph;
            let order = &self.order;
            let order_epoch = self.order_epoch;
            let mem_ops_base = self.mem_ops_base;
            let mii_value = self.mii;
            let debug = self.debug;
            let slots = &slots;
            let job = move |branch: usize, scratch: &mut SchedScratch| {
                let attempt_start = Instant::now();
                // Private clone of the group-start graph (identical to the
                // search root); the branch owns it outright, so no
                // transaction is needed — failure drops it, success commits
                // and moves it into the result.
                let mut branch_graph = graph.clone();
                let mut perturbed = Vec::new();
                let branch_order: &[NodeId] = if branch == 0 {
                    order
                } else {
                    let seed = derive_seed(ii, branch as u32);
                    perturb_order(order, seed, &mut perturbed);
                    &perturbed
                };
                // The pooled scratch may have served another loop (or
                // another branch of this one): re-anchor the memo to this
                // clone's epoch. Outcomes cannot depend on scratch history.
                scratch
                    .spill_memo_mut()
                    .begin_loop(&branch_graph, order_epoch);
                scratch.spill_memo_mut().begin_attempt();
                let mut delta = SchedulerStats::default();
                let outcome = sched.attempt(
                    &mut branch_graph,
                    branch_order,
                    ii,
                    mem_ops_base,
                    debug,
                    scratch,
                    &mut delta,
                );
                let (result, spill_ops, moves) = match outcome {
                    AttemptOutcome::Restart => (None, 0, 0),
                    AttemptOutcome::Success(st) => {
                        let spill_ops = st.spill_op_count();
                        let moves = st.move_op_count();
                        let result = st.into_result(scratch, &lp.name, mii_value, true);
                        (Some(result), spill_ops, moves)
                    }
                };
                let out = BranchOutcome {
                    result,
                    spill_ops,
                    moves,
                    delta,
                    seconds: attempt_start.elapsed().as_secs_f64(),
                };
                *slots[branch].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            };
            exec.run_branches(branches, &job);
        }
        for (branch, slot) in slots.into_iter().enumerate() {
            let out = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| {
                    panic!(
                        "BranchExecutor contract violation: branch {branch} of \
                         loop '{}' was never run",
                        self.lp.name
                    )
                });
            self.attempts += 1;
            self.attempt_secs += out.seconds;
            self.group_max_secs = self.group_max_secs.max(out.seconds);
            match out.result {
                None => {
                    self.failures += 1;
                    accumulate(&mut self.carried, &out.delta);
                }
                Some(mut result) => {
                    self.successes += 1;
                    // Fold in the counters carried over failed attempts,
                    // as the serial driver threads them through the
                    // attempt's stats; a success always consumes them.
                    accumulate(&mut result.stats, &self.carried);
                    self.carried = SchedulerStats::default();
                    result.stats.restarts = self.failures;
                    let key = CandidateKey {
                        ii,
                        spill_ops: out.spill_ops,
                        moves: out.moves,
                        attempt: self.attempts,
                    };
                    if self.best.as_ref().is_none_or(|b| key < b.key) {
                        self.best = Some(Candidate { key, result });
                    }
                }
            }
        }
        self.critical_secs += self.group_max_secs;
        self.group_max_secs = 0.0;
    }

    /// Execute one attempt and feed the outcome to the strategy. Returns
    /// `Some(result)` when the attempt was accepted in place.
    fn run_attempt(
        &mut self,
        strategy: &mut dyn SearchStrategy,
        ii: u32,
        seed: Option<u64>,
    ) -> Result<Option<ScheduleResult>, ScheduleError> {
        // Paranoia refresh of the epoch-cached order (rollbacks restore
        // the epoch, so this never fires under the transaction discipline).
        if self.graph.structural_epoch() != self.order_epoch {
            self.order = hrms::hrms_order(&self.graph, self.sched.machine().latencies());
            self.order_epoch = self.graph.structural_epoch();
        }
        // Candidate-II group level of the checkpoint tree (depth 2): the
        // first attempt at a new II opens a fresh group branch.
        if self.group_ii != Some(ii) {
            self.cps.abandon_to(&mut self.graph, 1);
            self.cps.push(&mut self.graph);
            self.group_ii = Some(ii);
            self.groups += 1;
            self.critical_secs += self.group_max_secs;
            self.group_max_secs = 0.0;
        }
        self.last_ii = self.last_ii.max(ii);
        self.attempts += 1;
        let attempt_index = self.attempts;
        self.scratch.spill_memo_mut().begin_attempt();
        // Attempt level (depth 3).
        let depth = self.cps.push(&mut self.graph);
        debug_assert!(depth >= 3, "search root, II group and attempt nest");
        let audit_base = if self.audit {
            Some(self.graph.clone())
        } else {
            None
        };
        let order: &[NodeId] = match seed {
            Some(seed) => {
                perturb_order(&self.order, seed, &mut self.perturbed);
                &self.perturbed
            }
            None => &self.order,
        };
        let attempt_start = Instant::now();
        let outcome = self.sched.attempt(
            &mut self.graph,
            order,
            ii,
            self.mem_ops_base,
            self.debug,
            self.scratch,
            &mut self.carried,
        );
        let attempt_secs = attempt_start.elapsed().as_secs_f64();
        self.attempt_secs += attempt_secs;
        self.group_max_secs = self.group_max_secs.max(attempt_secs);
        match outcome {
            AttemptOutcome::Restart => {
                self.cps.abandon(&mut self.graph);
                self.audit_rollback(&audit_base, ii);
                self.failures += 1;
                self.record(AttemptReport {
                    ii,
                    seed,
                    success: false,
                    spill_ops: 0,
                    became_best: false,
                    pruned: false,
                });
                Ok(None)
            }
            AttemptOutcome::Success(st) => {
                // NOTE: `st` holds the mutable borrow of `self.graph`, so
                // this block must stick to disjoint-field accesses (view,
                // best, scratch, …) until `st` is consumed.
                let spill_ops = st.spill_op_count();
                let key = CandidateKey {
                    ii,
                    spill_ops,
                    moves: st.move_op_count(),
                    attempt: attempt_index,
                };
                let became_best = self.best.as_ref().is_none_or(|b| key < b.key);
                self.successes += 1;
                self.view.attempts = self.attempts;
                self.view.last = Some(AttemptReport {
                    ii,
                    seed,
                    success: true,
                    spill_ops,
                    became_best,
                    pruned: false,
                });
                if became_best {
                    self.view.best = Some((ii, spill_ops));
                }
                // Consult the strategy while the attempt is still live: an
                // immediate accept of the incumbent takes the working graph
                // without any clone (the linear fast path).
                let mv = strategy.next_move(&self.view);
                if mv == SearchMove::Accept && became_best {
                    let mut result = st.into_result(self.scratch, &self.lp.name, self.mii, true);
                    result.stats.restarts = self.failures;
                    self.cps.clear();
                    return Ok(Some(self.finish(strategy.kind(), result)));
                }
                // Stash-or-discard, then abandon the attempt branch so the
                // search continues from the pristine group state.
                if became_best {
                    let mut result = st.into_result(self.scratch, &self.lp.name, self.mii, false);
                    result.stats.restarts = self.failures;
                    self.best = Some(Candidate { key, result });
                } else {
                    st.reclaim_into(self.scratch);
                }
                self.cps.abandon(&mut self.graph);
                self.audit_rollback(&audit_base, ii);
                match mv {
                    SearchMove::Accept | SearchMove::GiveUp => {
                        self.accept(strategy.kind()).map(Some)
                    }
                    next => {
                        // Defer the already-decided move to the main loop.
                        debug_assert!(self.deferred.is_none());
                        self.deferred = Some(next);
                        Ok(None)
                    }
                }
            }
        }
    }

    /// Record a finished attempt in the strategy-facing view.
    fn record(&mut self, report: AttemptReport) {
        self.view.attempts = self.attempts;
        self.view.last = Some(report);
        if report.success && report.became_best {
            self.view.best = Some((report.ii, report.spill_ops));
        }
    }

    /// Assert the rollback restored the attempt-start graph bit-identically
    /// (debug builds and `MIRS_GRAPH_AUDIT=1` release runs).
    fn audit_rollback(&self, base: &Option<DepGraph>, ii: u32) {
        if let Some(base) = base {
            assert!(
                self.graph.same_content(base),
                "transactional rollback diverged from the attempt-start graph \
                 for loop '{}' at II {ii}",
                self.lp.name
            );
        }
    }

    /// Accept the best stashed candidate, or fail with `NotConverged`.
    fn accept(&mut self, kind: SearchStrategyKind) -> Result<ScheduleResult, ScheduleError> {
        match self.best.take() {
            Some(c) => Ok(self.finish(kind, c.result)),
            None => Err(ScheduleError::NotConverged {
                loop_name: self.lp.name.clone(),
                last_ii: self.last_ii,
            }),
        }
    }

    /// Stamp the accepted result with timing and search metadata.
    fn finish(&mut self, kind: SearchStrategyKind, mut result: ScheduleResult) -> ScheduleResult {
        result.stats.scheduling_seconds = self.start.elapsed().as_secs_f64();
        result.stats.relax_seconds = self.relax_secs;
        let pruned_iis = u32::try_from(self.pruned.len()).unwrap_or(u32::MAX);
        result.stats.pruned_iis = pruned_iis;
        let proof = match self.bound {
            None => SearchProof::Heuristic,
            Some(b) => {
                debug_assert!(
                    result.ii >= b.lower_bound,
                    "certified bound {} above the achieved II {} of loop '{}' — \
                     the relaxation is unsound",
                    b.lower_bound,
                    result.ii,
                    self.lp.name
                );
                if result.ii <= b.lower_bound {
                    SearchProof::Optimal
                } else if b.exhausted {
                    SearchProof::BudgetExhausted(b.lower_bound)
                } else {
                    SearchProof::LowerBound(b.lower_bound)
                }
            }
        };
        result.search = SearchMeta {
            strategy: kind,
            attempts: self.attempts,
            candidates: self.successes,
            groups: self.groups,
            branch_attempt_seconds: self.attempt_secs,
            branch_critical_seconds: self.critical_secs + self.group_max_secs,
            pruned_iis,
            proof,
        };
        if self.debug {
            // One reconciled counter line: `attempts` counts only attempts
            // that actually ran, `pruned` the distinct IIs the admission
            // filter skipped without running anything.
            eprintln!(
                "SEARCH: loop '{}' strategy={} ii={} attempts={} pruned={} \
                 candidates={} spill-memo {}/{} hits",
                self.lp.name,
                result.search.strategy,
                result.ii,
                result.search.attempts,
                result.search.pruned_iis,
                result.search.candidates,
                result.stats.spill_memo_hits,
                result.stats.spill_memo_hits + result.stats.spill_memo_misses,
            );
        }
        result
    }
}
