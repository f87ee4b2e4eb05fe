//! The II search: one climb over candidate IIs.
//!
//! The paper's search attempts the loop at an II (Figure 4) and, when the
//! restart heuristic fires (Section 3.2.4), tries II + 1. A
//! `SearchDriver` runs that climb for every strategy, which fixes only two
//! things:
//!
//! * the **floor** the climb starts from: the MII, or for
//!   [`SearchStrategyKind::Exact`] the lower bound the branch-and-bound
//!   prover (the private `exact` submodule) certifies — every II below it
//!   is proven infeasible, so attempting them is wasted work;
//! * the **group** of attempts made at one II: the canonical HRMS order
//!   alone for [`SearchStrategyKind::Linear`], plus two seeded perturbed
//!   orders for `Backtracking` and `Exact`.
//!
//! The climb accepts the best candidate of the first II whose group
//! succeeds, or ends with [`ScheduleError::NotConverged`] past
//! [`SchedulerOptions::max_ii`](crate::SchedulerOptions). Candidates are
//! compared by the paper's metric order: achieved II first, then spill
//! operations (memory-traffic overhead), then moves, with the earliest
//! attempt winning ties. Every group holds the canonical attempt, so the
//! branching strategies can never return a worse (II, spill-ops) pair
//! than the linear climb.
//!
//! Every attempt restarts from the unmodified loop (Section 3.2.4): it
//! schedules its own copy of one base graph, which nothing edits. The base
//! is `lp`'s own graph when the prefetch policy would change nothing, and
//! otherwise one clone of it with the policy applied. The copy is made by
//! `clone_from` into the graph buffer of the [`SchedScratch`], so a
//! restart reuses the allocations of the attempt before it, and a
//! successful attempt moves its copy into the result. The HRMS order and
//! the spill memo's base entries are derived from the base once and serve
//! every attempt.
//!
//! Determinism: every perturbation seed is derived from a fixed base seed,
//! the II and the branch index by a SplitMix64 mix, so the same loop
//! explores the identical tree in every run, on every thread of the
//! parallel sweep harness.
//!
//! # The admission filter
//!
//! With [`SearchConfig::prune`](crate::SearchConfig::prune) on (the
//! default), a bounded relaxation pass (the private `relax` submodule)
//! screens every II of the climb before its group runs: when the pass
//! *proves* the II infeasible — and every II below it back to the MII is
//! proven too — the driver skips the whole group. Because only
//! provably-infeasible IIs are ever skipped, the accepted schedule is
//! byte-identical with the filter on or off; only the wasted cold
//! attempts disappear. `SearchMeta::pruned_iis` and
//! `SchedulerStats::relax_seconds` surface what the filter did and what
//! it cost.
//!
//! # Branch-parallel execution
//!
//! The attempts of one group are mutually independent: each starts from
//! a copy of the base graph, and its outcome is a pure function of
//! `(graph, order, ii, options)`. A [`BranchExecutor`] exploits that.
//! [`MirsScheduler::schedule_with_exec`](crate::MirsScheduler::schedule_with_exec)
//! hands the driver its executor when
//! [`SearchConfig::branch_jobs`](crate::SearchConfig::branch_jobs) `> 1`
//! and a group holds more than one attempt. Each attempt of a group then
//! runs with the worker's own [`SchedScratch`], and the outcomes are
//! merged in attempt order through the same candidate comparison. The
//! accepted schedule and every search counter are byte-identical to the
//! serial path for any worker count.

use crate::error::ScheduleError;
use crate::options::SearchStrategyKind;
use crate::result::{ScheduleResult, SchedulerStats, SearchMeta, SearchProof};
use crate::scheduler::{AttemptOutcome, MirsScheduler};
use crate::scratch::SchedScratch;
use ddg::{hrms, mii, DepGraph, Loop, NodeId};
use std::borrow::Cow;
use std::sync::Mutex;
use std::time::Instant;
use vliw::Opcode;

pub(crate) mod exact;
pub(crate) mod relax;

/// Executes the independent attempts of one candidate-II group, possibly
/// concurrently.
///
/// The driver calls [`BranchExecutor::run_branches`] once per group with
/// the number of attempts to run; the executor must invoke `job(index,
/// scratch)` **exactly once** for every `index` in `0..branches` — in any
/// order, with any concurrency — and return only after every invocation
/// has finished. Each concurrent invocation needs exclusive access to a
/// [`SchedScratch`]; reusing one scratch across sequential invocations is
/// fine (the job fully re-initialises it).
///
/// The job is pure with respect to the executor: results land in
/// per-branch slots owned by the driver, so scheduling outcomes are
/// byte-identical for every conforming executor, from a serial loop to a
/// thread pool. A panicking invocation may be propagated or may abort
/// remaining branches; it must not be swallowed while reporting
/// completion.
pub trait BranchExecutor {
    /// Run `job` for every branch index in `0..branches` and wait for all
    /// of them.
    fn run_branches(&self, branches: usize, job: &(dyn Fn(usize, &mut SchedScratch) + Sync));
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
/// order at each candidate II of the branching strategies.
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

/// Attempts in one candidate-II group of `strategy`: the canonical HRMS
/// order, plus [`BRANCHES`] perturbed orders for the branching strategies.
pub(crate) fn group_len(strategy: SearchStrategyKind) -> u32 {
    match strategy {
        SearchStrategyKind::Linear => 1,
        SearchStrategyKind::Backtracking | SearchStrategyKind::Exact => 1 + BRANCHES,
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

/// What one fanned-out attempt produced, reported back to the driver
/// through its per-branch slot.
struct BranchOutcome {
    /// The finished schedule on success (`stats` holds only this attempt's
    /// own work counters; the merge folds the carried counters in).
    result: Option<ScheduleResult>,
    /// Spill operations of the schedule (candidate metric; 0 on failure).
    spill_ops: u32,
    /// Live moves of the schedule (candidate tie-break; 0 on failure).
    moves: u32,
    /// Work counters of a *failed* attempt (what the serial path carries
    /// into the next attempt's stats).
    delta: SchedulerStats,
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

/// What every attempt of one search reads and none writes. Fanned
/// attempts share it by reference across the executor's workers.
struct SearchBase<'a, 'm> {
    sched: &'a MirsScheduler<'m>,
    lp: &'a Loop,
    /// The graph every attempt copies: `lp.graph` itself when the prefetch
    /// policy would change nothing, else one clone with the policy applied.
    graph: Cow<'a, DepGraph>,
    /// Canonical HRMS order of `graph`.
    order: Vec<NodeId>,
    /// Memory operations in `graph`.
    mem_ops_base: u64,
    mii: u32,
}

impl<'m> SearchBase<'_, 'm> {
    /// Run attempt `branch` of the group at `ii` on a copy of the base
    /// graph: over the canonical order for branch 0, over a perturbation
    /// of it (built in `perturbed`) for the others.
    fn attempt(
        &self,
        ii: u32,
        branch: u32,
        perturbed: &mut Vec<NodeId>,
        scratch: &mut SchedScratch,
        carried: &mut SchedulerStats,
    ) -> AttemptOutcome<'m> {
        let order: &[NodeId] = if branch == 0 {
            &self.order
        } else {
            perturb_order(&self.order, derive_seed(ii, branch), perturbed);
            perturbed
        };
        scratch.spill_memo_mut().begin_attempt();
        self.sched
            .attempt(&self.graph, order, ii, self.mem_ops_base, scratch, carried)
    }
}

/// The engine climbing the candidate IIs of one loop.
///
/// Owns the [`SearchBase`] and the perturbed-order buffer, and drives the
/// borrowed [`SchedScratch`] through every attempt.
pub(crate) struct SearchDriver<'a, 'm> {
    base: SearchBase<'a, 'm>,
    scratch: &'a mut SchedScratch,
    perturbed: Vec<NodeId>,
    max_ii: u32,
    start: Instant,
    // Search bookkeeping.
    attempts: u32,
    failures: u32,
    successes: u32,
    /// Highest II attempted or pruned (MII − 1 before the first);
    /// reported by `NotConverged`.
    last_ii: u32,
    /// Candidate-II groups run so far (`SearchMeta::groups`).
    groups: u32,
    carried: SchedulerStats,
    best: Option<Candidate>,
    /// Certified lower bound from the exact bounding phase (`None` for
    /// heuristic strategies); turned into the result's [`SearchProof`].
    bound: Option<exact::CertifiedBound>,
    /// Whether the relaxation admission filter screens candidate IIs
    /// ([`SearchConfig::prune`](crate::SearchConfig::prune)).
    prune: bool,
    /// The admission filter, built lazily on the first screened II
    /// (eagerly by [`SearchDriver::certify`], which shares its cache with
    /// the certifier).
    filter: Option<relax::RelaxFilter>,
    /// Candidate IIs the filter proved infeasible and skipped.
    pruned_iis: u32,
    /// Wall-clock seconds spent in the relaxation (cache builds plus
    /// per-II verdicts), surfaced as `SchedulerStats::relax_seconds`.
    relax_secs: f64,
}

impl<'a, 'm> SearchDriver<'a, 'm> {
    /// Set up the search for `lp`: settle the base graph, derive
    /// recurrences/MII/HRMS order from it once and reset the scratch's
    /// spill memo to it.
    pub(crate) fn new(
        sched: &'a MirsScheduler<'m>,
        lp: &'a Loop,
        scratch: &'a mut SchedScratch,
    ) -> Self {
        let machine = sched.machine();
        let opts = sched.options();
        let lat = machine.latencies();
        let graph = if crate::prefetch::leaves_unchanged(&lp.graph, &opts.prefetch) {
            Cow::Borrowed(&lp.graph)
        } else {
            let mut graph = lp.graph.clone();
            crate::prefetch::apply_prefetch_policy(&mut graph, lat, &opts.prefetch, lp.trip_count);
            Cow::Owned(graph)
        };

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
        // Every attempt starts from a copy of the unedited base, so one
        // ordering and one memory-op count serve them all, and the memo's
        // entries derived at the base epoch hold for every copy.
        let order = hrms::hrms_order_with(&graph, lat, &recs);
        let mem_ops_base = graph.count_ops(Opcode::is_memory) as u64;
        scratch.spill_memo_mut().begin_loop(&graph);
        Self {
            base: SearchBase {
                sched,
                lp,
                graph,
                order,
                mem_ops_base,
                mii: mii_value,
            },
            scratch,
            perturbed: Vec::new(),
            max_ii: opts.max_ii,
            start: Instant::now(),
            attempts: 0,
            failures: 0,
            successes: 0,
            last_ii: mii_value.saturating_sub(1),
            groups: 0,
            carried: SchedulerStats::default(),
            best: None,
            bound: None,
            prune: opts.search.prune,
            filter: None,
            pruned_iis: 0,
            relax_secs: 0.0,
        }
    }

    /// Climb from the strategy's floor to `max_ii`, one group per II, and
    /// accept the best candidate of the first II whose group succeeds.
    ///
    /// With `fan`, every group's attempts run across the executor;
    /// without it, one after another on the driver's scratch.
    pub(crate) fn run(
        mut self,
        fan: Option<&dyn BranchExecutor>,
    ) -> Result<ScheduleResult, ScheduleError> {
        let strategy = self.base.sched.options().search.strategy;
        let floor = if strategy == SearchStrategyKind::Exact {
            self.certify()
        } else {
            self.base.mii
        };
        let group = group_len(strategy);
        for ii in floor..=self.max_ii {
            self.last_ii = ii;
            if self.should_prune(ii) {
                // No attempt at this II can succeed: its whole group is
                // skipped, and the II is counted once.
                self.pruned_iis += 1;
                continue;
            }
            self.groups += 1;
            match fan {
                Some(exec) => self.run_group(exec, ii, group),
                None => self.run_serial_group(ii, group),
            }
            if self.best.is_some() {
                break;
            }
        }
        match self.best.take() {
            Some(c) => Ok(self.finish(c.result)),
            None => Err(ScheduleError::NotConverged {
                loop_name: self.base.lp.name.clone(),
                last_ii: self.last_ii,
            }),
        }
    }

    /// Certify a lower bound on the II by branch-and-bound over the
    /// residue relaxation (see [`exact`]) and return the climb floor it
    /// sets. [`SearchDriver::finish`] turns the bound into the result's
    /// [`SearchProof`]; `mii` keeps reporting the ResMII/RecMII bound.
    fn certify(&mut self) -> u32 {
        let mut budget = exact::ExactBudget::new(self.base.sched.options().search.exact_budget);
        // Build the shared relaxation state eagerly: the certifier probes
        // it per candidate II, and the admission filter keeps consulting
        // the same cached closure during the climb afterwards.
        let relax_start = Instant::now();
        let base = &self.base;
        let filter = relax::RelaxFilter::new(&base.graph, base.sched.machine(), base.mii);
        self.relax_secs += relax_start.elapsed().as_secs_f64();
        let bound = exact::certify_lower_bound(filter.cache(), base.mii, self.max_ii, &mut budget);
        self.filter = Some(filter);
        self.bound = Some(bound);
        bound.lower_bound.max(self.base.mii)
    }

    /// Should the group at `ii` be skipped? True only when the relaxation
    /// has proven every II from the MII up to `ii` infeasible — no attempt
    /// could possibly succeed, so skipping them cannot change which
    /// schedule the search accepts.
    fn should_prune(&mut self, ii: u32) -> bool {
        if !self.prune {
            return false;
        }
        let relax_start = Instant::now();
        let base = &self.base;
        let filter = self.filter.get_or_insert_with(|| {
            relax::RelaxFilter::new(&base.graph, base.sched.machine(), base.mii)
        });
        let rejected = filter.rejects(ii);
        self.relax_secs += relax_start.elapsed().as_secs_f64();
        rejected
    }

    /// Run the `len` attempts of the group at `ii` one after another,
    /// packaging a success only when it beats the best candidate so far.
    fn run_serial_group(&mut self, ii: u32, len: u32) {
        for branch in 0..len {
            self.attempts += 1;
            let outcome = self.base.attempt(
                ii,
                branch,
                &mut self.perturbed,
                self.scratch,
                &mut self.carried,
            );
            let AttemptOutcome::Success(st) = outcome else {
                self.failures += 1;
                continue;
            };
            self.successes += 1;
            let key = CandidateKey {
                ii,
                spill_ops: st.spill_op_count(),
                moves: st.move_op_count(),
                attempt: self.attempts,
            };
            if self.best.as_ref().is_none_or(|b| key < b.key) {
                let mut result = st.into_result(self.scratch, &self.base.lp.name, self.base.mii);
                result.stats.restarts = self.failures;
                self.best = Some(Candidate { key, result });
            } else {
                st.reclaim_into(self.scratch);
            }
        }
    }

    /// Fan the `len` attempts of the group at `ii` across the executor,
    /// then merge the outcomes *in attempt order* — the order the serial
    /// path runs them in, so the incumbent-best updates, failure counts
    /// and carried work counters match it exactly, for any executor and
    /// any worker count.
    fn run_group(&mut self, exec: &dyn BranchExecutor, ii: u32, len: u32) {
        let len = len as usize;
        let slots: Vec<Mutex<Option<BranchOutcome>>> = std::iter::repeat_with(|| Mutex::new(None))
            .take(len)
            .collect();
        {
            let base = &self.base;
            let slots = &slots;
            let job = move |branch: usize, scratch: &mut SchedScratch| {
                // The pooled scratch may have served another loop (or
                // another branch of this one): re-anchor the memo to the
                // base graph. Outcomes cannot depend on scratch history.
                scratch.spill_memo_mut().begin_loop(&base.graph);
                let mut delta = SchedulerStats::default();
                let outcome = base.attempt(ii, branch as u32, &mut Vec::new(), scratch, &mut delta);
                let (result, spill_ops, moves) = match outcome {
                    AttemptOutcome::Restart => (None, 0, 0),
                    AttemptOutcome::Success(st) => {
                        let spill_ops = st.spill_op_count();
                        let moves = st.move_op_count();
                        let result = st.into_result(scratch, &base.lp.name, base.mii);
                        (Some(result), spill_ops, moves)
                    }
                };
                let out = BranchOutcome {
                    result,
                    spill_ops,
                    moves,
                    delta,
                };
                *slots[branch].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            };
            exec.run_branches(len, &job);
        }
        for (branch, slot) in slots.into_iter().enumerate() {
            let out = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| {
                    panic!(
                        "BranchExecutor contract violation: branch {branch} of \
                         loop '{}' was never run",
                        self.base.lp.name
                    )
                });
            self.attempts += 1;
            match out.result {
                None => {
                    self.failures += 1;
                    accumulate(&mut self.carried, &out.delta);
                }
                Some(mut result) => {
                    self.successes += 1;
                    // Fold in the counters carried over failed attempts,
                    // as the serial path threads them through the
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
    }

    /// Stamp the accepted result with timing and search metadata.
    fn finish(&mut self, mut result: ScheduleResult) -> ScheduleResult {
        result.stats.scheduling_seconds = self.start.elapsed().as_secs_f64();
        result.stats.relax_seconds = self.relax_secs;
        result.stats.pruned_iis = self.pruned_iis;
        let proof = match self.bound {
            None => SearchProof::Heuristic,
            Some(b) => {
                debug_assert!(
                    result.ii >= b.lower_bound,
                    "certified bound {} above the achieved II {} of loop '{}' — \
                     the relaxation is unsound",
                    b.lower_bound,
                    result.ii,
                    self.base.lp.name
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
            strategy: self.base.sched.options().search.strategy,
            attempts: self.attempts,
            candidates: self.successes,
            groups: self.groups,
            pruned_iis: self.pruned_iis,
            proof,
        };
        result
    }
}
