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
//! the table of the loop's invariant and carried values are derived from
//! the base once and serve every attempt.
//!
//! Determinism: every perturbation seed is derived from a fixed base seed,
//! the II and the branch index by a SplitMix64 mix, so the same loop
//! explores the identical tree in every run, on every thread of the
//! parallel sweep harness.
//!
//! # Work counters
//!
//! The accepted result's work counters (`SchedulerStats::attempts`,
//! `ejections`, `forced` and `moves_removed`) count the whole climb: the
//! driver adds each attempt's counters to running totals when the attempt
//! ends, whether it failed, lost the candidate comparison or was accepted.
//! `SchedulerStats::restarts` counts the attempts that failed before the
//! accepted one, perturbed branches included.

use crate::error::ScheduleError;
use crate::options::SearchStrategyKind;
use crate::result::{ScheduleResult, SchedulerStats, SearchMeta, SearchProof};
use crate::scheduler::{AttemptOutcome, MirsScheduler};
use crate::scratch::SchedScratch;
use ddg::{mii, DepGraph, Loop, NodeId};
use std::borrow::Cow;
use std::time::Instant;
use vliw::Opcode;

pub(crate) mod exact;
pub(crate) mod relax;

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
fn perturb_order(order: &[NodeId], seed: u64, out: &mut Vec<NodeId>) {
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
fn group_len(strategy: SearchStrategyKind) -> u32 {
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

/// Add the work counters of one attempt's `stats` to the running totals
/// `into`. Absolute fields (spill/move counts, timing) are set at
/// result-packaging time and are not summed.
fn accumulate(into: &mut SchedulerStats, stats: &SchedulerStats) {
    into.attempts += stats.attempts;
    into.ejections += stats.ejections;
    into.forced += stats.forced;
    into.moves_removed += stats.moves_removed;
}

/// The engine climbing the candidate IIs of one loop.
///
/// Holds what every attempt reads and none writes (the base graph, its
/// HRMS order, memory-op count and MII) next to the search bookkeeping,
/// and drives the borrowed [`SchedScratch`] through every attempt.
pub(crate) struct SearchDriver<'a, 'm> {
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
    scratch: &'a mut SchedScratch,
    /// Buffer the perturbed orders are built in.
    perturbed: Vec<NodeId>,
    max_ii: u32,
    start: Instant,
    // Search bookkeeping.
    attempts: u32,
    failures: u32,
    successes: u32,
    /// Highest II attempted (MII − 1 before the first); reported by
    /// `NotConverged`.
    last_ii: u32,
    /// Candidate-II groups run so far (`SearchMeta::groups`).
    groups: u32,
    /// Work counters summed over every attempt that has ended.
    work: SchedulerStats,
    best: Option<Candidate>,
    /// Certified lower bound from the exact bounding phase (`None` for
    /// heuristic strategies); turned into the result's [`SearchProof`].
    bound: Option<exact::CertifiedBound>,
    /// Wall-clock seconds `exact`'s certifier took, surfaced as
    /// `SchedulerStats::relax_seconds`.
    relax_secs: f64,
}

impl<'a, 'm> SearchDriver<'a, 'm> {
    /// Set up the search for `lp`: settle the base graph, and derive the
    /// MII, the HRMS order and the loop's invariant and carried values from
    /// it once, in the scratch.
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
            crate::prefetch::apply_prefetch_policy(&mut graph, &opts.prefetch, lp.trip_count);
            Cow::Owned(graph)
        };

        // One analysis of the base yields the RecMII, the HRMS order and the
        // loop's values. Every attempt starts from a copy of the unedited
        // base, so one analysis and one memory-op count serve them all.
        let (rec_mii, order) = scratch.analyse(&graph, lat);
        let bounds = mii::MiiBounds {
            res_mii: mii::res_mii(
                &graph,
                lat,
                machine.total_gp_units(),
                machine.total_mem_ports(),
            ),
            rec_mii,
        };
        let mii_value = bounds.mii();
        let mem_ops_base = graph.count_ops(Opcode::is_memory) as u64;
        Self {
            sched,
            lp,
            graph,
            order,
            mem_ops_base,
            mii: mii_value,
            scratch,
            perturbed: Vec::new(),
            max_ii: opts.max_ii,
            start: Instant::now(),
            attempts: 0,
            failures: 0,
            successes: 0,
            last_ii: mii_value.saturating_sub(1),
            groups: 0,
            work: SchedulerStats::default(),
            best: None,
            bound: None,
            relax_secs: 0.0,
        }
    }

    /// Climb from the strategy's floor to `max_ii`, one group per II, and
    /// accept the best candidate of the first II whose group succeeds.
    pub(crate) fn run(mut self) -> Result<ScheduleResult, ScheduleError> {
        let group = group_len(self.sched.options().search.strategy);
        for ii in self.floor()..=self.max_ii {
            self.last_ii = ii;
            self.attempt_group(ii, group);
            if self.best.is_some() {
                break;
            }
        }
        self.scratch.reclaim_order(std::mem::take(&mut self.order));
        match self.best.take() {
            Some(c) => Ok(self.finish(c.result)),
            None => Err(ScheduleError::NotConverged {
                loop_name: self.lp.name.clone(),
                last_ii: self.last_ii,
            }),
        }
    }

    /// The II the climb starts from: the MII, or for
    /// [`SearchStrategyKind::Exact`] the certified bound.
    fn floor(&mut self) -> u32 {
        if self.sched.options().search.strategy == SearchStrategyKind::Exact {
            self.certify()
        } else {
            self.mii
        }
    }

    /// Certify a lower bound on the II by branch-and-bound over the
    /// residue relaxation (see [`exact`]) and return the climb floor it
    /// sets. [`SearchDriver::finish`] turns the bound into the result's
    /// [`SearchProof`]; `mii` keeps reporting the ResMII/RecMII bound.
    fn certify(&mut self) -> u32 {
        let start = Instant::now();
        let mut budget = exact::ExactBudget::new(self.sched.options().search.exact_budget);
        let cache = relax::RelaxCache::build(&self.graph, self.sched.machine());
        let bound = exact::certify_lower_bound(&cache, self.mii, self.max_ii, &mut budget);
        self.relax_secs = start.elapsed().as_secs_f64();
        self.bound = Some(bound);
        bound.lower_bound.max(self.mii)
    }

    /// Run attempt `branch` of the group at `ii` on a copy of the base
    /// graph: over the canonical order for branch 0, over a perturbation
    /// of it for the others.
    fn attempt(&mut self, ii: u32, branch: u32) -> AttemptOutcome<'m> {
        let order: &[NodeId] = if branch == 0 {
            &self.order
        } else {
            perturb_order(&self.order, derive_seed(ii, branch), &mut self.perturbed);
            &self.perturbed
        };
        self.sched
            .attempt(&self.graph, order, ii, self.mem_ops_base, self.scratch)
    }

    /// Run the `len` attempts of the group at `ii` one after another,
    /// adding each one's work counters to the totals and packaging a
    /// success only when it beats the best candidate so far.
    fn attempt_group(&mut self, ii: u32, len: u32) {
        self.groups += 1;
        for branch in 0..len {
            self.attempts += 1;
            let st = match self.attempt(ii, branch) {
                AttemptOutcome::Success(st) => st,
                AttemptOutcome::Restart(stats) => {
                    accumulate(&mut self.work, &stats);
                    self.failures += 1;
                    continue;
                }
            };
            accumulate(&mut self.work, &st.stats);
            self.successes += 1;
            let key = CandidateKey {
                ii,
                spill_ops: st.spill_op_count(),
                moves: st.move_op_count(),
                attempt: self.attempts,
            };
            if self.best.as_ref().is_none_or(|b| key < b.key) {
                let mut result = st.into_result(self.scratch, &self.lp.name, self.mii);
                result.stats.restarts = self.failures;
                self.best = Some(Candidate { key, result });
            } else {
                st.reclaim_into(self.scratch);
            }
        }
    }

    /// Stamp the accepted result with the climb's work totals, timing and
    /// search metadata.
    fn finish(&mut self, mut result: ScheduleResult) -> ScheduleResult {
        let stats = &mut result.stats;
        stats.attempts = self.work.attempts;
        stats.ejections = self.work.ejections;
        stats.forced = self.work.forced;
        stats.moves_removed = self.work.moves_removed;
        stats.scheduling_seconds = self.start.elapsed().as_secs_f64();
        stats.relax_seconds = self.relax_secs;
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
            strategy: self.sched.options().search.strategy,
            attempts: self.attempts,
            candidates: self.successes,
            groups: self.groups,
            proof,
            ..SearchMeta::default()
        };
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{SchedulerOptions, SearchConfig};
    use loopgen::{Workbench, WorkbenchParams};
    use vliw::MachineConfig;

    /// The work counters of `stats`: picks, ejections, forced placements
    /// and removed moves.
    fn work(stats: &SchedulerStats) -> [u64; 4] {
        [
            stats.attempts,
            stats.ejections,
            stats.forced,
            stats.moves_removed,
        ]
    }

    /// Replay the climb of `sched` over `lp` on a fresh scratch, one
    /// attempt at a time through the driver's own attempt helper, and sum
    /// every attempt's work counters. Returns the sums and the number of
    /// attempts made.
    fn replay(sched: &MirsScheduler<'_>, lp: &Loop) -> ([u64; 4], u32) {
        let mut scratch = SchedScratch::new();
        let mut driver = SearchDriver::new(sched, lp, &mut scratch);
        let group = group_len(sched.options().search.strategy);
        let mut sums = [0; 4];
        let mut attempts = 0;
        for ii in driver.floor()..=driver.max_ii {
            let mut converged = false;
            for branch in 0..group {
                attempts += 1;
                let stats = match driver.attempt(ii, branch) {
                    AttemptOutcome::Restart(stats) => stats,
                    AttemptOutcome::Success(st) => {
                        converged = true;
                        let stats = st.stats;
                        st.reclaim_into(driver.scratch);
                        stats
                    }
                };
                for (sum, n) in sums.iter_mut().zip(work(&stats)) {
                    *sum += n;
                }
            }
            if converged {
                break;
            }
        }
        (sums, attempts)
    }

    /// Schedule every loop of `loops` on `machine` with every strategy and
    /// check the result's work counters against a replay of its climb.
    fn check_counts(loops: &[Loop], machine: &MachineConfig, max_ii: u32) {
        for search in [
            SearchConfig::linear(),
            SearchConfig::backtracking(),
            SearchConfig::exact(),
        ] {
            let opts = SchedulerOptions {
                max_ii,
                ..SchedulerOptions::default()
            }
            .with_search(search);
            let sched = MirsScheduler::new(machine, opts);
            for lp in loops {
                let label = format!("{}/{}/{}", machine.name(), search.strategy, lp.name);
                let result = sched
                    .schedule(lp)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let (sums, attempts) = replay(&sched, lp);
                assert_eq!(result.search.attempts, attempts, "{label}: attempts");
                assert_eq!(
                    work(&result.stats),
                    sums,
                    "{label}: [picks, ejections, forced, moves removed] must sum \
                     over every attempt of the climb"
                );
            }
        }
    }

    /// The accepted result counts the work of every attempt: failures,
    /// successes that lost the candidate comparison and the winner.
    #[test]
    fn work_counters_sum_over_every_attempt() {
        let wb = Workbench::generate(&WorkbenchParams {
            loops: 20,
            ..WorkbenchParams::default()
        });
        for (k, regs) in [(1, 64), (4, 16)] {
            let machine = MachineConfig::paper_config(k, regs).unwrap();
            check_counts(wb.loops(), &machine, SchedulerOptions::default().max_ii);
        }
        let machine = MachineConfig::paper_config(1, 8).unwrap();
        check_counts(&loopgen::hard_cases(), &machine, 64);
    }
}
