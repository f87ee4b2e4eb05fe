//! Branch-and-bound II certification for [`SearchStrategyKind::Exact`].
//!
//! The prover answers one question per candidate II: *does any assignment
//! of issue cycles exist that satisfies a sound relaxation of the
//! scheduling problem?* If the answer is "no" for every II below some
//! value, that value is a certified lower bound on the II of **any** valid
//! schedule — including schedules the heuristic reaches with spilling,
//! ejection and cluster moves.
//!
//! # The relaxation
//!
//! Issue cycles decompose as `t(u) = k(u)·II + r(u)` with a *residue*
//! `r(u) ∈ [0, II)` and a free integer *stage* `k(u)`. The propagation
//! core — the difference-constraint closure, the aggregate slot/port
//! capacities and the register lifetime-area bound — lives in the shared
//! [`relax`](super::relax) module, cached per loop so every candidate-II
//! probe of one certification run reuses the same tables instead of
//! rebuilding them. On top of it the
//! constraint store here holds two residue-level families:
//!
//! * **Dependence windows.** Every edge of the pre-scheduling graph
//!   requires `t(to) − t(from) ≥ latency − II·distance` (the
//!   [`DepGraph::difference_constraints`] query). In the `(k, r)`
//!   decomposition that becomes `k(to) − k(from) ≥ ⌈(L − (r(to) −
//!   r(from)))/II⌉`, a system of integer difference constraints over the
//!   stages that is feasible iff its constraint graph has no positive
//!   cycle.
//! * **MRT slot capacities.** A general-purpose op occupies
//!   `occupancy(op)` consecutive kernel slots (mod II) of an aggregate GP
//!   pool with `total_gp_units()` units; a memory op occupies one slot of
//!   an aggregate port pool with `total_mem_ports()` units — the same
//!   aggregation `res_mii` uses, which any per-cluster modulo reservation
//!   table refines.
//!
//! Every family is *implied* by every valid schedule of the loop:
//! spill rewiring replaces a removed flow edge with a chain of strictly
//! larger latency at equal total distance, inserted spill/move operations
//! only add resource usage on top of the original nodes, per-cluster
//! capacities sum to the aggregate pools, and the completion gate rejects
//! any placement whose register pressure exceeds the files. Hence
//! "relaxation infeasible at II" implies "no valid schedule at II" — the
//! soundness direction the optimality audit gates. The converse is
//! deliberately not claimed: a relaxation-feasible II may still be
//! unschedulable (residual register pressure, cluster moves), which is
//! why the achieved II can sit above a non-exhausted bound
//! ([`SearchProof::LowerBound`]).
//!
//! # The search
//!
//! The prover branches over residues only (a finite `IIⁿ` space — no
//! schedule-length horizon to get unsound over), with
//! first-fail variable selection and two forward checks per candidate
//! residue: aggregate slot capacities against the partial assignment, and
//! the pairwise stage-window condition `⌈(ℓ(u,w) − δ)/II⌉ + ⌈(ℓ(w,u) +
//! δ)/II⌉ ≤ 0` against every assigned node, where `ℓ` is the
//! Floyd–Warshall longest-path closure of the constraint graph and `δ`
//! the candidate residue difference. A complete assignment is accepted
//! only after Bellman–Ford confirms the stage system has no positive
//! cycle, so the decision procedure is exact for the relaxation.
//! Conflicts backtrack chronologically; every residue tried spends one
//! unit of the caller's [`ExactBudget`], and exhaustion downgrades the
//! verdict to [`IiVerdict::Unknown`] rather than guessing.
//!
//! [`SearchStrategyKind::Exact`]: crate::SearchStrategyKind::Exact
//! [`SearchProof::LowerBound`]: crate::SearchProof::LowerBound
//! [`DepGraph::difference_constraints`]: ddg::DepGraph::difference_constraints

use super::relax::{RelaxCache, Verdict, UNREACH};

/// Expansion budget of one certification run, shared across every
/// candidate II probed for the same loop. One unit is spent per residue
/// assignment tried (branch-and-bound node expansion).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExactBudget {
    remaining: u64,
}

impl ExactBudget {
    pub(crate) fn new(budget: u64) -> Self {
        Self { remaining: budget }
    }

    /// Spend one expansion; `false` once the budget is gone.
    fn spend(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        true
    }
}

/// The certificate produced by [`certify_lower_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CertifiedBound {
    /// Every II strictly below this is proven infeasible for any valid
    /// schedule of the loop.
    pub lower_bound: u32,
    /// The budget ran out while deciding `lower_bound` itself: the bound
    /// still holds, but `lower_bound` may not be achievable even in the
    /// relaxation.
    pub exhausted: bool,
}

/// Decision for one candidate II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IiVerdict {
    /// The relaxation admits an assignment at this II.
    Feasible,
    /// Proven: no assignment exists, hence no valid schedule either.
    Infeasible,
    /// The budget ran out before the search tree was exhausted.
    Unknown,
}

/// Outcome of one DFS subtree.
enum Walk {
    Feasible,
    /// Subtree exhausted without a solution.
    Dead,
    Exhausted,
}

/// Certify a lower bound on the II of the loop behind `cache`, probing
/// IIs upward from `mii` (itself already certified by ResMII/RecMII)
/// until one is relaxation-feasible, undecidable within `budget`, or
/// above `max_ii`. Every probe reuses the cached closure and capacity
/// tables.
pub(crate) fn certify_lower_bound(
    cache: &RelaxCache,
    mii: u32,
    max_ii: u32,
    budget: &mut ExactBudget,
) -> CertifiedBound {
    let mut ii = mii.max(1);
    loop {
        if ii > max_ii {
            // Every II in range is infeasible; the search above will give
            // up at max_ii anyway, and the bound records why.
            return CertifiedBound {
                lower_bound: ii,
                exhausted: false,
            };
        }
        match decide_ii(cache, ii, budget) {
            IiVerdict::Feasible => {
                return CertifiedBound {
                    lower_bound: ii,
                    exhausted: false,
                }
            }
            IiVerdict::Unknown => {
                return CertifiedBound {
                    lower_bound: ii,
                    exhausted: true,
                }
            }
            IiVerdict::Infeasible => ii += 1,
        }
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    (a + b - 1).div_euclid(b)
}

/// The constraint store of one candidate-II decision: residue domains are
/// implicit (recomputed by the forward checks), the explicit state is the
/// partial residue assignment plus the aggregate slot-usage counters it
/// implies.
struct Store<'c> {
    cache: &'c RelaxCache,
    ii: i64,
    /// Aggregate GP usage per kernel slot under the current assignment.
    gp_use: Vec<u32>,
    /// Aggregate memory-port usage per kernel slot.
    mem_use: Vec<u32>,
    /// Longest-path closure `ℓ[u·n+v]` of the constraint graph with edge
    /// weight `latency − II·distance` ([`UNREACH`] where no path exists),
    /// materialised from the cache's parametric frontiers.
    closure: Vec<i64>,
    /// Direct edges `(from, to, latency − II·distance)` for the final
    /// Bellman–Ford stage check (parallel edges folded to the max weight).
    edges: Vec<(usize, usize, i64)>,
    /// Assigned residue per node, `-1` when unassigned.
    residue: Vec<i64>,
}

impl<'c> Store<'c> {
    /// Instantiate the cached relaxation state at one candidate II. The
    /// caller must have screened the II through [`RelaxCache::verdict`]
    /// first — a recurrence-infeasible II has no valid closure.
    fn build(cache: &'c RelaxCache, ii: u32) -> Self {
        debug_assert!(!cache.rec_infeasible(ii));
        Self {
            cache,
            ii: i64::from(ii),
            gp_use: vec![0; ii as usize],
            mem_use: vec![0; ii as usize],
            closure: cache.closure_at(ii),
            edges: cache.edges_at(ii),
            residue: vec![-1; cache.n()],
        }
    }

    fn n(&self) -> usize {
        self.cache.n()
    }

    /// Forward check: can node `u` take residue `r` under the current
    /// partial assignment?
    fn fits(&self, u: usize, r: i64) -> bool {
        let ii = self.ii;
        // Aggregate slot capacities, including self-overlap of wrapped
        // occupancies: every slot takes `occ / II` units, the `occ % II`
        // slots starting at `r` one more.
        let occ = i64::from(self.cache.gp_occ[u]);
        if occ > 0 {
            let base = u32::try_from(occ / ii).expect("occupancy fits u32");
            let rem = occ % ii;
            for s in 0..ii {
                let wrapped = (s - r).rem_euclid(ii) < rem;
                let added = base + u32::from(wrapped);
                if added > 0 && self.gp_use[s as usize] + added > self.cache.gp_cap {
                    return false;
                }
            }
        }
        if self.cache.is_mem[u] && self.mem_use[r as usize] + 1 > self.cache.mem_cap {
            return false;
        }
        // Pairwise stage windows against every assigned node: the two
        // closure paths u→w and w→u bound k(w) − k(u) from both sides;
        // an empty window is a conflict no completion can fix.
        let n = self.n();
        for w in 0..n {
            let rw = self.residue[w];
            if rw < 0 || w == u {
                continue;
            }
            let uw = self.closure[u * n + w];
            let wu = self.closure[w * n + u];
            if uw == UNREACH || wu == UNREACH {
                continue;
            }
            let delta = rw - r; // r(w) − r(u)
            if ceil_div(uw - delta, ii) + ceil_div(wu + delta, ii) > 0 {
                return false;
            }
        }
        true
    }

    /// Number of residues `u` can still take (capped at `limit`, since the
    /// selector only needs the minimum).
    fn domain_size(&self, u: usize, limit: u32) -> u32 {
        let mut count = 0;
        for r in 0..self.ii {
            if self.fits(u, r) {
                count += 1;
                if count >= limit {
                    break;
                }
            }
        }
        count
    }

    fn place(&mut self, u: usize, r: i64) {
        self.residue[u] = r;
        let occ = i64::from(self.cache.gp_occ[u]);
        if occ > 0 {
            for off in 0..occ {
                self.gp_use[((r + off) % self.ii) as usize] += 1;
            }
        }
        if self.cache.is_mem[u] {
            self.mem_use[r as usize] += 1;
        }
    }

    fn unplace(&mut self, u: usize, r: i64) {
        self.residue[u] = -1;
        let occ = i64::from(self.cache.gp_occ[u]);
        if occ > 0 {
            for off in 0..occ {
                self.gp_use[((r + off) % self.ii) as usize] -= 1;
            }
        }
        if self.cache.is_mem[u] {
            self.mem_use[r as usize] -= 1;
        }
    }

    /// Complete-assignment check: Bellman–Ford positive-cycle detection on
    /// the stage system `k(v) − k(u) ≥ ⌈(w − (r(v) − r(u)))/II⌉`.
    fn stages_feasible(&self) -> bool {
        let n = self.n();
        let weights: Vec<(usize, usize, i64)> = self
            .edges
            .iter()
            .map(|&(u, v, w)| {
                (
                    u,
                    v,
                    ceil_div(w - (self.residue[v] - self.residue[u]), self.ii),
                )
            })
            .collect();
        let mut dist = vec![0i64; n];
        for round in 0..=n {
            let mut relaxed = false;
            for &(u, v, c) in &weights {
                if dist[u] + c > dist[v] {
                    dist[v] = dist[u] + c;
                    relaxed = true;
                }
            }
            if !relaxed {
                return true;
            }
            if round == n {
                return false; // still relaxing after n rounds: positive cycle
            }
        }
        true
    }

    /// Chronological-backtracking DFS with first-fail selection.
    fn dfs(&mut self, budget: &mut ExactBudget) -> Walk {
        // Select the unassigned node with the smallest live domain
        // (deterministic: ties break on the lower node index).
        let mut target: Option<(usize, u32)> = None;
        for u in 0..self.n() {
            if self.residue[u] >= 0 {
                continue;
            }
            let limit = target.map_or(u32::MAX, |(_, best)| best);
            let size = self.domain_size(u, limit);
            if size == 0 {
                return Walk::Dead;
            }
            if size < limit {
                target = Some((u, size));
            }
        }
        let Some((u, _)) = target else {
            // Complete assignment; only the exact stage check may accept.
            return if self.stages_feasible() {
                Walk::Feasible
            } else {
                Walk::Dead
            };
        };
        for r in 0..self.ii {
            if !self.fits(u, r) {
                continue;
            }
            if !budget.spend() {
                return Walk::Exhausted;
            }
            self.place(u, r);
            let walk = self.dfs(budget);
            self.unplace(u, r);
            match walk {
                Walk::Feasible => return Walk::Feasible,
                Walk::Exhausted => return Walk::Exhausted,
                Walk::Dead => {}
            }
        }
        Walk::Dead
    }
}

/// Decide one candidate II for the loop behind `cache`. The bounded
/// relaxation pass ([`RelaxCache::verdict`]: recurrence threshold,
/// aggregate capacities, register lifetime area) goes first and is
/// budget-free; only an undecided II pays for the DFS.
pub(crate) fn decide_ii(cache: &RelaxCache, ii: u32, budget: &mut ExactBudget) -> IiVerdict {
    debug_assert!(ii >= 1);
    if cache.n() == 0 {
        return IiVerdict::Feasible;
    }
    if cache.verdict(ii) == Verdict::Infeasible {
        return IiVerdict::Infeasible;
    }
    let mut store = Store::build(cache, ii);
    match store.dfs(budget) {
        Walk::Feasible => IiVerdict::Feasible,
        Walk::Dead => IiVerdict::Infeasible,
        Walk::Exhausted => IiVerdict::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddg::{mii, LoopBuilder};
    use vliw::{LatencyModel, MachineConfig, Opcode};

    fn machine_1x64() -> MachineConfig {
        MachineConfig::paper_config(1, 64).unwrap()
    }

    fn unlimited() -> ExactBudget {
        ExactBudget::new(u64::MAX)
    }

    fn cache_of(lp: &ddg::Loop, machine: &MachineConfig) -> RelaxCache {
        RelaxCache::build(&lp.graph, machine)
    }

    /// daxpy-like body: 2 loads, mul, add, store.
    fn small_loop() -> ddg::Loop {
        let mut b = LoopBuilder::new("small");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.op(Opcode::FpMul, &[x, x]);
        let s = b.op(Opcode::FpAdd, &[m, y]);
        b.store("z", s);
        b.finish(100)
    }

    #[test]
    fn acyclic_loop_is_feasible_at_its_mii() {
        let lp = small_loop();
        let m = machine_1x64();
        let bounds = mii::mii(
            &lp.graph,
            m.latencies(),
            m.total_gp_units(),
            m.total_mem_ports(),
        );
        let mut budget = unlimited();
        let cache = cache_of(&lp, &m);
        assert_eq!(
            decide_ii(&cache, bounds.mii(), &mut budget),
            IiVerdict::Feasible
        );
        let bound = certify_lower_bound(&cache, bounds.mii(), 1024, &mut unlimited());
        assert_eq!(bound.lower_bound, bounds.mii());
        assert!(!bound.exhausted);
    }

    #[test]
    fn positive_cycle_below_recmii_is_pruned_by_the_closure() {
        // mul(4) + add(4) over distance 1: RecMII = 8.
        let mut b = LoopBuilder::new("rec");
        let x = b.load("x");
        let s = b.recurrence("s");
        let m = b.op(Opcode::FpMul, &[s, x]);
        let a = b.op(Opcode::FpAdd, &[m, x]);
        b.close_recurrence(s, a, 1);
        let lp = b.finish(10);
        let machine = machine_1x64();
        let cache = cache_of(&lp, &machine);
        assert_eq!(
            decide_ii(&cache, 7, &mut unlimited()),
            IiVerdict::Infeasible,
            "II below RecMII has a positive closure cycle"
        );
        assert_eq!(decide_ii(&cache, 8, &mut unlimited()), IiVerdict::Feasible);
    }

    /// A tight recurrence whose window forces both ends into the same
    /// kernel slot, on a machine whose single GP unit cannot hold both:
    /// infeasible-window pruning must reject every residue pair without
    /// enumerating stages.
    #[test]
    fn infeasible_windows_prune_tight_recurrences() {
        // add(4) → add(4) and back over distance 2: cycle weight
        // 8 − 2·II, so II = 4 is the RecMII and the two closure paths pin
        // t(b) − t(a) = 4 exactly — residues 4 apart mod 4, i.e. equal.
        let mut b = LoopBuilder::new("tight");
        let s = b.recurrence("s");
        let a1 = b.op(Opcode::FpAdd, &[s, s]);
        let a2 = b.op(Opcode::FpAdd, &[a1, a1]);
        b.close_recurrence(s, a2, 2);
        let lp = b.finish(10);
        // One GP unit: both adds in the same slot need 2 units of it.
        let machine = MachineConfig::builder()
            .cluster(vliw::ClusterConfig::new(1, 1, 64))
            .build()
            .unwrap();
        let cache = cache_of(&lp, &machine);
        assert_eq!(
            decide_ii(&cache, 4, &mut unlimited()),
            IiVerdict::Infeasible,
            "window + capacity conflict at the RecMII"
        );
        // One extra cycle of slack decouples the residues.
        assert_eq!(decide_ii(&cache, 5, &mut unlimited()), IiVerdict::Feasible);
        let bound = certify_lower_bound(&cache, 4, 1024, &mut unlimited());
        assert_eq!(bound.lower_bound, 5, "the certified bound clears the MII");
        assert!(!bound.exhausted);
    }

    #[test]
    fn budget_exhaustion_degrades_to_unknown_not_a_guess() {
        let lp = small_loop();
        let machine = machine_1x64();
        let cache = cache_of(&lp, &machine);
        let mut empty = ExactBudget::new(0);
        assert_eq!(decide_ii(&cache, 2, &mut empty), IiVerdict::Unknown);
        let bound = certify_lower_bound(&cache, 2, 1024, &mut ExactBudget::new(0));
        assert_eq!(bound.lower_bound, 2, "exhaustion keeps the probe II");
        assert!(bound.exhausted);
        // A budget too small to finish the tight search also degrades.
        let mut tiny = ExactBudget::new(1);
        assert!(matches!(
            decide_ii(&cache, 1, &mut tiny),
            IiVerdict::Unknown | IiVerdict::Infeasible
        ));
    }

    #[test]
    fn certified_bound_matches_mii_bounds_on_kernels() {
        let machine = machine_1x64();
        let lat = LatencyModel::default();
        for lp in loopgen_like_kernels() {
            let bounds = mii::mii(
                &lp.graph,
                &lat,
                machine.total_gp_units(),
                machine.total_mem_ports(),
            );
            let cache = cache_of(&lp, &machine);
            let bound = certify_lower_bound(&cache, bounds.mii(), 1024, &mut unlimited());
            assert!(
                bound.lower_bound >= bounds.mii(),
                "certified bound never regresses below the MII"
            );
        }
    }

    /// The register lifetime-area family participates in certification:
    /// on a register-starved file the bound climbs past IIs the
    /// residue/capacity relaxation alone would call feasible.
    #[test]
    fn register_pressure_raises_the_certified_bound() {
        let lp = small_loop();
        let tight = MachineConfig::builder()
            .cluster(vliw::ClusterConfig::new(2, 2, 1))
            .build()
            .unwrap();
        let roomy = machine_1x64();
        let tight_bound =
            certify_lower_bound(&cache_of(&lp, &tight), 2, 1024, &mut unlimited()).lower_bound;
        let roomy_bound =
            certify_lower_bound(&cache_of(&lp, &roomy), 2, 1024, &mut unlimited()).lower_bound;
        assert!(
            tight_bound > roomy_bound,
            "a one-register file must push the bound above the roomy file's \
             {roomy_bound} (got {tight_bound})"
        );
    }

    fn loopgen_like_kernels() -> Vec<ddg::Loop> {
        let mut out = Vec::new();
        let mut b = LoopBuilder::new("dot");
        let x = b.load("x");
        let y = b.load("y");
        let acc = b.recurrence("acc");
        let m = b.op(Opcode::FpMul, &[x, y]);
        let s = b.op(Opcode::FpAdd, &[acc, m]);
        b.close_recurrence(acc, s, 1);
        out.push(b.finish(64));
        out.push(small_loop());
        out
    }
}
