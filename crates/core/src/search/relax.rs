//! The relaxation the exact certifier ([`super::exact`]) stands on:
//! sound, DFS-free infeasibility reasoning over tables built once per
//! loop. The certifier screens every candidate II through the bounded
//! pass ([`RelaxCache::verdict`]) before its residue branch-and-bound, and
//! that search reads the closure and capacity tables kept here.
//!
//! Every check in this module is *implied by any valid schedule*: an
//! [`Verdict::Infeasible`] answer means no schedule — with any spilling,
//! ejection or cluster-move choices — can exist at that II, which is what
//! lets the certifier count the II below its bound ([`Verdict::Undecided`]
//! claims nothing). Three constraint families are checked:
//!
//! 1. **Recurrence cycles.** Every dependence edge requires
//!    `t(to) − t(from) ≥ latency − II·distance`; a positive-weight cycle in
//!    that difference-constraint graph is unsatisfiable. Feasibility is
//!    monotone in II (cycle weights `L − II·D` only shrink as II grows), so
//!    the smallest II without one — the threshold `T`
//!    ([`RelaxCache::rec_infeasible`]) — is found once per loop, by a binary
//!    search over Bellman–Ford probes, and answers every II.
//! 2. **Aggregate slot capacities.** The GP-occupancy total and memory-op
//!    count must fit `total_gp_units()·II` and `total_mem_ports()·II`, and
//!    a single wrapped occupancy may not demand more units of one kernel
//!    slot than the pool holds — the same aggregation `res_mii` uses.
//! 3. **Register lifetime area.** Each virtual value is live from its
//!    definition to its last use, so the summed lifetime spans (the
//!    MaxLive integral) of any schedule at II need at least
//!    `⌈area / II⌉` registers. The minimum span of a loop-variant value
//!    is bounded below by its longest producer→consumer dependence chain
//!    (`max(direct latency, ℓ(u,v) + II·distance)` over the value's flow
//!    edges, with `ℓ` the longest-path closure); an invariant with a
//!    consumer is live the whole kernel (`II`). Spilling can shrink a
//!    span — to no less than `producer latency + reload latency`
//!    (variants) or `reload latency` (invariants, already memory-backed)
//!    — but each spilled variant adds two memory ops and each reloaded
//!    invariant one, and the kernel only has `mem_ports·II − #mem-ops`
//!    spare memory slots. A fractional knapsack over the per-value
//!    `(span reduction, memory traffic)` pairs therefore upper-bounds the
//!    reduction any real spill plan can reach; if even the maximally
//!    spilled area exceeds `total registers · II`, the II is infeasible.
//!    (Schedulers cannot beat the bound by other means: cluster moves
//!    only re-home a value, and the scheduler's completion gate rejects
//!    any placement whose pressure exceeds the register files.)
//!
//! # Incremental across the probes
//!
//! All II-dependent state is derived from II-independent tables built
//! once per loop. The longest-path closure is kept *parametrically*: for
//! every node pair the cache stores the Pareto frontier of path summaries
//! `(L, D)` — total latency and total distance — whose weight at a given
//! II is `L − II·D`. An entry dominates another over the queried domain
//! `II ≥ T` (`T` = the recurrence threshold) iff it has no larger `D` and
//! no smaller value at `T`; with that dominance rule a single
//! Floyd–Warshall pass over frontiers yields, for **every** `II ≥ T` at
//! once, exactly the per-II closure the certifier previously recomputed
//! from scratch per probe ([`RelaxCache::closure_at`] materialises it in
//! `O(n²·f)`). The same cache instance serves every probe of
//! `certify_lower_bound` — the cross-probe reuse the ROADMAP's oracle
//! item called for. Frontiers are capped ([`FRONTIER_CAP`]) as a safety
//! valve; dropping entries only *under*-approximates the closure, which
//! weakens the bound but never makes it unsound.

use ddg::DepGraph;
use vliw::{MachineConfig, OpClass, Opcode};

/// Sentinel for "no constraint path" in the closure (low enough that no
/// sum of real path weights can reach it, high enough not to underflow).
pub(crate) const UNREACH: i64 = i64::MIN / 4;

/// Hard cap on parametric-closure frontier sizes. Real loops need a
/// handful of entries (one per distinct path-distance class); the cap
/// bounds degenerate cases. Overflow drops the largest-distance entry,
/// under-approximating the closure — sound, merely weaker.
const FRONTIER_CAP: usize = 32;

/// Verdict of one bounded relaxation pass over a candidate II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Proven: no valid schedule of the loop exists at this II.
    Infeasible,
    /// No obstruction found. This is *not* a feasibility claim — the II
    /// may still be unschedulable for reasons the relaxation drops.
    Undecided,
}

/// A path summary `(L, D)`: weight at initiation interval II is
/// `L − II·D`.
type Entry = (i64, i64);
type Frontier = Vec<Entry>;

/// A difference constraint `(u, v, latency, distance)` between dense node
/// indices: `t(v) − t(u) ≥ latency − II·distance`.
type Constraint = (usize, usize, i64, i64);

/// Register-area inputs of the whole loop; absent when any cluster's
/// register file is unbounded (the bound can never fire).
struct RegModel {
    /// Summed register capacity across clusters.
    r_total: i64,
    /// Loop-invariant values with at least one consumer (each occupies a
    /// register for the full kernel unless re-loaded from memory).
    invariants: usize,
    /// Per loop-variant value with a use: its producer-op latency (the
    /// span floor even a spilled value keeps — the store cannot issue
    /// before the producing op completes) and the end of its run of
    /// `uses`.
    variants: Vec<(i64, usize)>,
    /// `(producer, consumer, direct latency, distance)` per dependence
    /// edge carrying a variant value, grouped by value.
    uses: Vec<Constraint>,
}

impl RegModel {
    /// `(minimum span, producer latency)` per variant value at `ii`, with
    /// `path(u, v)` at least the longest constraint path from `u` to `v`
    /// ([`UNREACH`] when there is none).
    fn spans<'a>(
        &'a self,
        ii: i64,
        path: impl Fn(usize, usize) -> i64 + 'a,
    ) -> impl Iterator<Item = (i64, i64)> + 'a {
        let mut start = 0;
        self.variants.iter().map(move |&(producer_latency, end)| {
            let span = self.uses[start..end]
                .iter()
                .map(|&(u, to, direct, dist)| match path(u, to) {
                    UNREACH => direct,
                    via => direct.max(via + ii * dist),
                })
                .max()
                .expect("variants have uses");
            start = end;
            (span, producer_latency)
        })
    }
}

/// Per-loop relaxation state, II-independent; built once and consulted
/// for every certifier probe.
pub(crate) struct RelaxCache {
    n: usize,
    /// GP-pool slots occupied per node (0 for memory/move ops).
    pub(crate) gp_occ: Vec<u32>,
    /// Whether the node takes a memory-port slot.
    pub(crate) is_mem: Vec<bool>,
    pub(crate) gp_cap: u32,
    pub(crate) mem_cap: u32,
    /// Total GP occupancy and memory-op count (aggregate capacity checks).
    gp_total: u64,
    mem_total: u64,
    /// Raw difference constraints, in edge-id order.
    cons: Vec<Constraint>,
    /// Smallest II at which the constraint graph has no positive cycle;
    /// `None` when a zero-distance positive cycle makes every II
    /// infeasible.
    threshold: Option<u32>,
    /// Parametric closure frontiers (`n·n`), anchored at the threshold;
    /// empty when there is none.
    frontiers: Vec<Frontier>,
    reg: Option<RegModel>,
    /// Latency of a spill reload (the span floor of a re-loaded value).
    lat_reload: i64,
}

impl RelaxCache {
    /// Build the cache for `graph` on `machine`.
    pub(crate) fn build(graph: &DepGraph, machine: &MachineConfig) -> Self {
        let lat = machine.latencies();
        // Dense indices of the live nodes, addressed by node id.
        let mut index = vec![usize::MAX; graph.node_capacity()];
        let mut gp_occ = Vec::new();
        let mut is_mem = Vec::new();
        for (i, id) in graph.node_ids().enumerate() {
            index[id.index()] = i;
            let op = graph.op(id).opcode;
            gp_occ.push(match op.class() {
                OpClass::Gp => lat.occupancy(op),
                OpClass::Mem | OpClass::Move => 0,
            });
            is_mem.push(op.class() == OpClass::Mem);
        }
        let gp_total = gp_occ.iter().map(|&o| u64::from(o)).sum();
        let mem_total = is_mem.iter().filter(|&&m| m).count() as u64;

        let cons: Vec<Constraint> = graph
            .difference_constraints(lat)
            .map(|(from, to, latency, distance)| {
                (
                    index[from.index()],
                    index[to.index()],
                    latency,
                    i64::from(distance),
                )
            })
            .collect();

        let mut r_total = 0i64;
        let mut unbounded = false;
        for c in machine.cluster_ids() {
            let r = machine.registers_in(c);
            if r == u32::MAX {
                unbounded = true;
                break;
            }
            r_total += i64::from(r);
        }
        let reg = (!unbounded).then(|| {
            let mut invariants = 0usize;
            let mut variants = Vec::new();
            let mut uses = Vec::new();
            for v in graph.value_ids() {
                let data = graph.value(v);
                if data.invariant {
                    if !graph.consumer_ids(v).is_empty() {
                        invariants += 1;
                    }
                    continue;
                }
                let Some(u) = data.producer else { continue };
                let start = uses.len();
                for &e in graph.out_edge_ids(u) {
                    let edge = graph.edge(e);
                    if edge.value == Some(v) {
                        uses.push((
                            index[u.index()],
                            index[edge.to.index()],
                            graph.latency_of(edge, lat),
                            i64::from(edge.distance),
                        ));
                    }
                }
                if uses.len() > start {
                    variants.push((i64::from(graph.op(u).latency(lat)), uses.len()));
                }
            }
            RegModel {
                r_total,
                invariants,
                variants,
                uses,
            }
        });

        let n = gp_occ.len();
        let threshold = recurrence_threshold(n, &cons);
        let frontiers =
            threshold.map_or_else(Vec::new, |t| build_frontiers(n, &cons, i64::from(t)));
        Self {
            n,
            gp_occ,
            is_mem,
            gp_cap: machine.total_gp_units(),
            mem_cap: machine.total_mem_ports(),
            gp_total,
            mem_total,
            cons,
            threshold,
            frontiers,
            reg,
            lat_reload: i64::from(lat.latency(Opcode::SpillLoad)),
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The constraint graph has a positive cycle at this II (the RecMII
    /// argument: no residue/stage assignment can satisfy it).
    pub(crate) fn rec_infeasible(&self, ii: u32) -> bool {
        self.threshold.is_none_or(|t| ii < t)
    }

    /// The bounded relaxation pass, the certifier's pre-DFS screen:
    /// aggregate capacities, recurrence cycles and the register
    /// lifetime-area bound — no search.
    pub(crate) fn verdict(&self, ii: u32) -> Verdict {
        debug_assert!(ii >= 1);
        if self.n == 0 {
            return Verdict::Undecided;
        }
        if self.capacity_infeasible(ii)
            || self.rec_infeasible(ii)
            || self.register_area_infeasible(ii)
        {
            Verdict::Infeasible
        } else {
            Verdict::Undecided
        }
    }

    /// Constraint family 2: aggregate slot and port capacities.
    fn capacity_infeasible(&self, ii: u32) -> bool {
        let iiu = u64::from(ii);
        // A single unpipelined op can demand several units of one slot
        // once its occupancy wraps the kernel.
        self.gp_occ
            .iter()
            .any(|&occ| u64::from(occ).div_ceil(iiu) > u64::from(self.gp_cap))
            || self.gp_total > u64::from(self.gp_cap) * iiu
            || self.mem_total > u64::from(self.mem_cap) * iiu
    }

    /// Constraint family 3: minimum register lifetime area (after the
    /// best spill plan the memory ports allow) still exceeds the summed
    /// register capacity over one kernel. Only valid at IIs with no
    /// positive cycle.
    fn register_area_infeasible(&self, ii: u32) -> bool {
        let Some(reg) = &self.reg else { return false };
        let iii = i64::from(ii);
        let fr = &self.frontiers;
        let n = self.n;
        let mut area = reg.invariants as i64 * iii;
        // `(span reduction, memory-traffic cost)` of spilling each value.
        let mut reductions: Vec<(i64, i64)> = Vec::new();
        let red_inv = iii - self.lat_reload;
        if red_inv > 0 {
            reductions.resize(reg.invariants, (red_inv, 1));
        }
        for (span, producer_latency) in reg.spans(iii, |u, v| longest(&fr[u * n + v], iii)) {
            area += span;
            let red = span - (producer_latency + self.lat_reload);
            if red > 0 {
                reductions.push((red, 2));
            }
        }
        // Fractional knapsack over the spare memory slots of the kernel:
        // an upper bound on the reduction of any integral spill plan.
        let budget_mem = i64::from(self.mem_cap) * iii - self.mem_total as i64;
        let mut red_max = 0f64;
        if budget_mem > 0 {
            reductions.sort_by(|a, b| {
                (a.0 * b.1)
                    .cmp(&(b.0 * a.1))
                    .reverse()
                    .then(a.cmp(b).reverse())
            });
            let mut left = budget_mem as f64;
            for (r, t) in reductions {
                if left <= 0.0 {
                    break;
                }
                let take = (left / t as f64).min(1.0);
                red_max += take * r as f64;
                left -= take * t as f64;
            }
        }
        area - red_max.ceil() as i64 > reg.r_total * iii
    }

    /// Materialise the longest-path closure `ℓ[u·n+v]` at one II from the
    /// parametric frontiers ([`UNREACH`] where no path exists). Only valid
    /// at IIs with no positive cycle.
    pub(crate) fn closure_at(&self, ii: u32) -> Vec<i64> {
        debug_assert!(!self.rec_infeasible(ii));
        let iii = i64::from(ii);
        self.frontiers.iter().map(|f| longest(f, iii)).collect()
    }

    /// Direct edges `(from, to, latency − II·distance)` at one II, sorted
    /// by endpoints with parallel edges folded to the max weight (the
    /// Bellman–Ford stage check of the certifier).
    pub(crate) fn edges_at(&self, ii: u32) -> Vec<(usize, usize, i64)> {
        let iii = i64::from(ii);
        let mut out: Vec<(usize, usize, i64)> = self
            .cons
            .iter()
            .map(|&(u, v, l, d)| (u, v, l - iii * d))
            .collect();
        out.sort_unstable();
        out.dedup_by(|later, kept| {
            let parallel = (later.0, later.1) == (kept.0, kept.1);
            if parallel {
                kept.2 = kept.2.max(later.2);
            }
            parallel
        });
        out
    }
}

/// The longest path a frontier summarises at `ii` ([`UNREACH`] if none).
fn longest(f: &[Entry], ii: i64) -> i64 {
    f.iter().map(|&(l, d)| l - ii * d).max().unwrap_or(UNREACH)
}

/// One Bellman–Ford probe of the constraints at `ii`, from all-zero
/// potentials: whether a positive-weight cycle makes the II infeasible.
fn has_positive_cycle(n: usize, cons: &[Constraint], ii: i64) -> bool {
    let mut pot = vec![0i64; n];
    for _ in 0..=n {
        let mut relaxed = false;
        for &(u, v, l, d) in cons {
            let w = l - ii * d;
            if pot[u] + w > pot[v] {
                pot[v] = pot[u] + w;
                relaxed = true;
            }
        }
        if !relaxed {
            return false;
        }
    }
    true
}

/// Smallest II with no positive constraint cycle — the closure-level
/// RecMII. `None` when a zero-distance positive cycle keeps every II
/// infeasible. Feasibility is monotone in II (cycle weights `L − II·D`
/// only shrink as II grows), so a binary search with Bellman–Ford probes
/// decides it.
fn recurrence_threshold(n: usize, cons: &[Constraint]) -> Option<u32> {
    // Any cycle's latency sum is at most the sum of positive latencies, so
    // at `hi` only zero-distance cycles can still be positive.
    let lat_sum: i64 = cons.iter().map(|&(_, _, l, _)| l.max(0)).sum();
    let (mut lo, mut hi) = (1, lat_sum.max(1));
    if has_positive_cycle(n, cons, hi) {
        // A positive cycle even here can never be outgrown.
        return None;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(n, cons, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(u32::try_from(lo).expect("threshold bounded by latency sum"))
}

/// `a` dominates `b` over the domain `II ≥ anchor`: no larger distance
/// and no smaller value at the anchor (then `a`'s value stays ≥ `b`'s for
/// every larger II too).
fn dominates(anchor: i64, a: Entry, b: Entry) -> bool {
    a.1 <= b.1 && a.0 - anchor * a.1 >= b.0 - anchor * b.1
}

/// Insert `cand` into a Pareto frontier kept sorted by distance.
fn insert_entry(anchor: i64, f: &mut Frontier, cand: Entry) {
    if f.iter().any(|&e| dominates(anchor, e, cand)) {
        return;
    }
    f.retain(|&e| !dominates(anchor, cand, e));
    let pos = f.partition_point(|&e| e.1 < cand.1);
    f.insert(pos, cand);
    if f.len() > FRONTIER_CAP {
        // Largest-distance entries decay fastest with II; dropping one
        // under-approximates the closure (sound).
        f.pop();
    }
}

/// One Floyd–Warshall pass over `(L, D)` frontiers. With the
/// anchor-dominance rule, cycle-augmented summaries are dominated by
/// their cycle-free projections (every cycle is non-positive at the
/// anchor), so the pass converges to the frontier of simple paths — the
/// exact longest-path closure for every `II ≥ anchor`.
fn build_frontiers(n: usize, cons: &[Constraint], anchor: i64) -> Vec<Frontier> {
    let mut fr: Vec<Frontier> = vec![Vec::new(); n * n];
    for i in 0..n {
        insert_entry(anchor, &mut fr[i * n + i], (0, 0));
    }
    for &(u, v, l, d) in cons {
        insert_entry(anchor, &mut fr[u * n + v], (l, d));
    }
    // Snapshots of the two operand frontiers: the target cell may be one
    // of them (`j == k` or `i == k`), and it must not change under the
    // loop that extends it. Reused, so the pass allocates only the cells.
    let mut left: Frontier = Vec::with_capacity(FRONTIER_CAP);
    let mut right: Frontier = Vec::with_capacity(FRONTIER_CAP);
    for k in 0..n {
        for i in 0..n {
            if fr[i * n + k].is_empty() {
                continue;
            }
            left.clone_from(&fr[i * n + k]);
            for j in 0..n {
                if fr[k * n + j].is_empty() {
                    continue;
                }
                right.clone_from(&fr[k * n + j]);
                for &a in &left {
                    for &b in &right {
                        insert_entry(anchor, &mut fr[i * n + j], (a.0 + b.0, a.1 + b.1));
                    }
                }
            }
        }
    }
    fr
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddg::LoopBuilder;

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

    fn recurrence_loop() -> ddg::Loop {
        // mul(4) + add(4) over distance 1: RecMII = 8.
        let mut b = LoopBuilder::new("rec");
        let x = b.load("x");
        let s = b.recurrence("s");
        let m = b.op(Opcode::FpMul, &[s, x]);
        let a = b.op(Opcode::FpAdd, &[m, x]);
        b.close_recurrence(s, a, 1);
        b.finish(10)
    }

    /// Register-hungry body: eight streams multiplied by an invariant and
    /// reduced by a tree into a distance-2 accumulator — long-lived loads
    /// that a small register file cannot hold at low IIs.
    fn wide_loop() -> ddg::Loop {
        let mut b = LoopBuilder::new("wide");
        let c = b.invariant("c");
        let mut level: Vec<_> = (0..8)
            .map(|i| {
                let x = b.load(&format!("x{i}"));
                b.op(Opcode::FpMul, &[x, c])
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|p| b.op(Opcode::FpAdd, &[p[0], p[1]]))
                .collect();
        }
        let acc = b.recurrence("acc");
        let sum = b.op(Opcode::FpAdd, &[acc, level[0]]);
        b.close_recurrence(acc, sum, 2);
        b.store("y", sum);
        b.finish(64)
    }

    fn module_loops() -> [ddg::Loop; 3] {
        [small_loop(), recurrence_loop(), wide_loop()]
    }

    /// Per-II Floyd–Warshall, the certifier's original formulation — the
    /// parametric frontiers must reproduce it exactly.
    fn naive_closure(cache: &RelaxCache, ii: u32) -> Vec<i64> {
        let n = cache.n();
        let iii = i64::from(ii);
        let mut d = vec![UNREACH; n * n];
        for i in 0..n {
            d[i * n + i] = 0;
        }
        for &(u, v, l, dist) in &cache.cons {
            let w = l - iii * dist;
            let cell = &mut d[u * n + v];
            *cell = (*cell).max(w);
        }
        for k in 0..n {
            for i in 0..n {
                if d[i * n + k] == UNREACH {
                    continue;
                }
                for j in 0..n {
                    if d[k * n + j] == UNREACH {
                        continue;
                    }
                    let w = d[i * n + k] + d[k * n + j];
                    let cell = &mut d[i * n + j];
                    *cell = (*cell).max(w);
                }
            }
        }
        d
    }

    #[test]
    fn parametric_closure_matches_per_ii_floyd_warshall() {
        let machine = MachineConfig::paper_config(1, 64).unwrap();
        for lp in [small_loop(), recurrence_loop()] {
            let cache = RelaxCache::build(&lp.graph, &machine);
            let t = cache.threshold.expect("no zero-distance cycles");
            for ii in t..t + 8 {
                assert_eq!(
                    cache.closure_at(ii),
                    naive_closure(&cache, ii),
                    "loop '{}' at II {ii}",
                    lp.name
                );
            }
        }
    }

    #[test]
    fn edges_fold_parallel_constraints_to_the_heaviest() {
        let machine = MachineConfig::paper_config(1, 64).unwrap();
        for lp in module_loops() {
            let cache = RelaxCache::build(&lp.graph, &machine);
            let mut heaviest = std::collections::BTreeMap::new();
            for &(u, v, l, d) in &cache.cons {
                let w = heaviest.entry((u, v)).or_insert(i64::MIN);
                *w = (*w).max(l - 4 * d);
            }
            let expected: Vec<_> = heaviest.into_iter().map(|((u, v), w)| (u, v, w)).collect();
            assert_eq!(cache.edges_at(4), expected, "loop '{}'", lp.name);
        }
    }

    #[test]
    fn recurrence_threshold_matches_the_positive_cycle_boundary() {
        let machine = MachineConfig::paper_config(1, 64).unwrap();
        let lp = recurrence_loop();
        let cache = RelaxCache::build(&lp.graph, &machine);
        assert!(cache.rec_infeasible(7), "II 7 has a positive cycle");
        assert!(!cache.rec_infeasible(8), "RecMII is 8");
        assert_eq!(cache.verdict(7), Verdict::Infeasible);
    }

    #[test]
    fn register_area_bound_fires_only_on_tight_register_files() {
        let lp = small_loop();
        // One register in total: the four live values' spans can never
        // fold into `1·II` for any II below the summed chain latencies.
        let tight = MachineConfig::builder()
            .cluster(vliw::ClusterConfig::new(2, 1, 1))
            .build()
            .unwrap();
        let cache = RelaxCache::build(&lp.graph, &tight);
        assert_eq!(cache.verdict(4), Verdict::Infeasible);
        // A roomy file keeps the same II undecided (feasibility is the
        // scheduler's call, not the relaxation's).
        let roomy = MachineConfig::paper_config(1, 64).unwrap();
        let cache = RelaxCache::build(&lp.graph, &roomy);
        assert_eq!(cache.verdict(4), Verdict::Undecided);
    }

    /// Soundness on the pinned register-tight hard cases (1x8, and 2x8 for
    /// the clustered one): the verdict never rejects an II that `linear`
    /// or `backtrack` achieved, the run of IIs it rejects from the MII
    /// upwards ends at or below the certifier's bound, and it does reject
    /// some II there, so the check is not vacuous. Twenty default workbench
    /// loops on 1x64 add witnesses at the MII, where most of them land.
    #[test]
    fn verdict_rejects_no_achieved_ii_on_the_hard_cases() {
        use crate::search::exact::{certify_lower_bound, ExactBudget};
        use crate::{MirsScheduler, SchedulerOptions, SearchConfig};
        use loopgen::{Workbench, WorkbenchParams};
        let max_ii = SchedulerOptions::default().max_ii;
        let mut cases = Vec::new();
        for lp in loopgen::hard_cases() {
            let clusters = if lp.name.contains("clustered") { 2 } else { 1 };
            cases.push((lp, MachineConfig::paper_config(clusters, 8).unwrap()));
        }
        let hard = cases.len();
        let wb = Workbench::generate(&WorkbenchParams {
            loops: 20,
            ..WorkbenchParams::default()
        });
        let roomy = MachineConfig::paper_config(1, 64).unwrap();
        cases.extend(wb.loops().iter().map(|lp| (lp.clone(), roomy.clone())));
        let mut rejected_on_hard_cases = 0;
        for (i, (lp, machine)) in cases.iter().enumerate() {
            let label = format!("{}/{}", machine.name(), lp.name);
            let cache = RelaxCache::build(&lp.graph, machine);
            let mut mii = max_ii;
            for search in [SearchConfig::linear(), SearchConfig::backtracking()] {
                let opts = SchedulerOptions::default().with_search(search);
                let r = MirsScheduler::new(machine, opts)
                    .schedule(lp)
                    .unwrap_or_else(|e| panic!("{label} under {}: {e}", search.strategy));
                assert_eq!(
                    cache.verdict(r.ii),
                    Verdict::Undecided,
                    "{label}: {} achieved II {}, which the relaxation rejects",
                    search.strategy,
                    r.ii
                );
                mii = r.mii;
            }
            let rejected = (mii..=max_ii)
                .take_while(|&ii| cache.verdict(ii) == Verdict::Infeasible)
                .count() as u32;
            let mut budget = ExactBudget::new(SearchConfig::DEFAULT_EXACT_BUDGET);
            let bound = certify_lower_bound(&cache, mii, max_ii, &mut budget);
            assert!(
                mii + rejected <= bound.lower_bound,
                "{label}: the relaxation rejects IIs {mii}..{} but the certifier's bound is {}",
                mii + rejected,
                bound.lower_bound
            );
            if i < hard {
                rejected_on_hard_cases += rejected;
            }
        }
        assert!(
            rejected_on_hard_cases > 0,
            "no hard case has an II to reject"
        );
    }
}
