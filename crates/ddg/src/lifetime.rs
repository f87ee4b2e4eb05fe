//! Value lifetimes and register pressure of a modulo schedule.
//!
//! Register requirements of a software-pipelined loop are approximated by
//! `MaxLive`, the maximum number of simultaneously live values over the
//! steady-state kernel (Rau et al., PLDI'92). A value defined at absolute
//! cycle `d` and last used at absolute cycle `u` is live during `[d, u)`;
//! because one iteration starts every `II` cycles, a lifetime longer than
//! `II` overlaps with the lifetimes of the same value from neighbouring
//! iterations, contributing more than one register.
//!
//! This module provides the interval bookkeeping shared by the schedulers:
//! folding lifetimes modulo the II, `MaxLive` and the *critical cycle* (the
//! kernel cycle with the most live values), both from scratch
//! ([`Pressure`]) and incrementally ([`PressureMap`]). The spill heuristic
//! of MIRS-C splits a lifetime into *uses* (sections between consecutive
//! consumers) itself, while it walks the consumers it already has, and
//! tests which lifetimes and sections cross the critical cycle with
//! [`phase_covers`], from the kernel cycle each one starts in.

use crate::ids::ValueId;

/// Lifetime of one value in absolute schedule cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeInterval {
    /// The value this lifetime belongs to.
    pub value: ValueId,
    /// Cycle at which the value is defined (available).
    pub start: i64,
    /// Cycle just after the last use (exclusive). `end ≥ start`.
    pub end: i64,
}

impl LifetimeInterval {
    /// Length of the lifetime in cycles.
    #[must_use]
    #[inline]
    pub fn len(&self) -> i64 {
        (self.end - self.start).max(0)
    }

    /// Whether the lifetime is empty (defined and never used later).
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of registers this lifetime requires in a schedule with the
    /// given II (the number of overlapping copies of itself).
    #[must_use]
    #[inline]
    pub fn registers(&self, ii: u32) -> u32 {
        let ii = i64::from(ii.max(1));
        u32::try_from((self.len() + ii - 1) / ii).unwrap_or(u32::MAX)
    }
}

/// Whether a lifetime (or a section of one) that starts in kernel cycle
/// `phase` and lasts `len` cycles covers some absolute cycle congruent to
/// `kernel_cycle` modulo `ii`.
///
/// The first such cycle at or after the start lies `(kernel_cycle − phase)
/// mod ii` cycles in, so the lifetime covers it exactly when that distance
/// is below `len`. Both cycles lie in `[0, ii)`, so the distance takes one
/// compare and one add, and nothing divides. Empty lifetimes cover nothing,
/// and lifetimes of at least `ii` cycles cover every kernel cycle.
#[must_use]
#[inline]
pub fn phase_covers(phase: u32, len: i64, kernel_cycle: u32, ii: u32) -> bool {
    debug_assert!(phase < ii && kernel_cycle < ii, "cycles lie in the kernel");
    let distance = if kernel_cycle >= phase {
        kernel_cycle - phase
    } else {
        kernel_cycle + (ii - phase)
    };
    i64::from(distance) < len
}

/// Per-kernel-cycle register pressure of a set of lifetimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pressure {
    per_cycle: Vec<u32>,
}

impl Pressure {
    /// Fold `intervals` modulo `ii` and count live values per kernel cycle.
    /// `extra` is added uniformly to every cycle (used for loop invariants,
    /// which hold one register for the whole loop).
    #[must_use]
    pub fn compute<'a>(
        intervals: impl IntoIterator<Item = &'a LifetimeInterval>,
        ii: u32,
        extra: u32,
    ) -> Self {
        let ii = ii.max(1);
        let mut per_cycle = vec![extra; ii as usize];
        for iv in intervals {
            if iv.is_empty() {
                continue;
            }
            let full = iv.len() / i64::from(ii);
            let rem = iv.len() % i64::from(ii);
            for c in &mut per_cycle {
                *c += u32::try_from(full).unwrap_or(u32::MAX);
            }
            let start_mod = iv.start.rem_euclid(i64::from(ii));
            for k in 0..rem {
                let c = usize::try_from((start_mod + k).rem_euclid(i64::from(ii))).unwrap();
                per_cycle[c] += 1;
            }
        }
        Self { per_cycle }
    }

    /// Maximum number of simultaneously live values (`MaxLive`).
    #[must_use]
    pub fn max_live(&self) -> u32 {
        self.per_cycle.iter().copied().max().unwrap_or(0)
    }

    /// Kernel cycle with the highest pressure (the *critical cycle*).
    #[must_use]
    pub fn critical_cycle(&self) -> u32 {
        self.per_cycle
            .iter()
            .enumerate()
            .max_by_key(|(_, &p)| p)
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }

    /// Pressure at a given kernel cycle.
    ///
    /// # Panics
    ///
    /// Panics if `cycle >= II`.
    #[must_use]
    pub fn at(&self, cycle: u32) -> u32 {
        self.per_cycle[cycle as usize]
    }

    /// Pressure per kernel cycle.
    #[must_use]
    pub fn per_cycle(&self) -> &[u32] {
        &self.per_cycle
    }
}

/// Incrementally maintained register-pressure gauge: the per-kernel-cycle
/// live-value counts of [`Pressure`], but updated by *adding and removing
/// individual lifetimes* instead of being recomputed from the full interval
/// set.
///
/// The iterative scheduler places and ejects one operation at a time; each
/// such step changes the lifetimes of only the values the operation defines
/// or consumes. A `PressureMap` keeps the pressure in *step form*, so adding
/// or removing a lifetime is O(1):
///
/// * the whole-II wraps of every lifetime and the uniform adds are one
///   level that every kernel cycle carries;
/// * each lifetime's remainder (the part shorter than the II) is a +1 step
///   where it starts and a −1 step where it ends. A remainder that runs past
///   the end of the kernel adds one to the level instead and steps down over
///   the cycles it leaves out.
///
/// Reading the pressure is one prefix pass over the II steps
/// ([`PressureMap::peak`], [`PressureMap::per_cycle`]).
/// [`PressureMap::bound`] costs nothing: it is the register sum, each folded
/// lifetime's [`LifetimeInterval::registers`] plus the uniform adds. No
/// kernel cycle holds more than that, so `max_live() ≤ bound()`, and a bound
/// within a register threshold settles a spill check without the pass.
///
/// [`PressureMap::add`] folds a lifetime exactly like [`Pressure::compute`]
/// does, and [`PressureMap::remove`] subtracts the identical contribution,
/// so after any add/remove sequence the map equals the from-scratch
/// computation over the currently-present intervals — the invariant the
/// schedulers' property tests pin down. [`PressureMap::add_at`] folds a
/// lifetime by its phase (its start modulo the II) and length, and divides
/// only when the lifetime is at least one II long.
#[derive(Debug, Clone)]
pub struct PressureMap {
    ii: u32,
    /// Pressure every kernel cycle carries before the steps: the whole-II
    /// wraps, the uniform adds, and one unit per remainder that runs past
    /// the end of the kernel.
    level: u32,
    /// Remainder steps: kernel cycle `c` holds `level + steps[0] + … +
    /// steps[c]`. One slot longer than the II, so a remainder that ends
    /// exactly at the end of the kernel steps down where no cycle reads.
    steps: Vec<i32>,
    /// Registers of the folded lifetimes plus the uniform adds.
    bound: u32,
}

/// Two gauges are equal when they fold at the same II and hold the same
/// pressure in every kernel cycle and the same register sum, however the
/// pressure splits between the level and the steps.
impl PartialEq for PressureMap {
    fn eq(&self, other: &Self) -> bool {
        self.ii == other.ii && self.bound == other.bound && self.per_cycle() == other.per_cycle()
    }
}

impl Eq for PressureMap {}

impl PressureMap {
    /// Empty gauge for a schedule at initiation interval `ii`.
    #[must_use]
    pub fn new(ii: u32) -> Self {
        let ii = ii.max(1);
        Self {
            ii,
            level: 0,
            steps: vec![0; ii as usize + 1],
            bound: 0,
        }
    }

    /// Initiation interval the gauge folds lifetimes into.
    #[must_use]
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Kernel cycle of absolute cycle `cycle`.
    #[inline]
    fn phase_of(&self, cycle: i64) -> u32 {
        cycle.rem_euclid(i64::from(self.ii)) as u32
    }

    /// Whole-II wraps and remainder of a lifetime of `len > 0` cycles.
    /// Divides only when the lifetime is at least one II long.
    #[inline]
    fn split(&self, len: i64) -> (u32, u32) {
        let ii = i64::from(self.ii);
        if len < ii {
            (0, len as u32)
        } else {
            (
                u32::try_from(len / ii).unwrap_or(u32::MAX),
                (len % ii) as u32,
            )
        }
    }

    /// Step slot where a remainder of `rem` cycles (`0 < rem < II`) that
    /// starts in kernel cycle `phase` steps down, and whether it runs past
    /// the end of the kernel (then it steps down before it steps up, and
    /// the level carries it).
    #[inline]
    fn remainder_end(&self, phase: u32, rem: u32) -> (usize, bool) {
        let end = phase + rem;
        if end <= self.ii {
            (end as usize, false)
        } else {
            ((end - self.ii) as usize, true)
        }
    }

    /// Fold `iv` into the gauge (same contribution as [`Pressure::compute`]).
    #[inline]
    pub fn add(&mut self, iv: &LifetimeInterval) {
        if !iv.is_empty() {
            self.add_at(self.phase_of(iv.start), iv.len());
        }
    }

    /// Subtract exactly what [`PressureMap::add`] contributed for `iv`.
    ///
    /// # Panics
    ///
    /// Removing a lifetime that was never added corrupts the gauge; debug
    /// builds panic when the level or the register sum underflows.
    #[inline]
    pub fn remove(&mut self, iv: &LifetimeInterval) {
        if !iv.is_empty() {
            self.remove_at(self.phase_of(iv.start), iv.len());
        }
    }

    /// Fold a lifetime of `len` cycles that starts in kernel cycle `phase`
    /// (its start modulo the II): the contribution [`PressureMap::add`]
    /// makes for any interval of that phase and length, without the
    /// division that finds the phase. Nothing divides unless `len ≥ II`.
    /// An empty lifetime (`len ≤ 0`) contributes nothing.
    #[inline]
    pub fn add_at(&mut self, phase: u32, len: i64) {
        debug_assert!(phase < self.ii, "phase {phase} lies in the kernel");
        if len <= 0 {
            return;
        }
        let (full, rem) = self.split(len);
        self.level += full;
        self.bound += full;
        if rem > 0 {
            let (down, wraps) = self.remainder_end(phase, rem);
            self.steps[phase as usize] += 1;
            self.steps[down] -= 1;
            self.level += u32::from(wraps);
            self.bound += 1;
        }
    }

    /// Subtract exactly what [`PressureMap::add_at`] contributed for the
    /// same phase and length.
    ///
    /// # Panics
    ///
    /// As [`PressureMap::remove`].
    #[inline]
    pub fn remove_at(&mut self, phase: u32, len: i64) {
        debug_assert!(phase < self.ii, "phase {phase} lies in the kernel");
        if len <= 0 {
            return;
        }
        let (full, rem) = self.split(len);
        self.level -= full;
        self.bound -= full;
        if rem > 0 {
            let (down, wraps) = self.remainder_end(phase, rem);
            self.steps[phase as usize] -= 1;
            self.steps[down] += 1;
            self.level -= u32::from(wraps);
            self.bound -= 1;
        }
    }

    /// Add `n` to every kernel cycle (loop invariants hold one register for
    /// the whole loop; mirrors the `extra` argument of
    /// [`Pressure::compute`]).
    #[inline]
    pub fn add_uniform(&mut self, n: u32) {
        self.level += n;
        self.bound += n;
    }

    /// Subtract `n` from every kernel cycle.
    #[inline]
    pub fn remove_uniform(&mut self, n: u32) {
        self.level -= n;
        self.bound -= n;
    }

    /// Upper bound on [`PressureMap::max_live`], read without a pass: the
    /// registers of every folded lifetime (`⌈len / II⌉` each) plus the
    /// uniform adds. A lifetime puts at most that many copies of itself in
    /// any one kernel cycle.
    #[must_use]
    #[inline]
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Live values per kernel cycle, in one prefix pass over the steps.
    #[inline]
    fn prefix(&self) -> impl Iterator<Item = u32> + '_ {
        let mut live = i64::from(self.level);
        self.steps[..self.ii as usize].iter().map(move |&step| {
            live += i64::from(step);
            live as u32
        })
    }

    /// `MaxLive` and the critical cycle, in one prefix pass: the highest
    /// pressure and the *last* kernel cycle that holds it, the cycle
    /// [`Pressure::critical_cycle`] picks.
    #[must_use]
    #[inline]
    pub fn peak(&self) -> (u32, u32) {
        let (mut max, mut at) = (0, 0);
        for (c, live) in self.prefix().enumerate() {
            if live >= max {
                (max, at) = (live, c as u32);
            }
        }
        (max, at)
    }

    /// Maximum number of simultaneously live values (`MaxLive`).
    #[must_use]
    #[inline]
    pub fn max_live(&self) -> u32 {
        self.peak().0
    }

    /// Kernel cycle with the highest pressure. Ties resolve to the same
    /// cycle [`Pressure::critical_cycle`] picks, so heuristics driven by
    /// either computation take identical decisions.
    #[must_use]
    #[inline]
    pub fn critical_cycle(&self) -> u32 {
        self.peak().1
    }

    /// Pressure at a given kernel cycle.
    ///
    /// # Panics
    ///
    /// Panics if `cycle >= II`.
    #[must_use]
    pub fn at(&self, cycle: u32) -> u32 {
        self.prefix()
            .nth(cycle as usize)
            .unwrap_or_else(|| panic!("kernel cycle {cycle} at II {}", self.ii))
    }

    /// Pressure per kernel cycle.
    #[must_use]
    pub fn per_cycle(&self) -> Vec<u32> {
        self.prefix().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(value: u32, start: i64, end: i64) -> LifetimeInterval {
        LifetimeInterval {
            value: ValueId(value),
            start,
            end,
        }
    }

    #[test]
    fn short_lifetime_needs_one_register() {
        let i = iv(0, 2, 5);
        assert_eq!(i.len(), 3);
        assert_eq!(i.registers(4), 1);
        assert_eq!(i.registers(2), 2);
    }

    #[test]
    fn long_lifetime_overlaps_itself() {
        // Lifetime of 10 cycles with II=4 needs ceil(10/4) = 3 registers.
        assert_eq!(iv(0, 0, 10).registers(4), 3);
    }

    #[test]
    fn pressure_counts_folded_lifetimes() {
        // II = 4. Value A live [0, 3), value B live [2, 6).
        let a = iv(0, 0, 3);
        let b = iv(1, 2, 6);
        // B is live at absolute cycles 2..6, i.e. at every kernel cycle once.
        let p = Pressure::compute([&a, &b], 4, 0);
        assert_eq!(p.per_cycle(), &[2, 2, 2, 1]);
        assert_eq!(p.max_live(), 2);
        assert!(p.critical_cycle() <= 2);
    }

    #[test]
    fn invariants_add_uniform_pressure() {
        let a = iv(0, 0, 2);
        let p = Pressure::compute([&a], 4, 3);
        assert_eq!(p.per_cycle(), &[4, 4, 3, 3]);
        assert_eq!(p.max_live(), 4);
    }

    #[test]
    fn empty_lifetime_contributes_nothing() {
        let a = iv(0, 4, 4);
        assert!(a.is_empty());
        let p = Pressure::compute([&a], 4, 0);
        assert_eq!(p.max_live(), 0);
    }

    /// Whether `[start, start + len)` holds an absolute cycle congruent to
    /// `kernel_cycle` modulo `ii`, by walking the cycles one by one.
    fn walk_covers(start: i64, len: i64, kernel_cycle: u32, ii: u32) -> bool {
        (start..start + len).any(|t| t.rem_euclid(i64::from(ii)) == i64::from(kernel_cycle))
    }

    #[test]
    fn phase_covers_matches_an_absolute_cycle_walk() {
        // Every II up to 8, every phase, every kernel cycle and every length
        // up to three wraps, against a walk over absolute cycles. The walk
        // starts two wraps before, at and five wraps after the phase's own
        // cycle: the answer must not depend on which.
        for ii in 1..=8u32 {
            let n = i64::from(ii);
            for phase in 0..ii {
                for kernel_cycle in 0..ii {
                    for len in 0..=3 * n {
                        let covers = phase_covers(phase, len, kernel_cycle, ii);
                        for start in [
                            i64::from(phase) - 2 * n,
                            i64::from(phase),
                            5 * n + i64::from(phase),
                        ] {
                            assert_eq!(
                                covers,
                                walk_covers(start, len, kernel_cycle, ii),
                                "[{start}, {}) and kernel cycle {kernel_cycle} at ii {ii}",
                                start + len
                            );
                        }
                    }
                }
            }
        }
        // A lifetime at least one II long covers every kernel cycle.
        let long = iv(0, 5, 30);
        for c in 0..4 {
            assert!(phase_covers(1, long.len(), c, 4));
        }
        // [5, 7) at II 4 starts in kernel cycle 1 and covers 1 and 2 only.
        let short = iv(1, 5, 7);
        assert!(phase_covers(1, short.len(), 1, 4)); // cycle 5
        assert!(phase_covers(1, short.len(), 2, 4)); // cycle 6
        assert!(!phase_covers(1, short.len(), 3, 4));
        assert!(!phase_covers(1, short.len(), 0, 4));
        // An empty lifetime covers nothing, nor does a section whose end
        // lies before its start.
        let empty = iv(0, 4, 4);
        assert!(!phase_covers(0, empty.len(), 0, 4));
        assert!(!phase_covers(0, -3, 0, 4));
    }

    #[test]
    fn max_live_matches_manual_count() {
        // Three values defined at cycles 0, 1, 2, each alive 6 cycles, II=3:
        // every value needs 2 registers; at every kernel cycle all three
        // values are live (each possibly twice).
        let ivs = [iv(0, 0, 6), iv(1, 1, 7), iv(2, 2, 8)];
        let p = Pressure::compute(ivs.iter(), 3, 0);
        assert_eq!(p.max_live(), 6);
    }

    /// Brute-force count of overlapping copies of a lifetime: one copy
    /// starts every II cycles; at absolute cycle `t` copy `k` is live when
    /// `start + k·ii ≤ t < end + k·ii`.
    fn brute_force_registers(iv: &LifetimeInterval, ii: u32) -> u32 {
        let ii = i64::from(ii);
        let mut max = 0u32;
        for t in (iv.start - 3 * ii)..(iv.end + 3 * ii) {
            let mut live = 0u32;
            for k in -8..=8i64 {
                if iv.start + k * ii <= t && t < iv.end + k * ii {
                    live += 1;
                }
            }
            max = max.max(live);
        }
        max
    }

    #[test]
    fn registers_at_exact_multiples_of_ii_match_overlap_count() {
        // A lifetime whose length is an exact multiple of the II is the
        // boundary case of the ceiling division in `registers`: len = m·II
        // overlaps exactly m copies of itself (the m-th copy starts the
        // cycle the first one dies).
        for ii in 1..=6u32 {
            for m in 1..=4i64 {
                for start in [-5i64, 0, 3] {
                    let iv = LifetimeInterval {
                        value: ValueId(0),
                        start,
                        end: start + m * i64::from(ii),
                    };
                    assert_eq!(
                        iv.registers(ii),
                        u32::try_from(m).unwrap(),
                        "len {} at ii {ii}",
                        iv.len()
                    );
                    assert_eq!(
                        iv.registers(ii),
                        brute_force_registers(&iv, ii),
                        "ceiling division disagrees with the overlap count \
                         for len {} at ii {ii}",
                        iv.len()
                    );
                }
            }
        }
        // Off-by-one neighbours of the boundary, against the same oracle.
        for ii in 2..=5u32 {
            for len in 1..(4 * i64::from(ii)) {
                let iv = LifetimeInterval {
                    value: ValueId(0),
                    start: 1,
                    end: 1 + len,
                };
                assert_eq!(iv.registers(ii), brute_force_registers(&iv, ii));
            }
        }
    }

    #[test]
    fn pressure_map_add_matches_compute() {
        // Every start phase (negative ones included) and every length up to
        // three wraps: the whole-II pass, the remainder range, and the
        // remainder split where it runs past the end of the kernel.
        for ii in 1..=6u32 {
            let n = i64::from(ii);
            for start in -2 * n..2 * n {
                for len in 0..3 * n {
                    let lifetime = iv(0, start, start + len);
                    let at = format!("[{start}, {}) at ii {ii}", start + len);
                    let mut map = PressureMap::new(ii);
                    map.add(&lifetime);
                    let scratch = Pressure::compute([&lifetime], ii, 0);
                    assert_eq!(map.per_cycle(), scratch.per_cycle(), "{at}");
                    assert_eq!(map.max_live(), scratch.max_live(), "{at}");
                    assert_eq!(map.critical_cycle(), scratch.critical_cycle(), "{at}");
                    assert_eq!(map.bound(), lifetime.registers(ii), "{at}");
                    // Folding by phase and length gives the same gauge.
                    let phase = start.rem_euclid(n) as u32;
                    let mut by_phase = PressureMap::new(ii);
                    by_phase.add_at(phase, len);
                    assert_eq!(by_phase.per_cycle(), map.per_cycle(), "{at}");
                    assert_eq!(by_phase.bound(), map.bound(), "{at}");
                    map.remove(&lifetime);
                    assert!(map.per_cycle().iter().all(|&c| c == 0), "{at}");
                    assert_eq!(map.bound(), 0, "{at}");
                    by_phase.remove_at(phase, len);
                    assert_eq!(by_phase, PressureMap::new(ii), "{at}");
                }
            }
        }
    }

    #[test]
    fn pressure_map_remove_inverts_add() {
        let a = iv(0, 0, 11);
        let b = iv(1, 2, 5);
        let mut map = PressureMap::new(4);
        map.add(&a);
        map.add(&b);
        map.add_uniform(1);
        map.remove(&a);
        map.remove_uniform(1);
        let scratch = Pressure::compute([&b], 4, 0);
        assert_eq!(map.per_cycle(), scratch.per_cycle());
        map.remove(&b);
        assert_eq!(map.max_live(), 0);
        assert_eq!(map.at(0), 0);
        assert_eq!(map.ii(), 4);
    }

    #[test]
    fn pressure_map_ignores_empty_lifetimes() {
        let mut map = PressureMap::new(3);
        map.add(&iv(0, 5, 5));
        map.remove(&iv(0, 5, 5));
        assert_eq!(map.max_live(), 0);
    }

    #[test]
    fn negative_start_cycles_fold_correctly() {
        // Schedulers may place nodes at negative cycles before normalizing.
        let a = iv(0, -3, 1);
        let p = Pressure::compute([&a], 4, 0);
        assert_eq!(p.max_live(), 1);
        assert_eq!(p.per_cycle().iter().sum::<u32>(), 4);
    }
}
