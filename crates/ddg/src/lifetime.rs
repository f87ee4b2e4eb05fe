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
//! consumers) itself, while it walks the consumers it already has.

use crate::ids::ValueId;
use std::ops::Range;

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
    pub fn len(&self) -> i64 {
        (self.end - self.start).max(0)
    }

    /// Whether the lifetime is empty (defined and never used later).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of registers this lifetime requires in a schedule with the
    /// given II (the number of overlapping copies of itself).
    #[must_use]
    pub fn registers(&self, ii: u32) -> u32 {
        let ii = i64::from(ii.max(1));
        u32::try_from((self.len() + ii - 1) / ii).unwrap_or(u32::MAX)
    }

    /// Whether the lifetime covers some absolute cycle congruent to
    /// `kernel_cycle` modulo `ii`.
    #[must_use]
    pub fn covers_kernel_cycle(&self, kernel_cycle: u32, ii: u32) -> bool {
        let ii = i64::from(ii.max(1));
        if self.is_empty() {
            return false;
        }
        if self.len() >= ii {
            return true;
        }
        let c = i64::from(kernel_cycle);
        // Does any k exist with start <= c + k*ii < end?
        let k = (self.start - c).div_euclid(ii);
        for cand in [k, k + 1] {
            let cyc = c + cand * ii;
            if cyc >= self.start && cyc < self.end {
                return true;
            }
        }
        false
    }
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
/// or consumes. A `PressureMap` lets the spill heuristic keep per-cluster
/// pressure current in O(II) per affected value rather than O(values ×
/// edges) per probe. [`PressureMap::add`] folds a lifetime exactly like
/// [`Pressure::compute`] does, and [`PressureMap::remove`] subtracts the
/// identical contribution, so after any add/remove sequence the map equals
/// the from-scratch computation over the currently-present intervals — the
/// invariant the schedulers' property tests pin down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PressureMap {
    ii: u32,
    per_cycle: Vec<u32>,
}

impl PressureMap {
    /// Empty gauge for a schedule at initiation interval `ii`.
    #[must_use]
    pub fn new(ii: u32) -> Self {
        let ii = ii.max(1);
        Self {
            ii,
            per_cycle: vec![0; ii as usize],
        }
    }

    /// Initiation interval the gauge folds lifetimes into.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Per-cycle contribution of `iv`: the number of whole-II wraps (added
    /// to every cycle) and the kernel cycles receiving one extra unit, as
    /// at most two contiguous index ranges (the partial wrap split where it
    /// crosses the end of the kernel).
    fn contribution(&self, iv: &LifetimeInterval) -> (u32, Range<usize>, Range<usize>) {
        let ii = i64::from(self.ii);
        let len = iv.len();
        let full = u32::try_from(len / ii).unwrap_or(u32::MAX);
        let start = iv.start.rem_euclid(ii) as usize;
        let end = start + (len % ii) as usize;
        let ii = self.ii as usize;
        if end <= ii {
            (full, start..end, 0..0)
        } else {
            (full, start..ii, 0..end - ii)
        }
    }

    /// Fold `iv` into the gauge (same arithmetic as [`Pressure::compute`]).
    pub fn add(&mut self, iv: &LifetimeInterval) {
        if iv.is_empty() {
            return;
        }
        let (full, head, tail) = self.contribution(iv);
        if full > 0 {
            for c in &mut self.per_cycle {
                *c += full;
            }
        }
        for c in &mut self.per_cycle[head] {
            *c += 1;
        }
        for c in &mut self.per_cycle[tail] {
            *c += 1;
        }
    }

    /// Subtract exactly what [`PressureMap::add`] contributed for `iv`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via arithmetic underflow) if `iv` was never
    /// added.
    pub fn remove(&mut self, iv: &LifetimeInterval) {
        if iv.is_empty() {
            return;
        }
        let (full, head, tail) = self.contribution(iv);
        if full > 0 {
            for c in &mut self.per_cycle {
                *c -= full;
            }
        }
        for c in &mut self.per_cycle[head] {
            *c -= 1;
        }
        for c in &mut self.per_cycle[tail] {
            *c -= 1;
        }
    }

    /// Add `n` to every kernel cycle (loop invariants hold one register for
    /// the whole loop; mirrors the `extra` argument of
    /// [`Pressure::compute`]).
    pub fn add_uniform(&mut self, n: u32) {
        for c in &mut self.per_cycle {
            *c += n;
        }
    }

    /// Subtract `n` from every kernel cycle.
    pub fn remove_uniform(&mut self, n: u32) {
        for c in &mut self.per_cycle {
            *c -= n;
        }
    }

    /// Maximum number of simultaneously live values (`MaxLive`).
    #[must_use]
    pub fn max_live(&self) -> u32 {
        self.per_cycle.iter().copied().max().unwrap_or(0)
    }

    /// Kernel cycle with the highest pressure. Ties resolve to the same
    /// cycle [`Pressure::critical_cycle`] picks, so heuristics driven by
    /// either computation take identical decisions.
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
    fn lifetime_longer_than_ii_covers_every_cycle() {
        let a = iv(0, 5, 30);
        for c in 0..4 {
            assert!(a.covers_kernel_cycle(c, 4));
        }
        let b = iv(1, 5, 7);
        assert!(b.covers_kernel_cycle(1, 4)); // cycle 5
        assert!(b.covers_kernel_cycle(2, 4)); // cycle 6
        assert!(!b.covers_kernel_cycle(3, 4));
        assert!(!b.covers_kernel_cycle(0, 4));
    }

    #[test]
    fn empty_lifetime_contributes_nothing() {
        let a = iv(0, 4, 4);
        assert!(a.is_empty());
        assert!(!a.covers_kernel_cycle(0, 4));
        let p = Pressure::compute([&a], 4, 0);
        assert_eq!(p.max_live(), 0);
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
                    map.remove(&lifetime);
                    assert!(map.per_cycle().iter().all(|&c| c == 0), "{at}");
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
