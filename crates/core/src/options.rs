//! Tunable parameters of the MIRS-C scheduler.

/// How many conflicting operations are ejected when a node is forced into a
/// cycle that has no free slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EjectionPolicy {
    /// Eject a single conflicting operation — the one that was placed in the
    /// partial schedule first (the MIRS-C choice).
    One,
    /// Eject every operation that conflicts with the forced node, as earlier
    /// iterative schedulers (Huff, Rau) do. Kept as an ablation knob.
    All,
}

/// How memory load latencies are assumed during scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchPolicy {
    /// Every load is scheduled with the cache *hit* latency; the processor
    /// stalls on misses (the paper's "Normal" configuration).
    #[default]
    HitLatency,
    /// Selective binding prefetching (Sánchez & González, MICRO-30): loads
    /// are scheduled with the *miss* latency so the schedule itself hides
    /// the memory latency, except loads inside recurrences, spill loads and
    /// loads in loops with fewer than `min_trip_count` iterations, which
    /// keep the hit latency.
    SelectiveBinding {
        /// Loops with a trip count below this keep hit latency everywhere
        /// (avoids disproportionate prologue/epilogue cost).
        min_trip_count: u64,
    },
}

/// Variable naming the II-search strategy (`linear`, `backtrack` or
/// `exact`) for [`SearchConfig::from_vars`].
pub const STRATEGY_ENV: &str = "MIRS_STRATEGY";

/// Variable switching [`SearchConfig::prune`] for
/// [`SearchConfig::from_vars`] (`1`/`on`/`true` or `0`/`off`/`false`).
pub const PRUNE_ENV: &str = "MIRS_PRUNE";

/// Which engine drives the search over candidate IIs.
///
/// The strategy only decides *which* (II, priority-order) attempts are made
/// and which successful attempt is accepted; every individual attempt is
/// the unchanged MIRS-C inner loop. [`SearchStrategyKind::Linear`] is the
/// paper's monotonic climb and the default — it is bit-identical to the
/// pre-search-layer scheduler (the golden schedule-hash tests pin this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategyKind {
    /// Monotonic `fail → II+1` climb; accept the first feasible II.
    #[default]
    Linear,
    /// Branch at every candidate II: besides the canonical HRMS order, try
    /// deterministically perturbed priority orders, each on its own copy of
    /// the loop's graph, and accept the best candidate by the (II, spill-ops,
    /// moves) metric. Never worse than [`SearchStrategyKind::Linear`] on
    /// that metric, at the cost of extra attempts.
    Backtracking,
    /// Certify a lower bound on the II by branch-and-bound over a residue
    /// relaxation of the loop (dependence windows + aggregate MRT slot
    /// capacities), then climb from that bound with the backtracking
    /// branch exploration. The result carries a
    /// [`SearchProof`](crate::SearchProof): proven optimal when the
    /// achieved II equals the certified bound, otherwise the bound itself.
    Exact,
}

impl SearchStrategyKind {
    /// Every shipped strategy, in ascending quality-tier order (the order
    /// the cache ladder serves them in). Exhaustive by construction:
    /// [`SearchStrategyKind::tier`] is an exhaustive match, so adding a
    /// variant without ranking it here is a compile error, not a silent
    /// tier-0 entry.
    pub const ALL: [SearchStrategyKind; 3] = [
        SearchStrategyKind::Linear,
        SearchStrategyKind::Backtracking,
        SearchStrategyKind::Exact,
    ];

    /// Short label used in flags, env values and table columns.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SearchStrategyKind::Linear => "linear",
            SearchStrategyKind::Backtracking => "backtrack",
            SearchStrategyKind::Exact => "exact",
        }
    }

    /// Quality tier of the strategy in the monotone refinement ladder used
    /// by the persistent schedule cache: a cached entry serves a request
    /// iff the entry's tier is at least the request's, and a higher-tier
    /// result refines a metric-tied lower-tier entry in place.
    ///
    /// The match is deliberately exhaustive (no `_` arm): a new strategy
    /// fails to compile until it is ranked here and listed in
    /// [`SearchStrategyKind::ALL`].
    #[must_use]
    pub fn tier(self) -> u8 {
        match self {
            SearchStrategyKind::Linear => 0,
            SearchStrategyKind::Backtracking => 1,
            SearchStrategyKind::Exact => 2,
        }
    }

    /// Parse a strategy name as used by `--strategy` / `MIRS_STRATEGY`.
    /// Accepts the canonical labels plus obvious long forms.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "linear" => Some(SearchStrategyKind::Linear),
            "backtrack" | "backtracking" => Some(SearchStrategyKind::Backtracking),
            "exact" | "bnb" | "branch-and-bound" => Some(SearchStrategyKind::Exact),
            _ => None,
        }
    }
}

impl std::fmt::Display for SearchStrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameters of the II search that
/// [`MirsScheduler::schedule_with`](crate::MirsScheduler::schedule_with)
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Strategy deciding the sequence of (II, priority-order) attempts.
    pub strategy: SearchStrategyKind,
    /// Branch-and-bound budget of [`SearchStrategyKind::Exact`], counted in
    /// residue-assignment expansions summed over every candidate II probed
    /// for one loop. When the budget runs out the bound certified so far is
    /// kept and the proof downgrades to budget-exhausted. The budget cannot
    /// change which schedule is produced — only how much of the lower bound
    /// is certified — so it is excluded from the cache key.
    pub exact_budget: u64,
    /// Admission-filter the II climb: a bounded relaxation pass
    /// (recurrence cycles, aggregate slot and port capacities, register
    /// lifetime area) either *proves* a candidate II infeasible — its
    /// attempts are skipped, or dropped uncounted, and the II is counted in
    /// [`SchedulerStats::pruned_iis`](crate::SchedulerStats) — or admits it
    /// untouched. The pass is built only once an attempt has failed (see
    /// the `search` module). Only proven-infeasible IIs are skipped, so
    /// every strategy produces byte-identical schedules with the filter on
    /// or off. Default on.
    pub prune: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            strategy: SearchStrategyKind::Linear,
            exact_budget: Self::DEFAULT_EXACT_BUDGET,
            prune: true,
        }
    }
}

impl SearchConfig {
    /// Default [`SearchConfig::exact_budget`]: enough expansions to decide
    /// every small-loop workbench slice within milliseconds, small enough
    /// that a pathological loop cannot stall a sweep.
    pub const DEFAULT_EXACT_BUDGET: u64 = 50_000;

    /// Configuration for the named strategy with default parameters.
    #[must_use]
    pub fn for_strategy(strategy: SearchStrategyKind) -> Self {
        Self {
            strategy,
            ..Self::default()
        }
    }

    /// The default linear climb.
    #[must_use]
    pub fn linear() -> Self {
        Self::for_strategy(SearchStrategyKind::Linear)
    }

    /// Backtracking multi-II exploration with default parameters.
    #[must_use]
    pub fn backtracking() -> Self {
        Self::for_strategy(SearchStrategyKind::Backtracking)
    }

    /// Exact branch-and-bound certification with default parameters.
    #[must_use]
    pub fn exact() -> Self {
        Self::for_strategy(SearchStrategyKind::Exact)
    }

    /// Returns `self` unchanged: the search runs the attempts of a
    /// candidate-II group one after another, so there is no branch worker
    /// count to set. This no-op stays only because the `perfbench` crate
    /// still calls it with 1; it goes together with those calls.
    #[must_use]
    pub fn with_branch_jobs(self, _jobs: u32) -> Self {
        self
    }

    /// Builder-style setter for the exact certification budget.
    #[must_use]
    pub fn with_exact_budget(mut self, budget: u64) -> Self {
        self.exact_budget = budget;
        self
    }

    /// Builder-style setter for the relaxation admission filter.
    #[must_use]
    pub fn with_prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Configuration named by the [`STRATEGY_ENV`] and [`PRUNE_ENV`]
    /// variables, as `var` looks them up (the
    /// [`SearchConfig::default`] value of any that is unset). Front ends
    /// pass the process environment in; the library never reads it.
    ///
    /// # Panics
    ///
    /// Panics when a variable is set to a value it does not accept, naming
    /// the variable and the accepted values.
    #[must_use]
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let strategy = var(STRATEGY_ENV).map_or(SearchStrategyKind::default(), |name| {
            SearchStrategyKind::parse(&name).unwrap_or_else(|| {
                let expected = SearchStrategyKind::ALL.map(SearchStrategyKind::label);
                panic!(
                    "{STRATEGY_ENV}={name:?} names no strategy (expected {})",
                    expected.join("|")
                )
            })
        });
        let prune = var(PRUNE_ENV).is_none_or(|v| match v.trim().to_ascii_lowercase().as_str() {
            "1" | "on" | "true" => true,
            "0" | "off" | "false" => false,
            _ => panic!("{PRUNE_ENV}={v:?} is not a switch (expected 1|on|true|0|off|false)"),
        });
        Self::for_strategy(strategy).with_prune(prune)
    }
}

/// Parameters of the iterative scheduling algorithm.
///
/// Defaults follow the values used in the paper: a budget ratio of 6
/// attempts per node, spill gauge `SG = 2`, minimum span gauge `MSG = 4`
/// and distance gauge `DG = 4`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerOptions {
    /// Scheduling attempts allowed per node in the graph before the II is
    /// increased (the *BudgetRatio*).
    pub budget_ratio: u32,
    /// Spill gauge `SG`: spill code is inserted as soon as the register
    /// requirements exceed `SG × available registers` (and always when the
    /// priority list is empty and requirements exceed the available
    /// registers). Must be ≥ 1.
    pub spill_gauge: f64,
    /// Minimum span gauge `MSG`: a lifetime section must span at least this
    /// many cycles to be worth spilling; otherwise a node scheduled in the
    /// critical cycle is ejected instead.
    pub min_span_gauge: i64,
    /// Distance gauge `DG`: spill loads (stores) are constrained to be
    /// placed at most `DG` cycles before (after) their consumer (producer).
    pub distance_gauge: i64,
    /// Hard upper bound on the II; exceeding it makes the scheduler give up
    /// with [`ScheduleError::NotConverged`](crate::ScheduleError::NotConverged).
    pub max_ii: u32,
    /// Ejection policy used by the Forcing-and-Ejection heuristic.
    pub ejection: EjectionPolicy,
    /// Whether spill code may be inserted at all. Disabling spilling makes
    /// the scheduler behave like register-insensitive proposals that only
    /// increase the II when registers run out.
    pub enable_spill: bool,
    /// Whether backtracking (forcing and ejection) is allowed. With
    /// backtracking disabled the scheduler gives up on the current II as
    /// soon as some node has no free slot, mimicking non-iterative
    /// schedulers.
    pub enable_backtracking: bool,
    /// Load-latency assumption (binding prefetching).
    pub prefetch: PrefetchPolicy,
    /// II-search engine driving the restart loop.
    pub search: SearchConfig,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        Self {
            budget_ratio: 6,
            spill_gauge: 2.0,
            min_span_gauge: 4,
            distance_gauge: 4,
            max_ii: 1024,
            ejection: EjectionPolicy::One,
            enable_spill: true,
            enable_backtracking: true,
            prefetch: PrefetchPolicy::HitLatency,
            search: SearchConfig::default(),
        }
    }
}

impl SchedulerOptions {
    /// Options used for the paper's experiments (same as `Default`).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// Builder-style setter for the spill gauge.
    #[must_use]
    pub fn with_spill_gauge(mut self, sg: f64) -> Self {
        self.spill_gauge = sg;
        self
    }

    /// Builder-style setter for the minimum span gauge.
    #[must_use]
    pub fn with_min_span_gauge(mut self, msg: i64) -> Self {
        self.min_span_gauge = msg;
        self
    }

    /// Builder-style setter for the distance gauge.
    #[must_use]
    pub fn with_distance_gauge(mut self, dg: i64) -> Self {
        self.distance_gauge = dg;
        self
    }

    /// Builder-style setter for the budget ratio.
    #[must_use]
    pub fn with_budget_ratio(mut self, ratio: u32) -> Self {
        self.budget_ratio = ratio;
        self
    }

    /// Builder-style setter for the prefetch policy.
    #[must_use]
    pub fn with_prefetch(mut self, policy: PrefetchPolicy) -> Self {
        self.prefetch = policy;
        self
    }

    /// Builder-style setter for the ejection policy.
    #[must_use]
    pub fn with_ejection(mut self, policy: EjectionPolicy) -> Self {
        self.ejection = policy;
        self
    }

    /// Builder-style setter for the full II-search configuration.
    #[must_use]
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }

    /// Builder-style setter selecting an II-search strategy with its
    /// default parameters.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategyKind) -> Self {
        self.search = SearchConfig::for_strategy(strategy);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let o = SchedulerOptions::default();
        assert_eq!(o.budget_ratio, 6);
        assert!((o.spill_gauge - 2.0).abs() < f64::EPSILON);
        assert_eq!(o.min_span_gauge, 4);
        assert_eq!(o.distance_gauge, 4);
        assert_eq!(o.ejection, EjectionPolicy::One);
        assert!(o.enable_spill);
        assert!(o.enable_backtracking);
        assert_eq!(o.prefetch, PrefetchPolicy::HitLatency);
        assert_eq!(o.search.strategy, SearchStrategyKind::Linear);
        assert!(o.search.prune, "the admission filter is on by default");
        assert_eq!(SchedulerOptions::paper(), o);
    }

    #[test]
    fn strategy_names_round_trip_through_parse() {
        for kind in SearchStrategyKind::ALL {
            assert_eq!(SearchStrategyKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(
            SearchStrategyKind::parse("Backtracking"),
            Some(SearchStrategyKind::Backtracking)
        );
        assert_eq!(
            SearchStrategyKind::parse("branch-and-bound"),
            Some(SearchStrategyKind::Exact)
        );
        assert_eq!(SearchStrategyKind::parse("annealing"), None);
    }

    #[test]
    fn all_lists_every_strategy_in_tier_order() {
        for (i, kind) in SearchStrategyKind::ALL.iter().enumerate() {
            assert_eq!(
                usize::from(kind.tier()),
                i,
                "ALL must be sorted by tier with no gaps"
            );
        }
        assert_eq!(SearchStrategyKind::Linear.tier(), 0);
        assert_eq!(SearchStrategyKind::Exact.tier(), 2, "exact is the top tier");
    }

    #[test]
    fn search_config_builders_compose() {
        let cfg = SearchConfig::backtracking()
            .with_exact_budget(123)
            .with_prune(false);
        assert_eq!(cfg.strategy, SearchStrategyKind::Backtracking);
        assert_eq!(cfg.exact_budget, 123);
        assert!(!cfg.prune);
        assert!(SearchConfig::default().prune);
        assert_eq!(
            SearchConfig::exact().strategy,
            SearchStrategyKind::Exact,
            "exact() selects the exact strategy"
        );
        assert_eq!(
            SearchConfig::default().exact_budget,
            SearchConfig::DEFAULT_EXACT_BUDGET
        );
        let o = SchedulerOptions::default().with_strategy(SearchStrategyKind::Exact);
        assert_eq!(o.search, SearchConfig::exact());
        let o = SchedulerOptions::default().with_search(cfg);
        assert_eq!(o.search.exact_budget, 123);
    }

    /// Lookup over a fixed variable table instead of the process
    /// environment.
    fn vars<'a>(table: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            table
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn env_variables_parse_with_defaults_for_unset_values() {
        assert_eq!(SearchConfig::from_vars(vars(&[])), SearchConfig::default());
        let cfg =
            SearchConfig::from_vars(vars(&[(STRATEGY_ENV, "Backtracking"), (PRUNE_ENV, "0")]));
        assert_eq!(cfg, SearchConfig::backtracking().with_prune(false));
        // Every spelling of the prune switch is honoured.
        let cfg = SearchConfig::from_vars(vars(&[(PRUNE_ENV, "on")]));
        assert_eq!(cfg, SearchConfig::default());
        for off in ["off", "false", "FALSE", " 0 "] {
            assert!(
                !SearchConfig::from_vars(vars(&[(PRUNE_ENV, off)])).prune,
                "{off}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "MIRS_PRUNE=\"no\" is not a switch (expected 1|on|true|0|off|false)")]
    fn env_prune_that_is_not_a_switch_panics() {
        let _ = SearchConfig::from_vars(vars(&[(PRUNE_ENV, "no")]));
    }

    #[test]
    #[should_panic(
        expected = "MIRS_STRATEGY=\"perturb\" names no strategy (expected linear|backtrack|exact)"
    )]
    fn env_strategy_that_names_no_strategy_panics() {
        let _ = SearchConfig::from_vars(vars(&[(STRATEGY_ENV, "perturb")]));
    }

    #[test]
    fn builder_setters_compose() {
        let o = SchedulerOptions::default()
            .with_spill_gauge(1.0)
            .with_min_span_gauge(2)
            .with_distance_gauge(8)
            .with_budget_ratio(3)
            .with_ejection(EjectionPolicy::All)
            .with_prefetch(PrefetchPolicy::SelectiveBinding { min_trip_count: 16 });
        assert!((o.spill_gauge - 1.0).abs() < f64::EPSILON);
        assert_eq!(o.min_span_gauge, 2);
        assert_eq!(o.distance_gauge, 8);
        assert_eq!(o.budget_ratio, 3);
        assert_eq!(o.ejection, EjectionPolicy::All);
        assert!(matches!(
            o.prefetch,
            PrefetchPolicy::SelectiveBinding { min_trip_count: 16 }
        ));
    }
}
