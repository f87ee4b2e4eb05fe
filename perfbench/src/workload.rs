//! The four workloads: seeded inputs and pinned scheduler options.
//!
//! Two seeds make a workload's inputs. The generator seed picks the loop
//! population (`loopgen` workbenches); it defaults to
//! [`DEFAULT_GENERATOR_SEED`] so that runs with different run seeds measure
//! the same loops. The run seed orders the problems of a pass and, on
//! `service`, draws the request stream. The program only ever receives the
//! generated loops.

use ddg::Loop;
use loopgen::{Workbench, WorkbenchParams};
use mirs::{PrefetchPolicy, SchedulerOptions, SearchConfig, SearchStrategyKind};
use vliw::MachineConfig;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper-scale saturated workbench on the roomy 1x64 machine.
    Roomy,
    /// Saturated workbench on the clustered 2x32 and 4x16 machines.
    Clustered,
    /// Unsaturated workbench on register-starved 1x16 and 2x16, plus the
    /// pinned hard cases on 1x8 and 2x8.
    Tight,
    /// Seeded request stream through the cached batch service.
    Service,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Roomy, Kind::Clustered, Kind::Tight, Kind::Service];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Roomy => "roomy",
            Kind::Clustered => "clustered",
            Kind::Tight => "tight",
            Kind::Service => "service",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Options of every scheduling call, built explicitly so no `MIRS_*`
    /// variable or library default can change what is measured. (`service`
    /// passes the same search configurations through `ScheduleRequest`.)
    pub fn options(self) -> SchedulerOptions {
        let opts = SchedulerOptions::default()
            .with_prefetch(PrefetchPolicy::HitLatency)
            .with_search(linear());
        match self {
            // Loops that never converge on 1x16 climb to the II cap; 64
            // bounds each verdict to tens of milliseconds instead of seconds.
            Kind::Tight => SchedulerOptions {
                max_ii: TIGHT_MAX_II,
                ..opts
            },
            _ => opts,
        }
    }
}

/// II cap of the `tight` workload.
pub const TIGHT_MAX_II: u32 = 64;

/// Generator seed of every workload unless `--generator-seed` overrides it
/// (the `loopgen` workbench default).
pub const DEFAULT_GENERATOR_SEED: u64 = 0x5eed_cafe;

/// Loops of the `clustered` workbench.
const CLUSTERED_LOOPS: usize = 800;
/// Loops of the `tight` (unsaturated) workbench.
const TIGHT_LOOPS: usize = 500;
/// Loops behind the `service` problems (each offered on three machines).
const SERVICE_LOOPS: usize = 50;
/// Requests in one `service` pass.
const SERVICE_REQUESTS: usize = 30000;
/// Requests per `serve` call. With more, a request's latency would depend on
/// which misses share its batch, and that changes with the run seed.
pub const SERVICE_BATCH: usize = 1;
/// One problem in this many popularity ranks asks for `backtrack` after its
/// first request.
const REFINED_EVERY: usize = 6;
/// Zipf exponent of `service` problem popularity.
const ZIPF_S: f64 = 1.1;

/// The linear search, serial.
pub fn linear() -> SearchConfig {
    SearchConfig::linear().with_branch_jobs(1)
}

/// The backtracking search, serial.
pub fn backtracking() -> SearchConfig {
    SearchConfig::backtracking().with_branch_jobs(1)
}

/// One scheduling problem: a loop on a machine.
#[derive(Debug, Clone, Copy)]
pub struct Problem {
    pub lp: usize,
    pub machine: usize,
}

/// One `service` request: a problem and the strategy asked for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub problem: usize,
    pub strategy: SearchStrategyKind,
}

/// Everything a workload schedules, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub loops: Vec<Loop>,
    pub machines: Vec<MachineConfig>,
    /// Scheduled once per pass (`roomy`, `clustered`, `tight`), or the
    /// problem universe the request stream draws from (`service`).
    pub problems: Vec<Problem>,
    /// `service` only: the request stream of one pass.
    pub requests: Vec<Request>,
}

fn machine(clusters: u32, registers: u32) -> MachineConfig {
    MachineConfig::paper_config(clusters, registers).expect("paper configuration")
}

fn all_on(loops: std::ops::Range<usize>, machine: usize) -> impl Iterator<Item = Problem> {
    loops.map(move |lp| Problem { lp, machine })
}

/// splitmix64: the request stream's generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `service` request stream over `universe` problems.
///
/// Which problems are asked for, and how often, is fixed: every problem at
/// least once, the rest of the requests split by Zipf popularity over a
/// fixed ranking. A problem in every `REFINED_EVERY` ranks asks for
/// `backtrack` after its first request, so its `linear` cache entry gets
/// refined. The run seed only orders the stream, so every seed schedules
/// the same misses.
fn request_stream(universe: usize, state: &mut u64) -> Vec<Request> {
    let mut rank: Vec<usize> = (0..universe).collect();
    shuffle(&mut rank, &mut 0x7a1f_5eed);
    let weight = |r: usize| 1.0 / ((r + 1) as f64).powf(ZIPF_S);
    let total: f64 = (0..universe).map(weight).sum();
    let extra = SERVICE_REQUESTS - universe;
    let mut count: Vec<usize> = (0..universe)
        .map(|r| 1 + (extra as f64 * weight(r) / total) as usize)
        .collect();
    let short = SERVICE_REQUESTS - count.iter().sum::<usize>();
    for c in count.iter_mut().take(short) {
        *c += 1;
    }
    let mut stream: Vec<usize> = (0..universe)
        .flat_map(|r| std::iter::repeat_n(r, count[r]))
        .collect();
    shuffle(&mut stream, state);
    let mut seen = vec![false; universe];
    stream
        .into_iter()
        .map(|r| {
            let first = !std::mem::replace(&mut seen[r], true);
            let strategy = if !first && r % REFINED_EVERY == REFINED_EVERY / 2 {
                SearchStrategyKind::Backtracking
            } else {
                SearchStrategyKind::Linear
            };
            Request {
                problem: rank[r],
                strategy,
            }
        })
        .collect()
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (next(state) % (i as u64 + 1)) as usize);
    }
}

/// Generate the workload's inputs: the loops from `generator_seed`, their
/// order (or the `service` request stream) from `seed`.
pub fn generate(kind: Kind, seed: u64, generator_seed: u64) -> Inputs {
    let workbench = |base: WorkbenchParams, loops: usize| {
        Workbench::generate(&WorkbenchParams {
            seed: generator_seed,
            loops,
            ..base
        })
        .loops()
        .to_vec()
    };
    let mut state = seed ^ 0x5e41_ce5e_ed00_0001;
    let mut inputs = match kind {
        Kind::Roomy => {
            let loops = workbench(WorkbenchParams::paper_scale(), 1258);
            let problems = all_on(0..loops.len(), 0).collect();
            Inputs {
                loops,
                machines: vec![machine(1, 64)],
                problems,
                requests: Vec::new(),
            }
        }
        Kind::Clustered => {
            let loops = workbench(WorkbenchParams::paper_scale(), CLUSTERED_LOOPS);
            let n = loops.len();
            let problems = all_on(0..n, 0).chain(all_on(0..n, 1)).collect();
            Inputs {
                loops,
                machines: vec![machine(2, 32), machine(4, 16)],
                problems,
                requests: Vec::new(),
            }
        }
        Kind::Tight => {
            let mut loops = workbench(WorkbenchParams::unsaturated(), TIGHT_LOOPS);
            let n = loops.len();
            loops.extend(loopgen::hard_cases());
            let all = loops.len();
            let problems = all_on(0..n, 0)
                .chain(all_on(0..n, 1))
                .chain(all_on(n..all, 2))
                .chain(all_on(n..all, 3))
                .collect();
            Inputs {
                loops,
                machines: vec![machine(1, 16), machine(2, 16), machine(1, 8), machine(2, 8)],
                problems,
                requests: Vec::new(),
            }
        }
        Kind::Service => {
            let loops = workbench(WorkbenchParams::paper_scale(), SERVICE_LOOPS);
            let n = loops.len();
            let problems: Vec<Problem> = (0..3).flat_map(|m| all_on(0..n, m)).collect();
            let requests = request_stream(problems.len(), &mut state);
            Inputs {
                loops,
                machines: vec![machine(1, 64), machine(2, 32), machine(4, 16)],
                problems,
                requests,
            }
        }
    };
    if kind != Kind::Service {
        shuffle(&mut inputs.problems, &mut state);
    }
    inputs
}

/// Search configuration a `service` request asks for.
pub fn search_for(strategy: SearchStrategyKind) -> SearchConfig {
    match strategy {
        SearchStrategyKind::Backtracking => backtracking(),
        _ => linear(),
    }
}
