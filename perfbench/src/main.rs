//! Scheduling benchmark: end-to-end metrics per workload, calibrated
//! against a frozen reference kernel, plus a traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload roomy --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and the
//! layer → end-to-end map.

mod check;
mod refkernel;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use check::{check, Verdict};
use ddg::Loop;
use harness::cache::{decode_entry, encode_entry, CacheStats, ScheduleCache};
use harness::service::{Provenance, ScheduleRequest, ScheduleResponse, ScheduleService};
use harness::sweep::SweepExecutor;
use mirs::{MirsScheduler, SchedScratch, ScheduleError, ScheduleResult, SchedulerOptions};
use refkernel::Calibrator;
use stats::{median, quantile, ratio};
use trace::Tracer;
use vliw::MachineConfig;
use workload::{Inputs, Kind};

/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;
/// Fewest timed passes of each kind, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// No timed pass starts after this many seconds of the run.
const RUN_CAP_SECONDS: f64 = 120.0;
/// Where traces, per-loop rows and the `service` cache go, under the
/// working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload roomy|clustered|tight|service --seed N \
     --seconds S --trace 0|1 [--generator-seed G]";

struct Args {
    kind: Kind,
    seed: u64,
    generator_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let kind = Kind::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let generator_seed = if argv.iter().any(|a| a == "--generator-seed") {
        get("--generator-seed")?
            .parse()
            .map_err(|e| format!("--generator-seed: {e}"))?
    } else {
        workload::DEFAULT_GENERATOR_SEED
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    Ok(Args {
        kind,
        seed,
        generator_seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The program reads MIRS_* variables deep inside (graph audits, debug
    // output, filter and salvage switches); any of them would silently
    // change what is measured.
    let set: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("MIRS_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: unset {} first: they change what the program does",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One pass over the workload: per-item latencies and schedule hashes.
#[derive(Debug, Clone)]
struct Pass {
    lat_raw: Vec<f64>,
    lat_cal: Vec<f64>,
    hashes: Vec<Option<u64>>,
    /// Σ of the timed calls (batches on `service`), raw and calibrated.
    work_raw: f64,
    work_cal: f64,
    /// The whole pass including the run's own per-item work, calibrated.
    wall_cal: f64,
}

impl Pass {
    fn new(items: usize) -> Self {
        Self {
            lat_raw: vec![0.0; items],
            lat_cal: vec![0.0; items],
            hashes: vec![None; items],
            work_raw: 0.0,
            work_cal: 0.0,
            wall_cal: 0.0,
        }
    }
}

type Outcome<'a> = Result<&'a ScheduleResult, &'a ScheduleError>;

/// Called after each timed call, outside its latency interval.
type Observe<'o> = dyn FnMut(&mut Tracer, usize, Outcome<'_>, Option<&ScheduleResponse>) + 'o;

/// Schedule every problem once (`roomy`, `clustered`, `tight`).
fn schedule_pass(
    inp: &Inputs,
    opts: SchedulerOptions,
    scratch: &mut SchedScratch,
    cal: &mut Calibrator,
    tr: &mut Tracer,
    observe: &mut Observe<'_>,
) -> Pass {
    let scheds: Vec<MirsScheduler<'_>> = inp
        .machines
        .iter()
        .map(|m| MirsScheduler::new(m, opts))
        .collect();
    let mut pass = Pass::new(inp.problems.len());
    let top = tr.begin("pass", None);
    for (i, p) in inp.problems.iter().enumerate() {
        cal.between_chunks();
        let t = Instant::now();
        let span = tr.begin("mirs.schedule", Some(i));
        let out = scheds[p.machine].schedule_with(&inp.loops[p.lp], scratch);
        tr.end(span);
        let lat = t.elapsed().as_secs_f64();
        pass.hashes[i] = out.as_ref().ok().map(ScheduleResult::schedule_hash);
        observe(tr, i, out.as_ref(), None);
        let wall = t.elapsed().as_secs_f64();
        let f = cal.factor();
        cal.account(wall);
        pass.lat_raw[i] = lat;
        pass.lat_cal[i] = lat * f;
        pass.work_raw += lat;
        pass.work_cal += lat * f;
        pass.wall_cal += wall * f;
    }
    tr.end(top);
    pass
}

/// Serve the request stream in batches over a fresh cache in `dir`
/// (`service`). A request's latency is its batch's `serve` time. The
/// directory is left in place: deleting hundreds of entries between timed
/// passes would leave the file system busy during the next one.
fn service_pass(
    inp: &Inputs,
    dir: &Path,
    cal: &mut Calibrator,
    tr: &mut Tracer,
    observe: &mut Observe<'_>,
) -> Result<(Pass, CacheStats), String> {
    let cache = ScheduleCache::at(dir);
    if !cache.is_enabled() {
        return Err(format!(
            "cannot create the cache directory {}",
            dir.display()
        ));
    }
    let exec = SweepExecutor::new(1);
    let service = ScheduleService::new(&cache, &exec);
    let mut pass = Pass::new(inp.requests.len());
    // What a response without a schedule stands for.
    let not_converged = ScheduleError::NotConverged {
        loop_name: String::new(),
        last_ii: 0,
    };
    let top = tr.begin("pass", None);
    for (b, batch) in inp.requests.chunks(workload::SERVICE_BATCH).enumerate() {
        cal.between_chunks();
        let first = b * workload::SERVICE_BATCH;
        let requests: Vec<ScheduleRequest<'_>> = batch
            .iter()
            .map(|r| {
                let p = inp.problems[r.problem];
                ScheduleRequest::mirs(
                    &inp.loops[p.lp],
                    &inp.machines[p.machine],
                    workload::search_for(r.strategy),
                )
            })
            .collect();
        let t = Instant::now();
        let span = tr.begin("harness.service.serve", Some(first));
        let responses = service.serve(&requests);
        tr.end(span);
        let lat = t.elapsed().as_secs_f64();
        for (j, resp) in responses.iter().enumerate() {
            let out = resp.outcome.result.as_ref().ok_or(&not_converged);
            pass.hashes[first + j] = out.ok().map(ScheduleResult::schedule_hash);
            observe(tr, first + j, out, Some(resp));
        }
        let wall = t.elapsed().as_secs_f64();
        let f = cal.factor();
        cal.account(wall);
        for i in first..first + batch.len() {
            pass.lat_raw[i] = lat;
            pass.lat_cal[i] = lat * f;
        }
        pass.work_raw += lat;
        pass.work_cal += lat * f;
        pass.wall_cal += wall * f;
    }
    tr.end(top);
    Ok((pass, cache.stats()))
}

/// Everything one workload run needs to run passes.
struct Bench {
    kind: Kind,
    inp: Inputs,
    opts: SchedulerOptions,
    /// Holds one fresh cache directory per `service` pass.
    cache_root: PathBuf,
}

/// `service` passes run so far, set-up passes included: each gets its own
/// cache directory.
static SERVICE_PASSES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Removes a directory tree when dropped.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Bench {
    fn items(&self) -> usize {
        if self.kind == Kind::Service {
            self.inp.requests.len()
        } else {
            self.inp.problems.len()
        }
    }

    /// The problem behind item `i`.
    fn problem(&self, i: usize) -> workload::Problem {
        if self.kind == Kind::Service {
            self.inp.problems[self.inp.requests[i].problem]
        } else {
            self.inp.problems[i]
        }
    }

    fn lp(&self, i: usize) -> &Loop {
        &self.inp.loops[self.problem(i).lp]
    }

    fn machine(&self, i: usize) -> &MachineConfig {
        &self.inp.machines[self.problem(i).machine]
    }

    fn pass(
        &self,
        scratch: &mut SchedScratch,
        cal: &mut Calibrator,
        tr: &mut Tracer,
        observe: &mut Observe<'_>,
    ) -> Result<(Pass, CacheStats), String> {
        if self.kind == Kind::Service {
            let n = SERVICE_PASSES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = self.cache_root.join(format!("pass-{n}"));
            service_pass(&self.inp, &dir, cal, tr, observe)
        } else {
            let pass = schedule_pass(&self.inp, self.opts, scratch, cal, tr, observe);
            Ok((pass, CacheStats::default()))
        }
    }
}

/// Counters and sums the traced passes collect for the per-layer table.
#[derive(Debug, Default)]
struct Layers {
    visits: f64,
    converged: f64,
    fresh: f64,
    hits: f64,
    shared: f64,
    search_attempts: f64,
    nc_attempts: f64,
    groups: f64,
    pruned: f64,
    picks: f64,
    ejections: f64,
    forced: f64,
    restarts: f64,
    spill_ops: f64,
    memo_hits: f64,
    memo_lookups: f64,
    moves: f64,
    moves_removed: f64,
    relax_s: f64,
    sched_s: f64,
    fresh_sched_s: f64,
    stall: f64,
    cycles: f64,
    misses: f64,
    accesses: f64,
    entry_bytes: f64,
    entries: f64,
    cache: Vec<CacheStats>,
}

/// The per-layer probes of a traced pass: the benchmark's own calls into
/// `ddg`, `mirs::ScheduleResult::validate`, `memsim` and the cache codec,
/// plus the counters the program returns.
fn probe_layers(
    bench: &Bench,
    layers: &mut Layers,
    tr: &mut Tracer,
    i: usize,
    out: Outcome<'_>,
    resp: Option<&ScheduleResponse>,
) {
    let lp = bench.lp(i);
    let machine = bench.machine(i);
    layers.visits += 1.0;
    let fresh = resp.is_none_or(|r| r.provenance == Provenance::Fresh);
    if let Some(r) = resp {
        match r.provenance {
            Provenance::Hit => layers.hits += 1.0,
            Provenance::Shared => layers.shared += 1.0,
            Provenance::Fresh => {
                layers.fresh += 1.0;
                layers.fresh_sched_s += r.outcome.scheduling_seconds;
            }
        }
    }
    if fresh {
        let lat = machine.latencies();
        let span = tr.begin("ddg.analysis", Some(i));
        let recs = ddg::recurrence::recurrences(&lp.graph, lat);
        let bounds = ddg::mii::mii_with_recurrences(
            &lp.graph,
            &recs,
            machine.total_gp_units(),
            machine.total_mem_ports(),
        );
        let order = ddg::hrms::hrms_order_with(&lp.graph, lat, &recs);
        std::hint::black_box((bounds, order));
        tr.end(span);
    }
    let r = match out {
        Ok(r) => r,
        Err(ScheduleError::NotConverged { last_ii, .. }) => {
            let mii = ddg::mii::mii(
                &lp.graph,
                machine.latencies(),
                machine.total_gp_units(),
                machine.total_mem_ports(),
            )
            .mii();
            layers.nc_attempts += f64::from(last_ii.saturating_sub(mii) + 1);
            return;
        }
        Err(_) => return,
    };
    let span = tr.begin("harness.cache.encode", Some(i));
    let blob = encode_entry(r);
    tr.end(span);
    let span = tr.begin("harness.cache.decode", Some(i));
    let back = decode_entry(&blob);
    tr.end(span);
    std::hint::black_box(back.is_ok());
    layers.entry_bytes += blob.len() as f64;
    layers.entries += 1.0;
    if !fresh {
        return;
    }
    layers.converged += 1.0;
    let span = tr.begin("mirs.result.validate", Some(i));
    let valid = r.validate(machine);
    tr.end(span);
    std::hint::black_box(valid.is_ok());
    let span = tr.begin("memsim.simulate", Some(i));
    let run = memsim::simulate(r, lp.trip_count, &memsim::MemoryParams::default());
    tr.end(span);
    layers.stall += run.stall_cycles as f64;
    layers.cycles += run.total_cycles() as f64;
    layers.misses += run.misses as f64;
    layers.accesses += run.accesses as f64;
    let (s, m) = (&r.stats, &r.search);
    layers.search_attempts += f64::from(m.attempts);
    layers.groups += f64::from(m.groups);
    layers.pruned += f64::from(m.pruned_iis);
    layers.picks += s.attempts as f64;
    layers.ejections += s.ejections as f64;
    layers.forced += s.forced as f64;
    layers.restarts += f64::from(s.restarts);
    layers.spill_ops += f64::from(s.spill_stores + s.spill_loads);
    layers.memo_hits += s.spill_memo_hits as f64;
    layers.memo_lookups += (s.spill_memo_hits + s.spill_memo_misses) as f64;
    layers.moves += f64::from(s.moves);
    layers.moves_removed += s.moves_removed as f64;
    layers.relax_s += s.relax_seconds;
    layers.sched_s += s.scheduling_seconds;
}

/// Check item `i`'s outcome. A `service` response must also carry at least
/// the strategy tier its request asked for, and be exactly the uncached
/// schedule of the strategy that produced it (`reference` memoises those).
fn check_item(
    bench: &Bench,
    i: usize,
    out: Outcome<'_>,
    served: bool,
    reference: &mut HashMap<(usize, &'static str), u64>,
) -> Verdict {
    let (lp, machine) = (bench.lp(i), bench.machine(i));
    let mut v = check(lp, machine, out);
    let Ok(r) = out else { return v };
    if !served {
        return v;
    }
    let request = bench.inp.requests[i];
    let (asked, got) = (request.strategy, r.search.strategy);
    if got.tier() < asked.tier() {
        v.fail(format!("served a {got} schedule for a {asked} request"));
    }
    let want = *reference
        .entry((request.problem, got.label()))
        .or_insert_with(|| {
            let opts = SchedulerOptions::default()
                .with_prefetch(mirs::PrefetchPolicy::HitLatency)
                .with_search(workload::search_for(got));
            MirsScheduler::new(machine, opts)
                .schedule(lp)
                .map_or(0, |r| r.schedule_hash())
        });
    if want != v.hash {
        v.fail(format!(
            "response {:016x} is not the uncached {got} schedule {want:016x}",
            v.hash
        ));
    }
    v
}

/// A number printed with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note,
    }
}

fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-item median latency across passes.
fn per_item_median(passes: &[Pass], cal: bool) -> Vec<f64> {
    let items = passes.first().map_or(0, |p| p.lat_cal.len());
    (0..items)
        .map(|i| {
            let v: Vec<f64> = passes
                .iter()
                .map(|p| if cal { p.lat_cal[i] } else { p.lat_raw[i] })
                .collect();
            median(&v)
        })
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let kind = args.kind;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    println!(
        "perfbench workload={} seed={} generator_seed={} seconds={} trace={}",
        kind.name(),
        args.seed,
        args.generator_seed,
        args.seconds,
        u8::from(args.trace)
    );
    let cache_root = PathBuf::from(OUT_DIR).join(format!("cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_root);
    let _cleanup = RemoveOnDrop(cache_root.clone());
    let mut cal = Calibrator::new();
    let mut tr = Tracer::new(args.trace);
    let mut off = Tracer::new(false);

    // Set-up: generate the inputs and run one untimed warm-up pass, several
    // times; the last warm-up pass doubles as the check pass.
    let mut setup_cal = Vec::new();
    let mut gen_cal = Vec::new();
    let mut first_hashes: Option<Vec<Option<u64>>> = None;
    let mut bench: Option<Bench> = None;
    let mut scratch = SchedScratch::default();
    let mut verdicts: Vec<Verdict> = Vec::new();
    for rep in 0..SETUP_REPS {
        cal.between_chunks();
        let t = Instant::now();
        let span = tr.begin("loopgen.generate", None);
        let inp = workload::generate(kind, args.seed, args.generator_seed);
        tr.end(span);
        let g = t.elapsed().as_secs_f64();
        let f = cal.factor();
        cal.account(g);
        let b = Bench {
            kind,
            inp,
            opts: kind.options(),
            cache_root: cache_root.clone(),
        };
        scratch = SchedScratch::default();
        let last = rep + 1 == SETUP_REPS;
        let mut checked: Vec<Verdict> = Vec::new();
        let mut reference: HashMap<(usize, &'static str), u64> = HashMap::new();
        let pass = {
            let mut observe =
                |_: &mut Tracer, i: usize, out: Outcome<'_>, resp: Option<&ScheduleResponse>| {
                    if last {
                        checked.push(check_item(&b, i, out, resp.is_some(), &mut reference));
                    }
                };
            b.pass(&mut scratch, &mut cal, &mut off, &mut observe)?.0
        };
        setup_cal.push(g * f + pass.work_cal);
        gen_cal.push(g * f);
        match &first_hashes {
            None => first_hashes = Some(pass.hashes.clone()),
            Some(h) if *h != pass.hashes => {
                return Err("set-up passes produced different schedules".into());
            }
            Some(_) => {}
        }
        if last {
            verdicts = checked;
        }
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let items = bench.items();

    // Timed passes; in trace mode untraced and traced passes alternate.
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut layers = Layers::default();
    let timed = Instant::now();
    loop {
        let enough = untraced.len() >= MIN_PASSES && (!args.trace || traced.len() >= MIN_PASSES);
        let elapsed = timed.elapsed().as_secs_f64();
        if (enough && elapsed >= args.seconds) || started.elapsed().as_secs_f64() > RUN_CAP_SECONDS
        {
            break;
        }
        let traced_turn = args.trace && traced.len() < untraced.len();
        let (pass, cache_stats) = if traced_turn {
            let mut observe =
                |tr: &mut Tracer, i: usize, out: Outcome<'_>, resp: Option<&ScheduleResponse>| {
                    probe_layers(&bench, &mut layers, tr, i, out, resp);
                };
            bench.pass(&mut scratch, &mut cal, &mut tr, &mut observe)?
        } else {
            bench.pass(&mut scratch, &mut cal, &mut off, &mut |_, _, _, _| {})?
        };
        for (i, (v, h)) in verdicts.iter_mut().zip(&pass.hashes).enumerate() {
            let want = v.converged.then_some(v.hash);
            if *h != want {
                v.fail(format!(
                    "timed pass reproduced {h:016x?} instead of {want:016x?} (item {i})"
                ));
            }
        }
        if traced_turn {
            layers.cache.push(cache_stats);
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
    }

    // Report failures with their loop and machine.
    let mut failed = 0;
    for (i, v) in verdicts.iter().enumerate() {
        if let Some(why) = &v.failure {
            failed += 1;
            let strategy = match bench.inp.requests.get(i) {
                Some(r) if kind == Kind::Service => format!(" strategy={}", r.strategy),
                _ => String::new(),
            };
            println!(
                "CHECK FAILED item={i} loop={} machine={}{strategy}: {why}",
                bench.lp(i).name,
                bench.machine(i).name()
            );
        }
    }
    let not_converged = verdicts.iter().filter(|v| !v.converged).count();

    // Host record.
    let refs: Vec<f64> = cal.samples().iter().map(|s| s * 1e3).collect();
    let lps_cal = items as f64 / median(&untraced.iter().map(|p| p.work_cal).collect::<Vec<_>>());
    let lps_raw = items as f64 / median(&untraced.iter().map(|p| p.work_raw).collect::<Vec<_>>());
    println!(
        "host nproc={} cpu=\"{}\" ref_ms p25={:.4} p50={:.4} p75={:.4} (n={}) nominal_ms={:.4} loops_per_s raw={lps_raw:.2} calibrated={lps_cal:.2}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        host_cpu(),
        quantile(&refs, 0.25),
        median(&refs),
        quantile(&refs, 0.75),
        refs.len(),
        refkernel::REF_NOMINAL_SECONDS * 1e3
    );
    println!(
        "items={items} passes untraced={} traced={} setups={SETUP_REPS} not_converged={not_converged} failed={failed}",
        untraced.len(),
        traced.len()
    );

    let metrics = if args.trace {
        per_layer(&bench, &tr, &layers, &untraced, &traced, &gen_cal, &refs)
    } else {
        end_to_end(&verdicts, &bench, &untraced, &setup_cal)
    };
    for m in &metrics {
        println!("{:<44} {:>14.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }

    if args.trace {
        write_trace_files(args, &bench, &tr, &verdicts, &untraced)?;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {items}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

fn end_to_end(
    verdicts: &[Verdict],
    bench: &Bench,
    passes: &[Pass],
    setup_cal: &[f64],
) -> Vec<Metric> {
    let items = verdicts.len();
    let work_cal: Vec<f64> = passes.iter().map(|p| p.work_cal).collect();
    let work_raw: Vec<f64> = passes.iter().map(|p| p.work_raw).collect();
    let lat = per_item_median(passes, true);
    let lat_raw = per_item_median(passes, false);
    let p99 = quantile(&lat, 0.99);
    let beyond = lat.iter().filter(|&&l| l > p99).count();
    let ok: Vec<usize> = (0..items).filter(|&i| verdicts[i].ok()).collect();
    let sum = |f: &dyn Fn(&Verdict) -> f64| ok.iter().map(|&i| f(&verdicts[i])).sum::<f64>();
    let weight: f64 = ok.iter().map(|&i| bench.lp(i).weight).sum();
    let cycles: f64 = ok
        .iter()
        .map(|&i| bench.lp(i).weight * verdicts[i].cycles_per_iter)
        .sum();
    let passes_note = format!("passes={}", passes.len());
    vec![
        metric(
            "loops_per_s",
            items as f64 / median(&work_cal),
            "1/s",
            format!("{passes_note} raw={:.2}", items as f64 / median(&work_raw)),
        ),
        metric(
            "loop_p50_ms",
            median(&lat) * 1e3,
            "ms",
            format!("samples={items} raw={:.4}", median(&lat_raw) * 1e3),
        ),
        metric(
            "loop_p99_ms",
            p99 * 1e3,
            "ms",
            format!(
                "samples={items} beyond={beyond} raw={:.4}",
                quantile(&lat_raw, 0.99) * 1e3
            ),
        ),
        metric(
            "ok_rate",
            ok.len() as f64 / items as f64,
            "ratio",
            format!("ok={} of {items}", ok.len()),
        ),
        metric(
            "ii_ratio",
            sum(&|v| f64::from(v.ii)) / sum(&|v| f64::from(v.mii)),
            "ratio",
            format!("loops={}", ok.len()),
        ),
        metric(
            "code_growth",
            sum(&|v| v.ops_out as f64) / sum(&|v| v.ops_in as f64),
            "ratio",
            format!("loops={}", ok.len()),
        ),
        metric(
            "cycles_per_iter",
            cycles / weight,
            "cycles",
            format!("loops={}", ok.len()),
        ),
        metric(
            "setup_s",
            median(setup_cal),
            "s",
            format!("setups={}", setup_cal.len()),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM".into()),
    ]
}

fn per_layer(
    bench: &Bench,
    tr: &Tracer,
    l: &Layers,
    untraced: &[Pass],
    traced: &[Pass],
    gen_cal: &[f64],
    refs_ms: &[f64],
) -> Vec<Metric> {
    // Span times are rescaled by the run's median kernel time.
    let scale = refkernel::REF_NOMINAL_SECONDS * 1e3 / median(refs_ms);
    let totals = tr.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_us = |name: &str| {
        let t = span(name);
        ratio(t.seconds, t.count as f64) * scale * 1e6
    };
    let per = |x: f64| ratio(x, l.converged);
    let service = bench.kind == Kind::Service;
    let n_traced = traced.len().max(1) as f64;
    let cache_mean = |f: &dyn Fn(&CacheStats) -> u64| {
        ratio(
            l.cache.iter().map(|c| f(c) as f64).sum(),
            l.cache.len() as f64,
        )
    };
    let na = |applies: bool| {
        if applies {
            String::new()
        } else {
            "n/a on this workload".into()
        }
    };
    let sched = span("mirs.schedule");
    let serve = span("harness.service.serve");
    let sched_s = if service {
        l.fresh_sched_s
    } else {
        sched.seconds
    };
    let sched_n = if service { l.fresh } else { sched.count as f64 };
    let wall = |p: &[Pass]| median(&p.iter().map(|p| p.wall_cal).collect::<Vec<_>>());
    vec![
        metric(
            "loopgen.generate_ms",
            median(gen_cal) * 1e3,
            "ms",
            String::new(),
        ),
        metric(
            "ddg.analysis_us",
            mean_us("ddg.analysis"),
            "us",
            String::new(),
        ),
        metric(
            "ddg.analysis_share",
            ratio(span("ddg.analysis").seconds, sched_s),
            "ratio",
            String::new(),
        ),
        metric(
            "mirs.schedule_us",
            ratio(sched_s, sched_n) * scale * 1e6,
            "us",
            format!("calls={sched_n}"),
        ),
        metric(
            "mirs.search.relax_share",
            ratio(l.relax_s, l.sched_s),
            "ratio",
            String::new(),
        ),
        metric(
            "mirs.search.pruned_iis",
            per(l.pruned),
            "count",
            "per converged loop".into(),
        ),
        metric(
            "mirs.search.attempts_per_loop",
            per(l.search_attempts),
            "count",
            String::new(),
        ),
        metric(
            "mirs.search.useful_ratio",
            ratio(l.converged, l.search_attempts + l.nc_attempts),
            "ratio",
            "not-converged loops count last_ii - MII + 1 attempts".into(),
        ),
        metric(
            "mirs.search.groups_per_loop",
            per(l.groups),
            "count",
            String::new(),
        ),
        metric(
            "mirs.scheduler.picks_per_loop",
            per(l.picks),
            "count",
            String::new(),
        ),
        metric(
            "mirs.scheduler.us_per_pick",
            ratio(l.sched_s, l.picks) * scale * 1e6,
            "us",
            String::new(),
        ),
        metric(
            "mirs.scheduler.ejections_per_pick",
            ratio(l.ejections, l.picks),
            "ratio",
            String::new(),
        ),
        metric(
            "mirs.scheduler.forced_per_pick",
            ratio(l.forced, l.picks),
            "ratio",
            String::new(),
        ),
        metric(
            "mirs.scheduler.restarts_per_loop",
            per(l.restarts),
            "count",
            String::new(),
        ),
        metric(
            "mirs.spill.ops_per_loop",
            per(l.spill_ops),
            "count",
            String::new(),
        ),
        metric(
            "mirs.spill.memo_hit_ratio",
            ratio(l.memo_hits, l.memo_lookups),
            "ratio",
            String::new(),
        ),
        metric(
            "mirs.cluster_assign.moves_per_loop",
            per(l.moves),
            "count",
            String::new(),
        ),
        metric(
            "mirs.cluster_assign.moves_removed_per_loop",
            per(l.moves_removed),
            "count",
            String::new(),
        ),
        metric(
            "mirs.result.validate_us",
            mean_us("mirs.result.validate"),
            "us",
            String::new(),
        ),
        metric(
            "memsim.simulate_us",
            mean_us("memsim.simulate"),
            "us",
            String::new(),
        ),
        metric(
            "memsim.stall_share",
            ratio(l.stall, l.cycles),
            "ratio",
            String::new(),
        ),
        metric(
            "memsim.miss_ratio",
            ratio(l.misses, l.accesses),
            "ratio",
            String::new(),
        ),
        metric(
            "harness.service.serve_ms",
            ratio(serve.seconds, serve.count as f64) * scale * 1e3,
            "ms",
            na(service),
        ),
        metric(
            "harness.service.hit_ratio",
            ratio(l.hits, l.visits),
            "ratio",
            na(service),
        ),
        metric(
            "harness.service.shared_ratio",
            ratio(l.shared, l.visits),
            "ratio",
            na(service),
        ),
        metric(
            "harness.service.schedule_share",
            ratio(l.fresh_sched_s, serve.seconds),
            "ratio",
            na(service),
        ),
        metric(
            "harness.cache.inserts",
            cache_mean(&|c| c.inserts),
            "count",
            format!("per pass {}", na(service)),
        ),
        metric(
            "harness.cache.refines",
            cache_mean(&|c| c.refines),
            "count",
            format!("per pass {}", na(service)),
        ),
        metric(
            "harness.cache.corrupt",
            cache_mean(&|c| c.corrupt),
            "count",
            format!("per pass {}", na(service)),
        ),
        metric(
            "harness.cache.encode_us",
            mean_us("harness.cache.encode"),
            "us",
            String::new(),
        ),
        metric(
            "harness.cache.decode_us",
            mean_us("harness.cache.decode"),
            "us",
            String::new(),
        ),
        metric(
            "harness.cache.entry_bytes",
            ratio(l.entry_bytes, l.entries),
            "bytes",
            String::new(),
        ),
        metric(
            "host.ref_ms",
            median(refs_ms),
            "ms",
            format!("samples={}", refs_ms.len()),
        ),
        metric(
            "bench.trace_overhead",
            ratio(wall(untraced), wall(traced)),
            "ratio",
            format!("traced passes={n_traced}"),
        ),
    ]
}

fn write_trace_files(
    args: &Args,
    bench: &Bench,
    tr: &Tracer,
    verdicts: &[Verdict],
    untraced: &[Pass],
) -> Result<(), String> {
    let stem = format!(
        "{}-seed{}-gen{}",
        args.kind.name(),
        args.seed,
        args.generator_seed
    );
    let spans = Path::new(OUT_DIR).join(format!("{stem}-trace.jsonl"));
    tr.write_jsonl(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    let rows = Path::new(OUT_DIR).join(format!("{stem}-loops.tsv"));
    let lat = per_item_median(untraced, true);
    let mut out = String::from(
        "workload\titem\tloop\tmachine\tverdict\tii\tmii\tspill_ops\tmoves\thash\tmedian_ms\n",
    );
    for (i, v) in verdicts.iter().enumerate() {
        out.push_str(&format!(
            "{}\t{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{:.6}\n",
            args.kind.name(),
            bench.lp(i).name,
            bench.machine(i).name(),
            v.label(),
            v.ii,
            v.mii,
            v.spill_ops,
            v.moves,
            v.hash,
            lat[i] * 1e3
        ));
    }
    std::fs::write(&rows, out).map_err(|e| format!("cannot write {}: {e}", rows.display()))?;
    println!("trace: {} spans -> {}", tr.spans().len(), spans.display());
    println!("loops: {} rows -> {}", verdicts.len(), rows.display());
    for (name, t) in tr.totals() {
        println!(
            "span {name:<24} count={:>8} total_ms={:>12.3} self_ms={:>12.3}",
            t.count,
            t.seconds * 1e3,
            t.self_seconds * 1e3
        );
    }
    Ok(())
}
