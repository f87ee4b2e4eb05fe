#!/usr/bin/env python3
"""A/B gate: the benchmark's end-to-end metrics at a parent commit against
the working tree, over alternated pairs of runs.

    python3 scripts/perf_ab.py PARENT_REV [--pairs N] [--seconds S] [--seed N] [--workload W[=S]]...

The parent is exported with `git archive` into a temporary directory and its
perfbench is built there with a target directory of its own, so no build
output of the checkout is reused. The working tree's perfbench is built in
place, so uncommitted edits are measured. The workloads, `run_seconds` and
the end-to-end metrics with their `better` and `bound` come from the
checkout's BENCHMARK.json. Each run is `perfbench --workload W --seed N
--seconds S --trace 0`, in a working directory of its side's own, where N
is `--seed` (1 by default, the same on both sides; another seed re-checks a
claim on runs it was not made from) and S is the workload's own length
when it is given as `--workload W=S` and `--seconds` (by default
`run_seconds`) otherwise. Pair i runs the parent first when i is even and
the change first when it is odd.

Per workload and metric the report gives both medians, the shift of the
change's median relative to the parent's, the parent's interquartile range
as a share of its median, and the pairs the change won (ties count for
neither side). Each workload's table opens with each side's median count
of timed passes: perfbench keeps every pass's per-item vectors, so
`peak_rss_mb` grows with it, and a faster side runs more passes in the
same seconds.

After a workload's pairs, each side makes one traced run (`--trace 1
--seconds 1`), and the report compares the per-loop rows of the two
`.bench_out/<workload>-seed<N>-gen<G>-loops.tsv` files on every column but
`median_ms` (item, loop, machine, verdict, II, MII, spill ops, moves and
schedule hash). It prints `rows: identical (N)`, or how many rows moved
and the first few of them by item, loop and machine. It then compares the
work counters of the same two traced runs exactly (picks, ejections and
forced placements per pick, restarts, attempts, moves and removed moves
per loop, spill ops per loop, cache entry bytes): each is a ratio of
integer totals, so a change that moves no work prints `counters:
identical (9)`, and otherwise the counters that moved with both values.
Moved rows and counters do not change the exit status: a change that
moves schedules or work on purpose still passes, and the log shows what
moved.

Exit status: 1 when any metric's change median is worse than the parent's
by more than its bound, 2 when a build or a run fails or a run reports
`correct` false or `failed` > 0, or when a workload is unknown or a run
length is not positive; 0 otherwise.
"""

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Failure(Exception):
    """A build or a run that gives nothing to compare."""


def quartiles(values):
    """First and third quartile, by the method perfbench/spread.py uses.

    >>> quartiles([1, 2, 3, 4, 5])
    (1.5, 4.5)
    >>> quartiles([4, 1, 3, 2])
    (1.25, 3.75)
    >>> quartiles([7.0])
    (7.0, 7.0)
    """
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile range as a share of the median.

    >>> spread([90, 100, 110, 100, 100])
    0.1
    """
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def shift(parent, change):
    """Change relative to parent: +0.05 is 5% above it.

    >>> round(shift(200.0, 210.0), 6)
    0.05
    >>> shift(0.0, 0.0)
    0.0
    """
    if parent == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return (change - parent) / abs(parent)


def breaks_bound(parent, change, better, bound):
    """Whether `change` is worse than `parent` by more than `bound`.

    A higher-is-better metric with a bound of 0.2, just inside and just
    outside it:

    >>> breaks_bound(100.0, 80.5, "higher", 0.2)
    False
    >>> breaks_bound(100.0, 79.5, "higher", 0.2)
    True

    A lower-is-better one the same way:

    >>> breaks_bound(10.0, 11.9, "lower", 0.2)
    False
    >>> breaks_bound(10.0, 12.1, "lower", 0.2)
    True

    Getting better never breaks a bound:

    >>> breaks_bound(100.0, 300.0, "higher", 0.2), breaks_bound(10.0, 1.0, "lower", 0.2)
    (False, False)
    """
    worse = -shift(parent, change) if better == "higher" else shift(parent, change)
    return worse > bound


def wins(parent_runs, change_runs, better):
    """Pairs in which the change did better than the parent; ties count
    for neither side.

    >>> wins([10, 20, 30], [11, 20, 29], "higher")
    1
    >>> wins([10, 20, 30], [11, 20, 29], "lower")
    1
    >>> wins([5, 5], [5, 5], "higher")
    0
    """
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))


def plan(specs, known, seconds):
    """The `(workload, seconds)` runs that `--workload` specs ask for:
    every known workload when there are none, and `seconds` for a spec
    that names no length of its own.

    >>> plan(["roomy", "tight=15"], ["roomy", "tight"], 3.0)
    [('roomy', 3.0), ('tight', 15.0)]
    >>> plan(None, ["roomy", "tight"], 8)
    [('roomy', 8.0), ('tight', 8.0)]
    >>> plan(["bogus"], ["roomy"], 3)
    Traceback (most recent call last):
    ValueError: unknown workload 'bogus' (known: roomy)
    >>> plan(["roomy=0"], ["roomy"], 3)
    Traceback (most recent call last):
    ValueError: roomy: run length 0 is not a positive number of seconds
    >>> plan(["roomy=soon"], ["roomy"], 3)
    Traceback (most recent call last):
    ValueError: roomy: run length soon is not a positive number of seconds
    >>> plan(None, ["roomy"], -1)
    Traceback (most recent call last):
    ValueError: roomy: run length -1 is not a positive number of seconds
    """
    runs = []
    for spec in specs or known:
        name, _, length = spec.partition("=")
        if name not in known:
            raise ValueError(f"unknown workload {name!r} (known: {', '.join(known)})")
        length = length or str(seconds)
        try:
            value = float(length)
        except ValueError:
            value = math.nan
        if not value > 0:
            raise ValueError(f"{name}: run length {length} is not a positive number of seconds")
        runs.append((name, value))
    return runs


def timed_passes(lines):
    """The run's count of untraced timed passes, from perfbench's
    `items=... passes untraced=N ...` line.

    >>> timed_passes(["host nproc=2", "items=30000 passes untraced=18 traced=0 setups=3",
    ...               "{}"])
    18
    >>> timed_passes(["{}"])
    Traceback (most recent call last):
    ValueError: no 'items=... passes untraced=N' line in the output
    """
    for line in lines:
        match = re.match(r"items=\S+ passes untraced=(\d+) ", line)
        if match:
            return int(match.group(1))
    raise ValueError("no 'items=... passes untraced=N' line in the output")


def rows_report(parent, change, show=3):
    r"""Compare the lines of two `-loops.tsv` files row by row on columns
    1-10, every column but `median_ms`, and say which rows moved.

    >>> head = "workload\titem\tloop\tmachine\tverdict\tii\tmii\tspill_ops\tmoves\thash\tmedian_ms"
    >>> def row(item, loop, ii, ms):
    ...     return f"tight\t{item}\t{loop}\t1-(GP8M4-REG16)\tok\t{ii}\t2\t0\t0\t00ab\t{ms}"
    >>> parent = [head, row(0, "daxpy", 2, 0.01), row(1, "dot", 4, 0.03)]
    >>> rows_report(parent, [head, row(0, "daxpy", 2, 0.02), row(1, "dot", 4, 0.05)])
    'rows: identical (2)'
    >>> rows_report(parent, [head, row(0, "daxpy", 3, 0.01), row(1, "dot", 4, 0.03)])
    'rows: 1 of 2 moved; first: item 0 daxpy on 1-(GP8M4-REG16)'
    >>> rows_report(parent, [head, row(0, "daxpy", 2, 0.01)])
    'rows: 1 of 2 moved (parent 2 rows, change 1); first: item 1 dot on 1-(GP8M4-REG16)'
    """
    p, c = ([line.split("\t")[:10] for line in lines[1:] if line] for lines in (parent, change))
    n = max(len(p), len(c))
    moved = [i for i in range(n) if i >= len(p) or i >= len(c) or p[i] != c[i]]
    if not moved:
        return f"rows: identical ({n})"
    sizes = "" if len(p) == len(c) else f" (parent {len(p)} rows, change {len(c)})"
    first = ", ".join(f"item {r[1]} {r[2]} on {r[3]}"
                      for r in ((p if i < len(p) else c)[i] for i in moved[:show]))
    return f"rows: {len(moved)} of {n} moved{sizes}; first: {first}"


# The traced work counters a change that moves no work leaves equal to
# the last digit.
COUNTERS = (
    "mirs.scheduler.picks_per_loop",
    "mirs.scheduler.ejections_per_pick",
    "mirs.scheduler.forced_per_pick",
    "mirs.scheduler.restarts_per_loop",
    "mirs.search.attempts_per_loop",
    "mirs.cluster_assign.moves_per_loop",
    "mirs.cluster_assign.moves_removed_per_loop",
    "mirs.spill.ops_per_loop",
    "harness.cache.entry_bytes",
)


def counters_report(parent, change):
    """Compare the work counters of two traced runs' metrics exactly and
    say which moved, with both values.

    >>> parent = dict.fromkeys(COUNTERS, 2.5) | {"mirs.schedule_us": 700.0}
    >>> counters_report(parent, parent | {"mirs.schedule_us": 420.0})
    'counters: identical (9)'
    >>> change = parent | {"mirs.scheduler.picks_per_loop": 2.25, "harness.cache.entry_bytes": 3.0}
    >>> print(counters_report(parent, change))
    counters: 2 of 9 moved: mirs.scheduler.picks_per_loop 2.5 -> 2.25, harness.cache.entry_bytes 2.5 -> 3.0

    A counter one side does not report counts as moved:

    >>> print(counters_report(parent, {k: v for k, v in parent.items()
    ...                                if k != "mirs.spill.ops_per_loop"}))
    counters: 1 of 9 moved: mirs.spill.ops_per_loop 2.5 -> -
    """
    moved = [f"{name} {parent.get(name, '-')} -> {change.get(name, '-')}" for name in COUNTERS
             if name not in parent or name not in change or parent[name] != change[name]]
    if not moved:
        return f"counters: identical ({len(COUNTERS)})"
    return f"counters: {len(moved)} of {len(COUNTERS)} moved: {', '.join(moved)}"


def cargo_build(manifest, target_dir=None):
    """Build perfbench at `manifest` and return its executable's path."""
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", str(manifest),
           "--message-format=json-render-diagnostics"]
    if target_dir:
        cmd += ["--target-dir", str(target_dir)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise Failure(f"building {manifest} failed (status {done.returncode})")
    for line in reversed(done.stdout.splitlines()):
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            return msg["executable"]
    raise Failure(f"building {manifest} produced no executable")


def build_parent(rev, tmp):
    """Export `rev` into `tmp` and build its perfbench there."""
    src = tmp / "parent-src"
    src.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True)
    if archive.returncode != 0:
        raise Failure(f"git archive {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(src)], input=archive.stdout, check=True)
    return cargo_build(src / "perfbench" / "Cargo.toml", tmp / "parent-target")


def run(binary, cwd, workload, seconds, seed, trace=0):
    """One perfbench run, untraced unless `trace` is 1: its metrics by
    name, and its count of timed passes."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise Failure(f"{' '.join(cmd)} exited {done.returncode}\n{done.stderr.strip()}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] > 0:
        checks = "\n".join(line for line in lines if line.startswith("CHECK FAILED"))
        raise Failure(f"{' '.join(cmd)}: correct={result['correct']} "
                      f"failed={result['failed']}\n{checks}")
    try:
        passes = timed_passes(lines)
    except ValueError as e:
        raise Failure(f"{' '.join(cmd)}: {e}") from e
    return {name: m["value"] for name, m in result["metrics"].items()}, passes


def traced(binary, cwd, workload, seed):
    """One traced 1 s run: the lines of the per-loop rows it writes, and
    its metrics by name."""
    pattern = f"{workload}-seed{seed}-gen*-loops.tsv"
    for old in (cwd / ".bench_out").glob(pattern):
        old.unlink()
    metrics, _ = run(binary, cwd, workload, 1, seed, trace=1)
    files = list((cwd / ".bench_out").glob(pattern))
    if len(files) != 1:
        raise Failure(f"{workload}: the traced run wrote {len(files)} files named {pattern}")
    return files[0].read_text().splitlines(), metrics


def compare(workload, runs, passes, metrics):
    """Print one workload's table; return the metrics beyond their bound."""
    pairs = len(runs["parent"])
    print(f"\n{workload}: {pairs} pairs; median timed passes: parent "
          f"{statistics.median(passes['parent']):g}, change {statistics.median(passes['change']):g}")
    print(f"{'metric':<16} {'parent':>12} {'change':>12} {'shift':>8} "
          f"{'parent IQR':>10} {'wins':>6}  bound")
    broken = []
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        if name not in runs["change"][0]:
            raise Failure(f"{workload}: the change reports no {name}")
        if name not in runs["parent"][0]:
            print(f"{name:<16} {'-':>12} {'new':>12}")
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        over = breaks_bound(p_med, c_med, better, bound)
        if over:
            broken.append(f"{name} on {workload}")
        print(f"{name:<16} {p_med:>12.6g} {c_med:>12.6g} {shift(p_med, c_med):>+8.2%} "
              f"{spread(parent):>10.2%} {wins(parent, change, better):>3}/{pairs:<2}  "
              f"{bound:.0%} {better}{'  WORSE' if over else ''}")
    return broken


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev", help="the commit to compare against, e.g. HEAD^1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--seed", type=int, default=1, help="perfbench's run seed, on both sides")
    ap.add_argument("--workload", action="append", metavar="NAME[=SECONDS]",
                    help="repeatable; default: every workload, each at --seconds")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    try:
        runs_asked = plan(args.workload, [w["name"] for w in bench["workloads"]], seconds)
    except ValueError as e:
        ap.error(str(e))
    first = bench["end_to_end"][0]["name"]
    broken = []
    try:
        with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
            tmp = Path(tmp)
            binaries = {
                "parent": build_parent(args.parent_rev, tmp),
                "change": cargo_build(ROOT / "perfbench" / "Cargo.toml"),
            }
            for side in binaries:
                (tmp / side).mkdir()
            for workload, seconds in runs_asked:
                runs = {"parent": [], "change": []}
                passes = {"parent": [], "change": []}
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        metrics, n = run(binaries[side], tmp / side, workload, seconds, args.seed)
                        runs[side].append(metrics)
                        passes[side].append(n)
                    print(f"{workload} pair {i + 1}/{args.pairs}: {first} "
                          f"parent {runs['parent'][-1].get(first, math.nan):.6g} "
                          f"change {runs['change'][-1].get(first, math.nan):.6g}", flush=True)
                broken += compare(workload, runs, passes, bench["end_to_end"])
                p_rows, p_metrics = traced(binaries["parent"], tmp / "parent", workload, args.seed)
                c_rows, c_metrics = traced(binaries["change"], tmp / "change", workload, args.seed)
                print(rows_report(p_rows, c_rows))
                print(counters_report(p_metrics, c_metrics), flush=True)
    except (Failure, OSError, subprocess.CalledProcessError) as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 2
    if broken:
        print(f"\nperf_ab: FAIL: change median worse than its bound: {', '.join(broken)}")
        return 1
    print("\nperf_ab: OK: every end-to-end median within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
