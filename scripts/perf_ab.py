#!/usr/bin/env python3
"""A/B gate: the benchmark's end-to-end metrics at a parent commit against
the working tree, over alternated pairs of runs.

    python3 scripts/perf_ab.py PARENT_REV [--pairs N] [--seconds S] [--workload W]...

The parent is exported with `git archive` into a temporary directory and its
perfbench is built there with a target directory of its own, so no build
output of the checkout is reused. The working tree's perfbench is built in
place, so uncommitted edits are measured. The workloads, `run_seconds` and
the end-to-end metrics with their `better` and `bound` come from the
checkout's BENCHMARK.json. Each run is `perfbench --workload W --seed 1
--seconds S --trace 0`, in a working directory of its side's own. Pair i
runs the parent first when i is even and the change first when it is odd.

Per workload and metric the report gives both medians, the shift of the
change's median relative to the parent's, the parent's interquartile range
as a share of its median, and the pairs the change won (ties count for
neither side). Exit status: 1 when any metric's change median is worse than
the parent's by more than its bound, 2 when a build or a run fails or a run
reports `correct` false or `failed` > 0, 0 otherwise.
"""

import argparse
import json
import math
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


def run(binary, cwd, workload, seconds):
    """One untraced perfbench run; its metrics by name."""
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", f"{seconds:g}",
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise Failure(f"{' '.join(cmd)} exited {done.returncode}\n{done.stderr.strip()}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] > 0:
        checks = "\n".join(line for line in lines if line.startswith("CHECK FAILED"))
        raise Failure(f"{' '.join(cmd)}: correct={result['correct']} "
                      f"failed={result['failed']}\n{checks}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def compare(workload, runs, metrics):
    """Print one workload's table; return the metrics beyond their bound."""
    pairs = len(runs["parent"])
    print(f"\n{workload}: {pairs} pairs")
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
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
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
            for workload in workloads:
                runs = {"parent": [], "change": []}
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        runs[side].append(run(binaries[side], tmp / side, workload, seconds))
                    print(f"{workload} pair {i + 1}/{args.pairs}: {first} "
                          f"parent {runs['parent'][-1].get(first, math.nan):.6g} "
                          f"change {runs['change'][-1].get(first, math.nan):.6g}", flush=True)
                broken += compare(workload, runs, bench["end_to_end"])
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
