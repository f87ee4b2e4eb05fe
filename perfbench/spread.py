#!/usr/bin/env python3
"""Spread of the benchmark's metrics over several seeds.

Runs one workload once per seed and prints, per metric, the median of the
values and the distance between their first and third quartiles as a share
of the median (the steadiness figure each metric's bound is set against).

    python3 perfbench/spread.py --workload roomy --seeds 1-10 --seconds 15
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="15")
    ap.add_argument("--trace", default="0")
    ap.add_argument(
        "--bin",
        help="a built perfbench binary (default: cargo run --release)",
    )
    args = ap.parse_args()
    base = (
        [args.bin]
        if args.bin
        else ["cargo", "run", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml", "--"]
    )
    values = {}
    for seed in seeds(args.seeds):
        cmd = base + ["--workload", args.workload, "--seed", str(seed),
                      "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output")
        line = [f"seed {seed}:"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(" ".join(line), flush=True)
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:<44} median={med:<14.6g} spread={spread:.4f}")


if __name__ == "__main__":
    main()
