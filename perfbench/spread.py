#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every end-to-end metric this prints the median of the runs, the
distance between the first and third quartile as a share of the median,
and that share against the metric's bound in BENCHMARK.json, plus the
failed share of the operations.

    python3 perfbench/spread.py --workload front_echo --seeds 1-10

Run it from the repository root.
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
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    shares = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        line = [f"seed {seed}", f"correct={result['correct']}"]
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            line.append(f"{name}={v:.6g}")
        print("  ".join(line), flush=True)
    print(f"failed share per run: {sorted(set(shares))}")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        verdict = "" if bound is None else f"bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"{m['name']:<32} median {med:<14.6g} iqr/median {spread:.4f}  {verdict}")


if __name__ == "__main__":
    main()
