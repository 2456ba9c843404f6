#!/usr/bin/env python3
"""Records the benchmark's baseline for the current tree.

Run from the root of a checkout of the repository:

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Runs perfbench/run.py --trace 0 once per seed (1 to 10) on every workload
and --trace 1 once per workload (first seed), then writes the median and
quartiles of every end-to-end metric and the per-layer values to --out.
The spread of a metric is (q3 - q1) / median over its seeds, with the
quartiles of Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def host():
    model = "unknown cpu"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return "%s, %d cpus, %s" % (model, os.cpu_count(), sys.platform)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("baseline: %s seed %d trace %d is not correct" % (workload, seed, trace))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    report = {"host": host(), "run_seconds": seconds, "seeds": list(range(1, SEEDS + 1)),
              "end_to_end": {}, "per_layer": {}}
    for w in bench["workloads"]:
        name = w["name"]
        values = {}
        for seed in report["seeds"]:
            metrics = run(name, seed, seconds, 0)["metrics"]
            for k, v in metrics.items():
                values.setdefault(k, []).append(v["value"])
            print(name, seed, {k: round(v["value"], 4) for k, v in metrics.items()},
                  flush=True)
        summary = {}
        for k, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            summary[k] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "values": vs}
            print("  %-12s median %.4f spread %.4f" % (k, median, summary[k]["spread"]),
                  flush=True)
        report["end_to_end"][name] = summary
        traced = run(name, report["seeds"][0], seconds, 1)["metrics"]
        report["per_layer"][name] = {k: v["value"] for k, v in traced.items()}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
