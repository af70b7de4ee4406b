#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads offload_mix --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --trace 0 --seconds 10

For every workload and metric prints the median over the seeds and the
distance between the first and third quartile as a share of the median
(statistics.quantiles, n=4), next to a third of the metric's bound from
BENCHMARK.json.  Every run must report correct=true.  Exits non-zero if
a run fails or, with --check, if any spread, setup_s's included,
reaches a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result, time.time() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values, walls = {}, []
        for s in seeds(args.seeds):
            result, wall = run_one(w, s, seconds, args.trace)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {s}: correct={result['correct']} failed={result['failed']}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {len(walls)} runs, wall s max {max(walls):.1f} "
              f"median {statistics.median(walls):.1f}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- above a third of the bound"
                ok = ok and not args.check
            limit = f"{bound / 3:.4f}" if bound is not None else "-"
            print(f"  {name:40s} median {med:14.6g}  spread {spread:8.4f}  "
                  f"bound/3 {limit}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
