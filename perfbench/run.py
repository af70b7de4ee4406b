#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload crr_local --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/main.exe with dune (shared dune cache disabled, so the
build writes only under _build/), then runs it with the same arguments.
main.exe reports the metrics it measured as name -> value; this script
completes that from BENCHMARK.json, the one list of metric names and
units: every end_to_end metric (--trace 0) or per_layer metric
(--trace 1), in its order and with its unit, a per-layer metric the
workload does not exercise reading 0.  The last line of standard output
is that result as one JSON object; build output goes to standard error.
Exits non-zero without a result when the sources are missing, the build
fails, or main.exe reports a name BENCHMARK.json does not list (or
leaves out an end-to-end one).
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def git_rev():
    """The checkout's commit, or "unknown" outside a git work tree (the
    search stops at the checkout root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], env=env,
                             capture_output=True, text=True)
    except FileNotFoundError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def complete(raw, trace):
    """The result line: [raw]'s metrics named, ordered and given units by
    BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    unknown = sorted(set(raw["metrics"]) - names)
    missing = [] if trace else sorted(names - set(raw["metrics"]))
    if unknown or missing:
        raise ValueError(f"not in BENCHMARK.json: {unknown}; not measured: {missing}")
    metrics = {m["name"]: {"value": raw["metrics"].get(m["name"], 0), "unit": m["unit"]}
               for m in listed}
    return dict(raw, metrics=metrics)


def main():
    needed = ["dune-project", "lib", "BENCHMARK.json", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("run.py: not a repository root, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "-j", "2", "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 127
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    print("meta: git_rev=" + git_rev(), flush=True)
    run = subprocess.run([EXE] + sys.argv[1:], capture_output=True, text=True)
    lines = run.stdout.splitlines()
    sys.stderr.write(run.stderr)
    if run.returncode != 0 or "--selftest" in sys.argv or not lines:
        print(run.stdout, end="", flush=True)
        return run.returncode or (0 if "--selftest" in sys.argv else 1)
    print("\n".join(lines[:-1]), flush=True)
    trace = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "1"
    try:
        result = complete(json.loads(lines[-1]), trace)
    except (ValueError, KeyError) as e:
        print(f"run.py: bad result: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
