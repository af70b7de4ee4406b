#!/usr/bin/env python3
"""Same-host A/B: a base revision against the working tree, in alternating pairs.

Run from anywhere inside the repository:

    python3 bench/ab.py --base REV [--workloads crr_local,offload_mix,region_day,micro]
    python3 bench/ab.py --selftest

The head side is the tree this script runs from, uncommitted edits
included.  The base side is REV, checked out with `git worktree add
--detach` under ${TMPDIR:-/tmp} and removed on exit; the caller's index
and working tree are not touched.  Both sides are built once
(DUNE_CACHE=disabled) before anything is timed.

Each workload runs PAIRS times on each side.  Pair i runs seed i+1 on
both sides, and the side that runs first alternates from pair to pair.
A perfbench workload is `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` inside each tree, T being BENCHMARK.json's
run_seconds; `micro` is `bench/main.exe micro --json`.  A run that exits
non-zero, prints no result or reports correct=false fails the A/B; it
is never dropped from the sample.

Each end-to-end metric of BENCHMARK.json, with the bound listed there,
gets one verdict (`micro` is scored as one metric, see micro_scores):

    worse       the head median is worse than the base median by more
                than the bound and by more than the base runs' relative
                interquartile range;
    unresolved  that range is wider than the bound, and not every head
                run beats every base run;
    ok          neither.

Prints a table, then, as the last line, the report as one JSON object
with a `meta` block.  Exits non-zero on any `worse`, `unresolved` or
failed run.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

# A constant, so that every A/B in the repository is judged on the same
# sample size and two reports compare.
PAIRS = 10
# check.sh's trace-overhead bound: the micro score may worsen by 3%.
MICRO_BOUND = 0.03
PERFBENCH = ["crr_local", "offload_mix", "region_day"]
MICRO_EXE = os.path.join("_build", "default", "bench", "main.exe")


# ---- statistics ----------------------------------------------------------


def rel_iqr(xs):
    """Distance between the first and third quartile over the median."""
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return (q3 - q1) / abs(med) if med else 0.0


def beats(a, b, better):
    return a > b if better == "higher" else a < b


def verdict(base, head, better, bound):
    """Judge one metric from its per-pair samples (None = a failed run)."""
    row = {"pairs": len(base), "bound": bound, "base_runs": base, "head_runs": head}
    if any(x is None for x in base + head) or not base:
        row["verdict"] = "failed"
        return row
    bmed, hmed = statistics.median(base), statistics.median(head)
    iqr = rel_iqr(base)
    if bmed:
        change = (hmed - bmed) / abs(bmed)
    else:
        change = 0.0 if hmed == bmed else math.copysign(math.inf, hmed - bmed)
    worse_by = -change if better == "higher" else change
    if worse_by > bound and worse_by > iqr:
        v = "worse"
    elif iqr > bound and not all(beats(h, b, better) for h in head for b in base):
        v = "unresolved"
    else:
        v = "ok"
    row.update(base_median=bmed, head_median=hmed,
               ratio=hmed / bmed if bmed else None,
               head_wins=sum(beats(h, b, better) for b, h in zip(base, head)),
               base_iqr=iqr, verdict=v)
    return row


def micro_scores(base_runs, head_runs):
    """One number per micro run: the geomean over the kernels every run
    reports of ns_per_op[k] / median of the base runs' ns_per_op[k]."""
    runs = [r for r in base_runs + head_runs if r is not None]
    if not runs:
        return base_runs, head_runs
    shared = sorted(set.intersection(*(set(r) for r in runs)))
    ref = {k: statistics.median(r[k] for r in base_runs if r is not None) for k in shared}

    def score(r):
        if r is None or not shared:
            return None
        return math.exp(sum(math.log(r[k] / ref[k]) for k in shared) / len(shared))

    return [score(r) for r in base_runs], [score(r) for r in head_runs]


def schedule(pairs):
    """(pair, side, seed) in run order: base leads the even pairs, head
    the odd ones; pair i runs seed i+1 on both sides."""
    order = []
    for i in range(pairs):
        sides = ("base", "head") if i % 2 == 0 else ("head", "base")
        order += [(i, side, i + 1) for side in sides]
    return order


# ---- trees and runs --------------------------------------------------------


def git(*args, cwd=None):
    out = subprocess.run(["git"] + list(args), cwd=cwd, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError("git %s: %s" % (" ".join(args), out.stderr.strip()))
    return out.stdout.strip()


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "-j", "2",
                        "./perfbench/main.exe", "./bench/main.exe"],
                       cwd=tree, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise RuntimeError("build failed in " + tree)


def run_perfbench(tree, workload, seed, seconds):
    """The run's end-to-end metrics as name -> value, or None if it failed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
        if r.returncode != 0 or not result["correct"]:
            return None
        return {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def run_micro(tree, scratch):
    """The run's ns_per_op per kernel, or None if it failed."""
    out = os.path.join(scratch, "micro.json")
    if os.path.exists(out):
        os.remove(out)
    r = subprocess.run([os.path.join(tree, MICRO_EXE), "micro", "--json", out],
                       cwd=tree, capture_output=True, text=True)
    try:
        if r.returncode != 0:
            return None
        with open(out) as f:
            return json.load(f)["experiments"]["micro"]["ns_per_op"]
    except (OSError, ValueError, KeyError):
        return None


def measure(trees, workload, seconds, scratch):
    """Per side, the PAIRS samples of [workload] in pair order."""
    samples = {"base": [None] * PAIRS, "head": [None] * PAIRS}
    for i, side, seed in schedule(PAIRS):
        if workload == "micro":
            s = run_micro(trees[side], scratch)
        else:
            s = run_perfbench(trees[side], workload, seed, seconds)
        samples[side][i] = s
        print("  %s pair %d %s seed %d: %s" % (workload, i + 1, side, seed,
                                                "ok" if s is not None else "FAILED"),
              file=sys.stderr, flush=True)
    return samples


def judge(workload, samples, metrics):
    if workload == "micro":
        b, h = micro_scores(samples["base"], samples["head"])
        return [dict(verdict(b, h, "lower", MICRO_BOUND), workload=workload,
                     metric="micro_score")]
    rows = []
    for m in metrics:
        def pick(s):
            return None if s is None else s.get(m["name"])
        b = [pick(s) for s in samples["base"]]
        h = [pick(s) for s in samples["head"]]
        rows.append(dict(verdict(b, h, m["better"], m["bound"]), workload=workload,
                         metric=m["name"]))
    return rows


def fmt(x, spec):
    return "-" if x is None else format(x, spec)


def print_table(rows):
    print("%-12s %-16s %13s %13s %7s %5s %8s %6s  %s"
          % ("workload", "metric", "base median", "head median", "ratio", "won",
             "base IQR", "bound", "verdict"))
    for r in rows:
        print("%-12s %-16s %13s %13s %7s %5s %8s %6.3f  %s"
              % (r["workload"], r["metric"], fmt(r.get("base_median"), ".6g"),
                 fmt(r.get("head_median"), ".6g"), fmt(r.get("ratio"), ".3f"),
                 "%d/%d" % (r["head_wins"], r["pairs"]) if "head_wins" in r else "-",
                 fmt(r.get("base_iqr"), ".3f"), r["bound"], r["verdict"]))


def ab(base_rev, workloads):
    root = git("rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    known = PERFBENCH + ["micro"]
    unknown = [w for w in workloads if w not in known]
    if unknown:
        print("ab.py: unknown workload(s) %s (known: %s)" % (unknown, known), file=sys.stderr)
        return 2
    base_sha = git("rev-parse", "--short", base_rev + "^{commit}", cwd=root)
    head_sha = git("rev-parse", "--short", "HEAD", cwd=root)
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--"], cwd=root).returncode != 0
    scratch = tempfile.mkdtemp(prefix="nezha-ab-", dir=os.environ.get("TMPDIR", "/tmp"))
    base_tree = os.path.join(scratch, "base")
    try:
        git("worktree", "add", "--detach", base_tree, base_sha, cwd=root)
        trees = {"base": base_tree, "head": root}
        for side in ("base", "head"):
            print("== building %s (%s)" % (side, trees[side]), file=sys.stderr, flush=True)
            build(trees[side])
        rows = []
        for w in workloads:
            print("== %s: %d pairs" % (w, PAIRS), file=sys.stderr, flush=True)
            rows += judge(w, measure(trees, w, seconds, scratch), metrics)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=root,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    ocaml = subprocess.run(["ocaml", "-version"], capture_output=True, text=True)
    meta = {"base": base_sha, "head": head_sha + ("-dirty" if dirty else ""),
            "ocaml": ocaml.stdout.strip(), "nproc": len(os.sched_getaffinity(0)),
            "seeds": [i + 1 for i in range(PAIRS)], "pairs": PAIRS, "seconds": seconds}
    print_table(rows)
    bad = [r for r in rows if r["verdict"] != "ok"]
    print(json.dumps({"meta": meta, "rows": rows, "ok": not bad}), flush=True)
    return 1 if bad else 0


# ---- selftest ----------------------------------------------------------------


def selftest():
    checks = []

    def check(name, cond):
        checks.append((name, cond))

    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    slow = [x * 0.6 for x in base]
    check("clear regression is worse",
          verdict(base, slow, "higher", 0.25)["verdict"] == "worse")
    check("regression in a lower-is-better metric is worse",
          verdict(base, [x * 1.5 for x in base], "lower", 0.25)["verdict"] == "worse")
    check("change within the bound is ok",
          verdict(base, [x * 0.9 for x in base], "higher", 0.25)["verdict"] == "ok")
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    check("spread wider than the bound is unresolved",
          verdict(wide, [x * 0.95 for x in wide], "higher", 0.1)["verdict"] == "unresolved")
    check("wide spread is ok when every head run beats every base run",
          verdict(wide, [200.0 + i for i in range(10)], "higher", 0.1)["verdict"] == "ok")
    tie = verdict(base, list(base), "higher", 0.25)
    check("ties count for neither side", tie["head_wins"] == 0 and tie["verdict"] == "ok")
    check("strict wins are counted",
          verdict(base, [x + 1 for x in base], "higher", 0.25)["head_wins"] == 10)
    order = schedule(PAIRS)
    firsts = [side for i, side, _ in order[::2]]
    check("run order alternates across pairs",
          firsts == ["base", "head"] * (PAIRS // 2)
          and all(seed == i + 1 for i, _, seed in order)
          and len(order) == 2 * PAIRS)
    check("a failed run fails the A/B",
          verdict(base, slow[:-1] + [None], "higher", 0.25)["verdict"] == "failed"
          and verdict([None] + base[1:], base, "higher", 0.25)["verdict"] == "failed")
    ns = [{"a": 10.0 * (1 + 0.001 * i), "b": 20.0} for i in range(PAIRS)]
    b, h = micro_scores(ns, [{"a": r["a"] * 1.2, "b": r["b"] * 1.2} for r in ns])
    check("micro score: a 20% slowdown of every kernel is worse",
          verdict(b, h, "lower", MICRO_BOUND)["verdict"] == "worse")
    b, h = micro_scores(ns, [None] + ns[1:])
    check("micro score: a failed micro run fails the A/B",
          verdict(b, h, "lower", MICRO_BOUND)["verdict"] == "failed")
    for name, ok in checks:
        print("selftest %-60s %s" % (name, "ok" if ok else "FAIL"))
    failed = [n for n, ok in checks if not ok]
    print("selftest ok" if not failed else "selftest FAILED: %d check(s)" % len(failed))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description="Same-host A/B of the benchmark.")
    ap.add_argument("--base", help="base revision (any git rev)")
    ap.add_argument("--workloads", default=",".join(PERFBENCH + ["micro"]))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.base:
        ap.error("--base REV is required")
    # A SIGTERM unwinds through ab()'s cleanup like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return ab(args.base, args.workloads.split(","))
    except RuntimeError as e:
        print("ab.py: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
