#!/usr/bin/env python3
"""One-step bit-identity proof: a base revision against the working tree.

Run from anywhere inside the repository:

    python3 bench/identity.py --base REV
    python3 bench/identity.py --selftest

The head side is the tree this script runs from, uncommitted edits
included.  The base side is REV, checked out with `git worktree add
--detach` under ${TMPDIR:-/tmp} and removed on exit, as bench/ab.py
does.  Both sides are built once (DUNE_CACHE=disabled), then each side
writes the same four simulation outputs:

    paper      bench/main.exe paper --json     compared outside `meta`
    macro      bench/main.exe macro --json     compared outside `meta`
                                               and `peak_rss_bytes`
    chaos      nezha_sim chaos --loss 0.005 --json
    perfbench  perfbench/run.py --workload W --seed 11 --seconds 4
               --trace 1, W = crr_local and offload_mix, run twice per
               side; compared on the keys both runs of a side reproduce
               exactly, outside the host-memory keys (HOST_MEMORY)

A perfbench result mixes simulated counts with host timings, so the
second run on each side sorts them: a key whose two runs differ was
moved by the host, and is not compared.  A key one side reproduces and
the other does not is reported.  The host-memory keys reproduce too,
but they measure the OCaml heap that runs the simulation, and any code
change moves them; the lines that name them are informational.

Every simulation in the repository is seeded, so a change that claims
to keep behaviour must leave all four identical.  Prints one line per
output, `identical` or every differing key path with both values, and
exits non-zero unless all four are identical.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

from ab import git

BENCH_EXE = os.path.join("_build", "default", "bench", "main.exe")
SIM_EXE = os.path.join("_build", "default", "bin", "nezha_sim.exe")

# name -> (executable, arguments before the output file, keys ignored at any depth)
OUTPUTS = {
    "paper": (BENCH_EXE, ["paper", "--json"], {"meta"}),
    "macro": (BENCH_EXE, ["macro", "--json"], {"meta", "peak_rss_bytes"}),
    "chaos": (SIM_EXE, ["chaos", "--loss", "0.005", "--json"], {"meta"}),
}

PERFBENCH_WORKLOADS = ["crr_local", "offload_mix"]
PERFBENCH_ARGS = ["--seed", "11", "--seconds", "4", "--trace", "1"]
# Deterministic, but figures of the host heap, not of the simulation.
HOST_MEMORY = {"gc.minor_words_per_pkt", "gc.promoted_words_per_pkt",
               "gc.major_collections", "vswitch.host_bytes_per_session"}


# ---- comparison --------------------------------------------------------------


def differences(a, b, ignore, path="$"):
    """Every key path where [a] and [b] differ, each with both values, walking
    objects in sorted key order and arrays by index, skipping keys in
    [ignore]; empty when they are identical.  Numbers compare by type and
    value, so 1 and 1.0 differ, as they would in the printed JSON."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k in ignore:
                continue
            if k not in a or k not in b:
                out.append("%s.%s (only in %s)" % (path, k, "head" if k in b else "base"))
            else:
                out += differences(a[k], b[k], ignore, "%s.%s" % (path, k))
        return out
    if isinstance(a, list) and isinstance(b, list):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += differences(x, y, ignore, "%s[%d]" % (path, i))
        if len(a) != len(b):
            out.append("%s (length %d vs %d)" % (path, len(a), len(b)))
        return out
    if type(a) is not type(b) or a != b:
        return ["%s (base %s, head %s)" % (path, json.dumps(a), json.dumps(b))]
    return []


def flatten(result):
    """A perfbench result line as {key: value}: its top-level scalars, and
    each metric under its own name."""
    out = {k: v for k, v in result.items() if k != "metrics"}
    out.update((name, m["value"]) for name, m in result.get("metrics", {}).items())
    return out


def reproduced(first, second):
    """The keys of two flattened runs of one tree that hold the same value in
    both, split into (simulated, host_memory) dicts."""
    same = {k: v for k, v in first.items()
            if k in second and type(v) is type(second[k]) and v == second[k]}
    sim = {k: v for k, v in same.items() if k not in HOST_MEMORY}
    host = {k: v for k, v in same.items() if k in HOST_MEMORY}
    return sim, host


# ---- trees and runs ------------------------------------------------------------


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "-j", "2",
                        "./bench/main.exe", "./bin/nezha_sim.exe"],
                       cwd=tree, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise RuntimeError("build failed in " + tree)


def produce(tree, name, scratch, side):
    exe, args, _ = OUTPUTS[name]
    out = os.path.join(scratch, "%s-%s.json" % (side, name))
    r = subprocess.run([os.path.join(tree, exe)] + args + [out], cwd=tree,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise RuntimeError("%s %s failed on %s: %s" % (exe, " ".join(args), side,
                                                       r.stderr.strip()[-500:]))
    with open(out) as f:
        return json.load(f)


def perfbench_run(tree, workload):
    r = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                        "--workload", workload] + PERFBENCH_ARGS,
                       cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError("perfbench %s failed in %s: %s"
                           % (workload, tree, r.stderr.strip()[-500:]))
    return flatten(json.loads(lines[-1]))


def perfbench_docs(trees):
    """side -> (simulated, host_memory) docs, each {workload: {key: value}}
    over the keys that side's two runs reproduce; the sides alternate so
    neither always runs on a warmer host."""
    runs = {side: {w: [] for w in PERFBENCH_WORKLOADS} for side in trees}
    for w in PERFBENCH_WORKLOADS:
        for _ in range(2):
            for side in trees:
                runs[side][w].append(perfbench_run(trees[side], w))
    docs = {}
    for side in trees:
        split = {w: reproduced(*runs[side][w]) for w in PERFBENCH_WORKLOADS}
        docs[side] = ({w: split[w][0] for w in split}, {w: split[w][1] for w in split})
    return docs


def identity(base_rev):
    root = git("rev-parse", "--show-toplevel")
    base_sha = git("rev-parse", "--short", base_rev + "^{commit}", cwd=root)
    scratch = tempfile.mkdtemp(prefix="nezha-identity-", dir=os.environ.get("TMPDIR", "/tmp"))
    base_tree = os.path.join(scratch, "base")
    verdicts = {}
    try:
        git("worktree", "add", "--detach", base_tree, base_sha, cwd=root)
        trees = {"base": base_tree, "head": root}
        for side in ("base", "head"):
            print("== building %s (%s)" % (side, trees[side]), file=sys.stderr, flush=True)
            build(trees[side])
        for name, (_, _, ignore) in OUTPUTS.items():
            print("== %s" % name, file=sys.stderr, flush=True)
            docs = {side: produce(trees[side], name, scratch, side) for side in trees}
            verdicts[name] = differences(docs["base"], docs["head"], ignore)
        print("== perfbench", file=sys.stderr, flush=True)
        docs = perfbench_docs(trees)
        verdicts["perfbench"] = differences(docs["base"][0], docs["head"][0], set())
        host_moves = differences(docs["base"][1], docs["head"][1], set())
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=root,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    for name, ds in verdicts.items():
        if not ds:
            print("%-9s identical" % name)
            continue
        print("%-9s differs at %d key path(s):" % (name, len(ds)))
        for d in ds:
            print("          " + d)
    for d in host_moves:
        print("host-memory key, not compared: " + d)
    return 0 if not any(verdicts.values()) else 1


# ---- selftest ------------------------------------------------------------------


def selftest():
    checks = []

    def check(name, cond):
        checks.append((name, cond))

    doc = {"meta": {"rev": "a"}, "x": {"b": [1, 2.5, {"c": "d"}], "a": 1}}
    same = json.loads(json.dumps(doc))
    check("equal documents are identical", differences(doc, same, set()) == [])
    moved = json.loads(json.dumps(doc))
    moved["meta"]["rev"] = "b"
    check("an ignored key may differ", differences(doc, moved, {"meta"}) == [])
    check("the same change outside the ignore set is reported",
          differences(doc, moved, set()) == ['$.meta.rev (base "a", head "b")'])
    deep = json.loads(json.dumps(doc))
    deep["x"]["b"][2]["c"] = "e"
    check("a nested change names its key path",
          differences(doc, deep, {"meta"}) == ['$.x.b[2].c (base "d", head "e")'])
    both = json.loads(json.dumps(deep))
    both["x"]["a"] = 2
    check("two separate changes are both reported, in sorted key order",
          differences(doc, both, {"meta"})
          == ["$.x.a (base 1, head 2)", '$.x.b[2].c (base "d", head "e")'])
    check("an int and an equal float differ",
          differences({"v": 1}, {"v": 1.0}, set()) == ["$.v (base 1, head 1.0)"])
    check("a missing key is reported",
          differences({"v": 1}, {"v": 1, "w": 2}, set()) == ["$.w (only in head)"])
    check("a longer array is reported",
          differences([1], [1, 2], set()) == ["$ (length 1 vs 2)"])
    check("ignored keys are skipped at any depth",
          differences({"a": {"peak_rss_bytes": 1}}, {"a": {"peak_rss_bytes": 2}},
                      {"peak_rss_bytes"}) == [])
    first = {"correct": True, "attempted": 10, "metrics": {
        "be.retx": {"value": 3, "unit": "count"},
        "fe.self_ns_per_pkt": {"value": 601.5, "unit": "ns/pkt"},
        "gc.minor_words_per_pkt": {"value": 353.4, "unit": "words/pkt"}}}
    second = json.loads(json.dumps(first))
    second["metrics"]["fe.self_ns_per_pkt"]["value"] = 598.2
    flat = flatten(first)
    check("a result flattens to its scalars and metric values",
          flat == {"correct": True, "attempted": 10, "be.retx": 3,
                   "fe.self_ns_per_pkt": 601.5, "gc.minor_words_per_pkt": 353.4})
    sim, host = reproduced(flat, flatten(second))
    check("a key the two runs disagree on is not compared",
          "fe.self_ns_per_pkt" not in sim and "fe.self_ns_per_pkt" not in host)
    check("reproduced simulated keys are compared",
          sim == {"correct": True, "attempted": 10, "be.retx": 3})
    check("a reproduced host-memory key is set apart",
          host == {"gc.minor_words_per_pkt": 353.4})
    retyped = flatten(second)
    retyped["be.retx"] = 3.0
    check("an int and an equal float do not reproduce",
          "be.retx" not in reproduced(flat, retyped)[0])
    check("a key reproduced on one side only is reported",
          differences({"w": sim}, {"w": {"correct": True, "attempted": 10}}, set())
          == ["$.w.be.retx (only in base)"])
    for name, ok in checks:
        print("selftest %-60s %s" % (name, "ok" if ok else "FAIL"))
    failed = [n for n, ok in checks if not ok]
    print("selftest ok" if not failed else "selftest FAILED: %d check(s)" % len(failed))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description="Bit-identity of simulation outputs.")
    ap.add_argument("--base", help="base revision (any git rev)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.base:
        ap.error("--base REV is required")
    # A SIGTERM unwinds through identity()'s cleanup like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return identity(args.base)
    except RuntimeError as e:
        print("identity.py: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
