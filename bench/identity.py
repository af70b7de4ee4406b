#!/usr/bin/env python3
"""One-step bit-identity proof: a base revision against the working tree.

Run from anywhere inside the repository:

    python3 bench/identity.py --base REV
    python3 bench/identity.py --selftest

The head side is the tree this script runs from, uncommitted edits
included.  The base side is REV, checked out with `git worktree add
--detach` under ${TMPDIR:-/tmp} and removed on exit, as bench/ab.py
does.  Both sides are built once (DUNE_CACHE=disabled), then each side
writes the same three simulation outputs:

    paper   bench/main.exe paper --json        compared outside `meta`
    macro   bench/main.exe macro --json        compared outside `meta`
                                               and `peak_rss_bytes`
    chaos   nezha_sim chaos --loss 0.005 --json

Every simulation in the repository is seeded, so a change that claims
to keep behaviour must leave all three identical.  Prints one line per
output, `identical` or every differing key path with both values, and
exits non-zero unless all three are identical.
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
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=root,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    for name, ds in verdicts.items():
        if not ds:
            print("%-6s identical" % name)
            continue
        print("%-6s differs at %d key path(s):" % (name, len(ds)))
        for d in ds:
            print("       " + d)
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
