#!/bin/sh
# CI-style gate: build, run the test suite, then regenerate the tracked
# BENCH_paper.json, BENCH_micro.json and BENCH_macro.json through the
# bench's machine-readable mode and make sure each is real JSON with the
# sections the schema promises.
#
#   bench/check.sh
#   bench/check.sh --smoke         quick mode: build + the A/B verdict
#                                  and bit-identity comparator
#                                  selftests + the perfbench selftest
#                                  + chaos input validation
#                                  + the SLO elastic
#                                  control-plane gate at reduced scale
#                                  (tier-1 time budget; same assertions
#                                  as the full macro SLO gate)
#
# The two host-time gates are same-host A/Bs (bench/ab.py) of this tree
# against a base revision: HEAD when tracked files differ from it, else
# HEAD~1 (the commit under test against its parent).
set -eu

cd "$(dirname "$0")/.."

# SLO elastic-control-plane gate (DESIGN.md §15), shared by the full
# macro run and the --smoke target.  Asserts: the offered load really
# ramped x10; the pool followed it up AND back down; P99 stayed within
# the hysteresis budget for most post-warmup ticks; no decision
# oscillations; and under the injected rack partition the Sec C.2
# suppression window froze the pool (zero moves) while visibly engaged.
#   $1 = json file   $2 = experiment key holding the "slo" object
#   $3 = min clean within-budget fraction   $4 = min chaos fraction
slo_gate() {
  python3 - "$1" "$2" "$3" "$4" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
slo = doc["experiments"][sys.argv[2]]["slo"]
min_clean, min_chaos = float(sys.argv[3]), float(sys.argv[4])
clean, chaos = slo["clean"], slo["chaos"]
assert clean["offered_ratio"] >= 9.9, \
    "offered load ramped %.2fx < 9.9x" % clean["offered_ratio"]
assert clean["pool_max"] >= 5 * clean["pool_min"], \
    "pool did not follow the ramp up: max %d < 5 x min %d" \
    % (clean["pool_max"], clean["pool_min"])
assert clean["pool_at_peak"] >= 3 * clean["pool_min"], \
    "pool at load peak %d < 3 x min %d" % (clean["pool_at_peak"], clean["pool_min"])
assert clean["pool_at_end"] <= clean["pool_min"] + 1, \
    "pool did not scale back in: end %d > min %d + 1" \
    % (clean["pool_at_end"], clean["pool_min"])
assert clean["scale_outs"] > 0 and clean["scale_ins"] > 0, \
    "loop inert: %d scale-outs, %d scale-ins" \
    % (clean["scale_outs"], clean["scale_ins"])
assert clean["within_budget_fraction"] >= min_clean, \
    "P99 within budget only %.1f%% of ticks (gate >= %.0f%%)" \
    % (100 * clean["within_budget_fraction"], 100 * min_clean)
assert clean["oscillations"] == 0, \
    "%d decision oscillation(s) in the clean ramp" % clean["oscillations"]
assert chaos["pool_moves_in_partition"] == 0, \
    "pool flapped under the rack partition: %d move(s) inside the window" \
    % chaos["pool_moves_in_partition"]
assert chaos["oscillations"] == 0, \
    "%d decision oscillation(s) in the chaos run" % chaos["oscillations"]
assert chaos["suppressed_ticks"] > 0 and chaos["partition_suspects_max"] > 0, \
    "suppression never engaged: %d suppressed ticks, %d max suspects" \
    % (chaos["suppressed_ticks"], chaos["partition_suspects_max"])
assert chaos["within_budget_fraction"] >= min_chaos, \
    "chaos P99 within budget only %.1f%% of ticks (gate >= %.0f%%)" \
    % (100 * chaos["within_budget_fraction"], 100 * min_chaos)
assert slo["deterministic"] is True, \
    "same-seed SLO rerun diverged: digest %d vs rerun %d" \
    % (clean["digest"], slo["rerun_digest"])
print("ok: ramp x%.1f, pool %d..%d (peak %d, back to %d); within budget "
      "%.1f%% clean / %.1f%% chaos; oscillations 0; partition froze the pool "
      "(%d suppressed ticks, %d suspects)"
      % (clean["offered_ratio"], clean["pool_min"], clean["pool_max"],
         clean["pool_at_peak"], clean["pool_at_end"],
         100 * clean["within_budget_fraction"],
         100 * chaos["within_budget_fraction"],
         chaos["suppressed_ticks"], chaos["partition_suspects_max"]))
PY
}

if [ "${1:-}" = "--smoke" ]; then
  echo "== dune build"
  dune build
  echo "== A/B verdict selftest"
  python3 bench/ab.py --selftest
  echo "== bit-identity comparator selftest"
  python3 bench/identity.py --selftest
  echo "== perfbench selftest (traced = untraced, conservation, generator cross-check)"
  python3 perfbench/run.py --selftest
  echo "== chaos rejects an out-of-range --loss before simulating"
  if dune exec --no-build bin/nezha_sim.exe -- chaos --loss 1.5 >/dev/null 2>&1; then
    echo "nezha_sim chaos accepted --loss 1.5"
    exit 1
  fi
  smoke_out=/tmp/nezha_slo_smoke.json
  echo "== bench slo_smoke --json ($smoke_out)"
  dune exec --no-build bench/main.exe -- slo_smoke --json "$smoke_out"
  echo "== SLO elastic control-plane gate (reduced scale)"
  if command -v python3 >/dev/null 2>&1; then
    slo_gate "$smoke_out" slo_smoke 0.75 0.60
  else
    echo "python3 not found; relying on the bench's built-in round-trip check"
  fi
  echo "== smoke checks passed"
  exit 0
fi

# Decided before any step below rewrites the tracked BENCH_*.json files.
rev=$(git rev-parse --short HEAD)
if git diff --quiet HEAD --; then base=HEAD~1; else base=HEAD; rev="$rev-dirty"; fi

# Stamps a BENCH file with the meta block bench/ab.py prints: the
# revision measured, the OCaml version and the CPUs the run could use.
# The block goes in as text after the schema line, so the bench's own
# number formatting stays as written.
stamp_meta() {
  python3 - "$1" "$rev" "$(ocaml -version)" <<'PY'
import json, os, sys
path, rev, ocaml = sys.argv[1:4]
meta = {"rev": rev, "ocaml": ocaml, "nproc": len(os.sched_getaffinity(0))}
text = open(path).read()
head = '{\n  "schema": "nezha-bench/1",\n'
assert text.startswith(head), "%s does not start with the bench schema line" % path
block = json.dumps(meta, indent=2).replace("\n", "\n  ")
with open(path, "w") as f:
    f.write(head + '  "meta": ' + block + ",\n" + text[len(head):])
print("stamped %s: %s" % (path, json.dumps(meta)))
PY
}

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== bench paper --json (BENCH_paper.json)"
dune exec --no-build bench/main.exe -- paper --json BENCH_paper.json
stamp_meta BENCH_paper.json

echo "== validating BENCH_paper.json"
# The bench already re-parses its own output with the in-tree JSON
# parser before it exits (and fails loudly if that round-trip breaks);
# cross-check with an independent parser when one is around.
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_paper.json "$(dune exec --no-build bench/main.exe -- --list paper)" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "nezha-bench/1", doc.get("schema")
paper = sys.argv[2].split()
missing = [name for name in paper if name not in doc["experiments"]]
assert paper and not missing, "paper entries without a section: %s" % missing
fig9 = doc["experiments"]["fig9"]
assert len(fig9["gains"]) >= 1, \
    "expected >= 1 gain row, got %d" % len(fig9["gains"])
for side in ("without", "with"):
    s = fig9["latency_us"][side]
    for k in ("count", "p50", "p99", "p9999"):
        assert k in s, \
            "latency_us[%s] missing %r (has %s)" % (side, k, sorted(s))
# Every histogram summary answers ranks in order, and the P9999 rank
# of fewer than 10,000 samples is the largest one, which the histogram
# keeps exactly (at 10,000 it is the second largest).
def summaries(x, path):
    if isinstance(x, dict):
        if all(k in x for k in ("count", "p50", "p99", "p9999", "max")):
            yield path, x
        for k, v in x.items():
            yield from summaries(v, path + "." + k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from summaries(v, "%s[%d]" % (path, i))
hists = list(summaries(doc["experiments"], ""))
assert hists, "no histogram summaries found"
for path, s in hists:
    assert s["p50"] <= s["p99"] <= s["p9999"] <= s["max"], \
        "%s: p50 %r, p99 %r, p9999 %r, max %r out of order" \
        % (path, s["p50"], s["p99"], s["p9999"], s["max"])
    if s["count"] < 10000:
        assert s["p9999"] == s["max"], \
            "%s: p9999 %r != max %r with %d samples" \
            % (path, s["p9999"], s["max"], s["count"])
print("ok: %d paper sections;" % len(paper), len(fig9["gains"]),
      "fig9 gain rows; latency summaries present;", len(hists),
      "histogram summaries ordered")
PY
else
  echo "python3 not found; relying on the bench's built-in round-trip check"
fi

echo "== bench micro --json (BENCH_micro.json)"
dune exec --no-build bench/main.exe -- micro --json BENCH_micro.json
stamp_meta BENCH_micro.json

echo "== validating BENCH_micro.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_micro.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "nezha-bench/1", doc.get("schema")
micro = doc["experiments"]["micro"]
ns = micro["ns_per_op"]
for k in ("acl_linear_1k", "acl_tss_1k", "acl_cached_1k", "five_tuple_hash",
          "lpm_lookup_1k", "flow_table_insert", "flow_table_find",
          "flow_table_find_20k", "sim_event_64", "sim_event_4096"):
    assert k in ns and ns[k] == ns[k] and ns[k] > 0.0, \
        "%s not a positive ns/op: %r" % (k, ns.get(k))  # present, not NaN
# The whole point of the classifier backends: TSS and the megaflow
# cache must beat the linear scan at 1k rules.
assert ns["acl_tss_1k"] < ns["acl_linear_1k"], (ns["acl_tss_1k"], ns["acl_linear_1k"])
assert ns["acl_cached_1k"] < ns["acl_linear_1k"], (ns["acl_cached_1k"], ns["acl_linear_1k"])
print("ok: micro ns/op sane; tss %.1fx and cached %.1fx faster than linear"
      % (ns["acl_linear_1k"] / ns["acl_tss_1k"], ns["acl_linear_1k"] / ns["acl_cached_1k"]))
PY
else
  echo "python3 not found; relying on the bench's built-in round-trip check"
fi

echo "== learned classifier gate (learned must beat tss at >= 10k rules, memory reported)"
# The learned backend's claim (DESIGN.md §14): at 10k+ rules the
# range-model index answers in a bounded error window while TSS pays
# one hash probe per tuple shape, so learned must be strictly faster at
# 10k and 100k, and every backend x scale cell must report its index
# memory footprint.
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_micro.json <<'PY'
import json, sys
micro = json.load(open(sys.argv[1]))["experiments"]["micro"]
ns, mem = micro["ns_per_op"], micro["memory_bytes"]
scales = micro["acl_rule_scales"]
assert scales == [1000, 10000, 100000], scales
for backend in ("linear", "tss", "learned"):
    for scale in ("1k", "10k", "100k"):
        k = "acl_%s_%s" % (backend, scale)
        assert k in ns and ns[k] == ns[k] and ns[k] > 0.0, \
            "%s not a positive ns/op: %r" % (k, ns.get(k))
        assert k in mem and mem[k] > 0, \
            "%s not a positive memory_bytes: %r" % (k, mem.get(k))
for scale in ("10k", "100k"):
    t, l = ns["acl_tss_" + scale], ns["acl_learned_" + scale]
    assert l < t, "learned lost to tss at %s: %.1f >= %.1f ns" % (scale, l, t)
    print("  %-5s learned %7.1f ns vs tss %7.1f ns (%.2fx), index %.1f vs %.1f MB"
          % (scale, l, t, t / l,
             mem["acl_learned_" + scale] / 1e6, mem["acl_tss_" + scale] / 1e6))
print("ok: learned beats tss at 10k and 100k; memory_bytes present for all 9 cells")
PY
else
  echo "python3 not found; skipping learned classifier gate"
fi

echo "== batch sweep gate (flow-key grouping must win ns/packet at batch >= 32)"
# The batched dataplane's claim: grouping a burst by flow key amortizes
# the per-flow resolution, so ns/packet at batch 32 must beat batch-of-1
# (geometric mean across the grouped kernels).
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_micro.json <<'PY'
import json, math, sys
sweep = json.load(open(sys.argv[1]))["experiments"]["micro"]["batch_sweep"]
assert set(sweep) == {"cached", "tss", "flow_table"}, sorted(sweep)
ratios = []
for path, pts in sorted(sweep.items()):
    for n in ("1", "8", "32", "128"):
        assert n in pts and pts[n] == pts[n] and pts[n] > 0.0, \
            "%s batch %s not a positive ns/packet: %r" % (path, n, pts.get(n))
    r = pts["1"] / pts["32"]
    print("  %-12s batch1 %7.1f -> batch32 %7.1f ns/packet (%.2fx)" % (path, pts["1"], pts["32"], r))
    ratios.append(r)
geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
assert geomean > 1.0, "batching lost its amortization win: geomean %.3fx" % geomean
print("ok: geomean %.2fx ns/packet win at batch 32 (gate: > 1.0x)" % geomean)
PY
else
  echo "python3 not found; skipping batch sweep gate"
fi

echo "== trace overhead gate: micro A/B against $base (score <= 1.03x)"
# The tracer is off by default and claims to be zero-cost when disabled:
# the head's micro kernels, scored as the geomean of ns/op over the base
# runs' medians, may be at most 3% slower than the base's.  A base spread
# wider than 3% reads unresolved and fails the gate.
python3 bench/ab.py --base "$base" --workloads micro

echo "== bench macro --json (BENCH_macro.json)"
dune exec --no-build bench/main.exe -- macro --json BENCH_macro.json
stamp_meta BENCH_macro.json

echo "== macro gate (region scale + digests + RSS ceiling)"
# The region-scale run's claims: the run is deterministic and
# shard-count-invariant; Nezha resolves overloads in simulated time; and
# the whole run fits in a bounded heap.  The ceiling sits well under the
# ~190 MB a session table per idle vNIC and a timer node per wheel
# firing used to cost, so a change that brings either back fails here.
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_macro.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "nezha-bench/1", doc.get("schema")
macro = doc["experiments"]["macro"]
region = macro["region"]
before, after = region["before"], region["after"]
assert before["servers"] >= 2000, \
    "region too small: %d servers < 2000" % before["servers"]
assert before["events"] >= 1_000_000, \
    "region too quiet: %d events < 1e6" % before["events"]
assert after["overloads"] < before["overloads"], \
    "controller did not reduce overloads: before %d, after %d" \
    % (before["overloads"], after["overloads"])
assert after["activations"] > 0, \
    "controller never activated an offload: %d activations" % after["activations"]
assert macro["deterministic"] is True, \
    "same-seed rerun diverged: sweep digest vs region digest %d" % after["digest"]
assert macro["shard_equivalent"] is True, \
    "digest depends on shard count: %s" \
    % {p["shards"]: p["digest"] for p in macro["sweep"]}
rss = macro["peak_rss_bytes"]
assert rss <= 160 << 20, "peak heap %d bytes > 160 MB ceiling" % rss
print("ok: %d servers, %d events; overloads %d -> %d (%.1f%% resolved); "
      "peak heap %.0f MB (gate <= 160 MB)"
      % (before["servers"], before["events"], before["overloads"],
         after["overloads"], region["resolved_pct"], rss / 1048576))
PY
else
  echo "python3 not found; relying on the bench's built-in round-trip check"
fi

echo "== region engine gate: region_day A/B against $base (BENCHMARK.json bounds)"
# Region host time is perfbench's region_day workload.  No end-to-end
# metric may worsen by more than its BENCHMARK.json bound, and a base
# spread wider than a bound reads unresolved and fails the gate.
python3 bench/ab.py --base "$base" --workloads region_day

echo "== crash-storm gate (MTTR P99 bound, zero post-convergence blackholes, pool conservation)"
# DESIGN.md §13: a region-scale crash storm (plus one controller
# failover) must converge — P99 crash->intent-restored under 2 s, zero
# blackholed demand after the convergence deadline, byte-identical
# same-seed reruns — and 100 crash/restart cycles on the small testbed
# must leak nothing: controller and BE conservation invariants hold and
# every Pbatch arena batch allocated during the storm is recycled.
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_macro.json <<'PY'
import json, sys
macro = json.load(open(sys.argv[1]))["experiments"]["macro"]
storm = macro["storm"]["storm"]
assert storm["crashes"] > 20, "storm too small: %d crashes" % storm["crashes"]
assert storm["restarts"] == storm["crashes"], \
    "restart/crash mismatch: %d restarts vs %d crashes" \
    % (storm["restarts"], storm["crashes"])
assert storm["ctl_takeovers"] == 1, \
    "expected exactly 1 controller takeover, got %d" % storm["ctl_takeovers"]
assert storm["mttr_p99_s"] > 0.0 and storm["mttr_p99_s"] <= 2.0, \
    "MTTR P99 %.3f s out of (0, 2]" % storm["mttr_p99_s"]
assert storm["late_blackholed"] == 0, \
    "%d blackholed ticks after convergence" % storm["late_blackholed"]
assert macro["storm"]["deterministic"] is True, \
    "same-seed storm rerun diverged: digest %d vs rerun %d" \
    % (macro["storm"]["storm"]["digest"], macro["storm"]["rerun_digest"])
cc = macro["crash_cycles"]
assert cc["cycles"] >= 100, "expected >= 100 cycles, got %d" % cc["cycles"]
assert cc["crashes"] >= 100 and cc["restarts"] == cc["crashes"], \
    "cycle crash/restart mismatch: %d crashes vs %d restarts" \
    % (cc["crashes"], cc["restarts"])
assert cc["conservation_ok"] is True, \
    "controller conservation invariant broken (conservation_ok=%r)" % cc["conservation_ok"]
assert cc["be_conservation_ok"] is True, \
    "BE tracked-send conservation broken (be_conservation_ok=%r)" % cc["be_conservation_ok"]
assert cc["batches_leaked"] == 0, "%d Pbatch arena batches leaked" % cc["batches_leaked"]
assert cc["final_cps"] > 0.0, "no traffic after the storm"
print("ok: %d crashes, MTTR P50 %.3fs P99 %.3fs (gate <= 2s), late blackholes 0, "
      "takeovers 1; %d cycles conserve pools (leaked 0), final cps %.0f"
      % (storm["crashes"], storm["mttr_p50_s"], storm["mttr_p99_s"],
         cc["cycles"], cc["final_cps"]))
PY
else
  echo "python3 not found; relying on the bench's built-in checks"
fi

echo "== SLO elastic control-plane gate (P99 budget held across a x10 ramp, no flapping under partition)"
if command -v python3 >/dev/null 2>&1; then
  slo_gate BENCH_macro.json macro 0.90 0.80
else
  echo "python3 not found; relying on the bench's built-in round-trip check"
fi

echo "== chaos smoke (0.5% underlay loss + crash + partition)"
# --check exits non-zero unless the run recovered (end-window loss <= 1%)
# and the BE tracker conservation invariant held, so this gate works even
# without python3.
chaos_out=/tmp/nezha_chaos_check.json
dune exec --no-build bin/nezha_sim.exe -- chaos --loss 0.005 --check --json "$chaos_out"

echo "== validating $chaos_out"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$chaos_out" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "nezha-chaos/1", doc.get("schema")
assert doc["recovered"] is True, \
    "chaos run did not recover: end_loss %.4f" % doc["end_loss"]
assert doc["conservation_ok"] is True, \
    "BE conservation broken (conservation_ok=%r)" % doc["conservation_ok"]
assert doc["tracked"] == (doc["acked"] + doc["local_fallbacks"]
                          + doc["dropped"] + doc["outstanding_end"]), \
    "tracked %d != acked %d + fallbacks %d + dropped %d + outstanding %d" \
    % (doc["tracked"], doc["acked"], doc["local_fallbacks"],
       doc["dropped"], doc["outstanding_end"])
assert doc["injected_drops"] > 0 and doc["partition_drops"] > 0, \
    "chaos injected nothing: %d loss drops, %d partition drops" \
    % (doc["injected_drops"], doc["partition_drops"])
assert len(doc["samples"]) > 40, \
    "expected > 40 samples, got %d" % len(doc["samples"])
print("ok: recovered (end loss %.4f), conservation holds over %d tracked sends"
      % (doc["end_loss"], doc["tracked"]))
PY
else
  echo "python3 not found; relying on the CLI's --check gate"
fi

echo "== all checks passed"
