#!/usr/bin/env bash
# Scenario smoke: executes every bundled scenario file through mpiv_run in
# quick mode and fails on parse/validation errors, crashes, or malformed
# JSON output. CI's scenario-smoke job runs this; it is also the fastest
# way to sanity-check the whole scenario surface locally.
#
# Usage: scripts/run_scenarios.sh [--build-dir DIR] [--out-dir DIR] [--full]
#                                 [--jobs N]
#   --build-dir  build tree containing mpiv_run (default: build)
#   --out-dir    where the per-scenario JSON reports land (default: temp dir)
#   --full       run without --quick (the real paper sweeps; slow)
#   --jobs       fan sweep points across N forked workers (default: 1);
#                reports are byte-identical either way — the equivalence
#                leg at the end pins that on every run
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT_DIR=""
QUICK=1
JOBS=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift ;;
    --out-dir) OUT_DIR=$2; shift ;;
    --full) QUICK=0 ;;
    --jobs) JOBS=$2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -x "$BUILD_DIR/mpiv_run" || ! -x "$BUILD_DIR/mpiv_trace" ||
      ! -x "$BUILD_DIR/mpiv_stat" ]]; then
  echo "error: $BUILD_DIR/mpiv_run, mpiv_trace or mpiv_stat not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j --target mpiv_run mpiv_trace mpiv_stat" >&2
  exit 1
fi

if [[ -z $OUT_DIR ]]; then
  OUT_DIR=$(mktemp -d)
  trap 'rm -rf "$OUT_DIR"' EXIT
fi
mkdir -p "$OUT_DIR"

# ${FLAGS[@]+...} keeps the empty-array expansion safe under set -u on
# bash < 4.4 (macOS stock 3.2).
FLAGS=(--jobs "$JOBS")
[[ $QUICK -eq 1 ]] && FLAGS+=(--quick)

# mpiv_run exits 0 on a clean grid and 3 on a degraded one (abandoned or
# failed points — chaos_soak abandons some corners by design). Both leave a
# complete, valid report; anything else is a crash.
run_ok() {
  local rc=0
  "$@" || rc=$?
  [[ $rc -eq 0 || $rc -eq 3 ]]
}

# JSON validation: python3 where available, otherwise the driver's own
# exit status plus a non-emptiness check.
validate_json() {
  if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$1" > /dev/null
  else
    [[ -s "$1" ]]
  fi
}

fail=0
for scn in scenarios/*.scn; do
  name=$(basename "$scn" .scn)
  out="$OUT_DIR/$name.json"
  start=$(date +%s%N)
  if run_ok "$BUILD_DIR/mpiv_run" ${FLAGS[@]+"${FLAGS[@]}"} --out "$out" "$scn" 2> "$OUT_DIR/$name.log"; then
    if validate_json "$out"; then
      status=ok
    else
      status=bad-json
      fail=1
    fi
  else
    status=error
    fail=1
  fi
  end=$(date +%s%N)
  printf '%-28s %8d ms  %s\n' "$name" $(( (end - start) / 1000000 )) "$status"
  if [[ $status != ok ]]; then
    sed 's/^/  | /' "$OUT_DIR/$name.log" >&2 || true
  fi
done

if [[ $fail -ne 0 ]]; then
  echo "scenario smoke FAILED" >&2
  exit 1
fi

# Table smoke: every report a paper view reads must render through
# `mpiv_stat --table` — the figure tables are now those views, so this runs
# the renderers on real reports. Reports no view reads are skipped; Fig. 1
# renders from the two-set report of its coordinated + logging arms.
F1_JSON="$OUT_DIR/fig1.json"
if ! run_ok "$BUILD_DIR/mpiv_run" ${FLAGS[@]+"${FLAGS[@]}"} --out "$F1_JSON" \
    scenarios/fig1_coordinated.scn scenarios/fig1_logging.scn 2> "$OUT_DIR/fig1.log"; then
  echo "table smoke FAILED: mpiv_run on the two fig1 scenarios crashed" >&2
  sed 's/^/  | /' "$OUT_DIR/fig1.log" >&2
  exit 1
fi
tables=0
for report in "$OUT_DIR"/*.json; do
  name=$(basename "$report" .json)
  if "$BUILD_DIR/mpiv_stat" --table "$report" > "$OUT_DIR/$name.table.txt" \
      2> "$OUT_DIR/$name.table.log"; then
    tables=$((tables + 1))
  elif ! grep -q "no table view" "$OUT_DIR/$name.table.log"; then
    echo "table smoke FAILED: mpiv_stat --table $name.json" >&2
    sed 's/^/  | /' "$OUT_DIR/$name.table.log" >&2
    exit 1
  fi
done
if [[ ! -s "$OUT_DIR/fig1.table.txt" ]]; then
  echo "table smoke FAILED: the two-set fig1 report rendered no table" >&2
  exit 1
fi
echo "table smoke OK ($tables reports rendered through mpiv_stat --table)"

# Fault-campaign smoke: the EL-shard-crash scenario must have actually
# exercised the failover machinery — the report needs a failover, a complete
# per-phase recovery timeline, and an exact recovery against the fault-free
# reference. (The quick loop above already ran it; this checks the content.)
FC_JSON="$OUT_DIR/fault_campaign.json"
if [[ -f "$FC_JSON" ]]; then
  for marker in '"el_failovers": 1' '"detect_ms"' '"recovered_exact": true' '"complete": true'; do
    if ! grep -q "$marker" "$FC_JSON"; then
      echo "fault-campaign smoke FAILED: missing $marker in $FC_JSON" >&2
      exit 1
    fi
  done
  echo "fault-campaign smoke OK (failover + recovery timeline present)"
else
  echo "fault-campaign smoke FAILED: $FC_JSON missing" >&2
  exit 1
fi

# Trace smoke: mpiv_trace re-runs the shard-failover campaign with trace
# lanes and the reference twin on; it must localize the injected crash to
# rank 2 and find the post-recovery stream replay-equivalent (exit 0).
TRACE_OUT="$OUT_DIR/fault_campaign.trace.txt"
if "$BUILD_DIR/mpiv_trace" --quick scenarios/fault_campaign.scn \
    > "$TRACE_OUT" 2> "$OUT_DIR/fault_campaign.trace.log"; then
  for marker in 'victim: rank 2' 'replay-equivalent: yes'; do
    if ! grep -q "$marker" "$TRACE_OUT"; then
      echo "trace smoke FAILED: missing '$marker' in mpiv_trace output" >&2
      sed 's/^/  | /' "$TRACE_OUT" >&2
      exit 1
    fi
  done
  echo "trace smoke OK (victim localized, replay-equivalent)"
else
  echo "trace smoke FAILED: mpiv_trace exited $? on fault_campaign.scn" >&2
  sed 's/^/  | /' "$OUT_DIR/fault_campaign.trace.log" >&2
  exit 1
fi

# Chaos-soak aggregation: fold the per-point outcomes into a completion-
# probability table (rows = fault-rate pairs, columns = el_shards) and
# assert the two soak invariants: the outcome tally covers the whole sweep,
# and completion probability is non-decreasing in el_shards at fixed rates
# — the redundancy-buys-completion result the scenario exists to measure.
CS_JSON="$OUT_DIR/chaos_soak.json"
if [[ -f "$CS_JSON" ]]; then
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$CS_JSON" <<'EOF'
import collections, json, sys

rep = json.load(open(sys.argv[1]))
runs = rep["runs"]
tally = rep["outcomes"]
if tally["total"] != len(runs):
    sys.exit(f"chaos-soak FAILED: outcome tally {tally['total']} != {len(runs)} runs")

grid = collections.defaultdict(lambda: [0, 0])  # (rates, shards) -> [ok, n]
shards = set()
for r in runs:
    if r["outcome"] == "skipped":
        continue  # infeasible sweep corner: not a completion failure
    ax = r["axes"]
    key = (ax["faults.rank_rate"], ax["faults.daemon_rate"])
    sh = int(ax["el_shards"])
    shards.add(sh)
    grid[(key, sh)][1] += 1
    if r["outcome"] in ("completed", "recovered_exact"):
        grid[(key, sh)][0] += 1

cols = sorted(shards)
print("chaos-soak completion probability (completed or recovered_exact):")
print(f"  {'rank/min':>9} {'daemon/min':>11}" + "".join(f"  el_shards={s}" for s in cols))
failed = False
for key in sorted({k for (k, _) in grid}):
    # Cells with no (non-skipped) runs carry no signal: print a dash and
    # exclude them from the monotonicity check.
    row = []
    for s in cols:
        ok, n = grid[(key, s)]
        row.append(ok / n if n else None)
    cells = "".join(f"  {p:>11.2f}" if p is not None else f"  {'-':>11}"
                    for p in row)
    print(f"  {key[0]:>9} {key[1]:>11}{cells}")
    seen = [p for p in row if p is not None]
    if any(seen[i] > seen[i + 1] + 1e-9 for i in range(len(seen) - 1)):
        failed = True
        print(f"    ^ NOT non-decreasing in el_shards")
if failed:
    sys.exit("chaos-soak FAILED: completion probability decreased with redundancy")
print(f"chaos-soak OK ({tally['recovered_exact']} recovered_exact, "
      f"{tally['completed']} completed, {tally['abandoned']} abandoned "
      f"of {tally['total']})")
EOF
  else
    echo "chaos-soak aggregation skipped (no python3)"
  fi
else
  echo "chaos-soak FAILED: $CS_JSON missing" >&2
  exit 1
fi

# Split-brain reconciliation: every non-skipped sweep point must have cut a
# service group, suspected the stale shard, and healed back to ONE merged
# log — a complete reconcile record, no duplicate determinants surviving the
# merge (dup_dropped accounts for every resubmitted record the stale shard
# also stored), and recovered_exact wherever the reference twin ran.
SB_JSON="$OUT_DIR/split_brain.json"
if [[ -f "$SB_JSON" ]]; then
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$SB_JSON" <<'EOF'
import json, sys

rep = json.load(open(sys.argv[1]))
checked = dup_total = 0
for r in rep["runs"]:
    if r.get("skipped") or r["outcome"] == "skipped":
        continue
    checked += 1
    label = r["label"]
    fc = r["faults"]
    if fc["partitions"] < 1 or fc["el_suspects"] < 1 or fc["el_reconciles"] < 1:
        sys.exit(f"split-brain FAILED: {label}: no service cut/suspect/reconcile "
                 f"({fc['partitions']}/{fc['el_suspects']}/{fc['el_reconciles']})")
    recs = r.get("el_reconciles", [])
    if len(recs) != fc["el_reconciles"]:
        sys.exit(f"split-brain FAILED: {label}: {len(recs)} reconcile records "
                 f"for {fc['el_reconciles']} reconciles")
    resub = sum(s["el_dup_submissions"] for s in r.get("rank_stats", []))
    for rec in recs:
        if not rec["complete"]:
            sys.exit(f"split-brain FAILED: {label}: reconcile left incomplete")
        # Every heal-time drop is a record the split double-logged: the
        # successor can only drop what clients resubmitted to it.
        if rec["dup_dropped"] > resub:
            sys.exit(f"split-brain FAILED: {label}: dropped {rec['dup_dropped']} "
                     f"duplicates but only {resub} resubmissions were made")
        dup_total += rec["dup_dropped"]
    ref = r.get("reference")
    if ref is not None and not ref.get("recovered_exact", False):
        sys.exit(f"split-brain FAILED: {label}: not recovered_exact after merge")
if checked == 0:
    sys.exit("split-brain FAILED: every sweep point was skipped")
print(f"split-brain OK ({checked} points reconciled, "
      f"{dup_total} duplicate determinants dropped at heal)")
EOF
  else
    echo "split-brain aggregation skipped (no python3)"
  fi
else
  echo "split-brain FAILED: $SB_JSON missing" >&2
  exit 1
fi

# Split-brain trace smoke: mpiv_trace must name the first duplicated
# submission the merge dropped (creator rank + sequence number) and find the
# healed run replay-equivalent to its fault-free twin.
SB_TRACE="$OUT_DIR/split_brain.trace.txt"
if "$BUILD_DIR/mpiv_trace" --quick scenarios/split_brain.scn \
    > "$SB_TRACE" 2> "$OUT_DIR/split_brain.trace.log"; then
  for marker in 'first reconciled duplicate' 'replay-equivalent: yes'; do
    if ! grep -q "$marker" "$SB_TRACE"; then
      echo "split-brain trace FAILED: missing '$marker' in mpiv_trace output" >&2
      sed 's/^/  | /' "$SB_TRACE" >&2
      exit 1
    fi
  done
  echo "split-brain trace OK (first duplicate localized, replay-equivalent)"
else
  echo "split-brain trace FAILED: mpiv_trace exited $? on split_brain.scn" >&2
  sed 's/^/  | /' "$OUT_DIR/split_brain.trace.log" >&2
  exit 1
fi

# Family race: the five recovery-protocol families through one Poisson
# crash lineup. Per-point invariants: every non-skipped point classifies;
# replica points are crash-transparent (a complete promotion per crash and
# NO restart/replay recovery records); ulfm points carry a complete repair
# record per crash with the survivor count shrinking by exactly one each
# time. Then fold the grid into the per-family completion-probability /
# recovery-time table; a --full run re-emits it into docs/BENCHMARKS.md
# between the family-race markers (quick grids only print it).
FR_JSON="$OUT_DIR/family_race.json"
if [[ -f "$FR_JSON" ]]; then
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$FR_JSON" "$QUICK" <<'EOF'
import collections, json, sys

rep = json.load(open(sys.argv[1]))
full = sys.argv[2] == "0"
NRANKS = 8  # [scenario] nranks in scenarios/family_race.scn

fams = {}  # variant -> aggregate, in sweep order
for r in rep["runs"]:
    if r.get("skipped") or r["outcome"] == "skipped":
        continue
    label = r["label"]
    out = r["outcome"]
    if out not in ("completed", "recovered_exact", "completed_shrunk",
                   "abandoned"):
        sys.exit(f"family-race FAILED: {label}: unclassified outcome '{out}'")
    variant = dict(r["axes"])["variant"]
    crashes = r["faults"]["rank_crashes"]
    recs = r.get("recoveries") or []
    repairs = r.get("repairs") or []
    proms = r.get("promotions") or []
    if variant == "replica":
        # Crash-transparent: the shadow takes over — any restart/replay
        # record means the hybrid fell back to logging machinery.
        if recs:
            sys.exit(f"family-race FAILED: {label}: replica recorded "
                     f"{len(recs)} restart/replay recoveries")
        if len(proms) != crashes:
            sys.exit(f"family-race FAILED: {label}: {crashes} crashes but "
                     f"{len(proms)} promotions")
        if out != "abandoned" and not all(p["complete"] for p in proms):
            sys.exit(f"family-race FAILED: {label}: incomplete promotion")
        times = [p["promote_ms"] for p in proms if p["complete"]]
    elif variant == "ulfm":
        if recs:
            sys.exit(f"family-race FAILED: {label}: ulfm recorded "
                     f"{len(recs)} restart/replay recoveries")
        if len(repairs) != crashes:
            sys.exit(f"family-race FAILED: {label}: {crashes} crashes but "
                     f"{len(repairs)} repair records")
        for i, rec in enumerate(repairs):
            if rec["survivors"] != NRANKS - 1 - i:
                sys.exit(f"family-race FAILED: {label}: repair {i} left "
                         f"{rec['survivors']} survivors, expected "
                         f"{NRANKS - 1 - i}")
            if out != "abandoned" and not rec["complete"]:
                sys.exit(f"family-race FAILED: {label}: repair of rank "
                         f"{rec['victim']} never closed")
        times = [rec["total_ms"] for rec in repairs if rec["complete"]]
    else:
        # Logging / coordinated: executed crashes must leave recovery records
        # (coordinated rolls back every rank, so there can be more than one
        # record per crash).
        if crashes and not recs and out != "abandoned":
            sys.exit(f"family-race FAILED: {label}: {crashes} crashes but "
                     f"no recovery records")
        times = [rec["total_ms"] for rec in recs if rec["complete"]]
    f = fams.setdefault(variant, {"n": 0, "done": 0, "crashes": 0,
                                  "times": []})
    f["n"] += 1
    f["crashes"] += crashes
    if out != "abandoned":
        f["done"] += 1
    f["times"] += times

if not fams:
    sys.exit("family-race FAILED: every sweep point was skipped")

rows = []
for variant, f in fams.items():
    mean = (f"{sum(f['times']) / len(f['times']):.2f}" if f["times"]
            else "—")
    rows.append((variant, f["n"], f["crashes"],
                 f"{f['done'] / f['n']:.2f}", mean))

print("family-race per-family results (completion probability, mean "
      "per-crash recovery/promotion/repair time):")
hdr = f"  {'family':<14} {'points':>6} {'crashes':>8} {'P(complete)':>12} {'mean rec (ms)':>14}"
print(hdr)
for v, n, c, p, m in rows:
    print(f"  {v:<14} {n:>6} {c:>8} {p:>12} {m:>14}")
print(f"family-race OK ({sum(f['n'] for f in fams.values())} points, "
      f"{len(fams)} families, every point classified)")

if full:
    path = "docs/BENCHMARKS.md"
    begin, end = "<!-- family-race:begin -->", "<!-- family-race:end -->"
    try:
        text = open(path).read()
    except OSError:
        sys.exit(0)
    if begin in text and end in text:
        table = ["| family | points | crashes | completion probability | mean recovery (ms) |",
                 "|---|---|---|---|---|"]
        table += [f"| `{v}` | {n} | {c} | {p} | {m} |" for v, n, c, p, m in rows]
        head, rest = text.split(begin, 1)
        _, tail = rest.split(end, 1)
        open(path, "w").write(head + begin + "\n" + "\n".join(table) + "\n"
                              + end + tail)
        print(f"family-race table re-emitted into {path}")
EOF
  else
    echo "family-race aggregation skipped (no python3)"
  fi
else
  echo "family-race FAILED: $FR_JSON missing" >&2
  exit 1
fi

# Metrics smoke: the scale probe ran with metrics.enabled in the loop
# above, so its report must carry the metrics object and the EL-ack tail
# percentiles. Then the determinism contract: a second identical-seed run
# diffed against the first through mpiv_stat must show zero drift (exit 0)
# — the simulator is deterministic, so any drift is a real change.
SP_JSON="$OUT_DIR/scale_probe.json"
if [[ ! -f "$SP_JSON" ]]; then
  echo "metrics smoke FAILED: $SP_JSON missing" >&2
  exit 1
fi
for marker in '"metrics":' '"p99_ack_us":' '"histograms":' '"series":'; do
  if ! grep -q "$marker" "$SP_JSON"; then
    echo "metrics smoke FAILED: missing $marker in $SP_JSON" >&2
    exit 1
  fi
done
SP_JSON2="$OUT_DIR/scale_probe.rerun.json"
if ! run_ok "$BUILD_DIR/mpiv_run" ${FLAGS[@]+"${FLAGS[@]}"} --out "$SP_JSON2" \
    scenarios/scale_probe.scn 2> "$OUT_DIR/scale_probe.rerun.log"; then
  echo "metrics smoke FAILED: scale_probe rerun crashed" >&2
  sed 's/^/  | /' "$OUT_DIR/scale_probe.rerun.log" >&2
  exit 1
fi
if DIFF_OUT=$("$BUILD_DIR/mpiv_stat" --diff "$SP_JSON" "$SP_JSON2"); then
  echo "metrics smoke OK ($(echo "$DIFF_OUT" | head -1); zero drift across reruns)"
else
  echo "metrics smoke FAILED: identical-seed reports drifted" >&2
  echo "$DIFF_OUT" | sed 's/^/  | /' >&2
  exit 1
fi

# Parallel-equivalence: the forked worker pool must be invisible in the
# report. Run the chaos grid serially and under --jobs 4 and require the
# two reports byte-identical (cmp) and drift-free (mpiv_stat --diff) —
# point ordering, goldens, tallies and all.
PE_SER="$OUT_DIR/chaos_soak.jobs1.json"
PE_PAR="$OUT_DIR/chaos_soak.jobs4.json"
for pe in "1:$PE_SER" "4:$PE_PAR"; do
  jobs="${pe%%:*}"; out="${pe#*:}"
  if ! run_ok "$BUILD_DIR/mpiv_run" --quick --jobs "$jobs" --out "$out" \
      scenarios/chaos_soak.scn 2> "$out.log"; then
    echo "parallel-equivalence FAILED: mpiv_run --jobs $jobs crashed" >&2
    sed 's/^/  | /' "$out.log" >&2
    exit 1
  fi
done
if ! cmp -s "$PE_SER" "$PE_PAR"; then
  echo "parallel-equivalence FAILED: --jobs 4 report differs from serial" >&2
  diff "$PE_SER" "$PE_PAR" | head -20 >&2 || true
  exit 1
fi
if DIFF_OUT=$("$BUILD_DIR/mpiv_stat" --diff "$PE_SER" "$PE_PAR"); then
  echo "parallel-equivalence OK (serial vs --jobs 4 byte-identical, zero drift)"
else
  echo "parallel-equivalence FAILED: mpiv_stat --diff reported drift" >&2
  echo "$DIFF_OUT" | sed 's/^/  | /' >&2
  exit 1
fi

echo "all scenarios OK (reports in $OUT_DIR)"
