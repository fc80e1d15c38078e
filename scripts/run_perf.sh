#!/usr/bin/env bash
# Perf harness for the simulator hot paths.
#
# Builds nothing itself — point it at a Release build tree. Runs
# bench_micro_hotpath (JSON-emitting micro benches + peak RSS) and
# wall-clock-times every bundled scenario (the paper figures and ablations
# included) through mpiv_run, then assembles one JSON report. Run it before
# and after a hot-path change and check the two reports in side by side
# (repo root BENCH_hotpath.json holds a "before" and an "after" report for
# the latest overhaul).
#
# With --quick it is also a perf gate. bench_micro_hotpath times each fast
# path against its reference in one process and prints the ratio as a
# `DUEL <name> <ratio>x` line; host noise hits both sides, so the ratio
# holds on a noisy CI runner where wall time does not. The run fails
# (exit 1, after writing the report) when a duel ratio is below its floor in
# the "duel_floors" object of the repo-root BENCH_hotpath.json, or when a
# duel has no floor there. Absolute wall times are recorded, never gated.
#
# Usage: scripts/run_perf.sh [--quick] [--build-dir DIR] [--out FILE] [--label L]
#   --quick      micro benches at reduced scale, duel floors gated (CI
#                perf-smoke uses this)
#   --build-dir  build tree containing bench_micro_hotpath and mpiv_run
#                (default: build)
#   --out        output JSON path (default: BENCH_hotpath.json)
#   --label      free-form label recorded in the report (default: "run")
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
BUILD_DIR=build
OUT=BENCH_hotpath.json
LABEL=run
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --build-dir) BUILD_DIR=$2; shift ;;
    --out) OUT=$2; shift ;;
    --label) LABEL=$2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -x "$BUILD_DIR/bench_micro_hotpath" ]]; then
  echo "error: $BUILD_DIR/bench_micro_hotpath not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

MICRO_FLAGS=()
[[ $QUICK -eq 1 ]] && MICRO_FLAGS=(--quick)

MICRO_JSON=$(mktemp)
MICRO_OUT=$(mktemp)
SCN_JSON=$(mktemp)
trap 'rm -f "$MICRO_JSON" "$MICRO_OUT" "$SCN_JSON"' EXIT
# Read before the run: --out may overwrite BENCH_hotpath.json.
FLOORS=$(grep -o '"duel_floors": {[^}]*}' BENCH_hotpath.json || true)

# mpiv_run exits 0 on a clean grid, 3 on a degraded-but-complete report
# (abandoned/failed points — chaos_soak abandons corners by design). Both
# produce valid JSON; only other exits count as crashes here.
run_ok() {
  local rc=0
  "$@" || rc=$?
  [[ $rc -eq 0 || $rc -eq 3 ]]
}

echo "== micro hot-path benches =="
"$BUILD_DIR/bench_micro_hotpath" ${MICRO_FLAGS[@]+"${MICRO_FLAGS[@]}"} --json "$MICRO_JSON" |
  tee "$MICRO_OUT"

GATE_FAILED=0
if [[ $QUICK -eq 1 ]]; then
  echo "== duel floors (BENCH_hotpath.json) =="
  while read -r _ name ratio _; do
    ratio=${ratio%x}
    floor=$(grep -o "\"$name\": [0-9.]*" <<< "$FLOORS" | sed 's/.*: //' || true)
    if [[ -z $floor ]]; then
      echo "error: DUEL $name has no floor in BENCH_hotpath.json duel_floors" >&2
      GATE_FAILED=1
    elif awk -v r="$ratio" -v f="$floor" 'BEGIN { exit !(r < f) }'; then
      echo "error: DUEL $name ${ratio}x is below its floor ${floor}x" >&2
      GATE_FAILED=1
    else
      printf '  %-20s %6sx >= floor %sx\n' "$name" "$ratio" "$floor"
    fi
  done < <(grep '^DUEL ' "$MICRO_OUT")
  if ! grep -q '^DUEL ' "$MICRO_OUT"; then
    echo "error: bench_micro_hotpath printed no DUEL line" >&2
    GATE_FAILED=1
  fi
fi

# Scenario driver timing: every bundled scenario in quick mode through
# mpiv_run (wall clock per file; the JSON reports themselves are the
# scenario-smoke job's concern).
SCN_ROWS=""
if [[ -x "$BUILD_DIR/mpiv_run" ]]; then
  echo "== scenario driver (quick) =="
  for scn in scenarios/*.scn; do
    name=$(basename "$scn" .scn)
    start=$(date +%s%N)
    if run_ok "$BUILD_DIR/mpiv_run" --quick --out "$SCN_JSON" "$scn" > /dev/null 2>&1; then
      status=ok
    else
      status=crash
    fi
    end=$(date +%s%N)
    ms=$(( (end - start) / 1000000 ))
    printf '%-32s %8s ms  %s\n' "$name" "$ms" "$status"
    [[ -n $SCN_ROWS ]] && SCN_ROWS+=$',\n'
    SCN_ROWS+="    {\"name\": \"$name\", \"wall_ms\": $ms, \"status\": \"$status\"}"
    if [[ $status == crash ]]; then
      echo "error: mpiv_run failed on $scn" >&2
      exit 1
    fi
  done
fi

# Fault-campaign phase artifact: run the EL-shard-crash scenario and embed
# its per-recovery phase breakdown (the Fig. 10 decomposition) in the
# report, so recovery-path timings ride the same history as the hot-path
# numbers.
FAULT_JSON=""
if [[ -x "$BUILD_DIR/mpiv_run" && -f scenarios/fault_campaign.scn ]]; then
  echo "== fault campaign (recovery phases) =="
  FC_TMP=$(mktemp)
  if run_ok "$BUILD_DIR/mpiv_run" --quick --out "$FC_TMP" scenarios/fault_campaign.scn > /dev/null 2>&1; then
    # Pull the recoveries arrays through grep (one line per run in our
    # emitter); fall back to the empty list if the shape ever changes.
    FAULT_JSON=$(grep -o '"recoveries": \[[^]]*\]' "$FC_TMP" | head -1 || true)
    [[ -n $FAULT_JSON ]] && echo "  ${FAULT_JSON}"
  else
    echo "error: mpiv_run failed on scenarios/fault_campaign.scn" >&2
    rm -f "$FC_TMP"
    exit 1
  fi
  rm -f "$FC_TMP"
fi

# Scale-probe metrics artifact: run the metrics-enabled nranks sweep and
# embed each point's EL object (ack latency mean/p50/p99 tails) so the
# EL-saturation curve rides the same perf history. The gauge time-series
# CSVs land next to the report for plotting.
SCALE_ROWS=""
if [[ -x "$BUILD_DIR/mpiv_run" && -f scenarios/scale_probe.scn ]]; then
  echo "== scale probe (EL ack tails, metrics sampler) =="
  SP_TMP=$(mktemp)
  METRICS_DIR="${OUT%.json}_metrics"
  mkdir -p "$METRICS_DIR"
  SP_FLAGS=(--set "metrics.dir=$METRICS_DIR")
  [[ $QUICK -eq 1 ]] && SP_FLAGS+=(--quick)
  if run_ok "$BUILD_DIR/mpiv_run" "${SP_FLAGS[@]}" --out "$SP_TMP" scenarios/scale_probe.scn > /dev/null 2>&1; then
    while IFS=$'\t' read -r label el; do
      echo "  $label  $el"
      [[ -n $SCALE_ROWS ]] && SCALE_ROWS+=$',\n'
      SCALE_ROWS+="    {\"label\": \"$label\", \"el\": $el}"
    done < <(paste <(grep -o '"label": "[^"]*"' "$SP_TMP" | sed 's/.*: "\(.*\)"/\1/') \
                   <(grep -o '"el": {[^}]*}' "$SP_TMP" | sed 's/"el": //'))
    echo "  gauge series CSVs in $METRICS_DIR/"
  else
    echo "error: mpiv_run failed on scenarios/scale_probe.scn" >&2
    rm -f "$SP_TMP"
    exit 1
  fi
  rm -f "$SP_TMP"
fi

{
  echo "{"
  echo "  \"label\": \"$LABEL\","
  echo "  \"quick\": $QUICK,"
  if [[ -n $SCN_ROWS ]]; then
    echo "  \"scenarios\": ["
    printf '%s\n' "$SCN_ROWS"
    echo "  ],"
  fi
  if [[ -n $FAULT_JSON ]]; then
    echo "  \"fault_campaign\": {${FAULT_JSON}},"
  fi
  if [[ -n $SCALE_ROWS ]]; then
    echo "  \"scale_probe\": ["
    printf '%s\n' "$SCALE_ROWS"
    echo "  ],"
  fi
  echo "  \"micro\":"
  sed 's/^/  /' "$MICRO_JSON"
  echo "}"
} > "$OUT"
echo "wrote $OUT"
if [[ $GATE_FAILED -ne 0 ]]; then
  echo "error: perf gate failed: a duel ratio is below its floor (see above)" >&2
  exit 1
fi
