#!/usr/bin/env bash
# Correctness gates for the persistent Monte-Carlo sample cache, end to end
# through the real bench binaries:
#
#   1. warm rerun: bit-identical stdout, >= MIN_HIT_PCT% cache hits (checked
#      against both the bench's cache: summary line and the mc.cache_hits
#      metrics counter)
#   2. corruption: a truncated segment is detected (store_report --check
#      fails), tolerated (the bench re-simulates the lost tail and still
#      prints bit-identical results), and surfaced in the bench's output
#   3. concurrent writers: two runs writing one store directory at once (a
#      segment per writer) leave a store that passes store_report --check
#      and replays a warm rerun bit-identically with 100% hits
#
#   $ scripts/check_cache_correctness.sh
#
# Environment overrides:
#   MC              Monte-Carlo iterations per condition  (default 16)
#   MIN_HIT_PCT     required warm-rerun hit percentage    (default 90)
#   BUILD_DIR       bench build tree                      (default build-cache)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
MC="${MC:-16}"
MIN_HIT_PCT="${MIN_HIT_PCT:-90}"
BUILD_DIR="${BUILD_DIR:-$ROOT/build-cache}"
BENCH="$BUILD_DIR/bench/bench_table2_workload"
STORE_REPORT="$BUILD_DIR/tools/store_report"

echo "== building Release tree =="
cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target bench_table2_workload store_report -j "$(nproc)" >/dev/null
for binary in "$BENCH" "$STORE_REPORT"; do
  if [[ ! -x "$binary" ]]; then
    echo "FAIL: binary missing after build: $binary" >&2
    exit 2
  fi
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

results_of() { grep -v '^cache:' "$1"; }
cache_line() { grep '^cache: hits=' "$1"; }
field() { sed -n "s/^cache: hits=\([0-9]*\) misses=\([0-9]*\) stores=\([0-9]*\).*/\\$2/p" <<<"$1"; }

echo "== 1. cold -> warm rerun (--mc=$MC) =="
# Both runs use the same metrics stem so their stdout is comparable; the warm
# run's metrics report overwrites the cold one's, which is the one we want to
# inspect.
"$BENCH" --mc="$MC" --cache="$work/store" --metrics=run >cold.txt
"$BENCH" --mc="$MC" --cache="$work/store" --metrics=run >warm.txt
if ! diff <(results_of cold.txt) <(results_of warm.txt); then
  echo "FAIL: warm rerun results differ from cold run" >&2
  exit 1
fi
line="$(cache_line warm.txt)"
hits="$(field "$line" 1)"
misses="$(field "$line" 2)"
total=$((hits + misses))
hit_pct=$((100 * hits / total))
echo "warm rerun: $hits/$total hits (${hit_pct}%)"
if (( hit_pct < MIN_HIT_PCT )); then
  echo "FAIL: warm hit rate ${hit_pct}% < required ${MIN_HIT_PCT}%" >&2
  exit 1
fi
# Cross-check against the metrics layer: the whole-run mc.cache_hits counter
# of the warm run must agree with the summary line.  The report's run-level
# "metrics" object precedes its per-condition entries, so the first match is
# the whole run's.
metric_hits="$(sed -n '/"mc.cache_hits": /{s/.*"mc.cache_hits": {"kind": "counter", "count": \([0-9]*\)}.*/\1/p;q;}' \
  run.metrics.json)"
if [[ "$metric_hits" != "$hits" ]]; then
  echo "FAIL: mc.cache_hits counter ($metric_hits) disagrees with summary ($hits)" >&2
  exit 1
fi
echo "ok: bit-identical warm rerun, mc.cache_hits=$metric_hits"

echo "== 2. corrupted segment: detected, tolerated, re-simulated =="
segment="$(ls "$work"/store/*.issaseg | head -n1)"
size="$(stat -c%s "$segment")"
truncate -s $((size - 23)) "$segment"
if "$STORE_REPORT" --check "$work/store" >check.txt 2>&1; then
  echo "FAIL: store_report --check passed on a truncated store" >&2
  cat check.txt >&2
  exit 1
fi
echo "ok: store_report --check detects the damaged segment"
"$BENCH" --mc="$MC" --cache="$work/store" --metrics=run >truncated.txt
if ! grep -q 'damaged tail' truncated.txt; then
  echo "FAIL: bench did not surface the damaged segment" >&2
  exit 1
fi
if ! diff <(results_of cold.txt) <(results_of truncated.txt); then
  echo "FAIL: results after truncation differ from the cold run" >&2
  exit 1
fi
line="$(cache_line truncated.txt)"
if [[ "$(field "$line" 2)" == 0 ]]; then
  echo "FAIL: truncation dropped no records — the test tested nothing" >&2
  exit 1
fi
echo "ok: truncated store replayed $(field "$line" 1) and re-simulated $(field "$line" 2) sample(s), bit-identically"

echo "== 3. two concurrent writers share one store =="
# Each writer runs in its own directory so both write run.metrics.json and
# print the same stdout as the cold run.
mkdir w0 w1
(cd w0 && "$BENCH" --mc="$MC" --cache="$work/shared" --metrics=run >../writer0.txt) &
pid0=$!
(cd w1 && "$BENCH" --mc="$MC" --cache="$work/shared" --metrics=run >../writer1.txt) &
pid1=$!
wait "$pid0"
wait "$pid1"
for out in writer0.txt writer1.txt; do
  if ! diff <(results_of cold.txt) <(results_of "$out"); then
    echo "FAIL: concurrent writer $out differs from the cold run" >&2
    exit 1
  fi
done
if ! "$STORE_REPORT" --check "$work/shared" >check-shared.txt 2>&1; then
  echo "FAIL: store_report --check fails on the concurrently written store" >&2
  cat check-shared.txt >&2
  exit 1
fi
"$BENCH" --mc="$MC" --cache="$work/shared" --metrics=run >shared.txt
if ! diff <(results_of cold.txt) <(results_of shared.txt); then
  echo "FAIL: warm rerun over the shared store differs from the cold run" >&2
  exit 1
fi
line="$(cache_line shared.txt)"
if [[ "$(field "$line" 2)" != 0 ]]; then
  echo "FAIL: shared store missed $(field "$line" 2) sample(s): $line" >&2
  exit 1
fi
echo "ok: two concurrent writers leave a valid store that replays at 100% hits"

echo
echo "OK: all cache correctness gates passed"
