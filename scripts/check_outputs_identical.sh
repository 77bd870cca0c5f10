#!/usr/bin/env bash
# Checks that the working tree reproduces a git revision's results byte for
# byte: the stdout of the five paper benches at --mc=40 --seed=42 and the
# "perfbench-results" line of each perfbench workload at --seed 42
# --seconds 1.  For refactors and speedups that claim bit-identical outputs.
# Both trees are built in Release under a temporary directory; the revision
# comes from `git archive`, so the checkout itself is left as it is.
#
#   $ scripts/check_outputs_identical.sh <rev>
#
# Exits 0 when every output matches, 1 on any difference (each one is shown
# as a diff), 2 on bad usage.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev="$1"
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if ! git -C "$ROOT" rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
  echo "$0: unknown revision '$rev'" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base"
git -C "$ROOT" archive "$rev" | tar -x -C "$work/base"

benches=(bench_table2_workload bench_table3_voltage bench_table4_temperature
         bench_fig7_delay_vs_aging bench_ext_double_tail)
workloads=(offset_table2 delay_fig7 sweep_grow_cached)
jobs="$(( $(nproc) < 4 ? $(nproc) : 4 ))"

# Builds one tree and writes its outputs to $work/out-<side>/.
run_side() {
  local side="$1" tree="$2"
  local build="$work/build-$side" out="$work/out-$side"
  local log="$work/$side.log"
  echo "== $side: building $tree (log: $log)"
  if ! { cmake -S "$tree" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$build" -j "$jobs" --target "${benches[@]}" &&
         cmake -S "$tree/perfbench" -B "$build/perfbench" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$build/perfbench" -j "$jobs"; } > "$log" 2>&1; then
    cat "$log" >&2
    echo "$0: $side: build failed" >&2
    exit 1
  fi
  mkdir -p "$out"
  # Benches write no sidecars unless asked; run them in the output directory
  # all the same, so nothing lands in the checkout.
  for bench in "${benches[@]}"; do
    echo "   $side: $bench"
    (cd "$out" && "$build/bench/$bench" --mc=40 --seed=42 > "$bench.txt")
  done
  for workload in "${workloads[@]}"; do
    echo "   $side: perfbench $workload"
    (cd "$out" && "$build/perfbench/perfbench" --workload "$workload" --seed 42 --seconds 1 |
      grep '^perfbench-results ' > "perfbench_$workload.txt")
  done
}

run_side base "$work/base"
run_side change "$ROOT"

status=0
for name in "${benches[@]}" "${workloads[@]/#/perfbench_}"; do
  if diff -u "$work/out-base/$name.txt" "$work/out-change/$name.txt"; then
    echo "identical: $name"
  else
    echo "DIFFERS: $name" >&2
    status=1
  fi
done
exit "$status"
