#!/usr/bin/env bash
# Checks that the working tree reproduces a git revision's results byte for
# byte: the stdout of the five paper benches, the switch-period ablation, the
# guardband comparison and the overheads bench at --mc=40 --seed=42, the
# --csv files of Tables II-IV and Fig. 7, the stdout of issa_calibrate,
# aging_study and memory_column at --mc=40 --seed=42 and of quickstart, and
# the "perfbench-results" line of each perfbench workload at --seed 42
# --seconds 1.  For refactors and speedups that claim bit-identical outputs.
# A program whose stdout carries a timing (bench_ablation_methods) is left
# out.
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
         bench_fig7_delay_vs_aging bench_ext_double_tail bench_ablation_switch_period
         bench_guardband bench_overheads)
# The benches whose --csv file is compared as well.
csv_benches=(bench_table2_workload bench_table3_voltage bench_table4_temperature
             bench_fig7_delay_vs_aging)
# The other Monte-Carlo programs, as <build subdirectory>/<target>, all but
# quickstart run at --mc=40 --seed=42.
programs=(tools/issa_calibrate examples/aging_study examples/memory_column examples/quickstart)
workloads=(offset_table2 delay_fig7 sweep_grow_cached)
jobs="$(( $(nproc) < 4 ? $(nproc) : 4 ))"

# Builds one tree and writes its outputs to $work/out-<side>/.
run_side() {
  local side="$1" tree="$2"
  local build="$work/build-$side" out="$work/out-$side"
  local log="$work/$side.log"
  echo "== $side: building $tree (log: $log)"
  if ! { cmake -S "$tree" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$build" -j "$jobs" --target "${benches[@]}" "${programs[@]##*/}" &&
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
    local args=(--mc=40 --seed=42)
    if [[ " ${csv_benches[*]} " == *" $bench "* ]]; then args+=("--csv=$bench.csv"); fi
    (cd "$out" && "$build/bench/$bench" "${args[@]}" > "$bench.txt")
  done
  for program in "${programs[@]}"; do
    echo "   $side: $program"
    local args=(--mc=40 --seed=42)
    if [[ "$program" == */quickstart ]]; then args=(); fi
    (cd "$out" && "$build/$program" "${args[@]}" > "${program##*/}.txt")
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
workload_files=("${workloads[@]/#/perfbench_}")
program_files=("${programs[@]##*/}")
for name in "${benches[@]/%/.txt}" "${csv_benches[@]/%/.csv}" "${program_files[@]/%/.txt}" \
            "${workload_files[@]/%/.txt}"; do
  if diff -u "$work/out-base/$name" "$work/out-change/$name"; then
    echo "identical: $name"
  else
    echo "DIFFERS: $name" >&2
    status=1
  fi
done
exit "$status"
