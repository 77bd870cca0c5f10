#!/bin/sh
# Runs a bench that is meant to fail part way (a Monte-Carlo run over its
# quarantine bound, say) with --metrics=<stem> --trace=<stem>, and fails
# unless the run exits 1, still writes both sidecars, and the trace passes
# trace_report --check.  Sidecars land in the current directory.
#
#   $ scripts/check_failed_run_reports.sh build/bench/bench_table2_workload \
#       build/tools/trace_report failed --mc=4 --faults=sim.transient_step_collapse=always
prog=$1
trace_report=$2
stem=$3
shift 3
rm -f "$stem.metrics.json" "$stem.trace.json"
timeout 300 "$prog" --metrics="$stem" --trace="$stem" "$@" > /dev/null
status=$?
if [ "$status" -ne 1 ]; then
  echo "$prog: exit $status, want 1"
  exit 1
fi
for sidecar in "$stem.metrics.json" "$stem.trace.json"; do
  if [ ! -s "$sidecar" ]; then
    echo "$prog: exit 1 but no $sidecar"
    exit 1
  fi
done
"$trace_report" --check "$stem.trace.json"
