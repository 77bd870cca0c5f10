#!/usr/bin/env bash
# Checks the benchmark's results against perfbench/reference.json: runs each
# perfbench workload once at seed 42 and fails unless its JSON result
# (the last line of its stdout) reports "correct": true and "failed": 0.
# perfbench builds its own Release binary and needs only cmake, a C++20
# compiler and python3 (no GTest, no google-benchmark).
#
#   $ scripts/check_perfbench_correct.sh
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

status=0
for workload in offset_table2 delay_fig7 sweep_grow_cached; do
  echo "== $workload =="
  if ! result="$(python3 perfbench/run.py --workload "$workload" --seed 42 --seconds 1 | tail -n 1)"; then
    echo "FAIL: $workload: perfbench/run.py exited with an error" >&2
    status=1
    continue
  fi
  if python3 -c '
import json, sys
result = json.loads(sys.argv[1])
print("correct=%s attempted=%s failed=%s" % (result["correct"], result["attempted"], result["failed"]))
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' "$result"; then
    echo "ok: $workload matches perfbench/reference.json"
  else
    echo "FAIL: $workload: $result" >&2
    status=1
  fi
done
exit "$status"
