#!/bin/sh
# Runs <program> once per <arg> and fails unless every run exits 2 with the
# usage line on stderr: the way each bench and example rejects a bad value.
# A run still going after 20 s is stopped and counts as a failure.
#
#   $ scripts/check_usage_exit.sh build/examples/netlist_sim --dt=0 --temp=-400
prog=$1
shift
for arg in "$@"; do
  err=$(timeout 20 "$prog" "$arg" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 2 ] || ! printf '%s\n' "$err" | grep -q '^usage: '; then
    echo "$prog $arg: exit $status, stderr: $err"
    exit 1
  fi
  echo "$arg: exit 2 with usage"
done
