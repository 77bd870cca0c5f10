#!/bin/sh
# Runs <program> once per <arg> and fails unless every run exits 1 with
# "<program name>: <message>" on stderr: the way a program reports a run that
# started and then failed (a solver that does not converge, say).
# A run still going after 60 s is stopped and counts as a failure.
#
#   $ scripts/check_error_exit.sh build/examples/waveform_dump --vin=600
prog=$1
shift
name=$(basename "$prog")
for arg in "$@"; do
  err=$(timeout 60 "$prog" "$arg" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 1 ] || ! printf '%s\n' "$err" | grep -q "^$name: "; then
    echo "$prog $arg: exit $status, stderr: $err"
    exit 1
  fi
  echo "$arg: exit 1 with: $(printf '%s\n' "$err" | grep "^$name: ")"
done
