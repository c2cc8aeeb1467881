#!/usr/bin/env bash
# Byte-identity check between two builds of locktune. Runs both on
#   * every scenarios/*.conf and scenarios/regression/*.conf, comparing
#     stdout, --metrics-out, --trace-out and --trace-profile;
#   * `locktune_fuzz --seed 1234 --count 200`, comparing stdout and the
#     files it writes;
#   * the `paper` benches (`ctest -L paper` in BUILD_A), comparing stdout;
# and compares each exit status too. It stops at the first difference.
#
#   tools/compare_outputs.sh BUILD_A BUILD_B
#
# e.g. a parent commit's build directory against this tree's build/. The
# two builds of each run go side by side; the whole check takes two to
# three minutes on 4 vCPUs. Exit status: 0 when every output matches, 1 at
# the first difference, 2 on a usage error.
set -euo pipefail

if [ "$#" -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: tools/compare_outputs.sh BUILD_A BUILD_B" >&2
  exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_A=$(cd "$1" && pwd)
BUILD_B=$(cd "$2" && pwd)
WORK=$(mktemp -d -t locktune_compare.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

# run_both LABEL PROGRAM ARGS...: runs BUILD/PROGRAM ARGS in both builds at
# once, each from its own empty directory (relative output paths land
# there), then compares stdout, the exit status and every file the run
# wrote.
run_both() {
  local label=$1 program=$2
  shift 2
  local side build
  for side in a b; do
    build=$BUILD_A
    [ "$side" = b ] && build=$BUILD_B
    rm -rf "${WORK:?}/$side"
    mkdir -p "$WORK/$side/out"
    (cd "$WORK/$side/out" && "$build/$program" "$@" > ../stdout 2> /dev/null
     echo "$?" > ../status) &
  done
  wait
  if ! diff -r "$WORK/a" "$WORK/b" > "$WORK/diff"; then
    echo "compare_outputs: $label differs:" >&2
    head -n 20 "$WORK/diff" >&2
    exit 1
  fi
  echo "same: $label"
}

for conf in "$ROOT"/scenarios/*.conf "$ROOT"/scenarios/regression/*.conf; do
  run_both "${conf#"$ROOT"/}" tools/locktune_sim "$conf" \
    --metrics-out metrics.prom --trace-out trace.jsonl \
    --trace-profile trace.json
done

run_both "locktune_fuzz --seed 1234 --count 200" tools/locktune_fuzz \
  --seed 1234 --count 200

benches=$(ctest --test-dir "$BUILD_A" -N -L paper |
  sed -n 's/^ *Test *#[0-9]*: *//p')
if [ -z "$benches" ]; then
  echo "compare_outputs: no paper benches registered in $BUILD_A" >&2
  exit 1
fi
for bench in $benches; do
  run_both "bench/$bench" "bench/$bench"
done
echo "compare_outputs: every output matches"
