#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: lint first, then build + test,
# then the benchmark's output check, then clang-tidy when available. Run
# from the repo root before sending a change out; a clean pass here is a
# clean CI run minus the compiler matrix.
#
#   tools/run_checks.sh              # lint, build, ctest, output check
#   tools/run_checks.sh --paranoid   # also rerun ctest with LOCKTUNE_PARANOID=1
#   tools/run_checks.sh --asan       # also build/test the asan preset
set -euo pipefail

cd "$(dirname "$0")/.."

PARANOID=0
ASAN=0
for arg in "$@"; do
  case "$arg" in
    --paranoid) PARANOID=1 ;;
    --asan) ASAN=1 ;;
    *) echo "usage: tools/run_checks.sh [--paranoid] [--asan]" >&2; exit 2 ;;
  esac
done

run() { echo "+ $*"; "$@"; }

# 1. The fast gate, same order as CI: lint before spending compile time.
#    locklint is standalone, so build just it straight from the source tree.
LINT_BIN=$(mktemp -t locklint.XXXXXX)
trap 'rm -f "$LINT_BIN"' EXIT
run "${CXX:-g++}" -std=c++20 -O2 -Wall -Wextra -Werror \
  -o "$LINT_BIN" tools/locklint/locklint.cc
run "$LINT_BIN" src tools bench

# 2. Default build + the full test suite (includes locklint_repo, the
#    golden determinism suite and paranoid_golden_run; every entry has a
#    deadline, so a hang fails instead of stalling).
run cmake -B build -S . -DLOCKTUNE_WERROR=ON
run cmake --build build -j
run ctest --test-dir build --output-on-failure -j 4

# 3. The benchmark's output check (perfbench/README.md): both workloads'
#    seed-42 outcome fingerprints must match perfbench/references.json.
run python3 perfbench/run.py --self-test
run python3 perfbench/run.py --workload all --seconds 5

# 4. clang-tidy, when installed (the tidy target exists only then).
if command -v clang-tidy > /dev/null 2>&1; then
  run cmake --build build --target tidy
else
  echo "clang-tidy not installed; skipping the tidy wall"
fi

# 5. Optional heavier configurations.
if [ "$PARANOID" = 1 ]; then
  run ctest --preset paranoid -j 4
fi
if [ "$ASAN" = 1 ]; then
  run cmake --preset asan
  run cmake --build --preset asan -j
  run ctest --preset asan -j 4
fi

echo "run_checks: all green"
