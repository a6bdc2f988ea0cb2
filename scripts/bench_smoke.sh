#!/usr/bin/env bash
# Run only the bench_smoke-marked benchmarks with reduced timing rounds.
#
# The full benchmark suite regenerates every paper table and takes
# minutes; this runs the fast-path micro-benchmarks alone in seconds —
# handy as a perf smoke check after touching the nn/ kernels, and the
# exact command CI's bench-smoke job runs.
#
#   scripts/bench_smoke.sh            # defaults: 8 rounds
#   PERCIVAL_BENCH_ROUNDS=30 scripts/bench_smoke.sh -v
#   PYTHON=python3.11 scripts/bench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHON="${PYTHON:-python}"
if ! command -v "$PYTHON" >/dev/null 2>&1; then
    echo "bench_smoke: interpreter '$PYTHON' not found on PATH" \
         "(set PYTHON=... to pick one)" >&2
    exit 2
fi
if ! "$PYTHON" -c "import pytest" >/dev/null 2>&1; then
    echo "bench_smoke: pytest is not importable by $PYTHON —" \
         "install the test toolchain first:" >&2
    echo "    $PYTHON -m pip install numpy scipy pytest pytest-benchmark" >&2
    exit 2
fi

export PERCIVAL_BENCH_ROUNDS="${PERCIVAL_BENCH_ROUNDS:-8}"
# append to benchmarks/output/results_latest.txt instead of truncating
# the consolidated artifact of the last full benchmark run
export PERCIVAL_BENCH_APPEND=1

rc=0
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    "$PYTHON" -m pytest benchmarks -m bench_smoke -q "$@" || rc=$?
if [ "$rc" -eq 5 ]; then
    # pytest exit code 5: nothing ran.  A renamed marker or moved
    # directory would otherwise pass CI while benchmarking nothing.
    echo "bench_smoke: zero tests matched the bench_smoke marker" >&2
    exit 1
fi
exit "$rc"
