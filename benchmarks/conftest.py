"""Benchmark fixtures.

Each benchmark regenerates one paper table/figure and reports the
"paper vs measured" rows.  Tables are printed to stdout and appended to
``benchmarks/output/results_latest.txt`` so a full ``pytest
benchmarks/ --benchmark-only`` run leaves a single consolidated
artifact (the source for EXPERIMENTS.md).

Serving benchmarks additionally record machine-readable metrics via the
``bench_record`` fixture into ``benchmarks/output/BENCH_serving.json``
(one object per benchmark name: throughput, percentiles, sheds, lane
speedups) — the artifact CI uploads so the perf trajectory is diffable
across PRs instead of living in prose tables.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict

import pytest

from repro.core import AdClassifier, get_reference_classifier

_OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
_OUTPUT_PATH = os.path.join(_OUTPUT_DIR, "results_latest.txt")
_JSON_PATH = os.path.join(_OUTPUT_DIR, "BENCH_serving.json")


@pytest.fixture(scope="session")
def reference_classifier() -> AdClassifier:
    return get_reference_classifier()


@pytest.fixture(scope="session")
def _sink_path() -> str:
    os.makedirs(_OUTPUT_DIR, exist_ok=True)
    # Partial runs (scripts/bench_smoke.sh, single-file invocations) set
    # PERCIVAL_BENCH_APPEND so they add their tables without wiping the
    # consolidated artifact of the last full run.
    if os.environ.get("PERCIVAL_BENCH_APPEND") and os.path.exists(
        _OUTPUT_PATH
    ):
        return _OUTPUT_PATH
    with open(_OUTPUT_PATH, "w", encoding="utf-8") as handle:
        handle.write("PERCIVAL reproduction: regenerated tables\n\n")
    return _OUTPUT_PATH


@pytest.fixture()
def report_table(_sink_path: str) -> Callable[[str], None]:
    """Print a result table and append it to the session artifact."""

    def _report(table: str) -> None:
        print("\n" + table)
        with open(_sink_path, "a", encoding="utf-8") as handle:
            handle.write(table + "\n\n")

    return _report


@pytest.fixture(scope="session")
def _bench_json_records() -> Dict[str, dict]:
    """Accumulates machine-readable benchmark records for the session;
    flushed to ``BENCH_serving.json`` when the session ends.  Honors
    ``PERCIVAL_BENCH_APPEND`` the same way the text sink does: partial
    runs merge into (never wipe) the last full run's records."""
    os.makedirs(_OUTPUT_DIR, exist_ok=True)
    records: Dict[str, dict] = {}
    if os.environ.get("PERCIVAL_BENCH_APPEND") and os.path.exists(
        _JSON_PATH
    ):
        try:
            with open(_JSON_PATH, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                records.update(loaded)
        except (OSError, ValueError):
            pass  # corrupt artifact: rebuild it from this run
    yield records
    with open(_JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture()
def bench_record(
    _bench_json_records: Dict[str, dict],
) -> Callable[..., None]:
    """Record one benchmark's metrics under a stable name.

    ``bench_record("serving_multilane", speedup=1.7, sheds=0)`` — values
    must be JSON-serializable scalars/lists.  Metrics recorded under one
    name merge, so two tests can share a record; re-recording a metric
    within a session overwrites it (last run wins, matching pytest
    rerun semantics).
    """

    def _record(name: str, **metrics) -> None:
        _bench_json_records.setdefault(name, {}).update(metrics)

    return _record
