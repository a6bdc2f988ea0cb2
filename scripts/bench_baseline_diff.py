#!/usr/bin/env python
"""Diff a fresh BENCH_serving.json against the committed baseline.

CI's bench-smoke job runs this after ``scripts/bench_smoke.sh``: the
fresh machine-readable record is compared metric by metric against
``benchmarks/baselines/BENCH_serving.json`` (committed alongside the
code that produced it), a trend table is printed for every shared
metric, and the job **fails** when a gated metric regressed by more
than ``--regression-threshold`` (default 20%).

Gating policy — only metric names containing ``speedup`` gate, and
only in the harmful direction (lower than baseline).  Throughput rates
(``*_req_per_s``), latency percentiles, makespans, and counters are
trend-reported but never gate: wall-clock numbers move with runner
hardware, whereas speedup ratios are self-normalizing and a >20%
collapse means the optimization itself broke.  Each wall-clock rate
worth guarding has a ratio next to it that gates instead
(``serving_throughput.speedup`` for the served and sequential rates,
``sharded_inference.sharded_speedup`` for the worker pool).  Metrics present only in
the fresh run (a new benchmark) pass with a notice so adding a
benchmark never requires a baseline in the same commit; metrics present
only in the baseline fail — a silently vanished benchmark is exactly
the regression this gate exists to catch.

Stdlib only: CI runs it with bare ``python``.
"""

from __future__ import annotations

import argparse
import json
import sys

#: substrings of metric names that gate (self-normalizing ratios);
#: everything else is trend-only
GATED_MARKERS = ("speedup",)


def is_gated(metric: str) -> bool:
    """Gate on the metric name only — ``bench.metric`` benches named
    after their headline ratio (serving_multilane_speedup) must not
    drag their counters into the gate."""
    lowered = metric.rsplit(".", 1)[-1].lower()
    return any(marker in lowered for marker in GATED_MARKERS)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        sys.exit(f"bench_baseline_diff: cannot read {path}: {exc}")
    if not isinstance(payload, dict):
        sys.exit(f"bench_baseline_diff: {path} is not a JSON object")
    return payload


def flatten(records: dict) -> dict:
    """``{bench: {metric: value}}`` -> ``{"bench.metric": value}``,
    numeric values only (strings and lists are not diffable)."""
    flat = {}
    for bench, metrics in sorted(records.items()):
        if not isinstance(metrics, dict):
            continue
        for metric, value in sorted(metrics.items()):
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            flat[f"{bench}.{metric}"] = float(value)
    return flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline BENCH_serving.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced BENCH_serving.json")
    parser.add_argument("--regression-threshold", type=float, default=0.20,
                        help="max allowed fractional drop of a gated "
                             "metric below baseline (default 0.20)")
    args = parser.parse_args(argv)
    if not 0.0 < args.regression_threshold < 1.0:
        parser.error("--regression-threshold must be in (0, 1)")

    baseline = flatten(load(args.baseline))
    fresh = flatten(load(args.fresh))
    failures = []
    notices = []
    rows = []

    for name in sorted(set(baseline) | set(fresh)):
        base = baseline.get(name)
        now = fresh.get(name)
        if base is None:
            notices.append(f"NEW metric {name} = {now:g} "
                           "(no baseline yet; passes)")
            continue
        if now is None:
            failures.append(f"metric {name} vanished from the fresh run "
                            f"(baseline {base:g})")
            continue
        delta = (now - base) / base if base else 0.0
        gated = is_gated(name)
        verdict = "ok"
        if gated and delta < -args.regression_threshold:
            verdict = "FAIL"
            failures.append(
                f"gated metric {name} regressed "
                f"{-delta:.1%} (baseline {base:g} -> {now:g}, "
                f"threshold {args.regression_threshold:.0%})"
            )
        rows.append((name, base, now, delta,
                     "gate" if gated else "trend", verdict))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'fresh':>12}  "
          f"{'delta':>8}  {'kind':<5}  verdict")
    for name, base, now, delta, kind, verdict in rows:
        print(f"{name:<{width}}  {base:>12.4g}  {now:>12.4g}  "
              f"{delta:>+7.1%}  {kind:<5}  {verdict}")
    for notice in notices:
        print(notice)
    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}")
        return 1
    print("\nbench_baseline_diff: no gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
