"""Compiled plan profile: time per frame by batch shape, and memory.

Not a paper figure, and trend-only: nothing here asserts or gates.  It
records the reference plan's µs/frame at one frame, at a fixed batch of
32 and over a fixed ragged mix of batch sizes, plus how far that run
grows the process's peak RSS, as ``plan_profile`` in
``BENCH_serving.json``.  The ragged mix is 57 batch sizes drawn
uniformly from 6 to 64 frames with a fixed seed: an assumed stand-in
for traffic whose every call sends a new batch size, not a
distribution traced from any workload.

The profile runs in a spawned child, so the RSS growth is the plan's
own: not hidden under the test session's earlier peak, and not absorbed
by heap the session already grew and freed.

Marked ``bench_smoke``; ``PERCIVAL_BENCH_ROUNDS`` trims the rounds.
"""

import multiprocessing as mp
import os
import resource
import sys

import numpy as np
import pytest

from repro.eval.reporting import paper_vs_measured
from repro.utils.timing import measure_latency

BATCH = 32
ROUNDS = int(os.environ.get("PERCIVAL_BENCH_ROUNDS", "30"))
#: per-call batch sizes of the ragged mix (fixed: seeded, never drawn
#: per run)
RAGGED = tuple(
    int(size) for size in np.random.default_rng(501).integers(6, 65, 57)
)


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _profile(plan, frames, rounds, conn) -> None:
    start_mb = _peak_rss_mb()

    def ragged() -> None:
        for size in RAGGED:
            plan.run(frames[:size])

    b1_ms = measure_latency(
        lambda: plan.run(frames[:1]), repeats=max(rounds, 5), warmup=3
    )
    b32_ms = measure_latency(
        lambda: plan.run(frames[:BATCH]), repeats=max(rounds, 5), warmup=2
    )
    ragged_ms = measure_latency(
        ragged, repeats=max(rounds // 6, 3), warmup=1
    )
    conn.send({
        "us_per_frame_b1": b1_ms * 1e3,
        "us_per_frame_b32": b32_ms * 1e3 / BATCH,
        "us_per_frame_ragged": ragged_ms * 1e3 / sum(RAGGED),
        "rss_growth_mb": _peak_rss_mb() - start_mb,
    })
    conn.close()


@pytest.mark.bench_smoke
def test_plan_profile(reference_classifier, report_table, bench_record):
    plan = reference_classifier.inference_plan
    size = reference_classifier.config.input_size
    frames = np.random.default_rng(0).standard_normal(
        (max(RAGGED), 4, size, size)
    ).astype(np.float32)

    context = mp.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(
        target=_profile, args=(plan, frames, ROUNDS, sender)
    )
    child.start()
    sender.close()
    try:
        profile = receiver.recv()
    finally:
        receiver.close()
        child.join(timeout=60)
        if child.is_alive():
            child.terminate()
            child.join()

    report_table(paper_vs_measured(
        f"Compiled plan profile ({size} px; ragged mix of {len(RAGGED)} "
        f"batches, {min(RAGGED)}-{max(RAGGED)} frames)",
        [
            ("b1 (us/frame)", "-", profile["us_per_frame_b1"]),
            (f"b{BATCH} (us/frame)", "-", profile["us_per_frame_b32"]),
            ("ragged mix (us/frame)", "-",
             profile["us_per_frame_ragged"]),
            ("peak RSS growth (MB)", "-", profile["rss_growth_mb"]),
        ],
    ))
    bench_record("plan_profile", **profile)
