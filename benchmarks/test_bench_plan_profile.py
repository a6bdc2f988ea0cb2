"""Compiled plan profile: time per frame by batch shape, and memory.

Not a paper figure.  It records, as ``plan_profile`` in
``BENCH_serving.json``:

* the reference plan's (32 px) µs/frame at one frame, at a fixed batch
  of 32 and over a fixed ragged mix of batch sizes, plus how far that
  run grows the process's peak RSS.  The ragged mix is 57 batch sizes
  drawn uniformly from 6 to 64 frames with a fixed seed: an assumed
  stand-in for traffic whose every call sends a new batch size, not a
  distribution traced from any workload;
* the paper-scale plan's (``PercivalNet.paper()``, 224 px, seeded
  weights) ms per image at b1, b2, b4 and b32;
* the chunk ``InferencePlan.run`` cuts batches into, at both sizes;
* ``paper_chunk_speedup``: b32 at 224 px run as one whole-batch loop
  over the plan's ops, divided by ``plan.run`` on the same batch (the
  median of per-round ratios over interleaved rounds).  It is the one
  gated metric here (the baseline diff gates every ``speedup``); the
  rest are trend-only.

The 32 px profile runs in a spawned child, so the RSS growth is the
plan's own, not absorbed by heap the session already grew and freed.
It reads the child's own peak (``VmHWM``), not ``ru_maxrss``: Linux
folds the pre-exec address space's peak into ``ru_maxrss`` at exec,
and a spawned child is exec'd from a copy of the parent, so its
``ru_maxrss`` starts at the test session's peak and hid any growth
below it (the growth read 0 inside a ``bench_smoke`` session and
~10 MB when this file ran alone).

Marked ``bench_smoke``; ``PERCIVAL_BENCH_ROUNDS`` trims the rounds.
"""

import multiprocessing as mp
import os
import resource
import sys

import numpy as np
import pytest

from repro.eval.reporting import paper_vs_measured
from repro.models.percivalnet import PercivalNet
from repro.nn import compile_inference
from repro.utils.timing import interleaved_samples_ms, measure_latency

BATCH = 32
ROUNDS = int(os.environ.get("PERCIVAL_BENCH_ROUNDS", "30"))
#: 224 px rounds: b32 costs ~0.25 s chunked and ~0.45 s whole
PAPER_ROUNDS = max(ROUNDS // 6, 5)
PAPER_SHAPE = (4, 224, 224)
PAPER_BATCHES = (1, 2, 4)
#: per-call batch sizes of the ragged mix (fixed: seeded, never drawn
#: per run)
RAGGED = tuple(
    int(size) for size in np.random.default_rng(501).integers(6, 65, 57)
)


def _peak_rss_mb() -> float:
    """This process's own peak RSS: ``VmHWM`` where ``/proc`` has it
    (it is not inherited across exec), else ``ru_maxrss``."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 2**10
    except OSError:
        pass
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


def _paper_profile() -> dict:
    """ms per image of the 224 px plan, its chunk, and b32 as one
    whole-batch op loop over ``plan.run``."""
    network = PercivalNet.paper()
    network.eval()
    plan = compile_inference(network, input_shape=PAPER_SHAPE)
    frames = np.random.default_rng(0).standard_normal(
        (BATCH, *PAPER_SHAPE)
    ).astype(np.float32)

    def whole_batch() -> None:
        x = frames
        for op in plan.ops:
            x = op.run(x)

    # per-image times first, each batch on its own: a whole-batch pass
    # frees ~300 MB, and a run right after it pays to map memory again
    profile = {
        f"paper_ms_per_image_b{batch}": measure_latency(
            lambda: plan.run(frames[:batch]), repeats=PAPER_ROUNDS
        ) / batch
        for batch in (*PAPER_BATCHES, BATCH)
    }
    whole_ms, chunked_ms = interleaved_samples_ms(
        [whole_batch, lambda: plan.run(frames)], PAPER_ROUNDS
    )
    profile["paper_chunk"] = plan.chunk
    profile["paper_chunk_speedup"] = float(
        np.median(np.divide(whole_ms, chunked_ms))
    )
    return profile


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
    profile["chunk"] = plan.chunk
    profile.update(_paper_profile())

    paper = [
        (f"224 px b{batch} (ms/image)", "-",
         profile[f"paper_ms_per_image_b{batch}"])
        for batch in (*PAPER_BATCHES, BATCH)
    ]
    report_table(paper_vs_measured(
        f"Compiled plan profile ({size} px; ragged mix of {len(RAGGED)} "
        f"batches, {min(RAGGED)}-{max(RAGGED)} frames; 224 px paper "
        f"network, {PAPER_ROUNDS} rounds)",
        [
            ("b1 (us/frame)", "-", profile["us_per_frame_b1"]),
            (f"b{BATCH} (us/frame)", "-", profile["us_per_frame_b32"]),
            ("ragged mix (us/frame)", "-",
             profile["us_per_frame_ragged"]),
            ("peak RSS growth (MB)", "-", profile["rss_growth_mb"]),
            ("chunk (frames)", "-", profile["chunk"]),
            *paper,
            ("224 px chunk (frames)", "-", profile["paper_chunk"]),
            (f"224 px b{BATCH} whole-batch / chunked (x)", "-",
             profile["paper_chunk_speedup"]),
        ],
    ))
    bench_record("plan_profile", **profile)
