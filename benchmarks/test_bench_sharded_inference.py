"""Multiprocess sharded inference vs the single-process fast path.

Not a paper figure — this regenerates the PR's own claim: scattering a
large (>= 32 frame) memo-miss batch across the worker pool must beat
the single-process batched fast path on multi-core hardware, while
matching the reference layer-by-layer path's probabilities within
1e-5.

The equivalence assertion always runs.  The throughput assertion needs
a second core (process-level sharding cannot beat the serial path on
one core, it only adds IPC) and is skipped below that.  The pool is
sized by the ``PERCIVAL_WORKERS=auto`` rule (cores - 1 workers, the
parent computing the last shard as one more lane), capped at 4.  Each
round times the serial path and the pool back to back, and the
asserted speedup is the median of the per-round ratios, so a slow
stretch of a shared host lands on both sides alike.  Timing starts
after ``WARMUP_S`` seconds of back-to-back pool calls: a virtual
machine's host may park an idle vCPU and run it at full speed only
under sustained load (on a 2-vCPU VM the ratio read ~0.9 cold and
~1.6 after one second of load), and the bulk use this pool serves is
sustained load.  CI runs this with BLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1``) so the comparison measures sharding, not
BLAS thread contention.  The speedup is recorded as
``sharded_inference.sharded_speedup`` in ``BENCH_serving.json``, where
the baseline diff gates it.

``test_sharded_decide_many`` measures the same claim where the blocker
meets it: a pooled ``PercivalBlocker.decide_many`` over 64 fresh
synthesized frames (memo cleared per call, so every frame is
fingerprinted, preprocessed and scored) against a pool-less one, with
the same warm-up and median-of-ratios method and the same >= 1.05
bound.  Pooled, every lane preprocesses its own share of the raw
bitmaps, so the ratio covers preprocessing as well as the forward
pass.  The call passes no keys, so it takes the two-phase pool path:
every lane also fingerprints its own share, and the ratio covers the
hashing too.  It is recorded as
``sharded_inference.decide_many_speedup``, next to
``sharded_inference.parallel_efficiency``: pool-less time over pooled
time times the lane count (workers + the parent), so 1.0 means every
lane's core did a full share of useful work.  The efficiency is
trend-reported by the baseline diff; the speedup gates.

Marked ``bench_smoke`` so ``scripts/bench_smoke.sh`` runs it in
seconds; ``PERCIVAL_BENCH_ROUNDS`` trims the timing repeats.
"""

import os
import time

import numpy as np
import pytest

from repro.core import InferenceWorkerPool, PercivalBlocker
from repro.eval.reporting import paper_vs_measured
from repro.serve import TrafficSpec, synthesize_traffic
from repro.utils.timing import interleaved_samples_ms

BATCH = 64
ROUNDS = int(os.environ.get("PERCIVAL_BENCH_ROUNDS", "30"))
CORES = os.cpu_count() or 1
WORKERS = min(max(CORES - 1, 1), 4)
WARMUP_S = 2.0


def _batch(classifier, count):
    rng = np.random.default_rng(0)
    size = classifier.config.input_size
    return rng.standard_normal((count, 4, size, size)).astype(np.float32)


@pytest.mark.bench_smoke
def test_sharded_equivalence(reference_classifier, report_table):
    classifier = reference_classifier
    batch = _batch(classifier, BATCH)
    tolerance = classifier.fast_path_tolerance
    reference = classifier.predict_proba_tensor(batch, fast_path=False)
    with InferenceWorkerPool(num_workers=2) as pool:
        pool.publish(classifier)
        sharded = pool.predict_proba(batch)
    max_delta = float(np.abs(sharded - reference).max())
    # workers compile from the very bytes the parent published, so the
    # sharded path must also match the parent's *fast path* — to fp32
    # resolution, at every storage precision
    fast = classifier.predict_proba_tensor(batch)
    assert np.allclose(sharded, fast, atol=1e-7, rtol=0.0)
    rows = [
        ("frames scattered", "-", BATCH),
        ("workers", "-", 2),
        ("max |p_sharded - p_ref|", f"< {tolerance:g}", max_delta),
    ]
    report_table(paper_vs_measured("Sharded inference: reference equivalence", rows))
    assert max_delta < tolerance


@pytest.mark.bench_smoke
@pytest.mark.skipif(CORES < 2, reason="sharded throughput needs a second core")
def test_sharded_throughput(reference_classifier, report_table, bench_record):
    classifier = reference_classifier
    batch = _batch(classifier, BATCH)
    rounds = max(ROUNDS, 5)

    with InferenceWorkerPool(num_workers=WORKERS) as pool:
        pool.publish(classifier)
        deadline = time.perf_counter() + WARMUP_S
        while time.perf_counter() < deadline:
            pool.predict_proba(batch)
        serial_times, sharded_times = interleaved_samples_ms(
            [
                lambda: classifier.predict_proba_tensor(batch),
                lambda: pool.predict_proba(batch),
            ],
            rounds,
        )

    speedup = float(np.median(np.divide(serial_times, sharded_times)))
    serial_throughput = BATCH / np.median(serial_times) * 1000.0
    sharded_throughput = BATCH / np.median(sharded_times) * 1000.0
    rows = [
        ("cores / workers", "-", f"{CORES} / {WORKERS}"),
        ("single-process batched (img/s)", "-", serial_throughput),
        ("sharded pool (img/s)", "-", sharded_throughput),
        ("sharded speedup (x, per round)", ">= 1.05", speedup),
    ]
    title = f"Sharded inference throughput (batch {BATCH}, {rounds} rounds)"
    report_table(paper_vs_measured(title, rows))
    bench_record("sharded_inference", sharded_speedup=speedup, workers=WORKERS)
    assert speedup >= 1.05


@pytest.mark.bench_smoke
@pytest.mark.skipif(CORES < 2, reason="sharded throughput needs a second core")
def test_sharded_decide_many(reference_classifier, report_table, bench_record):
    classifier = reference_classifier
    spec = TrafficSpec(
        seed=0, sessions=1, frames_per_session=BATCH, duplicate_fraction=0.0
    )
    frames = [event.bitmap for event in synthesize_traffic(spec)]
    rounds = max(ROUNDS, 5)
    serial = PercivalBlocker(classifier, calibrated_latency_ms=1.0)

    def fresh_call(blocker):
        def call():
            blocker.clear_memo()
            return blocker.decide_many(frames)
        return call

    with InferenceWorkerPool(num_workers=WORKERS) as pool:
        pool.publish(classifier)
        pooled = PercivalBlocker(classifier, calibrated_latency_ms=1.0, pool=pool)
        deadline = time.perf_counter() + WARMUP_S
        while time.perf_counter() < deadline:
            fresh_call(pooled)()
        serial_times, pooled_times = interleaved_samples_ms(
            [fresh_call(serial), fresh_call(pooled)], rounds
        )
        pooled_probabilities = [d.probability for d in fresh_call(pooled)()]
        assert pooled.pool_fallbacks == 0
    assert pooled.classifications > 0
    # sharding moves where a frame is scored, never its value
    assert pooled_probabilities == [
        d.probability for d in fresh_call(serial)()
    ]

    speedup = float(np.median(np.divide(serial_times, pooled_times)))
    lanes = WORKERS + 1
    efficiency = speedup / lanes
    rows = [
        ("cores / workers", "-", f"{CORES} / {WORKERS}"),
        ("pool-less decide_many (ms)", "-", float(np.median(serial_times))),
        ("pooled decide_many (ms)", "-", float(np.median(pooled_times))),
        ("decide_many speedup (x, per round)", ">= 1.05", speedup),
        (f"parallel efficiency (speedup / {lanes} lanes)", "-", efficiency),
    ]
    title = f"Sharded decide_many (batch {BATCH}, {rounds} rounds)"
    report_table(paper_vs_measured(title, rows))
    bench_record(
        "sharded_inference",
        decide_many_speedup=speedup,
        parallel_efficiency=efficiency,
    )
    assert speedup >= 1.05
