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

Marked ``bench_smoke`` so ``scripts/bench_smoke.sh`` runs it in
seconds; ``PERCIVAL_BENCH_ROUNDS`` trims the timing repeats.
"""

import os
import time

import numpy as np
import pytest

from repro.core import InferenceWorkerPool
from repro.eval.reporting import paper_vs_measured
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
                lambda: classifier.predict_proba_tensor(batch, batch_size=BATCH),
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
