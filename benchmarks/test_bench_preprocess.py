"""Frame preprocessing: the bilinear kernel against scipy's zoom.

Not a paper figure — this regenerates the preprocessing claim in
``docs/inference.md``: ``preprocess_batch`` (a gather kernel that
reproduces ``scipy.ndimage.zoom(order=1, mode="nearest")`` bit for bit,
writing each frame straight into the NCHW batch) produces exactly the
tensors of the scipy-based pipeline it replaced, at least 2x faster.

The frames are one 64-frame bulk call's worth of synthesized traffic
(the shapes a crawl's ``decide_many`` sees).  Both sides are timed in
interleaved best-of rounds, so a slow stretch of a shared host lands on
both alike.

Marked ``bench_smoke``; ``PERCIVAL_BENCH_ROUNDS`` trims the rounds.
"""

import os

import numpy as np
import pytest
from scipy import ndimage

from repro.core.preprocessing import preprocess_batch
from repro.eval.reporting import paper_vs_measured
from repro.serve import TrafficSpec, synthesize_traffic
from repro.utils.timing import interleaved_samples_ms

BATCH = 64
ROUNDS = int(os.environ.get("PERCIVAL_BENCH_ROUNDS", "30"))


def _scipy_preprocess_batch(bitmaps, size):
    """The pipeline as it ran on ``scipy.ndimage.zoom``: zoom, clip,
    transpose to CHW, center, then stack."""
    tensors = []
    for bitmap in bitmaps:
        if bitmap.shape[:2] == (size, size):
            resized = bitmap.astype(np.float32)
        else:
            zoom = (size / bitmap.shape[0], size / bitmap.shape[1], 1.0)
            resized = ndimage.zoom(bitmap, zoom, order=1, mode="nearest")
            resized = np.clip(resized, 0.0, 1.0).astype(np.float32)
        tensor = resized.transpose(2, 0, 1).astype(np.float32)
        tensors.append((tensor - 0.5) * 2.0)
    return np.stack(tensors)


@pytest.mark.bench_smoke
def test_preprocess_kernel(reference_classifier, report_table, bench_record):
    size = reference_classifier.config.input_size
    events = synthesize_traffic(TrafficSpec(
        seed=501, sessions=1, frames_per_session=BATCH,
        duplicate_fraction=0.0,
    ))
    bitmaps = [event.bitmap for event in events]
    assert len(bitmaps) == BATCH

    kernel = preprocess_batch(bitmaps, size)
    scipy = _scipy_preprocess_batch(bitmaps, size)
    assert kernel.shape == scipy.shape == (BATCH, 4, size, size)
    np.testing.assert_array_equal(kernel.view(np.uint32),
                                  scipy.view(np.uint32))

    rounds = max(ROUNDS, 5)
    kernel_ms, scipy_ms = map(min, interleaved_samples_ms(
        [lambda: preprocess_batch(bitmaps, size),
         lambda: _scipy_preprocess_batch(bitmaps, size)],
        rounds,
    ))
    speedup = scipy_ms / kernel_ms
    assert speedup >= 2.0

    rows = [
        ("scipy zoom pipeline (us/frame)", "-", scipy_ms * 1e3 / BATCH),
        ("gather kernel (us/frame)", "-", kernel_ms * 1e3 / BATCH),
        ("speedup (x)", ">= 2", speedup),
    ]
    report_table(paper_vs_measured(
        f"Preprocessing, bitwise-equal output ({BATCH} frames -> "
        f"{size} px, {rounds} rounds)",
        rows,
    ))
    bench_record(
        "preprocess_kernel",
        scipy_us_per_frame=scipy_ms * 1e3 / BATCH,
        kernel_us_per_frame=kernel_ms * 1e3 / BATCH,
        speedup=speedup,
    )
