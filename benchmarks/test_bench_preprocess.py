"""Frame preprocessing: the bilinear kernel against scipy's zoom.

Not a paper figure — this regenerates the preprocessing claim in
``docs/inference.md``: ``preprocess_batch`` (a gather kernel that
reproduces ``scipy.ndimage.zoom(order=1, mode="nearest")`` bit for bit,
writing each frame straight into the NCHW batch) produces exactly the
tensors of the scipy-based pipeline it replaced, at least 2x faster.

The frames are one 64-frame bulk call's worth of synthesized traffic
(the shapes a crawl's ``decide_many`` sees).  The traffic's frames are
decoded ``uint8`` bytes; the kernel check converts them to floats once,
untimed, with preprocessing's own expression, so it times the float
kernel against the float scipy pipeline.  Both sides are timed in
interleaved best-of rounds, so a slow stretch of a shared host lands on
both alike.

``test_decoded_frame_path`` sends the traffic's ``uint8`` frames
through the wire formats their URLs pick (``format_for_url``) and
back, and records what one decoded frame costs to hold, decode,
fingerprint and preprocess (trend-only), after checking its tensors
against the float path's.

Marked ``bench_smoke``; ``PERCIVAL_BENCH_ROUNDS`` trims the rounds.
"""

import os

import numpy as np
import pytest
from scipy import ndimage

from repro.browser.codecs import decode_image, encode_image, format_for_url
from repro.core.preprocessing import preprocess_batch
from repro.eval.reporting import paper_vs_measured
from repro.serve import TrafficSpec, synthesize_traffic
from repro.utils.hashing import image_fingerprint
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


def _events():
    """The 64 frames, with provenance for their URLs (the bitmaps are
    the same with provenance on or off)."""
    events = synthesize_traffic(TrafficSpec(
        seed=501, sessions=1, frames_per_session=BATCH,
        duplicate_fraction=0.0, provenance=True,
    ))
    assert len(events) == BATCH
    return events


@pytest.mark.bench_smoke
def test_preprocess_kernel(reference_classifier, report_table, bench_record):
    size = reference_classifier.config.input_size
    bitmaps = [event.bitmap.astype(np.float32) / 255.0 for event in _events()]

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


@pytest.mark.bench_smoke
def test_decoded_frame_path(reference_classifier, report_table, bench_record):
    size = reference_classifier.config.input_size
    encoded = [
        encode_image(event.bitmap, format_for_url(event.provenance.url))
        for event in _events()
    ]
    frames = [decode_image(image) for image in encoded]
    assert all(frame.dtype == np.uint8 for frame in frames)
    floats = [frame.astype(np.float32) / 255.0 for frame in frames]
    np.testing.assert_array_equal(
        preprocess_batch(frames, size).view(np.uint32),
        preprocess_batch(floats, size).view(np.uint32),
    )

    rounds = max(ROUNDS, 5)
    decode_ms, fingerprint_ms, preprocess_ms = map(min, interleaved_samples_ms(
        [lambda: [decode_image(image) for image in encoded],
         lambda: [image_fingerprint(frame) for frame in frames],
         lambda: preprocess_batch(frames, size)],
        rounds,
    ))
    per_frame = {
        "bytes_per_frame": sum(frame.nbytes for frame in frames) / BATCH,
        "decode_us": decode_ms * 1e3 / BATCH,
        "fingerprint_us": fingerprint_ms * 1e3 / BATCH,
        "preprocess_us": preprocess_ms * 1e3 / BATCH,
    }
    report_table(paper_vs_measured(
        f"One decoded uint8 frame ({BATCH} frames, "
        f"{len({image.format for image in encoded})} wire formats -> "
        f"{size} px, {rounds} rounds)",
        [(name, "-", value) for name, value in per_frame.items()],
    ))
    bench_record("decoded_frame", **per_frame)
