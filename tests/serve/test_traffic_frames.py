"""Serve traffic carries the decoder's frames.

PERCIVAL classifies the N32 bitmap Skia has just decoded: 8-bit RGBA.
:func:`synthesize_traffic` emits each creative as those bytes, the
``uint8`` quantization of its render, converted once when the creative
is drawn, so every event that shows it carries the one array.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.synth.adgen as adgen
import repro.synth.contentgen as contentgen
from repro.browser.codecs import _to_uint8
from repro.serve import TrafficSpec, synthesize_traffic
from repro.utils.hashing import image_fingerprint

SPEC = TrafficSpec(
    sessions=4,
    frames_per_session=8,
    duplicate_fraction=0.4,
    shared_creatives=4,
    provenance=True,
    revisits=2,
    revisit_churn=0.3,
    seed=23,
)

#: perfbench ``bulk-sharded``'s trace: ten 64-frame batches, no shared
#: creatives (``BulkSharded.prepare`` raises on a repeated frame)
BULK_SPEC = TrafficSpec(sessions=10, frames_per_session=64, duplicate_fraction=0.0)


@pytest.fixture(scope="module")
def traced():
    """The trace, and the generator's float render of every creative
    it drew, in draw order."""
    renders = []

    def recording(generate):
        def wrapper(*args, **kwargs):
            render = generate(*args, **kwargs)
            renders.append(render)
            return render

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adgen, "generate_ad", recording(adgen.generate_ad))
        patch.setattr(
            contentgen, "generate_content", recording(contentgen.generate_content)
        )
        events = synthesize_traffic(SPEC)
    return events, renders


def test_every_frame_is_uint8_rgba_of_its_render(traced):
    events, renders = traced
    quantized = {image_fingerprint(_to_uint8(render)): render for render in renders}
    for event in events:
        bitmap = event.bitmap
        assert bitmap.dtype == np.uint8
        assert bitmap.ndim == 3 and bitmap.shape[2] == 4
        render = quantized[image_fingerprint(bitmap)]
        assert render.dtype == np.float32
        np.testing.assert_array_equal(bitmap, _to_uint8(render))


def test_events_of_one_creative_share_one_array(traced):
    events, _ = traced
    first = {}
    for event in events:
        assert event.bitmap is first.setdefault(event.content_key, event.bitmap)
    # the spec exercises both sharing routes: shared creatives and revisits
    assert len(first) < len(events)
    assert any(key.startswith("s") for key in first)


def test_provenance_keeps_the_render_size(traced):
    events, renders = traced
    sizes = {image_fingerprint(_to_uint8(r)): r.shape[:2] for r in renders}
    for event in events:
        provenance = event.provenance
        height, width = sizes[image_fingerprint(event.bitmap)]
        assert (provenance.height, provenance.width) == (height, width)


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_bulk_trace_frames_stay_distinct(seed):
    """Quantizing must not merge two of ``bulk-sharded``'s frames."""
    events = synthesize_traffic(replace(BULK_SPEC, seed=seed))
    keys = {image_fingerprint(event.bitmap) for event in events}
    assert len(keys) == len(events) == 640
