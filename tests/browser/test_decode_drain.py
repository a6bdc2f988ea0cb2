"""The batched image-decode drain: semantics vs the per-frame path.

The sync-mode drain classifies a page's frames in one batched forward;
the raster metrics must be bit-identical to rastering the same page
with the blocker's per-frame hook (raster still charges decode +
classification per image).
"""

import numpy as np
import pytest

from repro.browser.codecs import ImageFormat, encode_image
from repro.browser.display_list import build_display_list
from repro.browser.html import parse_html
from repro.browser.layout import build_layout_tree
from repro.browser.network import MockNetwork, NetworkConfig
from repro.browser.raster import RasterConfig, rasterize
from repro.browser.renderer import CHROMIUM, Renderer
from repro.browser.skia import BitmapImage
from repro.core import PercivalBlocker
from repro.synth.webgen import SyntheticWeb, WebConfig, url_registry


@pytest.fixture(scope="module")
def small_web():
    web = SyntheticWeb(WebConfig(seed=7, num_sites=3,
                                 images_per_page=(6, 10)))
    pages = list(web.iter_pages(web.top_sites(3), pages_per_site=1))
    network = MockNetwork(url_registry(pages), NetworkConfig(seed=2))
    return pages, network


def _per_frame_raster(page, network, blocker):
    """Raster ``page`` under CHROMIUM with ``blocker.classify_bitmap``
    as the hook: every frame classified on its own decode."""
    document = parse_html(page.html, url=page.url)
    images = {
        node.src: BitmapImage(network.fetch(node.src))
        for node in document.resource_elements()
        if network.has(node.src)
    }
    layout_root = build_layout_tree(document)
    return rasterize(
        build_display_list(layout_root),
        layout_root.height,
        images,
        config=RasterConfig(num_workers=CHROMIUM.raster_threads),
        percival_hook=blocker.classify_bitmap,
        classify_cost_ms=lambda url: blocker.classify_cost_ms(
            images[url].sk_image.info
        ),
    )


def _assert_drain_matches_per_frame(renderer, network, page, classifier):
    batched = PercivalBlocker(classifier, calibrated_latency_ms=11.0)
    fast = renderer.render(page, percival=batched, mode="sync")
    reference = _per_frame_raster(page, network, PercivalBlocker(
        classifier, calibrated_latency_ms=11.0
    ))
    assert reference.images_decoded > 0
    assert fast.raster_ms == pytest.approx(reference.makespan_ms)
    assert fast.classify_cost_ms == pytest.approx(
        reference.classify_cost_ms
    )
    assert fast.images_blocked_by_percival == reference.images_blocked
    assert fast.images_decoded == reference.images_decoded


class TestBatchedDrain:
    def test_sync_metrics_match_per_frame_path(self, small_web,
                                               untrained_classifier,
                                               flag_all_classifier):
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        # one classifier that passes every frame, one that blocks all
        for classifier in (untrained_classifier, flag_all_classifier):
            for page in pages:
                _assert_drain_matches_per_frame(
                    renderer, network, page, classifier
                )

    def test_drain_classifies_in_one_batch(self, small_web,
                                           untrained_classifier, rng):
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = PercivalBlocker(untrained_classifier,
                                  calibrated_latency_ms=11.0)
        calls = []
        original = untrained_classifier.predict_proba_tensor

        def counting(tensors, *args, **kwargs):
            calls.append(tensors.shape[0])
            return original(tensors, *args, **kwargs)

        untrained_classifier.predict_proba_tensor = counting
        try:
            metrics = renderer.render(pages[0], percival=blocker,
                                      mode="sync")
        finally:
            untrained_classifier.predict_proba_tensor = original
        assert metrics.images_decoded > 1
        # all unique frames of the page classified in a single batch
        assert len(calls) == 1
        assert calls[0] == blocker.classifications


class TestTwoPhaseDecode:
    def _bitmap_image(self, rng):
        pixels = rng.random((6, 6, 4)).astype(np.float32)
        return BitmapImage(encode_image(pixels, ImageFormat.RAW))

    def test_decode_only_then_block(self, rng):
        image = self._bitmap_image(rng)
        pixels = image.decode_only()
        assert image.is_decoded
        assert not image.blocked
        assert pixels.any()
        image.apply_verdict(True)
        assert image.blocked
        assert not image.ensure_decoded().any()  # buffer cleared

    def test_decode_only_then_pass(self, rng):
        image = self._bitmap_image(rng)
        image.decode_only()
        image.apply_verdict(False)
        assert not image.blocked
        assert image.ensure_decoded().any()

    def test_apply_verdict_requires_decode(self, rng):
        image = self._bitmap_image(rng)
        with pytest.raises(RuntimeError):
            image.apply_verdict(True)

    def test_verdict_cannot_unblock(self, rng):
        image = self._bitmap_image(rng)
        image.decode_only()
        image.apply_verdict(True)
        image.apply_verdict(False)
        assert image.blocked
