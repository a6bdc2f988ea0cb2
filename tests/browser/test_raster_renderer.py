"""Raster scheduling and the end-to-end renderer."""

import numpy as np
import pytest

from repro.browser.codecs import ImageFormat, encode_image
from repro.browser.display_list import DisplayItem, DisplayItemKind
from repro.browser.network import MockNetwork, NetworkConfig
from repro.browser.raster import RasterConfig, rasterize
from repro.browser.renderer import BRAVE, CHROMIUM, Renderer
from repro.browser.skia import BitmapImage
from repro.core import PercivalBlocker
from repro.synth.webgen import SyntheticWeb, WebConfig, url_registry


@pytest.fixture(scope="module")
def small_web():
    web = SyntheticWeb(WebConfig(seed=42, num_sites=4,
                                 images_per_page=(6, 10)))
    pages = list(web.iter_pages(web.top_sites(4), pages_per_site=1))
    network = MockNetwork(url_registry(pages), NetworkConfig(seed=1))
    return pages, network


def _bitmap_image(rng, h=8, w=8):
    pixels = rng.random((h, w, 4)).astype(np.float32)
    return BitmapImage(encode_image(pixels, ImageFormat.RAW))


class TestRasterize:
    def test_decode_charged_once(self, rng):
        image = _bitmap_image(rng)
        items = [
            DisplayItem(DisplayItemKind.IMAGE, 0, 0, 10, 10, url="u"),
            DisplayItem(DisplayItemKind.IMAGE, 0, 300, 10, 10, url="u"),
        ]
        result = rasterize(items, 600, {"u": image},
                           RasterConfig(num_workers=1))
        assert result.images_decoded == 1

    def test_classification_cost_on_lane(self, rng):
        image = _bitmap_image(rng)
        items = [DisplayItem(DisplayItemKind.IMAGE, 0, 0, 10, 10, url="u")]
        base = rasterize(
            items, 256, {"u": _bitmap_image(rng)},
            RasterConfig(num_workers=1),
        )
        with_hook = rasterize(
            items, 256, {"u": image}, RasterConfig(num_workers=1),
            percival_hook=lambda b, i: False,
            classify_cost_ms=lambda url: 11.0,
        )
        assert with_hook.makespan_ms == pytest.approx(
            base.makespan_ms + 11.0
        )
        assert with_hook.classify_cost_ms == 11.0

    def test_blocking_counted(self, rng):
        image = _bitmap_image(rng)
        items = [DisplayItem(DisplayItemKind.IMAGE, 0, 0, 10, 10, url="u")]
        result = rasterize(
            items, 256, {"u": image}, RasterConfig(num_workers=1),
            percival_hook=lambda b, i: True,
        )
        assert result.images_blocked == 1
        assert image.blocked

    def test_parallel_lanes_reduce_makespan(self, rng):
        items = [
            DisplayItem(DisplayItemKind.IMAGE, 0, 300 * k, 10, 10,
                        url=f"u{k}")
            for k in range(4)
        ]
        images = {f"u{k}": _bitmap_image(rng) for k in range(4)}
        serial = rasterize(items, 1200, dict(images),
                           RasterConfig(num_workers=1),
                           percival_hook=lambda b, i: False,
                           classify_cost_ms=lambda url: 10.0)
        images2 = {f"u{k}": _bitmap_image(rng) for k in range(4)}
        parallel = rasterize(items, 1200, images2,
                             RasterConfig(num_workers=4),
                             percival_hook=lambda b, i: False,
                             classify_cost_ms=lambda url: 10.0)
        assert parallel.makespan_ms < serial.makespan_ms

    def test_tile_count(self, rng):
        result = rasterize([], 1000, {}, RasterConfig(tile_height=256))
        assert result.tiles == 4


class TestMockNetwork:
    def test_fetch_returns_encoded(self, small_web):
        pages, network = small_web
        url = pages[0].image_elements()[0].url
        encoded = network.fetch(url)
        assert encoded.byte_size > 0

    def test_fetch_cached(self, small_web):
        pages, network = small_web
        url = pages[0].image_elements()[0].url
        assert network.fetch(url) is network.fetch(url)

    def test_unknown_url_raises(self, small_web):
        _, network = small_web
        with pytest.raises(KeyError):
            network.fetch("https://nowhere.example/x.png")

    def test_cost_deterministic_per_url(self, small_web):
        pages, network = small_web
        url = pages[0].image_elements()[0].url
        encoded = network.fetch(url)
        assert network.request_cost_ms(url, encoded) == pytest.approx(
            network.request_cost_ms(url, encoded)
        )

    def test_parallel_fetch_less_than_serial(self, small_web):
        pages, network = small_web
        urls = [e.url for e in pages[0].image_elements()]
        makespan = network.fetch_all_cost_ms(urls)
        serial = sum(
            network.request_cost_ms(u, network.fetch(u)) for u in urls
        )
        assert makespan <= serial


class TestRenderer:
    def test_baseline_render_metrics(self, small_web):
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        metrics = renderer.render(pages[0])
        assert metrics.render_time_ms > 0
        assert metrics.images_total == len(pages[0].image_elements())
        assert metrics.images_blocked_by_percival == 0

    def test_brave_blocks_requests(self, small_web):
        pages, network = small_web
        renderer = Renderer(BRAVE, network)
        metrics = renderer.render(pages[0])
        assert metrics.images_blocked_by_list > 0
        assert metrics.images_decoded < metrics.images_total

    def test_brave_faster_than_chromium(self, small_web):
        pages, network = small_web
        chromium_times = [
            Renderer(CHROMIUM, network).render(p).render_time_ms
            for p in pages
        ]
        brave_times = [
            Renderer(BRAVE, network).render(p).render_time_ms
            for p in pages
        ]
        assert np.median(brave_times) < np.median(chromium_times)

    def test_sync_percival_adds_overhead(self, small_web,
                                         untrained_classifier):
        pages, network = small_web
        blocker = PercivalBlocker(untrained_classifier,
                                  calibrated_latency_ms=11.0)
        renderer = Renderer(CHROMIUM, network)
        base = renderer.render(pages[0]).render_time_ms
        treated = renderer.render(pages[0], percival=blocker, mode="sync")
        assert treated.render_time_ms > base
        assert treated.classify_cost_ms > 0

    def test_async_mode_does_not_block_paint(self, small_web,
                                             flag_all_classifier):
        pages, network = small_web
        blocker = PercivalBlocker(flag_all_classifier,
                                  calibrated_latency_ms=11.0)
        renderer = Renderer(CHROMIUM, network)
        metrics = renderer.render(pages[0], percival=blocker, mode="async")
        # nothing blocked this paint; everything flagged as flashed
        assert metrics.images_blocked_by_percival == 0
        assert metrics.flashed_ads == metrics.images_decoded
        assert metrics.async_classify_ms > 0

    def test_invalid_mode_rejected(self, small_web):
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        with pytest.raises(ValueError):
            renderer.render(pages[0], mode="eventually")

    def test_metrics_components_sum(self, small_web):
        pages, network = small_web
        metrics = Renderer(CHROMIUM, network).render(pages[0])
        total = (
            metrics.fetch_html_ms + metrics.parse_ms + metrics.script_ms
            + metrics.style_ms + metrics.image_fetch_ms
            + metrics.layout_ms + metrics.display_list_ms
            + metrics.raster_ms
        )
        assert metrics.render_time_ms == pytest.approx(total)
