"""Async-mode serving: memo-hit cost accounting + the bridge route.

Two behaviours pinned here:

* the metric fix: a memo-hit frame in async mode enqueues nothing, so
  it charges *zero* classification cost to the raster lane (previously
  every decode paid the enqueue cost, memoized or not), and
* the serve bridge: async-mode misses drain through micro-batched
  ``decide_many`` chunks after raster, with amortized virtual costs on
  the async lanes and verdicts identical to the per-frame deployment.
"""

import pytest

from repro.browser.network import MockNetwork, NetworkConfig
from repro.browser.renderer import CHROMIUM, Renderer
from repro.core import PercivalBlocker, ServeSettings
from repro.serve import RenderServeBridge
from repro.synth.webgen import SyntheticWeb, WebConfig, url_registry


@pytest.fixture(scope="module")
def small_web():
    web = SyntheticWeb(WebConfig(seed=19, num_sites=3,
                                 images_per_page=(6, 10)))
    pages = list(web.iter_pages(web.top_sites(3), pages_per_site=1))
    network = MockNetwork(url_registry(pages), NetworkConfig(seed=4))
    return pages, network


def _blocker(classifier):
    return PercivalBlocker(classifier, calibrated_latency_ms=11.0)


class TestAsyncMemoCost:
    def test_memo_hits_charge_no_enqueue_cost(
        self, small_web, untrained_classifier
    ):
        """Second visit in async mode: all verdicts come from the memo,
        so the raster lanes are charged zero classification cost and no
        async work is submitted."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(untrained_classifier)
        first = renderer.render(pages[0], percival=blocker, mode="async")
        second = renderer.render(pages[0], percival=blocker, mode="async")
        assert first.images_decoded > 0
        # first sight: every decoded frame enqueued work
        assert first.classify_cost_ms == pytest.approx(
            0.05 * first.images_decoded
        )
        assert first.async_classify_ms > 0
        # revisit: all memo hits -> no enqueue cost, no async compute
        assert second.memo_hits == second.images_decoded
        assert second.classify_cost_ms == 0.0
        assert second.async_classify_ms == 0.0

    def test_unmemoized_frames_still_pay_enqueue(
        self, small_web, untrained_classifier
    ):
        """A mixed page (some memoized, some fresh) charges exactly the
        fresh frames."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(untrained_classifier)
        renderer.render(pages[1], percival=blocker, mode="async")
        mixed = renderer.render(pages[1], percival=blocker, mode="async")
        fresh = mixed.images_decoded - mixed.memo_hits
        assert mixed.classify_cost_ms == pytest.approx(0.05 * fresh)


class TestServeBridgeRoute:
    def test_bridge_batches_misses_and_matches_per_frame_verdicts(
        self, small_web, untrained_classifier
    ):
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)

        plain_blocker = _blocker(untrained_classifier)
        plain = renderer.render(
            pages[0], percival=plain_blocker, mode="async"
        )

        bridged_blocker = _blocker(untrained_classifier)
        bridge = RenderServeBridge(
            bridged_blocker, ServeSettings(max_batch=4)
        )
        bridged = renderer.render(
            pages[0], percival=bridged_blocker, mode="async",
            serve_bridge=bridge,
        )

        # identical classification outcomes, batched execution
        assert bridged.images_decoded == plain.images_decoded
        assert bridged.flashed_ads == plain.flashed_ads
        assert bridged_blocker.classifications == plain_blocker.classifications
        assert bridge.frames_enqueued == bridged.images_decoded
        assert bridge.batches_flushed == -(-bridged.images_decoded // 4)
        # amortized batch costs land on the async lanes: strictly less
        # virtual work than one calibrated latency per frame
        assert 0 < bridged.async_classify_ms
        total_async = bridge.compute_model(1) * bridged.images_decoded
        assert bridged.async_classify_ms < total_async
        # paint path only ever pays the enqueue cost
        assert bridged.classify_cost_ms == pytest.approx(
            0.05 * bridged.images_decoded
        )

    def test_bridge_memo_shared_across_renders(
        self, small_web, untrained_classifier
    ):
        """The bridge outlives a page: a second session rendering the
        same creatives resolves entirely from the shared memo."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(untrained_classifier)
        bridge = RenderServeBridge(blocker, ServeSettings(max_batch=8))
        first = renderer.render(
            pages[2], percival=blocker, mode="async", serve_bridge=bridge
        )
        second = renderer.render(
            pages[2], percival=blocker, mode="async", serve_bridge=bridge
        )
        assert first.images_decoded > 0
        # with the diff layer on (PERCIVAL_DIFF), the revisit settles
        # from the page snapshot instead of probing the memo, and with
        # the cascade on (PERCIVAL_CASCADE) a rule may answer ahead of
        # the memo — either way every frame resolves without fresh
        # classification
        assert (
            second.memo_hits + second.rule_hits + second.diff_inherited
            == second.images_decoded
        )
        assert second.classify_cost_ms == 0.0
        assert second.async_classify_ms == 0.0
        assert bridge.depth == 0

    def test_bridge_rejected_in_sync_mode(
        self, small_web, untrained_classifier
    ):
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(untrained_classifier)
        bridge = RenderServeBridge(blocker)
        with pytest.raises(ValueError, match="async"):
            renderer.render(
                pages[0], percival=blocker, mode="sync",
                serve_bridge=bridge,
            )
