"""Renderer-side incremental re-classification (the diff layer).

The contract pinned here, in both deployment modes:

* visit 1 classifies every frame and commits a page snapshot; visit 2
  inherits every unchanged region — zero classification cost, zero
  model calls — and the inherited verdicts are bit-identical to what a
  diff-free revisit computes,
* inherited-blocked frames never decode (the §6 collapse economics,
  now applied page-wide), while inherited-allowed frames still pay
  their decode cost — only classification is skipped,
* sessions are isolated: one session's snapshot never answers another
  session's page.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.browser.network import MockNetwork, NetworkConfig
from repro.browser.renderer import CHROMIUM, Renderer
from repro.core import (
    AdClassifier,
    PercivalBlocker,
    PercivalConfig,
    ServeSettings,
)
from repro.core.revisit import RevisitMemory
from repro.diff import FrameDiffer
from repro.serve import RenderServeBridge
from repro.synth.webgen import SyntheticWeb, WebConfig, url_registry


@pytest.fixture(scope="module")
def small_web():
    web = SyntheticWeb(WebConfig(seed=47, num_sites=4,
                                 images_per_page=(6, 10)))
    pages = [web.build_page(s) for s in web.top_sites(4)]
    network = MockNetwork(url_registry(pages), NetworkConfig(seed=7))
    return pages, network


def _blocker(classifier):
    return PercivalBlocker(classifier, calibrated_latency_ms=11.0)


class TestSyncDiff:
    def test_second_visit_inherits_everything(
        self, small_web, reference_classifier
    ):
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(reference_classifier)
        differ = FrameDiffer()
        first = renderer.render(pages[0], percival=blocker, mode="sync",
                                differ=differ)
        assert first.diff_inherited == 0
        assert first.diff_reclassified == first.images_decoded > 0
        second = renderer.render(pages[0], percival=blocker, mode="sync",
                                 differ=differ)
        # the whole page settles from the snapshot: no classification
        assert second.diff_inherited == first.diff_reclassified
        assert second.diff_reclassified == 0
        assert second.classify_cost_ms == 0.0
        assert second.memo_hits == 0  # settled before the memo tier
        assert second.images_decoded == first.images_decoded
        assert differ.stats.recall_hits == second.diff_inherited

    def test_inherited_verdicts_match_the_diff_free_revisit(
        self, small_web, reference_classifier
    ):
        """Same warm blocker, same page: the diff-on revisit blocks
        exactly the frames the diff-off (memo) revisit blocks."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)

        plain_blocker = _blocker(reference_classifier)
        renderer.render(pages[1], percival=plain_blocker, mode="sync")
        plain = renderer.render(pages[1], percival=plain_blocker,
                                mode="sync")

        diff_blocker = _blocker(reference_classifier)
        differ = FrameDiffer()
        renderer.render(pages[1], percival=diff_blocker, mode="sync",
                        differ=differ)
        inherited = renderer.render(pages[1], percival=diff_blocker,
                                    mode="sync", differ=differ)
        assert (inherited.images_blocked_by_percival
                == plain.images_blocked_by_percival)
        assert inherited.flashed_ads == plain.flashed_ads == 0

    def test_sessions_are_isolated(self, small_web, reference_classifier):
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(reference_classifier)
        differ = FrameDiffer()
        renderer.render(pages[2], percival=blocker, mode="sync",
                        differ=differ, session_id="alice")
        other = renderer.render(pages[2], percival=blocker, mode="sync",
                                differ=differ, session_id="bob")
        # bob never inherits alice's snapshot (the memo still answers,
        # but the diff layer itself reports a first visit)
        assert other.diff_inherited == 0
        assert other.diff_reclassified > 0

    def test_removed_then_readded_region_reclassifies(
        self, small_web, reference_classifier
    ):
        """A visit's commit replaces the page's snapshot: a region gone
        on visit 2 is forgotten, so its return on visit 3 reclassifies
        while every region that stayed still inherits."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(reference_classifier)
        differ = FrameDiffer()
        page = pages[0]
        first = renderer.render(page, percival=blocker, mode="sync",
                                differ=differ)
        removed = next(iter(differ.store.get("local", page.url)))
        without = replace(page, elements=[
            element for element in page.elements if element.url != removed
        ])
        second = renderer.render(without, percival=blocker, mode="sync",
                                 differ=differ)
        assert second.diff_inherited == first.diff_reclassified - 1
        assert second.diff_reclassified == 0
        third = renderer.render(page, percival=blocker, mode="sync",
                                differ=differ)
        assert third.diff_inherited == first.diff_reclassified - 1
        assert third.diff_reclassified == 1
        assert (third.images_blocked_by_percival
                == first.images_blocked_by_percival)

    def test_reloaded_weights_never_serve_a_stored_verdict(
        self, small_web, reference_classifier, tmp_path
    ):
        """Snapshots are generation-keyed like the blocker's memo: once
        the classifier loads other weights, the revisit re-classifies
        every region and blocks what those weights block."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        weights = str(tmp_path / "reference.npz")
        reference_classifier.save(weights)
        classifier = AdClassifier(PercivalConfig())
        blocker = _blocker(classifier)
        differ = FrameDiffer()
        first = renderer.render(pages[1], percival=blocker, mode="sync",
                                differ=differ)
        classifier.load(weights)
        second = renderer.render(pages[1], percival=blocker, mode="sync",
                                 differ=differ)
        expected = renderer.render(
            pages[1], percival=_blocker(reference_classifier), mode="sync"
        )
        assert second.diff_inherited == 0
        assert second.diff_reclassified == first.diff_reclassified
        assert (second.images_blocked_by_percival
                == expected.images_blocked_by_percival
                != first.images_blocked_by_percival)

    def test_no_differ_is_the_pre_diff_path(
        self, small_web, reference_classifier
    ):
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(reference_classifier)
        metrics = renderer.render(pages[3], percival=blocker, mode="sync")
        assert metrics.diff_inherited == 0
        assert metrics.diff_reclassified == 0

    def test_settled_blocked_frames_skip_decode_at_raster(self, rng):
        """A region settled as blocked paints a cleared buffer and
        never decodes; a settled-allowed region still pays its decode
        (only classification is skipped)."""
        from repro.browser.codecs import ImageFormat, encode_image
        from repro.browser.display_list import (
            DisplayItem,
            DisplayItemKind,
        )
        from repro.browser.raster import RasterConfig, rasterize
        from repro.browser.skia import BitmapImage

        def _image():
            pixels = rng.random((8, 8, 4)).astype(np.float32)
            return BitmapImage(encode_image(pixels, ImageFormat.RAW))

        blocked, allowed = _image(), _image()
        blocked.settle_verdict(True)
        allowed.settle_verdict(False)  # defers: decode happens at paint
        items = [
            DisplayItem(DisplayItemKind.IMAGE, 0, 0, 10, 10, url="b"),
            DisplayItem(DisplayItemKind.IMAGE, 0, 300, 10, 10, url="a"),
        ]
        result = rasterize(
            items, 600, {"b": blocked, "a": allowed},
            RasterConfig(num_workers=1),
            percival_hook=lambda b, i: pytest.fail(
                "settled frames must never reach the hook"
            ),
            settled_urls={"b", "a"},
        )
        assert result.images_settled == 2
        assert result.images_blocked == 1
        assert blocked.blocked and np.all(blocked.decode_only() == 0)
        assert allowed.is_decoded and not allowed.blocked
        # only the allowed frame's decode was charged
        assert result.decode_cost_ms > 0
        assert result.classify_cost_ms == 0.0

    def test_revisit_memory_composes_with_the_differ(
        self, small_web, reference_classifier
    ):
        """With both layers on, the §6 memory collapses blocked slots
        pre-layout and the differ inherits whatever still paints —
        nothing is classified twice and nothing double-counts."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(reference_classifier)
        differ = FrameDiffer()
        memory = RevisitMemory()
        first = renderer.render(pages[1], percival=blocker, mode="sync",
                                differ=differ, revisit_memory=memory,
                                session_id="combo")
        second = renderer.render(pages[1], percival=blocker, mode="sync",
                                 differ=differ, revisit_memory=memory,
                                 session_id="combo")
        assert (second.elements_collapsed_by_memory
                == first.images_blocked_by_percival)
        # the collapsed slots never reach the display list, so the
        # differ only sees (and inherits) the surviving regions
        assert second.diff_reclassified == 0
        assert second.classify_cost_ms == 0.0


class TestAsyncBridgeDiff:
    def test_bridge_differ_settles_the_revisit(
        self, small_web, untrained_classifier
    ):
        """The bridge's own differ is picked up without an explicit
        ``differ=`` argument; the revisit settles from the snapshot
        before the memo is ever probed."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(untrained_classifier)
        bridge = RenderServeBridge(
            blocker, ServeSettings(max_batch=8), differ=FrameDiffer()
        )
        first = renderer.render(pages[2], percival=blocker, mode="async",
                                serve_bridge=bridge)
        second = renderer.render(pages[2], percival=blocker, mode="async",
                                 serve_bridge=bridge)
        assert first.images_decoded > 0
        assert second.diff_inherited == first.images_decoded
        assert second.memo_hits == 0  # settled before the memo tier
        assert second.classify_cost_ms == 0.0
        assert second.async_classify_ms == 0.0
        assert bridge.depth == 0

    def test_bridge_differ_drops_verdicts_of_replaced_weights(
        self, small_web, untrained_classifier, tmp_path
    ):
        """The bridge-owned differ follows the same generation rule:
        after ``classifier.load`` the revisit settles nothing from the
        snapshot, and the drain-time commit refills it under the new
        weights."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        weights = str(tmp_path / "untrained.npz")
        untrained_classifier.save(weights)
        classifier = AdClassifier(PercivalConfig(seed=5))
        blocker = _blocker(classifier)
        bridge = RenderServeBridge(
            blocker, ServeSettings(max_batch=8), differ=FrameDiffer()
        )
        first = renderer.render(pages[0], percival=blocker, mode="async",
                                serve_bridge=bridge)
        classifier.load(weights)
        second = renderer.render(pages[0], percival=blocker, mode="async",
                                 serve_bridge=bridge)
        third = renderer.render(pages[0], percival=blocker, mode="async",
                                serve_bridge=bridge)
        assert second.diff_inherited == 0
        assert second.diff_reclassified == first.diff_reclassified > 0
        assert third.diff_inherited == first.diff_reclassified
        assert third.diff_reclassified == 0

    def test_async_snapshot_records_drain_time_decisions(
        self, small_web, untrained_classifier
    ):
        """Async mode classifies at drain time — the snapshot commit
        back-fills those verdicts from the memo, so every decoded
        region is stored with a full decision for visit 2."""
        pages, network = small_web
        renderer = Renderer(CHROMIUM, network)
        blocker = _blocker(untrained_classifier)
        differ = FrameDiffer()
        bridge = RenderServeBridge(
            blocker, ServeSettings(max_batch=8), differ=differ
        )
        metrics = renderer.render(pages[3], percival=blocker, mode="async",
                                  serve_bridge=bridge)
        snapshot = differ.store.get("local", pages[3].url)
        assert snapshot is not None
        assert len(snapshot) == metrics.images_decoded > 0
