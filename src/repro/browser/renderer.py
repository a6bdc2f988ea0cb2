"""The renderer process: full pipeline with virtual-clock metrics.

Orchestrates fetch -> parse -> (shields) -> layout -> display list ->
raster for one page and reports ``domComplete - domLoading`` — the
render-time metric of §5.7.  Two browser profiles are provided:

* :data:`CHROMIUM` — no list-based blocking; every resource loads.
* :data:`BRAVE` — shields on: the synthetic EasyList blocks ad requests
  before fetch and hides matching elements before layout, and blocked
  ad/tracker script work is reflected as a lower script-cost multiplier.
  This is why Brave's *baseline* is much faster, and consequently why a
  fixed per-image classification cost is a larger *fraction* there
  (Figure 15's 4.55% vs 19.07% asymmetry).

PERCIVAL attaches as a :class:`~repro.core.blocker.PercivalBlocker`, in
one of two modes (§1.1):

* ``mode="sync"`` — classification runs on the raster lane before the
  frame paints (blocking deployment; adds render latency).  The page's
  frames decode up front and classify in one ``decide_many`` batch;
  ``classify_bitmap`` is the raster hook for any frame the batch missed.
* ``mode="async"`` — frames paint immediately while classification runs
  off the critical path; each frame is fingerprinted once, probed in
  the blocker's memo and, on a miss, classified with ``decide``, so the
  ad is blocked on the *next* encounter.  Ads that painted before their
  verdict are counted as ``flashed_ads``.  A
  :class:`~repro.serve.session.RenderServeBridge` may take the misses
  instead, classifying them in batches after raster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.browser.display_list import (
    DisplayItem,
    DisplayItemKind,
    build_display_list,
)
from repro.browser.html import parse_html
from repro.browser.layout import VIEWPORT_HEIGHT, build_layout_tree
from repro.browser.network import MockNetwork
from repro.browser.raster import RasterConfig, rasterize
from repro.browser.skia import BitmapImage, SkImageInfo
from repro.filterlist.engine import FilterEngine
from repro.synth.webgen import Page
from repro.utils.clock import WorkerLanes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.blocker import BlockDecision, PercivalBlocker
    from repro.core.revisit import RevisitMemory
    from repro.diff.differ import FrameDiffer
    from repro.serve.session import RenderServeBridge


#: virtual cost of handing one frame to the async classification queue
#: (the paint-path work is only the enqueue; compute happens off-lane)
_ASYNC_ENQUEUE_COST_MS = 0.05


@dataclass
class BrowserProfile:
    """Static configuration of a browser build."""

    name: str
    raster_threads: int = 4
    script_cost_multiplier: float = 1.0
    script_base_cost_ms: float = 2400.0
    parse_cost_per_char_ms: float = 0.002
    layout_cost_per_node_ms: float = 0.12
    style_cost_per_node_ms: float = 0.05
    display_item_cost_ms: float = 0.02
    filter_engine: Optional[FilterEngine] = None


def _brave_profile() -> BrowserProfile:
    # imported lazily to avoid a hard import cycle at module load
    from repro.filterlist.easylist import default_easylist

    return BrowserProfile(
        name="brave",
        script_cost_multiplier=0.25,
        filter_engine=default_easylist(),
    )


CHROMIUM = BrowserProfile(name="chromium")
BRAVE = _brave_profile()


@dataclass
class RenderMetrics:
    """Per-page outcome: timings (virtual ms) and blocking counts."""

    url: str
    dom_loading_ms: float
    dom_complete_ms: float
    fetch_html_ms: float = 0.0
    script_ms: float = 0.0
    parse_ms: float = 0.0
    style_ms: float = 0.0
    layout_ms: float = 0.0
    display_list_ms: float = 0.0
    image_fetch_ms: float = 0.0
    raster_ms: float = 0.0
    classify_cost_ms: float = 0.0
    async_classify_ms: float = 0.0
    images_total: int = 0
    images_blocked_by_list: int = 0
    images_blocked_by_percival: int = 0
    images_decoded: int = 0
    elements_hidden: int = 0
    elements_collapsed_by_memory: int = 0
    flashed_ads: int = 0
    memo_hits: int = 0
    #: frames answered by the serve bridge's cascade rule tiers
    #: (structural verdict from provenance; no memo probe, no batch)
    rule_hits: int = 0
    #: frames that settled from the page's snapshot (diff layer):
    #: unchanged since the last visit, so the stored verdict applied
    #: before any decode or classification
    diff_inherited: int = 0
    #: frames the diff layer routed down the classification pipeline
    #: (changed/added regions, or no usable snapshot)
    diff_reclassified: int = 0

    @property
    def render_time_ms(self) -> float:
        """The paper's metric: domComplete - domLoading."""
        return self.dom_complete_ms - self.dom_loading_ms


class Renderer:
    """Renders synthetic pages under a browser profile."""

    def __init__(
        self,
        profile: BrowserProfile,
        network: MockNetwork,
        raster_config: Optional[RasterConfig] = None,
    ) -> None:
        self.profile = profile
        self.network = network
        self.raster_config = raster_config or RasterConfig(
            num_workers=profile.raster_threads
        )

    def render(
        self,
        page: Page,
        percival: Optional["PercivalBlocker"] = None,
        mode: str = "sync",
        revisit_memory: Optional["RevisitMemory"] = None,
        serve_bridge: Optional["RenderServeBridge"] = None,
        differ: Optional["FrameDiffer"] = None,
        session_id: str = "",
    ) -> RenderMetrics:
        """Render one page; returns its metrics.

        ``percival=None`` renders the baseline configuration.  With a
        ``revisit_memory``, elements whose resources PERCIVAL blocked on
        a previous visit are hidden *before layout* — the §6 fix for
        dangling slots: the container collapses and neither fetch nor
        decode nor classification is paid again.

        ``serve_bridge`` (async mode only) routes memo-missed decodes
        through the micro-batching serving layer
        (:class:`repro.serve.RenderServeBridge`): frames enqueue during
        raster and classify in batched chunks at drain time, so many
        page sessions share one blocker's batches and memo.

        ``differ`` (or, when omitted, the serve bridge's own differ)
        turns revisits incremental: before any decode, each image
        region is recalled from the session's snapshot of the page, and
        a region with unchanged encoded bytes settles from its stored
        verdict — only the delta reaches the classification pipeline.
        After raster the visit's settled verdicts replace the snapshot.
        ``session_id`` scopes the snapshot (one browsing session's page
        never answers another's).
        """
        if mode not in ("sync", "async"):
            raise ValueError(f"unknown blocking mode {mode!r}")
        if serve_bridge is not None and mode != "async":
            raise ValueError(
                "serve_bridge routes the asynchronous deployment; "
                "use mode='async'"
            )
        profile = self.profile
        metrics = RenderMetrics(
            url=page.url, dom_loading_ms=0.0, dom_complete_ms=0.0
        )
        clock = 0.0

        # -- fetch + parse the main document -------------------------------
        html = page.html
        metrics.fetch_html_ms = 40.0 + len(html) / 200_000.0
        clock += metrics.fetch_html_ms
        document = parse_html(html, url=page.url)
        metrics.parse_ms = len(html) * profile.parse_cost_per_char_ms
        clock += metrics.parse_ms

        # -- scripting (ad/tracker JS dominates real pages) ----------------
        metrics.script_ms = (
            page.complexity
            * profile.script_base_cost_ms
            * profile.script_cost_multiplier
        )
        clock += metrics.script_ms

        # -- style + element hiding (shields) -------------------------------
        node_count = document.element_count()
        metrics.style_ms = node_count * profile.style_cost_per_node_ms
        clock += metrics.style_ms
        if profile.filter_engine is not None:
            for node in document.root.walk():
                if node.tag == "#text":
                    continue
                rule = profile.filter_engine.should_hide_element(
                    node.tag, node.css_classes, node.element_id,
                    page.site_domain,
                )
                if rule is not None:
                    node.hidden = True
                    metrics.elements_hidden += 1

        # -- subresource filtering + fetch ----------------------------------
        resources = document.resource_elements()
        metrics.images_total = len(resources)
        allowed_urls: List[str] = []
        for node in resources:
            if node.hidden:
                metrics.images_blocked_by_list += 1
                continue
            if revisit_memory is not None and revisit_memory.should_collapse(
                node.src
            ):
                # blocked on a previous visit: collapse the element
                # before layout; no fetch, decode or classification.
                node.hidden = True
                metrics.elements_collapsed_by_memory += 1
                continue
            if profile.filter_engine is not None:
                decision = profile.filter_engine.check_request(
                    node.src, page.site_domain, "image"
                )
                if decision.blocked:
                    node.hidden = True
                    metrics.images_blocked_by_list += 1
                    continue
            allowed_urls.append(node.src)
        fetchable = [u for u in allowed_urls if self.network.has(u)]
        metrics.image_fetch_ms = self.network.fetch_all_cost_ms(fetchable)
        clock += metrics.image_fetch_ms

        # -- layout + display list ------------------------------------------
        layout_root = build_layout_tree(document)
        metrics.layout_ms = node_count * profile.layout_cost_per_node_ms
        clock += metrics.layout_ms
        display_list = build_display_list(layout_root)
        metrics.display_list_ms = (
            len(display_list) * profile.display_item_cost_ms
        )
        clock += metrics.display_list_ms

        # -- decode + classify + raster --------------------------------------
        images: Dict[str, BitmapImage] = {
            url: BitmapImage(self.network.fetch(url)) for url in fetchable
        }
        hook = None
        cost_fn = lambda url: 0.0  # noqa: E731 - tiny closure
        async_lanes: Optional[WorkerLanes] = None

        # -- incremental re-classification (diff layer) ----------------------
        # Before anything decodes: recall each image region from the
        # session's snapshot of this page.  A region with the same URL
        # and encoded bytes settles from its stored verdict (blocked
        # ones never decode); only the delta reaches the
        # classification pipeline below.
        active_differ = differ
        if active_differ is None and serve_bridge is not None:
            active_differ = serve_bridge.differ
        if percival is None:
            active_differ = None
        snapshot_session = session_id or "local"
        #: content key of every unique fetched image region, by URL
        content_keys: Dict[str, str] = {}
        inherited: Dict[str, "BlockDecision"] = {}
        if active_differ is not None:
            from repro.diff.snapshot import content_key_for_payload

            generation = percival.classifier.weights_version
            for item in display_list:
                url = item.url
                if item.kind is not DisplayItemKind.IMAGE or (
                    url in content_keys or url not in images
                ):
                    continue
                encoded = images[url].sk_image.encoded
                content_key = content_key_for_payload(
                    encoded.payload, encoded.format.name
                )
                content_keys[url] = content_key
                recalled = active_differ.recall(
                    snapshot_session, page.url, url, content_key,
                    generation=generation,
                )
                if recalled is not None:
                    images[url].settle_verdict(recalled.is_ad)
                    inherited[url] = recalled
            metrics.diff_inherited = len(inherited)
            metrics.diff_reclassified = len(content_keys) - len(inherited)

        #: model decisions captured at classification time, by URL —
        #: what the post-raster snapshot commit records
        decision_by_url: Dict[str, "BlockDecision"] = {}

        if percival is not None and mode == "sync":
            # Image-decode drain: decode every fetched frame up front
            # and classify them all in ONE batched forward pass (sharded
            # across the blocker's worker pool when it holds one and the
            # page is large enough).  Raster still charges decode +
            # classification virtual cost on first touch, so the
            # virtual-clock metrics are identical to the per-frame
            # deployment — only the real compute is batched.
            fresh = [
                (url, image) for url, image in images.items()
                if not image.is_decoded and url not in inherited
            ]
            if fresh:
                decisions = percival.decide_many(
                    [image.decode_only() for _, image in fresh]
                )
                for (url, image), decision in zip(fresh, decisions):
                    image.apply_verdict(bool(decision.is_ad))
                    decision_by_url[url] = decision
            # frames the drain did not cover classify on first touch
            hook = percival.classify_bitmap

            def cost_fn(url: str) -> float:
                info = images[url].sk_image.info
                return percival.classify_cost_ms(info)

        elif percival is not None and mode == "async":
            # leaf import: the serve layer's priority constants, only
            # needed when a bridge routes frames through it
            from repro.serve.queue import (
                PRIORITY_BELOW_FOLD,
                PRIORITY_VIEWPORT,
            )

            async_lanes = WorkerLanes(profile.raster_threads)
            node_by_url: Dict[str, object] = {}
            if serve_bridge is not None:
                node_by_url = {
                    node.src: node for node in document.resource_elements()
                }

            def frame_provenance(item: Optional[DisplayItem]):
                """Provenance of the frame the raster lane is decoding,
                from the display item plus its owning DOM element."""
                if item is None:
                    return None
                from repro.cascade.provenance import FrameProvenance

                node = node_by_url.get(item.url)
                return FrameProvenance(
                    url=item.url,
                    page_domain=page.site_domain,
                    tag=getattr(node, "tag", "img"),
                    css_classes=tuple(getattr(node, "css_classes", ())),
                    element_id=getattr(node, "element_id", "") or "",
                    width=int(item.width),
                    height=int(item.height),
                )
            # per-frame flag set by the hook and read by cost_fn right
            # after: memo hits enqueue nothing, so the raster lane must
            # charge nothing for them
            frame_enqueued = [False]
            # display item whose first touch is paying the current
            # decode — set by the raster callback just before the hook
            # runs, so the hook knows the frame's on-page position
            touched_item: List[Optional[DisplayItem]] = [None]

            def hook(bitmap: np.ndarray, info: SkImageInfo) -> bool:
                frame_enqueued[0] = False
                # fingerprint once per frame: the same key serves the
                # tier probes and, on a miss, the enqueue or memo fill
                key = percival.fingerprint(bitmap)
                if serve_bridge is not None:
                    # micro-batched deployment: cascade rule tier (when
                    # the bridge has one), then the shared memo; misses
                    # enqueue for the post-raster batched drain
                    item = touched_item[0]
                    provenance = frame_provenance(item)
                    answered = serve_bridge.route(
                        bitmap, key=key, provenance=provenance
                    )
                    if answered is not None:
                        if answered.tier == "rule":
                            metrics.rule_hits += 1
                        else:
                            metrics.memo_hits += 1
                        return answered.decision.is_ad
                    priority = (
                        PRIORITY_VIEWPORT
                        if item is None or item.y < VIEWPORT_HEIGHT
                        else PRIORITY_BELOW_FOLD
                    )
                    serve_bridge.enqueue(
                        bitmap, key, priority, provenance=provenance
                    )
                    frame_enqueued[0] = True
                    return False  # verdict lands at drain time
                cached = percival.memoized_decision(key=key)
                if cached is not None:
                    metrics.memo_hits += 1
                    return cached.is_ad
                # classify off the critical path; frame paints meanwhile
                frame_enqueued[0] = True
                verdict = percival.decide(bitmap, key=key).is_ad
                async_lanes.submit(percival.classify_cost_ms(info))
                if verdict:
                    metrics.flashed_ads += 1
                return False  # never blocks the current paint

            def cost_fn(url: str) -> float:
                # enqueue cost only — and only for frames that actually
                # enqueued work (memo hits resolved without classifying)
                if frame_enqueued[0]:
                    return _ASYNC_ENQUEUE_COST_MS
                return 0.0

        first_touch = None
        if serve_bridge is not None:

            def first_touch(item: DisplayItem) -> None:
                touched_item[0] = item

        raster = rasterize(
            display_list,
            layout_root.height,
            images,
            config=self.raster_config,
            percival_hook=hook,
            classify_cost_ms=cost_fn,
            on_image_first_touch=first_touch,
            settled_urls=set(inherited) or None,
        )
        metrics.raster_ms = raster.makespan_ms
        metrics.classify_cost_ms = raster.classify_cost_ms
        metrics.images_decoded = raster.images_decoded
        metrics.images_blocked_by_percival = raster.images_blocked
        if serve_bridge is not None and async_lanes is not None:
            # drain the page's enqueued frames through the batching
            # layer: verdicts memoize for the next encounter, amortized
            # compute lands on the async lanes, ads that already
            # painted count as flashed — the §1.1 async trade-off
            for decision, cost_ms in serve_bridge.drain():
                async_lanes.submit(cost_ms)
                if decision.is_ad:
                    metrics.flashed_ads += 1
        if async_lanes is not None:
            metrics.async_classify_ms = async_lanes.makespan_ms
        if active_differ is not None and content_keys:
            # commit this visit's snapshot: the inherited verdict, or
            # the captured/memoized model decision, for every region
            # that has one.  Only model-computed decisions are
            # recorded, so an inherited verdict is always bit-identical
            # to what the memo path would have returned.
            settled: Dict[str, Tuple[str, "BlockDecision"]] = {}
            for url, content_key in content_keys.items():
                decision = inherited.get(url, decision_by_url.get(url))
                image = images[url]
                if (
                    decision is None
                    and image.is_decoded
                    and not image.blocked
                ):
                    # async deployments classify at drain time; the
                    # memo now holds the frame's full decision (rule
                    # hits never land in the memo, so they are never
                    # recorded — snapshots carry model verdicts only)
                    decision = percival.memoized_decision(
                        image.decode_only()
                    )
                if decision is not None:
                    settled[url] = (content_key, decision)
            active_differ.commit(
                snapshot_session, page.url, settled, generation=generation
            )
        if revisit_memory is not None:
            for url, bitmap_image in images.items():
                if bitmap_image.blocked:
                    revisit_memory.record_blocked(url)
        clock += raster.makespan_ms

        metrics.dom_complete_ms = clock
        return metrics
