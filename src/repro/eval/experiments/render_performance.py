"""Figures 14 & 15: render-time overhead (§5.7).

Renders a corpus of synthetic pages through the Blink-shaped substrate
in four configurations — Chromium, Chromium+PERCIVAL, Brave (shields),
Brave+PERCIVAL — and reports the render-time distribution
(``domComplete - domLoading``) and median overheads.

Paper: +178.23 ms (4.55%) median in Chromium, +281.85 ms (19.07%) in
Brave.  The mechanism the simulation preserves: classification is a
fixed per-image cost serialized on the raster workers' critical path,
and Brave's much faster baseline (list-blocking removes ad resources
*and* ad/tracker script work) makes the same absolute cost a larger
relative penalty.

The per-image classification cost on the virtual clock is the paper's
measured 11 ms by default, so the overheads compare against the paper
under its own calibration; callers can pass a locally measured value
instead.  The table reports, next to that constant, the measured
latency of one 224x224x4 frame through this repository's compiled plan
of the paper-size network (b1, the deployment's per-frame case): on a
current server core it lands near the paper's 11 ms, so the constant
is no longer an order of magnitude away from what the substrate runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.browser.network import MockNetwork, NetworkConfig
from repro.browser.renderer import BRAVE, CHROMIUM, Renderer
from repro.core.blocker import PercivalBlocker
from repro.core.classifier import AdClassifier
from repro.core.modelstore import get_reference_classifier
from repro.eval.experiments.model_profile import paper_plan_latency_ms
from repro.eval.reporting import paper_vs_measured
from repro.synth.webgen import SyntheticWeb, WebConfig, url_registry

PAPER = {
    "chromium_overhead_pct": 4.55,
    "chromium_overhead_ms": 178.23,
    "brave_overhead_pct": 19.07,
    "brave_overhead_ms": 281.85,
}

#: Paper-measured per-image classification latency (ms) used as the
#: virtual-clock calibration constant by default.
PAPER_LATENCY_MS = 11.0


@dataclass
class RenderSeries:
    """Render times for one browser configuration."""

    name: str
    render_times_ms: List[float] = field(default_factory=list)

    @property
    def median_ms(self) -> float:
        return float(np.median(self.render_times_ms))

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.render_times_ms, q))

    def cdf(self, points: int = 50) -> List[tuple]:
        """(time_ms, fraction_of_pages) pairs — the Figure 14 series."""
        values = np.sort(np.asarray(self.render_times_ms))
        fractions = np.arange(1, len(values) + 1) / len(values)
        idx = np.linspace(0, len(values) - 1, min(points, len(values)))
        return [
            (float(values[int(i)]), float(fractions[int(i)])) for i in idx
        ]


@dataclass
class RenderPerformanceResult:
    series: Dict[str, RenderSeries]
    pages: int
    calibrated_latency_ms: float
    #: measured b1 latency of the 224 px compiled plan (ms)
    plan_latency_ms: float

    def overhead(self, base: str, treatment: str) -> tuple:
        """(delta_ms, delta_pct) of medians between two series."""
        base_median = self.series[base].median_ms
        treat_median = self.series[treatment].median_ms
        delta = treat_median - base_median
        return delta, 100.0 * delta / base_median

    def to_table(self) -> str:
        chromium_ms, chromium_pct = self.overhead(
            "chromium", "chromium+percival"
        )
        brave_ms, brave_pct = self.overhead("brave", "brave+percival")
        rows = [
            ("Chromium overhead (ms)", PAPER["chromium_overhead_ms"],
             chromium_ms),
            ("Chromium overhead (%)", PAPER["chromium_overhead_pct"],
             chromium_pct),
            ("Brave overhead (ms)", PAPER["brave_overhead_ms"], brave_ms),
            ("Brave overhead (%)", PAPER["brave_overhead_pct"], brave_pct),
            ("Chromium median (ms)", "-", self.series["chromium"].median_ms),
            ("Brave median (ms)", "-", self.series["brave"].median_ms),
            ("per-image cost on the virtual clock (ms)", PAPER_LATENCY_MS,
             self.calibrated_latency_ms),
            ("224 px compiled plan b1, measured (ms)", PAPER_LATENCY_MS,
             self.plan_latency_ms),
        ]
        return paper_vs_measured(
            "Figure 15: render overhead (medians over "
            f"{self.pages} pages)", rows,
        )


def build_render_corpus(
    num_pages: int = 120, seed: int = 900
) -> List:
    """Heavy page corpus for the §5.7 runs (real pages carry dozens of
    images; the EasyList-experiment corpus is lighter)."""
    sites = max(num_pages // 2, 1)
    web = SyntheticWeb(WebConfig(
        seed=seed,
        num_sites=sites,
        images_per_page=(30, 110),
        containers_per_page=(8, 24),
    ))
    pages = list(web.iter_pages(web.top_sites(sites), pages_per_site=2))
    return pages[:num_pages]


def run_render_performance_experiment(
    classifier: Optional[AdClassifier] = None,
    num_pages: int = 120,
    calibrated_latency_ms: float = PAPER_LATENCY_MS,
    seed: int = 900,
) -> RenderPerformanceResult:
    """Render the corpus under all four configurations."""
    classifier = classifier or get_reference_classifier()
    pages = build_render_corpus(num_pages, seed)
    network = MockNetwork(
        url_registry(pages), NetworkConfig(seed=seed)
    )

    result = RenderPerformanceResult(
        series={}, pages=len(pages),
        calibrated_latency_ms=calibrated_latency_ms,
        plan_latency_ms=paper_plan_latency_ms(),
    )
    configurations = (
        ("chromium", CHROMIUM, False),
        ("chromium+percival", CHROMIUM, True),
        ("brave", BRAVE, False),
        ("brave+percival", BRAVE, True),
    )
    for name, profile, with_percival in configurations:
        renderer = Renderer(profile, network)
        blocker = None
        if with_percival:
            blocker = PercivalBlocker(
                classifier, calibrated_latency_ms=calibrated_latency_ms
            )
        series = RenderSeries(name=name)
        for page in pages:
            metrics = renderer.render(page, percival=blocker, mode="sync")
            series.render_times_ms.append(metrics.render_time_ms)
        result.series[name] = series
    return result


@dataclass
class AsyncAblationResult:
    """Sync vs async+memoization deployment comparison (§1.1)."""

    sync_median_ms: float
    async_median_ms: float
    baseline_median_ms: float
    flashed_ads: int
    memo_hits: int
    pages: int

    def to_table(self) -> str:
        rows = [
            ("sync overhead (ms)", "178.23 (Chromium)",
             self.sync_median_ms - self.baseline_median_ms),
            ("async overhead (ms)", "≈0 (off critical path)",
             self.async_median_ms - self.baseline_median_ms),
            ("ads flashed before verdict", "-", self.flashed_ads),
            ("memo hits", "-", self.memo_hits),
        ]
        return paper_vs_measured(
            "§1.1 ablation: sync vs async+memoization", rows
        )


def run_async_ablation(
    classifier: Optional[AdClassifier] = None,
    num_pages: int = 60,
    calibrated_latency_ms: float = PAPER_LATENCY_MS,
    seed: int = 901,
) -> AsyncAblationResult:
    """Compare the two deployments over the same corpus (two passes in
    async mode so memoized verdicts from pass one block pass two)."""
    classifier = classifier or get_reference_classifier()
    pages = build_render_corpus(num_pages, seed)
    network = MockNetwork(url_registry(pages), NetworkConfig(seed=seed))
    renderer = Renderer(CHROMIUM, network)

    baseline = [
        renderer.render(page).render_time_ms for page in pages
    ]

    sync_blocker = PercivalBlocker(
        classifier, calibrated_latency_ms=calibrated_latency_ms
    )
    sync_times = [
        renderer.render(page, percival=sync_blocker, mode="sync")
        .render_time_ms
        for page in pages
    ]

    async_blocker = PercivalBlocker(
        classifier, calibrated_latency_ms=calibrated_latency_ms
    )
    flashed = memo_hits = 0
    async_times: List[float] = []
    for _ in range(2):
        for page in pages:
            metrics = renderer.render(
                page, percival=async_blocker, mode="async"
            )
            async_times.append(metrics.render_time_ms)
            flashed += metrics.flashed_ads
            memo_hits += metrics.memo_hits

    return AsyncAblationResult(
        sync_median_ms=float(np.median(sync_times)),
        async_median_ms=float(np.median(async_times)),
        baseline_median_ms=float(np.median(baseline)),
        flashed_ads=flashed,
        memo_hits=memo_hits,
        pages=len(pages),
    )
