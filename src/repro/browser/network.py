"""Mock network layer.

Maps resource URLs to encoded images (backed by the synthetic web's
element registry) and charges virtual fetch time: per-request latency
plus size/bandwidth, over a limited number of parallel connections —
the same aggregate model browsers' network stacks present to the
renderer.  Blocked requests (Brave shields / filter lists) cost nothing,
which is where list-based blocking's speedup comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.browser.codecs import (
    EncodedImage,
    encode_image,
    format_for_url,
)
from repro.synth.webgen import PageElement
from repro.utils.clock import WorkerLanes
from repro.utils.rng import derive, spawn_rng


@dataclass
class NetworkConfig:
    """Virtual network cost model."""

    seed: int = 0
    parallel_connections: int = 6
    latency_median_ms: float = 55.0
    latency_sigma: float = 0.55      # lognormal spread
    bandwidth_bytes_per_ms: float = 400_000.0  # ~3.2 Gbit/s LAN-ish


class MockNetwork:
    """Fetches synthetic resources, accounting virtual time."""

    def __init__(
        self,
        registry: Mapping[str, PageElement],
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self._registry = dict(registry)
        self.config = config or NetworkConfig()
        self._encoded_cache: Dict[str, EncodedImage] = {}

    def has(self, url: str) -> bool:
        return url in self._registry

    def fetch(self, url: str) -> EncodedImage:
        """Resolve a URL to its encoded image (cached per URL)."""
        if url not in self._encoded_cache:
            element = self._registry.get(url)
            if element is None:
                raise KeyError(f"no resource registered for {url}")
            pixels = element.render()
            self._encoded_cache[url] = encode_image(
                pixels, format_for_url(url)
            )
        return self._encoded_cache[url]

    def request_cost_ms(self, url: str, encoded: EncodedImage) -> float:
        """Virtual cost of one request (latency + transfer)."""
        rng = spawn_rng(derive(self.config.seed, url), "net-latency")
        latency = float(
            np.exp(
                np.log(self.config.latency_median_ms)
                + rng.normal(0.0, self.config.latency_sigma)
            )
        )
        transfer = encoded.byte_size / self.config.bandwidth_bytes_per_ms
        return latency + transfer

    def fetch_all_cost_ms(self, urls) -> float:
        """Virtual wall time to fetch ``urls`` over parallel connections."""
        lanes = WorkerLanes(self.config.parallel_connections)
        for url in urls:
            encoded = self.fetch(url)
            lanes.submit(self.request_cost_ms(url, encoded))
        return lanes.makespan_ms
