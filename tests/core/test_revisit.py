"""Revisit memory: the §6 dangling-slot fix."""

import pytest

from repro.browser.network import MockNetwork, NetworkConfig
from repro.browser.renderer import CHROMIUM, Renderer
from repro.core import PercivalBlocker
from repro.core.revisit import RevisitMemory
from repro.synth.webgen import SyntheticWeb, WebConfig, url_registry


class TestRevisitMemory:
    def test_records_and_collapses(self):
        memory = RevisitMemory()
        memory.record_blocked("https://ads.example/a.png")
        assert memory.should_collapse("https://ads.example/a.png")
        assert not memory.should_collapse("https://other.example/b.png")

    def test_empty_url_ignored(self):
        memory = RevisitMemory()
        memory.record_blocked("")
        assert len(memory) == 0

    def test_capacity_evicts_lru(self):
        memory = RevisitMemory(capacity=2)
        memory.record_blocked("u1")
        memory.record_blocked("u2")
        memory.record_blocked("u3")
        assert len(memory) == 2
        assert not memory.should_collapse("u1")
        assert memory.should_collapse("u3")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RevisitMemory(capacity=0)

    def test_clear(self):
        memory = RevisitMemory()
        memory.record_blocked("u")
        memory.clear()
        assert len(memory) == 0

    def test_collapse_keeps_the_entry_resident(self):
        """A hit refreshes LRU order: a slot that keeps collapsing
        outlives entries that were only recorded."""
        memory = RevisitMemory(capacity=2)
        memory.record_blocked("u1")
        memory.record_blocked("u2")
        assert memory.should_collapse("u1")
        memory.record_blocked("u3")
        assert memory.should_collapse("u1")
        assert not memory.should_collapse("u2")

    def test_stats_tracked(self):
        memory = RevisitMemory()
        memory.record_blocked("u")
        memory.should_collapse("u")
        assert memory.stats.recorded == 1
        assert memory.stats.collapsed == 1


class TestRevisitInRenderer:
    @pytest.fixture(scope="class")
    def setup(self, reference_classifier):
        web = SyntheticWeb(WebConfig(seed=311, num_sites=3,
                                     images_per_page=(8, 12)))
        pages = [web.build_page(s) for s in web.top_sites(3)]
        network = MockNetwork(url_registry(pages), NetworkConfig(seed=3))
        renderer = Renderer(CHROMIUM, network)
        blocker = PercivalBlocker(reference_classifier,
                                  calibrated_latency_ms=11.0)
        return pages, renderer, blocker

    def test_second_visit_collapses_blocked_slots(self, setup):
        pages, renderer, blocker = setup
        memory = RevisitMemory()
        first = renderer.render(pages[0], percival=blocker,
                                mode="sync", revisit_memory=memory)
        assert first.elements_collapsed_by_memory == 0
        second = renderer.render(pages[0], percival=blocker,
                                 mode="sync", revisit_memory=memory)
        # everything blocked on visit 1 is collapsed pre-layout now
        assert (second.elements_collapsed_by_memory
                == first.images_blocked_by_percival)

    def test_second_visit_cheaper(self, setup):
        pages, renderer, blocker = setup
        memory = RevisitMemory()
        first = renderer.render(pages[1], percival=blocker,
                                mode="sync", revisit_memory=memory)
        second = renderer.render(pages[1], percival=blocker,
                                 mode="sync", revisit_memory=memory)
        if first.images_blocked_by_percival:
            assert second.classify_cost_ms < first.classify_cost_ms
            assert second.images_decoded < first.images_decoded

    def test_without_memory_no_collapse(self, setup):
        pages, renderer, blocker = setup
        metrics = renderer.render(pages[2], percival=blocker,
                                  mode="sync")
        assert metrics.elements_collapsed_by_memory == 0
