"""Unit coverage of the snapshot store, the differ facade, and the
``PERCIVAL_DIFF`` knob resolution."""

import pytest

from repro.core.blocker import BlockDecision
from repro.core.config import PercivalConfig, knob
from repro.diff import (
    FrameDiffer,
    RegionRecord,
    SnapshotStore,
    content_key_for_payload,
)
from repro.serve.tiers import resolve_tiers

URL = "https://a.example/x.png"


def _decision(is_ad=True, probability=0.97):
    return BlockDecision(is_ad=is_ad, probability=probability,
                         from_cache=False)


def _record(content_key="ck", is_ad=True, probability=0.97):
    return RegionRecord(content_key, is_ad, probability)


class TestContentKey:
    def test_deterministic_and_format_sensitive(self):
        key = content_key_for_payload(b"payload", "PNG")
        assert key == content_key_for_payload(b"payload", "PNG")
        assert key != content_key_for_payload(b"payload", "JPEG")
        assert key != content_key_for_payload(b"other", "PNG")


class TestSnapshotStore:
    def test_get_is_read_only(self):
        """Probes never churn LRU order — only writes move entries."""
        store = SnapshotStore(capacity=2)
        store.commit("s", "p1", {URL: _record()})
        store.commit("s", "p2", {URL: _record()})
        # probe p1 (would refresh it under a mutating LRU get) ...
        assert store.get("s", "p1") is not None
        store.commit("s", "p3", {URL: _record()})
        # ... yet p1 is still the eviction victim
        assert store.get("s", "p1") is None
        assert store.get("s", "p2") is not None
        assert store.evictions == 1

    def test_commit_replaces_the_page(self):
        store = SnapshotStore()
        store.commit("s", "p", {"u1": _record()})
        store.commit("s", "p", {"u2": _record()})
        assert set(store.get("s", "p")) == {"u2"}

    def test_upsert_streams_single_regions(self):
        store = SnapshotStore()
        store.upsert("s", "p", "u1", _record(is_ad=True, probability=0.9))
        store.upsert("s", "p", "u2", _record(is_ad=False, probability=0.1))
        assert set(store.get("s", "p")) == {"u1", "u2"}

    def test_refresh_verdict_in_place(self):
        """An upsert over a committed page refreshes one region and
        keeps the rest of the page."""
        store = SnapshotStore()
        store.commit("s", "p", {"u": _record(is_ad=False, probability=0.1),
                                "v": _record()})
        store.upsert("s", "p", "u", _record(is_ad=True, probability=0.8))
        snapshot = store.get("s", "p")
        assert snapshot["u"] == _record(is_ad=True, probability=0.8)
        assert snapshot["v"] == _record()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SnapshotStore(capacity=0)


class TestFrameDiffer:
    def test_recall_requires_matching_content(self):
        differ = FrameDiffer()
        differ.remember("s", "p", URL, "ck", _decision(True, 0.97),
                        generation=0)
        hit = differ.recall("s", "p", URL, "ck", generation=0)
        assert hit is not None and hit.is_ad and hit.from_cache
        assert hit.probability == 0.97
        # changed content, unknown url, wrong session: all miss
        assert differ.recall("s", "p", URL, "other", generation=0) is None
        assert differ.recall("s", "p", "https://b.example/y.png", "ck",
                             generation=0) is None
        assert differ.recall("s2", "p", URL, "ck", generation=0) is None

    def test_recall_ignores_blank_identity(self):
        differ = FrameDiffer()
        assert differ.recall("s", "p", "", "ck", generation=0) is None
        assert differ.recall("s", "p", "u", "", generation=0) is None
        assert differ.stats.recalls == 0

    def test_verdictless_records_never_recall(self):
        """A region that settles without a model decision is left out
        of the visit's commit, so it never recalls — not even a verdict
        an earlier visit stored for it."""
        differ = FrameDiffer()
        differ.commit("s", "p", {URL: ("ck", _decision())}, generation=0)
        differ.commit("s", "p", {}, generation=0)
        assert differ.recall("s", "p", URL, "ck", generation=0) is None
        assert differ.stats.recall_hits == 0

    def test_commit_then_recall_inherits_next_visit(self):
        differ = FrameDiffer()
        assert differ.recall("s", "p", URL, "ck", generation=0) is None
        differ.commit("s", "p", {URL: ("ck", _decision(False, 0.2))},
                      generation=0)
        inherited = differ.recall("s", "p", URL, "ck", generation=0)
        assert inherited == BlockDecision(False, 0.2, from_cache=True)
        assert differ.stats.recalls == 2
        assert differ.stats.recall_hits == 1

    def test_new_generation_clears_every_snapshot(self):
        """Snapshots are generation-keyed like the blocker's memo: a
        verdict stored under one ``weights_version`` never answers
        under another, for any session or page."""
        differ = FrameDiffer()
        differ.remember("s1", "p", URL, "ck", _decision(), generation=1)
        differ.commit("s2", "q", {URL: ("ck", _decision())}, generation=1)
        assert differ.recall("s1", "p", URL, "ck", generation=2) is None
        assert len(differ.store) == 0
        assert differ.recall("s2", "q", URL, "ck", generation=1) is None
        # verdicts stored under the new generation answer again
        differ.remember("s1", "p", URL, "ck", _decision(), generation=2)
        assert differ.recall("s1", "p", URL, "ck", generation=2) is not None


class TestDiffKnob:
    def test_env_values(self, monkeypatch):
        for raw, expected in (
            ("", False), ("off", False), ("0", False), ("no", False),
            ("false", False), ("on", True), ("1", True), ("yes", True),
            ("true", True),
        ):
            monkeypatch.setenv("PERCIVAL_DIFF", raw)
            assert knob("PERCIVAL_DIFF") is expected
        monkeypatch.setenv("PERCIVAL_DIFF", "maybe")
        with pytest.raises(ValueError):
            knob("PERCIVAL_DIFF")

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_DIFF", "on")
        assert knob("PERCIVAL_DIFF", False) is False
        monkeypatch.delenv("PERCIVAL_DIFF")
        assert knob("PERCIVAL_DIFF", True) is True
        assert knob("PERCIVAL_DIFF") is False

    def test_resolve_differ(self, monkeypatch):
        config = PercivalConfig()

        def resolve_differ(differ):
            return resolve_tiers(config, differ=differ).differ

        monkeypatch.delenv("PERCIVAL_DIFF", raising=False)
        assert resolve_differ(None) is None
        monkeypatch.setenv("PERCIVAL_DIFF", "on")
        auto = resolve_differ(None)
        assert isinstance(auto, FrameDiffer)
        # False pins off regardless of the environment
        assert resolve_differ(False) is None
        instance = FrameDiffer()
        assert resolve_differ(instance) is instance
        with pytest.raises(TypeError):
            resolve_differ("on")
