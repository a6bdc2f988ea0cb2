"""Unit coverage of the snapshot store, the differ facade, and the
``PERCIVAL_DIFF`` knob resolution."""

import pytest

from repro.core.config import PercivalConfig, knob
from repro.diff import (
    FrameDiffer,
    RegionRecord,
    RegionView,
    SnapshotStore,
    content_key_for_payload,
    display_digest,
)
from repro.serve.tiers import resolve_tiers


def _view(url="https://a.example/x.png", content_key="ck", **kwargs):
    return RegionView(url=url, content_key=content_key, **kwargs)


class TestContentKey:
    def test_deterministic_and_format_sensitive(self):
        key = content_key_for_payload(b"payload", "PNG")
        assert key == content_key_for_payload(b"payload", "PNG")
        assert key != content_key_for_payload(b"payload", "JPEG")
        assert key != content_key_for_payload(b"other", "PNG")

    def test_display_digest_is_order_sensitive(self):
        a = _view(url="u1")
        b = _view(url="u2")
        assert display_digest([a, b]) != display_digest([b, a])
        assert display_digest([a, b]) == display_digest([a, b])


class TestSnapshotStore:
    def test_get_is_read_only(self):
        """Probes never churn LRU order — only commits move entries."""
        store = SnapshotStore(capacity=2)
        store.commit("s", "p1", [RegionRecord.from_view(_view())])
        store.commit("s", "p2", [RegionRecord.from_view(_view())])
        # probe p1 (would refresh it under a mutating LRU get) ...
        assert store.get("s", "p1") is not None
        store.commit("s", "p3", [RegionRecord.from_view(_view())])
        # ... yet p1 is still the eviction victim
        assert store.get("s", "p1") is None
        assert store.get("s", "p2") is not None
        assert store.stats.evictions == 1

    def test_commit_replaces_and_counts_visits(self):
        store = SnapshotStore()
        store.commit("s", "p", [RegionRecord.from_view(_view(url="u1"))])
        snapshot = store.commit(
            "s", "p", [RegionRecord.from_view(_view(url="u2"))]
        )
        assert snapshot.visits == 2
        assert set(snapshot.regions) == {"u2"}

    def test_upsert_streams_single_regions(self):
        store = SnapshotStore()
        store.upsert_region(
            "s", "p", RegionRecord.from_view(_view(url="u1"), True, 0.9)
        )
        store.upsert_region(
            "s", "p", RegionRecord.from_view(_view(url="u2"), False, 0.1)
        )
        snapshot = store.get("s", "p")
        assert set(snapshot.regions) == {"u1", "u2"}

    def test_refresh_verdict_in_place(self):
        store = SnapshotStore()
        store.commit("s", "p", [RegionRecord.from_view(_view(url="u"))])
        assert not store.get("s", "p").regions["u"].inheritable
        store.refresh_verdict("s", "p", "u", True, 0.8)
        record = store.get("s", "p").regions["u"]
        assert record.inheritable and record.is_ad and record.probability == 0.8

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SnapshotStore(capacity=0)


class TestFrameDiffer:
    def test_recall_requires_matching_content(self):
        differ = FrameDiffer()
        differ.remember(
            "s", "p", RegionRecord.from_view(_view(), True, 0.97)
        )
        hit = differ.recall("s", "p", "https://a.example/x.png", "ck")
        assert hit is not None and hit.is_ad and hit.from_cache
        assert hit.probability == 0.97
        # changed content, unknown url, wrong session: all miss
        assert differ.recall("s", "p", "https://a.example/x.png", "other") is None
        assert differ.recall("s", "p", "https://b.example/y.png", "ck") is None
        assert differ.recall("s2", "p", "https://a.example/x.png", "ck") is None

    def test_recall_ignores_blank_identity(self):
        differ = FrameDiffer()
        assert differ.recall("s", "p", "", "ck") is None
        assert differ.recall("s", "p", "u", "") is None
        assert differ.stats.recalls == 0

    def test_verdictless_records_never_recall(self):
        differ = FrameDiffer()
        differ.store.upsert_region(
            "s", "p", RegionRecord.from_view(_view())
        )
        assert differ.recall("s", "p", "https://a.example/x.png", "ck") is None
        assert differ.stats.recall_hits == 0

    def test_plan_then_commit_inherits_next_visit(self):
        differ = FrameDiffer()
        view = _view()
        first = differ.plan("s", "p", [view])
        assert [v.url for v in first.reclassify] == [view.url]
        differ.commit(
            "s", "p", [RegionRecord.from_view(view, False, 0.2)]
        )
        second = differ.plan("s", "p", [view])
        assert not second.reclassify
        assert [v.url for v, _ in second.inherit] == [view.url]
        assert differ.stats.identical_pages == 1


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
