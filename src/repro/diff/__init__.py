"""Incremental re-classification: per-session snapshot/diff layer.

The ROADMAP's gap between demo scale and million-user scale is that a
scroll or feed update re-fingerprints the whole page even though almost
nothing changed.  This package closes it with structure deltas (the
AdGraph/WebGraph observation, applied to serving): each session stores
a :class:`~repro.diff.snapshot.PageSnapshot` of what a page looked
like, :func:`~repro.diff.tree_diff.tree_diff` classifies the next
visit's regions as added/removed/changed/moved/restyled/unchanged, and
the :func:`~repro.diff.semantic_filter.semantic_filter` decides which
regions re-classify versus inheriting their stored verdict — making
the per-interaction cost O(delta) instead of O(page).

Everything is behind the ``PERCIVAL_DIFF`` knob; off is bit-identical
to the pre-diff pipeline.
"""

from repro.diff.differ import DiffStats, FrameDiffer
from repro.diff.semantic_filter import DiffPlan, semantic_filter
from repro.diff.snapshot import (
    PageSnapshot,
    RegionRecord,
    RegionView,
    SnapshotStats,
    SnapshotStore,
    content_key_for_payload,
    display_digest,
)
from repro.diff.tree_diff import TreeDiff, apply_diff, tree_diff

__all__ = [
    "DiffPlan",
    "DiffStats",
    "FrameDiffer",
    "PageSnapshot",
    "RegionRecord",
    "RegionView",
    "SnapshotStats",
    "SnapshotStore",
    "TreeDiff",
    "apply_diff",
    "content_key_for_payload",
    "display_digest",
    "semantic_filter",
    "tree_diff",
]
