"""Incremental re-classification: per-session verdict snapshots.

The ROADMAP's gap between demo scale and million-user scale is that a
scroll or feed update re-fingerprints the whole page even though almost
nothing changed.  This package closes it: each session stores a
snapshot of the model verdicts a page settled with, keyed by region
URL and the hash of the region's *encoded* bytes, and
:meth:`~repro.diff.differ.FrameDiffer.recall` answers a region from it
before any decode — making the per-interaction cost O(delta) instead
of O(page).  PERCIVAL's verdict depends only on the pixels (§3.2), so
same URL plus same bytes plus a stored decision is the whole test.

Everything is behind the ``PERCIVAL_DIFF`` knob; off is bit-identical
to the pre-diff pipeline.
"""

from repro.diff.differ import DiffStats, FrameDiffer
from repro.diff.snapshot import (
    RegionRecord,
    Snapshot,
    SnapshotStore,
    content_key_for_payload,
)

__all__ = [
    "DiffStats",
    "FrameDiffer",
    "RegionRecord",
    "Snapshot",
    "SnapshotStore",
    "content_key_for_payload",
]
