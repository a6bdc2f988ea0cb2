"""The differ facade: snapshot capture, diff planning, verdict recall.

:class:`FrameDiffer` is the object the rest of the stack holds.  It
wraps one :class:`~repro.diff.snapshot.SnapshotStore` and exposes the
two granularities the pipeline needs:

* **page-level** (the renderer): :meth:`plan` diffs a visit's region
  views against the stored snapshot and returns the semantic filter's
  inherit/reclassify partition before any decode happens;
  :meth:`commit` replaces the snapshot with the visit's settled
  records after raster.
* **region-level** (the serve loop): :meth:`recall` answers one
  arriving frame from its session's snapshot — before the fingerprint
  is even computed — and :meth:`remember` streams settled verdicts
  back in, one flush at a time.

Like every speed layer before it (workers, precision, lanes, cascade),
the differ is **off by default** and the off-path is bit-identical:
a front's ``differ=None`` defers to the ``PERCIVAL_DIFF`` knob,
``False`` pins it off, an instance is used as-is (see
:func:`repro.serve.tiers.resolve_tiers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.blocker import BlockDecision
from repro.diff.semantic_filter import DiffPlan, semantic_filter
from repro.diff.snapshot import (
    PageSnapshot,
    RegionRecord,
    RegionView,
    SnapshotStore,
)
from repro.diff.tree_diff import TreeDiff, tree_diff


@dataclass
class DiffStats:
    """Differ-side accounting, mirrored into ``ServeStats``/metrics."""

    #: page-level plans computed
    pages_planned: int = 0
    #: plans whose diff was empty (identical revisit — the fast path)
    identical_pages: int = 0
    #: regions settled from a stored verdict (no decode, no memo probe)
    regions_inherited: int = 0
    #: regions routed down the normal classification pipeline
    regions_reclassified: int = 0
    #: region-level recall probes / hits (serve-loop tier)
    recalls: int = 0
    recall_hits: int = 0
    #: settled verdicts streamed back into snapshots
    remembered: int = 0


class FrameDiffer:
    """Session-scoped snapshot/diff layer in front of the pipeline."""

    def __init__(self) -> None:
        self.store = SnapshotStore()
        self.stats = DiffStats()

    # ------------------------------------------------------------------
    # Page-level (renderer): plan before decode, commit after raster
    # ------------------------------------------------------------------
    def diff(
        self,
        session_id: str,
        page_key: str,
        regions: Iterable[RegionView],
    ) -> TreeDiff:
        """Raw tree diff of a visit against its stored snapshot."""
        snapshot = self.store.get(session_id, page_key)
        return tree_diff(snapshot, regions)

    def plan(
        self,
        session_id: str,
        page_key: str,
        regions: Iterable[RegionView],
        revisit_memory=None,
    ) -> DiffPlan:
        """Diff + semantic filter: which regions inherit their stored
        verdict and which must re-classify, decided before any pixel
        of the visit is decoded."""
        snapshot = self.store.get(session_id, page_key)
        diff = tree_diff(snapshot, list(regions))
        plan = semantic_filter(diff, snapshot, revisit_memory)
        self.stats.pages_planned += 1
        if diff.is_empty:
            self.stats.identical_pages += 1
        self.stats.regions_inherited += len(plan.inherit)
        self.stats.regions_reclassified += len(plan.reclassify)
        return plan

    def commit(
        self,
        session_id: str,
        page_key: str,
        records: Iterable[RegionRecord],
    ) -> PageSnapshot:
        """Replace the session's snapshot with this visit's records."""
        snapshot = self.store.commit(session_id, page_key, records)
        self.stats.remembered += len(snapshot.regions)
        return snapshot

    # ------------------------------------------------------------------
    # Region-level (serve loop): recall at arrival, remember at settle
    # ------------------------------------------------------------------
    def recall(
        self,
        session_id: str,
        page_key: str,
        url: str,
        content_key: str,
    ) -> Optional[BlockDecision]:
        """Stored verdict for an arriving frame, or ``None``.

        Hits only when the session's snapshot holds this URL with the
        *same* content key and a full decision — the serving tier that
        answers before the request's bitmap is ever fingerprinted."""
        if not url or not content_key:
            return None
        self.stats.recalls += 1
        snapshot = self.store.get(session_id, page_key)
        if snapshot is None:
            return None
        record = snapshot.get(url)
        if record is None or record.content_key != content_key:
            return None
        decision = record.verdict()
        if decision is not None:
            self.stats.recall_hits += 1
        return decision

    def remember(
        self,
        session_id: str,
        page_key: str,
        record: RegionRecord,
    ) -> None:
        """Stream one settled region into the session's snapshot."""
        if not record.url or not record.content_key:
            return
        self.store.upsert_region(session_id, page_key, record)
        self.stats.remembered += 1
