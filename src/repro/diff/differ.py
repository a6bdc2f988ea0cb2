"""The differ facade: verdict recall and snapshot capture.

:class:`FrameDiffer` is the object the rest of the stack holds.  It
wraps one :class:`~repro.diff.snapshot.SnapshotStore`, and every
stored verdict is read the same way, one region at a time:
:meth:`recall` answers a region from its session's snapshot when the
URL, the content key and a stored model decision all match.  Verdicts
go in by two writes:

* :meth:`commit` (the renderer, after raster) **replaces** the page's
  snapshot with the visit's settled regions, so a region that left
  the page no longer answers;
* :meth:`remember` (the serve tiers, per flush) **upserts** one
  settled region — verdicts stream in one flush at a time.

Every call carries the classifier's ``weights_version`` as its
``generation``; a change clears the store first — the rule the
blocker's memo follows — so a stored verdict never outlives the
weights that computed it.

Like every speed layer before it (workers, precision, lanes, cascade),
the differ is **off by default** and the off-path is bit-identical:
a front's ``differ=None`` defers to the ``PERCIVAL_DIFF`` knob,
``False`` pins it off, an instance is used as-is (see
:func:`repro.serve.tiers.resolve_tiers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.core.blocker import BlockDecision
from repro.diff.snapshot import RegionRecord, SnapshotStore


@dataclass
class DiffStats:
    """Differ-side accounting, mirrored into ``ServeStats``/metrics."""

    #: region-level recall probes / hits
    recalls: int = 0
    recall_hits: int = 0
    #: settled verdicts written into snapshots
    remembered: int = 0


def _record(content_key: str, decision: BlockDecision) -> RegionRecord:
    return RegionRecord(
        content_key, bool(decision.is_ad), float(decision.probability)
    )


class FrameDiffer:
    """Session-scoped verdict snapshots in front of the pipeline."""

    def __init__(self) -> None:
        self.store = SnapshotStore()
        self.stats = DiffStats()
        #: weights generation the stored verdicts belong to
        self._generation: Optional[int] = None

    def _check_generation(self, generation: int) -> None:
        """Drop every snapshot computed by replaced weights."""
        if generation != self._generation:
            self.store.clear()
            self._generation = generation

    def recall(
        self,
        session_id: str,
        page_key: str,
        url: str,
        content_key: str,
        *,
        generation: int,
    ) -> Optional[BlockDecision]:
        """Stored verdict for one region, or ``None``.

        Hits only when the session's snapshot holds this URL with the
        *same* content key — the tier that answers before the region's
        bitmap is ever decoded or fingerprinted."""
        if not url or not content_key:
            return None
        self._check_generation(generation)
        self.stats.recalls += 1
        snapshot = self.store.get(session_id, page_key)
        record = snapshot.get(url) if snapshot is not None else None
        if record is None or record.content_key != content_key:
            return None
        self.stats.recall_hits += 1
        return record.verdict()

    def remember(
        self,
        session_id: str,
        page_key: str,
        url: str,
        content_key: str,
        decision: BlockDecision,
        *,
        generation: int,
    ) -> None:
        """Upsert one settled region into the session's snapshot."""
        if not url or not content_key:
            return
        self._check_generation(generation)
        self.store.upsert(
            session_id, page_key, url, _record(content_key, decision)
        )
        self.stats.remembered += 1

    def commit(
        self,
        session_id: str,
        page_key: str,
        regions: Mapping[str, Tuple[str, BlockDecision]],
        *,
        generation: int,
    ) -> None:
        """Replace the session's snapshot of the page with one visit's
        settled regions, ``url -> (content_key, decision)``."""
        self._check_generation(generation)
        self.store.commit(session_id, page_key, {
            url: _record(content_key, decision)
            for url, (content_key, decision) in regions.items()
        })
        self.stats.remembered += len(regions)
