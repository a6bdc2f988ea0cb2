"""Per-session page snapshots: the verdicts the last visit settled.

A snapshot is one browsing session's memory of one page: for every
image region that settled with a model decision, its resource URL maps
to a :class:`RegionRecord` — the region's **content key** (hash of the
still-encoded payload, so re-probing it on the next visit costs a dict
lookup, not a decode) and the verdict it settled with.
:class:`SnapshotStore` is the LRU keeping those snapshots
browser-profile sized, keyed by ``(session, page)``.

The snapshot deliberately stores the *encoded* content hash rather
than the pixel fingerprint: the diff layer answers "is this the same
region?" before any pixels exist.  Nothing else about a region is
kept — PERCIVAL's verdict is a function of the pixels alone (§3.2), so
where a region sits and how it is styled never decide whether its
stored verdict still holds.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

from repro.core.blocker import BlockDecision


class RegionRecord(NamedTuple):
    """One region as stored in a snapshot: its content and its model
    decision."""

    content_key: str
    is_ad: bool
    probability: float

    def verdict(self) -> BlockDecision:
        """The stored verdict as a served decision (``from_cache=True``
        — no fresh classification happened)."""
        return BlockDecision(
            is_ad=self.is_ad, probability=self.probability, from_cache=True
        )


#: one session's snapshot of one page: region URL -> stored record (one
#: region per resource URL, the identity the renderer's image cache uses)
Snapshot = Dict[str, RegionRecord]


def content_key_for_payload(payload: bytes, format_name: str = "") -> str:
    """Content hash of a region's *encoded* bytes (pre-decode, cheap).

    This is the tile-level content memo: two visits whose region bytes
    hash equal are pixel-identical without either visit decoding."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(format_name.encode("utf-8", errors="replace"))
    digest.update(b"\x00")
    digest.update(payload)
    return digest.hexdigest()


class SnapshotStore:
    """LRU of page snapshots, keyed by ``(session, page)``.

    Session-scoped on purpose: a snapshot encodes what *this user's
    browser* showed last time, so one session's page never answers
    another's (cross-session sharing is the memo's job, one tier
    below)."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("snapshot capacity must be positive")
        self._snapshots: "OrderedDict[Tuple[str, str], Snapshot]" = (
            OrderedDict()
        )
        self._capacity = capacity
        #: snapshots dropped by the LRU bound
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._snapshots)

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, session_id: str, page_key: str) -> Optional[Snapshot]:
        """The stored snapshot, or ``None``.  A read-only probe: LRU
        order moves only on writes, so probing a page never keeps it
        resident."""
        return self._snapshots.get((session_id, page_key))

    def commit(
        self, session_id: str, page_key: str, regions: Snapshot
    ) -> None:
        """Replace the ``(session, page)`` snapshot with a full visit's
        regions (the renderer's page-level capture)."""
        self._store((session_id, page_key), dict(regions))

    def upsert(
        self,
        session_id: str,
        page_key: str,
        url: str,
        record: RegionRecord,
    ) -> None:
        """Fold one settled region into the ``(session, page)``
        snapshot, creating it if absent (the serve loop's streaming
        capture — verdicts land one flush at a time, not per page)."""
        key = (session_id, page_key)
        snapshot = self._snapshots.get(key, {})
        snapshot[url] = record
        self._store(key, snapshot)

    def clear(self) -> None:
        self._snapshots.clear()

    def _store(self, key: Tuple[str, str], snapshot: Snapshot) -> None:
        self._snapshots[key] = snapshot
        self._snapshots.move_to_end(key)
        while len(self._snapshots) > self._capacity:
            self._snapshots.popitem(last=False)
            self.evictions += 1
