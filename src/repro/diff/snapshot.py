"""Per-session page snapshots: what the last visit looked like.

A :class:`PageSnapshot` is the differ's unit of memory — one browsing
session's last observation of one page, recorded at raster time: every
image region's resolved geometry, its style key, a **content key**
(hash of the still-encoded payload, so re-probing it on the next visit
costs a dict lookup, not a decode), and the classification verdict the
region settled with.  :class:`SnapshotStore` is the LRU keeping those
snapshots browser-profile sized, keyed by ``(session, page)``.

The snapshot deliberately stores the *encoded* content hash rather
than the pixel fingerprint: the whole point of the diff layer is to
answer "did this region change?" before any pixels exist, which is
also why the verdict is carried inline — an unchanged region inherits
it without ever reaching the fingerprint/memo path.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional, Tuple

from repro.core.blocker import BlockDecision


@dataclass(frozen=True)
class RegionView:
    """One image region as observed on the *current* visit.

    ``content_key`` is a cheap pre-decode hash of the region's encoded
    payload (see :func:`content_key_for_payload`); ``style_key``
    condenses the owning element's computed style identity.  Geometry
    is the display-list rect the region rasters into.
    """

    url: str
    content_key: str
    x: int = 0
    y: int = 0
    width: int = 0
    height: int = 0
    style_key: str = ""

    @property
    def rect(self) -> Tuple[int, int, int, int]:
        return (self.x, self.y, self.width, self.height)


@dataclass(frozen=True)
class RegionRecord:
    """One region as stored in a snapshot: a view plus its verdict.

    ``probability is None`` means the region settled without a model
    decision (e.g. a cascade rule verdict, which never lands in the
    memo, or a frame that never decoded) — such a region still diffs
    structurally but is never verdict-inheritable.
    """

    url: str
    content_key: str
    x: int = 0
    y: int = 0
    width: int = 0
    height: int = 0
    style_key: str = ""
    is_ad: Optional[bool] = None
    probability: Optional[float] = None

    @classmethod
    def from_view(
        cls,
        view: RegionView,
        is_ad: Optional[bool] = None,
        probability: Optional[float] = None,
    ) -> "RegionRecord":
        return cls(
            url=view.url,
            content_key=view.content_key,
            x=view.x,
            y=view.y,
            width=view.width,
            height=view.height,
            style_key=view.style_key,
            is_ad=is_ad,
            probability=probability,
        )

    @property
    def rect(self) -> Tuple[int, int, int, int]:
        return (self.x, self.y, self.width, self.height)

    @property
    def inheritable(self) -> bool:
        """Can a matching region on the next visit settle from this
        record?  Requires a full decision (verdict + probability): the
        inherited :class:`BlockDecision` must be bit-identical to what
        the memo path would have returned."""
        return self.is_ad is not None and self.probability is not None

    def verdict(self) -> Optional[BlockDecision]:
        """The stored verdict as a served decision (``from_cache=True``
        — no fresh classification happened), or ``None`` when the
        region never settled with a full decision."""
        if not self.inheritable:
            return None
        return BlockDecision(
            is_ad=bool(self.is_ad),
            probability=float(self.probability),
            from_cache=True,
        )

    def view(self) -> RegionView:
        """The structural part of the record, as a view."""
        return RegionView(
            url=self.url,
            content_key=self.content_key,
            x=self.x,
            y=self.y,
            width=self.width,
            height=self.height,
            style_key=self.style_key,
        )


def content_key_for_payload(payload: bytes, format_name: str = "") -> str:
    """Content hash of a region's *encoded* bytes (pre-decode, cheap).

    This is the tile-level content memo: two visits whose region bytes
    hash equal are pixel-identical without either visit decoding."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(format_name.encode("utf-8", errors="replace"))
    digest.update(b"\x00")
    digest.update(payload)
    return digest.hexdigest()


def display_digest(regions: Iterable[RegionView]) -> str:
    """Order-sensitive digest of a visit's full region layout — equal
    digests mean the page is structurally identical (fast path for the
    very common "nothing changed at all" revisit)."""
    digest = hashlib.blake2b(digest_size=8)
    for view in regions:
        digest.update(
            f"{view.url}|{view.content_key}|{view.rect}|{view.style_key}\n"
            .encode("utf-8", errors="replace")
        )
    return digest.hexdigest()


@dataclass
class PageSnapshot:
    """One session's stored observation of one page."""

    session_id: str
    page_key: str
    #: how many visits have been committed into this snapshot
    visits: int = 0
    #: region URL -> stored record (one region per resource URL, the
    #: same identity the renderer's image cache uses)
    regions: Dict[str, RegionRecord] = field(default_factory=dict)
    #: digest of the last committed visit's layout
    digest: str = ""

    def get(self, url: str) -> Optional[RegionRecord]:
        return self.regions.get(url)


@dataclass
class SnapshotStats:
    """Bookkeeping for one store instance."""

    #: snapshots committed (page-level) or upserted into (region-level)
    commits: int = 0
    #: region records written
    regions_recorded: int = 0
    #: snapshots dropped by the LRU bound
    evictions: int = 0
    #: read probes that found a snapshot
    lookups: int = 0
    hits: int = 0


class SnapshotStore:
    """LRU of :class:`PageSnapshot`, keyed by ``(session, page)``.

    Session-scoped on purpose: a snapshot encodes what *this user's
    browser* showed last time, so one session's layout never leaks
    into another's diff (cross-session sharing is the memo's job, one
    tier below)."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("snapshot capacity must be positive")
        self._snapshots: "OrderedDict[Tuple[str, str], PageSnapshot]" = (
            OrderedDict()
        )
        self._capacity = capacity
        self.stats = SnapshotStats()

    def __len__(self) -> int:
        return len(self._snapshots)

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, session_id: str, page_key: str) -> Optional[PageSnapshot]:
        """The stored snapshot, or ``None``.  A read-only probe: LRU
        order moves only on commit, so speculative diff probes never
        churn eviction (the same contract as
        :meth:`repro.core.revisit.RevisitMemory.contains`)."""
        self.stats.lookups += 1
        snapshot = self._snapshots.get((session_id, page_key))
        if snapshot is not None:
            self.stats.hits += 1
        return snapshot

    def commit(
        self,
        session_id: str,
        page_key: str,
        records: Iterable[RegionRecord],
    ) -> PageSnapshot:
        """Replace the ``(session, page)`` snapshot with a full visit's
        region records (the renderer's page-level capture)."""
        regions = {record.url: record for record in records}
        snapshot = self._snapshots.get((session_id, page_key))
        visits = snapshot.visits + 1 if snapshot is not None else 1
        snapshot = PageSnapshot(
            session_id=session_id,
            page_key=page_key,
            visits=visits,
            regions=regions,
            digest=display_digest(r.view() for r in regions.values()),
        )
        self._store(session_id, page_key, snapshot)
        self.stats.commits += 1
        self.stats.regions_recorded += len(regions)
        return snapshot

    def upsert_region(
        self, session_id: str, page_key: str, record: RegionRecord
    ) -> PageSnapshot:
        """Fold one settled region into the ``(session, page)``
        snapshot, creating it if absent (the serve loop's streaming
        capture — verdicts land one flush at a time, not per page)."""
        snapshot = self._snapshots.get((session_id, page_key))
        if snapshot is None:
            snapshot = PageSnapshot(
                session_id=session_id, page_key=page_key, visits=1
            )
        snapshot.regions[record.url] = record
        snapshot.digest = display_digest(
            r.view() for r in snapshot.regions.values()
        )
        self._store(session_id, page_key, snapshot)
        self.stats.commits += 1
        self.stats.regions_recorded += 1
        return snapshot

    def refresh_verdict(
        self,
        session_id: str,
        page_key: str,
        url: str,
        is_ad: bool,
        probability: float,
    ) -> None:
        """Update a stored region's verdict in place (same content)."""
        snapshot = self._snapshots.get((session_id, page_key))
        if snapshot is None:
            return
        record = snapshot.regions.get(url)
        if record is None:
            return
        snapshot.regions[url] = replace(
            record, is_ad=bool(is_ad), probability=float(probability)
        )

    def clear(self) -> None:
        self._snapshots.clear()

    def _store(
        self, session_id: str, page_key: str, snapshot: PageSnapshot
    ) -> None:
        key = (session_id, page_key)
        self._snapshots[key] = snapshot
        self._snapshots.move_to_end(key)
        while len(self._snapshots) > self._capacity:
            self._snapshots.popitem(last=False)
            self.stats.evictions += 1
