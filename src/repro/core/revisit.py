"""Revisit memory: collapsing blocked elements on later visits (§6).

The paper's stated limitation: PERCIVAL classifies one image at a time
inside the raster path, so when it clears an ad frame the surrounding
DOM (caption text, the slot container) is left dangling, and
"the nature of the in-rendering blocking does not allow post-rendering
DOM tree manipulations".  Its proposed fix: "memorize the DOM element
that contains the blocked image and filter it out on consecutive page
visitations ... it is of the benefit of the user to eventually have a
good ad blocking experience, even if this is happening on a second page
visit."

This module implements that fix.  :class:`RevisitMemory` records the
resource URL of every frame the blocker cleared; on later renders the
renderer consults it *before layout* and hides the whole element — the
slot collapses, no dangling whitespace, and the decode/classify cost is
skipped entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class RevisitStats:
    """Bookkeeping for one memory instance."""

    recorded: int = 0
    collapsed: int = 0


class RevisitMemory:
    """URL-keyed record of frames PERCIVAL blocked on past visits.

    Keyed by resource URL (not pixels): the point is to act *before*
    fetch/decode on the next visit, when no pixels exist yet.  An LRU
    bound keeps the store browser-profile sized.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._blocked: "OrderedDict[str, bool]" = OrderedDict()
        self._capacity = capacity
        self.stats = RevisitStats()

    def record_blocked(self, url: str) -> None:
        """Remember that the frame at ``url`` was classified as an ad."""
        if not url:
            return
        self._blocked[url] = True
        self._blocked.move_to_end(url)
        if len(self._blocked) > self._capacity:
            self._blocked.popitem(last=False)
        self.stats.recorded += 1

    def should_collapse(self, url: str) -> bool:
        """Was this resource blocked on a previous visit?  A hit counts
        as a collapse and refreshes LRU order (the entry proved useful,
        keep it resident) — the renderer's pre-layout hook."""
        if url not in self._blocked:
            return False
        self._blocked.move_to_end(url)
        self.stats.collapsed += 1
        return True

    def __len__(self) -> int:
        return len(self._blocked)

    def clear(self) -> None:
        self._blocked.clear()
