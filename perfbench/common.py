"""What every workload shares: the pinned stack, statistics, the
correctness reference, and process measurements."""

from __future__ import annotations

import multiprocessing
import os
import resource
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.blocker import PercivalBlocker
from repro.core.config import PercivalConfig, ServeSettings
from repro.core.modelstore import ModelStore
from repro.utils.hashing import stable_hash

#: the reference classifier at explicit fp32 storage precision
CONFIG = PercivalConfig(precision="fp32")

#: explicit serve knobs (the library defaults, written out so no
#: environment variable can move them)
SETTINGS = ServeSettings(
    max_batch=16, max_wait_ms=4.0, max_depth=128, lanes=1, aging_ms=8.0
)

#: the paper's per-image classification budget (§2.3), the anchor of
#: every workload's latency limit: a unit of work carrying n frames
#: meets the limit when it is answered within n * 11 ms
BUDGET_MS_PER_FRAME = 11.0

#: frames per ``decide_many`` call the reference gate scores at once
REFERENCE_CHUNK = 64


def weights_path() -> str:
    """Where the model store keeps the reference weights."""
    key = stable_hash(CONFIG.cache_key())[:16]
    return os.path.join(ModelStore().cache_dir, f"{key}.npz")


def load_classifier():
    """Load the reference classifier from the warm cache and compile
    its inference plan — the model half of every set-up."""
    classifier = ModelStore().load_or_train(CONFIG)
    if classifier.inference_plan is None:
        raise RuntimeError("reference network has no compiled plan")
    return classifier


@dataclass
class Outcome:
    """What one workload run produced."""

    #: end-to-end metric name -> value
    e2e: Dict[str, float]
    attempted: int
    failed: int
    #: correctness-gate failures, one line each (empty = correct)
    errors: List[str] = field(default_factory=list)
    #: numbers the per-layer report reads besides the spans
    extras: Dict[str, float] = field(default_factory=dict)
    #: render-pages: images blocked by PERCIVAL per page, in page order
    blocked: Optional[List[int]] = None


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; +inf entries sort last."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 50.0)


def reference_probabilities(
    bitmaps: Sequence[np.ndarray], keys: Sequence[str]
) -> Dict[str, float]:
    """P(ad) per fingerprint from a fresh pool-less blocker.

    The correctness gate's oracle: every verdict a workload serves is
    compared against this, bitwise when it was computed in-process.
    """
    blocker = PercivalBlocker(load_classifier(), calibrated_latency_ms=1.0)
    unique: Dict[str, np.ndarray] = {}
    for key, bitmap in zip(keys, bitmaps):
        unique.setdefault(key, bitmap)
    reference: Dict[str, float] = {}
    items = list(unique.items())
    for start in range(0, len(items), REFERENCE_CHUNK):
        chunk = items[start:start + REFERENCE_CHUNK]
        decisions = blocker.decide_many(
            [bitmap for _, bitmap in chunk], keys=[key for key, _ in chunk]
        )
        for (key, _), decision in zip(chunk, decisions):
            reference[key] = decision.probability
    return reference


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_fields(pid: int) -> tuple:
    """(private memory MiB, CPU seconds) of a live process, from /proc.

    Private memory is the pages only this process maps.  A forked pool
    worker shares the parent's pages until it writes them, and those
    are already in the parent's own peak, so they are left out here.
    """
    private_kb = 0.0
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                private_kb += float(line.split()[1])
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        stat = handle.read()
    # fields after the parenthesised command name; utime/stime are the
    # 14th and 15th fields of the whole line
    rest = stat[stat.rindex(")") + 2:].split()
    ticks = float(rest[11]) + float(rest[12])
    return private_kb / 1024.0, ticks / os.sysconf("SC_CLK_TCK")


def children_usage() -> tuple:
    """(summed private memory MiB, summed CPU seconds) of live child
    processes — read before a pool closes, since both vanish with it."""
    private = cpu = 0.0
    for child in multiprocessing.active_children():
        try:
            child_private, child_cpu = _proc_fields(child.pid)
        except (OSError, ValueError, IndexError):
            continue
        private += child_private
        cpu += child_cpu
    return private, cpu
