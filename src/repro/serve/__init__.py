"""``repro.serve``: the async micro-batching inference service.

The first layer of the reproduction that models *multi-user* traffic:
independent classification requests from many page sessions coalesce
into shard-sized batches in front of one
:class:`~repro.core.blocker.PercivalBlocker` (and, through it, the
sharded worker pool).  See ``docs/serving.md`` for the architecture and
the ``PERCIVAL_SERVE_*`` knobs.

* :class:`BatchQueue` — deadline-based coalescing (the simulator
  flushes on ``max_batch`` or ``max_wait_ms``; the asyncio front
  drains it whenever its event loop is idle) with bounded-depth
  admission,
* :class:`ServeLoop` — deterministic virtual-clock simulator (real
  compute, virtual time; the fault/property harness drives this),
* :class:`AsyncServeFront` — the ``asyncio`` front door
  (``await submit(bitmap)`` → :class:`BlockDecision`),
* :class:`RenderServeBridge` — routes the renderer's async-mode
  decodes through the batching layer (viewport frames first),
* :func:`synthesize_traffic` — deterministic multi-session workloads,
* :class:`FleetSimulator` — diurnal traffic replay driving SLO-based
  autoscaling of lanes/workers (see ``repro.serve.fleet``).

With the ``PERCIVAL_CASCADE`` knob on, every entry point accepts a
:class:`~repro.cascade.CascadeRouter` (``cascade=``) that resolves
most provenance-tagged frames from rule tiers before the memo/queue —
see ``repro.cascade`` and ``docs/cascade.md``.  With ``PERCIVAL_DIFF``
on, a :class:`~repro.diff.FrameDiffer` (``differ=``) answers revisited
frames from per-session page snapshots before anything else runs — see
``repro.diff`` and ``docs/diffing.md``.

With ``PERCIVAL_CHAOS`` set, both drivers replay a seeded
:class:`~repro.resilience.ChaosSchedule` (``chaos=``) against the
stack, and the :class:`~repro.resilience.ResiliencePlane`
(``resilience=`` / ``PERCIVAL_RESILIENCE``) puts circuit breakers and
the graceful-degradation ladder in front of every tier — see
``repro.resilience`` and ``docs/resilience.md``.
"""

from repro.cascade.provenance import FrameProvenance
from repro.cascade.router import CascadeRouter, CascadeStats
from repro.core.config import ServeSettings
from repro.diff.differ import DiffStats, FrameDiffer
from repro.resilience import ChaosSchedule, ResiliencePlane
from repro.serve.loop import (
    ArrivalEvent,
    AsyncServeFront,
    BatchComputeModel,
    ServeClosedError,
    ServeLoop,
    ServeOverloadError,
    ServeReport,
    ServeResult,
)
from repro.serve.metrics import LatencySummary, ServeStats
from repro.serve.queue import (
    PRIORITY_BELOW_FOLD,
    PRIORITY_VIEWPORT,
    BatchQueue,
    ServeRequest,
)
from repro.serve.session import (
    RenderServeBridge,
    TrafficSpec,
    synthesize_traffic,
)
from repro.serve.tiers import resolve_tiers
from repro.serve.fleet import (
    FleetReport,
    FleetSimulator,
    FleetSpec,
    SLOPolicy,
)

__all__ = [
    "ArrivalEvent",
    "AsyncServeFront",
    "BatchComputeModel",
    "BatchQueue",
    "CascadeRouter",
    "CascadeStats",
    "ChaosSchedule",
    "DiffStats",
    "FleetReport",
    "FleetSimulator",
    "FleetSpec",
    "FrameDiffer",
    "FrameProvenance",
    "LatencySummary",
    "PRIORITY_BELOW_FOLD",
    "PRIORITY_VIEWPORT",
    "RenderServeBridge",
    "ResiliencePlane",
    "SLOPolicy",
    "ServeClosedError",
    "ServeLoop",
    "ServeOverloadError",
    "ServeReport",
    "ServeRequest",
    "ServeResult",
    "ServeSettings",
    "ServeStats",
    "TrafficSpec",
    "resolve_tiers",
    "synthesize_traffic",
]
