"""Span tracing of the program's layers, installed from outside.

The benchmark never edits ``src/``.  Instead :func:`instrument` replaces
public functions and methods of each layer with timed wrappers for the
length of a traced run, and :meth:`Tracer.restore` puts the originals
back.  Every wrapped call records one span: name, start, end, parent
span and request id.  Spans live in memory (parallel lists, so a span
costs a few appends) and are written out as JSON lines when the run
ends.  A span's self time is its duration minus the time covered by its
child spans.

Wrappers only record in the process that installed them: worker
processes forked from a traced parent call straight through, so pool
workers never pay for spans nobody reads.  They also call straight
through while :attr:`Tracer.active` is off, which is how the harness
keeps its own correctness checks out of the layer numbers.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.rids: List[Optional[int]] = []
        self.sizes: List[int] = []
        self._stack: List[int] = []
        #: request id stamped on spans opened from now on (None = not
        #: inside one request, e.g. a batch flush)
        self.rid: Optional[int] = None
        #: False while the harness itself calls wrapped functions (the
        #: correctness gate), so its calls are not counted as work
        self.active = True
        #: counts taken at the same boundaries as the spans
        self.counts: Dict[str, float] = defaultdict(float)
        #: raw samples some layers report (queue waits, batch sizes)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        size: Optional[Callable] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``size(args, kwargs)`` gives the span's work count (frames,
        batch size); ``before(args, kwargs)`` runs first and its value
        is handed to ``after(args, kwargs, result, state)``, which
        records counts from the call's result.
        """
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        fn = getattr(owner, attr)
        tracer = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, rids, sizes, stack = (
            self.parents, self.rids, self.sizes, self._stack
        )
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            rids.append(tracer.rid)
            sizes.append(size(args, kwargs) if size is not None else 1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, state)
            return result

        replacement = staticmethod(timed) if isinstance(
            raw, staticmethod
        ) else timed
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw, own))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def durations(self) -> List[int]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[int]:
        """Duration minus the durations of direct children.  Spans are
        opened and closed on one thread without interleaving, so the
        children of a span never overlap each other."""
        own = self.durations()
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def by_name(self, name: str) -> List[int]:
        """Indices of the spans called ``name``."""
        return [i for i, n in enumerate(self.names) if n == name]

    def total_ns(self, name: str, self_time: bool = False) -> int:
        values = self.self_times() if self_time else self.durations()
        return sum(values[i] for i in self.by_name(name))

    def count(self, name: str) -> int:
        return len(self.by_name(name))

    def work(self, name: str) -> int:
        return sum(self.sizes[i] for i in self.by_name(name))

    def mean_us(self, name: str, self_time: bool = False) -> float:
        calls = self.count(name)
        if not calls:
            return 0.0
        return self.total_ns(name, self_time) / calls / 1e3

    def us_per_unit(self, name: str) -> float:
        work = self.work(name)
        if not work:
            return 0.0
        return self.total_ns(name) / work / 1e3

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps({
                    "name": name,
                    "start_ns": self.starts[i],
                    "end_ns": self.ends[i],
                    "parent": self.parents[i],
                    "rid": self.rids[i],
                    "size": self.sizes[i],
                }) + "\n")


@contextlib.contextmanager
def paused(tracer: Optional[Tracer]):
    """Stop recording for the block (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


#: plan op kinds reported per frame, keyed on ``InferenceOp.describe``
OP_KINDS = ("conv_im2col", "conv1x1", "fire", "maxpool", "gap", "linear")


def op_kind(op) -> str:
    text = op.describe()
    if text.startswith("conv[im2col]"):
        return "conv_im2col"
    if text.startswith("conv1x1"):
        return "conv1x1"
    if text.startswith("fire("):
        return "fire"
    if text.startswith(("maxpool", "avgpool")):
        return "maxpool"
    if text == "gap":
        return "gap"
    if text.startswith("linear"):
        return "linear"
    return "other"


def _batch_rows(index: int) -> Callable:
    def size(args, kwargs) -> int:
        return int(args[index].shape[0])
    return size


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads use."""
    from repro.browser import renderer as renderer_module
    from repro.browser import skia
    from repro.cascade.router import CascadeRouter
    from repro.core import blocker as blocker_module
    from repro.core.blocker import PercivalBlocker
    from repro.core.workerpool import InferenceWorkerPool
    from repro.diff.differ import FrameDiffer
    from repro.nn.inference import InferencePlan
    from repro.serve.queue import BatchQueue

    counts, samples = tracer.counts, tracer.samples

    # -- serve: queue waits and batch sizes, read off each popped batch --
    def pop_before(args, kwargs):
        tracer.rid = None  # a flush starts: no request owns what follows
        return None

    def pop_after(args, kwargs, batch, state):
        if not batch:
            return
        now_ms = args[1] if len(args) > 1 else kwargs["now_ms"]
        samples["serve.batch_size"].append(len(batch))
        waits = samples["serve.queue_wait_ms"]
        for request in batch:
            for settled in (request, *request.coalesced):
                waits.append(now_ms - settled.arrival_ms)

    tracer.wrap(BatchQueue, "pop_batch", "serve.pop_batch",
                before=pop_before, after=pop_after)

    # -- diff / cascade tiers -------------------------------------------
    tracer.wrap(FrameDiffer, "recall", "diff.recall")
    tracer.wrap(FrameDiffer, "remember", "diff.remember")
    tracer.wrap(CascadeRouter, "route", "cascade.route")
    tracer.wrap(CascadeRouter, "reconcile", "cascade.feedback")
    tracer.wrap(CascadeRouter, "absorb", "cascade.feedback")

    # -- core.blocker ----------------------------------------------------
    tracer.wrap(PercivalBlocker, "fingerprint", "blocker.fingerprint")

    def probe_after(args, kwargs, decision, state):
        counts["memo.probes"] += 1
        counts["memo.hits"] += decision is not None

    tracer.wrap(PercivalBlocker, "memoized_decision", "blocker.memo_probe",
                after=probe_after)

    def many_before(args, kwargs):
        return args[0].classifications

    def many_after(args, kwargs, decisions, classified_before):
        frames = len(decisions)
        cached = sum(1 for decision in decisions if decision.from_cache)
        computed = args[0].classifications - classified_before
        counts["memo.probes"] += frames
        counts["memo.hits"] += cached
        counts["decide.frames"] += frames
        counts["decide.duplicates"] += frames - cached - computed

    tracer.wrap(PercivalBlocker, "decide_many", "blocker.decide_many",
                size=lambda args, kwargs: len(args[1]),
                before=many_before, after=many_after)
    tracer.wrap(PercivalBlocker, "classify_bitmap", "blocker.classify_bitmap")

    # -- core.preprocessing (as the blocker calls it) ---------------------
    tracer.wrap(blocker_module, "preprocess_batch", "preprocess",
                size=lambda args, kwargs: len(args[0]))

    # -- nn.inference: whole plan by batch size, and each top-level op ----
    instrumented_plans: list = []

    def plan_before(args, kwargs):
        plan = args[0]
        if not any(seen is plan for seen in instrumented_plans):
            for op in plan.ops:
                tracer.wrap(op, "run", f"plan.op.{op_kind(op)}",
                            size=_batch_rows(0))
            instrumented_plans.append(plan)
        return None

    tracer.wrap(InferencePlan, "run", "plan.run", size=_batch_rows(1),
                before=plan_before)

    # -- core.workerpool -------------------------------------------------
    tracer.wrap(InferenceWorkerPool, "predict_proba", "pool.predict_proba",
                size=_batch_rows(1))

    # -- browser -----------------------------------------------------------
    tracer.wrap(renderer_module.Renderer, "render", "browser.render")
    tracer.wrap(renderer_module, "parse_html", "browser.parse")
    tracer.wrap(renderer_module, "build_layout_tree", "browser.layout")
    tracer.wrap(renderer_module, "rasterize", "browser.raster")
    tracer.wrap(skia, "decode_image", "browser.decode")


def plan_bucket(batch: int) -> str:
    if batch <= 1:
        return "b1"
    if batch <= 8:
        return "b2-8"
    if batch <= 32:
        return "b9-32"
    return "b33-64"


PLAN_BUCKETS = ("b1", "b2-8", "b9-32", "b33-64")


def plan_profile(tracer: Tracer) -> Dict[str, float]:
    """Per-frame plan time by batch bucket and per-frame op time."""
    durations = tracer.durations()
    time_ns: Dict[str, int] = defaultdict(int)
    frames: Dict[str, int] = defaultdict(int)
    for i in tracer.by_name("plan.run"):
        bucket = plan_bucket(tracer.sizes[i])
        time_ns[bucket] += durations[i]
        frames[bucket] += tracer.sizes[i]
    profile = {
        f"plan.us_per_frame.{bucket}": (
            time_ns[bucket] / frames[bucket] / 1e3 if frames[bucket] else 0.0
        )
        for bucket in PLAN_BUCKETS
    }
    plan_frames = tracer.work("plan.run")
    for kind in OP_KINDS:
        total = tracer.total_ns(f"plan.op.{kind}")
        profile[f"plan.op.{kind}_us"] = (
            total / plan_frames / 1e3 if plan_frames else 0.0
        )
    return profile


def plan_ms_at(tracer: Tracer, batch: int) -> float:
    """Mean in-process plan time (ms) of the traced runs at ``batch``."""
    durations = tracer.durations()
    matching = [
        durations[i] for i in tracer.by_name("plan.run")
        if tracer.sizes[i] == batch
    ]
    if not matching:
        return 0.0
    return sum(matching) / len(matching) / 1e6
