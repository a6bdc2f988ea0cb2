"""Multiprocess inference sharding.

:class:`InferenceWorkerPool` owns N worker processes that each hold a
private copy of the model and a compiled
:class:`~repro.nn.inference.InferencePlan`.  The parent splits a
memo-miss batch into N + 1 contiguous shares, scatters the first N to
the workers, computes the last one itself while the workers run, and
gathers per-frame ad probabilities back in order — so a page's batched
forward pass scales with cores instead of saturating one GIL, and the
parent's core works instead of idling on the pipes.

Every request — a plan build, a hashing or scoring share — goes out
and comes back through one scatter/gather/drain loop, tagged with a
task id, and every reply is ``("result", task_id, payload)`` or
``("error", task_id, detail)``.  Two entry points use it:

* :meth:`InferenceWorkerPool.ad_probabilities` takes raw decoded
  bitmaps, and every lane preprocesses its own share.  The workers'
  shares travel through a pool-owned **frame segment**
  (``multiprocessing.shared_memory``): the parent copies the bitmaps
  in once and sends each worker only ``(offset, shape, dtype)`` per
  frame, which is cheaper than pickling either the bitmaps or the
  tensors they become.  Given a ``select`` callback, the call first
  has every lane hash its own share into memo keys (the workers from
  the frame segment); ``select`` probes the caller's memo with them,
  and every lane then scores only the selected frames in its own
  share — the workers re-read theirs from the slots the hashing phase
  read, so nothing is copied twice.
* :meth:`InferenceWorkerPool.predict_proba` takes an already
  preprocessed NCHW batch and pickles each worker's slice of it.

The parent is lane N + 1, but not a worker: its lane is a classifier
rebuilt at ``publish()`` from the published export and segment bytes by
the same :meth:`~repro.core.classifier.AdClassifier.from_plan_export`
call the workers make, so all N + 1 lanes compute over one
publication's bytes — a ``load()`` that has not been published yet
cannot leak into a batch.  ``num_workers`` and ``available_capacity``
count worker processes only: the parent's lane is the calling thread,
busy for the whole call, so it adds no room for a second concurrent
batch, and the serving layer's lane resolution sees the same capacity
as before.

Weight handoff is the part worth reading twice:

* ``publish()`` ships the classifier's packed
  :class:`~repro.nn.artifact.WeightArtifact` buffer once into a single
  ``multiprocessing.shared_memory`` segment (the model is < 2 MB at
  fp32, ~4x smaller again at int8 storage) and sends each worker only
  the segment *name* plus a
  :class:`~repro.core.classifier.PlanExport` manifest (storage dtypes
  and per-channel scales per parameter) — weights are never pickled
  per call, and never per worker.
* each worker attaches, **copies** the packed bytes into private
  memory, and closes the segment immediately.  The copy is deliberate:
  numpy views pinning a shared mmap would make
  ``SharedMemory.close()`` raise ``BufferError`` ("cannot close
  exported pointers exist") for the worker's whole lifetime.
  Quantized manifests dequantize worker-side into the rebuilt
  network, so per-worker shipped bytes shrink with the precision while
  every worker computes over exactly the bytes the parent compiled
  with (the calibration gate runs once, parent-side).
* publication is fingerprint-keyed, and the fingerprint covers the
  storage precision.  Re-publishing the same weights is a no-op;
  publishing after ``AdClassifier.load()``/``train()`` — or from a
  classifier at a different precision — ships a fresh segment, every
  worker recompiles its plan, and the parent rebuilds its lane.  A pool
  can therefore never mix precisions across a publication.

The frame segment has its own lifecycle.  It is created on the first
bitmap scatter, grown by doubling (the old one unlinked) when the
workers' shares do not fit, never shrunk, and released by ``close()``.
A worker keeps it attached between calls and re-attaches when its name
changes; it reads its frames through views that it drops before it
replies, so its ``SharedMemory.close()`` can never raise
``BufferError``.  The parent writes the segment only when no reply is
outstanding: every exit path of a call drains or discards the
in-flight workers, and a call that arrives while another is in flight
raises :class:`WorkerPoolError` instead of overwriting frames a worker
may still be reading.  A call with ``select`` writes it once, before
its hashing phase, and stays in flight (``dispatching``) across both
phases, so the slots its scoring phase names still hold the frames the
first hashed.

Failure semantics: any worker death or timeout surfaces as
:class:`WorkerPoolError`, which callers (``PercivalBlocker``) treat as
"fall back to in-process inference" — a dying pool can slow a page
down, never mis-classify it.  Publication and both phases of a call
run through the same loop, so a failure in any of them drains the
same way and raises the same one error.  An exception in the parent's
own lane propagates as raised, after the workers' in-flight replies
are drained.  Dead workers are respawned on the next call, but not
forever: replacements draw on a bounded **respawn
budget** (``respawn_budget``, default 16) with exponential backoff
between attempts, so a deterministically-crashing worker degrades the
pool to its surviving workers (and eventually to the in-process path)
instead of burning a fork per batch.  Teardown (``close()``) is
idempotent and also registered via ``atexit``; the pool is a context
manager.

The ``chaos_*`` methods are the deterministic fault-injection surface
the :mod:`repro.resilience` chaos plane drives: they *arm* a fault on
a live worker (die/stall on its next sub-batch, emit an unsolicited
reply, fail the next publication) so the failure lands mid-protocol,
in whichever phase of a call asks the worker for work next (an echo
lands on whatever the parent gathers next, a plan included),
exactly where the recovery paths above must catch it.  They are inert
unless called — a pool that never sees chaos runs the same bytes as
before.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import time
from contextlib import contextmanager
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.classifier import AdClassifier, PlanExport
from repro.core.preprocessing import preprocess_batch
from repro.utils.hashing import image_fingerprint


class WorkerPoolError(RuntimeError):
    """Sharded inference could not complete; callers fall back serial."""


_DEFAULT_TIMEOUT_S = 60.0

#: frame offsets in the frame segment are multiples of this (a cache line)
_FRAME_ALIGN = 64

#: one frame's place in the frame segment: (offset, shape, dtype string)
FrameSlot = Tuple[int, Tuple[int, ...], str]

_Items = TypeVar("_Items", np.ndarray, range)


def _preferred_context() -> mp.context.BaseContext:
    """Fork where available (cheap: no re-import of numpy per worker);
    spawn elsewhere.  Workers rebuild their model from the shared
    segment either way, so both start methods run the same code path.
    """
    try:
        return mp.get_context("fork")
    except ValueError:  # no fork on this platform
        return mp.get_context("spawn")


def _views(
    segment: shared_memory.SharedMemory, layout: Sequence[FrameSlot]
) -> List[np.ndarray]:
    """The frames ``layout`` places in ``segment``, as views into it."""
    return [
        np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
        for offset, shape, dtype in layout
    ]


def _read_frames(
    segment: shared_memory.SharedMemory,
    layout: Sequence[FrameSlot],
    input_size: int,
) -> np.ndarray:
    """Preprocess the frames ``layout`` places in ``segment`` into an
    NCHW batch.  The views into the segment die with this call, so the
    segment is never pinned past it."""
    return preprocess_batch(_views(segment, layout), input_size)


def _fingerprint_frames(
    segment: shared_memory.SharedMemory, layout: Sequence[FrameSlot]
) -> List[str]:
    """Memo keys of the frames ``layout`` places in ``segment``.  A slot
    holds a C-contiguous copy with the source's shape and dtype, so its
    key equals ``image_fingerprint`` of the source frame."""
    return [image_fingerprint(view) for view in _views(segment, layout)]


def _worker_main(conn: Connection, inherited: Sequence[Connection]) -> None:
    """Worker loop: (re)build the plan on ``plan`` (the weight segment's
    name and a :class:`~repro.core.classifier.PlanExport`); score on
    ``run`` (a pickled NCHW batch) and ``frames`` (bitmaps in the frame
    segment); hash on ``fingerprint`` (bitmaps in the frame segment, no
    weights needed).

    Every request carries a task id, and every reply is
    ``("result", task_id, payload)`` — the published fingerprint for a
    plan, probabilities for a score, memo keys for a hash — or
    ``("error", task_id, detail)``; the worker survives a failed request
    and keeps serving (a failed plan build leaves it with no weights).
    A ``frames`` or ``fingerprint`` request names the frame segment; the
    worker re-attaches when the name changes, and holds no view into it
    once it replies.

    Chaos commands (armed by the parent's ``chaos_*`` methods) fire on
    the *next* hashing or scoring request, never on a plan, so the fault
    lands mid-batch: ``chaos-die-on-run`` exits without replying (the
    parent gathers an EOF), ``chaos-stall-on-run`` waits past the pool
    timeout first (exiting at once, without a reply, if the parent's end
    closes meanwhile), and ``chaos-echo`` emits an unsolicited reply
    immediately (the parent's next gather goes out-of-sync and discards
    this worker's pipe).
    """
    # a forked worker starts with copies of the parent's pipe ends (its
    # own and its siblings'); while it holds them, the parent's death
    # never reads as EOF here
    for parent_end in inherited:
        parent_end.close()
    classifier: Optional[AdClassifier] = None
    frames: Optional[shared_memory.SharedMemory] = None
    die_on_run = False
    stall_on_run_s = 0.0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "chaos-die-on-run":
            die_on_run = True
        elif kind == "chaos-stall-on-run":
            stall_on_run_s = float(message[1])
        elif kind == "chaos-echo":
            try:
                conn.send(("chaos-echo",))
            except (BrokenPipeError, OSError):
                break
        elif kind in ("plan", "run", "frames", "fingerprint"):
            task_id = message[1]
            if kind != "plan":
                if die_on_run:
                    break
                if stall_on_run_s > 0.0:
                    # mid-call the parent sends nothing more, so input
                    # during the stall is an EOF: the parent is gone
                    if conn.poll(stall_on_run_s):
                        break
                    stall_on_run_s = 0.0
            if classifier is None and kind in ("run", "frames"):
                conn.send(("error", task_id, "no published weights"))
                continue
            try:
                if kind == "plan":
                    _, _, export, segment_name = message
                    classifier = None
                    weights = shared_memory.SharedMemory(name=segment_name)
                    try:
                        classifier = AdClassifier.from_plan_export(
                            export, weights.buf
                        )
                    finally:
                        weights.close()
                    payload = export.fingerprint
                elif kind == "run":
                    payload = classifier.predict_proba_tensor(message[2])
                else:
                    _, _, segment_name, layout = message
                    if frames is None or frames.name != segment_name:
                        if frames is not None:
                            frames.close()
                            frames = None
                        frames = shared_memory.SharedMemory(name=segment_name)
                    if kind == "fingerprint":
                        payload = _fingerprint_frames(frames, layout)
                    else:
                        payload = classifier.predict_proba_tensor(
                            _read_frames(
                                frames, layout, classifier.config.input_size
                            )
                        )
                reply = ("result", task_id, payload)
            except Exception as exc:
                reply = ("error", task_id, f"{type(exc).__name__}: {exc}")
            # sent outside the handler: a failed read's traceback (and
            # any segment view it holds) is gone before the parent may
            # write the segment again
            conn.send(reply)
        elif kind == "stop":
            break
    if frames is not None:
        frames.close()
    try:
        conn.close()
    except OSError:
        pass


def _split(items: _Items, parts: int) -> List[_Items]:
    """``parts`` contiguous slices of ``items``, with ``np.array_split``'s
    bounds (the first ``len % parts`` slices one item longer), over an
    NCHW batch or a ``range`` of indices into a list of ragged
    bitmaps."""
    base, extra = divmod(len(items), parts)
    shares, start = [], 0
    for index in range(parts):
        stop = start + base + (index < extra)
        shares.append(items[start:stop])
        start = stop
    return shares


def _probabilities(parts: list) -> np.ndarray:
    """One float32 P(ad) vector from the lanes' results, in lane order."""
    return np.concatenate([np.asarray(part, dtype=np.float32) for part in parts])


def _unlink(segment: Optional[shared_memory.SharedMemory]) -> None:
    """Close and unlink a parent-owned segment (``None`` is a no-op)."""
    if segment is None:
        return
    try:
        segment.close()
    finally:
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


class _Worker:
    """Parent-side handle: process, pipe, last-acked fingerprint."""

    __slots__ = ("process", "conn", "fingerprint")

    def __init__(self, process, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.fingerprint: Optional[str] = None


class InferenceWorkerPool:
    """A process pool sharding batched inference across cores."""

    #: ceiling of the exponential respawn backoff
    _MAX_RESPAWN_BACKOFF_S = 2.0

    def __init__(
        self,
        num_workers: int,
        timeout_s: float = _DEFAULT_TIMEOUT_S,
        respawn_budget: int = 16,
        respawn_backoff_s: float = 0.05,
    ) -> None:
        if num_workers < 1:
            raise ValueError(
                "num_workers must be >= 1; use PERCIVAL_WORKERS=0 (or"
                " num_workers=0 on the config) to disable sharding instead"
            )
        if respawn_budget < 0:
            raise ValueError("respawn_budget must be >= 0")
        if respawn_backoff_s < 0:
            raise ValueError("respawn_backoff_s must be >= 0")
        self.num_workers = int(num_workers)
        self.timeout_s = float(timeout_s)
        #: worker replacements (after a death) this pool may still make
        self.respawn_budget = int(respawn_budget)
        self.respawn_backoff_s = float(respawn_backoff_s)
        self._ctx = _preferred_context()
        self._workers: List[_Worker] = []
        self._segment: Optional[shared_memory.SharedMemory] = None
        #: the workers' shares of a bitmap batch; created on the first
        #: bitmap scatter, grown by doubling, released by close()
        self._frames: Optional[shared_memory.SharedMemory] = None
        self._export: Optional[PlanExport] = None
        #: the parent's lane: the published export, rebuilt in-process
        self._lane: Optional[AdClassifier] = None
        self._task_counter = 0
        self._closed = False
        self._dispatching = False
        #: worker replacements performed so far (initial spawns and
        #: resize growth are free — they replace nothing)
        self.respawns = 0
        self._respawn_streak = 0
        self._respawn_not_before_s = 0.0
        self._chaos_publish_failures = 0
        self._fail_next_publish = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def alive_workers(self) -> int:
        return sum(1 for w in self._workers if w.process.is_alive())

    @property
    def published_fingerprint(self) -> Optional[str]:
        """Fingerprint of the weights workers currently hold.

        Reads as unpublished while a chaos publish failure is armed, so
        the caller's staleness check routes through ``publish()`` and
        hits the injected failure exactly once."""
        if self._fail_next_publish:
            return None
        return self._export.fingerprint if self._export else None

    @property
    def budget_exhausted(self) -> bool:
        """True once every allowed worker replacement has been spent."""
        return self.respawns >= self.respawn_budget

    def stats(self) -> dict:
        """Pool health counters for serving dashboards and tests."""
        return {
            "num_workers": self.num_workers,
            "alive_workers": self.alive_workers,
            "respawns": self.respawns,
            "respawn_budget": self.respawn_budget,
            "budget_exhausted": self.budget_exhausted,
            "chaos_publish_failures": self._chaos_publish_failures,
        }

    @property
    def dispatching(self) -> bool:
        """True while a scatter/gather call is in flight."""
        return self._dispatching

    @property
    def available_capacity(self) -> int:
        """Workers a new batch would scatter across *right now* without
        queueing behind anything.

        ``0`` when the pool is closed, has no published weights, or is
        mid-call (the parent computes its own shard and then gathers
        synchronously, and a concurrent call is refused with
        :class:`WorkerPoolError`); otherwise the full
        worker count — dead workers are respawned at call entry, so
        they still count as capacity.  The parent's lane is not
        counted: it is the calling thread, busy for the whole call, so
        it adds no room for a second concurrent batch.  Once the respawn
        budget is exhausted nothing will replace further deaths, so
        capacity honestly degrades to the surviving workers.  The
        serving layer polls this without blocking to size and pace its
        flushes.
        """
        if self._closed or self._export is None or self._dispatching:
            return 0
        if self.budget_exhausted:
            return self.alive_workers
        return self.num_workers

    # ------------------------------------------------------------------
    # Weight publication
    # ------------------------------------------------------------------
    def publish(self, classifier: AdClassifier) -> str:
        """Ship ``classifier``'s weights to every worker and the
        parent's lane.

        Fingerprint-keyed: publishing unchanged weights to a healthy
        pool is a no-op; publishing after the classifier's weights were
        replaced (``load()``/``train()``) creates a fresh shared
        segment, the parent rebuilds its lane from it, and every worker
        recompiles its plan from it.  Returns the published fingerprint.
        """
        self._ensure_open()
        if self._fail_next_publish:
            self._fail_next_publish = False
            self._chaos_publish_failures += 1
            raise WorkerPoolError("injected publish failure (chaos)")
        fingerprint = classifier.weights_fingerprint()
        if self._export is None or self._export.fingerprint != fingerprint:
            export = classifier.export_plan()
            try:
                segment = shared_memory.SharedMemory(
                    create=True, size=max(export.total_bytes, 1)
                )
            except OSError as exc:
                # e.g. /dev/shm full: a publication failure must surface
                # as WorkerPoolError so callers fall back in-process
                raise WorkerPoolError(
                    f"could not create shared segment: {exc}"
                ) from exc
            try:
                classifier.pack_weights_into(export, segment.buf)
                # the workers' import, from the very segment bytes they read
                lane = AdClassifier.from_plan_export(export, segment.buf)
            except Exception as exc:
                segment.close()
                segment.unlink()
                raise WorkerPoolError(
                    f"could not publish weights: {exc}"
                ) from exc
            _unlink(self._segment)
            self._segment = segment
            self._export = export
            self._lane = lane
        # same fingerprint: the live segment already holds these bytes;
        # only dead/stale workers need (re)syncing, which is a no-op for
        # a healthy pool.
        self._sync_workers()
        return fingerprint

    # ------------------------------------------------------------------
    # Sharded inference
    # ------------------------------------------------------------------
    def predict_proba(self, batch: np.ndarray) -> np.ndarray:
        """P(ad) for a preprocessed NCHW batch, sharded across the
        workers and the parent.

        Each worker's slice of ``batch`` is pickled to it; see
        :meth:`ad_probabilities` for the raw-bitmap path, which shares
        this call's split, scatter, gather and failure handling.
        """
        with self._dispatch():
            if not len(batch):
                return np.empty(0, dtype=np.float32)
            self._sync_workers()
            *shares, own = _split(batch, len(self._workers) + 1)
            return _probabilities(
                self._scatter_gather(
                    [("run", share) for share in shares if len(share)],
                    lambda: self._lane.predict_proba_tensor(own),
                )
            )

    def ad_probabilities(
        self,
        bitmaps: Sequence[np.ndarray],
        select: Optional[Callable[[List[str]], Optional[Sequence[int]]]] = None,
    ) -> Optional[np.ndarray]:
        """P(ad) for raw decoded bitmaps, each lane preprocessing its
        own share — or, given ``select``, for the frames it picks by
        memo key.

        The workers' shares (``_split``'s bounds over the live workers,
        the parent's last) are copied into the frame segment once; each
        worker is sent only where its frames lie, and the parent reads
        its own share in place.  With ``select``, every lane first
        hashes its own share with ``image_fingerprint``, and ``select``
        gets every frame's key, in input order, and returns the
        ascending indices of the frames to score, or ``None`` to end the
        call.  Then every lane scores the selected frames in its own
        share (all of them without ``select``).

        Returns their probabilities in order, or ``None``; bitwise equal
        to :meth:`predict_proba` over the preprocessed frames.  An empty
        batch returns an empty vector without calling ``select``.
        """
        bitmaps = list(bitmaps)
        with self._dispatch():
            if not bitmaps:
                return np.empty(0, dtype=np.float32)
            self._sync_workers()
            # split across the workers actually alive — a pool running
            # degraded (deferred/exhausted respawns) still covers the
            # whole batch, just across fewer processes — plus the parent;
            # the first shares are the longer ones, so only trailing
            # worker shares can be empty
            *shares, own = _split(range(len(bitmaps)), len(self._workers) + 1)
            shares = [share for share in shares if len(share)]
            name, layouts = self._copy_frames(
                [bitmaps[share.start:share.stop] for share in shares]
            )
            selected: Optional[Sequence[int]] = range(len(bitmaps))
            if select is not None:
                keys = self._scatter_gather(
                    [("fingerprint", name, layout) for layout in layouts],
                    lambda: [image_fingerprint(bitmaps[index]) for index in own],
                )
                selected = select([key for share_keys in keys for key in share_keys])
                if selected is None:
                    return None
            *picks, own_picks = [
                [index for index in selected if index in share]
                for share in (*shares, own)
            ]
            messages = [
                ("frames", name, [layout[index - share.start] for index in picked])
                for share, layout, picked in zip(shares, layouts, picks)
                if picked
            ]
            return _probabilities(
                self._scatter_gather(
                    messages,
                    lambda: self._lane_frames([bitmaps[i] for i in own_picks]),
                )
            )

    @contextmanager
    def _dispatch(self) -> Iterator[None]:
        """Hold the pool in flight for one call, which may run several
        scatter/gather phases.

        Raises :class:`WorkerPoolError` when the pool is closed or
        unpublished, and when another call is already in flight — its
        workers may still be reading the frame segment.
        """
        self._ensure_open()
        if self._export is None:
            raise WorkerPoolError("no weights published; call publish()")
        if self._dispatching:
            raise WorkerPoolError("a batch is already in flight on this pool")
        self._dispatching = True
        try:
            yield
        finally:
            self._dispatching = False

    def _scatter_gather(
        self,
        messages: List[tuple],
        own: Callable[[], object],
        workers: Optional[Sequence[_Worker]] = None,
    ) -> list:
        """The one scatter/gather/drain loop behind every entry point,
        every phase and every publication.

        Sends ``messages[i]`` (``(kind, *payload)``, tagged here with a
        fresh task id) to ``workers[i]`` (the live workers by default),
        runs ``own()`` (the parent's lane) while the workers compute,
        then gathers the workers' ``("result", task_id, payload)``
        replies in order; returns ``[*payloads, own()]``.  Runs with no
        other reply outstanding: inside :meth:`_dispatch`, or from a
        publication.  Raises :class:`WorkerPoolError` on an ``error``
        reply, worker death or timeout — never a silently wrong result.
        On any failure, the parent's lane included, workers still
        holding an in-flight reply are drained (or discarded when they
        cannot be), so one bad batch never poisons the pipes, or the
        frame segment, for the next call.
        """
        in_flight: List[_Worker] = []
        task_ids: List[int] = []
        if workers is None:
            workers = self._workers
        for worker, (kind, *payload) in zip(workers, messages):
            self._task_counter += 1
            task_id = self._task_counter
            try:
                worker.conn.send((kind, task_id, *payload))
            except (BrokenPipeError, OSError) as exc:
                self._drain(in_flight)
                self._discard_worker(worker)
                raise WorkerPoolError(f"worker died during scatter: {exc}") from exc
            in_flight.append(worker)
            task_ids.append(task_id)
        try:
            mine = own()
        except Exception:
            # the workers' replies must not outlive this call
            self._drain(in_flight)
            raise
        gathered: list = []
        for position, (worker, task_id) in enumerate(zip(in_flight, task_ids)):
            pending = in_flight[position + 1:]
            try:
                reply = self._recv(worker)
            except WorkerPoolError:
                self._discard_worker(worker)
                self._drain(pending)
                raise
            if reply[:2] == ("result", task_id):
                gathered.append(reply[2])
                continue
            if reply[:2] == ("error", task_id):
                # clean failure: the worker consumed the task and its
                # pipe stays in sync — only later workers need draining
                self._drain(pending)
                raise WorkerPoolError(f"worker failed mid-batch: {reply[2]}")
            # out-of-sync reply: this worker's pipe cannot be trusted
            self._discard_worker(worker)
            self._drain(pending)
            raise WorkerPoolError(
                f"out-of-sync {reply[0]!r} reply from worker; discarded it"
            )
        gathered.append(mine)
        return gathered

    def _copy_frames(
        self, shares: List[list]
    ) -> Tuple[str, List[List[FrameSlot]]]:
        """Copy the workers' bitmap shares into the frame segment.

        Returns the segment's name and, per share, the
        :data:`FrameSlot` of each of its frames.  Only called with no
        reply outstanding.
        """
        if not shares:
            return "", []
        layouts: List[List[FrameSlot]] = []
        end = 0
        for share in shares:
            layout: List[FrameSlot] = []
            for bitmap in share:
                layout.append((end, bitmap.shape, bitmap.dtype.str))
                end += -(-bitmap.nbytes // _FRAME_ALIGN) * _FRAME_ALIGN
            layouts.append(layout)
        segment = self._frame_segment(end)
        for share, layout in zip(shares, layouts):
            for bitmap, (offset, shape, dtype) in zip(share, layout):
                np.ndarray(
                    shape, dtype=dtype, buffer=segment.buf, offset=offset
                )[...] = bitmap
        return segment.name, layouts

    def _frame_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        """The frame segment, at least ``nbytes`` long.

        Created on first use; when a batch does not fit, replaced by
        one of twice the size (doubling until it fits) and the old one
        unlinked — a worker still attached to it re-attaches by name on
        its next request.  Never shrunk.  Only called with no reply
        outstanding, so no worker is reading the segment it replaces.
        """
        frames = self._frames
        if frames is not None and frames.size >= nbytes:
            return frames
        size = max(nbytes, 1) if frames is None else frames.size
        while size < nbytes:
            size *= 2
        try:
            grown = shared_memory.SharedMemory(create=True, size=size)
        except OSError as exc:
            # e.g. /dev/shm full: the caller falls back in-process
            raise WorkerPoolError(f"could not create frame segment: {exc}") from exc
        _unlink(frames)
        self._frames = grown
        return grown

    def _lane_frames(self, bitmaps: list) -> np.ndarray:
        """The parent's lane over its own share of raw bitmaps."""
        if not bitmaps:
            return np.empty(0, dtype=np.float32)
        tensors = preprocess_batch(bitmaps, self._lane.config.input_size)
        return self._lane.predict_proba_tensor(tensors)

    # ------------------------------------------------------------------
    # Deterministic fault injection (the repro.resilience chaos plane)
    # ------------------------------------------------------------------
    def chaos_arm_worker_death(self, index: int = 0) -> bool:
        """Arm worker ``index`` to exit on its next sub-batch, so the
        parent sees EOF mid-gather.  Returns False when no worker could
        be armed (pool closed/empty) — the fault is then a no-op."""
        return self._chaos_send(index, ("chaos-die-on-run",))

    def chaos_arm_worker_stall(
        self, index: int = 0, stall_s: Optional[float] = None
    ) -> bool:
        """Arm worker ``index`` to wait past the pool timeout before
        answering its next sub-batch (the slow-worker path); it exits
        instead if the pool's end of its pipe closes first."""
        if stall_s is None:
            stall_s = self.timeout_s * 2.0
        return self._chaos_send(index, ("chaos-stall-on-run", float(stall_s)))

    def chaos_corrupt_pipe(self, index: int = 0) -> bool:
        """Make worker ``index`` emit an unsolicited reply now, so the
        parent's next gather from it is out-of-sync (pipe corruption —
        the worker gets discarded, never trusted)."""
        return self._chaos_send(index, ("chaos-echo",))

    def chaos_fail_next_publish(self) -> bool:
        """The next ``publish()`` raises :class:`WorkerPoolError`, and
        until it does the published fingerprint reads unpublished (so
        the caller's staleness check actually routes through it)."""
        if self._closed:
            return False
        self._fail_next_publish = True
        return True

    def _chaos_send(self, index: int, command: tuple) -> bool:
        if self._closed or not self._workers:
            return False
        worker = self._workers[index % len(self._workers)]
        try:
            worker.conn.send(command)
        except (BrokenPipeError, OSError):
            return False
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def resize(self, num_workers: int) -> int:
        """Grow or shrink the worker set to ``num_workers``; returns the
        new count.

        The autoscaling hook: growth spawns workers lazily (they attach
        to the already-published shared segment on the next
        ``_sync_workers``, so no re-publication and no re-packing), and
        shrinkage stops the highest-indexed workers — the same
        deterministic tie-break the serve loop's lanes use.  Resizing a
        mid-dispatch pool raises: the scatter order of an in-flight
        batch is already fixed.
        """
        self._ensure_open()
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self._dispatching:
            raise WorkerPoolError("cannot resize while a batch is in flight")
        num_workers = int(num_workers)
        if num_workers < len(self._workers):
            for worker in self._workers[num_workers:]:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=2.0)
                try:
                    worker.conn.close()
                except OSError:
                    pass
            self._workers = self._workers[:num_workers]
        self.num_workers = num_workers
        if self._export is not None:
            # grow eagerly so available_capacity reflects the new size
            # immediately (shrink already took effect above)
            self._sync_workers()
        return self.num_workers

    def close(self) -> None:
        """Stop workers and release both shared segments.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []
        _unlink(self._segment)
        _unlink(self._frames)
        self._segment = self._frames = None
        self._export = None
        self._lane = None
        try:
            atexit.unregister(self.close)
        except Exception:
            pass

    def __enter__(self) -> "InferenceWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise WorkerPoolError("worker pool is closed")

    def _spawn(self, siblings: Sequence[_Worker]) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        inherited = [parent_conn] + [
            worker.conn for worker in siblings if not worker.conn.closed
        ]
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, inherited),
            daemon=True,
            name="percival-inference-worker",
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _sync_workers(self) -> None:
        """Respawn dead workers; (re)send the plan to stale ones.

        The plan goes only to the stale workers, through
        :meth:`_scatter_gather` with nothing in the parent's lane, so a
        publication fails and drains exactly as a batch does; a worker
        whose reply was not gathered stays stale and is sent the plan
        again on the next sync.

        Replacements are budgeted: a worker that died costs one unit of
        ``respawn_budget`` to replace, and consecutive replacement
        rounds back off exponentially (a deterministically-crashing
        worker must not cost a fork per batch).  While a replacement is
        deferred — or the budget is spent — the pool keeps serving
        *degraded* on its surviving workers; with none left it raises
        :class:`WorkerPoolError` and the caller falls back in-process.
        Initial spawns and resize growth replace nothing and are free.
        """
        if self._export is None or self._segment is None:
            raise WorkerPoolError("no weights published; call publish()")
        alive: List[_Worker] = []
        dead = 0
        for worker in self._workers:
            if worker.process.is_alive():
                alive.append(worker)
            else:
                dead += 1
                try:
                    worker.conn.close()
                except OSError:
                    pass
        missing = max(self.num_workers - len(alive), 0)
        growth = max(missing - dead, 0)
        replacements = missing - growth
        for _ in range(growth):
            alive.append(self._spawn(alive))
        if replacements:
            now_s = time.monotonic()
            if self.budget_exhausted or now_s < self._respawn_not_before_s:
                replacements = 0
            else:
                replacements = min(
                    replacements, self.respawn_budget - self.respawns
                )
        if replacements:
            for _ in range(replacements):
                alive.append(self._spawn(alive))
            self.respawns += replacements
            self._respawn_streak += 1
            backoff = min(
                self.respawn_backoff_s * (2.0 ** (self._respawn_streak - 1)),
                self._MAX_RESPAWN_BACKOFF_S,
            )
            self._respawn_not_before_s = time.monotonic() + backoff
        elif not dead and len(alive) >= self.num_workers:
            # a fully healthy sync ends the crash streak: the next
            # death pays the base backoff again, not the escalated one
            self._respawn_streak = 0
        self._workers = alive
        if not self._workers:
            raise WorkerPoolError(
                "no live workers (respawn budget exhausted or backing"
                " off); callers fall back in-process"
            )
        stale = [
            worker
            for worker in self._workers
            if worker.fingerprint != self._export.fingerprint
        ]
        if not stale:
            return
        fingerprints = self._scatter_gather(
            [("plan", self._export, self._segment.name)] * len(stale),
            lambda: None,
            stale,
        )
        for worker, fingerprint in zip(stale, fingerprints):
            worker.fingerprint = fingerprint

    def _drain(self, pending: Sequence[_Worker]) -> None:
        """Leave no poisoned pipes behind after a failed call.

        Each pending worker holds at most one outstanding reply (to a
        sub-batch or a plan); drain it so the next call starts from
        clean pipes, and discard any worker that cannot be drained
        within the timeout (``_sync_workers`` respawns a replacement on
        the next call).
        """
        for worker in pending:
            try:
                if worker.conn.poll(self.timeout_s):
                    worker.conn.recv()
                else:
                    self._discard_worker(worker)
            except (EOFError, OSError):
                self._discard_worker(worker)

    def _discard_worker(self, worker: _Worker) -> None:
        """Kill a worker whose pipe state is unknown; it is filtered
        out (and replaced) by the next ``_sync_workers``."""
        try:
            worker.process.terminate()
            worker.process.join(timeout=2.0)
        except (OSError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass

    def _recv(self, worker: _Worker) -> tuple:
        if not worker.conn.poll(self.timeout_s):
            raise WorkerPoolError(
                f"timed out after {self.timeout_s:.0f}s waiting on worker"
            )
        try:
            return worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerPoolError(f"worker connection lost: {exc}") from exc
