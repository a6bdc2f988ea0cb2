"""Multiprocess inference sharding.

:class:`InferenceWorkerPool` owns N worker processes that each hold a
private copy of the model and a compiled
:class:`~repro.nn.inference.InferencePlan`.  The parent splits a
memo-miss batch into N + 1 equal sub-batches, scatters the first N over
pipes, computes the last one itself while the workers run, and gathers
per-frame ad probabilities back in order — so a page's batched forward
pass scales with cores instead of saturating one GIL, and the parent's
core works instead of idling on the pipes.

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

Failure semantics: any worker death or timeout surfaces as
:class:`WorkerPoolError`, which callers (``PercivalBlocker``) treat as
"fall back to in-process inference" — a dying pool can slow a page
down, never mis-classify it.  An exception in the parent's own lane
propagates as raised, after the workers' in-flight replies are
drained.  Dead workers are respawned on the next call, but not
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
exactly where the recovery paths above must catch it.  They are inert
unless called — a pool that never sees chaos runs the same bytes as
before.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import time
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from typing import List, Optional, Tuple

import numpy as np

from repro.core.classifier import AdClassifier, PlanExport


class WorkerPoolError(RuntimeError):
    """Sharded inference could not complete; callers fall back serial."""


_DEFAULT_TIMEOUT_S = 60.0


def _preferred_context() -> mp.context.BaseContext:
    """Fork where available (cheap: no re-import of numpy per worker);
    spawn elsewhere.  Workers rebuild their model from the shared
    segment either way, so both start methods run the same code path.
    """
    try:
        return mp.get_context("fork")
    except ValueError:  # no fork on this platform
        return mp.get_context("spawn")


def _worker_main(conn: Connection) -> None:
    """Worker loop: (re)build the plan on ``plan``, score on ``run``.

    Replies: ``("ready", fingerprint)`` after a successful plan build,
    ``("result", task_id, probabilities)`` per sub-batch, and
    ``("error", detail)`` / ``("error", task_id, detail)`` on failure —
    the worker survives a failed request and keeps serving.

    Chaos commands (armed by the parent's ``chaos_*`` methods) fire on
    the *next* ``run`` so the fault lands mid-batch: ``chaos-die-on-run``
    exits without replying (the parent gathers an EOF),
    ``chaos-stall-on-run`` sleeps past the pool timeout first, and
    ``chaos-echo`` emits an unsolicited reply immediately (the parent's
    next gather goes out-of-sync and discards this worker's pipe).
    """
    classifier: Optional[AdClassifier] = None
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
        elif kind == "plan":
            _, export, segment_name = message
            try:
                segment = shared_memory.SharedMemory(name=segment_name)
                try:
                    classifier = AdClassifier.from_plan_export(export, segment.buf)
                finally:
                    segment.close()
                conn.send(("ready", export.fingerprint))
            except Exception as exc:
                classifier = None
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
        elif kind == "run":
            _, task_id, batch = message
            if die_on_run:
                break
            if stall_on_run_s > 0.0:
                time.sleep(stall_on_run_s)
                stall_on_run_s = 0.0
            if classifier is None:
                conn.send(("error", task_id, "no published weights"))
                continue
            try:
                probabilities = classifier.predict_proba_tensor(batch)
                conn.send(("result", task_id, probabilities))
            except Exception as exc:
                conn.send(("error", task_id, f"{type(exc).__name__}: {exc}"))
        elif kind == "stop":
            break
    try:
        conn.close()
    except OSError:
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
        mid-``predict_proba`` (the parent computes its own shard and
        then gathers synchronously, so a concurrent caller would
        serialize behind the in-flight batch); otherwise the full
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
            self._retire_segment()
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

        Sub-batches are contiguous ``array_split`` slices, one per live
        worker plus a last one the parent computes while the workers
        run, gathered in split order, so the result aligns one-to-one
        with ``batch``.  Raises :class:`WorkerPoolError` on worker death
        or timeout — never a silently wrong probability.  On any
        failure, the parent's lane included, workers still holding an
        in-flight reply are drained (or discarded when they cannot be),
        so one bad batch never poisons the pipes for the next call.
        """
        self._ensure_open()
        if self._export is None:
            raise WorkerPoolError("no weights published; call publish()")
        if batch.shape[0] == 0:
            return np.empty(0, dtype=np.float32)
        self._dispatching = True
        try:
            self._sync_workers()
            # split across the workers actually alive — a pool running
            # degraded (deferred/exhausted respawns) still covers the
            # whole batch, just across fewer processes — plus the parent
            *shards, own_shard = np.array_split(batch, len(self._workers) + 1)
            in_flight: List[Tuple[_Worker, int]] = []
            for worker, shard in zip(self._workers, shards):
                if not shard.shape[0]:
                    break
                self._task_counter += 1
                task_id = self._task_counter
                try:
                    worker.conn.send(("run", task_id, shard))
                except (BrokenPipeError, OSError) as exc:
                    self._recover_in_flight(in_flight)
                    self._discard_worker(worker)
                    raise WorkerPoolError(
                        f"worker died during scatter: {exc}"
                    ) from exc
                in_flight.append((worker, task_id))
            try:
                own = self._lane.predict_proba_tensor(own_shard)
            except Exception:
                # the workers' replies must not outlive this call
                self._recover_in_flight(in_flight)
                raise
            gathered: List[np.ndarray] = []
            for position, (worker, task_id) in enumerate(in_flight):
                pending = in_flight[position + 1:]
                try:
                    reply = self._recv(worker)
                except WorkerPoolError:
                    self._discard_worker(worker)
                    self._recover_in_flight(pending)
                    raise
                if reply[0] == "result" and reply[1] == task_id:
                    gathered.append(np.asarray(reply[2], dtype=np.float32))
                    continue
                if reply[0] == "error" and len(reply) == 3 and reply[1] == task_id:
                    # clean failure: the worker consumed the task and its
                    # pipe stays in sync — only later workers need draining
                    self._recover_in_flight(pending)
                    raise WorkerPoolError(f"worker failed mid-batch: {reply[2]}")
                # out-of-sync reply: this worker's pipe cannot be trusted
                self._discard_worker(worker)
                self._recover_in_flight(pending)
                raise WorkerPoolError(
                    f"out-of-sync {reply[0]!r} reply from worker; discarded it"
                )
            gathered.append(own)
            return np.concatenate(gathered)
        finally:
            self._dispatching = False

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
        """Arm worker ``index`` to sleep past the pool timeout before
        answering its next sub-batch (the slow-worker path)."""
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
        """Stop workers and release the shared segment.  Idempotent."""
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
        self._retire_segment()
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

    def _retire_segment(self) -> None:
        if self._segment is None:
            return
        try:
            self._segment.close()
        finally:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass
            self._segment = None

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name="percival-inference-worker",
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _sync_workers(self) -> None:
        """Respawn dead workers; (re)send the plan to stale ones.

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
            alive.append(self._spawn())
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
                alive.append(self._spawn())
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
        for worker in stale:
            try:
                worker.conn.send(("plan", self._export, self._segment.name))
            except (BrokenPipeError, OSError) as exc:
                raise WorkerPoolError(
                    f"worker died during weight publication: {exc}"
                ) from exc
        for worker in stale:
            reply = self._recv(worker)
            if reply[0] != "ready" or reply[1] != self._export.fingerprint:
                raise WorkerPoolError(f"worker failed to build plan: {reply[-1]}")
            worker.fingerprint = reply[1]

    def _recover_in_flight(self, pending: List[Tuple[_Worker, int]]) -> None:
        """Leave no poisoned pipes behind after a failed batch.

        Each pending worker holds at most one outstanding reply; drain
        it so the next ``predict_proba`` starts from clean pipes, and
        discard any worker that cannot be drained within the timeout
        (``_sync_workers`` respawns a replacement on the next call).
        """
        for worker, _task_id in pending:
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
