"""The render-pipeline blocker.

:class:`PercivalBlocker` is what the browser substrate talks to (the
renderer, :mod:`repro.browser.renderer`, takes one): a verdict per
decoded bitmap, a calibrated virtual cost per classification, and a
memoization cache keyed on the decoded pixels (the async deployment of
§1.1 — results are memoized, "thus speeding up the classification
process", and a previously-seen creative blocks instantly on the next
encounter).

Three hot-path refinements over the naive per-frame loop:

* every entry point accepts a precomputed fingerprint ``key`` so a frame
  is hashed exactly once per encounter (the renderer hashes once and
  threads the key through lookup and classification),
* :meth:`decide_many` batches a whole page's frames: fingerprint all,
  serve memo hits, classify the unique misses in **one** NCHW forward
  through the classifier's compiled fast path, then fill the memo, and
* a blocker holding an :class:`~repro.core.workerpool.InferenceWorkerPool`
  handle hands large batches to the pool as raw bitmaps: every lane
  works on its own share — the workers read theirs from a
  shared-memory frame segment, weights ride a second segment published
  once — and the calling thread computes the last share as lane N + 1
  while the workers run, so neither preprocessing nor the forward pass
  waits serially in the parent.  Both reach the pool through one
  :meth:`~repro.core.workerpool.InferenceWorkerPool.ad_probabilities`
  call: a keyed call sends its memo misses; a keyless one sends the
  whole batch with a ``select`` that probes the memo, so the lanes
  fingerprint it too before scoring the misses in their shares.
  Batches under ``shard_min_batch``, pool failures, and pool-less
  blockers all hash, preprocess and score in-process on the
  single-process fast path — sharding can only change *where* a key or
  a probability is computed, never its value.

Memoized verdicts are generation-keyed on the classifier's
``weights_version``: a ``load()``/``train()`` (which also covers a
precision change, since precision is fixed per classifier and folded
into its weights fingerprint) clears the memo before the next lookup,
so a cached verdict can never outlive the weights — or the storage
precision — that produced it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.browser.skia import SkImageInfo
from repro.core.classifier import AdClassifier
from repro.core.preprocessing import preprocess_batch
from repro.core.workerpool import InferenceWorkerPool, WorkerPoolError
from repro.utils.hashing import image_fingerprint


@dataclass
class BlockDecision:
    """A verdict with provenance (fresh classification vs memo hit)."""

    is_ad: bool
    probability: float
    from_cache: bool


class PercivalBlocker:
    """PERCIVAL as seen by the rendering engine."""

    def __init__(
        self,
        classifier: AdClassifier,
        calibrated_latency_ms: Optional[float] = None,
        memo_capacity: int = 4096,
        pool: Optional[InferenceWorkerPool] = None,
        shard_min_batch: Optional[int] = None,
    ) -> None:
        self.classifier = classifier
        #: worker pool for sharded batch inference (None = in-process).
        #: Duck-typed: anything with ``closed``/``published_fingerprint``
        #: /``publish``/``ad_probabilities(bitmaps, select)`` works —
        #: tests inject stubs.
        self.pool = pool
        if shard_min_batch is None:
            shard_min_batch = classifier.config.shard_min_batch
        self.shard_min_batch = int(shard_min_batch)
        if calibrated_latency_ms is None:
            calibrated_latency_ms = (
                classifier.config.calibrated_latency_ms
                if classifier.config.calibrated_latency_ms is not None
                else classifier.measured_latency_ms()
            )
        #: virtual cost charged per classification in render simulations
        self.calibrated_latency_ms = float(calibrated_latency_ms)
        self._memo: "OrderedDict[str, BlockDecision]" = OrderedDict()
        self._memo_capacity = memo_capacity
        #: weights generation the memo contents belong to; a mismatch
        #: with the classifier's ``weights_version`` clears the memo
        self._memo_version = classifier.weights_version
        self.classifications = 0
        self.blocks = 0
        #: times a pool failure degraded a batch to in-process compute;
        #: the serving fault harness asserts this fires exactly once per
        #: injected failure
        self.pool_fallbacks = 0

    def _check_memo_generation(self) -> None:
        """Drop memoized verdicts computed by replaced weights.

        An integer compare per entry point — the cost of never serving
        a verdict from weights (or a precision) that no longer exist.
        """
        version = self.classifier.weights_version
        if version != self._memo_version:
            self._memo.clear()
            self._memo_version = version

    # ------------------------------------------------------------------
    # Renderer hooks
    # ------------------------------------------------------------------
    def classify_bitmap(self, bitmap: np.ndarray, info: SkImageInfo) -> bool:
        """Classify a decoded frame; memoizes and returns the verdict."""
        decision = self.decide(bitmap)
        return decision.is_ad

    def classify_cost_ms(self, info: SkImageInfo) -> float:
        """Virtual cost of one classification.

        The model is fixed-input (frames are scaled to the network size
        before inference), so cost does not scale with the source image;
        the decode step already accounted for size-dependent work.
        """
        return self.calibrated_latency_ms

    def memoized_decision(
        self, bitmap: Optional[np.ndarray] = None, key: Optional[str] = None
    ) -> Optional[BlockDecision]:
        """Full decision record from the memo, or ``None`` on a miss.

        The serving layer's batch-entry hook: a request whose
        fingerprint hits here resolves *without entering the batch
        queue* — and because every session of a serve loop shares one
        blocker, the memo is shared across sessions (a creative
        classified for one page session answers every other session
        instantly).  Accepts a precomputed ``key`` so the hot path
        hashes each frame exactly once.
        """
        self._check_memo_generation()
        if key is None:
            if bitmap is None:
                raise ValueError("need a bitmap or a precomputed key")
            key = self.fingerprint(bitmap)
        cached = self._memo.get(key)
        if cached is None:
            return None
        self._memo.move_to_end(key)
        return BlockDecision(
            is_ad=cached.is_ad,
            probability=cached.probability,
            from_cache=True,
        )

    # ------------------------------------------------------------------
    # Rich API
    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(bitmap: np.ndarray) -> str:
        """Memo key for a decoded frame.  Callers on the hot path hash
        once and pass the key to ``memoized_decision``/``decide`` so the
        frame is never fingerprinted twice per encounter."""
        return image_fingerprint(bitmap)

    def decide(
        self, bitmap: np.ndarray, key: Optional[str] = None
    ) -> BlockDecision:
        """Full decision record for a bitmap, using the memo cache."""
        key = key if key is not None else self.fingerprint(bitmap)
        cached = self.memoized_decision(key=key)
        if cached is not None:
            return cached
        probability = self.classifier.ad_probability(bitmap)
        return self._record(key, probability)

    def decide_many(
        self,
        bitmaps: Sequence[np.ndarray],
        keys: Optional[Sequence[str]] = None,
    ) -> List[BlockDecision]:
        """Batched verdicts for a page's worth of decoded frames.

        Fingerprints every frame once, serves memo hits, deduplicates
        the misses by fingerprint, classifies the unique misses in one
        batched forward pass, and fills the memo.  Duplicate frames in
        the input share one classification (and one ``classifications``
        count); their decisions report ``from_cache=False`` because the
        verdict was computed during this call.

        A batch the pool takes goes through one
        :meth:`~repro.core.workerpool.InferenceWorkerPool.ad_probabilities`
        call.  A keyed call (the serve fronts hash at submit) sends its
        unique memo misses.  A keyless call sends the whole batch with a
        ``select`` that probes the memo, so every lane hashes its own
        share, the memo is probed here between the phases, and every
        lane scores the unique misses in its own share.  Either way the
        keys, probabilities, ``from_cache``, ``classifications`` and the
        memo end up bitwise equal to the pool-less call.
        """
        self._check_memo_generation()
        bitmaps = list(bitmaps)
        if keys is not None and len(keys) != len(bitmaps):
            raise ValueError("keys must align one-to-one with bitmaps")
        # the memo probe, once the keys are known: up front for a keyed
        # call, between the pool's phases for a keyless one (so a pool
        # failure after the hashing phase keeps it)
        probe = None if keys is None else self._probe(keys)

        def select(pooled_keys: List[str]) -> Optional[List[int]]:
            nonlocal probe
            probe = self._probe(pooled_keys)
            misses = probe[1]
            if len(misses) < self.shard_min_batch:
                return None  # few enough to score in-process
            return [indices[0] for indices in misses.values()]

        if probe is None:
            sent, pool_select = bitmaps, select
        else:
            sent = [bitmaps[indices[0]] for indices in probe[1].values()]
            pool_select = None
        probabilities = None
        if self._pool_takes(len(sent)):
            try:
                probabilities = self._published_pool().ad_probabilities(
                    sent, pool_select
                )
            except WorkerPoolError:
                self.pool_fallbacks += 1
        if probe is None:
            probe = self._probe([self.fingerprint(bitmap) for bitmap in bitmaps])
        decisions, misses = probe
        if misses:
            if probabilities is None:
                # pool-less, too few misses, or a failed pool call
                # (which must not be retried through the pool)
                probabilities = self._local_probabilities(
                    [bitmaps[indices[0]] for indices in misses.values()]
                )
            for key, probability in zip(misses, probabilities):
                decision = self._record(key, float(probability))
                for index in misses[key]:
                    decisions[index] = decision
        return decisions  # type: ignore[return-value]

    def _probe(self, keys: Sequence[str]) -> tuple:
        """``(decisions, misses)`` for one call's keys: memo hits as
        ``from_cache`` decisions (``None`` elsewhere), and the misses'
        indices by key, in order of first occurrence."""
        decisions: List[Optional[BlockDecision]] = [None] * len(keys)
        misses: "OrderedDict[str, List[int]]" = OrderedDict()
        for index, key in enumerate(keys):
            cached = self._memo.get(key)
            if cached is not None:
                self._memo.move_to_end(key)
                decisions[index] = BlockDecision(
                    is_ad=cached.is_ad,
                    probability=cached.probability,
                    from_cache=True,
                )
            else:
                misses.setdefault(key, []).append(index)
        return decisions, misses

    def _pool_takes(self, count: int) -> bool:
        """True when a batch of ``count`` frames goes to the pool: one
        is attached and open, and the batch is at least
        ``shard_min_batch`` frames."""
        pool = self.pool
        return (
            pool is not None and not pool.closed and count >= self.shard_min_batch
        )

    def _published_pool(self) -> InferenceWorkerPool:
        """The pool, holding the classifier's current weights.

        Staleness is fingerprint-checked (both sides cache the digest,
        so the check is a string compare) and fixed by re-publishing;
        a failed publication raises :class:`WorkerPoolError`.
        """
        fingerprint = self.classifier.weights_fingerprint()
        if self.pool.published_fingerprint != fingerprint:
            self.pool.publish(self.classifier)
        return self.pool

    def _local_probabilities(self, bitmaps: List[np.ndarray]) -> np.ndarray:
        """P(ad) for ``bitmaps``, preprocessed and scored in-process."""
        batch = preprocess_batch(bitmaps, self.classifier.config.input_size)
        return self.classifier.predict_proba_tensor(batch)

    def _record(self, key: str, probability: float) -> BlockDecision:
        """Memoize a freshly computed probability and update counters."""
        is_ad = probability >= self.classifier.config.ad_threshold
        decision = BlockDecision(
            is_ad=is_ad, probability=probability, from_cache=False
        )
        self._memo[key] = decision
        if len(self._memo) > self._memo_capacity:
            self._memo.popitem(last=False)
        self.classifications += 1
        self.blocks += int(is_ad)
        return decision

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def clear_memo(self) -> None:
        self._memo.clear()
