"""Train-once model caching.

Experiments, benchmarks and examples all need "the trained PERCIVAL
model".  Training even the reduced-scale model costs a minute or two,
so the store trains once per configuration and caches weights under
``<repo>/.cache/models``; subsequent calls load instantly.

The reference training run follows the paper's §4.3/§4.4 methodology:
transfer the stem from a (synthetically) pretrained SqueezeNet-style
donor, then fine-tune on a balanced crawled corpus.

The store also owns the sharded-inference worker pool
(:class:`~repro.core.workerpool.InferenceWorkerPool`): ``worker_pool``
hands out a pool with the given classifier's weights published,
re-publishing (fingerprint-keyed, precision included) whenever the
classifier loaded or trained new weights — or runs at a different
storage precision — since the last publication; workers then rebuild
their compiled plans from the fresh shared-memory segment.  Cached
weights are always written fp32 (full fidelity); the precision knob
quantizes at plan-compile time, so one cache entry serves every
precision.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.core.classifier import AdClassifier
from repro.core.config import PercivalConfig, knob
from repro.core.workerpool import InferenceWorkerPool
from repro.data.corpus import build_training_corpus, CorpusConfig
from repro.models.percivalnet import build_percival_net
from repro.models.zoo import pretrain_stem, transfer_stem_weights
from repro.utils.hashing import stable_hash


def _default_cache_dir() -> str:
    root = os.environ.get(
        "PERCIVAL_CACHE",
        os.path.join(os.path.dirname(__file__), "..", "..", "..", ".cache"),
    )
    return os.path.abspath(os.path.join(root, "models"))


class ModelStore:
    """Weight cache keyed by configuration hash."""

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir or _default_cache_dir()
        self._pool: Optional[InferenceWorkerPool] = None

    def _paths(self, key: str) -> tuple:
        return (
            os.path.join(self.cache_dir, f"{key}.npz"),
            os.path.join(self.cache_dir, f"{key}.json"),
        )

    def load_or_train(
        self, config: PercivalConfig, verbose: bool = False
    ) -> AdClassifier:
        """Return a trained classifier for ``config`` (cached)."""
        key = stable_hash(config.cache_key())[:16]
        weights_path, meta_path = self._paths(key)
        classifier = AdClassifier(config)

        if os.path.exists(weights_path):
            classifier.load(weights_path)
            return classifier

        report = self._train(classifier, config, verbose)
        os.makedirs(self.cache_dir, exist_ok=True)
        classifier.save(weights_path)
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "config": config.cache_key(),
                    "final_train_accuracy": report.final_train_accuracy,
                    "final_val_accuracy": report.final_val_accuracy,
                    "epochs": len(report.epochs),
                },
                handle,
                indent=2,
            )
        return classifier

    # ------------------------------------------------------------------
    # Sharded-inference pool lifecycle
    # ------------------------------------------------------------------
    def worker_pool(
        self,
        classifier: AdClassifier,
        num_workers: Optional[int] = None,
    ) -> Optional[InferenceWorkerPool]:
        """The store's inference pool, with ``classifier`` published.

        ``num_workers`` overrides the resolution chain (explicit arg >
        ``classifier.config.num_workers`` > ``PERCIVAL_WORKERS`` env >
        auto = cores - 1).  Returns ``None`` when the resolved count is
        0 — sharding disabled, callers run the single-process path.

        Publication is fingerprint-keyed (weights *and* storage
        precision): calling again after ``classifier.load()`` (or
        training), or with a classifier at another precision, ships
        the new artifact and every worker recompiles its plan; calling
        with unchanged weights is a no-op.  The pool is shared across
        calls and torn down by :meth:`shutdown_pool` (also wired to
        ``atexit``).
        """
        if num_workers is None:
            num_workers = classifier.config.num_workers
        count = knob("PERCIVAL_WORKERS", num_workers)
        if count == 0:
            return None
        if self._pool is not None and (
            self._pool.closed or self._pool.num_workers != count
        ):
            self.shutdown_pool()
        if self._pool is None:
            self._pool = InferenceWorkerPool(count)
        try:
            self._pool.publish(classifier)
        except Exception:
            self.shutdown_pool()
            raise
        return self._pool

    def shutdown_pool(self) -> None:
        """Tear down the store's worker pool.  Idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    @staticmethod
    def _train(
        classifier: AdClassifier, config: PercivalConfig, verbose: bool
    ):
        # §4.3: reuse pretrained stem features (synthetic proxy donor).
        donor = build_percival_net(
            input_size=config.input_size,
            in_channels=config.in_channels,
            seed=config.seed + 1,
            width=config.width,
        )
        pretrain_stem(donor, seed=config.seed)
        transfer_stem_weights(donor, classifier.network, num_blocks=5)

        corpus = build_training_corpus(CorpusConfig(
            seed=config.seed,
            num_ads=config.num_train_ads,
            num_nonads=config.num_train_nonads,
            input_size=config.input_size,
        ))
        train, val = corpus.split(0.9, seed=config.seed)
        report = classifier.train(
            train.images, train.labels, val.images, val.labels
        )
        if verbose:
            print(
                f"trained {len(report.epochs)} epochs: "
                f"train_acc={report.final_train_accuracy:.3f} "
                f"val_acc={report.final_val_accuracy}"
            )
        return report


_store = ModelStore()


def get_reference_classifier(
    config: Optional[PercivalConfig] = None, verbose: bool = False
) -> AdClassifier:
    """The shared trained classifier (default reduced-scale config)."""
    return _store.load_or_train(config or PercivalConfig(), verbose=verbose)


def get_worker_pool(
    classifier: Optional[AdClassifier] = None,
    num_workers: Optional[int] = None,
) -> Optional[InferenceWorkerPool]:
    """Sharded-inference pool of the module store, with ``classifier``
    (default: the reference classifier) published.  ``None`` when
    sharding is disabled — see :meth:`ModelStore.worker_pool`."""
    if classifier is None:
        classifier = get_reference_classifier()
    return _store.worker_pool(classifier, num_workers)


def shutdown_worker_pool() -> None:
    """Tear down the module store's worker pool (idempotent)."""
    _store.shutdown_pool()
