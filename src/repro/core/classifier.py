"""The ad classifier: preprocessing + the compressed CNN."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PercivalConfig, knob
from repro.core.preprocessing import preprocess_batch, preprocess_bitmap
from repro.models.percivalnet import LABEL_AD, PercivalNet, build_percival_net
from repro.models.zoo import model_size_mb
from repro.nn import Trainer, TrainConfig, TrainReport, softmax
from repro.nn.artifact import ManifestRow, WeightArtifact
from repro.nn.inference import (
    InferencePlan,
    UnsupportedLayerError,
    compile_inference,
)
from repro.nn.quantize import FP32
from repro.nn.serialization import load_weights, save_weights
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_rng
from repro.utils.timing import measure_latency

_logger = get_logger("repro.core.classifier")

#: fast-path-vs-reference equivalence tolerance at fp32 — the
#: bit-for-bit pipeline, where only kernel reassociation differs.
#: Quantized precisions derive their tolerance from the calibration
#: gate bound (see :attr:`AdClassifier.fast_path_tolerance`), so a
#: gate-accepted artifact can never fail the equivalence suite.
_FP32_EQUIVALENCE_TOLERANCE = 1e-5
#: headroom multiplier over the gate bound for non-calibration inputs
_QUANTIZED_TOLERANCE_HEADROOM = 5.0

#: frames in the deterministic held-out calibration batch the
#: quantization gate scores (seeded per config, never training data)
_CALIBRATION_FRAMES = 16


class PrecisionRejectedError(RuntimeError):
    """A quantized artifact failed the calibration accuracy gate."""


@dataclass(frozen=True)
class PlanExport:
    """Everything a worker process needs to rebuild the compiled plan.

    The architecture travels as the :class:`PercivalConfig` (networks
    are deterministic per configuration); the weights travel separately
    as one flat byte buffer — typically a ``multiprocessing``
    shared-memory segment — described by ``manifest``: one
    ``(name, shape, storage dtype, offset, per-channel scales)`` row
    per parameter, in the network's own ``parameters()`` order (the
    :class:`~repro.nn.artifact.WeightArtifact` manifest).
    ``precision`` is the artifact's *effective* storage precision, so a
    worker materializes exactly the bytes the parent compiled with.
    ``fingerprint`` identifies the published weights-at-precision so
    pools can detect staleness after ``load()``/``train()`` — and never
    mix precisions — without reshipping anything.
    """

    config: PercivalConfig
    manifest: Tuple[ManifestRow, ...]
    total_bytes: int
    fingerprint: str
    precision: str = FP32


class AdClassifier:
    """Classifies decoded bitmaps as ad / non-ad.

    Wraps a :class:`PercivalNet` with the preprocessing step and exposes
    the operations the rest of the system needs: probability scoring,
    thresholded verdicts, training, persistence, and measured inference
    latency (the number the render experiments calibrate against).

    Eval-mode scoring runs through a compiled inference plan (fused,
    cache-free kernels; see ``repro.nn.inference``), compiled lazily and
    invalidated whenever the weights may have been replaced
    (``train()``/``load()``).  Training and Grad-CAM keep using the
    layer-by-layer graph.

    The plan's weights come from a precision-aware
    :class:`~repro.nn.artifact.WeightArtifact`: ``fp32`` (the default)
    compiles straight from the live parameter views — bit-for-bit the
    pre-precision pipeline — while ``fp16``/``int8`` (via
    ``PercivalConfig.precision`` or the ``PERCIVAL_PRECISION`` knob)
    quantize at compile time behind a calibration accuracy gate that
    falls back to fp32 whenever quantization would move verdicts.
    """

    def __init__(
        self,
        config: Optional[PercivalConfig] = None,
        network: Optional[PercivalNet] = None,
    ) -> None:
        self.config = config or PercivalConfig()
        self.network = network or build_percival_net(
            input_size=self.config.input_size,
            in_channels=self.config.in_channels,
            seed=self.config.seed,
            width=self.config.width,
        )
        self.network.eval()
        #: requested storage precision of the inference weight artifact
        self.precision = knob("PERCIVAL_PRECISION", self.config.precision)
        self._plan: Optional[InferencePlan] = None
        self._plan_supported = True
        #: bumped on every invalidation; lets worker pools detect that
        #: published weights went stale without hashing on the hot path
        self.weights_version = 0
        self._fingerprint: Optional[str] = None
        self._fingerprint_version = -1
        self._artifact: Optional[WeightArtifact] = None
        self._artifact_version = -1

    # ------------------------------------------------------------------
    # Compiled fast path
    # ------------------------------------------------------------------
    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """One preprocessed frame's ``(C, H, W)``."""
        size = self.config.input_size
        return (self.config.in_channels, size, size)

    @property
    def inference_plan(self) -> Optional[InferencePlan]:
        """The compiled eval-mode plan (None if the network contains a
        layer the compiler cannot lower — scoring then falls back to the
        layer-by-layer path).

        ``fp32`` compiles from the live parameter views (in-place SGD
        updates flow through); quantized precisions compile from the
        gated weight artifact — a snapshot, covered by the same
        ``invalidate_plan`` contract.
        """
        if self._plan is None and self._plan_supported:
            try:
                artifact = None
                if self.precision != FP32:
                    candidate = self.weight_artifact()
                    if candidate.precision != FP32:
                        artifact = candidate
                self._plan = compile_inference(
                    self.network,
                    artifact=artifact,
                    input_shape=self.input_shape,
                )
            except UnsupportedLayerError:
                self._plan_supported = False
        return self._plan

    def invalidate_plan(self) -> None:
        """Discard the compiled plan and the cached weight artifact
        (after weight replacement)."""
        self._plan = None
        self._plan_supported = True
        self.weights_version += 1

    # ------------------------------------------------------------------
    # Precision artifacts
    # ------------------------------------------------------------------
    @property
    def effective_precision(self) -> str:
        """The storage precision actually in effect: the requested one,
        or ``fp32`` when the calibration gate rejected it."""
        if self.precision == FP32:
            return FP32
        return self.weight_artifact().precision

    @property
    def fast_path_tolerance(self) -> float:
        """Max fast-path-vs-reference probability delta to assert in
        equivalence tests, given the effective storage precision.

        Quantized precisions scale the calibration gate's drift bound
        by a headroom factor (the gate scores a held-out batch;
        arbitrary inputs can drift somewhat further), so the
        equivalence suite stays consistent with whatever the gate
        accepted — including user-tuned ``quantization_drift_tolerance``.
        """
        if self.effective_precision == FP32:
            return _FP32_EQUIVALENCE_TOLERANCE
        return (
            _QUANTIZED_TOLERANCE_HEADROOM
            * self.config.quantization_drift_tolerance
        )

    def weight_artifact(self) -> WeightArtifact:
        """The current weights packed at this classifier's precision.

        Cached per ``weights_version`` (same staleness contract as the
        compiled plan).  Non-fp32 artifacts pass the calibration gate
        before they are adopted; a rejected precision falls back to an
        fp32 artifact, and ``effective_precision`` reports the
        downgrade.
        """
        if (
            self._artifact is None
            or self._artifact_version != self.weights_version
        ):
            self._artifact = self._build_artifact()
            self._artifact_version = self.weights_version
        return self._artifact

    def _build_artifact(self) -> WeightArtifact:
        if self.precision == FP32:
            return WeightArtifact.from_network(self.network, FP32)
        candidate = WeightArtifact.from_network(
            self.network, self.precision
        )
        try:
            self._calibrate_artifact(candidate)
        except PrecisionRejectedError as exc:
            _logger.warning(
                "precision %s rejected by the calibration gate "
                "(%s); falling back to fp32 weights", self.precision, exc
            )
            return WeightArtifact.from_network(self.network, FP32)
        return candidate

    def calibration_batch(self) -> np.ndarray:
        """The deterministic held-out batch the quantization gate
        scores: freshly synthesized ad and content frames (seeded per
        configuration, disjoint from any training or evaluation
        corpus), preprocessed like every render-pipeline frame.

        Representative frames matter: quantization noise in the logits
        moves P(ad) most where predictions sit mid-range, so gating on
        the frame distribution the blocker actually scores is what
        makes the drift bound meaningful.
        """
        # synth generators are a leaf dependency of the data pipeline;
        # imported here so the core classifier stays importable without
        # dragging the generators in for fp32-only deployments
        from repro.synth.adgen import AdSpec, generate_ad
        from repro.synth.contentgen import generate_content

        rng = spawn_rng(self.config.seed, "precision-calibration")
        frames = []
        for _ in range(_CALIBRATION_FRAMES // 2):
            frames.append(generate_ad(rng, AdSpec()))
            frames.append(generate_content(rng))
        return preprocess_batch(frames, self.config.input_size)

    def _calibrate_artifact(self, candidate: WeightArtifact) -> None:
        """Accuracy gate: compare the candidate's plan against the fp32
        plan on the calibration batch.  Raises
        :class:`PrecisionRejectedError` when the max P(ad) drift
        exceeds ``config.quantization_drift_tolerance`` or any verdict
        flips at the blocking threshold.
        """
        try:
            reference_plan = compile_inference(self.network)
            candidate_plan = compile_inference(
                self.network, artifact=candidate
            )
        except UnsupportedLayerError as exc:
            raise PrecisionRejectedError(
                f"network has no compiled lowering to gate against: {exc}"
            ) from exc
        batch = self.calibration_batch()
        reference = softmax(reference_plan.run(batch), axis=1)[:, LABEL_AD]
        quantized = softmax(candidate_plan.run(batch), axis=1)[:, LABEL_AD]
        drift = float(np.abs(reference - quantized).max())
        tolerance = self.config.quantization_drift_tolerance
        if drift > tolerance:
            raise PrecisionRejectedError(
                f"max P(ad) drift {drift:.2e} exceeds the calibration "
                f"tolerance {tolerance:.2e}"
            )
        threshold = self.config.ad_threshold
        flips = int(
            ((reference >= threshold) != (quantized >= threshold)).sum()
        )
        if flips:
            raise PrecisionRejectedError(
                f"{flips} calibration verdict(s) flipped at "
                f"threshold {threshold}"
            )

    def _install_artifact(self, artifact: WeightArtifact) -> None:
        """Adopt an already-materialized artifact (worker import): the
        gate ran parent-side, so the bytes are taken as published."""
        self._artifact = artifact
        self._artifact_version = self.weights_version

    def _forward_eval(
        self, batch: np.ndarray, fast_path: bool = True
    ) -> np.ndarray:
        plan = self.inference_plan if fast_path else None
        if plan is not None:
            return plan.run(batch)
        return self.network.forward(batch)

    # ------------------------------------------------------------------
    # Plan export/import (multiprocess sharding)
    # ------------------------------------------------------------------
    def weights_fingerprint(self) -> str:
        """Stable digest of the current weights *at this precision*.

        Cached per ``weights_version``, so repeated calls on the hot
        path (the blocker checks it before every sharded batch) cost a
        dict lookup, not a re-hash.  The requested precision is folded
        into the digest, so pool publications and memo generations can
        never mix artifacts of different precisions under one key.  The
        same staleness contract as the compiled plan applies: direct
        in-place mutation of ``network.parameters()`` outside
        ``train()``/``load()`` must be followed by
        ``invalidate_plan()``.
        """
        if (
            self._fingerprint is None
            or self._fingerprint_version != self.weights_version
        ):
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(self.precision.encode())
            for param in self.network.parameters():
                hasher.update(param.name.encode())
                hasher.update(str(param.data.shape).encode())
                hasher.update(str(param.data.dtype).encode())
                hasher.update(np.ascontiguousarray(param.data).tobytes())
            self._fingerprint = hasher.hexdigest()
            self._fingerprint_version = self.weights_version
        return self._fingerprint

    def export_plan(self) -> PlanExport:
        """Manifest for shipping this classifier's plan to a worker.

        Built from the weight artifact, so the manifest rows carry the
        *storage* dtypes (and per-channel scales) and ``total_bytes``
        is the packed-quantized size — an int8 publication ships a
        roughly 4x smaller shared-memory segment than fp32.
        """
        artifact = self.weight_artifact()
        return PlanExport(
            config=self.config,
            manifest=artifact.manifest_rows(),
            total_bytes=artifact.nbytes,
            fingerprint=self.weights_fingerprint(),
            precision=artifact.precision,
        )

    def pack_weights_into(self, export: PlanExport, buffer) -> None:
        """Write the packed weight artifact into ``buffer`` per
        ``export``'s manifest.

        ``buffer`` is any writable buffer of at least
        ``export.total_bytes`` bytes — in the sharded deployment, a
        ``multiprocessing.shared_memory`` segment's ``buf``.
        """
        if export.fingerprint != self.weights_fingerprint():
            raise ValueError(
                "export fingerprint does not match the current weights "
                "— re-export after load()/train()"
            )
        artifact = self.weight_artifact()
        if len(export.manifest) != len(artifact.entries):
            raise ValueError(
                f"manifest rows ({len(export.manifest)}) do not match "
                f"artifact entries ({len(artifact.entries)})"
            )
        if export.total_bytes != artifact.nbytes:
            raise ValueError(
                f"export expects {export.total_bytes} bytes, current "
                f"artifact packs {artifact.nbytes} — stale export?"
            )
        target = np.frombuffer(
            buffer, dtype=np.uint8, count=artifact.nbytes
        )
        target[...] = artifact.buffer

    @classmethod
    def from_plan_export(cls, export: PlanExport, buffer) -> "AdClassifier":
        """Rebuild a classifier from a :class:`PlanExport` and its
        packed weight buffer (the worker-side import).

        The packed bytes are **copied** into private memory before any
        views are taken, so the caller may close/unlink the shared
        segment as soon as this returns — numpy views pinning a shared
        mmap would otherwise make ``SharedMemory.close()`` impossible.
        Non-fp32 manifests dequantize into the network's fp32
        parameters and install the artifact directly, so the worker's
        compiled plan computes over exactly the bytes the parent
        published — no re-quantization, no second calibration gate.
        """
        classifier = cls(export.config)
        artifact = WeightArtifact.from_manifest(
            export.manifest,
            buffer,
            precision=export.precision,
            total_bytes=export.total_bytes,
        )
        artifact.load_into(classifier.network)
        classifier.network.eval()
        classifier.invalidate_plan()
        classifier.precision = export.precision
        classifier._install_artifact(artifact)
        return classifier

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def ad_probability(self, bitmap: np.ndarray) -> float:
        """P(ad) for a single decoded bitmap."""
        tensor = preprocess_bitmap(bitmap, self.config.input_size)
        logits = self._forward_eval(tensor[None, ...])
        return float(softmax(logits, axis=1)[0, LABEL_AD])

    def is_ad(self, bitmap: np.ndarray) -> bool:
        """Thresholded verdict for one bitmap."""
        return self.ad_probability(bitmap) >= self.config.ad_threshold

    def ad_probabilities(self, bitmaps: Sequence[np.ndarray]) -> np.ndarray:
        """P(ad) for a sequence of bitmaps (batched)."""
        batch = preprocess_batch(bitmaps, self.config.input_size)
        return self.predict_proba_tensor(batch)

    def predict_proba_tensor(
        self, tensors: np.ndarray, fast_path: bool = True
    ) -> np.ndarray:
        """P(ad) for an already-preprocessed NCHW batch.

        The compiled plan cuts the batch into its own cache-sized
        chunks.  ``fast_path=False`` forces the reference layer-by-layer
        forward over the whole batch (used by the equivalence tests and
        benchmarks).
        """
        if not tensors.shape[0]:
            return np.empty(0, dtype=np.float32)
        logits = self._forward_eval(tensors, fast_path=fast_path)
        return softmax(logits, axis=1)[:, LABEL_AD]

    def predict_tensor(self, tensors: np.ndarray) -> np.ndarray:
        """Thresholded 0/1 predictions for a preprocessed batch."""
        probabilities = self.predict_proba_tensor(tensors)
        return (probabilities >= self.config.ad_threshold).astype(np.int64)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        val_images: Optional[np.ndarray] = None,
        val_labels: Optional[np.ndarray] = None,
        epochs: Optional[int] = None,
        lr: float = 0.01,
    ) -> TrainReport:
        """Train on a preprocessed NCHW corpus.

        The paper's recipe uses lr=0.001 at 224 px over 63k images; the
        reduced-scale default raises the rate accordingly.  All other
        recipe pieces (SGD momentum 0.9, batch 24, step decay) hold.
        """
        train_config = TrainConfig(
            lr=lr,
            epochs=epochs if epochs is not None else self.config.epochs,
            seed=self.config.seed,
        )
        self.invalidate_plan()
        trainer = Trainer(self.network, train_config)
        report = trainer.fit(images, labels, val_images, val_labels)
        self.network.eval()
        self.invalidate_plan()
        return report

    # ------------------------------------------------------------------
    # Persistence and accounting
    # ------------------------------------------------------------------
    def save(self, path: str, precision: str = "fp32") -> None:
        """Persist the weights.  ``precision`` selects the storage form
        of the archive (default fp32 — full fidelity); quantized
        archives dequantize transparently on :meth:`load`."""
        save_weights(self.network, path, precision=precision)

    def load(self, path: str) -> None:
        load_weights(self.network, path)
        self.network.eval()
        self.invalidate_plan()

    @property
    def model_size_mb(self) -> float:
        return model_size_mb(self.network)

    def measured_latency_ms(self, repeats: int = 5) -> float:
        """Median wall-clock per-image inference latency (preprocessing
        included), measured on this machine — the §5.7 calibration input.
        """
        rng = np.random.default_rng(0)
        bitmap = rng.random((64, 64, 4)).astype(np.float32)
        return measure_latency(
            lambda: self.is_ad(bitmap), repeats=repeats, warmup=2
        )
