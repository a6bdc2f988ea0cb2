"""PERCIVAL configuration.

:class:`PercivalConfig` describes the classifier + blocker stack,
:class:`ServeSettings` the micro-batching serve layer, and
:data:`KNOBS` is the one table of ``PERCIVAL_*`` environment knobs:
:func:`knob` is the only reader of those variables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, asdict
from typing import Any, Callable, Dict, Optional

from repro.nn.quantize import validate_precision


@dataclass(frozen=True)
class PercivalConfig:
    """Configuration of the classifier + blocker stack.

    ``input_size=224, width=1.0`` is the paper's shipping model;
    experiments default to the reduced profile (32 px, quarter width)
    which trains at laptop scale — the architecture is identical.
    """

    input_size: int = 32
    width: float = 0.25
    in_channels: int = 4
    seed: int = 0
    ad_threshold: float = 0.5      # P(ad) above which a frame blocks
    epochs: int = 12
    num_train_ads: int = 1500
    num_train_nonads: int = 1500
    #: virtual per-image classification cost used by the render
    #: experiments; None -> measure the real model's latency once.
    calibrated_latency_ms: float | None = None
    #: worker processes for sharded batch inference; None defers to the
    #: ``PERCIVAL_WORKERS`` environment knob.  0 disables sharding
    #: entirely and reproduces the single-process fast path.
    num_workers: int | None = None
    #: smallest memo-miss batch ``PercivalBlocker.decide_many`` will
    #: scatter across the worker pool; smaller batches stay in-process
    #: (scatter/gather IPC would cost more than it saves).
    shard_min_batch: int = 32
    #: storage precision of the inference weight artifact
    #: (``fp32``/``fp16``/``int8``); None defers to the
    #: ``PERCIVAL_PRECISION`` environment knob.  Compute stays fp32
    #: either way — this selects what ships, persists, and stays
    #: resident.
    precision: str | None = None
    #: calibration gate: maximum P(ad) drift vs. the fp32 reference a
    #: quantized artifact may show on the held-out calibration batch
    #: before the precision is rejected (falls back to fp32).
    quantization_drift_tolerance: float = 1e-2
    #: enable the :mod:`repro.cascade` confidence router in front of
    #: the serving stack; None defers to the ``PERCIVAL_CASCADE``
    #: environment knob.  Off reproduces the pre-cascade pipeline bit
    #: for bit.
    cascade_enabled: bool | None = None
    #: minimum model confidence ``max(P(ad), 1 - P(ad))`` a verdict
    #: needs before the cascade compiles it into a micro-rule.
    cascade_confidence: float = 0.9
    #: enable the :mod:`repro.diff` incremental re-classification layer
    #: (per-session snapshot/diff with verdict inheritance); None defers
    #: to the ``PERCIVAL_DIFF`` environment knob.  Off reproduces the
    #: pre-diff pipeline bit for bit.
    diff_enabled: bool | None = None

    @classmethod
    def paper(cls) -> "PercivalConfig":
        """The full-size configuration of Figure 3 (224x224x4)."""
        return cls(input_size=224, width=1.0)

    def cache_key(self) -> dict:
        """Stable dict identifying a trained-model cache entry."""
        payload = asdict(self)
        # deployment knobs: they do not affect the trained weights
        payload.pop("calibrated_latency_ms")
        payload.pop("ad_threshold")
        payload.pop("num_workers")
        payload.pop("shard_min_batch")
        payload.pop("precision")
        payload.pop("quantization_drift_tolerance")
        payload.pop("cascade_enabled")
        payload.pop("cascade_confidence")
        payload.pop("diff_enabled")
        return payload


@dataclass(frozen=True)
class ServeSettings:
    """Micro-batching settings of the :mod:`repro.serve` layer.

    These are pure deployment settings — they decide how independent
    classification requests coalesce into batches, never what any
    verdict is — so they live outside :class:`PercivalConfig` and the
    model cache key entirely.  A front built without settings uses the
    defaults; only ``lanes`` has an environment knob.
    """

    #: flush a batch as soon as it reaches this many unique requests
    max_batch: int = 16
    #: ... or as soon as the oldest queued request has waited this long
    max_wait_ms: float = 4.0
    #: admission limit: requests queued beyond this depth are shed
    #: (explicit backpressure, never silent loss)
    max_depth: int = 128
    #: virtual compute lanes the serve loop may overlap flushes on.
    #: ``None`` means auto: the ``PERCIVAL_SERVE_LANES`` environment
    #: knob if set, else the attached worker pool's capacity, else 1.
    lanes: int | None = None
    #: starvation-free aging: a queued request's effective priority
    #: improves one level for every ``aging_ms`` it has waited, so a
    #: flood of viewport frames can delay below-the-fold frames but
    #: never starve them.
    aging_ms: float = 8.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_depth < self.max_batch:
            raise ValueError(
                "max_depth must be >= max_batch (a full batch must be "
                "admissible)"
            )
        if self.lanes is not None and self.lanes < 1:
            raise ValueError("lanes must be >= 1 (or None for auto)")
        if self.aging_ms <= 0:
            raise ValueError("aging_ms must be > 0")


# ----------------------------------------------------------------------
# The knob table.  Precedence is the same for every row: an explicit
# value (a constructor argument or a PercivalConfig/ServeSettings
# field) beats the environment, and an unset or empty variable takes
# the row's default.  Each parser gets the variable's name and either
# the raw string or the explicit value, and every error it raises
# names the variable.
# ----------------------------------------------------------------------

Parser = Callable[[str, Any], Any]

_ON = ("on", "1", "true", "yes")
_OFF = ("", "off", "0", "false", "no")


def _on_off(env: str, raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    word = str(raw).strip().lower()
    if word in _ON:
        return True
    if word in _OFF:
        return False
    raise ValueError(f"{env} must be 'on' or 'off', got {raw!r}")


def _int(floor: int, clamp: bool = False) -> Parser:
    """An integer; below ``floor`` it raises, or clamps to ``floor``."""

    def parse(env: str, raw: Any) -> int:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{env} must be an integer, got {raw!r}") from exc
        if value < floor:
            if clamp:
                return floor
            raise ValueError(f"{env} must be >= {floor}, got {value}")
        return value

    return parse


def _int_or_auto(auto: Callable[[], Any], floor: int,
                 clamp: bool = False) -> Parser:
    """``auto`` (any case) resolves through ``auto()``; anything else
    is an integer as for :func:`_int`."""
    integer = _int(floor, clamp)

    def parse(env: str, raw: Any) -> Any:
        if str(raw).strip().lower() == "auto":
            return auto()
        return integer(env, raw)

    return parse


def _precision(env: str, raw: Any) -> str:
    try:
        return validate_precision(raw)
    except ValueError as exc:
        raise ValueError(f"invalid {env}: {exc}") from exc


def _chaos_seed(env: str, raw: Any) -> Optional[int]:
    """``off`` means no chaos, ``on`` seed 0, an integer is the seed
    itself (``0`` is a seed, not "off")."""
    word = str(raw).strip().lower()
    if word in ("", "off", "false", "no", "none"):
        return None
    if word in ("on", "true", "yes"):
        return 0
    try:
        return int(word)
    except ValueError as exc:
        raise ValueError(
            f"{env} must be 'off', 'on', or an integer seed, got {raw!r}"
        ) from exc


def _cores_minus_one() -> int:
    """Leave one core for the renderer/parent (0 on a single core)."""
    return max((os.cpu_count() or 1) - 1, 0)


@dataclass(frozen=True)
class Knob:
    """One ``PERCIVAL_*`` environment variable."""

    env: str
    parse: Parser
    #: value (or spelling, for the ``auto`` rows) used when unset/empty
    default: Any


KNOBS: Dict[str, Knob] = {row.env: row for row in (
    Knob("PERCIVAL_WORKERS",
         _int_or_auto(_cores_minus_one, floor=0, clamp=True), "auto"),
    Knob("PERCIVAL_PRECISION", _precision, "fp32"),
    # auto = size the lanes from the attached pool's capacity
    Knob("PERCIVAL_SERVE_LANES", _int_or_auto(lambda: None, floor=1),
         "auto"),
    Knob("PERCIVAL_CASCADE", _on_off, False),
    Knob("PERCIVAL_DIFF", _on_off, False),
    Knob("PERCIVAL_CHAOS", _chaos_seed, "off"),
    # an active chaos schedule implies the plane regardless
    Knob("PERCIVAL_RESILIENCE", _on_off, False),
)}


def knob(env: str, explicit: Any = None) -> Any:
    """The value of the ``env`` knob: ``explicit`` if not None, else
    the environment variable, else the row's default — parsed and
    range-checked by the row's parser.  Invalid values raise
    ``ValueError`` naming ``env``."""
    row = KNOBS[env]
    raw = explicit
    if raw is None:
        raw = os.environ.get(env, "").strip() or row.default
    return row.parse(env, raw)


def configured_worker_count(explicit: int | None = None) -> int:
    """The ``PERCIVAL_WORKERS`` worker count (``explicit`` wins; 0
    disables sharding).  Kept for importers outside the package."""
    return knob("PERCIVAL_WORKERS", explicit)
