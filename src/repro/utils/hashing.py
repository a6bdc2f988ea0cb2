"""Stable hashing helpers.

Used for memoization keys (the async deployment of PERCIVAL memoizes
classification verdicts per image) and for model-store cache keys.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np


def stable_hash(value: Any) -> str:
    """Hash an arbitrary JSON-serializable value to a stable hex digest.

    Dict keys are sorted so logically-equal configurations hash equally.
    """
    payload = json.dumps(value, sort_keys=True, default=_coerce)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _coerce(value: Any) -> Any:
    """JSON fallback for numpy scalars and arrays."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot hash value of type {type(value)!r}")


def image_fingerprint(pixels: np.ndarray) -> str:
    """Fingerprint a decoded bitmap for memoization.

    The digest covers shape, dtype and raw bytes, so two images with the
    same pixels but different shapes do not collide.  This mirrors how an
    in-browser memo cache would key on the decoded buffer, not the URL —
    the same creative served from two URLs still hits the cache.

    SHA-256 (hardware-accelerated on most current CPUs) truncated to 128
    bits, fed the buffer in place rather than through a ``tobytes()``
    copy; keys are 32 hex characters.
    """
    hasher = hashlib.sha256()
    hasher.update(str(pixels.shape).encode())
    hasher.update(str(pixels.dtype).encode())
    hasher.update(memoryview(np.ascontiguousarray(pixels)))
    return hasher.digest()[:16].hex()
