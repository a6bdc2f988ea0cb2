"""Weight initialization schemes."""

from __future__ import annotations

import numpy as np


def kaiming_normal(
    shape: tuple,
    rng: np.random.Generator,
    dtype: np.dtype = np.float32,
) -> np.ndarray:
    """He/Kaiming-normal initialization for ReLU networks.

    Fan-in is computed from the trailing axes (in_channels * kh * kw for
    conv weights, in_features for linear weights).
    """
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else int(shape[0])
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape).astype(dtype)

