"""Shared fixtures.

The reference classifier is expensive to train (~90 s) but cached on
disk by the model store, so the session-scoped fixture is fast on every
run after the first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdClassifier, PercivalConfig, get_reference_classifier
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="session")
def reference_classifier() -> AdClassifier:
    """The shared trained classifier (trains once, cached on disk)."""
    return get_reference_classifier()


@pytest.fixture(scope="session")
def untrained_classifier() -> AdClassifier:
    """A fresh classifier for tests that only need the wiring."""
    return AdClassifier(PercivalConfig())


@pytest.fixture(scope="session")
def flag_all_classifier() -> AdClassifier:
    """An untrained classifier whose threshold flags every frame an ad."""
    return AdClassifier(PercivalConfig(ad_threshold=0.0))


@pytest.fixture()
def rng() -> np.random.Generator:
    return spawn_rng(1234, "tests")
