"""The ``PERCIVAL_*`` knob table: one precedence rule for every row.

Every row must give its default when the variable is unset or empty,
parse a valid spelling, reject garbage with a ``ValueError`` naming the
variable, and let an explicit value (a constructor argument or config
field) beat the environment.  Knob-specific spellings are pinned next
to the code each knob drives (worker pool, precision, serve loop,
cascade, diff, chaos plane)."""

import os

import pytest

from repro.core.config import KNOBS, knob

#: env -> (default, (valid spelling, parsed), garbage, (explicit, parsed))
CASES = {
    "PERCIVAL_WORKERS": (
        max((os.cpu_count() or 1) - 1, 0), ("3", 3), "many", (2, 2),
    ),
    "PERCIVAL_PRECISION": ("fp32", ("int8", "int8"), "int4", ("fp16", "fp16")),
    "PERCIVAL_SERVE_MAX_BATCH": (16, ("32", 32), "lots", (4, 4)),
    "PERCIVAL_SERVE_MAX_WAIT_MS": (4.0, ("7.5", 7.5), "soon", (1.0, 1.0)),
    "PERCIVAL_SERVE_MAX_DEPTH": (128, ("256", 256), "deep", (64, 64)),
    "PERCIVAL_SERVE_AGING_MS": (8.0, ("2.5", 2.5), "slow", (1.0, 1.0)),
    "PERCIVAL_SERVE_LANES": (None, ("3", 3), "many", (5, 5)),
    "PERCIVAL_CASCADE": (False, ("on", True), "maybe", (False, False)),
    "PERCIVAL_DIFF": (False, ("yes", True), "maybe", (False, False)),
    "PERCIVAL_CHAOS": (None, ("0", 0), "sometimes", (5, 5)),
    "PERCIVAL_RESILIENCE": (False, ("1", True), "maybe", (False, False)),
}


def test_every_row_has_a_case():
    assert set(CASES) == set(KNOBS)


@pytest.mark.parametrize("env", sorted(CASES))
def test_knob_row(env, monkeypatch):
    default, (raw, parsed), garbage, (explicit, pinned) = CASES[env]
    monkeypatch.delenv(env, raising=False)
    assert knob(env) == default
    monkeypatch.setenv(env, "")
    assert knob(env) == default
    monkeypatch.setenv(env, garbage)
    with pytest.raises(ValueError, match=env):
        knob(env)
    monkeypatch.setenv(env, raw)
    assert knob(env) == parsed
    assert knob(env, explicit) == pinned
