"""The graceful-degradation ladder: SLO-breach steps down, hysteretic
recovery steps up, min-dwell damping, level flags, and the dwell
ledger — all over explicit virtual time."""

import pytest

from repro.resilience import DegradationController, LadderSettings
from repro.resilience.degrade import LEVELS

FAST = LadderSettings(
    slo_ms=50.0,
    percentile=95.0,
    window=8,
    min_samples=2,
    recover_headroom=0.5,
    min_dwell_ms=10.0,
)


def _controller():
    return DegradationController(FAST)


def _breach(controller, now_ms, value_ms=200.0):
    for _ in range(FAST.min_samples):
        controller.observe_latency(value_ms)
    return controller.evaluate(now_ms)


class TestSettingsValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            LadderSettings(slo_ms=0.0)
        with pytest.raises(ValueError):
            LadderSettings(percentile=0.0)
        with pytest.raises(ValueError):
            LadderSettings(window=0)
        with pytest.raises(ValueError):
            LadderSettings(recover_headroom=1.0)
        with pytest.raises(ValueError):
            LadderSettings(min_dwell_ms=-1.0)


class TestSteppingDown:
    def test_percentile_breach_steps_one_level(self):
        controller = _controller()
        assert _breach(controller, now_ms=20.0)
        assert controller.level == 1
        assert controller.level_name == "no-diff"
        transition = controller.transitions[-1]
        assert transition.direction == "down"
        assert "slo" in transition.reason

    def test_pressure_steps_without_samples(self):
        controller = _controller()
        controller.observe_pressure("queue overflow shed")
        assert controller.evaluate(20.0)
        assert controller.level == 1
        assert controller.transitions[-1].reason == "queue overflow shed"

    def test_pressure_is_consumed_by_one_evaluate(self):
        controller = _controller()
        controller.observe_pressure("breaker tripped")
        assert controller.evaluate(20.0)
        # inside the idle-recovery horizon: no second step either way
        assert not controller.evaluate(20.0 + 1.5 * FAST.min_dwell_ms)
        assert controller.level == 1

    def test_one_step_per_evaluate_and_dwell_gating(self):
        """A sustained storm walks down one dwell-spaced level at a
        time — never two levels in one evaluate, never inside the
        dwell window of the previous step."""
        controller = _controller()
        now = 20.0
        levels = []
        for _ in range(8):
            _breach(controller, now)
            controller.evaluate(now + FAST.min_dwell_ms / 2.0)  # damped
            levels.append(controller.level)
            now += FAST.min_dwell_ms
        assert levels == [1, 2, 3, 4, 4, 4, 4, 4]  # floor is the last rung

    def test_insufficient_samples_never_breach(self):
        controller = _controller()
        controller.observe_latency(10_000.0)  # < min_samples
        assert not controller.evaluate(20.0)
        assert controller.level == 0


class TestSteppingUp:
    def test_recovery_needs_headroom_not_just_slo(self):
        """Hysteresis: a window merely under the SLO holds the level;
        only comfortably under (headroom fraction) steps up."""
        controller = _controller()
        _breach(controller, 20.0)
        for _ in range(FAST.min_samples):
            controller.observe_latency(FAST.slo_ms * 0.8)  # ok, not great
        assert not controller.evaluate(40.0)
        assert controller.level == 1
        # a full window of comfortable latencies evicts the mediocre ones
        for _ in range(FAST.window):
            controller.observe_latency(FAST.slo_ms * 0.2)
        assert controller.evaluate(60.0)
        assert controller.level == 0
        assert controller.transitions[-1].direction == "up"

    def test_idle_recovery_probes_after_double_dwell(self):
        """At a level where nothing computes anymore the window stays
        empty; after two quiet dwell periods the ladder steps up to
        let work flow and find out whether the storm passed."""
        controller = _controller()
        controller.observe_pressure("x")
        controller.evaluate(20.0)
        assert controller.level == 1
        assert not controller.evaluate(20.0 + 2.0 * FAST.min_dwell_ms - 1.0)
        assert controller.evaluate(20.0 + 2.0 * FAST.min_dwell_ms)
        assert controller.level == 0
        assert controller.transitions[-1].reason == "idle recovery probe"

    def test_samples_clear_on_transition(self):
        """Latencies observed under the old regime must not justify
        the next step — each level re-earns its own evidence."""
        controller = _controller()
        for _ in range(FAST.window):
            controller.observe_latency(500.0)
        controller.evaluate(20.0)
        assert controller.level == 1
        # the breach window is gone: no immediate second step later
        for _ in range(FAST.min_samples - 1):
            controller.observe_latency(500.0)
        assert not controller.evaluate(20.0 + FAST.min_dwell_ms)

    def test_pressure_blocks_recovery(self):
        controller = _controller()
        controller.observe_pressure("x")
        controller.evaluate(20.0)
        for _ in range(FAST.min_samples):
            controller.observe_latency(1.0)
        controller.observe_pressure("still burning")
        # healthy window + pressure: the pressure wins, one level down
        assert controller.evaluate(40.0)
        assert controller.level == 2


class TestLevelFlags:
    def test_flags_accumulate_down_the_ladder(self):
        controller = _controller()
        expected = {
            0: (False, False, False, False),
            1: (True, False, False, False),
            2: (True, True, False, False),
            3: (True, True, True, False),
            4: (True, True, True, True),
        }
        now = 20.0
        for level in range(len(LEVELS)):
            assert controller.level == level
            assert expected[level] == (
                controller.diff_disabled,
                controller.cascade_disabled,
                controller.drop_below_fold,
                controller.shed_all,
            )
            controller.observe_pressure("down")
            controller.evaluate(now)
            now += FAST.min_dwell_ms


class TestDwellLedger:
    def test_finalize_closes_the_ledger(self):
        controller = _controller()
        controller.observe_pressure("x")
        controller.evaluate(30.0)   # normal for 30ms
        controller.observe_pressure("x")
        controller.evaluate(50.0)   # no-diff for 20ms
        controller.finalize(65.0)   # no-cascade for 15ms
        assert controller.dwell_ms["normal"] == 30.0
        assert controller.dwell_ms["no-diff"] == 20.0
        assert controller.dwell_ms["no-cascade"] == 15.0
        assert controller.dwell_ms["shed"] == 0.0

    def test_rebase_reanchors_without_touching_the_ledger(self):
        controller = _controller()
        controller.observe_pressure("x")
        controller.evaluate(30.0)
        controller.finalize(40.0)
        ledger = dict(controller.dwell_ms)
        controller.rebase(0.0)
        assert controller.dwell_ms == ledger
        assert controller.level == 1
        controller.finalize(5.0)
        assert controller.dwell_ms["no-diff"] == (
            ledger["no-diff"] + 5.0
        )

    def test_rebase_carries_the_time_already_spent_at_shed(self):
        """A fleet epoch that ends 30 ms into ``shed`` must not restart
        the dwell: the next quiet epoch reaches the idle probe's two
        dwell periods (40 ms) 10 ms in, not never."""
        controller = DegradationController(
            LadderSettings(slo_ms=50.0, min_samples=1, min_dwell_ms=20.0)
        )
        now = 0.0
        while controller.level_name != "shed":
            now += 20.0
            controller.observe_latency(500.0)
            controller.evaluate(now)
        controller.evaluate(now + 15.0)
        controller.finalize(now + 30.0)     # the epoch ends at shed
        assert controller.level_name == "shed"
        assert controller.dwell_ms["shed"] == 30.0
        controller.rebase(0.0)
        # the next epoch is quiet: 35 ms at shed, then 40 ms
        assert not controller.evaluate(5.0)
        assert controller.evaluate(10.0)
        assert controller.level_name == "drop-below-fold"
        probe = controller.transitions[-1]
        assert (probe.at_ms, probe.reason) == (10.0, "idle recovery probe")
        # 30 ms in the first epoch plus 10 ms in this one, counted once
        assert controller.dwell_ms["shed"] == 40.0

    def test_replay_determinism(self):
        def drive(controller):
            now = 0.0
            for step in range(40):
                now += 7.0
                controller.observe_latency(300.0 if step < 15 else 2.0)
                if step == 20:
                    controller.observe_pressure("spike")
                controller.evaluate(now)
            controller.finalize(now)
            return (
                [(t.at_ms, t.from_level, t.to_level, t.reason)
                 for t in controller.transitions],
                controller.dwell_ms,
            )

        assert drive(_controller()) == drive(_controller())
