"""Fleet simulator: diurnal traffic, SLO autoscaling, determinism.

The acceptance contract: a fleet replay is bit-identical for a fixed
seed (per-epoch tails included), the autoscaler reacts to SLO breaches
with bounded hysteresis steps, and no scaling decision ever loses a
request — conservation holds per epoch and fleet-wide.
"""

import pytest

from repro.core import AdClassifier, PercivalBlocker, PercivalConfig, ServeSettings
from repro.serve import (
    FleetSimulator,
    FleetSpec,
    SLOPolicy,
    TrafficSpec,
)


def _blocker(classifier, **kwargs):
    kwargs.setdefault("calibrated_latency_ms", 8.0)
    return PercivalBlocker(classifier, **kwargs)


def _spec(**overrides):
    base = dict(
        epochs=5, base_sessions=2, peak_sessions=8,
        frames_per_session=5, hot_creative_bias=0.3, seed=5,
    )
    base.update(overrides)
    return FleetSpec(**base)


_SETTINGS = ServeSettings(max_batch=8, max_wait_ms=2.0, max_depth=64)


class TestSLOPolicy:
    def test_scales_up_on_p99_breach(self):
        policy = SLOPolicy(p99_target_ms=25.0)
        assert policy.next_lanes(2, p99_ms=30.0, shed=0) == 3

    def test_scales_up_on_any_shed(self):
        policy = SLOPolicy(p99_target_ms=25.0)
        assert policy.next_lanes(2, p99_ms=1.0, shed=1) == 3

    def test_scales_down_only_with_headroom_and_no_sheds(self):
        policy = SLOPolicy(p99_target_ms=25.0, scale_down_headroom=0.4)
        assert policy.next_lanes(3, p99_ms=5.0, shed=0) == 2
        # a shed vetoes the scale-down even with latency headroom
        assert policy.next_lanes(3, p99_ms=5.0, shed=1) == 4

    def test_hysteresis_band_holds_steady(self):
        policy = SLOPolicy(p99_target_ms=25.0, scale_down_headroom=0.4)
        # 10 <= p99 <= 25 is the dead band: neither threshold trips
        for p99 in (10.0, 20.0, 25.0):
            assert policy.next_lanes(3, p99_ms=p99, shed=0) == 3

    def test_clamps_to_lane_bounds(self):
        policy = SLOPolicy(p99_target_ms=25.0, min_lanes=2, max_lanes=4)
        assert policy.next_lanes(4, p99_ms=100.0, shed=5) == 4
        assert policy.next_lanes(2, p99_ms=0.1, shed=0) == 2

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            SLOPolicy(p99_target_ms=0.0)
        with pytest.raises(ValueError):
            SLOPolicy(scale_down_headroom=1.0)
        with pytest.raises(ValueError):
            SLOPolicy(min_lanes=0)
        with pytest.raises(ValueError):
            SLOPolicy(min_lanes=5, max_lanes=2)


class TestFleetSpec:
    def test_diurnal_curve_shape(self):
        spec = _spec(epochs=8)
        assert spec.diurnal_multiplier(0) == 0.0
        assert spec.diurnal_multiplier(4) == pytest.approx(1.0)
        # symmetric around the peak
        assert spec.diurnal_multiplier(2) == pytest.approx(
            spec.diurnal_multiplier(6)
        )
        assert _spec(epochs=1).diurnal_multiplier(0) == 1.0

    def test_epoch_traffic_derivation(self):
        spec = _spec(
            epochs=8, base_sessions=4, peak_sessions=16, seed=5,
            traffic=TrafficSpec(duplicate_fraction=0.3),
        )
        quiet = spec.epoch_traffic(0)
        peak = spec.epoch_traffic(4)
        assert quiet.sessions == 4 and peak.sessions == 16
        assert quiet.seed == 5 and peak.seed == 9
        assert quiet.duplicate_fraction == pytest.approx(0.3)
        # hot creatives dominate at peak...
        assert peak.duplicate_fraction == pytest.approx(0.6)
        # ...but never past the cap
        capped = _spec(
            hot_creative_bias=5.0,
            traffic=TrafficSpec(duplicate_fraction=0.3),
        )
        assert capped.epoch_traffic(2).duplicate_fraction <= 0.9

    def test_rejects_invalid_shapes(self):
        with pytest.raises(ValueError):
            _spec(epochs=0)
        with pytest.raises(ValueError):
            _spec(base_sessions=9, peak_sessions=8)
        with pytest.raises(ValueError):
            _spec(frames_per_session=0)
        with pytest.raises(ValueError):
            _spec(hot_creative_bias=-0.1)


class TestFleetReplay:
    def test_replay_is_deterministic_for_a_fixed_seed(
        self, untrained_classifier
    ):
        def run():
            simulator = FleetSimulator(
                _blocker(untrained_classifier),
                _SETTINGS,
                policy=SLOPolicy(p99_target_ms=30.0, max_lanes=4),
            )
            return simulator.run(_spec())
        first, second = run(), run()
        assert [
            (
                e.epoch, e.sessions, e.offered, e.lanes,
                e.p99_ms, e.queue_wait_p99_ms, e.answered, e.shed,
                e.makespan_ms, e.next_lanes,
            )
            for e in first.epochs
        ] == [
            (
                e.epoch, e.sessions, e.offered, e.lanes,
                e.p99_ms, e.queue_wait_p99_ms, e.answered, e.shed,
                e.makespan_ms, e.next_lanes,
            )
            for e in second.epochs
        ]

    def test_autoscaler_reacts_and_conserves(self, untrained_classifier):
        report = FleetSimulator(
            _blocker(untrained_classifier),
            _SETTINGS,
            policy=SLOPolicy(p99_target_ms=20.0, max_lanes=4),
        ).run(_spec(peak_sessions=12, frames_per_session=6))
        assert report.conserved()
        assert len(report.epochs) == 5
        # the diurnal swell breached the tight SLO at least once
        assert report.peak_lanes > 1
        # totals line up with the per-epoch ledger
        assert report.offered == sum(e.offered for e in report.epochs)
        assert report.answered + report.shed == report.offered
        # each epoch ran at the lane count the previous epoch chose
        for prev, cur in zip(report.epochs, report.epochs[1:]):
            assert cur.lanes == prev.next_lanes

    def test_lane_cap_pins_the_policy(self, untrained_classifier):
        report = FleetSimulator(
            _blocker(untrained_classifier),
            _SETTINGS,
            policy=SLOPolicy(p99_target_ms=1.0, max_lanes=2),
        ).run(_spec())
        assert report.peak_lanes <= 2

    def test_table_renders(self, untrained_classifier):
        report = FleetSimulator(
            _blocker(untrained_classifier), _SETTINGS,
            policy=SLOPolicy(p99_target_ms=30.0),
        ).run(_spec(epochs=2))
        table = report.to_table()
        assert "epoch" in table and "conserved=True" in table

    def test_diff_tier_resolves_once_per_replay(
        self, untrained_classifier, monkeypatch
    ):
        """Every epoch loop holds the fleet's one differ, so snapshots
        persist across the day like the cascade's rule cache."""
        monkeypatch.setenv("PERCIVAL_DIFF", "on")
        simulator = FleetSimulator(
            _blocker(untrained_classifier), _SETTINGS,
            cascade=False, chaos=False, resilience=False,
        )
        report = simulator.run(_spec(epochs=3))
        assert simulator.differ is not None
        assert all(
            e.report.stats.diff is simulator.differ.stats
            for e in report.epochs
        )

    def test_config_pins_the_diff_tier_off(self, monkeypatch):
        monkeypatch.setenv("PERCIVAL_DIFF", "on")
        classifier = AdClassifier(PercivalConfig(diff_enabled=False))
        simulator = FleetSimulator(_blocker(classifier), _SETTINGS)
        report = simulator.run(_spec(epochs=3))
        assert simulator.differ is None
        assert all(e.report.stats.diff is None for e in report.epochs)

    def test_rejects_invalid_initial_lanes(self, untrained_classifier):
        with pytest.raises(ValueError):
            FleetSimulator(
                _blocker(untrained_classifier), initial_lanes=0
            )


class _RecordingPool:
    """Duck-typed pool stub: capacity + a resize call log."""

    closed = False

    def __init__(self, fail=False):
        self.available_capacity = 1
        self.calls = []
        self.fail = fail

    def resize(self, num_workers):
        self.calls.append(num_workers)
        if self.fail:
            raise RuntimeError("mid-dispatch")
        self.available_capacity = num_workers


class TestFleetPoolCoupling:
    def test_resizes_pool_to_lane_count_each_epoch(
        self, untrained_classifier
    ):
        blocker = _blocker(untrained_classifier)
        pool = _RecordingPool()
        blocker.pool = pool
        report = FleetSimulator(
            blocker, _SETTINGS,
            policy=SLOPolicy(p99_target_ms=20.0, max_lanes=4),
        ).run(_spec(peak_sessions=12, frames_per_session=6))
        assert pool.calls == [e.lanes for e in report.epochs]

    def test_resize_failure_never_aborts_the_replay(
        self, untrained_classifier
    ):
        blocker = _blocker(untrained_classifier)
        blocker.pool = _RecordingPool(fail=True)
        report = FleetSimulator(
            blocker, _SETTINGS,
            policy=SLOPolicy(p99_target_ms=20.0, max_lanes=4),
        ).run(_spec())
        assert report.conserved()
        assert blocker.pool.calls  # it did try

    def test_poolless_blocker_skips_resizing(self, untrained_classifier):
        report = FleetSimulator(
            _blocker(untrained_classifier), _SETTINGS,
            policy=SLOPolicy(p99_target_ms=30.0),
        ).run(_spec(epochs=2))
        assert report.conserved()
