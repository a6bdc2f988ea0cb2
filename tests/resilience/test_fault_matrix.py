"""The fault matrix: chaos schedules crossed with the cascade and diff
tiers on/off, golden-verdict equality against fault-free runs, ledger
conservation under Hypothesis-generated schedules, and the full
acceptance scenario (worker kill + tier blackout + latency spike past
the SLO) on both serve fronts.

Strict bit-equality runs use ``CascadeRouter(filter_engine=None)`` and
per-frame rule sources: filterlist hits serve P=1.0 by design, and a
micro-rule shared across *different* frames would serve its compiling
frame's probability — both legitimate cascade behaviours, but not the
invariant under test here, which is that an injected fault never
changes what any individual request is answered with.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.cascade import CascadeRouter, FrameProvenance
from repro.core import InferenceWorkerPool, PercivalBlocker, ServeSettings
from repro.diff import FrameDiffer
from repro.resilience import (
    ChaosEvent,
    ChaosSchedule,
    LadderSettings,
    ResiliencePlane,
)
from repro.serve import (
    PRIORITY_BELOW_FOLD,
    PRIORITY_VIEWPORT,
    ArrivalEvent,
    AsyncServeFront,
    RenderServeBridge,
    ServeLoop,
    ServeOverloadError,
)

SETTINGS = ServeSettings(max_batch=4, max_wait_ms=2.0, max_depth=64, lanes=1)


def _blocker(classifier, **kwargs):
    kwargs.setdefault("calibrated_latency_ms", 2.0)
    return PercivalBlocker(classifier, **kwargs)


def _frames(count, seed=0, size=(12, 14)):
    rng = np.random.default_rng(seed)
    return [
        rng.random((*size, 4)).astype(np.float32) for _ in range(count)
    ]


def _prov(site, index, width=12, height=14):
    # one rule source per frame index: a compiled micro-rule can only
    # ever answer revisits of the identical bitmap
    return FrameProvenance(
        url=f"https://{site}/slot{index}/ad.png",
        page_domain=site,
        tag="img",
        css_classes=("banner",),
        width=width,
        height=height,
    )


def _event(frames, index, at_ms, priority=PRIORITY_VIEWPORT):
    site = f"site{index % 2}.test"
    return ArrivalEvent(
        at_ms=at_ms,
        session_id=f"s{index % 4}",
        bitmap=frames[index],
        priority=priority,
        provenance=_prov(site, index),
        content_key=f"ck-{index}",
    )


def _trace(frames, burst=24, tail=12, burst_gap=0.5, tail_start=40.0,
           tail_gap=3.0):
    """A dense burst, then a light tail where every other request
    revisits a burst frame (diff/memo food)."""
    events = [
        _event(
            frames, i, i * burst_gap,
            PRIORITY_BELOW_FOLD if i % 3 == 0 else PRIORITY_VIEWPORT,
        )
        for i in range(burst)
    ]
    for j in range(tail):
        index = j if j % 2 == 0 else burst + j // 2
        events.append(_event(frames, index, tail_start + j * tail_gap))
    return events


def _answered(report):
    return {
        r.request_id: r.decision.probability
        for r in report.results
        if r.decision is not None
    }


def _run(classifier, events, *, cascade, diff, chaos, resilience=None,
         compute_model=None, blocker=None):
    loop = ServeLoop(
        blocker if blocker is not None else _blocker(classifier),
        SETTINGS,
        compute_model=compute_model,
        cascade=CascadeRouter(filter_engine=None) if cascade else False,
        differ=FrameDiffer() if diff else False,
        chaos=chaos,
        resilience=resilience if resilience is not None else (
            False if chaos is False else None
        ),
    )
    return loop.run(events)


class TestFaultMatrix:
    @pytest.mark.parametrize("cascade", [False, True])
    @pytest.mark.parametrize("diff", [False, True])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_seeded_chaos_never_moves_a_served_verdict(
        self, untrained_classifier, cascade, diff, seed
    ):
        """Every tier combination, two seeded schedules: any request
        answered in both the fault-free and the chaos run carries the
        bit-identical probability, and both ledgers balance."""
        events = _trace(_frames(36, seed=seed))
        fault_free = _run(
            untrained_classifier, events,
            cascade=cascade, diff=diff, chaos=False,
        )
        schedule = ChaosSchedule.seeded(seed, horizon_ms=60.0)
        chaotic = _run(
            untrained_classifier, events,
            cascade=cascade, diff=diff, chaos=schedule,
        )
        assert fault_free.stats.conserved()
        assert chaotic.stats.conserved()
        baseline, shaken = _answered(fault_free), _answered(chaotic)
        assert shaken, "a chaos run must still answer requests"
        for request_id in baseline.keys() & shaken.keys():
            assert baseline[request_id] == shaken[request_id]

    def test_chaos_replays_bit_identically(self, untrained_classifier):
        events = _trace(_frames(36, seed=3))
        schedule = ChaosSchedule.seeded(11, horizon_ms=60.0)

        def run():
            report = _run(
                untrained_classifier, events,
                cascade=True, diff=True, chaos=schedule,
            )
            return (
                report.makespan_ms,
                [
                    (r.request_id, r.flush_ms, r.complete_ms, r.shed,
                     r.failed,
                     r.decision.probability if r.decision else None)
                    for r in report.results
                ],
            )

        assert run() == run()


@st.composite
def chaos_schedules(draw):
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        fault = draw(st.sampled_from(
            ["tier-outage", "tier-error", "latency-spike"]
        ))
        at_ms = round(draw(st.floats(
            min_value=0.0, max_value=40.0,
            allow_nan=False, allow_infinity=False,
        )), 1)
        target = (
            draw(st.sampled_from(["diff", "cascade", "memo"]))
            if fault in ("tier-outage", "tier-error")
            else ""
        )
        duration_ms = (
            round(draw(st.floats(
                min_value=0.0, max_value=25.0,
                allow_nan=False, allow_infinity=False,
            )), 1)
            if fault in ("tier-outage", "latency-spike")
            else 0.0
        )
        magnitude = (
            draw(st.sampled_from([2.0, 4.0, 8.0]))
            if fault == "latency-spike"
            else 1.0
        )
        events.append(ChaosEvent(
            at_ms=at_ms, fault=fault, target=target,
            duration_ms=duration_ms, magnitude=magnitude,
        ))
    return ChaosSchedule(events)


class TestConservationProperty:
    @pytest.fixture(scope="class")
    def small_trace(self):
        return _trace(_frames(24, seed=17), burst=16, tail=8,
                      tail_start=30.0)

    @pytest.fixture(scope="class")
    def small_baseline(self, untrained_classifier, small_trace):
        report = _run(
            untrained_classifier, small_trace,
            cascade=True, diff=True, chaos=False,
        )
        return _answered(report)

    @hyp_settings(max_examples=12, deadline=None)
    @given(schedule=chaos_schedules())
    def test_every_schedule_conserves_and_preserves_verdicts(
        self, untrained_classifier, small_trace, small_baseline, schedule
    ):
        report = _run(
            untrained_classifier, small_trace,
            cascade=True, diff=True, chaos=schedule,
        )
        stats = report.stats
        assert stats.conserved()
        assert stats.submitted == len(small_trace)
        served = _answered(report)
        for request_id in small_baseline.keys() & served.keys():
            assert small_baseline[request_id] == served[request_id]


ACCEPTANCE_LADDER = LadderSettings(
    slo_ms=10.0,
    percentile=95.0,
    window=8,
    min_samples=2,
    recover_headroom=0.8,
    min_dwell_ms=4.0,
)

ACCEPTANCE_SCHEDULE = ChaosSchedule([
    ChaosEvent(at_ms=0.0, fault="worker-death", target="0"),
    ChaosEvent(at_ms=4.0, fault="latency-spike", duration_ms=28.0,
               magnitude=20.0),
    ChaosEvent(at_ms=6.0, fault="tier-outage", target="diff",
               duration_ms=20.0),
    ChaosEvent(at_ms=6.0, fault="tier-outage", target="cascade",
               duration_ms=20.0),
])


def _ladder_counts(plane):
    downs = sum(
        1 for t in plane.controller.transitions if t.direction == "down"
    )
    ups = sum(
        1 for t in plane.controller.transitions if t.direction == "up"
    )
    return downs, ups


class TestAcceptanceScenario:
    def test_serve_loop_full_scenario(self, untrained_classifier):
        """The issue's acceptance replay: a worker killed mid-batch, a
        diff+cascade blackout, and a latency spike far past the SLO.
        The trace completes, every served P(ad) is bit-identical to
        the fault-free run, the ledger balances, and the ladder steps
        down and back up at least twice each."""
        frames = _frames(72, seed=41)
        events = _trace(
            frames, burst=48, tail=24, burst_gap=0.5,
            tail_start=60.0, tail_gap=4.0,
        )
        fault_free = _run(
            untrained_classifier, events,
            cascade=True, diff=True, chaos=False,
            compute_model=lambda n: 2.0,
        )
        assert fault_free.stats.conserved()

        plane = ResiliencePlane(ladder=ACCEPTANCE_LADDER)
        with InferenceWorkerPool(num_workers=2, timeout_s=10.0) as pool:
            pool.publish(untrained_classifier)
            blocker = _blocker(
                untrained_classifier, pool=pool, shard_min_batch=4
            )
            report = _run(
                untrained_classifier, events,
                cascade=True, diff=True,
                chaos=ACCEPTANCE_SCHEDULE, resilience=plane,
                compute_model=lambda n: 2.0, blocker=blocker,
            )
            assert blocker.pool_fallbacks == 1  # the mid-batch kill

        stats = report.stats
        assert stats.conserved()
        assert stats.submitted == len(events)
        assert plane.chaos_injected == len(ACCEPTANCE_SCHEDULE)
        baseline, shaken = _answered(fault_free), _answered(report)
        assert shaken
        for request_id in baseline.keys() & shaken.keys():
            assert baseline[request_id] == shaken[request_id]
        downs, ups = _ladder_counts(plane)
        assert downs >= 2, plane.controller.transitions
        assert ups >= 2, plane.controller.transitions
        # the dwell ledger closed: time was actually spent browned out
        assert sum(plane.controller.dwell_ms.values()) > 0.0

    def test_async_front_full_scenario(self, untrained_classifier):
        """Same faults against the asyncio front on its real-ms clock.
        The invariant here is value-independence: every future that
        resolves carries the fault-free probability, the ledger
        balances, and the ladder visibly steps down and recovers."""
        frames = _frames(40, seed=31)
        reference = _blocker(untrained_classifier)
        expected = [
            reference.decide(frame).probability for frame in frames
        ]
        schedule = ChaosSchedule([
            ChaosEvent(at_ms=0.0, fault="worker-death", target="0"),
            ChaosEvent(at_ms=0.0, fault="tier-outage", target="diff",
                       duration_ms=60_000.0),
            ChaosEvent(at_ms=0.0, fault="tier-outage", target="cascade",
                       duration_ms=60_000.0),
            ChaosEvent(at_ms=0.0, fault="latency-spike",
                       duration_ms=60_000.0, magnitude=8.0),
        ])
        # real-clock run: the SLO is unreachable so recovery rides the
        # healthy-window path, and downs come from overflow pressure —
        # both deterministic in outcome, neither timing-sensitive
        ladder = LadderSettings(
            slo_ms=60_000.0, percentile=95.0, window=8, min_samples=1,
            recover_headroom=0.5, min_dwell_ms=0.0,
        )
        plane = ResiliencePlane(ladder=ladder)
        settings = ServeSettings(max_batch=4, max_wait_ms=5.0, max_depth=4)

        with InferenceWorkerPool(num_workers=2, timeout_s=10.0) as pool:
            pool.publish(untrained_classifier)
            blocker = _blocker(
                untrained_classifier, pool=pool, shard_min_batch=4
            )
            front = AsyncServeFront(
                blocker, settings,
                cascade=CascadeRouter(filter_engine=None),
                differ=FrameDiffer(),
                chaos=schedule, resilience=plane,
            )

            async def drive():
                async def one(index):
                    try:
                        decision = await front.submit(
                            frames[index], session_id=f"s{index % 3}"
                        )
                    except ServeOverloadError:
                        return None
                    assert decision.probability == expected[index]
                    return decision.probability

                # phase A: overflow bursts past max_depth -> pressure
                # sheds -> ladder steps down
                await asyncio.gather(*(one(i) for i in range(12)))
                await asyncio.sleep(0.005)
                await asyncio.gather(*(one(i) for i in range(12, 24)))
                await front.drain()
                downs, _ = _ladder_counts(plane)
                assert downs >= 2, plane.controller.transitions

                # phase B: a light trickle; every settle reads a
                # comfortable window (or an idle one) and steps up
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 20.0
                index = 24
                while (
                    _ladder_counts(plane)[1] < 2
                    and loop.time() < deadline
                ):
                    await asyncio.sleep(0.01)
                    await one(index % len(frames))
                    index += 1
                await front.aclose()

            asyncio.run(drive())
            assert blocker.pool_fallbacks >= 1  # the mid-batch kill

        stats = front.stats
        assert stats.conserved()
        assert stats.shed > 0  # overflow and/or brownout sheds
        downs, ups = _ladder_counts(plane)
        assert downs >= 2, plane.controller.transitions
        assert ups >= 2, plane.controller.transitions


class TestBridgeStaysUnguarded:
    def test_chaos_and_resilience_knobs_leave_the_bridge_plain(
        self, untrained_classifier, monkeypatch
    ):
        """The renderer bridge takes no chaos schedule and no plane,
        whatever the environment: with both knobs on, the asyncio front
        is guarded and the bridge's chain is not."""
        monkeypatch.setenv("PERCIVAL_CHAOS", "7")
        monkeypatch.setenv("PERCIVAL_RESILIENCE", "on")
        blocker = _blocker(untrained_classifier)
        assert AsyncServeFront(blocker, SETTINGS)._chain.guarded
        chain = RenderServeBridge(blocker, SETTINGS)._chain
        assert chain.plane is None
        assert chain.cursor is None
        assert not chain.guarded
