"""Micro-batching serving layer vs sequential per-session inference.

Not a paper figure — this regenerates the PR's own claims: coalescing a
200-request mixed-session stream into shard-sized batches through
``repro.serve`` must match sequential per-session ``decide_many`` on
wall-clock throughput (>= 1.0x as the median of per-round ratios over
interleaved rounds — in practice the bigger batches win) while
producing **identical verdicts**; under light load (spaced single
submits) the front must answer in less than ``max_wait_ms`` at p50,
because it flushes as soon as its event loop is idle; the
deterministic simulation
must conserve every request (answered + shed == submitted); and the
multi-lane loop over a 2-worker pool must beat the single-lane path by
>= 1.3x in virtual makespan with bitwise-equal verdicts — the claim
measured in virtual time, so it replays exactly on any machine.

Marked ``bench_smoke`` so ``scripts/bench_smoke.sh`` runs it in
seconds; ``PERCIVAL_BENCH_ROUNDS`` trims the timing repeats.
"""

import asyncio
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core import InferenceWorkerPool, PercivalBlocker, ServeSettings
from repro.eval.reporting import paper_vs_measured
from repro.resilience import (
    ChaosEvent,
    ChaosSchedule,
    LadderSettings,
    ResiliencePlane,
)
from repro.serve import (
    ArrivalEvent,
    AsyncServeFront,
    FleetSimulator,
    FleetSpec,
    ServeLoop,
    SLOPolicy,
    TrafficSpec,
    synthesize_traffic,
)
from repro.utils.timing import interleaved_samples_ms

SESSIONS = 25
FRAMES_PER_SESSION = 8  # 200 requests total
#: interleaved rounds of the throughput ratio, never fewer than 15: a
#: round's ratio spreads ~0.9-1.1 on a shared 2-vCPU host, and the
#: median of 3 (CI's floor before) could land either side of 1.0
ROUNDS = max(int(os.environ.get("PERCIVAL_BENCH_ROUNDS", "15")), 15)
SETTINGS = ServeSettings(max_batch=32, max_wait_ms=2.0, max_depth=512)


@pytest.fixture(scope="module")
def traffic():
    events = synthesize_traffic(TrafficSpec(
        sessions=SESSIONS,
        frames_per_session=FRAMES_PER_SESSION,
        duplicate_fraction=0.3,
        seed=77,
    ))
    assert len(events) == SESSIONS * FRAMES_PER_SESSION
    return events


def _sequential_decisions(classifier, events):
    """The baseline deployment: one ``decide_many`` per page session,
    sessions served one after another (arrival order preserved)."""
    blocker = PercivalBlocker(classifier, calibrated_latency_ms=1.0)
    by_session = {}
    for index, event in enumerate(events):
        by_session.setdefault(event.session_id, []).append(index)
    decisions = [None] * len(events)
    for indices in by_session.values():
        batch = blocker.decide_many([events[i].bitmap for i in indices])
        for position, decision in zip(indices, batch):
            decisions[position] = decision
    return decisions


def _served_decisions(classifier, events):
    blocker = PercivalBlocker(classifier, calibrated_latency_ms=1.0)
    front = AsyncServeFront(blocker, SETTINGS)

    async def drive():
        decisions = await asyncio.gather(*[
            front.submit(event.bitmap, session_id=event.session_id)
            for event in events
        ])
        await front.aclose()
        return decisions

    return asyncio.run(drive()), front


@pytest.mark.bench_smoke
def test_served_throughput_and_verdict_equivalence(
    reference_classifier, report_table, bench_record
):
    classifier = reference_classifier
    events = synthesize_traffic(TrafficSpec(
        sessions=SESSIONS,
        frames_per_session=FRAMES_PER_SESSION,
        duplicate_fraction=0.3,
        seed=77,
    ))
    tolerance = classifier.fast_path_tolerance
    runs = {}

    def sequential_run():
        runs["sequential"] = _sequential_decisions(classifier, events)

    def served_run():
        runs["served"] = _served_decisions(classifier, events)

    # each round times both paths back to back (after one untimed
    # warm-up apiece, which also compiles the plan), so a slow stretch
    # of a shared host lands on both alike
    sequential_ms, served_ms = interleaved_samples_ms(
        [sequential_run, served_run], ROUNDS
    )
    sequential = runs["sequential"]
    served, front = runs["served"]

    # --- verdicts: identical per request, both paths -------------------
    assert front.stats.conserved()
    assert front.stats.shed == 0
    sequential_p = np.array([d.probability for d in sequential])
    served_p = np.array([d.probability for d in served])
    max_delta = float(np.abs(sequential_p - served_p).max())
    assert max_delta <= tolerance
    assert [d.is_ad for d in sequential] == [d.is_ad for d in served]

    # --- throughput ----------------------------------------------------
    seq_median = float(np.median(sequential_ms))
    srv_median = float(np.median(served_ms))
    # the median of per-round ratios: two separately reduced medians
    # can each catch a different stretch of the host's speed
    speedup = float(np.median(np.divide(sequential_ms, served_ms)))
    requests = len(events)
    rows = [
        ("requests / sessions", "-", f"{requests} / {SESSIONS}"),
        ("serve max_batch / max_wait", "-",
         f"{SETTINGS.max_batch} / {SETTINGS.max_wait_ms} ms"),
        ("sequential decide_many (req/s)", "-",
         requests / seq_median * 1000.0),
        ("served micro-batches (req/s)", "-",
         requests / srv_median * 1000.0),
        ("mean served batch size", "-", front.stats.mean_batch_size),
        ("coalesced + memo duplicates", "-",
         front.stats.coalesced + front.stats.memo_hits),
        ("served speedup (x, per round)", ">= 1.0", speedup),
        ("max |p_served - p_sequential|", f"<= {tolerance:g}", max_delta),
    ]
    report_table(paper_vs_measured(
        f"Serving layer throughput (200-request stream, {ROUNDS} rounds)",
        rows,
    ))
    bench_record(
        "serving_throughput",
        requests=requests,
        sequential_req_per_s=requests / seq_median * 1000.0,
        served_req_per_s=requests / srv_median * 1000.0,
        speedup=speedup,
        mean_batch_size=front.stats.mean_batch_size,
        sheds=front.stats.shed,
        max_probability_delta=max_delta,
    )
    assert speedup >= 1.0


IDLE_SUBMITS = 40
IDLE_GAP_S = 0.005
IDLE_SETTINGS = ServeSettings(max_batch=16, max_wait_ms=4.0, max_depth=128)


@pytest.mark.bench_smoke
def test_light_load_latency_beats_max_wait(
    reference_classifier, report_table, traffic, bench_record
):
    """Spaced single submits never have batch-mates: each must flush on
    the front's next idle turn, not wait out ``max_wait_ms``.  Frames
    are unique, so every request reaches the model."""
    frames, seen = [], set()
    for event in traffic:
        key = PercivalBlocker.fingerprint(event.bitmap)
        if key not in seen:
            seen.add(key)
            frames.append(event.bitmap)
    frames = frames[:IDLE_SUBMITS]
    assert len(frames) == IDLE_SUBMITS
    # compile the plan untimed, on a throwaway blocker (its own memo)
    PercivalBlocker(reference_classifier).decide_many(frames[:1])
    blocker = PercivalBlocker(reference_classifier, calibrated_latency_ms=1.0)
    front = AsyncServeFront(blocker, IDLE_SETTINGS)

    async def drive():
        loop = asyncio.get_running_loop()

        async def timed(frame):
            start = loop.time()
            await front.submit(frame)
            return (loop.time() - start) * 1000.0

        tasks = []
        for frame in frames:
            tasks.append(asyncio.ensure_future(timed(frame)))
            await asyncio.sleep(IDLE_GAP_S)
        latencies = await asyncio.gather(*tasks)
        await front.aclose()
        return latencies

    latencies = np.array(asyncio.run(drive()))
    p50 = float(np.median(latencies))
    p99 = float(np.percentile(latencies, 99))
    stats = front.stats
    assert stats.conserved()
    assert stats.answered == IDLE_SUBMITS
    report_table(paper_vs_measured(
        f"Serving layer light-load latency ({IDLE_SUBMITS} submits,"
        f" {IDLE_GAP_S * 1000:g} ms apart)",
        [
            ("max_wait_ms", "-", IDLE_SETTINGS.max_wait_ms),
            ("batches / mean size", "-",
             f"{stats.batches} / {stats.mean_batch_size:.2f}"),
            ("submit-to-verdict p50 (ms)",
             f"< {IDLE_SETTINGS.max_wait_ms:g}", p50),
            ("submit-to-verdict p99 (ms)", "-", p99),
        ],
    ))
    bench_record(
        "serving_latency",
        requests=IDLE_SUBMITS,
        batches=stats.batches,
        idle_p50_ms=p50,
        idle_p99_ms=p99,
    )
    assert p50 < IDLE_SETTINGS.max_wait_ms


@pytest.mark.bench_smoke
def test_simulated_latency_profile(
    reference_classifier, report_table, traffic, bench_record
):
    """The deterministic virtual-clock profile of the same stream:
    conservation, batching efficiency, and the queue-wait/compute
    split (replays identically on any machine).  Pinned to one lane —
    this is the PR 4 serializing profile the multi-lane bench below is
    measured against, so it must not drift with the environment's
    PERCIVAL_SERVE_LANES."""
    blocker = PercivalBlocker(reference_classifier, calibrated_latency_ms=11.0)
    report = ServeLoop(
        blocker,
        ServeSettings(max_batch=16, max_wait_ms=4.0, max_depth=128, lanes=1),
    ).run(traffic)
    stats = report.stats
    # conservation under genuine overload: this trace saturates the
    # 11 ms compute lane, so a few requests shed — explicitly, and the
    # ledger still balances (the virtual clock makes this exact and
    # machine-independent)
    assert stats.conserved()
    assert stats.shed <= 0.05 * stats.submitted
    assert stats.batches < stats.submitted  # batching actually batched
    rows = [
        ("requests", "-", stats.submitted),
        ("shed (explicit backpressure)", "conserved", stats.shed),
        ("batches / mean size", "-",
         f"{stats.batches} / {stats.mean_batch_size:.1f}"),
        ("memo + coalesced hits", "-",
         stats.memo_hits + stats.coalesced),
        ("queue wait p50 / p95 / p99 (ms)", "-",
         f"{stats.queue_wait_ms.p50:.1f} / {stats.queue_wait_ms.p95:.1f}"
         f" / {stats.queue_wait_ms.p99:.1f}"),
        ("service p50 / p95 / p99 (ms)", "-",
         f"{stats.service_ms.p50:.1f} / {stats.service_ms.p95:.1f}"
         f" / {stats.service_ms.p99:.1f}"),
        ("virtual makespan (ms)", "-", report.makespan_ms),
    ]
    report_table(paper_vs_measured(
        "Serving layer: deterministic latency profile", rows
    ))
    bench_record(
        "serving_latency_profile_single_lane",
        requests=stats.submitted,
        sheds=stats.shed,
        batches=stats.batches,
        mean_batch_size=stats.mean_batch_size,
        queue_wait_p50_ms=stats.queue_wait_ms.p50,
        queue_wait_p95_ms=stats.queue_wait_ms.p95,
        queue_wait_p99_ms=stats.queue_wait_ms.p99,
        total_p50_ms=stats.total_ms.p50,
        total_p95_ms=stats.total_ms.p95,
        total_p99_ms=stats.total_ms.p99,
        makespan_ms=report.makespan_ms,
    )


@pytest.mark.bench_smoke
def test_multi_lane_speedup_over_pool(
    reference_classifier, report_table, traffic, bench_record
):
    """The tentpole claim: two lanes over a 2-worker pool beat the
    single-lane serializing loop by >= 1.3x on the 200-request stream.

    Speedup is the ratio of virtual makespans — both runs do the same
    real compute (every flush calls ``decide_many``, sharded across the
    pool), but the discrete-event clock prices lane overlap, so the
    number is exact and machine-independent.  Lane counts are pinned
    (1 vs 2) so the comparison cannot be skewed by the environment's
    PERCIVAL_SERVE_LANES.  Verdicts must agree bit-for-bit: lanes move
    *when* batches compute, never what they conclude.
    """
    # max_depth=256: deep enough that neither lane count sheds, so all
    # 200 verdicts exist in both runs and compare bitwise
    settings = ServeSettings(max_batch=32, max_wait_ms=2.0, max_depth=256)

    def run(lanes: int, pool):
        blocker = PercivalBlocker(
            reference_classifier,
            calibrated_latency_ms=4.0,
            pool=pool,
            shard_min_batch=16,
        )
        report = ServeLoop(
            blocker, replace(settings, lanes=lanes)
        ).run(traffic)
        assert report.stats.conserved()
        assert report.stats.shed == 0
        assert blocker.pool_fallbacks == 0
        return report

    with InferenceWorkerPool(num_workers=2) as pool:
        pool.publish(reference_classifier)
        single = run(1, pool)
        multi = run(2, pool)

    single_p = np.array(
        [r.decision.probability for r in single.results if r.decision]
    )
    multi_p = np.array(
        [r.decision.probability for r in multi.results if r.decision]
    )
    np.testing.assert_array_equal(single_p, multi_p)

    speedup = single.makespan_ms / multi.makespan_ms
    lanes_used = sum(
        1 for busy in multi.stats.lane_busy_ms.values() if busy > 0
    )
    rows = [
        ("requests / pool workers", "-", f"{len(traffic)} / 2"),
        ("single-lane makespan (ms)", "-", single.makespan_ms),
        ("two-lane makespan (ms)", "-", multi.makespan_ms),
        ("lanes actually busy", "2", lanes_used),
        ("single-lane total p99 (ms)", "-", single.stats.total_ms.p99),
        ("two-lane total p99 (ms)", "-", multi.stats.total_ms.p99),
        ("multi-lane speedup (x)", ">= 1.3", speedup),
        ("max |p_2lane - p_1lane|", "0 (bitwise)",
         float(np.abs(single_p - multi_p).max())),
    ]
    report_table(paper_vs_measured(
        "Multi-lane serve loop vs single lane (virtual time)", rows
    ))
    bench_record(
        "serving_multilane_speedup",
        requests=len(traffic),
        pool_workers=2,
        single_lane_makespan_ms=single.makespan_ms,
        two_lane_makespan_ms=multi.makespan_ms,
        speedup=speedup,
        single_lane_p99_ms=single.stats.total_ms.p99,
        two_lane_p99_ms=multi.stats.total_ms.p99,
        sheds=multi.stats.shed,
    )
    assert lanes_used == 2
    assert speedup >= 1.3


@pytest.mark.bench_smoke
def test_fleet_replay_slo_autoscaler(
    reference_classifier, report_table, bench_record
):
    """Fleet simulation: p99 vs offered load across a diurnal day,
    before (lanes pinned at 1) and after (SLO autoscaler may scale to
    4) multi-lane — sheds conserved in both, peak p99 strictly better
    after.  Fully virtual, so the epoch table is a deterministic
    regression artifact."""
    spec = FleetSpec(
        epochs=6,
        base_sessions=4,
        peak_sessions=16,
        frames_per_session=6,
        hot_creative_bias=0.3,
        seed=5,
    )
    settings = ServeSettings(max_batch=16, max_wait_ms=2.0, max_depth=64)

    def replay(max_lanes: int):
        blocker = PercivalBlocker(
            reference_classifier, calibrated_latency_ms=8.0
        )
        # cascade pinned off, like the lane counts: this bench measures
        # the autoscaler, and the environment's PERCIVAL_CASCADE would
        # absorb offered load before the policy ever sees it
        simulator = FleetSimulator(
            blocker,
            settings,
            policy=SLOPolicy(p99_target_ms=30.0, max_lanes=max_lanes),
            cascade=False,
        )
        report = simulator.run(spec)
        assert report.conserved()
        return report

    before = replay(max_lanes=1)
    after = replay(max_lanes=4)
    assert after.offered == before.offered  # same traffic, same seeds
    rows = [
        ("epochs / offered requests", "-",
         f"{spec.epochs} / {before.offered}"),
        ("peak sessions (diurnal)", "-", spec.peak_sessions),
        ("peak p99 before (1 lane, ms)", "-", before.peak_p99_ms),
        ("peak p99 after (autoscaled, ms)", "< before",
         after.peak_p99_ms),
        ("peak lanes the policy reached", "-", after.peak_lanes),
        ("sheds before / after", "conserved",
         f"{before.shed} / {after.shed}"),
    ]
    report_table(paper_vs_measured(
        "Fleet replay: SLO autoscaler vs pinned single lane", rows
    ))
    report_table(after.to_table("Fleet replay (autoscaled epochs)"))
    bench_record(
        "serving_fleet_autoscaler",
        offered=after.offered,
        peak_p99_before_ms=before.peak_p99_ms,
        peak_p99_after_ms=after.peak_p99_ms,
        peak_lanes=after.peak_lanes,
        sheds_before=before.shed,
        sheds_after=after.shed,
    )
    assert after.peak_lanes > 1
    assert after.peak_p99_ms < before.peak_p99_ms
    assert after.shed <= before.shed


@pytest.mark.bench_smoke
def test_chaos_brownout_dwell(
    reference_classifier, report_table, bench_record
):
    """Resilience under a latency storm: a 20x spike pushes the p95
    far past the ladder's SLO, the degradation controller browns out,
    and the storm's end recovers it — all on the virtual clock, so the
    dwell split (ms browned out vs normal) is a deterministic
    regression artifact.  Served verdicts must stay bit-identical to
    the fault-free replay; the dwell numbers are trend-only."""
    rng = np.random.default_rng(47)
    frames = [
        rng.random((12, 14, 4)).astype(np.float32) for _ in range(72)
    ]
    events = [
        ArrivalEvent(
            at_ms=i * 0.5, session_id=f"s{i % 4}", bitmap=frames[i]
        )
        for i in range(48)
    ] + [
        ArrivalEvent(
            at_ms=60.0 + j * 4.0, session_id=f"s{j % 4}",
            bitmap=frames[48 + j],
        )
        for j in range(24)
    ]
    settings = ServeSettings(max_batch=4, max_wait_ms=2.0, max_depth=64,
                             lanes=1)
    schedule = ChaosSchedule([
        ChaosEvent(at_ms=4.0, fault="latency-spike", duration_ms=28.0,
                   magnitude=20.0),
    ])
    ladder = LadderSettings(
        slo_ms=10.0, percentile=95.0, window=8, min_samples=2,
        recover_headroom=0.8, min_dwell_ms=4.0,
    )

    def run(chaos, resilience):
        blocker = PercivalBlocker(
            reference_classifier, calibrated_latency_ms=2.0
        )
        return ServeLoop(
            blocker, settings, compute_model=lambda n: 2.0,
            chaos=chaos, resilience=resilience,
        ).run(events)

    fault_free = run(chaos=False, resilience=False)
    plane = ResiliencePlane(ladder=ladder)
    stormy = run(chaos=schedule, resilience=plane)

    assert fault_free.stats.conserved()
    assert stormy.stats.conserved()
    baseline = {
        r.request_id: r.decision.probability
        for r in fault_free.results if r.decision is not None
    }
    shaken = {
        r.request_id: r.decision.probability
        for r in stormy.results if r.decision is not None
    }
    for request_id in baseline.keys() & shaken.keys():
        assert baseline[request_id] == shaken[request_id]

    downs = sum(
        1 for t in plane.controller.transitions if t.direction == "down"
    )
    ups = sum(
        1 for t in plane.controller.transitions if t.direction == "up"
    )
    dwell = plane.controller.dwell_ms
    browned_out_ms = sum(
        ms for name, ms in dwell.items() if name != "normal"
    )
    rows = [
        ("requests / chaos events", "-", f"{len(events)} / 1"),
        ("spike magnitude x duration", "-", "20x / 28 ms"),
        ("ladder steps down / up", ">= 1 each", f"{downs} / {ups}"),
        ("dwell normal (virtual ms)", "-", dwell["normal"]),
        ("dwell browned out (virtual ms)", "> 0", browned_out_ms),
        ("fault-free makespan (ms)", "-", fault_free.makespan_ms),
        ("storm makespan (ms)", "-", stormy.makespan_ms),
        ("served verdicts moved", "0 (bitwise)", 0),
    ]
    report_table(paper_vs_measured(
        "Chaos brownout: degradation-ladder dwell (virtual time)", rows
    ))
    bench_record(
        "serving_chaos_brownout",
        requests=len(events),
        transitions_down=downs,
        transitions_up=ups,
        dwell_normal_ms=dwell["normal"],
        dwell_browned_out_ms=browned_out_ms,
        fault_free_makespan_ms=fault_free.makespan_ms,
        storm_makespan_ms=stormy.makespan_ms,
        sheds=stormy.stats.shed,
    )
    assert downs >= 1
    assert ups >= 1
    assert browned_out_ms > 0.0
