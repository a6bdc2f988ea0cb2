"""The three workloads ``BENCHMARK.json`` names.

Each workload has a ``prepare(seed)`` that builds its inputs (outside
any timed region) and a ``run(inputs, seconds, tracer)`` that measures
for about ``seconds`` of wall time and returns an
:class:`~common.Outcome`.  A run is a sequence of passes; every pass
builds a fresh stack (timed as one set-up sample), drives the inputs
through it, checks every verdict, and tears the stack down.

Units of work, and so what the generic end-to-end metrics mean:

* ``feed-open``: a request, timed from its due time until its future
  resolves; a page is one session's visit in the trace, and its
  latency is its slowest frame's;
* ``render-pages``: a page render with PERCIVAL;
* ``bulk-sharded``: one 64-frame ``decide_many`` call (a crawl page).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from common import (
    BUDGET_MS_PER_FRAME,
    CONFIG,
    SETTINGS,
    Outcome,
    children_usage,
    load_classifier,
    median,
    percentile,
    reference_probabilities,
    self_peak_rss_mb,
)
from repro.browser.network import MockNetwork, NetworkConfig
from repro.browser.renderer import CHROMIUM, Renderer
from repro.browser.skia import BitmapImage
from repro.cascade.router import CascadeHit, CascadeRouter
from repro.core.blocker import PercivalBlocker
from repro.core.config import configured_worker_count
from repro.core.preprocessing import preprocess_batch
from repro.core.workerpool import InferenceWorkerPool
from repro.diff.differ import FrameDiffer
from repro.eval.experiments.render_performance import build_render_corpus
from repro.serve.loop import AsyncServeFront, ServeOverloadError
from repro.serve.session import TrafficSpec, synthesize_traffic
from repro.synth.webgen import url_registry
from spans import paused

#: how many set-up samples a run takes at least (extra set-ups are
#: built and torn down when a run has fewer passes)
MIN_SETUPS = 9

#: at most this many gate failures are spelled out
MAX_REPORTED_ERRORS = 5


def _gate(errors: List[str], message: str) -> None:
    if len(errors) < MAX_REPORTED_ERRORS:
        errors.append(message)
    elif len(errors) == MAX_REPORTED_ERRORS:
        errors.append("... further mismatches suppressed")


def _timed_build(build, setups: List[float], tracer):
    """Build one stack, appending its set-up time.  Tracing pauses:
    the layer numbers describe the workload, not the set-up."""
    with paused(tracer):
        start = time.perf_counter()
        stack = build()
        setups.append(time.perf_counter() - start)
    return stack


def _extra_setups(build, teardown, setups: List[float], tracer) -> None:
    """Top the run up to :data:`MIN_SETUPS` set-up samples."""
    while len(setups) < MIN_SETUPS:
        stack = _timed_build(build, setups, tracer)
        with paused(tracer):
            teardown(stack)


# ----------------------------------------------------------------------
# Open loop: feed-open
# ----------------------------------------------------------------------
@dataclass
class OpenLoopInputs:
    events: list
    keys: List[str]
    due_s: np.ndarray
    #: page visit index of each request
    page_of: List[int]
    pages: int
    reference: Dict[str, float]


class RuleLog:
    """Which requests the front's cascade router answered.

    The harness names the request it is about to submit in
    :attr:`current`; the router's ``route`` is wrapped on this one
    instance and flags that request when it returns a
    :class:`CascadeHit`.  ``AsyncServeFront.submit`` routes before its
    first ``await``, so the named request is the one being routed.
    """

    def __init__(self, router: CascadeRouter) -> None:
        self.current = -1
        self.answered: set = set()
        route = router.route

        def logged(provenance):
            routed = route(provenance)
            if isinstance(routed, CascadeHit):
                self.answered.add(self.current)
            return routed

        router.route = logged


class OpenLoop:
    """Poisson arrivals at a fixed rate into :class:`AsyncServeFront`,
    behind an explicit cascade router and frame differ."""

    def __init__(self, spec: dict, rate: float) -> None:
        self.spec = spec
        self.rate = rate

    def prepare(self, seed: int) -> OpenLoopInputs:
        spec = TrafficSpec(seed=seed, **self.spec)
        events = synthesize_traffic(spec)
        keys = [PercivalBlocker.fingerprint(event.bitmap) for event in events]
        rng = np.random.default_rng([seed, 0x10AD])
        due_s = np.cumsum(rng.exponential(1.0 / self.rate, len(events)))
        seen: Dict[str, int] = {}
        page_ids: Dict[tuple, int] = {}
        page_of = []
        for event in events:
            visit = seen.get(event.session_id, 0)
            seen[event.session_id] = visit + 1
            page = (event.session_id, visit // spec.frames_per_session)
            page_of.append(page_ids.setdefault(page, len(page_ids)))
        reference = reference_probabilities(
            [event.bitmap for event in events], keys
        )
        return OpenLoopInputs(
            events, keys, due_s, page_of, len(page_ids), reference
        )

    @staticmethod
    def build() -> tuple:
        """(front, log of the requests its cascade router answered)."""
        blocker = PercivalBlocker(load_classifier())
        cascade = CascadeRouter.with_default_filterlist()
        rules = RuleLog(cascade)
        front = AsyncServeFront(
            blocker,
            settings=SETTINGS,
            cascade=cascade,
            differ=FrameDiffer(),
            chaos=False,
            resilience=False,
        )
        return front, rules

    def warm(self, inputs: OpenLoopInputs) -> None:
        """Build one stack and classify a few frames, untimed, so lazy
        imports and the filterlist build stay out of the set-up
        samples."""
        front, _ = self.build()
        front.blocker.decide_many(
            [event.bitmap for event in inputs.events[:16]]
        )

    async def _drive(self, front, rules, inputs: OpenLoopInputs, tracer):
        loop = asyncio.get_running_loop()
        count = len(inputs.events)
        latency = [math.inf] * count
        decisions: List[Optional[object]] = [None] * count
        lag = [0.0] * count
        raised: List[str] = []
        start = loop.time() + 0.005

        async def one(index: int, due: float) -> None:
            lag[index] = (loop.time() - due) * 1e3
            if tracer is not None:
                tracer.rid = index
            event = inputs.events[index]
            rules.current = index
            try:
                decision = await front.submit(
                    event.bitmap,
                    session_id=event.session_id,
                    priority=event.priority,
                    provenance=event.provenance,
                    content_key=event.content_key,
                )
            except ServeOverloadError:
                return
            except Exception as exc:  # counted as failed, reported
                raised.append(f"request {index}: {exc!r}")
                return
            latency[index] = (loop.time() - due) * 1e3
            decisions[index] = decision

        tasks = []
        for index, offset in enumerate(inputs.due_s):
            due = start + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(one(index, due)))
        await asyncio.gather(*tasks)
        end = loop.time()
        await front.aclose()
        return latency, decisions, lag, raised, end - start

    def run(self, inputs: OpenLoopInputs, seconds: float, tracer) -> Outcome:
        pass_s = float(inputs.due_s[-1])
        passes = max(1, int(seconds // pass_s))
        setups: List[float] = []
        #: one dict of end-to-end values per pass (each over >= 1,000
        #: requests); the run reports the best pass of each metric
        per_pass: List[Dict[str, float]] = []
        lags: List[float] = []
        errors: List[str] = []
        answered = attempted = disagree = 0
        totals: Dict[str, float] = {}
        for _ in range(passes):
            front, rules = _timed_build(self.build, setups, tracer)
            cpu_start = time.process_time()
            latency, decisions, lag, raised, elapsed = asyncio.run(
                self._drive(front, rules, inputs, tracer)
            )
            cpu_s = time.process_time() - cpu_start
            lags.extend(lag)
            worst = [0.0] * inputs.pages
            for index, value in enumerate(latency):
                page = inputs.page_of[index]
                worst[page] = max(worst[page], value)
            served = sum(1 for d in decisions if d is not None)
            per_pass.append({
                "latency_p50_ms": percentile(latency, 50.0),
                "latency_p99_ms": percentile(latency, 99.0),
                "slo_goodput_frac": sum(
                    1 for value in latency if value <= BUDGET_MS_PER_FRAME
                ) / len(latency),
                "page_p50_ms": percentile(worst, 50.0),
                "page_p90_ms": percentile(worst, 90.0),
                "overhead_ms_per_page": cpu_s * 1e3 / inputs.pages,
                "throughput_rps": served / elapsed,
            })
            attempted += len(latency)
            answered += served
            for message in raised:
                _gate(errors, message)
            disagree += self._check(front, rules, inputs, decisions, errors)
            for name in ("submitted", "answered", "shed", "failed",
                         "diff_hits", "rule_hits", "memo_hits",
                         "coalesced", "batches", "batched_requests"):
                totals[name] = totals.get(name, 0) + getattr(
                    front.stats, name
                )
        _extra_setups(self.build, lambda stack: None, setups, tracer)
        # interference from whatever shares the machine only ever adds
        # latency and cost, so the best pass is the least disturbed
        # reading of the program itself (render-pages and bulk-sharded
        # take each unit's fastest repetition for the same reason)
        higher_is_better = ("slo_goodput_frac", "throughput_rps")
        e2e = {
            name: (max if name in higher_is_better else min)(
                values[name] for values in per_pass
            )
            for name in per_pass[0]
        }
        e2e["setup_s"] = median(setups)
        e2e["peak_rss_mb"] = self_peak_rss_mb()
        extras = {f"serve.{name}": value for name, value in totals.items()}
        extras["loadgen.lag_p99_ms"] = percentile(lags, 99.0)
        extras["cascade.rule_disagreements"] = float(disagree)
        return Outcome(
            e2e, attempted, attempted - answered, errors, extras
        )

    @staticmethod
    def _check(front, rules: RuleLog, inputs, decisions, errors) -> int:
        """Every answered P(ad) equals the pool-less reference bitwise
        (memo, diff and model answers alike), except for the requests
        the cascade router answered.  A rule answers from the frame's
        provenance, not its pixels, with the P(ad) of the model verdict
        it was compiled from (1.0 for a filterlist rule), so such an
        answer must carry one of the trace's reference values.  Returns
        how many rule answers disagree with the model's verdict on
        their own frame."""
        threshold = CONFIG.ad_threshold
        rule_values = set(inputs.reference.values()) | {1.0}
        disagree = 0
        for index, decision in enumerate(decisions):
            if decision is None:
                continue
            expected = inputs.reference[inputs.keys[index]]
            if index in rules.answered:
                if decision.probability not in rule_values:
                    _gate(errors, (
                        f"request {index}: rule answer P(ad) "
                        f"{decision.probability!r} is no model verdict"
                    ))
                disagree += decision.is_ad != (expected >= threshold)
            elif decision.probability != expected:
                _gate(errors, (
                    f"request {index}: P(ad) {decision.probability!r} != "
                    f"reference {expected!r}"
                ))
        stats = front.stats
        if len(rules.answered) != stats.rule_hits:
            _gate(errors, (
                f"router answered {len(rules.answered)} requests but the "
                f"front counted {stats.rule_hits} rule hits"
            ))
        if not stats.conserved():
            _gate(errors, (
                f"ledger does not balance: submitted {stats.submitted} != "
                f"answered {stats.answered} + shed {stats.shed} + "
                f"failed {stats.failed}"
            ))
        if stats.submitted != len(decisions):
            _gate(errors, (
                f"front counted {stats.submitted} submits for "
                f"{len(decisions)} requests"
            ))
        return disagree


# ----------------------------------------------------------------------
# Closed loop: render-pages
# ----------------------------------------------------------------------
@dataclass
class RenderInputs:
    pages: list
    network: MockNetwork
    reference: Dict[str, float]


class RenderPages:
    """One page at a time through ``Renderer(CHROMIUM).render``."""

    pages = 24
    #: candidate pages drawn per kept page
    oversample = 2

    def prepare(self, seed: int) -> RenderInputs:
        pages = self.corpus(seed)
        registry = url_registry(pages)
        network = MockNetwork(registry, NetworkConfig(seed=seed))
        bitmaps = []
        for url in registry:
            # fetch() encodes each resource once and caches it: the
            # synthetic web's server-side cost stays out of the runs
            bitmaps.append(BitmapImage(network.fetch(url)).decode_only())
        keys = [PercivalBlocker.fingerprint(bitmap) for bitmap in bitmaps]
        return RenderInputs(
            pages, network, reference_probabilities(bitmaps, keys)
        )

    def corpus(self, seed: int) -> list:
        """``pages`` pages of ``build_render_corpus``, chosen so their
        image counts spread evenly over the corpus range for every
        seed: each seed still brings its own sites, creatives and
        layouts, but not a lighter or heavier page mix, which would
        move per-page times between seeds by itself."""
        candidates = build_render_corpus(
            self.pages * self.oversample, seed=seed
        )
        sizes = [len(page.image_elements()) for page in candidates]
        targets = np.linspace(min(sizes), max(sizes), self.pages)
        chosen: List[int] = []
        for target in targets:
            best = min(
                (index for index in range(len(candidates))
                 if index not in chosen),
                key=lambda index: abs(sizes[index] - target),
            )
            chosen.append(best)
        # keep the corpus's own browsing order (memo reuse depends on it)
        return [candidates[index] for index in sorted(chosen)]

    @staticmethod
    def build(inputs: RenderInputs) -> tuple:
        blocker = PercivalBlocker(load_classifier())
        return blocker, Renderer(CHROMIUM, inputs.network)

    def warm(self, inputs: RenderInputs) -> None:
        blocker, renderer = self.build(inputs)
        renderer.render(inputs.pages[0], percival=blocker, mode="sync")
        renderer.render(inputs.pages[0], percival=None, mode="sync")

    def run(self, inputs: RenderInputs, seconds: float, tracer) -> Outcome:
        count = len(inputs.pages)
        with_ms: List[List[float]] = [[] for _ in range(count)]
        without_ms: List[List[float]] = [[] for _ in range(count)]
        images = [0] * count
        blocked: Optional[List[int]] = None
        setups: List[float] = []
        errors: List[str] = []
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            blocker, renderer = _timed_build(
                lambda: self.build(inputs), setups, tracer
            )
            pass_blocked = []
            for index, page in enumerate(inputs.pages):
                # alternate which configuration renders first
                order = (None, blocker) if (index + passes) % 2 else (
                    blocker, None
                )
                for percival in order:
                    start = time.perf_counter()
                    metrics = renderer.render(
                        page, percival=percival, mode="sync"
                    )
                    elapsed_ms = (time.perf_counter() - start) * 1e3
                    if percival is None:
                        without_ms[index].append(elapsed_ms)
                    else:
                        with_ms[index].append(elapsed_ms)
                        pass_blocked.append(
                            metrics.images_blocked_by_percival
                        )
                        images[index] = metrics.images_total
            if blocked is None:
                blocked = pass_blocked
            elif pass_blocked != blocked:
                _gate(errors, "images blocked per page differ between passes")
            self._check(blocker, inputs, errors, tracer)
            passes += 1
        _extra_setups(lambda: self.build(inputs), lambda stack: None,
                      setups, tracer)
        # each page's cost is its fastest render: a shared machine only
        # ever slows a render down, so the minimum over passes is the
        # least disturbed reading; percentiles then run across pages
        page_with = [min(times) for times in with_ms]
        page_without = [min(times) for times in without_ms]
        renders = sum(len(times) for times in with_ms)
        e2e = {
            "setup_s": median(setups),
            "latency_p50_ms": percentile(page_with, 50.0),
            "latency_p99_ms": percentile(page_with, 99.0),
            "slo_goodput_frac": sum(
                1 for index, value in enumerate(page_with)
                if value <= BUDGET_MS_PER_FRAME * images[index]
            ) / count,
            "page_p50_ms": percentile(page_with, 50.0),
            "page_p90_ms": percentile(page_with, 90.0),
            "overhead_ms_per_page": median(page_with) - median(page_without),
            "throughput_rps": count / (sum(page_with) / 1e3),
            "peak_rss_mb": self_peak_rss_mb(),
        }
        return Outcome(e2e, renders * 2, 0, errors, blocked=blocked)

    @staticmethod
    def _check(blocker, inputs: RenderInputs, errors, tracer) -> None:
        """Every frame of the corpus was classified, and its memoized
        P(ad) equals the pool-less reference bitwise."""
        with paused(tracer):
            for key, expected in inputs.reference.items():
                decision = blocker.memoized_decision(key=key)
                if decision is None:
                    _gate(errors, f"frame {key} was never classified")
                elif decision.probability != expected:
                    _gate(errors, (
                        f"frame {key}: P(ad) {decision.probability!r} != "
                        f"reference {expected!r}"
                    ))


# ----------------------------------------------------------------------
# Closed loop: bulk-sharded
# ----------------------------------------------------------------------
@dataclass
class BulkInputs:
    batches: List[list]
    reference: List[np.ndarray]


class BulkSharded:
    """Fixed 64-frame ``decide_many`` calls through a worker pool."""

    batch = 64
    batches = 10
    cycles_per_pass = 3

    def prepare(self, seed: int) -> BulkInputs:
        events = synthesize_traffic(TrafficSpec(
            seed=seed,
            sessions=self.batches,
            frames_per_session=self.batch,
            duplicate_fraction=0.0,
        ))
        bitmaps = [event.bitmap for event in events]
        keys = [PercivalBlocker.fingerprint(bitmap) for bitmap in bitmaps]
        if len(set(keys)) != len(keys):
            raise RuntimeError("bulk-sharded inputs repeat a frame")
        reference = reference_probabilities(bitmaps, keys)
        batches, expected = [], []
        for start in range(0, len(bitmaps), self.batch):
            batches.append(bitmaps[start:start + self.batch])
            expected.append(np.array(
                [reference[key] for key in keys[start:start + self.batch]]
            ))
        return BulkInputs(batches, expected)

    @staticmethod
    def build() -> tuple:
        """(blocker, pool, seconds the weight publication took)."""
        classifier = load_classifier()
        workers = configured_worker_count()
        pool = InferenceWorkerPool(workers) if workers else None
        publish_s = 0.0
        if pool is not None:
            start = time.perf_counter()
            pool.publish(classifier)
            publish_s = time.perf_counter() - start
        return PercivalBlocker(classifier, pool=pool), pool, publish_s

    @staticmethod
    def teardown(stack) -> None:
        pool = stack[1]
        if pool is not None:
            pool.close()

    def warm(self, inputs: BulkInputs) -> None:
        stack = self.build()
        try:
            stack[0].decide_many(inputs.batches[0])
        finally:
            self.teardown(stack)

    def run(self, inputs: BulkInputs, seconds: float, tracer) -> Outcome:
        call_ms: List[List[float]] = [[] for _ in inputs.batches]
        setups: List[float] = []
        errors: List[str] = []
        cpu_per_call: List[float] = []
        publishes: List[float] = []
        #: largest private memory of the pool workers, read at the end
        #: of each pass (after every call of the pass has run)
        children_private = 0.0
        fallbacks = respawns = 0
        deadline = time.perf_counter() + seconds
        passes = calls = 0
        while passes == 0 or time.perf_counter() < deadline:
            stack = _timed_build(self.build, setups, tracer)
            blocker, pool, publish_s = stack
            publishes.append(publish_s)
            pooled = pool is not None
            tolerance = (
                blocker.classifier.fast_path_tolerance if pooled else 0.0
            )
            try:
                _, child_cpu_start = children_usage()
                cpu_start = time.process_time()
                calls_start = calls
                for _ in range(self.cycles_per_pass):
                    blocker.clear_memo()
                    for index, frames in enumerate(inputs.batches):
                        start = time.perf_counter()
                        decisions = blocker.decide_many(frames)
                        call_ms[index].append(
                            (time.perf_counter() - start) * 1e3
                        )
                        calls += 1
                        got = np.array([d.probability for d in decisions])
                        drift = float(np.abs(got - inputs.reference[index])
                                      .max())
                        if drift > tolerance:
                            _gate(errors, (
                                f"batch {index}: P(ad) drifts {drift:.3g} "
                                f"from the reference (tolerance "
                                f"{tolerance:.3g})"
                            ))
                cpu_s = time.process_time() - cpu_start
                child_private, child_cpu_end = children_usage()
                cpu_s += child_cpu_end - child_cpu_start
                cpu_per_call.append(cpu_s * 1e3 / (calls - calls_start))
                children_private = max(children_private, child_private)
                fallbacks += blocker.pool_fallbacks
                respawns += pool.respawns if pooled else 0
            finally:
                self.teardown(stack)
            passes += 1
        _extra_setups(self.build, self.teardown, setups, tracer)
        # as for render-pages: each batch's cost is its fastest call
        batch_ms = [min(times) for times in call_ms]
        e2e = {
            "setup_s": median(setups),
            "latency_p50_ms": percentile(batch_ms, 50.0),
            "latency_p99_ms": percentile(batch_ms, 99.0),
            "slo_goodput_frac": sum(
                1 for times in call_ms for value in times
                if value <= BUDGET_MS_PER_FRAME * self.batch
            ) / calls,
            "page_p50_ms": percentile(batch_ms, 50.0),
            "page_p90_ms": percentile(batch_ms, 90.0),
            "overhead_ms_per_page": min(cpu_per_call),
            "throughput_rps": (
                len(batch_ms) * self.batch / (sum(batch_ms) / 1e3)
            ),
            "peak_rss_mb": self_peak_rss_mb() + children_private,
        }
        extras = {
            "pool.fallbacks": float(fallbacks),
            "pool.respawns": float(respawns),
            "pool.publish_s": median(publishes),
        }
        return Outcome(e2e, calls, 0, errors, extras)

    def calibrate(self, inputs: BulkInputs, repeats: int = 3) -> None:
        """In-process plan runs over the same batches, so a traced run
        can subtract plan time from the pool's call time."""
        classifier = load_classifier()
        size = classifier.config.input_size
        tensors = [preprocess_batch(frames, size) for frames in inputs.batches]
        for _ in range(repeats):
            for tensor in tensors:
                classifier.predict_proba_tensor(tensor)


WORKLOADS = {
    "feed-open": OpenLoop(
        dict(sessions=24, frames_per_session=12, duplicate_fraction=0.3,
             provenance=True, revisits=3, revisit_churn=0.3),
        rate=400.0,
    ),
    "render-pages": RenderPages(),
    "bulk-sharded": BulkSharded(),
}
