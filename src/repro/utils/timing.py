"""Wall-clock measurement helpers.

Only the classifier's inference latency is measured on real hardware
(everything else in the render experiments runs on the virtual clock);
these helpers keep that measurement honest — warmup passes excluded,
median over repeats reported.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence


class Timer:
    """Context manager measuring elapsed wall time in milliseconds.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed_ms >= 0
    True
    """

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        self.elapsed_ms = 0.0
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed_ms = (time.perf_counter() - self._start) * 1000.0


def measure_latency(
    fn: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
) -> float:
    """Return the median wall-clock latency of ``fn`` in milliseconds.

    ``warmup`` calls run first and are discarded, absorbing one-time
    costs (allocation, caches) exactly as a steady-state in-browser model
    would have absorbed them.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        with Timer() as timer:
            fn()
        samples.append(timer.elapsed_ms)
    samples.sort()
    mid = len(samples) // 2
    if len(samples) % 2:
        return samples[mid]
    return 0.5 * (samples[mid - 1] + samples[mid])


def interleaved_samples_ms(
    runners: Sequence[Callable[[], object]], rounds: int
) -> List[List[float]]:
    """Wall-clock samples (ms) of each runner, ``rounds`` apiece.

    Each round times every runner once, back to back, so a slow
    stretch of a shared host lands on all runners alike instead of on
    whichever one it happened to catch, and sample ``i`` of every
    runner comes from the same stretch; one untimed warm-up call per
    runner absorbs first-call costs.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    for runner in runners:
        runner()
    samples: List[List[float]] = [[] for _ in runners]
    for _ in range(rounds):
        for runner, times in zip(runners, samples):
            with Timer() as timer:
                runner()
            times.append(timer.elapsed_ms)
    return samples
