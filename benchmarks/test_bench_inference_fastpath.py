"""Compiled inference fast path: reference vs fast-path latency.

Not a paper figure — this regenerates the PR's own claim: routing
eval-mode scoring through the compiled plan (fused cache-free kernels,
1x1 GEMM shortcut, batched blocker verdicts) must deliver >= 2x
single-image latency and >= 4x batched throughput over the reference
layer-by-layer path, while matching its probabilities within 1e-5.

Marked ``bench_smoke`` so ``scripts/bench_smoke.sh`` can run it alone
in seconds; ``PERCIVAL_BENCH_ROUNDS`` trims the timing repeats further,
but never below ``MIN_REPEATS`` for the single-frame sides and the
batched plan run: each takes milliseconds, and a median of one sample
let a single slow run swing ``batch_speedup`` by a third.
Both ratios are recorded as ``inference_fastpath.*`` in
``BENCH_serving.json``, where the baseline diff gates them.
"""

import os

import numpy as np
import pytest

from repro.eval.reporting import paper_vs_measured
from repro.utils.timing import measure_latency

BATCH = 32
ROUNDS = int(os.environ.get("PERCIVAL_BENCH_ROUNDS", "30"))
#: fewest timed runs of a millisecond-scale side, whatever ``ROUNDS`` says
MIN_REPEATS = max(ROUNDS, 5)


@pytest.mark.bench_smoke
def test_inference_fastpath(
    benchmark, reference_classifier, report_table, bench_record
):
    classifier = reference_classifier
    network = classifier.network
    plan = classifier.inference_plan
    assert plan is not None, "PercivalNet must compile to a plan"

    rng = np.random.default_rng(0)
    size = classifier.config.input_size
    single = rng.standard_normal((1, 4, size, size)).astype(np.float32)
    batch = rng.standard_normal((BATCH, 4, size, size)).astype(np.float32)

    # numerical equivalence: fast-path probabilities match reference
    # (the tolerance tracks the storage precision in effect — fp32 is
    # 1e-5 as before, quantized storage widens to the gated bound)
    tolerance = classifier.fast_path_tolerance
    probs_ref = classifier.predict_proba_tensor(batch, fast_path=False)
    probs_fast = classifier.predict_proba_tensor(batch, fast_path=True)
    max_delta = float(np.abs(probs_ref - probs_fast).max())
    assert max_delta < tolerance

    # single-image latency: reference training graph vs compiled plan
    # (benchmark.pedantic records the fast path for the pytest-benchmark
    # table; the speedup assertion uses the same median-of-rounds
    # measurement for both sides)
    benchmark.pedantic(
        lambda: plan.run(single),
        rounds=MIN_REPEATS, iterations=1, warmup_rounds=3,
    )
    ref_single_ms = measure_latency(
        lambda: network.forward(single), repeats=MIN_REPEATS, warmup=3
    )
    fast_single_ms = measure_latency(
        lambda: plan.run(single), repeats=MIN_REPEATS, warmup=3
    )
    single_speedup = ref_single_ms / fast_single_ms

    # batched throughput: per-frame reference loop (the pre-fast-path
    # blocker hot path) vs one batched plan run
    def reference_loop() -> None:
        for index in range(BATCH):
            network.forward(batch[index:index + 1])

    ref_batch_ms = measure_latency(
        reference_loop, repeats=max(ROUNDS // 6, 3), warmup=1
    )
    fast_batch_ms = measure_latency(
        lambda: plan.run(batch), repeats=MIN_REPEATS, warmup=2
    )
    batch_speedup = ref_batch_ms / fast_batch_ms
    ref_throughput = BATCH / ref_batch_ms * 1000.0
    fast_throughput = BATCH / fast_batch_ms * 1000.0

    rows = [
        ("single-image reference (ms)", "-", ref_single_ms),
        ("single-image fast path (ms)", "-", fast_single_ms),
        ("single-image speedup (x)", ">= 2", single_speedup),
        ("batched reference (img/s)", "-", ref_throughput),
        ("batched fast path (img/s)", "-", fast_throughput),
        ("batched speedup (x)", ">= 4", batch_speedup),
        ("max |p_fast - p_ref|", f"< {tolerance:g}", max_delta),
    ]
    report_table(paper_vs_measured(
        "Compiled inference fast path (batch "
        f"{BATCH}, {ROUNDS} rounds)", rows,
    ))
    benchmark.extra_info["single_speedup"] = single_speedup
    benchmark.extra_info["batch_speedup"] = batch_speedup
    benchmark.extra_info["max_prob_delta"] = max_delta
    bench_record(
        "inference_fastpath",
        single_speedup=single_speedup,
        batch_speedup=batch_speedup,
    )

    assert single_speedup >= 2.0
    assert batch_speedup >= 4.0
