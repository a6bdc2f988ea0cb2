"""Quantized inference plans: size, verdict fidelity, throughput.

Not a paper figure — this regenerates the precision pipeline's own
claims on the trained reference model:

* the int8 weight artifact packs a >= 3x smaller buffer than fp32
  (it is ~3.8x: int8 weights + fp32 biases + per-channel scales),
* the quantized plan's verdicts match the fp32 fast path on the
  calibration set — max P(ad) drift <= the calibration gate's 1e-2
  bound and identical block decisions,
* batched quantized throughput is no slower than the fp32 fast path
  (both run the same fp32 GEMMs; only storage differs), timed in
  interleaved rounds and compared round by round, so host drift lands
  on both plans alike,
* ``PERCIVAL_PRECISION=fp32`` reproduces the PR 1 compiled fast path
  and the PR 2 sharded path bit for bit (1e-7 equivalence).

Marked ``bench_smoke`` so ``scripts/bench_smoke.sh`` runs it in
seconds; ``PERCIVAL_BENCH_ROUNDS`` trims the timing repeats.  Both
ratios are recorded as ``quantized_plans.*`` in ``BENCH_serving.json``
(trend-reported by the baseline diff, which gates only ``speedup``
names).
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core import AdClassifier, InferenceWorkerPool
from repro.eval.reporting import paper_vs_measured
from repro.utils.timing import interleaved_samples_ms

BATCH = 32
ROUNDS = int(os.environ.get("PERCIVAL_BENCH_ROUNDS", "30"))


def _pinned(reference_classifier, precision):
    """The reference classifier's trained weights at a fixed storage
    precision (shared network, private artifact/plan)."""
    return AdClassifier(
        replace(reference_classifier.config, precision=precision),
        network=reference_classifier.network,
    )


@pytest.mark.bench_smoke
def test_quantized_plans(
    benchmark, reference_classifier, report_table, bench_record
):
    fp32 = _pinned(reference_classifier, "fp32")
    int8 = _pinned(reference_classifier, "int8")
    assert int8.effective_precision == "int8", (
        "the calibration gate must accept int8 on the trained model"
    )

    # --- artifact size: int8 packs >= 3x smaller ----------------------
    fp32_bytes = fp32.weight_artifact().nbytes
    int8_bytes = int8.weight_artifact().nbytes
    size_ratio = fp32_bytes / int8_bytes
    assert size_ratio >= 3.0

    # --- verdict fidelity on the calibration set ----------------------
    calibration = int8.calibration_batch()
    probs_fp32 = fp32.predict_proba_tensor(calibration)
    probs_int8 = int8.predict_proba_tensor(calibration)
    drift = float(np.abs(probs_fp32 - probs_int8).max())
    threshold = int8.config.ad_threshold
    flips = int(
        ((probs_fp32 >= threshold) != (probs_int8 >= threshold)).sum()
    )
    assert drift <= 1e-2
    assert flips == 0

    # --- batched throughput: quantized no slower than fp32 ------------
    rng = np.random.default_rng(0)
    size = fp32.config.input_size
    batch = rng.standard_normal((BATCH, 4, size, size)).astype(np.float32)
    fp32_plan = fp32.inference_plan
    int8_plan = int8.inference_plan
    assert fp32_plan is not None and int8_plan is not None
    rounds = max(ROUNDS, 5)
    benchmark.pedantic(
        lambda: int8_plan.run(batch),
        rounds=rounds, iterations=1, warmup_rounds=3,
    )
    # each round times both plans back to back; the median of the
    # per-round ratios holds up when the host's speed jumps between
    # stretches, where two separately reduced timings can each catch a
    # different stretch
    fp32_times, int8_times = interleaved_samples_ms(
        [lambda: fp32_plan.run(batch), lambda: int8_plan.run(batch)],
        rounds,
    )
    fp32_throughput = BATCH / np.median(fp32_times) * 1000.0
    int8_throughput = BATCH / np.median(int8_times) * 1000.0
    throughput_ratio = float(
        np.median(np.divide(fp32_times, int8_times))
    )
    # both plans run identical fp32 kernels over identical shapes; the
    # 0.9 floor absorbs timer noise only
    assert throughput_ratio >= 0.9

    rows = [
        ("fp32 artifact (bytes)", "-", fp32_bytes),
        ("int8 artifact (bytes)", "-", int8_bytes),
        ("size ratio (x)", ">= 3", size_ratio),
        ("max calib |p_int8 - p_fp32|", "<= 1e-2", drift),
        ("calib verdict flips", "0", flips),
        ("fp32 plan (img/s)", "-", fp32_throughput),
        ("int8 plan (img/s)", "-", int8_throughput),
        ("int8/fp32 throughput (x, per round)", ">= 0.9", throughput_ratio),
    ]
    report_table(paper_vs_measured(
        f"Quantized plans (batch {BATCH}, {rounds} rounds)", rows,
    ))
    benchmark.extra_info["size_ratio"] = size_ratio
    benchmark.extra_info["calibration_drift"] = drift
    benchmark.extra_info["throughput_ratio"] = throughput_ratio
    bench_record(
        "quantized_plans",
        throughput_ratio=throughput_ratio,
        size_ratio=size_ratio,
    )


@pytest.mark.bench_smoke
def test_fp32_precision_reproduces_prior_paths(
    reference_classifier, report_table
):
    """PERCIVAL_PRECISION=fp32 must walk exactly the PR 1/PR 2 code
    paths: the compiled fast path and the sharded worker path both
    agree with a precision-pinned fp32 classifier to 1e-7."""
    fp32 = _pinned(reference_classifier, "fp32")
    rng = np.random.default_rng(1)
    size = fp32.config.input_size
    batch = rng.standard_normal((BATCH, 4, size, size)).astype(np.float32)

    # PR 1 path: the live-view compiled plan (no artifact involved)
    from repro.nn import softmax
    from repro.nn.inference import compile_inference

    plan = compile_inference(fp32.network)
    pr1_probs = softmax(plan.run(batch), axis=1)[:, 1]
    fp32_probs = fp32.predict_proba_tensor(batch)
    pr1_delta = float(np.abs(fp32_probs - pr1_probs).max())
    assert pr1_delta < 1e-7

    # PR 2 path: shared-memory publication + worker-compiled plans
    with InferenceWorkerPool(num_workers=2) as pool:
        pool.publish(fp32)
        sharded = pool.predict_proba(batch)
    pr2_delta = float(np.abs(fp32_probs - sharded).max())
    assert pr2_delta < 1e-7

    rows = [
        ("max |p - p_pr1_plan|", "< 1e-7", pr1_delta),
        ("max |p - p_pr2_sharded|", "< 1e-7", pr2_delta),
    ]
    report_table(paper_vs_measured(
        "fp32 precision: bit-for-bit prior-path equivalence", rows,
    ))
