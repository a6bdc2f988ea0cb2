"""Wall-clock benchmark of the PERCIVAL reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload feed-open --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json`` with no instrumentation.  ``--trace 1`` spends half
of ``--seconds`` on an untraced run and half on a traced one, and
reports the per-layer metrics plus the tracing overhead; its spans are
written to ``perfbench/out/``.  Either way every served verdict goes
through the correctness gate, a human-readable report goes to stdout,
and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The run pins what it measures before numpy loads: every ``PERCIVAL_*``
environment knob is cleared and BLAS runs one thread (forked pool
workers inherit both).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def pin_environment() -> None:
    for name in [name for name in os.environ if name.startswith("PERCIVAL_")]:
        del os.environ[name]
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def ensure_warm_model_cache() -> None:
    """Train the reference weights once, in a child process outside
    every timed region, when the model cache does not hold them."""
    from common import weights_path

    if os.path.exists(weights_path()):
        return
    print("model cache is cold: training the reference weights once, "
          "outside the timed region", file=sys.stderr)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path[:0] = sys.argv[1:3]; "
         "from common import load_classifier; load_classifier()",
         SRC, HERE],
        cwd=ROOT, stdout=sys.stderr, check=True, timeout=850,
    )
    print(f"trained in {time.perf_counter() - start:.1f}s; set-up now "
          "loads from the warm cache", file=sys.stderr)


def environment() -> dict:
    import platform

    import numpy as np

    from common import CONFIG

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "precision": CONFIG.precision,
    }


def _inside(tracer, index: int, name: str) -> bool:
    parent = tracer.parents[index]
    while parent >= 0:
        if tracer.names[parent] == name:
            return True
        parent = tracer.parents[parent]
    return False


def layer_metrics(tracer, outcome, overhead_pct: float) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    from common import percentile
    from spans import plan_ms_at, plan_profile

    extras = outcome.extras
    submitted = extras.get("serve.submitted", 0.0)

    def share(name: str) -> float:
        return extras.get(name, 0.0) / submitted if submitted else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    waits = tracer.samples["serve.queue_wait_ms"]
    sizes = tracer.samples["serve.batch_size"]
    counts = tracer.counts
    durations = tracer.durations()

    hook_ns = hook_frames = 0
    for index, name in enumerate(tracer.names):
        if name in ("blocker.decide_many", "blocker.classify_bitmap") and (
            _inside(tracer, index, "browser.render")
        ):
            hook_ns += durations[index]
            hook_frames += tracer.sizes[index]

    pool_calls = tracer.by_name("pool.predict_proba")
    pool_overhead = [
        durations[i] / 1e6 - plan_ms_at(tracer, tracer.sizes[i])
        for i in pool_calls
    ]
    metrics = {
        "serve.queue_wait_p50_ms": percentile(waits, 50.0),
        "serve.queue_wait_p99_ms": percentile(waits, 99.0),
        "serve.batch_size_mean": ratio(sum(sizes), len(sizes)),
        "serve.batches": float(len(sizes)),
        "serve.coalesced_frac": share("serve.coalesced"),
        "serve.shed_frac": share("serve.shed"),
        "diff.hit_frac": share("serve.diff_hits"),
        "diff.recall_us": tracer.mean_us("diff.recall"),
        "diff.remember_us": tracer.mean_us("diff.remember"),
        "cascade.rule_hit_frac": share("serve.rule_hits"),
        "cascade.route_us": tracer.mean_us("cascade.route"),
        "cascade.feedback_us": tracer.mean_us("cascade.feedback"),
        "blocker.fingerprint_us": tracer.mean_us("blocker.fingerprint"),
        "blocker.memo_probe_us": tracer.mean_us("blocker.memo_probe"),
        "blocker.memo_hit_frac": ratio(
            counts["memo.hits"], counts["memo.probes"]
        ),
        "blocker.decide_many_ms": tracer.mean_us("blocker.decide_many") / 1e3,
        "blocker.dedup_frac": ratio(
            counts["decide.duplicates"], counts["decide.frames"]
        ),
        "preprocess.us_per_frame": tracer.us_per_unit("preprocess"),
        **plan_profile(tracer),
        "pool.predict_proba_ms": tracer.mean_us("pool.predict_proba") / 1e3,
        "pool.overhead_ms": ratio(sum(pool_overhead), len(pool_overhead)),
        "pool.publish_s": extras.get("pool.publish_s", 0.0),
        "pool.fallbacks": extras.get("pool.fallbacks", 0.0),
        "pool.respawns": extras.get("pool.respawns", 0.0),
        "browser.parse_ms": tracer.mean_us("browser.parse") / 1e3,
        "browser.layout_ms": tracer.mean_us("browser.layout") / 1e3,
        "browser.decode_us_per_frame": tracer.mean_us("browser.decode"),
        "browser.raster_self_ms": (
            tracer.mean_us("browser.raster", self_time=True) / 1e3
        ),
        "browser.hook_us_per_frame": ratio(hook_ns / 1e3, hook_frames),
        "loadgen.lag_p99_ms": extras.get("loadgen.lag_p99_ms", 0.0),
        "trace.overhead_pct": overhead_pct,
    }
    return metrics


#: the end-to-end metric each workload's tracing overhead is read off:
#: a time per unit of work that the spans actually inflate
OVERHEAD_METRIC = {
    "feed-open": "overhead_ms_per_page",
    "render-pages": "latency_p50_ms",
    "bulk-sharded": "latency_p50_ms",
}


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<32} {value:>14.4f} {unit}")


def print_profile(layer: dict) -> None:
    """The plan profile and pool overhead next to the paper's §2.3."""
    from spans import OP_KINDS, PLAN_BUCKETS

    print("Inference profile (wall clock, in-process, this machine)")
    for bucket in PLAN_BUCKETS:
        value = layer[f"plan.us_per_frame.{bucket}"]
        print(f"  plan per frame, batch {bucket:<7} {value:10.1f} us")
    for kind in OP_KINDS:
        value = layer[f"plan.op.{kind}_us"]
        print(f"  op {kind:<12} self time per frame {value:10.1f} us")
    front = layer["blocker.fingerprint_us"] + layer["preprocess.us_per_frame"]
    for bucket in ("b1", "b33-64"):
        plan_us = layer[f"plan.us_per_frame.{bucket}"]
        if plan_us:
            print(f"  per image at batch {bucket}: fingerprint + preprocess"
                  f" + plan = {(front + plan_us) / 1e3:.3f} ms"
                  "   (paper §2.3: ~11 ms per image, 224 px model)")
    print(f"  pool call {layer['pool.predict_proba_ms']:.3f} ms, of which "
          f"{layer['pool.overhead_ms']:.3f} ms over the in-process plan;"
          f" publish {layer['pool.publish_s']:.4f} s")


def stop_child_processes() -> None:
    """End every process the run started and wait for each.

    Pool workers are joined by ``InferenceWorkerPool.close``; any an
    error path left alive are ended here.  The multiprocessing resource
    tracker, which the pool's first shared-memory segment starts, would
    otherwise outlive this process until it notices the exit, so it is
    stopped and reaped too (after the workers, which hold its pipe).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except ChildProcessError:
            pass


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    finally:
        stop_child_processes()


def run(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, SRC)
    spec = load_spec()
    ensure_warm_model_cache()

    import workloads
    from spans import Tracer, instrument

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workload.prepare(args.seed)
    workload.warm(inputs)
    env = environment()

    if not args.trace:
        outcome = workload.run(inputs, args.seconds, None)
        outcomes = [outcome]
        wanted = spec["end_to_end"]
        values = outcome.e2e
    else:
        half = args.seconds / 2.0
        baseline = workload.run(inputs, half, None)
        tracer = Tracer()
        instrument(tracer)
        try:
            traced = workload.run(inputs, half, tracer)
            if hasattr(workload, "calibrate"):
                workload.calibrate(inputs)
        finally:
            tracer.restore()
        outcomes = [baseline, traced]
        if baseline.blocked is not None and baseline.blocked != traced.blocked:
            traced.errors.append(
                "images blocked per page differ between traced and "
                "untraced runs"
            )
        key = OVERHEAD_METRIC[args.workload]
        overhead_pct = 100.0 * (traced.e2e[key] / baseline.e2e[key] - 1.0)
        values = layer_metrics(tracer, traced, overhead_pct)
        wanted = spec["per_layer"]
        out = os.path.join(HERE, "out")
        tracer.write(os.path.join(
            out, f"spans-{args.workload}-seed{args.seed}.jsonl"
        ))
        print_profile(values)

    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {
            "value": float(values[entry["name"]]), "unit": entry["unit"]
        }
    print_table(
        f"{args.workload} seed={args.seed} "
        f"{'per-layer (traced)' if args.trace else 'end-to-end (untraced)'}",
        [(name, item["value"], item["unit"]) for name, item in metrics.items()],
    )
    print("run ledger")
    for outcome in outcomes:
        for name, value in sorted(outcome.extras.items()):
            print(f"  {name:<32} {value:g}")
    print("env " + json.dumps(env, sort_keys=True))
    infinite = [
        name for name, item in metrics.items()
        if not math.isfinite(item["value"])
    ]
    if infinite:
        # a failed request counts as an infinite latency; once a
        # percentile lands on one the workload is overloaded, which no
        # number describes
        print(f"error: {', '.join(infinite)} infinite: too many requests "
              "failed", file=sys.stderr)
        return 1
    errors = [error for outcome in outcomes for error in outcome.errors]
    for error in errors:
        print(f"correctness gate: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
