"""Figure 3 / §2.3: model size and inference-latency profile.

The paper's model engineering claims:

* the fork is < 2 MB — a 74x reduction versus Sentinel-class (YOLO)
  models and ~2.5x versus stock SqueezeNet,
* classification takes ~11 ms/image on their hardware,
* removing layers + extra down-sampling cuts time without a
  significant accuracy loss (vs the 97-99% of the big nets).

Measured here: parameter counts and serialized sizes of the PERCIVAL
fork vs full SqueezeNet, plus the wall-clock latency of one full-size
(224x224x4) frame on this machine, twice: through the compiled
inference plan every deployment path runs (the §2.3 row), and through
the layer-by-layer training graph in eval mode (a second, labelled
row).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.reporting import paper_vs_measured
from repro.models.percivalnet import PercivalNet
from repro.models.squeezenet import build_squeezenet
from repro.models.zoo import (
    SENTINEL_MODEL_BYTES,
    describe_model,
    model_size_bytes,
)
from repro.nn import compile_inference
from repro.utils.timing import measure_latency

#: one full-size frame, as the paper deploys the model
PAPER_INPUT_SHAPE = (4, 224, 224)

PAPER = {
    "percival_mb": 1.9,
    "squeezenet_mb": 4.8,
    "latency_ms": 11.0,
    "sentinel_reduction": 74.0,
}


@dataclass
class ModelProfileResult:
    percival_params: int
    percival_mb: float
    squeezenet_params: int
    squeezenet_mb: float
    sentinel_reduction: float
    #: b1 at 224 px through ``compile_inference(PercivalNet.paper())``
    full_size_latency_ms: float
    #: the same frame through ``PercivalNet.forward`` (training graph)
    layer_by_layer_latency_ms: float

    def to_table(self) -> str:
        rows = [
            ("PERCIVAL model (MB)", PAPER["percival_mb"], self.percival_mb),
            ("SqueezeNet-1000 (MB)", PAPER["squeezenet_mb"],
             self.squeezenet_mb),
            ("reduction vs Sentinel-class", PAPER["sentinel_reduction"],
             self.sentinel_reduction),
            ("latency @224x224x4, compiled plan b1 (ms)",
             PAPER["latency_ms"], self.full_size_latency_ms),
            ("latency @224x224x4, layer-by-layer forward (ms)", "-",
             self.layer_by_layer_latency_ms),
            ("PERCIVAL parameters", "-", self.percival_params),
        ]
        return paper_vs_measured(
            "Figure 3 / §2.3: model size and latency", rows
        )


def _paper_frame() -> np.ndarray:
    return np.random.default_rng(0).random(
        (1, *PAPER_INPUT_SHAPE)
    ).astype(np.float32)


def paper_plan_latency_ms(repeats: int = 3) -> float:
    """Median wall-clock latency (ms) of one 224x224x4 frame through
    the compiled plan of the paper-size network (seeded weights)."""
    network = PercivalNet.paper()
    network.eval()
    plan = compile_inference(network, input_shape=PAPER_INPUT_SHAPE)
    frame = _paper_frame()
    return measure_latency(lambda: plan.run(frame), repeats=repeats)


def run_model_profile_experiment(
    latency_repeats: int = 3,
) -> ModelProfileResult:
    """Profile the paper-size architectures (no training needed)."""
    percival = PercivalNet.paper()
    squeezenet = build_squeezenet(num_classes=1000, in_channels=3)

    percival_info = describe_model(percival, "percival")
    squeezenet_info = describe_model(squeezenet, "squeezenet_v1.1")

    percival.eval()
    frame = _paper_frame()
    layer_by_layer = measure_latency(
        lambda: percival.forward(frame), repeats=latency_repeats, warmup=1
    )

    return ModelProfileResult(
        percival_params=percival_info.num_parameters,
        percival_mb=percival_info.size_mb,
        squeezenet_params=squeezenet_info.num_parameters,
        squeezenet_mb=squeezenet_info.size_mb,
        sentinel_reduction=(
            SENTINEL_MODEL_BYTES / model_size_bytes(percival)
        ),
        full_size_latency_ms=paper_plan_latency_ms(latency_repeats),
        layer_by_layer_latency_ms=layer_by_layer,
    )
