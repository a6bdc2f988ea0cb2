"""§4.2 ablation: model compression trade-off.

The paper tried Inception-V4 / ResNet-class models (97-99% accurate but
prohibitively big/slow), settled on a pruned SqueezeNet, and removed
layers + added down-sampling to cut classification time.  This ablation
compares, at reproduction scale:

* the PERCIVAL fork (6 fire modules, extra pooling),
* a deeper/wider variant standing in for the "bigger is slower" end,
* a tiny linear baseline standing in for the "too small to be accurate"
  end,
* **real quantized variants** of the trained fork: the same weights
  repacked as fp16 and int8 weight artifacts (``repro.nn.artifact``)
  and run through artifact-compiled inference plans — storage shrinks,
  compute stays fp32, accuracy is measured, not simulated,

on size, latency and held-out accuracy — the three axes the paper's
design navigates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.data.corpus import CorpusConfig, build_training_corpus
from repro.eval.reporting import format_table
from repro.models.percivalnet import PercivalNet
from repro.models.zoo import (
    model_size_mb,
    pretrain_stem,
    transfer_stem_weights,
)
from repro.nn import (
    Flatten,
    Linear,
    Sequential,
    Trainer,
    TrainConfig,
    WeightArtifact,
    compile_inference,
)
from repro.utils.rng import spawn_rng
from repro.utils.timing import interleaved_samples_ms


@dataclass
class VariantResult:
    name: str
    size_mb: float
    latency_ms: float
    accuracy: float
    ood_accuracy: float  # on a language-shifted corpus (generalization)


@dataclass
class CompressionResult:
    variants: List[VariantResult]

    def to_table(self) -> str:
        rows = [
            (v.name, f"{v.size_mb:.3f}", f"{v.latency_ms:.2f}",
             f"{v.accuracy:.3f}", f"{v.ood_accuracy:.3f}")
            for v in self.variants
        ]
        return (
            "== §4.2 ablation: model compression ==\n"
            + format_table(("variant", "size (MB)", "latency (ms)",
                            "holdout acc", "shifted acc"), rows)
        )


def run_compression_ablation(
    train_size: int = 800,
    test_size: int = 400,
    epochs: int = 12,
    input_size: int = 32,
    seed: int = 55,
) -> CompressionResult:
    """Train each variant on the same corpus; compare the three axes.

    CNN variants follow the paper's recipe: stem features transferred
    from a pretrained donor (§4.3), then fine-tuned end to end.
    """
    train = build_training_corpus(CorpusConfig(
        seed=seed, num_ads=train_size // 2, num_nonads=train_size // 2,
        input_size=input_size,
    ))
    test = build_training_corpus(CorpusConfig(
        seed=seed + 1, num_ads=test_size // 2, num_nonads=test_size // 2,
        input_size=input_size,
    ))
    # out-of-distribution probe: a non-English corpus (the paper's §5.5
    # generalization axis) — convolutional features transfer, a linear
    # model's global-statistics shortcut does not.
    from repro.synth.languages import Language
    shifted = build_training_corpus(CorpusConfig(
        seed=seed + 2, num_ads=test_size // 2,
        num_nonads=test_size // 2, input_size=input_size,
        language=Language.ARABIC,
    ))

    variants: List[VariantResult] = []
    #: one single-image runner per variant row, timed together at the end
    runners: List[Callable[[], object]] = []
    rng = spawn_rng(seed, "ablate")
    probe = train.images[:1]

    candidates = [
        ("percival (paper fork)",
         PercivalNet.small(seed=seed, width=0.25)),
        ("wider fork (0.5x width)",
         PercivalNet.small(seed=seed, width=0.5)),
        ("linear baseline",
         Sequential([
             Flatten(),
             Linear(4 * input_size * input_size, 2, rng=rng),
         ], name="linear")),
    ]
    for name, network in candidates:
        if isinstance(network, PercivalNet):
            donor = PercivalNet.small(
                seed=seed + 1, width=network.width
            )
            pretrain_stem(donor, seed=seed)
            transfer_stem_weights(donor, network, num_blocks=5)
        trainer = Trainer(network, TrainConfig(
            epochs=epochs, lr=0.01, seed=seed,
        ))
        trainer.fit(train.images, train.labels)
        accuracy = trainer.evaluate(test.images, test.labels)
        ood_accuracy = trainer.evaluate(shifted.images, shifted.labels)
        network.eval()
        variants.append(VariantResult(
            name=name,
            size_mb=model_size_mb(network),
            latency_ms=0.0,  # timed below, with every other variant
            accuracy=accuracy,
            ood_accuracy=ood_accuracy,
        ))
        runners.append(_deploy_runner(network, probe))
        if name == "percival (paper fork)":
            # real quantized variants of the trained fork: same
            # weights, fp16/int8 storage artifacts, artifact-compiled
            # plans — the ROADMAP's "quantized weights for the
            # inference plan" measured on the ablation's own axes.
            for variant, runner in _quantized_variants(
                network, test, shifted, probe
            ):
                variants.append(variant)
                runners.append(runner)
    samples = interleaved_samples_ms(runners, LATENCY_ROUNDS)
    for variant, times in zip(variants, samples):
        variant.latency_ms = float(np.median(times))
    return CompressionResult(variants)


def _deploy_runner(network, probe: np.ndarray) -> Callable[[], object]:
    """One single-image classification through the deployed engine.

    Every variant row — baseline and quantized alike — is timed through
    the compiled inference plan (what the blocker actually runs), so
    the table's latency column compares like with like; layer-by-layer
    forward is the fallback only for networks the compiler cannot
    lower.
    """
    from repro.nn import UnsupportedLayerError

    try:
        plan = compile_inference(network)
    except UnsupportedLayerError:
        return lambda: network.forward(probe)
    return lambda: plan.run(probe)


#: timing rounds per variant; sub-millisecond forwards need many
#: samples before their medians order reliably
LATENCY_ROUNDS = 51


def _plan_accuracy(plan, images: np.ndarray, labels: np.ndarray,
                   batch_size: int = 64) -> float:
    """Accuracy of an artifact-compiled plan on a labelled set
    (mirrors ``Trainer.evaluate``: argmax over logits)."""
    correct = 0
    for start in range(0, images.shape[0], batch_size):
        logits = plan.run(images[start:start + batch_size])
        predictions = logits.argmax(axis=1)
        correct += int((predictions == labels[start:start + batch_size]).sum())
    return correct / max(len(labels), 1)


def _quantized_variants(
    network, test, shifted, probe
) -> List[Tuple[VariantResult, Callable[[], object]]]:
    """(row, single-image runner) per quantized storage precision; the
    caller fills in each row's latency."""
    results = []
    for precision in ("fp16", "int8"):
        artifact = WeightArtifact.from_network(network, precision)
        plan = compile_inference(network, artifact=artifact)
        results.append((VariantResult(
            name=f"percival fork @ {precision}",
            size_mb=artifact.nbytes / 2**20,
            latency_ms=0.0,
            accuracy=_plan_accuracy(plan, test.images, test.labels),
            ood_accuracy=_plan_accuracy(
                plan, shifted.images, shifted.labels
            ),
        ), lambda p=plan: p.run(probe)))
    return results
