"""The compiled inference fast path: kernels, plan compiler, dtypes.

Property-style equivalence: every fast-path kernel must match its
reference training-path kernel within 1e-5 across randomized geometries
(kernel in {1, 3}, stride in {1, 2}, pad in {0, 1}, odd spatial sizes).
"""

import itertools

import numpy as np
import pytest

from repro.models.percivalnet import PercivalNet
from repro.nn import (
    Conv2d,
    Dropout,
    FireModule,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Layer,
    Linear,
    ReLU,
    Sequential,
    UnsupportedLayerError,
    WeightArtifact,
    compile_inference,
)
from repro.nn import functional as F
from repro.nn.inference import ScratchCache
from repro.utils.rng import spawn_rng

#: kernel, stride, pad, (H, W) — odd sizes included on purpose.
CONV_GEOMETRIES = [
    (kernel, stride, pad, size)
    for kernel, stride, pad in itertools.product((1, 3), (1, 2), (0, 1))
    for size in ((7, 9), (8, 8), (11, 5))
    if size[0] + 2 * pad >= kernel and size[1] + 2 * pad >= kernel
]

POOL_GEOMETRIES = [
    (kernel, stride, size)
    for kernel, stride in ((2, 2), (3, 2), (2, 1), (3, 3))
    for size in ((7, 9), (8, 8), (9, 11))
]


class TestConvKernelEquivalence:
    @pytest.mark.parametrize("kernel,stride,pad,size", CONV_GEOMETRIES)
    def test_conv2d_infer_matches_reference(self, kernel, stride, pad,
                                            size, rng):
        x = rng.standard_normal((2, 3, *size)).astype(np.float32)
        weight = rng.standard_normal((5, 3, kernel, kernel)).astype(
            np.float32
        )
        bias = rng.standard_normal(5).astype(np.float32)
        reference, _ = F.conv2d_forward(x, weight, bias, stride, pad)
        fast = F.conv2d_infer(x, weight, bias, stride, pad)
        assert fast.shape == reference.shape
        assert np.abs(reference - fast).max() < 1e-5

    @pytest.mark.parametrize("kernel,stride,pad,size", CONV_GEOMETRIES)
    def test_fused_relu_matches_separate(self, kernel, stride, pad,
                                         size, rng):
        x = rng.standard_normal((2, 3, *size)).astype(np.float32)
        weight = rng.standard_normal((4, 3, kernel, kernel)).astype(
            np.float32
        )
        bias = rng.standard_normal(4).astype(np.float32)
        reference, _ = F.conv2d_forward(x, weight, bias, stride, pad)
        fused = F.conv2d_infer(x, weight, bias, stride, pad, relu=True)
        assert np.abs(np.maximum(reference, 0.0) - fused).max() < 1e-5

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 0), (1, 1)])
    def test_conv1x1_shortcut_matches_reference(self, stride, pad, rng):
        x = rng.standard_normal((3, 6, 9, 7)).astype(np.float32)
        weight = rng.standard_normal((4, 6, 1, 1)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        reference, _ = F.conv2d_forward(x, weight, bias, stride, pad)
        fast = F.conv1x1_infer(x, weight, bias, stride, pad)
        assert np.abs(reference - fast).max() < 1e-5

    def test_scratch_buffer_reused(self, rng):
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        weight = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        bias = np.zeros(5, dtype=np.float32)
        scratch = np.empty(
            F.conv2d_scratch_shape(x.shape, weight.shape, 1, 1),
            dtype=np.float32,
        )
        out = F.conv2d_infer(x, weight, bias, 1, 1, out=scratch)
        assert np.shares_memory(out, scratch)
        reference, _ = F.conv2d_forward(x, weight, bias, 1, 1)
        assert np.abs(reference - out).max() < 1e-5


class TestIm2ColStrided:
    @pytest.mark.parametrize("kernel,stride,pad,size", CONV_GEOMETRIES)
    def test_matches_loop_im2col(self, kernel, stride, pad, size, rng):
        x = rng.standard_normal((2, 3, *size)).astype(np.float32)
        assert np.array_equal(
            F.im2col(x, kernel, kernel, stride, pad),
            F.im2col_strided(x, kernel, kernel, stride, pad),
        )

    def test_sliding_windows_is_zero_copy(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        windows = F.sliding_windows(x, 3, 3, 1, 0)
        assert np.shares_memory(windows, x)
        assert not windows.flags.writeable


class TestPoolKernelEquivalence:
    @pytest.mark.parametrize("kernel,stride,size", POOL_GEOMETRIES)
    def test_maxpool_matches_reference(self, kernel, stride, size, rng):
        x = rng.standard_normal((2, 4, *size)).astype(np.float32)
        reference, _ = F.maxpool2d_forward(x, kernel, stride)
        assert np.array_equal(
            reference, F.maxpool2d_infer(x, kernel, stride)
        )

    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("size", [(7, 9), (9, 11), (15, 13)])
    def test_separable_maxpool_bitwise_equals_window_tiles(
        self, kernel, stride, size, rng
    ):
        """The row-then-column max equals the max over every window
        offset's tile, bit for bit (max is exact)."""
        x = rng.standard_normal((2, 4, *size)).astype(np.float32)
        tiles = [
            np.ascontiguousarray(tile)
            for tile in F._window_tiles(x, kernel, stride)
        ]
        reference = np.maximum.reduce(tiles)
        fast = F.maxpool2d_infer(x, kernel, stride)
        assert fast.flags.c_contiguous
        assert fast.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("kernel,stride,size", POOL_GEOMETRIES)
    def test_avgpool_matches_reference(self, kernel, stride, size, rng):
        x = rng.standard_normal((2, 4, *size)).astype(np.float32)
        reference = F.avgpool2d_forward(x, kernel, stride)
        fast = F.avgpool2d_infer(x, kernel, stride)
        assert np.abs(reference - fast).max() < 1e-5


class TestPlanCompiler:
    def test_percivalnet_compiles_and_matches(self, rng):
        network = PercivalNet.small()
        network.eval()
        plan = compile_inference(network)
        x = rng.standard_normal((3, 4, 32, 32)).astype(np.float32)
        assert np.abs(network.forward(x) - plan.run(x)).max() < 1e-5

    def test_dropout_and_identity_elided(self):
        network = Sequential([
            Conv2d(2, 3, kernel_size=1, name="c"),
            Identity(),
            Dropout(0.5),
            ReLU(),
            GlobalAvgPool2d(),
        ])
        plan = compile_inference(network)
        # conv+relu fuse across the elided layers is not attempted —
        # but dropout/identity must not appear as ops
        description = plan.describe()
        assert "Dropout" not in description
        assert "Identity" not in description

    def test_conv_relu_fusion(self):
        network = Sequential([
            Conv2d(2, 3, kernel_size=3, padding=1, name="c"),
            ReLU(),
            GlobalAvgPool2d(),
        ])
        plan = compile_inference(network)
        assert len(plan) == 2
        assert "+relu" in plan.ops[0].describe()

    def test_linear_network_compiles(self, rng):
        network = Sequential([
            Flatten(),
            Linear(12, 8, name="l1"),
            ReLU(),
            Linear(8, 2, name="l2"),
        ])
        network.eval()
        plan = compile_inference(network)
        x = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
        assert np.abs(network.forward(x) - plan.run(x)).max() < 1e-5

    def test_unsupported_layer_raises(self):
        class Exotic(Layer):
            def forward(self, x):
                return x

        with pytest.raises(UnsupportedLayerError):
            compile_inference(Sequential([Exotic()]))

    def test_repeated_runs_are_deterministic(self, rng):
        network = PercivalNet.small()
        network.eval()
        plan = compile_inference(network)
        x = rng.standard_normal((2, 4, 32, 32)).astype(np.float32)
        first = plan.run(x).copy()
        plan.run(rng.standard_normal((5, 4, 32, 32)).astype(np.float32))
        assert np.array_equal(first, plan.run(x))

    def test_run_does_not_mutate_input(self, rng):
        network = Sequential([ReLU(), GlobalAvgPool2d()])
        network.eval()
        plan = compile_inference(network)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        snapshot = x.copy()
        plan.run(x)
        assert np.array_equal(x, snapshot)

    def test_output_does_not_alias_scratch(self, rng):
        # a plan ending in a conv must copy its result out of scratch
        network = Sequential([Conv2d(2, 3, kernel_size=1, name="c")])
        network.eval()
        plan = compile_inference(network)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        first = plan.run(x)
        snapshot = first.copy()
        plan.run(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        assert np.array_equal(first, snapshot)

    def test_weight_updates_flow_through_views(self, rng):
        network = Sequential([Conv2d(2, 3, kernel_size=1, name="c"),
                              GlobalAvgPool2d()])
        network.eval()
        plan = compile_inference(network)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        before = plan.run(x).copy()
        network.layers[0].weight.data += 1.0  # in-place, like SGD
        after = plan.run(x)
        assert not np.array_equal(before, after)
        assert np.abs(network.forward(x) - after).max() < 1e-5


class TestScratchCache:
    """Regression: buffers must be keyed on dtype as well as shape —
    a plan recompiled at another precision must never be handed a
    stale-dtype scratch buffer."""

    def test_dtype_is_part_of_the_key(self):
        cache = ScratchCache()
        shape_fn = lambda key: key  # noqa: E731
        f32 = cache.take((2, 3), shape_fn, np.float32)
        f64 = cache.take((2, 3), shape_fn, np.float64)
        assert f32.dtype == np.float32
        assert f64.dtype == np.float64
        assert f32 is not f64
        # same shape+dtype still reuses the buffer
        assert cache.take((2, 3), shape_fn, np.float32) is f32

    def test_lru_capacity_counts_dtype_variants(self):
        cache = ScratchCache(capacity=2)
        shape_fn = lambda key: key  # noqa: E731
        first = cache.take((4,), shape_fn, np.float32)
        cache.take((4,), shape_fn, np.float64)
        cache.take((5,), shape_fn, np.float32)  # evicts the oldest
        assert cache.take((4,), shape_fn, np.float32) is not first


class TestArtifactCompilation:
    """compile_inference(network, artifact=...) computes over the
    artifact's dequantized weights instead of the live parameters."""

    def test_fp32_artifact_matches_live_plan(self, rng):
        network = PercivalNet.small()
        network.eval()
        artifact = WeightArtifact.from_network(network, "fp32")
        live = compile_inference(network)
        packed = compile_inference(network, artifact=artifact)
        x = rng.standard_normal((2, 4, 32, 32)).astype(np.float32)
        assert np.array_equal(live.run(x), packed.run(x))

    def test_quantized_plan_close_to_reference(self, rng):
        network = PercivalNet.small()
        network.eval()
        x = rng.standard_normal((2, 4, 32, 32)).astype(np.float32)
        reference = compile_inference(network).run(x)
        for precision, tolerance in (("fp16", 1e-2), ("int8", 0.5)):
            artifact = WeightArtifact.from_network(network, precision)
            quantized = compile_inference(network, artifact=artifact)
            assert quantized.run(x).dtype == np.float32
            assert np.abs(quantized.run(x) - reference).max() < tolerance

    def test_artifact_plan_is_a_snapshot(self, rng):
        # in-place parameter updates must NOT flow into an
        # artifact-compiled plan (it dequantized at compile time)
        network = Sequential([Conv2d(2, 3, kernel_size=1, name="c"),
                              GlobalAvgPool2d()])
        network.eval()
        artifact = WeightArtifact.from_network(network, "fp32")
        plan = compile_inference(network, artifact=artifact)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        before = plan.run(x).copy()
        network.layers[0].weight.data += 1.0
        assert np.array_equal(before, plan.run(x))

    def test_mismatched_artifact_rejected(self):
        network = Sequential([Conv2d(2, 3, kernel_size=1, name="c"),
                              GlobalAvgPool2d()])
        other = Sequential([Conv2d(2, 5, kernel_size=1, name="c"),
                            GlobalAvgPool2d()])
        artifact = WeightArtifact.from_network(other, "fp32")
        with pytest.raises(ValueError):
            compile_inference(network, artifact=artifact)


class TestModePropagation:
    """train()/eval() must reach flag-sensitive layers inside composites."""

    def test_eval_reaches_fire_internals(self):
        network = PercivalNet.small()
        network.eval()
        fires = [layer for layer in network.layers
                 if isinstance(layer, FireModule)]
        assert fires
        for fire in fires:
            assert not fire.training
            assert not fire.squeeze_relu.training
            assert not fire.expand_relu.training
        network.train()
        for fire in fires:
            assert fire.squeeze_relu.training
            assert fire.expand_relu.training


class TestDtypeStability:
    """Eval-mode forward must stay float32 end to end on both paths."""

    def test_both_paths_stay_float32(self, rng):
        network = PercivalNet.small()
        network.eval()
        plan = compile_inference(network)
        x = rng.standard_normal((2, 4, 32, 32)).astype(np.float32)
        assert network.forward(x).dtype == np.float32
        assert plan.run(x).dtype == np.float32

    def test_intermediate_layers_stay_float32(self, rng):
        network = PercivalNet.small()
        network.eval()
        network.capture(range(len(network)))
        network.forward(
            rng.standard_normal((1, 4, 32, 32)).astype(np.float32)
        )
        for index in range(len(network)):
            captured = network.captured(index)
            assert captured.dtype == np.float32, f"layer {index} upcast"
        network.capture([])

    def test_empty_batch(self, rng):
        network = PercivalNet.small()
        network.eval()
        plan = compile_inference(network)
        out = plan.run(np.empty((0, 4, 32, 32), dtype=np.float32))
        assert out.shape == (0, 2)
        assert out.dtype == np.float32

    def test_fire_module_infer_matches(self, rng):
        fire = FireModule(6, 3, 8, rng=spawn_rng(0, "fire"))
        fire.training = False
        network = Sequential([fire])
        plan = compile_inference(network)
        x = rng.standard_normal((2, 6, 9, 9)).astype(np.float32)
        reference = network.forward(x)
        fast = plan.run(x)
        assert fast.dtype == np.float32
        assert np.abs(reference - fast).max() < 1e-5
