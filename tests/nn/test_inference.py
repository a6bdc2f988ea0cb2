"""The compiled inference fast path: kernels, plan compiler, dtypes.

Property-style equivalence: every fast-path kernel must match its
reference training-path kernel within 1e-5 across randomized geometries
(kernel in {1, 3}, stride in {1, 2}, pad in {0, 1}, odd spatial sizes).
"""

import itertools

import numpy as np
import pytest

from repro.models.percivalnet import LABEL_AD, PercivalNet
from repro.nn import (
    Conv2d,
    Dropout,
    FireModule,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    UnsupportedLayerError,
    WeightArtifact,
    compile_inference,
)
from repro.nn import functional as F
from repro.nn.inference import ConvOp
from repro.nn.loss import softmax
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


def _run_conv_op(layer, x, relu=False, resolve=None):
    """``x`` through the plan's own convolution op for ``layer``: the
    ``gemm_columns`` operand, one GEMM, then bias (and ReLU) in place."""
    op = ConvOp(layer, relu, resolve=resolve)
    op.bind(x.shape[1:])
    return op.run(x)


def _plan_conv(x, weight, bias, stride, pad, relu=False):
    out_channels, in_channels, kernel, _ = weight.shape
    layer = Conv2d(in_channels, out_channels, kernel, stride, pad)
    layer.weight.data, layer.bias.data = weight, bias
    return _run_conv_op(layer, x, relu)


class TestConvKernelEquivalence:
    @pytest.mark.parametrize("kernel,stride,pad,size", CONV_GEOMETRIES)
    def test_conv_op_matches_reference(self, kernel, stride, pad, size,
                                       rng):
        x = rng.standard_normal((2, 3, *size)).astype(np.float32)
        weight = rng.standard_normal((5, 3, kernel, kernel)).astype(
            np.float32
        )
        bias = rng.standard_normal(5).astype(np.float32)
        reference, _ = F.conv2d_forward(x, weight, bias, stride, pad)
        fast = _plan_conv(x, weight, bias, stride, pad)
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
        fused = _plan_conv(x, weight, bias, stride, pad, relu=True)
        assert np.abs(np.maximum(reference, 0.0) - fused).max() < 1e-5

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 0), (1, 1)])
    def test_conv1x1_shortcut_matches_reference(self, stride, pad, rng):
        x = rng.standard_normal((3, 6, 9, 7)).astype(np.float32)
        weight = rng.standard_normal((4, 6, 1, 1)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        reference, _ = F.conv2d_forward(x, weight, bias, stride, pad)
        fast = _plan_conv(x, weight, bias, stride, pad)
        assert np.abs(reference - fast).max() < 1e-5


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

    def test_output_survives_the_next_run(self, rng):
        # every op allocates its output: a later run never overwrites
        # an array an earlier run returned
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


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


SMALL_SHAPE = (4, 32, 32)
PAPER_SHAPE = (4, 224, 224)


def _percivalnet_with_biases(rng, network=None):
    """A PercivalNet (the reduced one by default) with nonzero biases
    (they initialize to zero, which would hide a bias applied in the
    wrong place)."""
    network = network or PercivalNet.small()
    network.eval()
    for param in network.parameters():
        if param.name.endswith(".bias"):
            param.data[:] = rng.standard_normal(param.data.shape) * 0.1
    return network


def _precision_plans(network, input_shape=None):
    """(precision, resolve, plan) at every storage precision; ``resolve``
    maps a Parameter to the array the plan computes with."""
    for precision in ("fp32", "fp16", "int8"):
        if precision == "fp32":
            yield precision, (lambda param: param.data), compile_inference(
                network, input_shape=input_shape
            )
        else:
            artifact = WeightArtifact.from_network(network, precision)
            yield precision, artifact.bind(network), compile_inference(
                network, artifact=artifact, input_shape=input_shape
            )


def _whole_batch(plan, x):
    """Every op over the whole batch at once: the plan without its
    chunk loop."""
    for op in plan.ops:
        x = op.run(x)
    return x


def _unfused(network, resolve, x):
    """Op-by-op oracle in layer order: each convolution through its own
    pool-less, ReLU-less ``ConvOp``, every ReLU and max-pool a separate
    step (so every bias and ReLU precedes the pool after it), each Fire
    module's expand halves concatenated, GAP through ``np.mean``."""

    def conv(layer, x):
        return _run_conv_op(layer, x, resolve=resolve)

    for layer in network.layers:
        if isinstance(layer, Conv2d):
            x = conv(layer, x)
        elif isinstance(layer, ReLU):
            x = np.maximum(x, 0.0)
        elif isinstance(layer, MaxPool2d):
            x = F.maxpool2d_infer(x, layer.kernel_size, layer.stride)
        elif isinstance(layer, FireModule):
            squeezed = np.maximum(conv(layer.squeeze, x), 0.0)
            x = np.maximum(np.concatenate(
                [conv(layer.expand1x1, squeezed),
                 conv(layer.expand3x3, squeezed)], axis=1,
            ), 0.0)
        elif isinstance(layer, GlobalAvgPool2d):
            x = x.mean(axis=(2, 3), dtype=x.dtype)
        else:
            raise AssertionError(f"oracle cannot run {layer!r}")
    return x


def _edge_batch(rng, count, channels=4, size=32):
    """Random frames plus the values the pool-before-bias reorder must
    survive: an all -0.0 frame, tied window maxima, +-0 mixes and NaN."""
    x = rng.standard_normal((count, channels, size, size)).astype(
        np.float32
    )
    x[1] = -0.0
    x[2, :, 1::2] = x[2, :, :-1:2]          # every vertical pair tied
    x[3, :, :, 1::2] = x[3, :, :, :-1:2]    # every horizontal pair tied
    x[4, :, ::2, ::2] = -0.0
    x[4, :, 1::2, 1::2] = 0.0
    x[5, 0, 3, 3] = np.nan
    return x


class TestBatchInvariance:
    """The serving gates compare verdicts bitwise against a reference
    scored in 64-frame chunks, so row i of a plan's logits must not
    depend on the batch it ran in."""

    def test_rows_equal_alone_in_odd_batches_and_chunks(self, rng):
        network = _percivalnet_with_biases(rng)
        frames = 67
        x = rng.standard_normal((frames, 4, 32, 32)).astype(np.float32)
        for precision, _, plan in _precision_plans(network):
            alone = [_bits(plan.run(x[i:i + 1])) for i in range(frames)]
            for chunk in (1, 2, 3, 5, 8, 16, 64, frames):
                rows = np.concatenate([
                    plan.run(x[start:start + chunk])
                    for start in range(0, frames, chunk)
                ])
                assert [_bits(row) for row in rows] == alone, (
                    precision, chunk,
                )

    def test_chunk_boundary_batches(self, rng):
        network = _percivalnet_with_biases(rng)
        for precision, _, plan in _precision_plans(network, SMALL_SHAPE):
            chunk = plan.chunk
            assert 1 < chunk < 64
            x = rng.standard_normal((chunk + 1, *SMALL_SHAPE)).astype(
                np.float32
            )
            alone = [_bits(plan.run(x[i:i + 1])) for i in range(chunk + 1)]
            for batch in (0, chunk - 1, chunk, chunk + 1):
                out = plan.run(x[:batch])
                assert out.shape == (batch, 2)
                assert [_bits(row) for row in out] == alone[:batch], (
                    precision, batch,
                )
                assert [
                    _bits(row) for row in _whole_batch(plan, x[:batch])
                ] == alone[:batch], (precision, batch)

    def test_paper_scale_rows_equal_alone_chunked_and_whole(self, rng):
        network = _percivalnet_with_biases(rng, PercivalNet.paper())
        x = rng.standard_normal((8, *PAPER_SHAPE)).astype(np.float32)
        for precision, _, plan in _precision_plans(network, PAPER_SHAPE):
            alone = [_bits(plan.run(x[i:i + 1])) for i in range(8)]
            for batch in (1, 3, 8):
                chunked = plan.run(x[:batch])
                whole = _whole_batch(plan, x[:batch])
                assert [_bits(row) for row in chunked] == alone[:batch], (
                    precision, batch,
                )
                assert [_bits(row) for row in whole] == alone[:batch], (
                    precision, batch,
                )


class TestChunkSizing:
    """``plan.chunk`` comes from the plan's own geometry: the byte
    budget over the largest per-image working set of any op."""

    def test_chunk_shrinks_with_the_working_set(self):
        small = compile_inference(PercivalNet.small(), input_shape=SMALL_SHAPE)
        paper = compile_inference(PercivalNet.paper(), input_shape=PAPER_SHAPE)
        assert paper.chunk == 1  # one 224 px frame's conv1 exceeds it
        assert 8 < small.chunk < 64

    def test_binds_on_first_run_and_rebinds_on_a_new_shape(self, rng):
        network = PercivalNet.small()
        network.eval()
        plan = compile_inference(network)
        assert plan.chunk is None and plan.input_shape is None
        plan.run(rng.standard_normal((2, *SMALL_SHAPE)).astype(np.float32))
        assert plan.input_shape == SMALL_SHAPE
        chunk = plan.chunk
        x = rng.standard_normal((3, 4, 16, 16)).astype(np.float32)
        assert np.abs(network.forward(x) - plan.run(x)).max() < 1e-5
        assert plan.input_shape == (4, 16, 16)
        assert plan.chunk > chunk


class TestPaperScaleGolden:
    """The 224 px plan against pinned logits: seeded weights (every
    bias seeded too, and the ad logit shifted so the batch splits across
    the threshold) and a seeded batch.  A reference for chunking and
    kernel work at paper scale that does not move with them; the
    tolerance covers BLAS builds that round differently."""

    LOGITS = np.array([
        [0.99774593, 5.0057492],
        [2.8003163, 4.7955613],
        [9.4621544, 4.622551],
        [28.65086, 4.3702607],
    ], dtype=np.float32)
    VERDICTS = [True, True, False, False]

    def test_logits_and_verdicts(self):
        rng = np.random.default_rng(224)
        network = _percivalnet_with_biases(rng, PercivalNet.paper(seed=0))
        head = {param.name: param for param in network.parameters()}
        head["conv_final.bias"].data[LABEL_AD] += 5.0
        x = rng.standard_normal((4, *PAPER_SHAPE)).astype(np.float32)
        x *= np.array([0.1, 0.3, 1.0, 3.0], dtype=np.float32).reshape(
            4, 1, 1, 1
        )
        plan = compile_inference(network, input_shape=PAPER_SHAPE)
        logits = plan.run(x)
        np.testing.assert_allclose(logits, self.LOGITS, rtol=1e-5, atol=1e-4)
        probabilities = softmax(logits, axis=1)[:, LABEL_AD]
        assert list(probabilities >= 0.5) == self.VERDICTS


class TestFusedPlanOracle:
    """Pool-before-bias/ReLU, the single-pass Fire output and the GAP
    reduction are bitwise equal to running every layer on its own."""

    def test_percivalnet_plan_equals_unfused_oracle(self, rng):
        network = _percivalnet_with_biases(rng)
        plan = compile_inference(network)
        # Conv+ReLU+pool and Fire+pool fuse; the pools vanish as ops
        kinds = [op.describe() for op in plan.ops]
        assert kinds[0] == "conv[im2col]+relu+maxpool2/2"
        assert not any(kind.startswith("maxpool") for kind in kinds)
        assert sum("+maxpool" in kind for kind in kinds) == 4
        x = _edge_batch(rng, 9)
        for precision, resolve, plan in _precision_plans(network):
            fused = plan.run(x)
            oracle = _unfused(network, resolve, x)
            assert fused.dtype == oracle.dtype == np.float32
            assert _bits(fused) == _bits(oracle), precision
            assert np.isnan(fused[5]).all() and not np.isnan(fused[:5]).any()

    def test_signed_zero_ties_and_nan_through_fused_pool(self):
        """One-tap 1x1 convolutions make the GEMM output an exact copy
        of the input times +-1, so -0.0, +0.0, NaN and tied maxima reach
        the fused pool as they are, and biases of +-0 keep or drop the
        sign of a zero."""
        conv = Conv2d(1, 4, kernel_size=1, name="c")
        conv.weight.data[:] = np.array([1.0, -1.0, 1.0, -1.0]).reshape(
            4, 1, 1, 1
        )
        conv.bias.data[:] = np.array([-0.0, 0.0, 0.0, -0.0])
        values = np.array(
            [-0.0, 0.0, 0.0, -0.0, np.nan, 1.0, 1.0, -2.0,
             -1.0, -0.0, 3.0, 3.0, -0.0, -0.0, 0.0, np.nan],
            dtype=np.float32,
        )
        x = np.stack([values.reshape(1, 4, 4), values[::-1].reshape(1, 4, 4)])
        for relu in (True, False):
            layers = [conv] + ([ReLU()] if relu else [])
            network = Sequential(layers + [MaxPool2d(2, 2)])
            network.eval()
            plan = compile_inference(network)
            assert len(plan) == 1
            oracle = _unfused(network, lambda param: param.data, x)
            assert _bits(plan.run(x)) == _bits(oracle), relu

    def test_fire_with_pool_and_gap_equal_oracle(self, rng):
        fire = FireModule(6, 3, 8, rng=spawn_rng(0, "fire"))
        for param in fire.parameters():
            if param.name.endswith(".bias"):
                param.data[:] = rng.standard_normal(param.data.shape)
        network = Sequential([fire, MaxPool2d(2, 2), GlobalAvgPool2d()])
        network.eval()
        plan = compile_inference(network)
        assert [op.describe().split("(")[0] for op in plan.ops] == [
            "fire", "gap",
        ]
        x = _edge_batch(rng, 6, channels=6, size=9)
        oracle = _unfused(network, lambda param: param.data, x)
        assert _bits(plan.run(x)) == _bits(oracle)
