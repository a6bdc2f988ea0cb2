"""Compiled inference fast path.

:func:`compile_inference` walks a :class:`~repro.nn.network.Sequential`
once and emits an :class:`InferencePlan` — a flat list of fused,
cache-free kernel calls.  Compared with running the training graph in
eval mode, a plan:

* never retains backward state (no im2col cols, no pool argmax, no
  ReLU masks),
* fuses each ``Conv2d`` or ``FireModule`` with a directly-following
  ``ReLU`` and ``MaxPool2d``: the pool runs on the raw GEMM output, and
  the bias and ReLU then run in place on the quarter-size pooled map,
* writes a Fire module's two expand GEMMs straight into the channel
  halves of one output (no concatenation copy),
* routes 1x1 convolutions through the reshape+GEMM shortcut and general
  convolutions through the zero-copy strided im2col,
* elides ``Dropout`` and ``Identity`` entirely (both are no-ops in eval
  mode).

A plan keeps no per-shape state: every op allocates its own output and
never writes its input, so only the first op sees the caller's array
and the caller owns whatever ``run`` returns.  Pooling before the bias
and ReLU is bitwise equal to pooling after them — rounding ``a + b`` is
monotone in ``a``, and max and ReLU are monotone — and every GEMM is
one image's, so row *i* of a batch's logits never depends on the batch
it ran in (see ``docs/inference.md``, *Allocation and fusion rules*).

Plans hold *views* of each layer's ``Parameter.data``, captured at
compile time.  In-place optimizer updates stay visible through the
views, but anything that can reassign the underlying arrays (training,
weight loading) must discard the plan and recompile — ``AdClassifier``
invalidates on ``train()``/``load()``.  Grad-CAM and training keep
using the layer-by-layer graph, which is unchanged.

Passing a :class:`~repro.nn.artifact.WeightArtifact` to
:func:`compile_inference` compiles the plan from the artifact's weights
instead of the live parameters: each op dequantizes-or-casts its
parameter into its GEMM layout **once at compile time**, so the hot
loop runs the identical fp32 kernels while the artifact's packed
(possibly fp16/int8) buffer is what ships and persists.  Artifact-built
plans are snapshots — in-place parameter updates do *not* flow through
them; the invalidation contract above covers this case too.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.fire import FireModule
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.network import Sequential


class UnsupportedLayerError(TypeError):
    """Raised when the plan compiler meets a layer it cannot lower."""


Pool = Optional[Tuple[int, int]]


def _pool_bias_relu(
    x: np.ndarray, bias: np.ndarray, relu: bool, pool: Pool
) -> np.ndarray:
    """Finish a raw (bias-free) GEMM map: max-pool it if a pool is
    fused, then add the bias and ReLU in place on what remains.

    Bitwise equal to bias -> ReLU -> pool: ``fl(a + b)`` is monotone in
    ``a`` and ReLU is monotone, so both commute with a window's max
    (ties and signed zeros included: a sum that rounds to zero is +0
    unless ``a`` and ``b`` are both -0, and ReLU maps every
    non-positive input to +0).
    """
    if pool is not None:
        x = F.maxpool2d_infer(x, *pool)
    return F.bias_relu_inplace(x, bias, relu)


def _describe_pool(pool: Pool) -> str:
    return "" if pool is None else f"+maxpool{pool[0]}/{pool[1]}"


class InferenceOp:
    """One step of a compiled plan.

    ``run`` never writes its input (the caller's array, for the plan's
    first op); every op but ``Flatten`` (a reshape view) returns a
    freshly allocated output.
    """

    def run(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class ConvOp(InferenceOp):
    """Convolution with its bias, an optional fused ReLU and an
    optional fused max-pool (``pool`` = the pool's kernel and stride)."""

    def __init__(
        self, conv: Conv2d, relu: bool, pool: Pool = None, resolve=None
    ) -> None:
        # ``resolve`` maps a Parameter to the array the plan should
        # compute with: live ``Parameter.data`` by default (in-place
        # updates flow through; reassignment requires recompile —
        # AdClassifier invalidates plans on train()/load()), or a
        # dequantized fp32 snapshot when compiling from a
        # WeightArtifact.
        self.weight = conv.weight.data if resolve is None else resolve(
            conv.weight
        )
        self.bias = conv.bias.data if resolve is None else resolve(
            conv.bias
        )
        self.kernel = conv.kernel_size
        self.stride = conv.stride
        self.padding = conv.padding
        self.relu = relu
        self.pool = pool
        self.pointwise = conv.kernel_size == 1
        # view of the GEMM-shaped weights, captured at compile time
        self._flat_weight = self.weight.reshape(conv.out_channels, -1)

    def gemm(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, int, int]:
        """The convolution without its bias, as ``(N, O, out_h*out_w)``
        (written into ``out`` when given), plus ``(out_h, out_w)``."""
        return F.conv2d_gemm(
            x, self._flat_weight, self.kernel, self.kernel,
            self.stride, self.padding, out=out,
        )

    def run(self, x: np.ndarray) -> np.ndarray:
        result, out_h, out_w = self.gemm(x)
        result = result.reshape(*result.shape[:2], out_h, out_w)
        return _pool_bias_relu(result, self.bias, self.relu, self.pool)

    def describe(self) -> str:
        kind = "conv1x1[gemm]" if self.pointwise else "conv[im2col]"
        if self.relu:
            kind += "+relu"
        return kind + _describe_pool(self.pool)


class FireOp(InferenceOp):
    """Fire module: squeeze -> [expand1x1 || expand3x3] -> ReLU, with an
    optional fused max-pool.

    Both expand GEMMs write straight into their channel halves of one
    output, and the module's post-concat ReLU runs once over it, with
    the two halves' biases (after the pool, when one is fused).
    """

    def __init__(
        self, fire: FireModule, pool: Pool = None, resolve=None
    ) -> None:
        self.squeeze = ConvOp(fire.squeeze, relu=True, resolve=resolve)
        self.expand1x1 = ConvOp(fire.expand1x1, relu=True, resolve=resolve)
        self.expand3x3 = ConvOp(fire.expand3x3, relu=True, resolve=resolve)
        self.pool = pool
        self._half = fire.expand1x1.out_channels

    def run(self, x: np.ndarray) -> np.ndarray:
        squeezed = self.squeeze.run(x)
        batch, _, height, width = squeezed.shape
        half = self._half
        out = np.empty(
            (batch, 2 * half, height * width), dtype=squeezed.dtype
        )
        self.expand1x1.gemm(squeezed, out=out[:, :half])
        self.expand3x3.gemm(squeezed, out=out[:, half:])
        # joined per run, not at compile, so in-place updates of the
        # live bias parameters still reach the plan
        bias = np.concatenate((self.expand1x1.bias, self.expand3x3.bias))
        return _pool_bias_relu(
            out.reshape(batch, 2 * half, height, width),
            bias, True, self.pool,
        )

    def describe(self) -> str:
        return (
            f"fire({self.squeeze.describe()} -> "
            f"{self.expand1x1.describe()} || {self.expand3x3.describe()})"
            + _describe_pool(self.pool)
        )


class ReluOp(InferenceOp):
    """Standalone ReLU (one not fused into a convolution)."""

    def run(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def describe(self) -> str:
        return "relu"


class MaxPoolOp(InferenceOp):
    """Standalone max-pool (one not fused into a convolution)."""

    def __init__(self, kernel: int, stride: int) -> None:
        self.kernel = kernel
        self.stride = stride

    def run(self, x: np.ndarray) -> np.ndarray:
        return F.maxpool2d_infer(x, self.kernel, self.stride)

    def describe(self) -> str:
        return f"maxpool{self.kernel}/{self.stride}"


class AvgPoolOp(InferenceOp):
    def __init__(self, kernel: int, stride: int) -> None:
        self.kernel = kernel
        self.stride = stride

    def run(self, x: np.ndarray) -> np.ndarray:
        return F.avgpool2d_infer(x, self.kernel, self.stride)

    def describe(self) -> str:
        return f"avgpool{self.kernel}/{self.stride}"


class GlobalAvgPoolOp(InferenceOp):
    def run(self, x: np.ndarray) -> np.ndarray:
        # np.mean(axis=(2, 3))'s own arithmetic (add.reduce, then a
        # divide) without its per-call Python overhead
        total = np.add.reduce(x, axis=(2, 3))
        total /= x.shape[2] * x.shape[3]
        return total

    def describe(self) -> str:
        return "gap"


class FlattenOp(InferenceOp):
    def run(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def describe(self) -> str:
        return "flatten"


class LinearOp(InferenceOp):
    def __init__(self, linear: Linear, relu: bool, resolve=None) -> None:
        self.weight = linear.weight.data if resolve is None else resolve(
            linear.weight
        )
        self.bias = linear.bias.data if resolve is None else resolve(
            linear.bias
        )
        self.relu = relu

    def run(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.T
        out += self.bias
        if self.relu:
            F.relu_inplace(out)
        return out

    def describe(self) -> str:
        return "linear+relu" if self.relu else "linear"


class InferencePlan:
    """A compiled, state-free execution schedule for one network.

    ``run`` never touches the layers' backward caches, activation
    capture, or training flags — it is safe to interleave with training
    and Grad-CAM use of the same network (but see the staleness contract
    in the module docstring: recompile after ``train()``/``load()``).
    """

    def __init__(self, ops: List[InferenceOp], name: str = "net") -> None:
        self.ops = ops
        self.name = name

    def run(self, x: np.ndarray) -> np.ndarray:
        for op in self.ops:
            x = op.run(x)
        return x

    __call__ = run

    def __len__(self) -> int:
        return len(self.ops)

    def describe(self) -> str:
        lines = [f"InferencePlan({self.name})"]
        lines.extend(
            f"  [{index:2d}] {op.describe()}"
            for index, op in enumerate(self.ops)
        )
        return "\n".join(lines)


def _flatten_layers(network: Sequential) -> Iterable[Layer]:
    for layer in network.layers:
        if isinstance(layer, Sequential):
            yield from _flatten_layers(layer)
        else:
            yield layer


def _fused_pool(layers: List[Layer], index: int) -> Tuple[Pool, int]:
    """``((kernel, stride), index + 1)`` if ``layers[index]`` is a
    max-pool to fuse into the op before it, else ``(None, index)``."""
    if index < len(layers) and isinstance(layers[index], MaxPool2d):
        pool = layers[index]
        return (pool.kernel_size, pool.stride), index + 1
    return None, index


def compile_inference(
    network: Sequential, artifact=None
) -> InferencePlan:
    """Lower a Sequential into a flat list of fused inference kernels.

    With ``artifact`` (a :class:`~repro.nn.artifact.WeightArtifact`),
    each parameterized op computes over the artifact's dequantized fp32
    reconstruction instead of the live parameter views — the
    dequantize-or-cast happens here, once, never in the hot loop.

    Raises :class:`UnsupportedLayerError` for layer types without an
    inference lowering; callers fall back to the layer-by-layer path.
    """
    resolve = None if artifact is None else artifact.bind(network)
    layers = list(_flatten_layers(network))
    ops: List[InferenceOp] = []
    index = 0
    while index < len(layers):
        layer = layers[index]
        nxt = layers[index + 1] if index + 1 < len(layers) else None
        if isinstance(layer, (Dropout, Identity)):
            index += 1  # no-ops in eval mode: elided
        elif isinstance(layer, Conv2d):
            relu = isinstance(nxt, ReLU)
            pool, index = _fused_pool(layers, index + (2 if relu else 1))
            ops.append(ConvOp(layer, relu=relu, pool=pool, resolve=resolve))
        elif isinstance(layer, Linear):
            fused = isinstance(nxt, ReLU)
            ops.append(LinearOp(layer, relu=fused, resolve=resolve))
            index += 2 if fused else 1
        elif isinstance(layer, FireModule):
            pool, index = _fused_pool(layers, index + 1)
            ops.append(FireOp(layer, pool=pool, resolve=resolve))
        elif isinstance(layer, ReLU):
            ops.append(ReluOp())
            index += 1
        elif isinstance(layer, MaxPool2d):
            ops.append(MaxPoolOp(layer.kernel_size, layer.stride))
            index += 1
        elif isinstance(layer, AvgPool2d):
            ops.append(AvgPoolOp(layer.kernel_size, layer.stride))
            index += 1
        elif isinstance(layer, GlobalAvgPool2d):
            ops.append(GlobalAvgPoolOp())
            index += 1
        elif isinstance(layer, Flatten):
            ops.append(FlattenOp())
            index += 1
        else:
            raise UnsupportedLayerError(
                f"no inference lowering for {type(layer).__name__}"
            )
    if not ops:
        raise UnsupportedLayerError("network lowered to an empty plan")
    return InferencePlan(ops, name=network.name)
