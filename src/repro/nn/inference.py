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

A plan keeps no per-shape buffers: every op allocates its own output
and never writes its input, so only the first op sees the caller's
array and the caller owns whatever ``run`` returns.  What a plan does
keep per input shape is geometry — output extents, pool index tuples,
and ``chunk``, the number of images ``run`` pushes through the op
list at once, sized so the largest op's working set fits
:data:`CHUNK_BYTES`.

Pooling before the bias and ReLU is bitwise equal to pooling after
them — rounding ``a + b`` is monotone in ``a``, and max and ReLU are
monotone — and every GEMM is one image's, so row *i* of a batch's
logits never depends on the batch or chunk it ran in (see
``docs/inference.md``, *Allocation and fusion rules*).

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
#: one image's shape: ``(C, H, W)`` for a map, ``(features,)`` after
#: a flatten
Shape = Tuple[int, ...]

#: Bytes the largest op of a plan may touch per chunk: its input, pad
#: copy, im2col columns, GEMM map and pool rows, summed over the
#: chunk's images.  ``InferencePlan.run`` cuts every batch into chunks
#: of ``plan.chunk = CHUNK_BYTES // (largest per-image working set)``
#: images (at least one): 35 at 32 px, 1 at 224 px.  Per-image time
#: rises once that working set passes ~10-16 MB at both model sizes;
#: see ``docs/inference.md``, *Allocation and fusion rules*.
CHUNK_BYTES = 10 << 20

_ITEMSIZE = np.dtype(np.float32).itemsize


def _size(shape: Shape) -> int:
    return int(np.prod(shape))


def _bind_pool(pool: Pool, channels: int, height: int, width: int):
    """``(taps, out_shape, elements)`` of a fused max-pool over one
    ``channels`` x ``height`` x ``width`` map: its index tuples, its
    output shape and the elements of its row and output maps."""
    if pool is None:
        return None, (channels, height, width), 0
    kernel, stride = pool
    taps = F.maxpool_taps(kernel, stride, height, width)
    out_h = F.conv_output_size(height, kernel, stride, 0)
    out_w = F.conv_output_size(width, kernel, stride, 0)
    span = stride * (out_w - 1) + kernel
    elements = channels * out_h * (span + out_w)
    return taps, (channels, out_h, out_w), elements


def _finish(
    x: np.ndarray, taps, bias: np.ndarray, relu: bool
) -> np.ndarray:
    """Finish a raw (bias-free) GEMM map: max-pool it through ``taps``
    if a pool is fused, then add the bias (a ``(C, 1, 1)`` view) and
    ReLU in place on what remains.

    Bitwise equal to bias -> ReLU -> pool: ``fl(a + b)`` is monotone in
    ``a`` and ReLU is monotone, so both commute with a window's max
    (ties and signed zeros included: a sum that rounds to zero is +0
    unless ``a`` and ``b`` are both -0, and ReLU maps every
    non-positive input to +0).
    """
    if taps is not None:
        x = F.maxpool_by_taps(x, *taps)
    x += bias
    if relu:
        F.relu_inplace(x)
    return x


def _describe_pool(pool: Pool) -> str:
    return "" if pool is None else f"+maxpool{pool[0]}/{pool[1]}"


class InferenceOp:
    """One step of a compiled plan.

    ``bind`` resolves the op's geometry for one image of a given shape,
    once per plan input shape; ``run`` then only reads it, so the batch
    size is the one thing that varies per call.  ``run`` never writes
    its input (the caller's array, for the plan's first op); every op
    but ``Flatten`` (a reshape view) returns a freshly allocated
    output.
    """

    def bind(self, shape: Shape) -> Tuple[Shape, int]:
        """Resolve geometry for one image of ``shape``; return the
        output shape and the op's per-image working set in elements
        (by default an input and an output of the same size)."""
        return shape, 2 * _size(shape)

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
        self.out_channels = conv.out_channels
        self.kernel = conv.kernel_size
        self.stride = conv.stride
        self.padding = conv.padding
        self.relu = relu
        self.pool = pool
        self.pointwise = conv.kernel_size == 1
        # views of the GEMM-shaped weights and the broadcastable bias,
        # captured at compile time
        self._flat_weight = self.weight.reshape(conv.out_channels, -1)
        self._bias = self.bias.reshape(-1, 1, 1)

    def bind(self, shape: Shape) -> Tuple[Shape, int]:
        channels, height, width = shape
        kernel, stride, pad = self.kernel, self.stride, self.padding
        self._out_h = F.conv_output_size(height, kernel, stride, pad)
        self._out_w = F.conv_output_size(width, kernel, stride, pad)
        self._map = (self.out_channels, self._out_h, self._out_w)
        elements = _size(shape) + _size(self._map)
        if pad:
            elements += channels * (height + 2 * pad) * (width + 2 * pad)
        if not self.pointwise:
            elements += channels * kernel * kernel * self._out_h * self._out_w
        self._taps, out_shape, pooled = _bind_pool(self.pool, *self._map)
        return out_shape, elements + pooled

    def gemm(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The convolution without its bias, as ``(N, O, out_h*out_w)``
        (written into ``out`` when given)."""
        cols = F.gemm_columns(
            x, self.kernel, self.kernel, self.stride, self.padding,
            self._out_h, self._out_w,
        )
        return np.matmul(self._flat_weight, cols, out=out)

    def run(self, x: np.ndarray) -> np.ndarray:
        result = self.gemm(x).reshape(x.shape[0], *self._map)
        return _finish(result, self._taps, self._bias, self.relu)

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
        # the squeeze bias against the flat (N, S, H*W) GEMM map
        self._squeeze_bias = self.squeeze.bias.reshape(-1, 1)

    def bind(self, shape: Shape) -> Tuple[Shape, int]:
        squeezed, squeeze_elements = self.squeeze.bind(shape)
        expanded, expand_elements = self.expand3x3.bind(squeezed)
        self.expand1x1.bind(squeezed)
        self._squeezed = squeezed
        self._map = (2 * self._half, *expanded[1:])
        self._taps, out_shape, pooled = _bind_pool(self.pool, *self._map)
        # the squeeze's input and map, then the 3x3's pad copy and
        # columns, the joint expand map and the pool's rows, all live
        # together (the 3x3's own input and map are already counted)
        elements = (
            squeeze_elements + expand_elements
            - _size(squeezed) - _size(expanded)
            + _size(self._map) + pooled
        )
        return out_shape, elements

    def run(self, x: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        squeezed = self.squeeze.gemm(x)
        squeezed += self._squeeze_bias
        F.relu_inplace(squeezed)
        squeezed = squeezed.reshape(batch, *self._squeezed)
        half = self._half
        channels, height, width = self._map
        out = np.empty((batch, channels, height * width), squeezed.dtype)
        self.expand1x1.gemm(squeezed, out=out[:, :half])
        self.expand3x3.gemm(squeezed, out=out[:, half:])
        # joined per run, not at compile, so in-place updates of the
        # live bias parameters still reach the plan
        bias = np.concatenate((self.expand1x1._bias, self.expand3x3._bias))
        return _finish(
            out.reshape(batch, *self._map), self._taps, bias, True
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
        return np.maximum(x, F._ZERO)

    def describe(self) -> str:
        return "relu"


class MaxPoolOp(InferenceOp):
    """Standalone max-pool (one not fused into a convolution)."""

    def __init__(self, kernel: int, stride: int) -> None:
        self.kernel = kernel
        self.stride = stride

    def bind(self, shape: Shape) -> Tuple[Shape, int]:
        self._taps, out_shape, pooled = _bind_pool(
            (self.kernel, self.stride), *shape
        )
        return out_shape, _size(shape) + pooled

    def run(self, x: np.ndarray) -> np.ndarray:
        return F.maxpool_by_taps(x, *self._taps)

    def describe(self) -> str:
        return f"maxpool{self.kernel}/{self.stride}"


class AvgPoolOp(InferenceOp):
    def __init__(self, kernel: int, stride: int) -> None:
        self.kernel = kernel
        self.stride = stride

    def bind(self, shape: Shape) -> Tuple[Shape, int]:
        channels, height, width = shape
        out_shape = (
            channels,
            F.conv_output_size(height, self.kernel, self.stride, 0),
            F.conv_output_size(width, self.kernel, self.stride, 0),
        )
        return out_shape, _size(shape) + _size(out_shape)

    def run(self, x: np.ndarray) -> np.ndarray:
        return F.avgpool2d_infer(x, self.kernel, self.stride)

    def describe(self) -> str:
        return f"avgpool{self.kernel}/{self.stride}"


class GlobalAvgPoolOp(InferenceOp):
    def bind(self, shape: Shape) -> Tuple[Shape, int]:
        channels, height, width = shape
        self._count = height * width
        return (channels,), _size(shape) + channels

    def run(self, x: np.ndarray) -> np.ndarray:
        # np.mean(axis=(2, 3))'s own arithmetic (add.reduce, then a
        # divide) without its per-call Python overhead
        total = np.add.reduce(x, axis=(2, 3))
        total /= self._count
        return total

    def describe(self) -> str:
        return "gap"


class FlattenOp(InferenceOp):
    def bind(self, shape: Shape) -> Tuple[Shape, int]:
        return (_size(shape),), _size(shape)

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

    def bind(self, shape: Shape) -> Tuple[Shape, int]:
        out_shape = (self.weight.shape[0],)
        return out_shape, _size(shape) + _size(out_shape)

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

    The plan is bound to one image shape at a time: binding resolves
    every op's geometry and sets ``chunk``, the batch size whose
    largest op working set fits :data:`CHUNK_BYTES`.  ``run`` binds on
    the first batch of a new image shape (the classifier compiles its
    plan bound to its input shape) and cuts every batch into chunks of
    ``chunk`` images; each row's logits never depend on the chunk it
    ran in.

    ``run`` never touches the layers' backward caches, activation
    capture, or training flags — it is safe to interleave with training
    and Grad-CAM use of the same network (but see the staleness contract
    in the module docstring: recompile after ``train()``/``load()``).
    """

    def __init__(
        self,
        ops: List[InferenceOp],
        name: str = "net",
        input_shape: Optional[Shape] = None,
    ) -> None:
        self.ops = ops
        self.name = name
        self.input_shape: Optional[Shape] = None
        self.chunk: Optional[int] = None
        if input_shape is not None:
            self.bind(tuple(input_shape))

    def bind(self, shape: Shape) -> None:
        """Resolve every op's geometry for one image of ``shape`` and
        size ``chunk`` from the largest per-image working set."""
        largest, current = 0, shape
        for op in self.ops:
            current, elements = op.bind(current)
            largest = max(largest, elements)
        self.chunk = max(1, CHUNK_BYTES // max(1, largest * _ITEMSIZE))
        self.input_shape = shape

    def run(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1:] != self.input_shape:
            self.bind(x.shape[1:])
        chunk = self.chunk
        if x.shape[0] <= chunk:
            return self._forward(x)
        return np.concatenate([
            self._forward(x[start:start + chunk])
            for start in range(0, x.shape[0], chunk)
        ])

    __call__ = run

    def _forward(self, x: np.ndarray) -> np.ndarray:
        for op in self.ops:
            x = op.run(x)
        return x

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
    network: Sequential,
    artifact=None,
    input_shape: Optional[Shape] = None,
) -> InferencePlan:
    """Lower a Sequential into a flat list of fused inference kernels.

    With ``artifact`` (a :class:`~repro.nn.artifact.WeightArtifact`),
    each parameterized op computes over the artifact's dequantized fp32
    reconstruction instead of the live parameter views — the
    dequantize-or-cast happens here, once, never in the hot loop.

    With ``input_shape`` (one image's ``(C, H, W)``), every op's
    geometry and the plan's ``chunk`` are resolved here too; without
    it, on the first ``run``.

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
    return InferencePlan(ops, name=network.name, input_shape=input_shape)
