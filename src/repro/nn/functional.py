"""Low-level numeric kernels: im2col convolution and windowed pooling.

Convolution is implemented as im2col + GEMM, the standard CPU strategy.
``im2col`` unrolls every receptive field into a row, turning convolution
into one large matrix multiply that BLAS executes efficiently; ``col2im``
scatters gradients back, summing where receptive fields overlap.

Two families of kernels live here:

* **Training kernels** (``conv2d_forward`` / ``conv2d_backward``,
  ``maxpool2d_forward`` / ``maxpool2d_backward``, ...) retain whatever
  the backward pass needs (the im2col matrix, argmax indices).
* **Inference kernels** (``gemm_columns``, ``maxpool_by_taps``, ...)
  retain nothing.  They additionally take shortcuts the training path
  cannot: a 1x1 convolution skips im2col entirely (reshape + batched
  GEMM — most of PercivalNet's FLOPs are 1x1 squeeze/expand convs), the
  general case unrolls receptive fields through a zero-copy strided
  view, max-pooling is separable, and ReLU runs in place.  The
  compiled plan (:mod:`repro.nn.inference`) composes them into its
  convolution ops: one GEMM over the ``gemm_columns`` operand, any
  fused max-pool, then bias and ReLU in place.  Each kernel allocates
  its own result and never writes its input.

All kernels take and return NCHW arrays.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output extent of a convolution/pooling along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size: input={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def im2col(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Unroll receptive fields of an NCHW batch into a 2-D matrix.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``
    where each row is one flattened receptive field.
    """
    batch, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    if pad > 0:
        images = np.pad(
            images,
            ((0, 0), (0, 0), (pad, pad), (pad, pad)),
            mode="constant",
        )

    cols = np.empty(
        (batch, channels, kernel_h, kernel_w, out_h, out_w),
        dtype=images.dtype,
    )
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = images[
                :, :, ky:y_end:stride, kx:x_end:stride
            ]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, -1
    )


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Inverse of :func:`im2col` for gradient scattering.

    Overlapping receptive fields accumulate (sum) into the same input
    location, which is exactly the convolution input-gradient semantics.
    """
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    cols = cols.reshape(
        batch, out_h, out_w, channels, kernel_h, kernel_w
    ).transpose(0, 3, 4, 5, 1, 2)

    padded = np.zeros(
        (batch, channels, height + 2 * pad, width + 2 * pad),
        dtype=cols.dtype,
    )
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols[
                :, :, ky, kx, :, :
            ]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d_forward(
    images: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int,
    pad: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Convolution forward pass.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.  Returns
    the output and the im2col matrix (cached for the backward pass).
    """
    batch = images.shape[0]
    out_channels, _, kernel_h, kernel_w = weight.shape
    out_h = conv_output_size(images.shape[2], kernel_h, stride, pad)
    out_w = conv_output_size(images.shape[3], kernel_w, stride, pad)

    cols = im2col(images, kernel_h, kernel_w, stride, pad)
    flat_weight = weight.reshape(out_channels, -1)
    out = cols @ flat_weight.T + bias
    out = out.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    return out, cols


def conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    stride: int,
    pad: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convolution backward pass.

    Returns ``(grad_input, grad_weight, grad_bias)`` given the upstream
    gradient in NCHW layout and the cached im2col matrix.
    """
    out_channels, _, kernel_h, kernel_w = weight.shape
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_channels)

    grad_weight = (grad_flat.T @ cols).reshape(weight.shape)
    grad_bias = grad_flat.sum(axis=0)

    grad_cols = grad_flat @ weight.reshape(out_channels, -1)
    grad_input = col2im(
        grad_cols, input_shape, kernel_h, kernel_w, stride, pad
    )
    return grad_input, grad_weight, grad_bias


def maxpool2d_forward(
    images: np.ndarray, kernel: int, stride: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Max pooling forward; returns output and argmax indices for backward.

    Implemented via im2col over each channel independently (channels are
    folded into the batch axis), which handles overlapping windows such as
    SqueezeNet's 3x3/stride-2 pools.
    """
    batch, channels, height, width = images.shape
    folded = images.reshape(batch * channels, 1, height, width)
    cols = im2col(folded, kernel, kernel, stride, pad=0)
    argmax = cols.argmax(axis=1)
    out_vals = cols[np.arange(cols.shape[0]), argmax]

    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    out = out_vals.reshape(batch, channels, out_h, out_w)
    return out, argmax


def maxpool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Max pooling backward: route gradients to the argmax positions."""
    batch, channels, height, width = input_shape
    rows = argmax.shape[0]
    grad_cols = np.zeros((rows, kernel * kernel), dtype=grad_out.dtype)
    grad_cols[np.arange(rows), argmax] = grad_out.reshape(-1)
    grad_folded = col2im(
        grad_cols,
        (batch * channels, 1, height, width),
        kernel,
        kernel,
        stride,
        pad=0,
    )
    return grad_folded.reshape(batch, channels, height, width)


def avgpool2d_forward(
    images: np.ndarray, kernel: int, stride: int
) -> np.ndarray:
    """Average pooling forward pass (no cache needed for backward)."""
    batch, channels, height, width = images.shape
    folded = images.reshape(batch * channels, 1, height, width)
    cols = im2col(folded, kernel, kernel, stride, pad=0)
    out_vals = cols.mean(axis=1)
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    return out_vals.reshape(batch, channels, out_h, out_w)


def avgpool2d_backward(
    grad_out: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Average pooling backward: spread gradient uniformly over windows."""
    batch, channels, height, width = input_shape
    window = kernel * kernel
    grad_flat = grad_out.reshape(-1, 1) / window
    grad_cols = np.broadcast_to(
        grad_flat, (grad_flat.shape[0], window)
    ).copy()
    grad_folded = col2im(
        grad_cols,
        (batch * channels, 1, height, width),
        kernel,
        kernel,
        stride,
        pad=0,
    )
    return grad_folded.reshape(batch, channels, height, width)


# ----------------------------------------------------------------------
# Inference kernels: cache-free, fused, shortcut-taking.
# ----------------------------------------------------------------------

#: ReLU's zero as a float32 scalar: a Python ``0.0`` is cast to the
#: array's dtype on every call (~1 us), and the result is the same
_ZERO = np.float32(0.0)


def relu_inplace(x: np.ndarray) -> np.ndarray:
    """In-place ReLU; returns ``x`` (no allocation)."""
    return np.maximum(x, _ZERO, out=x)


def pad2d(images: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW batch.

    ``np.pad`` costs ~30 us of python-level bookkeeping per call, which
    dominates small-model inference; a calloc + one block copy is an
    order of magnitude cheaper.
    """
    if pad <= 0:
        return images
    batch, channels, height, width = images.shape
    padded = np.zeros(
        (batch, channels, height + 2 * pad, width + 2 * pad),
        dtype=images.dtype,
    )
    padded[:, :, pad:pad + height, pad:pad + width] = images
    return padded


def _window_view(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """``(N, C, kh, kw, out_h, out_w)`` view of every receptive field
    of a (padded) NCHW batch, in the GEMM operand's row order.

    Built with the ``ndarray`` constructor over the batch's buffer
    (~0.9 us a call, against ~4.7 us for ``as_strided``), so the batch
    must be C-contiguous: a fresh padded copy is, and anything else is
    made so first.
    """
    images = np.ascontiguousarray(images)
    stride_n, stride_c, stride_h, stride_w = images.strides
    return np.ndarray(
        (*images.shape[:2], kernel_h, kernel_w, out_h, out_w),
        images.dtype, images, 0,
        (stride_n, stride_c, stride_h, stride_w,
         stride_h * stride, stride_w * stride),
    )


def gemm_columns(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """The ``(N, C*kh*kw, out_h*out_w)`` GEMM operand of a convolution
    whose output extent (``out_h``, ``out_w``) the caller resolved.

    A 1x1 kernel skips im2col entirely: the operand is a reshape of the
    (padded, strided) input — most of PercivalNet's FLOPs are 1x1
    squeeze/expand convs.  The general case gathers the receptive
    fields into ``(N, C*kh*kw, out_h*out_w)``; the innermost copy runs
    are whole output rows, ~3x faster than the row-major im2col gather.
    """
    images = pad2d(images, pad)
    batch, channels = images.shape[:2]
    if kernel_h == 1 and kernel_w == 1:
        if stride > 1:
            images = images[:, :, ::stride, ::stride]
        return images.reshape(batch, channels, out_h * out_w)
    return _window_view(
        images, kernel_h, kernel_w, stride, out_h, out_w
    ).reshape(batch, channels * kernel_h * kernel_w, out_h * out_w)


def _window_tiles(
    images: np.ndarray, kernel: int, stride: int
):
    """Yield one strided (N, C, out_h, out_w) view per window offset.

    Accumulating an elementwise reduction over these k*k views is far
    faster than a ufunc ``reduce`` over the 6-d strided-window view
    (~20x at PercivalNet's feature-map sizes) and handles overlapping
    windows the same way.
    """
    out_h = conv_output_size(images.shape[2], kernel, stride, 0)
    out_w = conv_output_size(images.shape[3], kernel, stride, 0)
    for offset_y in range(kernel):
        y_end = offset_y + stride * out_h
        for offset_x in range(kernel):
            x_end = offset_x + stride * out_w
            yield images[:, :, offset_y:y_end:stride,
                         offset_x:x_end:stride]


def _max_of_taps(images: np.ndarray, taps: tuple) -> np.ndarray:
    """Elementwise max over the views ``images[tap]``, into a fresh
    array.  The first ``np.maximum`` allocates the (contiguous) result;
    later taps accumulate into it in place."""
    if len(taps) == 1:
        return images[taps[0]].copy()
    result = np.maximum(images[taps[0]], images[taps[1]])
    for tap in taps[2:]:
        np.maximum(result, images[tap], out=result)
    return result


def maxpool_taps(
    kernel: int, stride: int, height: int, width: int
) -> Tuple[tuple, tuple]:
    """The index tuples of a separable max-pool over an ``height`` x
    ``width`` map: one per row tap, then one per column tap.  They
    index the two spatial axes only, so one pair serves every batch
    size.

    A window's max is the max over its rows of each row's max, so the
    k row taps reduce first (to the output rows, over the columns the
    windows cover) and the k column taps second: 2(k - 1)
    ``np.maximum`` calls instead of the k*k - 1 a per-window-offset
    accumulation needs — a 2x2/2 pool is exactly two, read straight
    from strided views.  Max is exact, so the output is bitwise equal
    to the window-tile reduction.
    """
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    span = stride * (out_w - 1) + kernel
    rows = tuple(
        (Ellipsis, slice(offset, offset + stride * out_h, stride),
         slice(0, span))
        for offset in range(kernel)
    )
    cols = tuple(
        (Ellipsis, slice(offset, offset + stride * out_w, stride))
        for offset in range(kernel)
    )
    return rows, cols


def maxpool_by_taps(
    images: np.ndarray, row_taps: tuple, col_taps: tuple
) -> np.ndarray:
    """Max-pool an NCHW batch through :func:`maxpool_taps`' index
    tuples, into a fresh array."""
    return _max_of_taps(_max_of_taps(images, row_taps), col_taps)


def avgpool2d_infer(
    images: np.ndarray, kernel: int, stride: int
) -> np.ndarray:
    """Average pooling without the im2col materialization."""
    result: Optional[np.ndarray] = None
    for tile in _window_tiles(images, kernel, stride):
        if result is None:
            result = np.ascontiguousarray(tile)
        else:
            result += tile
    assert result is not None
    result /= kernel * kernel
    return result

