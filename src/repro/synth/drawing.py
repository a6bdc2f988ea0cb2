"""Vectorized raster primitives.

Images are float32 RGBA arrays of shape (H, W, 4) in [0, 1], matching
the decoded-bitmap layout PERCIVAL reads out of the render pipeline
(Blink hands the classifier RGBA pixels; §3.3).  Alpha is 1.0 except
where a primitive explicitly writes otherwise.

Everything here is numpy-vectorized; per-image generation stays well
under a millisecond at the capped generation resolutions the experiment
drivers use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

Color = Tuple[float, float, float]


def blank(height: int, width: int, color: Color = (1.0, 1.0, 1.0)) -> np.ndarray:
    """Create an opaque RGBA canvas filled with ``color``."""
    if height < 1 or width < 1:
        raise ValueError("canvas must be at least 1x1")
    img = np.empty((height, width, 4), dtype=np.float32)
    img[..., 0] = color[0]
    img[..., 1] = color[1]
    img[..., 2] = color[2]
    img[..., 3] = 1.0
    return img


def _clip_box(img: np.ndarray, x: int, y: int, w: int, h: int):
    """Clamp a box to the canvas; returns (x0, y0, x1, y1) or None."""
    height, width = img.shape[:2]
    x0, y0 = max(x, 0), max(y, 0)
    x1, y1 = min(x + w, width), min(y + h, height)
    if x0 >= x1 or y0 >= y1:
        return None
    return x0, y0, x1, y1


def fill_rect(
    img: np.ndarray, x: int, y: int, w: int, h: int, color: Color,
    alpha: float = 1.0,
) -> None:
    """Fill an axis-aligned rectangle, alpha-blended over the canvas."""
    box = _clip_box(img, x, y, w, h)
    if box is None:
        return
    x0, y0, x1, y1 = box
    region = img[y0:y1, x0:x1, :3]
    rgb = np.array(color, dtype=np.float32)
    region[...] = (1.0 - alpha) * region + alpha * rgb


def draw_border(
    img: np.ndarray, thickness: int, color: Color
) -> None:
    """Draw an inset border around the full canvas."""
    height, width = img.shape[:2]
    t = max(1, min(thickness, height // 2, width // 2))
    fill_rect(img, 0, 0, width, t, color)
    fill_rect(img, 0, height - t, width, t, color)
    fill_rect(img, 0, 0, t, height, color)
    fill_rect(img, width - t, 0, t, height, color)


def linear_gradient(
    img: np.ndarray, start: Color, end: Color, vertical: bool = True
) -> None:
    """Fill the canvas with a linear two-color gradient."""
    height, width = img.shape[:2]
    axis_len = height if vertical else width
    ramp = np.linspace(0.0, 1.0, axis_len, dtype=np.float32)
    start_arr = np.array(start, dtype=np.float32)
    end_arr = np.array(end, dtype=np.float32)
    colors = start_arr[None, :] * (1 - ramp[:, None]) + end_arr[None, :] * ramp[:, None]
    if vertical:
        img[..., :3] = colors[:, None, :]
    else:
        img[..., :3] = colors[None, :, :]


def add_noise(img: np.ndarray, rng: np.random.Generator, sigma: float) -> None:
    """Add clipped Gaussian pixel noise to the RGB channels."""
    if sigma <= 0:
        return
    noise = rng.normal(0.0, sigma, size=img.shape[:2] + (3,)).astype(np.float32)
    img[..., :3] = np.clip(img[..., :3] + noise, 0.0, 1.0)


def _gaussian_weights(sigma: float) -> np.ndarray:
    """The taps of a Gaussian truncated at four sigma, as scipy's
    ``gaussian_filter`` builds them: ``-r .. r`` for
    ``r = int(4 * sigma + 0.5)``, normalised by their sum."""
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    return weights / weights.sum()


def _blur_axis0(field: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Blur axis 0 of a 2-D field with a symmetric kernel, as scipy's
    ``correlate1d`` does: in float64, the centre tap first, then each
    pair ``(left + right) * w`` from the outermost pair inward; the
    result is rounded to the field's dtype."""
    radius = len(weights) // 2
    rows = field.shape[0]
    # scipy's "reflect" edge (d c b a | a b c d) is numpy's "symmetric"
    # pad, which reflects again and again when the field is narrower
    # than the radius
    line = np.pad(
        field.astype(np.float64), ((radius, radius), (0, 0)),
        mode="symmetric",
    )
    total = line[radius:radius + rows] * weights[radius]
    pair = np.empty_like(total)
    for offset in range(radius, 0, -1):
        np.add(
            line[radius - offset:radius - offset + rows],
            line[radius + offset:radius + offset + rows],
            out=pair,
        )
        pair *= weights[radius - offset]
        total += pair
    return total.astype(field.dtype)


def gaussian_blur(field: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-blur a 2-D float field, rows first, then columns.

    Bitwise equal to ``scipy.ndimage.gaussian_filter(field, sigma,
    mode="reflect")`` for float32 and float64 fields, including the
    rounding to the field's dtype between the two axes;
    ``docs/inference.md`` states the contract.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    weights = _gaussian_weights(float(sigma))
    blurred = _blur_axis0(_blur_axis0(field, weights).T, weights)
    return np.ascontiguousarray(blurred.T)


def smooth_blobs(
    height: int,
    width: int,
    rng: np.random.Generator,
    scale: float = 4.0,
    palette: Sequence[Color] = ((0.3, 0.5, 0.3), (0.6, 0.7, 0.9)),
) -> np.ndarray:
    """Low-frequency colored field approximating a natural photo.

    White noise is blurred per channel and remapped onto a palette blend,
    giving the smooth, low-spatial-frequency statistics of photographs —
    the dominant non-ad image class in real pages.
    """
    img = blank(height, width)
    field = rng.random((height, width)).astype(np.float32)
    field = gaussian_blur(field, scale)
    span = field.max() - field.min()
    if span > 0:
        field = (field - field.min()) / span
    a = np.array(palette[0], dtype=np.float32)
    b = np.array(palette[1], dtype=np.float32)
    img[..., :3] = (
        a[None, None, :] * (1 - field[..., None])
        + b[None, None, :] * field[..., None]
    )
    return img


def draw_circle(
    img: np.ndarray, cx: int, cy: int, radius: int, color: Color,
    alpha: float = 1.0,
) -> None:
    """Fill a circle (used for avatars, logos, AdChoices marker disc)."""
    height, width = img.shape[:2]
    yy, xx = np.ogrid[:height, :width]
    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2
    rgb = np.array(color, dtype=np.float32)
    img[..., :3][mask] = (1.0 - alpha) * img[..., :3][mask] + alpha * rgb


def draw_triangle(
    img: np.ndarray, x: int, y: int, size: int, color: Color
) -> None:
    """Fill a right-pointing triangle (the AdChoices arrow glyph)."""
    height, width = img.shape[:2]
    for row in range(size):
        extent = size - abs(row - size // 2) * 2
        extent = max(extent, 1)
        px_y = y + row
        if 0 <= px_y < height:
            fill_rect(img, x, px_y, extent, 1, color)


def glyph_row(
    img: np.ndarray,
    x: int,
    y: int,
    width: int,
    glyph_height: int,
    rng: np.random.Generator,
    color: Color,
    glyph_width_range: Tuple[int, int] = (2, 5),
    gap_range: Tuple[int, int] = (1, 2),
    space_probability: float = 0.18,
    space_width: int = 3,
    connected: bool = False,
    block: bool = False,
) -> None:
    """Draw one row of synthetic text.

    Scripts differ in their spatial statistics and the parameters encode
    that difference:

    * Latin — narrow variable-width glyphs with word spaces,
    * Arabic (``connected=True``) — long joined strokes, sparse spaces,
    * Hangul / CJK (``block=True``) — dense square blocks, few spaces.
    """
    cursor = x
    end = x + width
    lo, hi = glyph_width_range
    while cursor < end:
        if rng.random() < space_probability:
            cursor += space_width
            continue
        glyph_w = int(rng.integers(lo, hi + 1))
        if block:
            glyph_w = glyph_height  # square glyphs
        fill_rect(img, cursor, y, min(glyph_w, end - cursor),
                  glyph_height, color)
        if block and rng.random() < 0.6:
            # internal white stroke inside the block glyph
            fill_rect(img, cursor + 1, y + glyph_height // 2,
                      max(glyph_w - 2, 1), 1, (1.0, 1.0, 1.0))
        if connected:
            # baseline stroke joining to the next glyph
            fill_rect(img, cursor, y + glyph_height - 1,
                      glyph_w + gap_range[1], 1, color)
        cursor += glyph_w + int(rng.integers(gap_range[0], gap_range[1] + 1))


def text_block(
    img: np.ndarray,
    x: int,
    y: int,
    width: int,
    lines: int,
    rng: np.random.Generator,
    color: Color = (0.15, 0.15, 0.15),
    glyph_height: int = 3,
    line_gap: int = 2,
    **glyph_kwargs,
) -> None:
    """Draw a paragraph of synthetic text rows."""
    for line in range(lines):
        line_y = y + line * (glyph_height + line_gap)
        if line_y + glyph_height > img.shape[0]:
            break
        line_width = width if line < lines - 1 else int(width * rng.uniform(0.4, 0.9))
        glyph_row(img, x, line_y, line_width, glyph_height, rng, color,
                  **glyph_kwargs)


def adchoices_marker(img: np.ndarray, rng: np.random.Generator) -> None:
    """Stamp an AdChoices-style disclosure marker in the top-right corner.

    The real marker is a small blue arrow-in-circle icon; Figure 4 shows
    the network keying on exactly this cue.  Rendered as a white disc
    with a blue triangle, plus a thin label stroke.
    """
    height, width = img.shape[:2]
    size = max(4, min(height, width) // 12)
    cx = width - size - 1
    cy = size + 1
    draw_circle(img, cx, cy, size, (0.97, 0.97, 0.97))
    draw_circle(img, cx, cy, size, (0.0, 0.35, 0.8), alpha=0.25)
    draw_triangle(img, cx - size // 2, cy - size // 3,
                  max(size // 2 * 2, 2), (0.0, 0.35, 0.8))


def cta_button(
    img: np.ndarray,
    rng: np.random.Generator,
    color: Color = (0.85, 0.25, 0.1),
) -> None:
    """Draw a call-to-action button in the lower portion of the canvas."""
    height, width = img.shape[:2]
    btn_w = int(width * rng.uniform(0.3, 0.55))
    btn_h = max(4, int(height * rng.uniform(0.10, 0.18)))
    x = int(rng.uniform(0.1, 0.9) * (width - btn_w))
    y = int(height * rng.uniform(0.7, 0.85))
    fill_rect(img, x, y, btn_w, btn_h, color)
    glyph_row(img, x + 2, y + btn_h // 2 - 1, btn_w - 4,
              max(btn_h // 3, 1), rng, (1.0, 1.0, 1.0))


def price_flash(img: np.ndarray, rng: np.random.Generator) -> None:
    """Draw a price/discount starburst: bright disc + dense dark strokes."""
    height, width = img.shape[:2]
    radius = max(3, min(height, width) // 8)
    cx = int(rng.uniform(0.15, 0.85) * width)
    cy = int(rng.uniform(0.15, 0.5) * height)
    draw_circle(img, cx, cy, radius, (1.0, 0.85, 0.1))
    fill_rect(img, cx - radius // 2, cy - 1, radius, 2, (0.8, 0.1, 0.1))


@lru_cache(maxsize=256)
def _zoom_taps(
    n_in: int, n_out: int, repeat: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Source taps and weights of one axis of an order-1 ``ndimage.zoom``.

    Returns ``(index, weight)``.  ``index`` has ``2 * n_out`` entries:
    every output sample's lower tap, then every upper tap.  ``weight``
    holds the matching weights, each repeated ``repeat`` times so they
    line up with a row of interleaved channels.

    The arithmetic is scipy's, step for step, so the resize is bitwise
    equal to it: the coordinate ``k * ((n_in - 1) / (n_out - 1))`` is
    *not* clamped (``71 * (249 / 71)`` lands a hair past the last
    pixel, and scipy interpolates there), only the taps are; and the
    upper weight is ``1 - (1 - t)``, not ``t``, because scipy derives
    the last weight from the sum.
    """
    zoom = (n_in - 1) / (n_out - 1) if n_out > 1 else 1.0
    coord = np.arange(n_out, dtype=np.float64) * zoom
    lower = np.floor(coord)
    w_lower = 1.0 - (coord - lower)
    lower = lower.astype(np.intp)
    index = np.minimum(np.concatenate([lower, lower + 1]), n_in - 1)
    weight = np.repeat(np.concatenate([w_lower, 1.0 - w_lower]), repeat)
    index.flags.writeable = weight.flags.writeable = False
    return index, weight


def resize_bitmap(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Resize an (H, W, C) float bitmap with bilinear interpolation.

    Stands in for the scaling step PERCIVAL performs before inference
    ("scales it to 224x224x4", §3.3).  The result is clipped to [0, 1]
    and bitwise equal to ``ndimage.zoom(img, ..., order=1,
    mode="nearest")`` followed by that clip; ``docs/inference.md``
    states the contract.
    """
    if img.shape[0] == height and img.shape[1] == width:
        return img.astype(np.float32, copy=True)
    src = np.ascontiguousarray(img)
    if not np.issubdtype(src.dtype, np.floating):
        raise TypeError(f"expected a float bitmap, got {src.dtype}")
    src_h, src_w, channels = src.shape
    rows, row_weight = _zoom_taps(src_h, height)
    cols, col_weight = _zoom_taps(src_w, width, channels)
    # gather whole pixels (every channel at once) for all four corners:
    # rows [:height] come from each output row's first source row,
    # rows [height:] from its second; the halves of a row likewise
    # hold the first and the second source column
    pixels = src.view(np.dtype((np.void, channels * src.itemsize)))
    taps = pixels.reshape(src_h, src_w).take(rows, axis=0)
    # the taps are in range by construction; "clip" skips the check
    taps = taps.take(cols, axis=1, mode="clip")
    span = width * channels
    terms = taps.view(src.dtype).reshape(2 * height, 2 * span)
    terms = terms.astype(np.float64, copy=False)
    terms *= row_weight[:, None]
    terms *= col_weight
    # scipy's corner order: (y0, x0), (y0, x1), (y1, x0), (y1, x1)
    top, bottom = terms[:height], terms[height:]
    total = top[:, :span] + top[:, span:]
    total += bottom[:, :span]
    total += bottom[:, span:]
    # scipy accumulates from +0.0, so a sum of four -0.0 reads +0.0
    total += 0.0
    out = total.astype(src.dtype, copy=False)
    np.clip(out, 0.0, 1.0, out=out)
    out = out.astype(np.float32, copy=False)
    return out.reshape(height, width, channels)
