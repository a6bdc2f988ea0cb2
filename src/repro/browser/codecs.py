"""Toy-but-real image codecs.

Chromium's raster task decodes JPG/PNG/GIF into raw pixels; PERCIVAL
reads the decoded buffer.  To keep that boundary honest, the substrate
actually round-trips pixels through real encoders:

* ``RAW``  — uncompressed bytes (BMP-like),
* ``RLE``  — per-channel run-length encoding (GIF-flavoured),
* ``DEFLATE`` — zlib over scanlines (PNG-flavoured),
* ``QUANT`` — 5-bit quantization + zlib (JPEG-flavoured, lossy).

``encode_image`` takes float32 RGBA renders in [0, 1] and quantizes
them to 8 bits per channel for the wire (a ``uint8`` frame is already
those bytes and goes on the wire as it is); ``decode_image`` hands back
those ``uint8`` (H, W, 4) RGBA bytes as they were decompressed, the
N32 bitmap Skia's decode step fills (§3.2).  Preprocessing is where a
decoded frame first becomes floats.  Each format carries a relative
decode-cost factor used by the virtual clock (quantized/entropy-coded
formats cost more per pixel).
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass

import numpy as np

_MAGIC = b"RIMG"


class ImageFormat(enum.Enum):
    """Supported wire formats and their virtual decode-cost factors."""

    RAW = ("raw_", 1.0)
    RLE = ("rle_", 1.6)
    DEFLATE = ("defl", 2.2)
    QUANT = ("qnt_", 2.8)

    def __init__(self, wire_code: str, decode_cost_factor: float) -> None:
        if len(wire_code) != 4:
            raise ValueError("wire codes are exactly 4 bytes")
        self.wire_code = wire_code
        self.decode_cost_factor = decode_cost_factor


@dataclass(frozen=True)
class EncodedImage:
    """An encoded image as fetched from the network."""

    format: ImageFormat
    payload: bytes
    width: int
    height: int

    @property
    def byte_size(self) -> int:
        return len(self.payload)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


def _to_uint8(pixels: np.ndarray) -> np.ndarray:
    """The 8-bit RGBA bytes of a [0, 1] render; ``uint8`` passes as is."""
    if pixels.ndim != 3 or pixels.shape[2] != 4:
        raise ValueError("expected (H, W, 4) RGBA pixels")
    if pixels.dtype == np.uint8:
        return pixels
    return np.clip(pixels * 255.0, 0, 255).astype(np.uint8)


def _rle_encode(data: bytes) -> bytes:
    """Simple byte-level RLE: (count, value) pairs, count <= 255."""
    if not data:
        return b""
    out = bytearray()
    prev = data[0]
    count = 1
    for byte in data[1:]:
        if byte == prev and count < 255:
            count += 1
        else:
            out.append(count)
            out.append(prev)
            prev = byte
            count = 1
    out.append(count)
    out.append(prev)
    return bytes(out)


def _rle_decode(data: bytes) -> bytes:
    if len(data) % 2:
        raise ValueError("corrupt RLE stream (odd length)")
    out = bytearray()
    for i in range(0, len(data), 2):
        out.extend(data[i + 1:i + 2] * data[i])
    return bytes(out)


def encode_image(pixels: np.ndarray, fmt: ImageFormat) -> EncodedImage:
    """Encode RGBA pixels into the given wire format.

    A float render in [0, 1] is quantized to 8 bits per channel; a
    ``uint8`` frame is encoded byte for byte.
    """
    raw = _to_uint8(pixels)
    height, width = raw.shape[:2]
    flat = raw.tobytes()
    if fmt is ImageFormat.RAW:
        payload = flat
    elif fmt is ImageFormat.RLE:
        payload = _rle_encode(flat)
    elif fmt is ImageFormat.DEFLATE:
        payload = zlib.compress(flat, level=6)
    elif fmt is ImageFormat.QUANT:
        quantized = (raw >> 3).astype(np.uint8)  # 5 bits/channel
        payload = zlib.compress(quantized.tobytes(), level=6)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown format {fmt!r}")
    header = _MAGIC + struct.pack(
        ">4sII", fmt.wire_code.encode("ascii"), width, height
    )
    return EncodedImage(
        format=fmt, payload=header + payload, width=width, height=height
    )


def decode_image(encoded: EncodedImage) -> np.ndarray:
    """Decode to ``uint8`` (H, W, 4) RGBA (lossy for QUANT).

    The lossless formats return a read-only view of the decompressed
    bytes; copy it before writing.
    """
    blob = encoded.payload
    if blob[:4] != _MAGIC:
        raise ValueError("bad magic; not an encoded image")
    wire, width, height = struct.unpack(">4sII", blob[4:16])
    body = blob[16:]
    try:
        fmt = next(
            f for f in ImageFormat
            if f.wire_code == wire.decode("ascii")
        )
    except StopIteration:
        raise ValueError(f"unknown wire code {wire!r}") from None
    if fmt is not encoded.format:
        raise ValueError("header format disagrees with container")

    if fmt is ImageFormat.RAW:
        flat = body
    elif fmt is ImageFormat.RLE:
        flat = _rle_decode(body)
    elif fmt is ImageFormat.DEFLATE:
        flat = zlib.decompress(body)
    elif fmt is ImageFormat.QUANT:
        quantized = np.frombuffer(zlib.decompress(body), dtype=np.uint8)
        return quantized.reshape(height, width, 4) << 3
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown format {fmt!r}")

    return np.frombuffer(flat, dtype=np.uint8).reshape(height, width, 4)


def format_for_url(url: str) -> ImageFormat:
    """Pick a wire format from a URL extension, as a fetcher would."""
    lowered = url.lower()
    if lowered.endswith(".png"):
        return ImageFormat.DEFLATE
    if lowered.endswith((".jpg", ".jpeg")):
        return ImageFormat.QUANT
    if lowered.endswith(".gif"):
        return ImageFormat.RLE
    return ImageFormat.RAW
