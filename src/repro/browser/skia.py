"""Skia/Blink analog classes (§3.3, Figure 2).

Chromium's deferred-decoding chain, mirrored one class at a time:

``BitmapImage`` creates a ``DeferredImageDecoder`` (folded into
``BitmapImage`` here), which instantiates an ``SkImage`` per encoded
frame; the ``SkImage`` owns a ``DecodingImageGenerator`` whose
``on_get_pixels()`` runs the actual decoder and fills the caller's
bitmap.  PERCIVAL is invoked with the freshly decoded buffer plus its
``SkImageInfo`` — the exact interception point of the paper — and may
clear the buffer (block) before anything downstream sees it.

Bitmaps are ``uint8`` (H, W, 4) RGBA (``RGBA_8888``), the decoder's own
bytes: the buffers here are allocated, filled and cleared as ``uint8``,
and only preprocessing turns a frame into floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.browser.codecs import EncodedImage, decode_image

#: Signature of the PERCIVAL interception hook: receives the decoded
#: bitmap and its info, returns True if the frame must be blocked.
PercivalHook = Callable[[np.ndarray, "SkImageInfo"], bool]


@dataclass(frozen=True)
class SkImageInfo:
    """Image metadata passed alongside the pixel buffer (SkImageInfo)."""

    width: int
    height: int
    channels: int = 4
    color_type: str = "RGBA_8888"

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


class DecodingImageGenerator:
    """Decodes an encoded frame into a caller-provided ``uint8`` bitmap."""

    def __init__(self, encoded: EncodedImage) -> None:
        self._encoded = encoded
        self.decode_count = 0

    @property
    def info(self) -> SkImageInfo:
        return SkImageInfo(
            width=self._encoded.width, height=self._encoded.height
        )

    def on_get_pixels(
        self,
        bitmap: np.ndarray,
        percival_hook: Optional[PercivalHook] = None,
    ) -> bool:
        """Decode into ``bitmap``; run the PERCIVAL hook on the pixels.

        Returns True if the frame was blocked (buffer cleared).  The
        hook sees the unmodified decoded buffer — the property that
        defeats CSS-overlay obfuscation attacks (§3.3).
        """
        pixels = decode_image(self._encoded)
        if bitmap.shape != pixels.shape:
            raise ValueError(
                f"bitmap shape {bitmap.shape} != decoded {pixels.shape}"
            )
        bitmap[...] = pixels
        self.decode_count += 1
        if percival_hook is not None and percival_hook(bitmap, self.info):
            bitmap[...] = 0  # clear the buffer: the frame never paints
            return True
        return False


class SkImage:
    """Skia's encoded-image handle; decoding is deferred until raster."""

    def __init__(self, encoded: EncodedImage) -> None:
        self.generator = DecodingImageGenerator(encoded)
        self._encoded = encoded

    @property
    def info(self) -> SkImageInfo:
        return self.generator.info

    @property
    def encoded(self) -> EncodedImage:
        return self._encoded


class BitmapImage:
    """Blink's image element backing store.

    Practices deferred decoding: ``ensure_decoded`` is idempotent and
    only pays the decode (plus classification) cost once, exactly like
    Chromium's decoded-image cache.
    """

    def __init__(self, encoded: EncodedImage) -> None:
        self.sk_image = SkImage(encoded)
        self._decoded: Optional[np.ndarray] = None
        self.blocked = False

    @property
    def is_decoded(self) -> bool:
        return self._decoded is not None

    def ensure_decoded(
        self, percival_hook: Optional[PercivalHook] = None
    ) -> np.ndarray:
        """Decode (once) through the generator; returns the ``uint8``
        bitmap."""
        if self._decoded is None:
            info = self.sk_image.info
            bitmap = np.empty(
                (info.height, info.width, info.channels), dtype=np.uint8
            )
            self.blocked = self.sk_image.generator.on_get_pixels(
                bitmap, percival_hook
            )
            self._decoded = bitmap
        return self._decoded

    # ------------------------------------------------------------------
    # Batched classification support (two-phase decode).
    #
    # The renderer's image-decode drain decodes a page's frames first,
    # classifies them all in one batched forward pass, then applies the
    # verdicts — instead of paying one classification per decode.  The
    # virtual-clock costs are unchanged (raster still charges decode and
    # classification on the first raster task to touch each image).
    # ------------------------------------------------------------------
    def decode_only(self) -> np.ndarray:
        """Phase one: decode without running any classification hook."""
        return self.ensure_decoded(None)

    def settle_verdict(self, blocked: bool) -> None:
        """Settle an inherited verdict *without* decoding.

        The diff layer proved this frame's encoded bytes are the ones a
        prior visit already classified, so the stored verdict applies
        sight unseen: a blocked frame materializes as a cleared buffer
        (nothing downstream ever decodes the creative), an allowed
        frame keeps deferred decoding for whenever raster needs the
        pixels — in both cases no classification hook will run.
        """
        if self._decoded is not None:
            self.apply_verdict(blocked)
            return
        if blocked:
            info = self.sk_image.info
            self._decoded = np.zeros(
                (info.height, info.width, info.channels), dtype=np.uint8
            )
            self.blocked = True

    def apply_verdict(self, blocked: bool) -> None:
        """Phase two: apply a (batched) PERCIVAL verdict to the frame.

        Blocking clears the decoded buffer exactly as the in-decode hook
        would have — nothing downstream ever sees the pixels.
        """
        if self._decoded is None:
            raise RuntimeError("apply_verdict called before decode")
        if blocked and not self.blocked:
            self._decoded[...] = 0
            self.blocked = True
