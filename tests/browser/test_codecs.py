"""Image codec round trips."""

import numpy as np
import pytest

from repro.browser.codecs import (
    EncodedImage,
    ImageFormat,
    _to_uint8,
    decode_image,
    encode_image,
    format_for_url,
)


@pytest.fixture()
def pixels(rng):
    return rng.random((12, 18, 4)).astype(np.float32)


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", [
        ImageFormat.RAW, ImageFormat.RLE, ImageFormat.DEFLATE,
    ])
    def test_lossless_formats(self, pixels, fmt):
        encoded = encode_image(pixels, fmt)
        decoded = decode_image(encoded)
        # the decoder returns exactly the 8-bit wire bytes
        assert decoded.dtype == np.uint8
        np.testing.assert_array_equal(decoded, _to_uint8(pixels))

    def test_quant_is_lossy_but_close(self, pixels):
        encoded = encode_image(pixels, ImageFormat.QUANT)
        decoded = decode_image(encoded)
        # QUANT keeps the top 5 bits of each channel
        assert decoded.dtype == np.uint8
        np.testing.assert_array_equal(
            decoded, (_to_uint8(pixels) >> 3) << 3
        )

    def test_shape_metadata(self, pixels):
        encoded = encode_image(pixels, ImageFormat.RAW)
        assert encoded.width == 18
        assert encoded.height == 12
        assert encoded.pixel_count == 12 * 18


class TestUint8Frames:
    """A decoded frame is already the wire bytes: no second scaling."""

    @pytest.mark.parametrize("fmt", list(ImageFormat))
    def test_uint8_frame_encodes_byte_for_byte(self, fmt):
        frame = np.arange(256, dtype=np.uint8).reshape(8, 8, 4)
        decoded = decode_image(encode_image(frame, fmt))
        assert decoded.dtype == np.uint8
        expected = (frame >> 3) << 3 if fmt is ImageFormat.QUANT else frame
        np.testing.assert_array_equal(decoded, expected)

    @pytest.mark.parametrize("fmt", list(ImageFormat))
    def test_decoded_frame_reencodes_to_same_payload(self, pixels, fmt):
        encoded = encode_image(pixels, fmt)
        reencoded = encode_image(decode_image(encoded), fmt)
        assert reencoded.payload == encoded.payload


class TestCompression:
    def test_deflate_compresses_flat_images(self):
        flat = np.full((32, 32, 4), 0.5, dtype=np.float32)
        raw = encode_image(flat, ImageFormat.RAW)
        deflated = encode_image(flat, ImageFormat.DEFLATE)
        assert deflated.byte_size < raw.byte_size / 4

    def test_rle_compresses_runs(self):
        flat = np.zeros((16, 16, 4), dtype=np.float32)
        raw = encode_image(flat, ImageFormat.RAW)
        rle = encode_image(flat, ImageFormat.RLE)
        assert rle.byte_size < raw.byte_size


class TestValidation:
    def test_bad_magic_rejected(self):
        bogus = EncodedImage(
            format=ImageFormat.RAW, payload=b"XXXX" + b"\0" * 20,
            width=1, height=1,
        )
        with pytest.raises(ValueError):
            decode_image(bogus)

    def test_format_header_mismatch_rejected(self, pixels):
        encoded = encode_image(pixels, ImageFormat.RAW)
        tampered = EncodedImage(
            format=ImageFormat.RLE, payload=encoded.payload,
            width=encoded.width, height=encoded.height,
        )
        with pytest.raises(ValueError):
            decode_image(tampered)

    def test_rgb_input_rejected(self, rng):
        with pytest.raises(ValueError):
            encode_image(rng.random((4, 4, 3)).astype(np.float32),
                         ImageFormat.RAW)

    def test_corrupt_rle_rejected(self):
        from repro.browser.codecs import _rle_decode
        with pytest.raises(ValueError):
            _rle_decode(b"\x01\x02\x03")


class TestFormatForUrl:
    def test_extension_mapping(self):
        assert format_for_url("https://x/img.png") is ImageFormat.DEFLATE
        assert format_for_url("https://x/img.jpg") is ImageFormat.QUANT
        assert format_for_url("https://x/img.jpeg") is ImageFormat.QUANT
        assert format_for_url("https://x/img.gif") is ImageFormat.RLE
        assert format_for_url("https://x/img.bin") is ImageFormat.RAW

    def test_decode_cost_factors_ordered(self):
        assert (ImageFormat.RAW.decode_cost_factor
                < ImageFormat.RLE.decode_cost_factor
                < ImageFormat.DEFLATE.decode_cost_factor
                < ImageFormat.QUANT.decode_cost_factor)
