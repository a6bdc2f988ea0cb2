"""Raster primitives."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import ndimage

from repro.synth import drawing


class TestBlank:
    def test_shape_and_alpha(self):
        img = drawing.blank(10, 20)
        assert img.shape == (10, 20, 4)
        assert (img[..., 3] == 1.0).all()
        assert img.dtype == np.float32

    def test_color_fill(self):
        img = drawing.blank(4, 4, (0.5, 0.25, 0.75))
        assert np.allclose(img[0, 0, :3], [0.5, 0.25, 0.75])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            drawing.blank(0, 5)


class TestFillRect:
    def test_fills_exact_region(self):
        img = drawing.blank(10, 10, (1, 1, 1))
        drawing.fill_rect(img, 2, 3, 4, 5, (0, 0, 0))
        assert (img[3:8, 2:6, :3] == 0).all()
        assert (img[0, 0, :3] == 1).all()

    def test_clips_out_of_bounds(self):
        img = drawing.blank(4, 4)
        drawing.fill_rect(img, -5, -5, 100, 100, (0, 0, 0))
        assert (img[..., :3] == 0).all()

    def test_fully_outside_is_noop(self):
        img = drawing.blank(4, 4)
        drawing.fill_rect(img, 100, 100, 5, 5, (0, 0, 0))
        assert (img[..., :3] == 1).all()

    def test_alpha_blend(self):
        img = drawing.blank(2, 2, (1, 1, 1))
        drawing.fill_rect(img, 0, 0, 2, 2, (0, 0, 0), alpha=0.5)
        assert np.allclose(img[..., :3], 0.5)


class TestGradientAndNoise:
    def test_vertical_gradient_endpoints(self):
        img = drawing.blank(10, 4)
        drawing.linear_gradient(img, (0, 0, 0), (1, 1, 1), vertical=True)
        assert np.allclose(img[0, 0, :3], 0.0)
        assert np.allclose(img[-1, 0, :3], 1.0)

    def test_horizontal_gradient(self):
        img = drawing.blank(4, 10)
        drawing.linear_gradient(img, (0, 0, 0), (1, 1, 1), vertical=False)
        assert np.allclose(img[0, 0, :3], 0.0)
        assert np.allclose(img[0, -1, :3], 1.0)

    def test_noise_stays_in_range(self, rng):
        img = drawing.blank(16, 16, (0.5, 0.5, 0.5))
        drawing.add_noise(img, rng, sigma=0.5)
        assert img[..., :3].min() >= 0.0
        assert img[..., :3].max() <= 1.0

    def test_zero_sigma_noop(self, rng):
        img = drawing.blank(4, 4, (0.3, 0.3, 0.3))
        before = img.copy()
        drawing.add_noise(img, rng, sigma=0.0)
        assert np.array_equal(img, before)


class TestShapes:
    def test_circle_center_filled(self):
        img = drawing.blank(11, 11)
        drawing.draw_circle(img, 5, 5, 3, (0, 0, 0))
        assert (img[5, 5, :3] == 0).all()
        assert (img[0, 0, :3] == 1).all()

    def test_border_frames_canvas(self):
        img = drawing.blank(10, 10)
        drawing.draw_border(img, 1, (0, 0, 0))
        assert (img[0, :, :3] == 0).all()
        assert (img[-1, :, :3] == 0).all()
        assert (img[:, 0, :3] == 0).all()
        assert (img[5, 5, :3] == 1).all()

    def test_smooth_blobs_low_frequency(self, rng):
        img = drawing.smooth_blobs(32, 32, rng, scale=6.0)
        # adjacent-pixel differences should be small (smooth field)
        dx = np.abs(np.diff(img[..., 0], axis=0)).mean()
        assert dx < 0.05


class TestTextAndCues:
    def test_glyph_row_draws_dark_pixels(self, rng):
        img = drawing.blank(10, 40)
        drawing.glyph_row(img, 2, 3, 35, 3, rng, (0, 0, 0))
        region = img[3:6, 2:37, :3]
        assert (region < 0.5).any()

    def test_text_block_multiple_lines(self, rng):
        img = drawing.blank(30, 40)
        drawing.text_block(img, 2, 2, 36, 4, rng, glyph_height=3)
        assert (img[..., :3] < 0.5).sum() > 20

    def test_adchoices_marker_in_top_right(self, rng):
        img = drawing.blank(40, 40, (0.2, 0.6, 0.2))
        drawing.adchoices_marker(img, rng)
        corner = img[:14, 26:, :3]
        rest_mean = img[20:, :20, :3].mean()
        assert abs(corner.mean() - rest_mean) > 0.05

    def test_cta_button_lower_half(self, rng):
        img = drawing.blank(40, 60, (1, 1, 1))
        drawing.cta_button(img, rng, color=(1, 0, 0))
        lower = img[24:, :, 0] - img[24:, :, 1]
        assert lower.max() > 0.5  # red pixels appeared below midline


class TestResize:
    def test_exact_size(self, rng):
        img = rng.random((30, 50, 4)).astype(np.float32)
        out = drawing.resize_bitmap(img, 32, 32)
        assert out.shape == (32, 32, 4)

    def test_identity_when_same_size(self, rng):
        img = rng.random((16, 16, 4)).astype(np.float32)
        out = drawing.resize_bitmap(img, 16, 16)
        assert np.allclose(out, img)
        assert out is not img  # defensive copy

    def test_upscale_and_downscale(self, rng):
        img = rng.random((8, 8, 4)).astype(np.float32)
        assert drawing.resize_bitmap(img, 32, 32).shape == (32, 32, 4)
        big = rng.random((100, 60, 4)).astype(np.float32)
        assert drawing.resize_bitmap(big, 16, 24).shape == (16, 24, 4)

    def test_output_in_range(self, rng):
        img = rng.random((20, 20, 4)).astype(np.float32)
        out = drawing.resize_bitmap(img, 7, 13)
        assert out.min() >= 0.0
        assert out.max() <= 1.0


def _scipy_resize(img, height, width):
    """The reference ``resize_bitmap`` reproduces: scipy's order-1 zoom
    with edge clamping, clipped to [0, 1], as float32."""
    zoom = (height / img.shape[0], width / img.shape[1], 1.0)
    out = ndimage.zoom(img, zoom, order=1, mode="nearest")
    assert out.shape[:2] == (height, width)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestResizeScipyParity:
    @settings(max_examples=150, deadline=None)
    @given(
        src_h=st.integers(1, 301), src_w=st.integers(1, 250),
        height=st.one_of(st.integers(1, 80), st.sampled_from([224])),
        width=st.one_of(st.integers(1, 80), st.sampled_from([224])),
        channels=st.sampled_from([1, 3, 4]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_ndimage_zoom(
        self, src_h, src_w, height, width, channels, dtype, seed
    ):
        assume((src_h, src_w) != (height, width))
        img = np.random.default_rng(seed).random((src_h, src_w, channels))
        img = img.astype(dtype)
        _assert_bitwise(
            drawing.resize_bitmap(img, height, width),
            _scipy_resize(img, height, width),
        )

    def test_unclamped_coordinate_past_the_last_pixel(self):
        # the last output column's coordinate, 71 * (249 / 71), lands a
        # hair past source column 249; scipy interpolates there instead
        # of clamping, and clamping it changes this frame's last column
        assert 71 * (249 / 71) > 249
        img = np.random.default_rng(275).random((69, 250, 4))
        img = img.astype(np.float32)
        got = drawing.resize_bitmap(img, 60, 72)
        want = _scipy_resize(img, 60, 72)
        _assert_bitwise(got[:, -1], want[:, -1])
        _assert_bitwise(got, want)

    def test_upper_weight_is_one_minus_lower(self):
        # scipy derives the upper tap's weight as 1 - (1 - t); using t
        # itself moves this upscale by one ulp
        img = np.random.default_rng(0).random((8, 3, 4), dtype=np.float32)
        _assert_bitwise(
            drawing.resize_bitmap(img, 29, 16), _scipy_resize(img, 29, 16)
        )

    def test_negative_zero_reads_positive_zero(self):
        img = np.full((5, 7, 4), -0.0, dtype=np.float32)
        _assert_bitwise(
            drawing.resize_bitmap(img, 3, 4), _scipy_resize(img, 3, 4)
        )

    def test_single_pixel_axes(self, rng):
        img = rng.random((1, 9, 4)).astype(np.float32)
        for height, width in [(5, 4), (1, 5), (3, 1), (1, 1)]:
            _assert_bitwise(
                drawing.resize_bitmap(img, height, width),
                _scipy_resize(img, height, width),
            )

    def test_integer_bitmap_rejected(self):
        with pytest.raises(TypeError):
            drawing.resize_bitmap(np.zeros((4, 4, 4), np.uint8), 2, 2)


def _scipy_blur(field, sigma):
    """The reference ``gaussian_blur`` reproduces."""
    return ndimage.gaussian_filter(field, sigma=sigma, mode="reflect")


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    unsigned = f"u{got.itemsize}"
    np.testing.assert_array_equal(got.view(unsigned), want.view(unsigned))


class TestBlurScipyParity:
    @settings(max_examples=150, deadline=None)
    @given(
        # narrow fields on purpose: most are narrower than the 4-sigma
        # radius, so the edge reflects more than once
        height=st.one_of(st.integers(1, 12), st.integers(1, 140)),
        width=st.one_of(st.integers(1, 12), st.integers(1, 140)),
        # contentgen blurs photos at sigma 3-7 and product shots at 5
        sigma=st.one_of(
            st.floats(0.3, 9.0), st.floats(3.0, 7.0), st.just(5.0)
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_gaussian_filter(
        self, height, width, sigma, dtype, seed
    ):
        field = np.random.default_rng(seed).random((height, width))
        field = field.astype(dtype)
        _assert_same_bits(
            drawing.gaussian_blur(field, sigma), _scipy_blur(field, sigma)
        )

    @pytest.mark.parametrize("sigma", [3.0, 5.0, 7.0])
    def test_kernel_weights(self, sigma):
        # scipy's taps are exp(-0.5 / sigma**2 * x**2) over their sum;
        # exp(-x**2 / (2 * sigma**2)) differs in the last bit at 3 and
        # 7, and a Polynomial evaluation of the exponent at 5 and 7.
        # An impulse through scipy's 1-D filter reads the taps back.
        radius = int(4.0 * sigma + 0.5)
        impulse = np.zeros(2 * radius + 1)
        impulse[radius] = 1.0
        _assert_same_bits(
            drawing._gaussian_weights(sigma),
            ndimage.gaussian_filter1d(impulse, sigma, mode="constant"),
        )

    def test_pairs_summed_outermost_first(self):
        # adding the (left + right) * w pairs innermost first moves
        # this float64 field in the last bit
        field = np.random.default_rng(0).random((9, 16))
        _assert_same_bits(
            drawing.gaussian_blur(field, 5.0), _scipy_blur(field, 5.0)
        )

    def test_repeated_reflection(self):
        # a 3 x 5 field under a radius-20 kernel: the edge reflects
        # again and again (d c b a | a b c d | d c b a ...); reflecting
        # once and clamping beyond that does not match
        field = np.random.default_rng(0).random((3, 5), dtype=np.float32)
        _assert_same_bits(
            drawing.gaussian_blur(field, 5.0), _scipy_blur(field, 5.0)
        )

    def test_rounded_to_float32_between_axes(self):
        # scipy writes the row pass into the float32 output before the
        # column pass reads it; carrying float64 across does not match
        field = np.random.default_rng(0).random((12, 10), dtype=np.float32)
        _assert_same_bits(
            drawing.gaussian_blur(field, 3.0), _scipy_blur(field, 3.0)
        )

    def test_non_positive_sigma_rejected(self):
        with pytest.raises(ValueError):
            drawing.gaussian_blur(np.zeros((4, 4), np.float32), 0.0)
