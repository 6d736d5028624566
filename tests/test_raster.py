import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import convolve_at
from rovercv.geometry import LaneConfig, detect_lane, largest_rectangle
from rovercv.raster import (
    Raster,
    _resize_bilinear,
    blurred_gray,
    read_pnm,
    resize_bilinear,
    sobel_magnitude,
    threshold_binary,
    to_grayscale,
    write_pnm,
)
from rovercv.segmentation import SegmentConfig, segment_floor

# the 3x3 weights the blur and Sobel stages compute as separable passes
GAUSSIAN = [[1, 2, 1], [2, 4, 2], [1, 2, 1]]  # then divided by 16
SOBEL_X = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
SOBEL_Y = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]


def gray(arr):
    return Raster(np.asarray(arr, dtype=np.uint8))


def rgb(arr):
    return Raster(np.asarray(arr, dtype=np.uint8))


def random_gray(rng, h=12, w=17):
    return gray(rng.integers(0, 256, size=(h, w)))


class TestRasterType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Raster(np.zeros((4, 4, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            Raster(np.zeros((0, 3), dtype=np.uint8))

    def test_out_of_range_values_rejected(self):
        for bad in ([[300, -1]], [[256.0]], [[-0.5]], [[np.nan]]):
            with pytest.raises(ValueError, match="0..255"):
                Raster(np.array(bad))
        assert (Raster(np.array([[0, 255]])).pixels == [[0, 255]]).all()
        assert Raster(np.array([[0.0, 255.0]])).pixels.dtype == np.uint8

    def test_fractional_values_rejected(self):
        for bad in ([[12.7, 254.9]], [[0.5]], [[254.999]]):
            with pytest.raises(ValueError, match="whole numbers"):
                Raster(np.array(bad))
        assert (Raster(np.array([[12.0, 254.0]])).pixels == [[12, 254]]).all()
        assert (Raster(np.array([[True, False]])).pixels == [[1, 0]]).all()

    def test_dimensions(self):
        r = rgb(np.zeros((5, 7, 3)))
        assert (r.width, r.height, r.channels) == (7, 5, 3)


class TestGrayscale:
    def test_white_maps_to_white(self):
        r = rgb(np.full((2, 2, 3), 255))
        assert (to_grayscale(r).pixels == 255).all()

    def test_black_maps_to_black(self):
        r = rgb(np.zeros((2, 2, 3)))
        assert (to_grayscale(r).pixels == 0).all()

    def test_pure_red(self):
        r = rgb(np.tile(np.array([255, 0, 0], dtype=np.uint8), (3, 3, 1)))
        assert (to_grayscale(r).pixels == 76).all()  # round(0.299 * 255)

    def test_rejects_gray_input(self):
        with pytest.raises(ValueError, match="already grayscale"):
            to_grayscale(gray(np.zeros((2, 2))))


def hand_blur(arr, passes):
    """Blur passes by hand, each rounded to whole pixels before the next."""
    h, w = arr.shape
    for _ in range(passes):
        arr = np.array([[round(convolve_at(arr, GAUSSIAN, x, y) / 16) for x in range(w)]
                        for y in range(h)], dtype=np.uint8)
    return arr


def hand_sobel(arr):
    h, w = arr.shape
    return np.array([[min(round(math.hypot(convolve_at(arr, SOBEL_X, x, y),
                                           convolve_at(arr, SOBEL_Y, x, y))), 255)
                      for x in range(w)] for y in range(h)], dtype=np.uint8)


class TestBlurredGray:
    def test_gaussian_on_constant(self):
        img = gray(np.full((9, 9), 77))
        assert (blurred_gray(img, 1).pixels == 77).all()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.booleans(), st.integers(0, 3),
           st.integers(0, 2**32 - 1))
    @example(1, 1, False, 3, 0)
    @example(1, 9, True, 2, 1)
    @example(9, 1, False, 1, 2)
    def test_blur_and_sobel_equal_hand_convolution(self, h, w, color, passes, seed):
        rng = np.random.default_rng(seed)
        img = Raster(rng.integers(0, 256, size=(h, w, 3) if color else (h, w)).astype(np.uint8))
        start = to_grayscale(img).pixels if color else img.pixels
        blurred = blurred_gray(img, passes)
        assert (blurred.pixels == hand_blur(start, passes)).all()
        assert (sobel_magnitude(blurred).pixels == hand_sobel(blurred.pixels)).all()


@pytest.mark.parametrize("run, message", [
    (lambda img: blurred_gray(img, -2), "blur passes must be non-negative, got -2"),
    (lambda img: detect_lane(img, LaneConfig(blur_passes=-1)),
     "blur_passes must be an integer at least 0, got -1"),
    (lambda img: segment_floor(img, "otsu", SegmentConfig(blur_passes=-3)),
     "blur passes must be non-negative, got -3"),
    (lambda img: largest_rectangle(img, blur_passes=-1),
     "blur passes must be non-negative, got -1"),
], ids=["blurred_gray", "lanes", "segmentation", "calibration"])
def test_negative_blur_passes_rejected(run, message):
    # blurred_gray is the one blur of lanes, segmentation and calibration; the
    # lane config rejects the passes first, as they size its edge stage's crop
    img = rgb(np.random.default_rng(3).integers(0, 256, (24, 32, 3)))
    with pytest.raises(ValueError, match=f"{message}$"):
        run(img)


class TestSobelMagnitude:
    def test_step_matches_hand_convolution(self):
        step = np.zeros((6, 6), dtype=np.uint8)
        step[:, 3:] = 255
        assert convolve_at(step, SOBEL_X, 2, 2) == 1020
        assert convolve_at(step, SOBEL_Y, 2, 2) == 0
        assert sobel_magnitude(gray(step)).pixels[2, 2] == 255  # clamp(1020)

    def test_matches_hand_convolution_everywhere(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(7, 8)).astype(np.uint8)
        assert (sobel_magnitude(gray(img)).pixels == hand_sobel(img)).all()

    def test_requires_grayscale(self):
        with pytest.raises(ValueError, match="expected a grayscale raster"):
            sobel_magnitude(rgb(np.zeros((4, 4, 3))))

    def test_constant_image_is_zero(self):
        assert (sobel_magnitude(gray(np.full((8, 8), 123))).pixels == 0).all()

    def test_vertical_step_localized(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[:, 5:] = 200
        mag = sobel_magnitude(gray(img)).pixels
        nonzero_cols = np.unique(np.nonzero(mag)[1])
        assert set(nonzero_cols) <= {4, 5}

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
        direct = sobel_magnitude(gray(img.T)).pixels
        assert (direct == sobel_magnitude(gray(img)).pixels.T).all()


class TestThreshold:
    def test_zero_threshold_all_white(self):
        rng = np.random.default_rng(3)
        img = random_gray(rng)
        assert (threshold_binary(img, 0).pixels == 255).all()

    def test_boundary_inclusive(self):
        assert threshold_binary(gray([[128]]), 128).pixels[0, 0] == 255

    def test_strictly_below(self):
        assert threshold_binary(gray([[254]]), 255).pixels[0, 0] == 0


class TestPnm:
    def test_p5_payload_order(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])
        r = read_pnm(data)
        assert r.channels == 1 and r.width == 2 and r.height == 2
        assert r.pixels.ravel().tolist() == [0, 64, 128, 255]

    def test_comments_and_whitespace(self):
        data = b"P5 # magic\n# a comment line\n 2\t2 # dims\n255\n" + bytes(4)
        assert read_pnm(data).width == 2

    def test_round_trip_identity(self):
        rng = np.random.default_rng(4)
        for shape in ((5, 6), (4, 3, 3)):
            img = Raster(rng.integers(0, 256, size=shape).astype(np.uint8))
            again = read_pnm(write_pnm(img))
            assert (again.pixels == img.pixels).all()

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="malformed header"):
            read_pnm(b"P3\n2 2\n255\n" + bytes(12))

    def test_bad_maxval(self):
        with pytest.raises(ValueError, match="unsupported maxval"):
            read_pnm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_truncated_payload(self):
        with pytest.raises(ValueError, match="truncated payload"):
            read_pnm(b"P6\n2 2\n255\n" + bytes(5))

    @pytest.mark.parametrize("data, message", [
        (b"P5\n2 2", "malformed header: unexpected end of data"),
        (b"P5 # 2 2 255\n", "malformed header: unexpected end of data"),
        (b"P5\n2 x\n255\n" + bytes(4), "malformed header: non-numeric field b'x'"),
        (b"P5\n0 2\n255\n", "malformed header: non-positive dimensions"),
        (b"P5\n2 -1\n255\n", "malformed header: non-positive dimensions"),
        (b"P5\n2 2\n255", "malformed header: missing whitespace before payload"),
        (b"P5\n2 2\n255#" + bytes(4), "malformed header: missing whitespace before payload"),
    ])
    def test_malformed_header(self, data, message):
        with pytest.raises(ValueError) as exc:
            read_pnm(data)
        assert str(exc.value) == message

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, w, h, color, seed):
        rng = np.random.default_rng(seed)
        shape = (h, w, 3) if color else (h, w)
        img = Raster(rng.integers(0, 256, size=shape).astype(np.uint8))
        assert (read_pnm(write_pnm(img)).pixels == img.pixels).all()


class TestResize:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
    @example(1, 1, False, 0)
    @example(1, 9, True, 1)
    @example(9, 1, False, 2)
    @example(96, 1280, True, 3)
    def test_same_size_is_identity(self, h, w, color, seed):
        # a copy of the input, which is what the bilinear resample gives there
        px = np.random.default_rng(seed).integers(0, 256, (h, w, 3) if color else (h, w))
        img = Raster(px.astype(np.uint8))
        out = resize_bilinear(img, w, h).pixels
        assert not np.shares_memory(out, img.pixels)
        assert (out == img.pixels).all()
        assert (np.rint(_resize_bilinear(img.pixels, w, h)) == img.pixels).all()

    def test_constant_preserved(self):
        img = gray(np.full((16, 10), 99))
        assert (resize_bilinear(img, 5, 7).pixels == 99).all()
