import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import area_average_downsample, naive_hog
from rovercv.features import FeatureConfig, HogParams, extract_features, hog
from rovercv.raster import Raster


def gray(arr):
    return Raster(np.asarray(arr, dtype=np.uint8))


def rgb(arr):
    return Raster(np.asarray(arr, dtype=np.uint8))


def part(patch, name, cfg=FeatureConfig()):
    """The ``name`` span of a 64x64 RGB patch's descriptor."""
    fv = extract_features(patch, cfg)
    start, stop = fv.layout[name]
    return fv.values[start:stop]


class TestHog:
    def test_default_length(self):
        rng = np.random.default_rng(0)
        out = hog(gray(rng.integers(0, 256, (64, 64))))
        assert out.shape == ((8 - 2 + 1) ** 2 * 4 * 9,)
        assert len(out) == 1764

    def test_constant_patch_all_zeros(self):
        out = hog(gray(np.full((64, 64), 137)))
        assert (out == 0).all()

    def test_matches_naive_oracle_16(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            patch = rng.integers(0, 256, (16, 16))
            fast = hog(gray(patch))
            slow = naive_hog(patch)
            assert np.abs(fast - slow).max() <= 1e-9

    def test_matches_naive_oracle_64(self):
        rng = np.random.default_rng(2)
        patch = rng.integers(0, 256, (64, 64))
        assert np.abs(hog(gray(patch)) - naive_hog(patch)).max() <= 1e-9

    def test_offset_invariance(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 156, (32, 32))
        shifted = base + 100
        assert (hog(gray(base)) == hog(gray(shifted))).all()

    def test_scale_invariance_of_blocks(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 64, (32, 32))
        for c in (2, 3):
            scaled = base * c  # stays within uint8, so scaling is exact
            assert np.abs(hog(gray(base)) - hog(gray(scaled))).max() <= 1e-6

    def test_non_divisible_dims_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            hog(gray(np.zeros((30, 32))))

    def test_rejects_color(self):
        with pytest.raises(ValueError):
            hog(rgb(np.zeros((64, 64, 3))))


class TestColorHistogram:
    def test_pure_red_constant(self):
        patch = rgb(np.tile(np.array([255, 0, 0], np.uint8), (64, 64, 1)))
        h = part(patch, "color_hist")
        r, g, b = h[:32], h[32:64], h[64:]
        assert r[31] == 4096 and r.sum() == 4096
        assert g[0] == 4096 and b[0] == 4096

    def test_boundary_bins(self):
        patch = rgb(np.tile(np.array([0, 255, 128], np.uint8), (64, 64, 1)))
        h = part(patch, "color_hist")
        assert h[0] == 4096          # value 0 -> first red bin
        assert h[32 + 31] == 4096    # value 255 -> last green bin
        assert h[64 + 16] == 4096    # value 128 -> bin 16 of blue

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_per_channel_totals(self, bins, seed):
        rng = np.random.default_rng(seed)
        patch = rgb(rng.integers(0, 256, (64, 64, 3)))
        hist = part(patch, "color_hist", FeatureConfig(hist_bins=bins))
        assert len(hist) == 3 * bins
        for c in range(3):
            assert hist[c * bins:(c + 1) * bins].sum() == 64 * 64


class TestSpatialFeatures:
    def test_identity_flatten(self):
        rng = np.random.default_rng(5)
        patch = rng.integers(0, 256, (64, 64, 3))
        out = part(rgb(patch), "spatial", FeatureConfig(spatial_px=64))
        assert (out == patch.reshape(-1)).all()

    def test_constant_patch(self):
        out = part(rgb(np.full((64, 64, 3), 201)), "spatial")
        assert (out == 201.0).all()
        assert len(out) == 32 * 32 * 3

    def test_checkerboard_mean_close_to_area_average(self):
        yy, xx = np.mgrid[0:64, 0:64]
        board = np.where((xx // 4 + yy // 4) % 2 == 0, 255, 0)
        out = part(rgb(np.repeat(board[..., None], 3, axis=2)), "spatial")
        oracle = area_average_downsample(board, 2)
        assert out.min() >= 0 and out.max() <= 255
        assert abs(out.mean() - oracle.mean()) <= 1.0


class TestExtractFeatures:
    def test_default_total_length(self):
        rng = np.random.default_rng(6)
        patch = rgb(rng.integers(0, 256, (64, 64, 3)))
        fv = extract_features(patch)
        assert len(fv.values) == 1764 + 96 + 3072 == 4932

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        patch = rgb(rng.integers(0, 256, (64, 64, 3)))
        assert (extract_features(patch).values == extract_features(patch).values).all()

    def test_layout_covers_vector(self):
        rng = np.random.default_rng(8)
        fv = extract_features(rgb(rng.integers(0, 256, (64, 64, 3))))
        spans = sorted(fv.layout.values())
        assert spans[0][0] == 0
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c
        assert spans[-1][1] == len(fv.values)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="expected a 64x64"):
            extract_features(rgb(np.zeros((32, 32, 3))))

    def test_per_channel_hog_length(self):
        rng = np.random.default_rng(9)
        cfg = FeatureConfig(hog=HogParams(per_channel=True))
        fv = extract_features(rgb(rng.integers(0, 256, (64, 64, 3))), cfg)
        assert fv.layout["hog"] == (0, 3 * 1764)
        assert len(fv.values) == 3 * 1764 + 96 + 3072
