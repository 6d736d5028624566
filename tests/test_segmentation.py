import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import (
    best_1d_two_means_split,
    bfs_distance_to_outside,
    brute_otsu,
    component_markers,
    heap_watershed,
)
from scenes import floor_box_scene, stain_scene
from rovercv.raster import Raster, blurred_gray, sobel_magnitude
from rovercv.segmentation import (
    LabelMask,
    SegmentConfig,
    _derive_markers,
    _distance_to_outside,
    kmeans_points,
    kmeans_segment,
    otsu_from_histogram,
    otsu_threshold,
    segment_floor,
    watershed_segment,
)


def gray(arr):
    return Raster(np.asarray(arr, dtype=np.uint8))


class TestOtsu:
    def test_two_value_image(self):
        img = gray(np.repeat([50, 200], 100).reshape(10, 20))
        res = otsu_threshold(img)
        assert res.threshold == 51

    def test_variance_matches_recomputation(self):
        img = gray(np.repeat([50, 200], 100).reshape(10, 20))
        res = otsu_threshold(img)
        hist = np.bincount(img.pixels.ravel(), minlength=256)
        _, var = brute_otsu(hist)
        assert res.between_class_variance == pytest.approx(var, abs=1e-9)

    def test_constant_image_degenerate(self):
        with pytest.raises(ValueError, match="degenerate histogram"):
            otsu_threshold(gray(np.full((5, 5), 42)))

    def test_matches_brute_force_on_random_histograms(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            hist = rng.integers(0, 200, size=256)
            hist[rng.random(256) < 0.6] = 0
            if np.count_nonzero(hist) < 2:
                continue
            expected_t, _ = brute_otsu(hist)
            assert otsu_from_histogram(hist).threshold == expected_t

    def test_random_image_matches_brute_force(self):
        rng = np.random.default_rng(8)
        img = gray(rng.integers(0, 256, size=(30, 30)))
        hist = np.bincount(img.pixels.ravel(), minlength=256)
        assert otsu_threshold(img).threshold == brute_otsu(hist)[0]


class TestKmeans:
    def test_single_cluster_labels_zero(self):
        rng = np.random.default_rng(9)
        img = gray(rng.integers(0, 256, size=(6, 6)))
        mask = kmeans_segment(img, 1)
        assert mask.num_labels == 1
        assert (mask.labels == 0).all()

    def test_bipartition_at_the_gap(self):
        rng = np.random.default_rng(10)
        values = np.concatenate([rng.integers(10, 21, 60), rng.integers(200, 211, 60)])
        rng.shuffle(values)
        img = gray(values.reshape(10, 12))
        mask = kmeans_segment(img, 2)
        split = best_1d_two_means_split(values)
        expected = (values.reshape(10, 12) > split).astype(int)
        assert (mask.labels == expected).all()

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(11)
        pts = rng.integers(0, 256, size=(300, 3)).astype(float)
        _, _, history = kmeans_points(pts, 4, max_iter=50, tol=0.0)
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))

    def test_final_assignment_is_fixed_point(self):
        rng = np.random.default_rng(12)
        pts = np.concatenate([rng.normal(20, 2, (50, 1)), rng.normal(200, 2, (50, 1))])
        labels, centers, _ = kmeans_points(pts, 2, max_iter=100, tol=1e-12)
        d2 = ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assert (d2.argmin(axis=1) == labels).all()

    def test_insufficient_distinct_values(self):
        with pytest.raises(ValueError, match="insufficient distinct pixels"):
            kmeans_segment(gray(np.full((4, 4), 7)), 2)

    def test_labels_ordered_by_mean(self):
        img = gray(np.repeat([200, 10], 50).reshape(10, 10))
        mask = kmeans_segment(img, 2)
        assert mask.labels[0, 0] == 1 and mask.labels[-1, -1] == 0


def seed_mask(shape, seeds):
    labels = np.zeros(shape, dtype=np.int32)
    for (y, x), lab in seeds.items():
        labels[y, x] = lab
    return LabelMask(labels, num_labels=max(seeds.values()) + 1)


class TestWatershed:
    def test_single_seed_floods_everything(self):
        rng = np.random.default_rng(13)
        img = gray(rng.integers(0, 256, size=(9, 9)))
        res = watershed_segment(img, seed_mask((9, 9), {(4, 4): 1}))
        assert (res.regions.labels == 1).all()
        assert not res.lines.any()

    def test_deterministic_on_plateau(self):
        img = gray(np.full((8, 8), 50))
        markers = seed_mask((8, 8), {(4, 0): 1, (4, 7): 2})
        first = watershed_segment(img, markers)
        second = watershed_segment(img, markers)
        assert (first.regions.labels == second.regions.labels).all()
        assert (first.lines == second.lines).all()
        assert set(np.unique(first.regions.labels)) == {1, 2}

    def test_ridge_column_flagged_as_line(self):
        img = np.zeros((7, 7), dtype=np.uint8)
        img[:, 3] = 100  # bright ridge between two flat basins
        markers = seed_mask((7, 7), {(3, 1): 1, (3, 5): 2})
        res = watershed_segment(gray(img), markers)
        assert res.lines[:, 3].all()
        assert not res.lines[:, :3].any() and not res.lines[:, 4:].any()
        assert (res.regions.labels[:, :3] == 1).all()
        assert (res.regions.labels[:, 4:] == 2).all()

    def test_no_markers(self):
        with pytest.raises(ValueError, match="no markers"):
            watershed_segment(gray(np.zeros((4, 4))), LabelMask(np.zeros((4, 4), int), 1))

    def test_covers_all_pixels_with_seed_labels(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            img = gray(rng.integers(0, 256, size=(12, 15)))
            seeds = {(int(rng.integers(0, 12)), int(rng.integers(0, 15))): k + 1
                     for k in range(3)}
            res = watershed_segment(img, seed_mask((12, 15), seeds))
            present = set(np.unique(res.regions.labels))
            assert 0 not in present
            assert present <= set(seeds.values())


def assert_matches_heap_oracle(img, markers):
    got, want = watershed_segment(img, markers), heap_watershed(img, markers)
    assert got.regions.num_labels == want.regions.num_labels
    assert np.array_equal(got.regions.labels, want.regions.labels)
    assert got.lines.dtype == want.lines.dtype
    assert np.array_equal(got.lines, want.lines)


class TestWatershedMatchesHeapOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.sampled_from([1, 2, 3, 16, 256]),
           st.sampled_from([0.01, 0.05, 0.3, 0.9]), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_random_terrain_and_markers(self, h, w, levels, density, n_labels, seed):
        # few height levels make plateaus, where pixel order decides every tie
        rng = np.random.default_rng(seed)
        img = gray(rng.integers(0, levels, size=(h, w)) * (255 // max(levels - 1, 1)))
        seeds = np.where(rng.random((h, w)) < density, rng.integers(1, n_labels + 1, (h, w)), 0)
        seeds[rng.integers(h), rng.integers(w)] = n_labels
        assert_matches_heap_oracle(img, LabelMask(seeds, num_labels=n_labels + 1))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (9, 13)])
    def test_constant_plateau(self, shape):
        h, w = shape
        seeds = {(0, 0): 1, (h - 1, w - 1): 2, (h // 2, w // 2): 3}
        assert_matches_heap_oracle(gray(np.full(shape, 90)), seed_mask(shape, seeds))

    def test_touching_markers(self):
        rng = np.random.default_rng(15)
        img = gray(rng.integers(0, 4, size=(11, 12)) * 60)
        seeds = np.zeros((11, 12), dtype=np.int32)
        seeds[3:6, 2:5], seeds[3:6, 5:8], seeds[6, 2:8] = 1, 2, 3
        assert_matches_heap_oracle(img, LabelMask(seeds, num_labels=4))
        board = (np.indices((11, 12)).sum(axis=0) % 2 + 1).astype(np.int32)
        board[5, 6] = 0  # the one pixel left to flood meets both labels
        assert_matches_heap_oracle(img, LabelMask(board, num_labels=3))

    def test_every_pixel_seeded(self):
        seeds = np.arange(1, 31, dtype=np.int32).reshape(5, 6)
        res = watershed_segment(gray(np.zeros((5, 6))), LabelMask(seeds, num_labels=31))
        assert np.array_equal(res.regions.labels, seeds)
        assert not res.lines.any()

    @pytest.mark.parametrize("scene", [floor_box_scene, stain_scene])
    def test_segmentation_fixtures(self, scene):
        gray_img = blurred_gray(scene()[0], SegmentConfig().blur_passes)
        markers = _derive_markers(gray_img, SegmentConfig().marker_dist_frac)
        assert_matches_heap_oracle(sobel_magnitude(gray_img), markers)


def component_seeded_floor(img, cfg):
    """segment_floor's watershed mask, flooded from seeds numbered per core
    component (``component_markers``) and folded back to the two sides."""
    gray_img = blurred_gray(img, cfg.blur_passes)
    markers, side = component_markers(gray_img, cfg.marker_dist_frac)
    labels = side[heap_watershed(sobel_magnitude(gray_img), markers).regions.labels]
    return (labels != labels[gray_img.height - 1, gray_img.width // 2]).astype(np.int32)


class TestSideSeeds:
    """One seed label per side of the Otsu split floods to the mask that seeds
    numbered per core component give, once their basins are folded to sides."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.sampled_from([2, 3, 16, 256]),
           st.booleans(), st.integers(0, 2), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @example(64, 96, 256, True, 1, 0.5, 0)  # RGB noise the size of a ground view
    @example(12, 16, 2, False, 0, 0.5, 3)  # two-level plateaus, unblurred
    @example(9, 9, 2, False, 0, 0.0, 5)  # every cell of each side a seed
    def test_equals_per_component_seeds(self, h, w, levels, rgb, blur_passes, dist_frac, seed):
        rng = np.random.default_rng(seed)
        px = rng.integers(0, levels, size=(h, w, 3) if rgb else (h, w)) * (255 // (levels - 1))
        img = Raster(px.astype(np.uint8))
        cfg = SegmentConfig(blur_passes=blur_passes, marker_dist_frac=dist_frac)
        try:
            want = component_seeded_floor(img, cfg)
        except ValueError as exc:
            event(str(exc).split(":")[0])
            with pytest.raises(ValueError, match=str(exc).split(":")[0]):
                segment_floor(img, "watershed", cfg)
            return
        got = segment_floor(img, "watershed", cfg)
        assert got.num_labels == 2
        assert np.array_equal(got.labels, want)

    @pytest.mark.parametrize("scene", [floor_box_scene, stain_scene])
    @pytest.mark.parametrize("blur_passes", [0, 1, 2])
    def test_equals_per_component_seeds_on_scenes(self, scene, blur_passes):
        img = scene()[0]
        cfg = SegmentConfig(blur_passes=blur_passes)
        assert np.array_equal(segment_floor(img, "watershed", cfg).labels,
                              component_seeded_floor(img, cfg))


class TestDistanceToOutside:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @example(5, 7, 1.0, 0)  # no outside at all
    @example(5, 7, 0.0, 0)  # no region at all
    def test_equals_breadth_first_search(self, h, w, density, seed):
        region = np.random.default_rng(seed).random((h, w)) < density
        got = _distance_to_outside(region)
        assert np.array_equal(got, bfs_distance_to_outside(region))

    @pytest.mark.parametrize("scene", [floor_box_scene, stain_scene])
    def test_equals_breadth_first_search_on_scene_splits(self, scene):
        gray_img = blurred_gray(scene()[0], SegmentConfig().blur_passes)
        fg = gray_img.pixels >= otsu_threshold(gray_img).threshold
        for region in (fg, ~fg):
            assert np.array_equal(_distance_to_outside(region), bfs_distance_to_outside(region))


class TestSegmentFloor:
    @pytest.mark.parametrize("method", ["otsu", "kmeans", "watershed"])
    def test_box_scene_matches_truth(self, method):
        img, truth = floor_box_scene()
        mask = segment_floor(img, method)
        agreement = (mask.labels == truth).mean()
        assert agreement >= 0.99, f"{method}: {agreement:.4f}"

    def test_all_floor_propagates_degenerate_error(self):
        with pytest.raises(ValueError, match="degenerate histogram"):
            segment_floor(gray(np.full((20, 20), 150)), "otsu")

    @pytest.mark.parametrize("method", ["otsu", "kmeans", "watershed"])
    def test_stain_not_labeled_obstacle(self, method):
        img, (sx, sy, sw, sh) = stain_scene()
        mask = segment_floor(img, method)
        stain_region = mask.labels[sy:sy + sh, sx:sx + sw]
        assert stain_region.sum() < 0.01 * sw * sh

    def test_output_is_binary_and_anchored(self):
        img, _ = floor_box_scene()
        mask = segment_floor(img, "otsu")
        assert mask.num_labels == 2
        assert set(np.unique(mask.labels)) <= {0, 1}
        assert mask.labels[img.height - 1, img.width // 2] == 0

    def test_unknown_method(self):
        img, _ = floor_box_scene()
        with pytest.raises(ValueError, match="unknown segmentation method"):
            segment_floor(img, "bogus")
