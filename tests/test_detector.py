import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import list_detect_sequence, per_component_boxes, per_window_features
from scenes import frame_with_cars, noise_frame, training_set
from rovercv.classifier import LinearModel, svm_score_many, svm_train
from rovercv.detector import (
    DEFAULT_BANDS,
    BandConfig,
    Detection,
    DetectorConfig,
    detect_cars,
    detect_sequence,
    draw_boxes,
    heatmap_fuse,
    iter_windows,
    plan_windows,
    threshold_boxes,
    _band_features,
    _scaled_band,
)
from rovercv.features import FeatureConfig, HogParams, extract_features, feature_layout
from rovercv.raster import Raster

TEST_BANDS = (BandConfig(32, 96, 64, 16), BandConfig(0, 128, 128, 32))


@pytest.fixture(scope="module")
def car_model():
    rng = np.random.default_rng(123)
    cars, noise = training_set(rng, n_per_class=100)
    X = np.vstack([extract_features(p).values for p in cars + noise])
    y = np.concatenate([np.ones(len(cars)), -np.ones(len(noise))])
    return svm_train(X, y, seed=42)


def window_rows(frame, plan):
    """((band, x, y), descriptor) per window in plan order, as detection composes them."""
    rows = (row for matrix in _band_features(frame, plan) for row in matrix)
    return [((b, x, y), fv) for (b, y, x), fv in zip(iter_windows(plan), rows)]


def random_model(rng):
    return LinearModel(weights=rng.normal(size=feature_layout(FeatureConfig())["spatial"][1]),
                       bias=0.0, feat_mean=np.zeros(1), feat_std=np.ones(1), lambda_=1e-4,
                       epochs=1, seed=0)


def iou(a, b):
    ax0, ay0, ax1, ay1 = a[0], a[1], a[0] + a[2], a[1] + a[3]
    bx0, by0, bx1, by1 = b[0], b[1], b[0] + b[2], b[1] + b[3]
    iw = max(0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


class TestPlanWindows:
    def test_closed_form_example(self):
        plan = plan_windows(1280, 720, [BandConfig(400, 656, 64, 16)])
        assert plan.counts == ((77, 13),)
        assert plan.total_windows == 1001

    def test_single_window_boundary(self):
        plan = plan_windows(64, 100, [BandConfig(20, 84, 64, 16)])
        assert plan.total_windows == 1
        assert list(iter_windows(plan)) == [(0, 20, 0)]

    def test_default_band_set_total(self):
        plan = plan_windows(1280, 720, DEFAULT_BANDS)
        assert plan.total_windows == 697

    def test_band_outside_frame_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            plan_windows(1280, 720, [BandConfig(600, 740, 64, 16)])

    def test_misaligned_stride_rejected(self):
        with pytest.raises(ValueError, match="cell"):
            plan_windows(1280, 720, [BandConfig(400, 656, 64, 12)])
        with pytest.raises(ValueError, match="cell-aligned"):
            plan_windows(1280, 720, [BandConfig(400, 656, 96, 8)])

    def test_patch_off_the_cell_grid_rejected(self):
        with pytest.raises(ValueError, match="64 px patch is not a multiple of the 12 px HOG cell"):
            plan_windows(1280, 720, DEFAULT_BANDS, FeatureConfig(hog=HogParams(cell_px=12)))

    def test_plan_carries_its_features(self):
        fc = FeatureConfig(hog=HogParams(cell_px=16), spatial_px=8)
        assert plan_windows(1280, 720, [BandConfig(400, 656, 64, 32)], fc).features is fc
        assert plan_windows(1280, 720, DEFAULT_BANDS).features == FeatureConfig()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 6), st.integers(1, 5),
           st.sampled_from([(64, 16), (64, 32), (96, 24), (128, 32), (128, 64), (320, 160)]))
    def test_enumeration_matches_count(self, y_top, extra_h, extra_w, window_stride):
        window, stride = window_stride
        frame_w = window + extra_w * stride + 3
        y_bottom = y_top + window + extra_h * stride
        plan = plan_windows(frame_w, y_bottom + 2, [BandConfig(y_top, y_bottom, window, stride)])
        placements = list(iter_windows(plan))
        assert len(placements) == plan.total_windows
        nx, ny = plan.counts[0]
        assert nx == (frame_w - window) // stride + 1
        assert ny == (y_bottom - y_top - window) // stride + 1
        assert placements == sorted(placements)


class TestSubsampling:
    def test_subsampled_features_equal_direct_extraction(self):
        rng = np.random.default_rng(77)
        frame = noise_frame(rng, w=256, h=128)
        plan = plan_windows(256, 128, TEST_BANDS)
        checked = 0
        for (b, x, y), fv in window_rows(frame, plan):
            band = plan.bands[b]
            nx, ny = plan.counts[b]
            scaled, ss = _scaled_band(frame, band, nx, ny, plan.features.patch_px)
            xs = (x // band.stride_px) * ss
            ys = ((y - band.y_top) // band.stride_px) * ss
            patch = Raster(scaled.pixels[ys:ys + 64, xs:xs + 64])
            direct = extract_features(patch, plan.features).values
            assert np.abs(fv - direct).max() <= 1e-9
            checked += 1
        assert checked == plan.total_windows

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([4, 8, 16]), st.booleans(), st.integers(1, 256),
           st.sampled_from([1, 5, 32, 80]),
           st.sampled_from([(64, 8), (64, 16), (64, 32), (96, 24), (96, 48), (128, 32), (128, 64)]),
           st.integers(0, 2), st.integers(0, 2), st.data())
    def test_rows_equal_per_window_oracle(self, cell, per_channel, hist_bins, spatial_px,
                                          window_stride, kx, ky, data):
        """Every window row, and extract_features of the window cut out alone,
        equals the per-window join bit for bit; frames may end exactly at the
        last window (edge-touching) or a few px past it (trimmed bands)."""
        window, stride = window_stride
        assume(stride % cell == 0 and stride * 64 // window % cell == 0)
        cfg = FeatureConfig(hog=HogParams(cell_px=cell, per_channel=per_channel),
                            hist_bins=hist_bins, spatial_px=spatial_px)
        rx = data.draw(st.integers(0, stride - 1))
        ry = data.draw(st.integers(0, stride - 1))
        w, h = window + kx * stride + rx, window + ky * stride + ry
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        frame = Raster(rng.integers(0, 256, (h + 6, w, 3)).astype(np.uint8))
        band = BandConfig(3, 3 + h, window, stride)
        plan = plan_windows(w, h + 6, [band], cfg)
        nx, ny = plan.counts[0]
        scaled, ss = _scaled_band(frame, band, nx, ny, 64)
        rows = window_rows(frame, plan)
        assert len(rows) == plan.total_windows
        for (_, x, y), fv in rows:
            xs, ys = x // stride * ss, (y - band.y_top) // stride * ss
            cut = Raster(scaled.pixels[ys:ys + 64, xs:xs + 64])
            want = per_window_features(cut, cfg)
            assert fv.dtype == want.dtype and fv.shape == want.shape
            assert fv.tobytes() == want.tobytes()
            assert extract_features(cut, cfg).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 2])
    def test_stride_off_the_cell_grid_rejected(self, n):
        # windows every 8 px on a 16 px cell would take their neighbours'
        # blocks; the planner knows the cell and names the band
        side = 64 + 8 * (n - 1)
        band = BandConfig(0, side, 64, 8)
        with pytest.raises(ValueError) as err:
            plan_windows(side, side, [band], FeatureConfig(hog=HogParams(cell_px=16)))
        assert str(err.value) == f"band {band}: stride must be a multiple of the 16 px HOG cell"


class TestHeatmap:
    def test_empty_detections(self):
        heat = heatmap_fuse([], 40, 30)
        assert heat.shape == (30, 40) and heat.dtype == np.float64
        assert (heat == 0).all()

    def test_single_box_peak_at_center(self):
        det = Detection(10, 6, 33, 33, 1.0)  # odd box: center falls on a pixel
        heat = heatmap_fuse([det], 80, 60)
        cy, cx = 6 + 16, 10 + 16
        assert heat[cy, cx] == pytest.approx(1.0, abs=1e-9)
        assert heat.max() == heat[cy, cx]

    def test_five_colocated_boxes_sum(self):
        det = Detection(10, 6, 33, 33, 1.0)
        heat = heatmap_fuse([det] * 5, 80, 60)
        assert heat[6 + 16, 10 + 16] == pytest.approx(5.0, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        dets = [Detection(int(rng.integers(0, 60)), int(rng.integers(0, 40)), 20, 20,
                          float(rng.random())) for _ in range(12)]
        a = heatmap_fuse(dets, 100, 80)
        b = heatmap_fuse(dets[::-1], 100, 80)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            heatmap_fuse([Detection(90, 0, 20, 20, 1.0)], 100, 80)


class TestThresholdBoxes:
    def test_cluster_wins_lone_detection_suppressed(self):
        cluster = [Detection(40, 40, 32, 32, 1.0)] * 5
        lone = [Detection(140, 40, 32, 32, 1.0)]
        heat = heatmap_fuse(cluster + lone, 200, 120)
        boxes = threshold_boxes(heat)
        assert len(boxes) == 1
        assert iou((boxes[0].x, boxes[0].y, boxes[0].w, boxes[0].h), (40, 40, 32, 32)) > 0.8

    def test_single_box_round_trip(self):
        det = Detection(24, 16, 40, 40, 2.0)
        boxes = threshold_boxes(heatmap_fuse([det], 120, 90))
        assert len(boxes) == 1
        assert (boxes[0].x, boxes[0].y, boxes[0].w, boxes[0].h) == (24, 16, 40, 40)

    def test_zero_heatmap(self):
        assert threshold_boxes(np.zeros((10, 10))) == []

    def test_fusion_fixed_point(self):
        dets = [Detection(30, 20, 40, 44, 1.0), Detection(34, 24, 40, 44, 1.0),
                Detection(120, 30, 36, 36, 1.0), Detection(124, 30, 36, 36, 1.0)]
        b1 = threshold_boxes(heatmap_fuse(dets, 200, 120))
        b2 = threshold_boxes(heatmap_fuse(b1, 200, 120))
        assert {(b.x, b.y, b.w, b.h) for b in b1} == {(b.x, b.y, b.w, b.h) for b in b2}
        assert len(b1) == len(b2) == 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_per_component_oracle(self, h, w, plateaus, seed):
        rng = np.random.default_rng(seed)
        if plateaus:  # few levels: equal peaks in several regions tie on score
            values = rng.integers(0, 4, size=(h, w)).astype(np.float64)
        else:
            dets = [Detection(int(rng.integers(0, w)), int(rng.integers(0, h)),
                              int(rng.integers(1, w + 1)), int(rng.integers(1, h + 1)), 1.0)
                    for _ in range(int(rng.integers(1, 8)))]
            dets = [Detection(d.x, d.y, min(d.w, w - d.x), min(d.h, h - d.y), 1.0) for d in dets]
            values = heatmap_fuse(dets, w, h)
        assert threshold_boxes(values) == per_component_boxes(values)

    def test_components_disjoint(self):
        rng = np.random.default_rng(9)
        dets = [Detection(int(rng.integers(0, 150)), int(rng.integers(0, 70)), 24, 24, 1.0)
                for _ in range(10)]
        boxes = threshold_boxes(heatmap_fuse(dets, 200, 120))
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert iou((a.x, a.y, a.w, a.h), (b.x, b.y, b.w, b.h)) == 0.0


class TestDetection:
    def test_noise_frame_has_no_confident_detections(self, car_model):
        rng = np.random.default_rng(31)
        frame = noise_frame(rng)
        plan = plan_windows(256, 128, TEST_BANDS)
        dets = detect_cars(frame, car_model, plan, DetectorConfig(min_score=0.5))
        assert dets == []

    def test_embedded_car_is_top_scoring_window(self, car_model):
        rng = np.random.default_rng(32)
        frame, truth = frame_with_cars(rng, [(64, 32)])
        plan = plan_windows(256, 128, TEST_BANDS)
        dets = detect_cars(frame, car_model, plan, DetectorConfig(min_score=0.0))
        assert dets
        best = max(dets, key=lambda d: d.score)
        assert (best.x, best.y, best.w, best.h) == (64, 32, 64, 64)

    def test_two_cars_fused(self, car_model):
        rng = np.random.default_rng(33)
        frame, truth = frame_with_cars(rng, [(16, 32), (160, 32)])
        plan = plan_windows(256, 128, TEST_BANDS)
        [boxes] = detect_sequence([frame], car_model, plan, DetectorConfig(min_score=0.5))
        assert len(boxes) == 2
        matched = set()
        for t in truth:
            hits = [i for i, b in enumerate(boxes) if iou((b.x, b.y, b.w, b.h), t) >= 0.5]
            assert hits, f"no fused box overlaps {t}"
            matched.update(hits)
        assert matched == {0, 1}

    def test_car_free_frame_empty(self, car_model):
        rng = np.random.default_rng(34)
        frame = noise_frame(rng)
        plan = plan_windows(256, 128, TEST_BANDS)
        assert list(detect_sequence([frame], car_model, plan, DetectorConfig(min_score=0.5))) == [[]]

    def test_frame_memory_carries_heat(self, car_model):
        rng = np.random.default_rng(35)
        with_car, _ = frame_with_cars(rng, [(64, 32)])
        without = noise_frame(rng)
        plan = plan_windows(256, 128, TEST_BANDS)
        cfg = DetectorConfig(min_score=0.5, frame_memory=2)
        fused = list(detect_sequence([with_car, without], car_model, plan, cfg))
        assert fused[0] and fused[1]  # heat from frame 1 persists into frame 2

    @pytest.mark.parametrize("frame_memory", [1, 2, 3, 4])
    def test_streamed_equals_list_oracle(self, car_model, frame_memory):
        rng = np.random.default_rng(37)
        frames = [frame_with_cars(rng, cars)[0] for cars in
                  ([(64, 32)], [], [(16, 32), (160, 32)], [], [], [(96, 32)])]
        plan = plan_windows(256, 128, TEST_BANDS)
        cfg = DetectorConfig(min_score=0.5, frame_memory=frame_memory)
        want = list_detect_sequence(frames, car_model, plan, cfg)
        assert any(want)
        assert list(detect_sequence(iter(frames), car_model, plan, cfg)) == want

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 4), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
    def test_pulls_one_frame_per_result(self, n, frame_memory, min_score, seed):
        """The k-th result comes after exactly k frames were pulled, and the
        results equal the list oracle's."""
        rng = np.random.default_rng(seed)
        frames = [noise_frame(rng, w=128, h=96) for _ in range(n)]
        plan = plan_windows(128, 96, [BandConfig(0, 96, 64, 16)])
        model = random_model(rng)
        cfg = DetectorConfig(min_score=min_score, frame_memory=frame_memory)
        pulled = []

        def clip():
            for frame in frames:
                pulled.append(frame)
                yield frame

        results = []
        for k, boxes in enumerate(detect_sequence(clip(), model, plan, cfg), 1):
            assert len(pulled) == k
            results.append(boxes)
        assert results == list_detect_sequence(frames, model, plan, cfg)

    def test_frame_memory_below_one_rejected(self):
        with pytest.raises(ValueError, match="^frame_memory must be an integer at least 1, got 0$"):
            DetectorConfig(frame_memory=0)

    def test_default_bands_on_720p_frame(self, car_model):
        rng = np.random.default_rng(36)
        plan = plan_windows(1280, 720, DEFAULT_BANDS)
        frame = noise_frame(rng, w=1280, h=720)
        dets = detect_cars(frame, car_model, plan, DetectorConfig(min_score=-np.inf))
        assert len(dets) == plan.total_windows == 697

    @pytest.mark.parametrize("w, h", [(1000, 720), (1920, 1080)])
    def test_frame_of_another_size_rejected(self, w, h):
        # the plan's windows would reach past a narrower frame's edge, and
        # score only the plan's share of a larger one
        plan = plan_windows(1280, 720, DEFAULT_BANDS)
        frame = noise_frame(np.random.default_rng(40), w=w, h=h)
        with pytest.raises(ValueError, match=f"^frame is {w}x{h}, but the window plan is "
                                             "for 1280x720$"):
            detect_cars(frame, random_model(np.random.default_rng(41)), plan)

    def test_band_scores_match_one_stacked_matrix(self, car_model):
        # scoring band by band may round a score differently, as BLAS blocks
        # rows differently, but only in the last bits
        rng = np.random.default_rng(38)
        plan = plan_windows(1280, 720, DEFAULT_BANDS)
        frame = noise_frame(rng, w=1280, h=720)
        dets = detect_cars(frame, car_model, plan, DetectorConfig(min_score=-np.inf))
        assert [(d.x, d.y, d.w) for d in dets] == [(x, y, plan.bands[b].window_px)
                                                   for b, y, x in iter_windows(plan)]
        stacked = svm_score_many(car_model, np.vstack(list(_band_features(frame, plan))))
        np.testing.assert_allclose([d.score for d in dets], stacked, rtol=1e-12, atol=0)

    def test_one_band_of_rows_at_a_time(self, car_model):
        # the descriptor rows of all 697 windows take 27.5 MB; stacking them
        # holds them twice, scoring band by band never holds them all
        rng = np.random.default_rng(39)
        plan = plan_windows(1280, 720, DEFAULT_BANDS)
        frame = noise_frame(rng, w=1280, h=720)
        all_rows = plan.total_windows * feature_layout(plan.features)["spatial"][1] * 8
        tracemalloc.start()
        try:
            detect_cars(frame, car_model, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * all_rows

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(32, 160), st.integers(1, 3), st.integers(0, 48),
                              st.integers(0, 48)), min_size=1, max_size=2),
           st.integers(0, 120), st.integers(0, 2**32 - 1))
    def test_every_accepted_layout_runs(self, specs, extra_w, seed):
        """Whatever band layout plan_windows accepts, every window gets scored."""
        bands = []
        for window, m, y_top, extra_h in specs:
            # strides that stay 8 px cell multiples in the frame and at the
            # 64 px scale are the multiples of 8 * window / gcd(window, 64)
            stride = 8 * m * (window // math.gcd(window, 64))
            bands.append(BandConfig(y_top, y_top + window + extra_h, window, stride))
        frame_w = max(b.window_px for b in bands) + extra_w
        plan = plan_windows(frame_w, max(b.y_bottom for b in bands), bands)
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        frame = noise_frame(rng, w=plan.frame_w, h=plan.frame_h)
        dets = detect_cars(frame, model, plan, DetectorConfig(min_score=-np.inf))
        assert len(dets) == plan.total_windows

    def test_draw_boxes_burns_borders(self):
        frame = Raster(np.zeros((50, 60, 3), dtype=np.uint8))
        out = draw_boxes(frame, [Detection(10, 10, 20, 20, 1.0)])
        assert (out.pixels[10, 10] == (255, 0, 0)).all()
        assert (out.pixels[10 + 19, 10 + 19] == (255, 0, 0)).all()
        assert (out.pixels[5, 5] == 0).all()
