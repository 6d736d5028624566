import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rovercv.geometry as geometry
from oracles import (
    _tls_line,
    bfs_label_components,
    float_tls_line,
    flood_enclosed_area,
    full_frame_lane_edges,
    full_search_best_rightward,
    line_residual,
    per_component_contours,
    per_peak_hough_lines,
    segment_line_params,
)
from scenes import calibration_scene, noisy_calibration_scene, rasterize_segment, road_frame
from rovercv.geometry import (
    LaneConfig,
    _enclosed_area,
    _lane_edges,
    _moments,
    _tls_fit,
    detect_lane,
    find_contours,
    hough_lines,
    label_components,
    largest_rectangle,
)
from rovercv.raster import Raster, sobel_magnitude, threshold_binary


def binary(arr):
    return Raster((np.asarray(arr) > 0).astype(np.uint8) * 255)


class TestHough:
    def test_horizontal_row(self):
        img = np.zeros((50, 50), dtype=np.uint8)
        img[10, :] = 255
        top = hough_lines(binary(img), min_votes=10)[0]
        assert (top.rho, top.theta_deg) == (10.0, 90.0)

    def test_vertical_column(self):
        img = np.zeros((50, 50), dtype=np.uint8)
        img[:, 20] = 255
        top = hough_lines(binary(img), min_votes=10)[0]
        assert (top.rho, top.theta_deg) == (20.0, 0.0)

    def test_empty_image(self):
        assert hough_lines(binary(np.zeros((20, 20)))) == []

    def test_votes_count_band_members(self):
        img = np.zeros((40, 40), dtype=np.uint8)
        img[7, 5:30] = 255
        top = hough_lines(binary(img), min_votes=5)[0]
        ys, xs = np.nonzero(img)
        theta = np.radians(top.theta_deg)
        r = xs * np.cos(theta) + ys * np.sin(theta)
        assert top.votes == int((np.abs(r - top.rho) <= 0.5).sum())

    def test_random_segments_recovered(self):
        # lengths >= 80 px: below that, digitization ambiguity alone exceeds the
        # tolerance (see test_short_segments_are_ambiguous)
        rng = np.random.default_rng(42)
        for _ in range(15):
            h = w = 200
            while True:
                x0, y0 = rng.uniform(20, 180, 2)
                ang = rng.uniform(0, np.pi)
                length = rng.uniform(80, 160)
                x1 = x0 + length * np.cos(ang)
                y1 = y0 + length * np.sin(ang)
                if 0 <= x1 < w and 0 <= y1 < h:
                    break
            edges = rasterize_segment(h, w, x0, y0, x1, y1)
            top = hough_lines(edges, min_votes=20)[0]
            rho_true, theta_true = segment_line_params(x0, y0, x1, y1)
            drho, dtheta = line_residual(rho_true, theta_true, top.rho, top.theta_deg)
            assert drho <= 1.0 and dtheta <= 1.0

    def test_short_segments_are_ambiguous(self):
        """Distinct generator lines can rasterize to the identical short segment.

        The identical-pixel class of this 22 px segment spans > 2 px in rho at
        the origin, so no estimator can pin every short segment to 1 px; this
        pins down why the recovery guarantee starts at longer lengths.
        """
        h = w = 200
        x0, y0, ang, length = 150.0, 160.0, 0.7, 22.0
        x1, y1 = x0 + length * np.cos(ang), y0 + length * np.sin(ang)
        base = rasterize_segment(h, w, x0, y0, x1, y1).pixels

        rng = np.random.default_rng(0)
        rhos = []
        for _ in range(40000):
            jx0, jy0 = x0 + rng.uniform(-0.4, 0.4), y0 + rng.uniform(-0.4, 0.4)
            ja = ang + rng.uniform(-0.03, 0.03)
            jx1, jy1 = jx0 + length * np.cos(ja), jy0 + length * np.sin(ja)
            if (rasterize_segment(h, w, jx0, jy0, jx1, jy1).pixels == base).all():
                rhos.append(segment_line_params(jx0, jy0, jx1, jy1)[0])
        assert len(rhos) >= 2
        assert max(rhos) - min(rhos) > 2.0


def segments_map(h, w, density, n_segments, seed):
    """Random on-pixels at ``density`` plus ``n_segments`` digital segments that
    may run off the map."""
    rng = np.random.default_rng(seed)
    img = rng.random((h, w)) < density
    t = np.linspace(0.0, 1.0, 4 * (h + w))
    for _ in range(n_segments):
        x0, y0, x1, y1 = rng.uniform(-5, max(h, w) + 5, 4)
        xs = np.rint(x0 + t * (x1 - x0)).astype(int)
        ys = np.rint(y0 + t * (y1 - y0)).astype(int)
        inside = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
        img[ys[inside], xs[inside]] = True
    return binary(img)


@st.composite
def theta_ranges(draw, theta_res):
    """A theta_range_deg for columns every ``theta_res`` degrees: any range,
    one that wraps past 180, one holding a single column, one between two
    columns, or a whole half turn; all but the last shifted by whole half turns."""
    n_theta = int(round(180.0 / theta_res))
    kind = draw(st.sampled_from(["any", "wrap", "one_column", "no_column", "half_turn"]))
    if kind == "half_turn":
        lo = draw(st.floats(-360.0, 360.0))
        return lo, lo + 180.0
    if kind == "one_column":
        a = draw(st.integers(0, n_theta - 1)) * theta_res
        lo, hi = a - 0.25 * theta_res, a + 0.25 * theta_res
    elif kind == "no_column":
        a = draw(st.integers(0, n_theta - 2)) * theta_res
        lo, hi = a + 0.25 * theta_res, a + 0.75 * theta_res
    elif kind == "wrap":
        lo = draw(st.floats(90.0, 179.0))
        hi = draw(st.floats(180.5, lo + 179.0))
    else:
        lo = draw(st.floats(0.0, 180.0))
        hi = lo + draw(st.floats(0.01, 179.0))
    turn = 180.0 * draw(st.integers(-2, 2))
    return lo + turn, hi + turn


class TestHoughThetaRange:
    """A theta range keeps exactly the lines whose peaks lie in it."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.6]),
           st.integers(0, 3), st.sampled_from([1.0, 0.5, 2.0]), st.sampled_from([0.7, 1.0, 3.0]),
           st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
    def test_random_sparse_maps(self, h, w, density, n_segments, rho_res, theta_res, min_votes,
                                seed, data):
        theta_range_deg = data.draw(theta_ranges(theta_res))
        edges = segments_map(h, w, density, n_segments, seed)
        assert (hough_lines(edges, rho_res, theta_res, min_votes, theta_range_deg=theta_range_deg)
                == per_peak_hough_lines(edges, rho_res, theta_res, min_votes,
                                        theta_range_deg=theta_range_deg))

    @pytest.mark.parametrize("theta_range_deg", [(98, 182), (0, 90), (-30.5, 12), (179, 180),
                                                 (44.5, 45.5), (45.2, 45.8)])
    def test_road_frames_mirrors_and_noise(self, theta_range_deg):
        edges, _ = _lane_edges(road_frame()[0], LaneConfig())
        for img in (edges, Raster(edges.pixels[:, ::-1]), noise_edges()):
            lines = hough_lines(img, theta_range_deg=theta_range_deg)
            assert lines == per_peak_hough_lines(img, theta_range_deg=theta_range_deg)
            # and they are the full search's lines of those peaks, in its order
            full = iter(hough_lines(img))
            assert all(any(ln == other for other in full) for ln in lines)

    def test_default_range_is_the_whole_half_turn(self):
        edges = noise_edges()
        assert (hough_lines(edges) == hough_lines(edges, theta_range_deg=(0, 180))
                == hough_lines(edges, theta_range_deg=(-97.5, 82.5))
                # 513.0 is 332.99999999999994 + 180 rounded; their difference is above 180
                == hough_lines(edges, theta_range_deg=(332.99999999999994, 513.0)))

    def test_range_without_columns_finds_nothing(self):
        assert hough_lines(noise_edges(), theta_range_deg=(10.2, 10.8)) == []


class TestHoughMatchesPerPeakOracle:
    """The batched refinement returns exactly the lines of the per-peak one."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.6]),
           st.integers(0, 3), st.sampled_from([1.0, 0.25, 0.5, 0.7, 1.3, 2.0, 3.0]),
           st.sampled_from([1.0, 0.3, 0.5, 0.7, 1.7, 3.0, 7.0, 45.0, 90.0, 120.0, 180.0]),
           st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_random_sparse_maps(self, h, w, density, n_segments, rho_res, theta_res,
                                min_votes, seed):
        edges = segments_map(h, w, density, n_segments, seed)
        assert (hough_lines(edges, rho_res, theta_res, min_votes)
                == per_peak_hough_lines(edges, rho_res, theta_res, min_votes))

    @pytest.mark.parametrize("rho_res, theta_res", [(1.0, 1.0), (0.5, 3.0), (2.0, 0.7)])
    def test_no_pixel_and_one_pixel(self, rho_res, theta_res):
        img = np.zeros((9, 13), dtype=np.uint8)
        assert hough_lines(binary(img), rho_res, theta_res) == []
        img[4, 7] = 255
        lines = hough_lines(binary(img), rho_res, theta_res)
        assert lines and lines == per_peak_hough_lines(binary(img), rho_res, theta_res)

    def test_exact_horizontal_and_vertical_lines(self):
        img = np.zeros((60, 70), dtype=np.uint8)
        img[12, 5:60] = img[40, :] = img[:, 3] = img[10:50, 66] = 255
        lines = hough_lines(binary(img), min_votes=20)
        assert lines == per_peak_hough_lines(binary(img), min_votes=20)
        found = {(ln.rho, ln.theta_deg) for ln in lines}
        assert {(12.0, 90.0), (40.0, 90.0), (3.0, 0.0), (66.0, 0.0)} <= found

    def test_near_vertical_lines_wrap_past_180(self):
        # steep lines leaning either way: refits of peaks seeded in the first
        # columns land near 180 degrees and wrap, and the reverse
        img = np.zeros((120, 90), dtype=np.uint8)
        ys = np.arange(120)
        for x0, slope in ((20, 0.01), (45, -0.012), (70, 0.004)):
            img[ys, np.rint(x0 + slope * ys).astype(int)] = 255
        for theta_res in (1.0, 0.7, 3.0):
            lines = hough_lines(binary(img), theta_res=theta_res, min_votes=3)
            assert lines == per_peak_hough_lines(binary(img), theta_res=theta_res, min_votes=3)
            thetas = [ln.theta_deg for ln in lines]
            assert min(thetas) < 1.0 and max(thetas) > 179.0

    def test_thousands_of_short_supports(self):
        rng = np.random.default_rng(1)
        edges = binary(rng.random((60, 80)) < 0.2)
        lines = hough_lines(edges)
        assert len(lines) > 1000 and lines == per_peak_hough_lines(edges)

    def test_road_frames_and_mirrors(self):
        for kwargs in ({}, {"left_bottom_x": 80.0, "right_top_x": 190.0}):
            frame, _ = road_frame(**kwargs)
            edges, _ = _lane_edges(frame, LaneConfig())
            for img in (edges, Raster(edges.pixels[:, ::-1])):
                for min_votes in (1, 30):
                    assert (hough_lines(img, min_votes=min_votes)
                            == per_peak_hough_lines(img, min_votes=min_votes))

    def test_noise_edge_map(self):
        assert hough_lines(noise_edges()) == per_peak_hough_lines(noise_edges())

    def test_fit_off_every_pixel(self):
        # the four corners share one cell and fit the line y = 5, which no pixel
        # is near: every band of the round is empty
        img = np.zeros((11, 11), dtype=np.uint8)
        img[::10, ::10] = 255
        assert hough_lines(binary(img), rho_res=20.0, theta_res=90.0) == []
        assert per_peak_hough_lines(binary(img), rho_res=20.0, theta_res=90.0) == []

    def test_converged_peaks_leave_the_loop(self, monkeypatch):
        peaks_per_round = []
        band_spans = geometry._band_spans

        def counting(votes, seed_col, rho, theta_deg):
            peaks_per_round.append(len(rho))
            return band_spans(votes, seed_col, rho, theta_deg)

        monkeypatch.setattr(geometry, "_band_spans", counting)
        frame, _ = road_frame()
        edges, _ = _lane_edges(frame, LaneConfig())
        assert hough_lines(edges) == per_peak_hough_lines(edges)
        assert len(peaks_per_round) == 4  # one block of columns, four band rounds
        assert peaks_per_round == sorted(peaks_per_round, reverse=True)
        assert peaks_per_round[-1] < peaks_per_round[0] / 2

    def test_rho_bins_once_per_column_of_a_block(self, monkeypatch):
        # the lane range's 84 seed columns and their two outer neighbors make
        # one block of 86 columns, each binned once for its votes and its index
        columns = []
        rho_bins = geometry._rho_bins

        def counting(xs, ys, theta_deg, rho_res, offs):
            columns.append(theta_deg)
            return rho_bins(xs, ys, theta_deg, rho_res, offs)

        monkeypatch.setattr(geometry, "_rho_bins", counting)
        edges, _ = _lane_edges(road_frame()[0], LaneConfig())
        lines = hough_lines(edges, theta_range_deg=(98, 182))
        assert lines == per_peak_hough_lines(edges, theta_range_deg=(98, 182))
        assert sorted(columns) == [*range(3), *range(97, 180)]


def noise_edges():
    rng = np.random.default_rng(3)
    noise = Raster(rng.integers(0, 256, (120, 160)).astype(np.uint8))
    return threshold_binary(sobel_magnitude(noise), 60)


def close_count(p, q, tol=1e-9):
    """For each (rho, theta) row of p, the rows of q within tol in both."""
    return (np.abs(p[:, None] - q[None]) <= tol).all(axis=2).sum(axis=1)


class TestHoughNearFloatFit:
    """The integer-moment fit stays within 1e-9 of the float centered-sum fit."""

    def test_road_frames_mirrors_and_noise(self):
        maps = [noise_edges()]
        for kwargs in ({}, {"left_bottom_x": 80.0, "right_top_x": 190.0}):
            edges, _ = _lane_edges(road_frame(**kwargs)[0], LaneConfig())
            maps += [edges, Raster(edges.pixels[:, ::-1])]
        for edges in maps:
            lines = hough_lines(edges)
            near = per_peak_hough_lines(edges, fit=float_tls_line)
            assert [ln.votes for ln in lines] == [ln.votes for ln in near]
            # lines of equal votes whose thetas lie within 1e-9 may swap places,
            # and some lines come from several peaks: within each votes, every
            # line has as many lines within 1e-9 in the other list as in its own
            for votes in {ln.votes for ln in lines}:
                a, b = (np.array([(ln.rho, ln.theta_deg) for ln in found if ln.votes == votes])
                        for found in (lines, near))
                for p, q in ((a, b), (b, a)):
                    assert (close_count(p, q) == close_count(p, p)).all()


class TestExactMoments:
    """Moments and fits stay exact where int64 products of the moments overflow."""

    def test_long_runs_at_large_coordinates(self):
        # short runs beside a run of 2.1M pixels near (1919, 1079), a 1920x1080
        # frame's far corner, where n * sum x^2 alone is near 1.6e19 > 2^63,
        # and a run of 3.2M pixels alternating between (0, 0) and that corner,
        # whose 2 * (n * sum xy - sum x * sum y) is itself above 2^63
        rng = np.random.default_rng(7)
        near = 1919 - rng.integers(0, 40, 2_100_000)
        xs = np.r_[near, np.tile([0, 1919], 1_600_000)]
        ys = np.r_[1079 - (near - 1880) // 2 - rng.integers(0, 2, len(near)),
                   np.tile([0, 1079], 1_600_000)]
        terms = np.stack((xs, ys, xs * xs, ys * ys, xs * ys)).astype(np.int64)
        counts = np.array([3, len(near) - 10, 7, 3_200_000])
        moments = _moments(terms, np.arange(len(xs)), counts, 1919)
        rho, theta_deg = _tls_fit(moments)
        for i, (first, c) in enumerate(zip(np.cumsum(counts) - counts, counts)):
            px, py = xs[first:first + c].tolist(), ys[first:first + c].tolist()
            exact = [len(px), sum(px), sum(py), sum(x * x for x in px), sum(y * y for y in py),
                     sum(x * y for x, y in zip(px, py))]
            assert [int(v) for v in moments[:, i]] == exact
            assert (rho[i], theta_deg[i]) == _tls_line(xs[first:first + c], ys[first:first + c])
        n, sx, sy, _, _, sxy = exact
        assert 2 * (n * sxy - sx * sy) >= 2**63  # beyond int64 even with wraparound
        # short runs alone stay in int64 and round exactly as the exact path does
        short = _tls_fit(_moments(terms, np.r_[0:3, len(near) - 7:len(near)], np.array([3, 7]),
                                  1919))
        assert (short[0] == rho[[0, 2]]).all() and (short[1] == theta_deg[[0, 2]]).all()


class TestHoughParameters:
    @pytest.mark.parametrize("kwargs, name", [
        ({"rho_res": 0}, "rho_res"), ({"rho_res": -1.0}, "rho_res"),
        ({"rho_res": float("nan")}, "rho_res"), ({"theta_res": 0}, "theta_res"),
        ({"theta_res": -2.0}, "theta_res"), ({"theta_res": 180.5}, "theta_res"),
        ({"min_votes": 0}, "min_votes"), ({"min_votes": -3}, "min_votes"),
    ])
    def test_bad_parameter_rejected(self, kwargs, name):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[5, :] = 255
        with pytest.raises(ValueError, match=name):
            hough_lines(binary(img), **kwargs)

    @pytest.mark.parametrize("theta_range_deg", [
        (float("nan"), 90.0), (0.0, float("inf")), (-float("inf"), 0.0), (10.0, 10.0),
        (20.0, 10.0), (0.0, 180.5), (-1.0, 180.0),
    ])
    def test_bad_theta_range_rejected(self, theta_range_deg):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[5, :] = 255
        with pytest.raises(ValueError, match="theta_range_deg"):
            hough_lines(binary(img), theta_range_deg=theta_range_deg)

    def test_whole_half_turn_theta_bin_accepted(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[5, :] = 255
        lines = hough_lines(binary(img), theta_res=180.0)
        assert lines == per_peak_hough_lines(binary(img), theta_res=180.0)


class TestContours:
    def test_filled_rectangle(self):
        img = np.zeros((100, 150), dtype=np.uint8)
        img[20:80, 30:130] = 255
        contours = find_contours(binary(img))
        assert len(contours) == 1
        assert contours[0].bbox == (30, 20, 100, 60)
        assert contours[0].area == 6000

    def test_sorted_by_area(self):
        img = np.zeros((80, 80), dtype=np.uint8)
        img[5:15, 5:15] = 255
        img[40:60, 40:60] = 255
        contours = find_contours(binary(img))
        assert [c.area for c in contours] == [400, 100]
        assert contours[0].bbox == (40, 40, 20, 20)

    def test_empty_mask(self):
        assert find_contours(binary(np.zeros((10, 10)))) == []

    def test_areas_partition_foreground(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            img = (rng.random((40, 40)) < 0.3).astype(np.uint8) * 255
            contours = find_contours(Raster(img))
            assert sum(c.area for c in contours) == int((img > 0).sum())

    def test_bbox_contains_boundary_pixels(self):
        rng = np.random.default_rng(22)
        img = (rng.random((30, 30)) < 0.4).astype(np.uint8) * 255
        for c in find_contours(Raster(img)):
            x, y, w, h = c.bbox
            assert (c.pixels[:, 0] >= x).all() and (c.pixels[:, 0] < x + w).all()
            assert (c.pixels[:, 1] >= y).all() and (c.pixels[:, 1] < y + h).all()
            assert c.area <= w * h

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.sampled_from([0.1, 0.3, 0.6, 0.9]),
           st.integers(0, 2**32 - 1))
    def test_matches_per_component_oracle(self, h, w, density, seed):
        mask = np.random.default_rng(seed).random((h, w)) < density
        got = find_contours(binary(mask))
        want = per_component_contours(*bfs_label_components(mask, connectivity=8))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.bbox, a.area) == (b.bbox, b.area)
            assert a.pixels.dtype == b.pixels.dtype
            assert np.array_equal(a.pixels, b.pixels)


def nested_rings(h, w, step):
    """Concentric one-pixel rectangle outlines every ``step`` pixels from the edge,
    so each outline holds the next one inside a hole of its own."""
    mask = np.zeros((h, w), dtype=bool)
    for k in range(0, min(h, w) // 2, step):
        mask[k, k:w - k] = mask[h - 1 - k, k:w - k] = True
        mask[k:h - k, k] = mask[k:h - k, w - 1 - k] = True
    return mask


def spiral(n):
    """One-pixel-wide square spiral walked inward from the top-left corner, a
    one-pixel gap between its turns: a single component whose runs merge in a
    long chain."""
    mask = np.zeros((n, n), dtype=bool)
    y = x = 0
    dy, dx = 0, 1
    mask[0, 0] = True
    turns = 0
    while turns < 2:
        ny, nx, ay, ax = y + dy, x + dx, y + 2 * dy, x + 2 * dx
        free = (0 <= ny < n and 0 <= nx < n and not mask[ny, nx]
                and not (0 <= ay < n and 0 <= ax < n and mask[ay, ax]))
        if free:
            y, x, turns = ny, nx, 0
            mask[y, x] = True
        else:
            dy, dx, turns = dx, -dy, turns + 1
    return mask


def comb(h, w, joined_at_bottom=True):
    """Vertical teeth on every other column, joined by one full row."""
    mask = np.zeros((h, w), dtype=bool)
    mask[:, ::2] = True
    mask[-1 if joined_at_bottom else 0, :] = True
    return mask


ADVERSARIAL_MASKS = {
    "empty": np.zeros((7, 9), dtype=bool),
    "full": np.ones((7, 9), dtype=bool),
    "no_rows": np.zeros((0, 5), dtype=bool),
    "no_columns": np.zeros((5, 0), dtype=bool),
    "one_row": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool),
    "one_column": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool).T,
    "spiral_odd": spiral(41),
    "spiral_even": spiral(40),
    "comb_bottom": comb(30, 41),
    "comb_top": comb(30, 41, joined_at_bottom=False),
    "checkerboard": np.indices((24, 31)).sum(axis=0) % 2 == 0,
    "staircase": np.tril(np.ones((25, 25), dtype=bool)) & ~np.tril(np.ones((25, 25), bool), -2),
    "diagonal": np.eye(20, 27, dtype=bool) | np.eye(20, 27, 7, dtype=bool)[:, ::-1],
    "nested_rings": nested_rings(31, 37, 2),
}


class TestLabelComponents:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 32), st.integers(0, 32),
           st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.6, 0.8, 1.0]), st.sampled_from([4, 8]),
           st.integers(0, 2**32 - 1))
    def test_matches_bfs_oracle(self, h, w, density, connectivity, seed):
        mask = np.random.default_rng(seed).random((h, w)) < density
        labels, n = label_components(mask, connectivity=connectivity)
        want, m = bfs_label_components(mask, connectivity=connectivity)
        assert n == m
        assert labels.dtype == want.dtype
        assert np.array_equal(labels, want)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_MASKS))
    def test_adversarial_masks_match_bfs_oracle(self, name, connectivity):
        mask = ADVERSARIAL_MASKS[name]
        labels, n = label_components(mask, connectivity=connectivity)
        want, m = bfs_label_components(mask, connectivity=connectivity)
        assert n == m
        assert np.array_equal(labels, want)

    def test_adversarial_shapes(self):
        assert label_components(spiral(41), connectivity=4)[1] == 1
        assert label_components(comb(30, 41), connectivity=4)[1] == 1
        board = ADVERSARIAL_MASKS["checkerboard"]
        assert label_components(board, connectivity=8)[1] == 1
        assert label_components(board, connectivity=4)[1] == int(board.sum())

    def test_partition_matches_scipy(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(31)
        masks = list(ADVERSARIAL_MASKS.values())
        masks += [rng.random((int(rng.integers(1, 60)), int(rng.integers(1, 60)))) < d
                  for d in (0.2, 0.4, 0.5, 0.6, 0.8) for _ in range(8)]
        for connectivity, structure in ((4, None), (8, np.ones((3, 3), dtype=int))):
            for mask in masks:
                labels, n = label_components(mask, connectivity=connectivity)
                theirs, m = ndimage.label(mask, structure=structure)
                assert n == m
                assert (labels[~mask] == -1).all()
                pairs = np.unique(np.stack((labels[mask], theirs[mask])), axis=1)
                assert pairs.shape[1] == n  # a one-to-one renumbering

    def test_unsupported_connectivity_rejected(self):
        with pytest.raises(ValueError, match="connectivity"):
            label_components(np.ones((3, 3), dtype=bool), connectivity=6)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_mask_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match="mask"):
            label_components(np.ones(shape, dtype=bool))


class TestEnclosedArea:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.sampled_from([0.0, 0.2, 0.5, 0.8]),
           st.sampled_from([None, 2, 3, 4]), st.integers(0, 2**32 - 1))
    def test_matches_flood_fill_oracle(self, h, w, density, ring_step, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((h, w)) < density
        if ring_step is not None:
            # nested holes; the random pixels open some rings to the border
            mask = nested_rings(h, w, ring_step) ^ (rng.random((h, w)) < density / 8)
        assert _enclosed_area(mask) == flood_enclosed_area(mask)

    def test_nested_holes_count_as_enclosed(self):
        mask = nested_rings(9, 9, 2)
        assert _enclosed_area(mask) == 81
        mask[0, 4] = False  # opens the outer ring: its hole joins the outside
        assert _enclosed_area(mask) == flood_enclosed_area(mask) == 81 - 1 - 24


class TestLargestRectangle:
    def test_bbox_width_close_to_truth(self):
        img = calibration_scene(rect_w=120, rect_h=80)
        rect = largest_rectangle(img)
        assert abs(rect.bbox[2] - 120) <= 2
        assert abs(rect.bbox[3] - 80) <= 2

    def test_prefers_larger_rectangle(self):
        scene = np.full((300, 400), 255, dtype=np.uint8)
        scene[100:180, 100:220] = 0   # 120 x 80
        scene[40:70, 300:340] = 0     # 40 x 30
        rect = largest_rectangle(Raster(scene))
        assert abs(rect.bbox[2] - 120) <= 2

    def test_blank_image(self):
        with pytest.raises(ValueError, match="no rectangle found"):
            largest_rectangle(Raster(np.full((50, 50), 255, dtype=np.uint8)))

    def test_outlines_under_a_hundredth_of_the_frame_skipped(self):
        # a 30x30 square's outline (bbox 32x32) is under 1% of 400x300, a 40x40
        # one is over it
        scene = np.full((300, 400), 255, dtype=np.uint8)
        scene[100:130, 100:130] = 0
        with pytest.raises(ValueError, match="no rectangle found"):
            largest_rectangle(Raster(scene))
        scene[100:140, 100:140] = 0
        assert abs(largest_rectangle(Raster(scene)).bbox[2] - 40) <= 2

    def test_noisy_shot_finds_no_rectangle(self):
        # without the size floor, a 3x5 outline in the noise was returned
        with pytest.raises(ValueError, match="no rectangle found"):
            largest_rectangle(noisy_calibration_scene())


class TestDetectLane:
    def test_endpoints_near_truth(self):
        frame, truth = road_frame()
        lane = detect_lane(frame)
        assert lane.left.valid and lane.right.valid
        for side, t in ((lane.left, truth["left"]), (lane.right, truth["right"])):
            assert abs(side.x0 - t["x0"]) <= 3.0
            assert abs(side.x1 - t["x1"]) <= 3.0
            assert side.y0 == t["y0"] and side.y1 == t["y1"]

    def test_missing_side_invalid(self):
        frame, _ = road_frame(right_bottom_x=-500.0, right_top_x=-500.0)
        lane = detect_lane(frame)
        assert lane.left.valid and not lane.right.valid

    def test_mirror_swaps_sides_exactly(self):
        for kwargs in ({}, {"left_bottom_x": 80.0, "right_top_x": 190.0}):
            frame, _ = road_frame(**kwargs)
            mirrored = Raster(frame.pixels[:, ::-1])
            lane = detect_lane(frame)
            lane_m = detect_lane(mirrored)
            w = frame.width
            assert lane_m.left.valid == lane.right.valid
            assert lane_m.left.x0 == (w - 1) - lane.right.x0
            assert lane_m.left.x1 == (w - 1) - lane.right.x1
            assert lane_m.right.x0 == (w - 1) - lane.left.x0
            assert lane_m.right.x1 == (w - 1) - lane.left.x1

    def test_slope_signs(self):
        frame, _ = road_frame()
        lane = detect_lane(frame)
        # image y grows downward: left boundary leans right as y decreases
        assert (lane.left.x1 - lane.left.x0) * (lane.left.y1 - lane.left.y0) < 0
        assert (lane.right.x1 - lane.right.x0) * (lane.right.y1 - lane.right.y0) > 0

    @pytest.mark.parametrize("cfg", [LaneConfig(), LaneConfig(horizontal_margin_deg=0.0),
                                     LaneConfig(horizontal_margin_deg=30.0, min_votes=5)])
    def test_equals_full_search(self, monkeypatch, cfg):
        # the rightward search seeds only columns near its range; the oracle
        # picks the same line from every line of the full range
        frames = []
        for kwargs in ({}, {"left_bottom_x": 80.0, "right_top_x": 190.0}):
            frame, _ = road_frame(**kwargs)
            frames += [frame, Raster(frame.pixels[:, ::-1])]
        rng = np.random.default_rng(8)
        frames += [Raster(rng.integers(0, 256, (360, 640, 3)).astype(np.uint8))
                   for _ in range(2)]
        lanes = [detect_lane(frame, cfg) for frame in frames]
        monkeypatch.setattr(geometry, "_best_rightward", full_search_best_rightward)
        assert lanes == [detect_lane(frame, cfg) for frame in frames]
        assert all(lane.left.valid and lane.right.valid for lane in lanes[:4])


class TestLaneEdges:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.booleans(), st.floats(0.0, 1.0),
           st.integers(0, 3), st.integers(0, 255), st.floats(0.05, 2.0),
           st.integers(0, 2**32 - 1))
    @example(12, 12, True, 0.0, 1, 60, 0.2, 0)
    @example(12, 12, False, 1.0, 3, 60, 0.2, 1)
    @example(1, 7, True, 0.6, 2, 0, 0.2, 2)
    def test_equals_full_frame_oracle(self, h, w, color, horizon_frac, passes, threshold,
                                      top_width_frac, seed):
        # the crop above the horizon leaves every row the search reads as it was
        rng = np.random.default_rng(seed)
        frame = Raster(rng.integers(0, 256, (h, w, 3) if color else (h, w)).astype(np.uint8))
        cfg = LaneConfig(horizon_frac=horizon_frac, top_width_frac=top_width_frac,
                         blur_passes=passes, edge_threshold=threshold)
        edges, horizon_y = _lane_edges(frame, cfg)
        want, want_y = full_frame_lane_edges(frame, cfg)
        assert horizon_y == want_y
        assert edges.pixels.shape == want.pixels.shape
        assert (edges.pixels == want.pixels).all()

    @pytest.mark.parametrize("horizon_frac", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("passes", [0, 1, 3])
    def test_road_frame_equals_full_frame_oracle(self, horizon_frac, passes):
        frame, _ = road_frame()
        cfg = LaneConfig(horizon_frac=horizon_frac, blur_passes=passes)
        edges, horizon_y = _lane_edges(frame, cfg)
        want, want_y = full_frame_lane_edges(frame, cfg)
        assert horizon_y == want_y and (edges.pixels == want.pixels).all()


class TestLaneConfig:
    @pytest.mark.parametrize("kwargs, name", [
        ({"horizon_frac": 5.0}, "horizon_frac"), ({"horizon_frac": -0.1}, "horizon_frac"),
        ({"horizon_frac": float("nan")}, "horizon_frac"),
        ({"horizontal_margin_deg": 90.0}, "horizontal_margin_deg"),
        ({"horizontal_margin_deg": -1.0}, "horizontal_margin_deg"),
        ({"horizontal_margin_deg": float("nan")}, "horizontal_margin_deg"),
        ({"horizontal_margin_deg": float("inf")}, "horizontal_margin_deg"),
    ])
    def test_bad_field_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            LaneConfig(**kwargs)

    def test_range_ends_accepted(self):
        LaneConfig(horizon_frac=0.0, horizontal_margin_deg=0.0)
        LaneConfig(horizon_frac=1.0, horizontal_margin_deg=89.9)
