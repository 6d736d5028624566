import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import (
    _best_placements,
    _fft_xcorr,
    _rot90_map,
    _rotate_map,
    per_rotation_localize,
    pooled_coarse_localize,
)
from scenes import corridor_frame
from rovercv import mapping
from rovercv.mapping import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    ExploreConfig,
    GroundPatch,
    LocalizeConfig,
    OccupancyMap,
    Pose,
    _Correlator,
    _known_cells,
    _localize_at,
    _pool,
    _rotated,
    _search,
    _smooth_size,
    advance_pose,
    explore_step,
    localize,
    map_from_bytes,
    map_to_bytes,
    stitch_patch,
)
from rovercv.raster import Raster
from rovercv.segmentation import LabelMask


def patch_from_array(arr, width_cm, depth_cm, offset_cm):
    arr = np.asarray(arr, dtype=np.int32)
    return GroundPatch(mask=LabelMask(arr, num_labels=2), width_cm=width_cm,
                       depth_cm=depth_cm, offset_cm=offset_cm)


def make_global_map(seed=0, size=120, cell=2.0):
    """Free room with occupied walls and a few scattered obstacle blocks."""
    rng = np.random.default_rng(seed)
    grid = np.full((size, size), FREE, dtype=np.uint8)
    grid[0, :] = grid[-1, :] = OCCUPIED
    grid[:, 0] = grid[:, -1] = OCCUPIED
    if size >= 40:
        for _ in range(6):
            y = int(rng.integers(8, size - 20))
            x = int(rng.integers(8, size - 20))
            h = int(rng.integers(3, 10))
            w = int(rng.integers(3, 10))
            grid[y:y + h, x:x + w] = OCCUPIED
    return OccupancyMap(cell_cm=cell, origin=(0.0, 0.0), grid=grid)


def cutout(m, r0, c0, rows, cols):
    return OccupancyMap(cell_cm=m.cell_cm, origin=(0.0, 0.0),
                        grid=m.grid[r0:r0 + rows, c0:c0 + cols].copy())


class TestAdvancePose:
    def test_straight_ahead(self):
        p = advance_pose(Pose(0, 0, 0), 10, 0)
        assert (p.x, p.y, p.theta) == (10.0, 0.0, 0.0)

    def test_quarter_turn_then_forward(self):
        p = advance_pose(Pose(0, 0, 0), 10, 90)
        assert p.theta == 90.0
        assert p.x == pytest.approx(0.0, abs=1e-9)
        assert p.y == pytest.approx(10.0, abs=1e-9)

    def test_square_loop_closes(self):
        p = Pose(0, 0, 0)
        for _ in range(4):
            p = advance_pose(p, 10, 90)
        assert p.x == pytest.approx(0.0, abs=1e-9)
        assert p.y == pytest.approx(0.0, abs=1e-9)
        assert p.theta == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 8), st.floats(0.5, 40.0), st.integers(0, 2**32 - 1))
    def test_regular_polygon_loop_closes(self, sides, step, seed):
        rng = np.random.default_rng(seed)
        p = start = Pose(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)),
                         float(rng.uniform(0, 360)))
        for _ in range(sides):
            p = advance_pose(p, step, 360.0 / sides)
        assert p.x == pytest.approx(start.x, abs=1e-6)
        assert p.y == pytest.approx(start.y, abs=1e-6)
        assert p.theta == pytest.approx(start.theta, abs=1e-6)

    @pytest.mark.parametrize("forward, rotate", [(math.inf, 0.0), (1.0, math.nan)])
    def test_non_finite_motion_rejected(self, forward, rotate):
        with pytest.raises(ValueError, match="motion must be finite"):
            advance_pose(Pose(0, 0, 0), forward, rotate)


class TestStitch:
    def test_patch_at_origin_pose(self):
        mask = np.zeros((10, 10), dtype=np.int32)
        mask[0, :] = 1  # far edge is obstacle
        patch = patch_from_array(mask, width_cm=20, depth_cm=20, offset_cm=10)
        m = stitch_patch(OccupancyMap.empty(2.0), Pose(0, 0, 0), patch)
        known = m.grid != UNKNOWN
        assert known.sum() == 10 * 10  # 20x20 cm at 2 cm cells
        occ_cells = np.argwhere(m.grid == OCCUPIED)
        free_cells = np.argwhere(m.grid == FREE)
        assert len(occ_cells) == 10
        # obstacle row sits at the far (larger x) edge of the patch
        ox = m.origin[0]
        occ_x = ox + (occ_cells[:, 1] + 0.5) * m.cell_cm
        free_x = ox + (free_cells[:, 1] + 0.5) * m.cell_cm
        assert occ_x.min() > free_x.max()
        assert occ_x.max() < 10 + 20 + 1e-9

    def test_occupied_is_permanent(self):
        occ = patch_from_array(np.ones((4, 4)), 8, 8, 4)
        free = patch_from_array(np.zeros((4, 4)), 8, 8, 4)
        m = stitch_patch(OccupancyMap.empty(2.0), Pose(0, 0, 0), occ)
        m2 = stitch_patch(m, Pose(0, 0, 0), free)
        assert (m2.grid[m.grid == OCCUPIED] == OCCUPIED).all()

    def test_restitch_is_idempotent(self):
        rng = np.random.default_rng(5)
        patch = patch_from_array(rng.integers(0, 2, (8, 12)), 24, 16, 6)
        pose = Pose(13.7, -4.2, 33.0)
        m1 = stitch_patch(OccupancyMap.empty(2.0), pose, patch)
        m2 = stitch_patch(m1, pose, patch)
        assert m1.origin == m2.origin
        assert (m1.grid == m2.grid).all()

    def test_input_map_untouched(self):
        patch = patch_from_array(np.zeros((4, 4)), 8, 8, 4)
        m = OccupancyMap.empty(2.0)
        stitch_patch(m, Pose(0, 0, 0), patch)
        assert m.width == 1 and m.height == 1 and m.grid[0, 0] == UNKNOWN

    def test_growth_past_the_cell_limit_rejected(self):
        patch = patch_from_array(np.zeros((4, 4)), 8, 8, 4)
        m = OccupancyMap.empty(2.0)
        # 1e300 used to reach np.pad as a float pad width; 4e7 cm is 2e7 cells
        for x, size in ((1e300, "5 x 5e+299"), (4e7, "5 x 2e+07")):
            message = f"map would grow to {size} cells, above the limit of {1 << 26}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                stitch_patch(m, Pose(x, 0.0, 0.0), patch)
        grown = stitch_patch(m, Pose(2e5, 0.0, 0.0), patch)
        assert grown.height * grown.width <= mapping.MAX_MAP_CELLS == 1 << 26

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_fusion_monotone(self, seed, steps):
        rng = np.random.default_rng(seed)
        m = OccupancyMap.empty(2.0)
        for _ in range(steps):
            patch = patch_from_array(rng.integers(0, 2, (5, 5)), 10, 10, 2)
            pose = Pose(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)),
                        float(rng.uniform(0, 360)))
            new = stitch_patch(m, pose, patch)
            # align by whole-cell origin shift
            dj = round((m.origin[0] - new.origin[0]) / m.cell_cm)
            di = round((m.origin[1] - new.origin[1]) / m.cell_cm)
            old_in_new = new.grid[di:di + m.height, dj:dj + m.width]
            assert (old_in_new[m.grid == OCCUPIED] == OCCUPIED).all()
            assert (old_in_new[m.grid != UNKNOWN] != UNKNOWN).all()
            m = new


class TestRotation:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_rot90_matches_cell_transform(self, k):
        rng = np.random.default_rng(11)
        grid = rng.integers(0, 3, (5, 8)).astype(np.uint8)
        m = OccupancyMap(cell_cm=2.0, origin=(4.0, -6.0), grid=grid)
        r = _rot90_map(m, k)
        ang = np.radians(90.0 * k)
        c, s = np.cos(ang), np.sin(ang)
        for i in range(m.height):
            for j in range(m.width):
                x = m.origin[0] + (j + 0.5) * m.cell_cm
                y = m.origin[1] + (i + 0.5) * m.cell_cm
                xr, yr = c * x - s * y, s * x + c * y
                jj = int(np.floor((xr - r.origin[0]) / r.cell_cm))
                ii = int(np.floor((yr - r.origin[1]) / r.cell_cm))
                assert r.grid[ii, jj] == grid[i, j]


class TestLocalize:
    def test_cutout_recovered_exactly(self):
        world = make_global_map()
        part = cutout(world, 30, 20, 50, 55)
        res = localize(world, part)
        assert res.score == 1.0
        assert res.pose.theta == 0.0
        assert res.pose.x == pytest.approx(20 * 2.0, abs=2.0)
        assert res.pose.y == pytest.approx(30 * 2.0, abs=2.0)

    def test_rotated_cutout_recovered(self):
        world = make_global_map(seed=3)
        part = cutout(world, 25, 40, 48, 42)
        rotated = _rot90_map(part, 3)  # content rotated -90; localize must undo it
        res = localize(world, rotated)
        assert res.score == 1.0
        assert res.pose.theta == 90.0

    def test_all_unknown_rejected(self):
        world = make_global_map()
        empty = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0),
                             grid=np.full((40, 40), UNKNOWN, dtype=np.uint8))
        with pytest.raises(ValueError, match="insufficient map content"):
            localize(world, empty)

    def test_cell_sizes_must_match(self):
        part = OccupancyMap(cell_cm=3.0, origin=(0.0, 0.0), grid=make_global_map(size=30).grid)
        with pytest.raises(mapping.PartialMapError,
                           match=r"^maps must share one cell size: the partial map's is 3\.0 cm, "
                                 r"the global map's 2\.0 cm$"):
            localize(make_global_map(), part)

    def test_contradictory_partial_ambiguous(self):
        # a checkerboard matches any region of the mostly-free world at ~50%
        world = make_global_map()
        yy, xx = np.mgrid[0:40, 0:40]
        board = np.where((xx + yy) % 2 == 0, FREE, OCCUPIED).astype(np.uint8)
        partial = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0), grid=board)
        with pytest.raises(ValueError, match="ambiguous localization"):
            localize(world, partial)


def tri_state(rng, shape, p_known, p_occ):
    known = rng.random(shape) < p_known
    occ = rng.random(shape) < p_occ
    return np.where(known, np.where(occ, OCCUPIED, FREE), UNKNOWN).astype(np.uint8)


def random_partial(rng):
    """A random tri-state map with at least one known cell, off the frame origin."""
    grid = tri_state(rng, tuple(rng.integers(1, 25, 2)), rng.uniform(0.05, 1.0),
                     rng.uniform(0.0, 0.6))
    grid[rng.integers(grid.shape[0]), rng.integers(grid.shape[1])] = FREE
    return OccupancyMap(cell_cm=float(rng.choice([1.0, 2.0, 2.5])),
                        origin=tuple(rng.uniform(-50.0, 50.0, 2)), grid=grid)


def draw_wall(grid, angle_deg, offset):
    """Mark an occupied straight wall through the grid at an arbitrary angle."""
    h, w = grid.shape
    rad = math.radians(angle_deg)
    t = np.linspace(-(h + w), h + w, 4 * (h + w))
    ys = np.round(h / 2 + offset + t * math.sin(rad)).astype(np.int64)
    xs = np.round(w / 2 + t * math.cos(rad)).astype(np.int64)
    keep = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    grid[ys[keep], xs[keep]] = OCCUPIED


@st.composite
def localize_cases(draw):
    """Random tri-state global and partial maps with a random search config.

    The partial is a rotated cutout of the global map (any whole-degree
    rotation), an unrelated random map, a map without OCCUPIED or without FREE
    cells, all FREE over an all-FREE global map, where every placement ties, or
    a map with no known cell at all.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gh, gw = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("cutout", "random", "free_only", "occupied_only", "uniform",
                                 "empty")))
    if kind == "uniform":
        world = np.full((gh, gw), FREE, dtype=np.uint8)
    else:
        world = tri_state(rng, (gh, gw), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.5)))
        for _ in range(draw(st.integers(0, 2))):
            draw_wall(world, draw(st.floats(0.0, 180.0)), draw(st.integers(-10, 10)))
    origin = (draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))
    cell = draw(st.sampled_from((1.0, 2.0, 2.5)))
    global_map = OccupancyMap(cell_cm=cell, origin=origin, grid=world)

    if kind == "cutout":
        r0, c0 = draw(st.integers(0, gh - 1)), draw(st.integers(0, gw - 1))
        rows, cols = draw(st.integers(1, gh - r0)), draw(st.integers(1, gw - c0))
        part = OccupancyMap(cell_cm=cell, origin=(0.0, 0.0),
                            grid=world[r0:r0 + rows, c0:c0 + cols].copy())
        part = _rotate_map(part, draw(st.integers(0, 359)))
    else:
        shape = (draw(st.integers(1, 30)), draw(st.integers(1, 30)))
        p_occ = {"free_only": 0.0, "occupied_only": 1.0}.get(kind, draw(st.floats(0.0, 0.5)))
        grid = tri_state(rng, shape, draw(st.floats(0.2, 1.0)), p_occ)
        if kind == "uniform":
            grid[grid == OCCUPIED] = FREE
        if kind == "empty":
            grid[:] = UNKNOWN
        part = OccupancyMap(cell_cm=draw(st.sampled_from((cell,) * 5 + (3.0,))),
                            origin=(draw(st.floats(-20.0, 20.0)), 0.0), grid=grid)

    cfg = LocalizeConfig(min_known=draw(st.integers(0, 3) | st.integers(0, 60)),
                         min_score=draw(st.just(0.0) | st.floats(0.0, 1.0)),
                         min_overlap_frac=draw(st.floats(0.0, 0.3) | st.floats(0.0, 1.0)))
    return global_map, part, cfg


def direct_counts(g, p):
    """Overlap and match counts of every placement, summed cell by cell."""
    gh, gw = g.shape
    h, w = p.shape
    overlap = np.zeros((gh + h - 1, gw + w - 1))
    match = np.zeros_like(overlap)
    for ay in range(gh + h - 1):
        for ax in range(gw + w - 1):
            dy, dx = ay - (h - 1), ax - (w - 1)
            i0, i1 = max(0, -dy), min(h, gh - dy)
            j0, j1 = max(0, -dx), min(w, gw - dx)
            pg = p[i0:i1, j0:j1]
            gg = g[i0 + dy:i1 + dy, j0 + dx:j1 + dx]
            both = (pg != UNKNOWN) & (gg != UNKNOWN)
            overlap[ay, ax] = both.sum()
            match[ay, ax] = (both & (pg == gg)).sum()
    return overlap, match


def correlate(g, p):
    """Whether ``_Correlator`` packs partial grid p's counts against g, and its
    (overlap, match) of every placement."""
    shape = (_smooth_size(g.shape[0] + p.shape[0] - 1), _smooth_size(g.shape[1] + p.shape[1] - 1))
    counts = _Correlator(g, int((p == FREE).sum()), int((p == OCCUPIED).sum()), shape)
    overlap, match = counts(counts.code[p[::-1, ::-1]])
    return counts.packed, overlap, match


def xcorr_counts(g, p):
    """(overlap, match) of every placement, from one small exact correlation
    per pair of states."""
    return (_fft_xcorr(g != UNKNOWN, p != UNKNOWN),
            _fft_xcorr(g == FREE, p == FREE) + _fft_xcorr(g == OCCUPIED, p == OCCUPIED))


def recorded_layouts(monkeypatch):
    """A list that collects, in order, whether each correlator built packed its counts."""
    layouts = []

    class Recording(_Correlator):
        def __init__(self, *args):
            super().__init__(*args)
            layouts.append(self.packed)

    monkeypatch.setattr(mapping, "_Correlator", Recording)
    return layouts


class TestSharedSpectraSearch:
    @settings(max_examples=300, deadline=None)
    @given(localize_cases(), st.sets(st.integers(0, 359), max_size=6).map(sorted))
    def test_matches_per_rotation_oracle(self, case, rotations):
        global_map, part, cfg = case
        try:
            expected = per_rotation_localize(global_map, part, cfg, rotations)
        except ValueError as exc:
            event(str(exc).split(":")[0])
            with pytest.raises(ValueError) as got:
                _localize_at(global_map, part, cfg, rotations)
            assert str(got.value) == str(exc)
        else:
            event(f"localized, theta {'on' if expected.pose.theta % 90 == 0 else 'off'} "
                  "the quarter turns")
            assert _localize_at(global_map, part, cfg, rotations) == expected

    @settings(max_examples=40, deadline=None)
    @given(localize_cases())
    def test_localize_returns_the_best_placement_at_its_rotation(self, case):
        # the rotations the coarse stage keeps are internal, but the pose found
        # must be the oracle's best placement at its own rotation, and an error
        # must be one the full-resolution stage raises
        global_map, part, cfg = case
        try:
            res = localize(global_map, part, cfg)
        except ValueError as exc:
            event(str(exc).split(":")[0])
            if not str(exc).startswith("ambiguous localization"):
                with pytest.raises(ValueError) as got:
                    per_rotation_localize(global_map, part, cfg, [])
                assert str(got.value) == str(exc)
        else:
            event("localized")
            assert res.pose.theta == int(res.pose.theta)
            assert per_rotation_localize(global_map, part, cfg, [int(res.pose.theta)]) == res

    def test_pool_keeps_the_strongest_state(self):
        grid = np.array([[UNKNOWN, FREE, UNKNOWN],
                         [OCCUPIED, UNKNOWN, UNKNOWN],
                         [FREE, UNKNOWN, UNKNOWN]], dtype=np.uint8)
        assert _pool(grid, 2).tolist() == [[OCCUPIED, UNKNOWN], [FREE, UNKNOWN]]

    def test_min_overlap_above_global_known_count(self):
        # 225 partial cells must overlap, but the global map has only 144
        world = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0),
                             grid=np.full((12, 12), FREE, dtype=np.uint8))
        part = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0),
                            grid=np.full((15, 15), FREE, dtype=np.uint8))
        cfg = LocalizeConfig(min_known=200, min_score=0.0, min_overlap_frac=1.0)
        message = "ambiguous localization: no placement overlaps 225 known cells"
        with pytest.raises(ValueError, match=message):
            localize(world, part, cfg)
        with pytest.raises(ValueError, match=message):
            per_rotation_localize(world, part, cfg, [0, 90])

    def test_placement_must_overlap_a_known_cell(self):
        # no floor from min_known or min_overlap_frac still leaves one cell:
        # an all-UNKNOWN world has no placement to score, not a 0.0 match
        world = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0),
                             grid=np.zeros((20, 20), dtype=np.uint8))
        part = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0),
                            grid=(np.arange(120) < 19).reshape(10, 12).astype(np.uint8))
        cfg = LocalizeConfig(min_known=0, min_score=0.0, min_overlap_frac=0.0)
        message = "ambiguous localization: no placement overlaps 1 known cells"
        with pytest.raises(ValueError, match=message):
            localize(world, part, cfg)
        with pytest.raises(ValueError, match=message):
            per_rotation_localize(world, part, cfg, [0, 90])

    @pytest.mark.parametrize("global_shape, partial_shapes", [
        ((1, 31), [(1, 7), (1, 1), (3, 2)]),
        ((97, 89), [(7, 5), (1, 13), (11, 2)]),
        ((5, 3), [(9, 11)]),
    ])
    def test_counts_equal_direct_sums(self, global_shape, partial_shapes):
        rng = np.random.default_rng(sum(global_shape))
        g = tri_state(rng, global_shape, 0.7, 0.4)
        for shape in partial_shapes:
            p = tri_state(rng, shape, 0.8, 0.4)
            _, overlap, match = correlate(g, p)
            want_overlap, want_match = direct_counts(g, p)
            assert np.array_equal(overlap, want_overlap)
            assert np.array_equal(match, want_match)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_counts_equal_fft_xcorr(self, seed):
        rng = np.random.default_rng(seed)
        g = tri_state(rng, tuple(rng.integers(1, 60, 2)), rng.uniform(0, 1), rng.uniform(0, 1))
        p = tri_state(rng, tuple(rng.integers(1, 40, 2)), rng.uniform(0, 1), rng.uniform(0, 1))
        packed, overlap, match = correlate(g, p)
        want_overlap, want_match = xcorr_counts(g, p)
        assert packed
        assert np.array_equal(overlap, want_overlap)
        assert np.array_equal(match, want_match)

    @pytest.mark.parametrize("p_occ, packed", [(0.25, True), (0.35, False)])
    def test_counts_equal_fft_xcorr_on_each_side_of_the_bound(self, p_occ, packed):
        # both grids fully known, so B = 2^15 and L = 360^2: the packed check
        # u·log2(L)·‖g‖₂·‖q‖₂ <= 1/64 holds up to about 30% OCCUPIED cells
        rng = np.random.default_rng(31)
        g = tri_state(rng, (200, 200), 1.0, p_occ)
        p = tri_state(rng, (130, 130), 1.0, p_occ)
        got_packed, overlap, match = correlate(g, p)
        want_overlap, want_match = xcorr_counts(g, p)
        assert got_packed == packed
        assert np.array_equal(overlap, want_overlap)
        assert np.array_equal(match, want_match)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 3)),
           st.lists(st.integers(0, 359) | st.sampled_from((0, 90, 180, 270)),
                    min_size=1, max_size=8))
    def test_rotated_equals_each_rotation_alone(self, seed, pool, rotations):
        m = random_partial(np.random.default_rng(seed))
        code = np.array([0.0, 1.0, 2.0])
        for rot in rotations:
            frame, grid = _rotated(m, rot, _known_cells(m), pool, code)
            r = _rotate_map(m, rot)
            assert frame == (r.origin, r.grid.shape)
            want = code[_pool(r.grid, pool)][::-1, ::-1]
            assert np.array_equal(grid, want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 359) | st.sampled_from((0, 90, 180, 270)),
                    min_size=1, max_size=6))
    def test_search_pools_both_grids_by_its_factor(self, seed, rotations):
        rng = np.random.default_rng(seed)
        m = random_partial(rng)
        g = tri_state(rng, tuple(rng.integers(1, 60, 2)), rng.uniform(0.3, 1.0),
                      rng.uniform(0.0, 0.6))
        min_overlap = int(rng.integers(1, 6))
        got = [(score, at if score >= 0 else None)
               for _, score, at in _search(g, m, rotations, 3, min_overlap)]
        pooled = [_pool(_rotate_map(m, rot).grid, 3) for rot in rotations]
        assert got == list(_best_placements(_pool(g, 3), pooled, min_overlap))

    def test_search_builds_one_correlator_per_shape(self, monkeypatch):
        # a 9x31 partial turns between three transform shapes, each met again
        # after another one
        built = []

        class Recording(_Correlator):
            def __init__(self, global_grid, n_free, n_occupied, shape):
                super().__init__(global_grid, n_free, n_occupied, shape)
                built.append(shape)

        monkeypatch.setattr(mapping, "_Correlator", Recording)
        rng = np.random.default_rng(6)
        g = tri_state(rng, (60, 50), 0.8, 0.3)
        m = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0), grid=tri_state(rng, (9, 31), 0.9, 0.3))
        rotations = [0, 90, 0, 37, 90, 180, 37, 270]
        got = [(score, at if score >= 0 else None)
               for _, score, at in _search(g, m, rotations, 1, 3)]
        grids = [_rotate_map(m, rot).grid for rot in rotations]
        assert got == list(_best_placements(g, grids, 3))
        assert len(built) == len(set(built)) == 3

    @settings(max_examples=100, deadline=None)
    @given(localize_cases())
    @example((make_global_map(size=20),
              OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0), grid=np.zeros((1, 1), np.uint8)),
              LocalizeConfig(min_known=0, min_score=0.0, min_overlap_frac=0.0)))
    def test_localize_equals_pooled_coarse_oracle(self, case):
        global_map, part, cfg = case
        try:
            expected = pooled_coarse_localize(global_map, part, cfg)
        except ValueError as exc:
            event(str(exc).split(":")[0])
            with pytest.raises(ValueError) as got:
                localize(global_map, part, cfg)
            assert str(got.value) == str(exc)
        else:
            event("localized")
            assert localize(global_map, part, cfg) == expected

    @pytest.mark.parametrize("size, cut, packed", [(140, (40, 50, 45, 53), True),
                                                   (300, (0, 0, 300, 300), False)])
    def test_equals_oracle_within_its_working_set(self, monkeypatch, size, cut, packed):
        # a room of the benchmark's size with a partial about as large as its
        # episodes build, and the README's 300x300 map localizing all of
        # itself, where the counts outgrow the packed layout. The oracle is
        # the per-heading search; its traced peaks were 3.55 and 36.5 MB, this
        # search's 3.32 and 39.1 MB (numpy 2.4), as each stage keeps the global
        # spectra of every FFT shape it meets
        world = make_global_map(seed=7, size=size)
        part = _rotate_map(cutout(world, *cut), 323)
        layouts = recorded_layouts(monkeypatch)
        peaks = []
        for search in (pooled_coarse_localize, localize):
            tracemalloc.start()
            try:
                result = search(world, part)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            if search is pooled_coarse_localize:
                expected = result
        assert result == expected
        # every correlator built, one per FFT shape a heading needs
        assert layouts and all(layout == packed for layout in layouts)
        # at most 10% above the per-heading search's peak
        assert peaks[1] <= 1.1 * peaks[0], [f"{p / 1e6:.2f} MB" for p in peaks]

    def test_counts_too_large_to_be_exact_rejected(self):
        # 2^26 OCCUPIED partial cells make B = 2^27, so even the split
        # layout's outputs could reach 2^53
        with pytest.raises(ValueError, match="maps too large to count placements exactly"):
            _Correlator(np.full((4, 4), OCCUPIED, np.uint8), 0, 2 ** 26, (8, 8))

    def test_smooth_size(self):
        smooth = [2**a * 3**b * 5**c for a in range(9) for b in range(6) for c in range(4)]
        for n in range(1, 257):
            assert _smooth_size(n) == min(m for m in smooth if m >= n)

    @pytest.mark.parametrize("field", ["min_score", "min_overlap_frac"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_fractions_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must lie in \\[0, 1\\]"):
            LocalizeConfig(**{field: value})

    @pytest.mark.parametrize("value", [-3, 2.5, 50.0, True, "50", None])
    def test_min_known_must_be_a_non_negative_int(self, value):
        with pytest.raises(ValueError, match="^min_known must be an integer at least 0, got "):
            LocalizeConfig(min_known=value)


class TestExplore:
    def test_zero_motion_idempotent(self):
        frame = corridor_frame()
        m, pose = explore_step(OccupancyMap.empty(2.0), Pose(0, 0, 0), frame, 0.0, 0.0)
        m2, pose2 = explore_step(m, pose, frame, 0.0, 0.0)
        assert (m.grid == m2.grid).all()
        assert m.origin == m2.origin
        assert pose == pose2

    def test_corridor_free_length(self):
        cfg = ExploreConfig()
        m = OccupancyMap.empty(2.0)
        pose = Pose(0, 0, 0)
        steps = 10
        for _ in range(steps):
            m, pose = explore_step(m, pose, corridor_frame(), 20.0, 0.0, cfg)
        free = np.argwhere(m.grid == FREE)
        xs = m.origin[0] + (free[:, 1] + 0.5) * m.cell_cm
        length = xs.max() - xs.min() + m.cell_cm
        expected = cfg.patch_depth_cm + (steps - 1) * 20.0
        assert abs(length - expected) <= 0.05 * expected
        assert (m.grid == OCCUPIED).sum() > 0

    def test_segmentation_error_propagates(self):
        frame = Raster(np.full((30, 40), 111, dtype=np.uint8))
        with pytest.raises(ValueError, match="degenerate histogram"):
            explore_step(OccupancyMap.empty(2.0), Pose(0, 0, 0), frame, 10.0, 0.0)


class TestSerialization:
    def test_round_trip(self):
        world = make_global_map(seed=4, size=30)
        again = map_from_bytes(map_to_bytes(world))
        assert again.cell_cm == world.cell_cm
        assert again.origin == world.origin
        assert (again.grid == world.grid).all()

    @pytest.mark.parametrize("cell_cm", [0.0, -2.0, float("nan"), float("inf")])
    def test_cell_size_must_be_positive_and_finite(self, cell_cm):
        with pytest.raises(ValueError, match="cell size must be positive and finite"):
            OccupancyMap(cell_cm=cell_cm, origin=(0.0, 0.0), grid=np.zeros((2, 2), np.uint8))

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data[:data.index(b"\n")], "malformed map file: missing header line"),
        (lambda data: b"cell_cm=2" + data[data.index(b"\n"):],
         "malformed map header: Expecting value: line 1 column 1 (char 0)"),
        (lambda data: data.replace(b'"width": 8', b'"width": 9', 1),
         "map header dimensions do not match the grid body"),
    ])
    def test_malformed_file_rejected(self, edit, message):
        data = map_to_bytes(make_global_map(seed=5, size=8))
        with pytest.raises(ValueError) as exc:
            map_from_bytes(edit(data))
        assert str(exc.value) == message

    def test_bad_cell_value_rejected(self):
        data = map_to_bytes(make_global_map(seed=5, size=8))
        corrupted = data[:-1] + bytes([7])
        with pytest.raises(ValueError, match="invalid map cell value"):
            map_from_bytes(corrupted)

    @pytest.mark.parametrize("make, value, message", [
        *[("map", v, "unknown/free/occupied") for v in (-255, -1, 3, 257, 1.7, np.nan)],
        *[("mask", v, r"whole numbers in \[0, num_labels\)") for v in (-1, 2, 1.9, np.nan)],
    ])
    def test_values_that_would_wrap_or_truncate_rejected(self, make, value, message):
        # checked before the cast, after which -255 and 257 read as FREE, 1.7 and
        # 1.9 as 1, and nan as UNKNOWN
        cells = np.array([[0, 1], [1, value]])
        with pytest.raises(ValueError, match=message):
            if make == "map":
                OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0), grid=cells)
            else:
                LabelMask(cells, num_labels=2)
        whole = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0), grid=whole).grid.dtype == np.uint8
        assert LabelMask(whole, num_labels=2).labels.dtype == np.int32

    @pytest.mark.parametrize("edit, field", [
        (lambda h: [1, 2], "expected a JSON object"),
        (lambda h: {**h, "origin": 5}, "'origin' must be a pair of numbers"),
        (lambda h: {**h, "origin": [1.0]}, "'origin' must be a pair of numbers"),
        (lambda h: {k: v for k, v in h.items() if k != "width"}, "missing 'width'"),
        (lambda h: {k: v for k, v in h.items() if k != "cell_cm"}, "missing 'cell_cm'"),
        (lambda h: {**h, "cell_cm": "2"}, "'cell_cm' must be a number"),
        (lambda h: {**h, "height": 8.0}, "'height' must be an integer"),
    ])
    def test_malformed_header_rejected(self, edit, field):
        data = map_to_bytes(make_global_map(seed=5, size=8))
        newline = data.index(b"\n")
        header = edit(json.loads(data[:newline]))
        bad = json.dumps(header).encode("ascii") + data[newline:]
        with pytest.raises(ValueError, match=f"malformed map header: {field}"):
            map_from_bytes(bad)
