"""Occupancy-grid mapping: dead-reckoned poses, stitching segmented ground
patches into a growing tri-state map, and matching a partial map onto a
complete one to recover the rigid transform between their frames.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .raster import Raster, _whole_in_range, read_pnm, write_pnm
from .segmentation import LabelMask, SegmentConfig, segment_floor

UNKNOWN, FREE, OCCUPIED = 0, 1, 2
_STATE_TO_PNM = np.array([128, 255, 0], dtype=np.uint8)
# localize scores every _COARSE_STEP_DEG-th degree on grids pooled _POOL x _POOL,
# then re-scores the _KEEP best, and each degree within a step of them, unpooled
_COARSE_STEP_DEG, _POOL, _KEEP = 2, 2, 4
# the most cells a stitched map may grow to: 64 MiB as uint8, which stitch_patch
# copies on every step, or 164 m on a side at the default 2 cm cell
MAX_MAP_CELLS = 1 << 26


@dataclass(frozen=True)
class Pose:
    """Planar pose: x/y in cm, heading in degrees CCW from +x, normalized to [0, 360)."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % 360.0)


@dataclass(eq=False)
class OccupancyMap:
    """Tri-state world grid; cell (row, col) covers a cell_cm square whose lower
    corner sits at origin + (col, row) * cell_cm. The grid only ever grows."""

    cell_cm: float
    origin: tuple  # (x_cm, y_cm) of cell (0, 0)
    grid: np.ndarray

    def __post_init__(self):
        if not 0 < self.cell_cm < math.inf:
            raise ValueError("cell size must be positive and finite")
        g = np.asarray(self.grid)
        if g.ndim != 2:
            raise ValueError("grid must be 2-D")
        # a uint8 grid, as stitch_patch copies on every step, cannot wrap in
        # the cast, so only its upper bound is scanned
        valid = (not g.size or g.max() <= OCCUPIED) if g.dtype == np.uint8 \
            else _whole_in_range(g, UNKNOWN, OCCUPIED)
        if not valid:
            raise ValueError("grid cells must be unknown/free/occupied")
        self.grid = g.astype(np.uint8, copy=False)
        self.origin = (float(self.origin[0]), float(self.origin[1]))

    @classmethod
    def empty(cls, cell_cm: float = 2.0) -> "OccupancyMap":
        return cls(cell_cm=cell_cm, origin=(0.0, 0.0),
                   grid=np.full((1, 1), UNKNOWN, dtype=np.uint8))

    def copy(self) -> "OccupancyMap":
        return OccupancyMap(cell_cm=self.cell_cm, origin=self.origin, grid=self.grid.copy())

    @property
    def height(self) -> int:
        return self.grid.shape[0]

    @property
    def width(self) -> int:
        return self.grid.shape[1]

    def known_count(self) -> int:
        return int((self.grid != UNKNOWN).sum())

    def _expand_to(self, x_min, x_max, y_min, y_max):
        """Grow the grid (with unknown cells) until the world bbox is covered;
        raise ValueError, before allocating, past MAX_MAP_CELLS cells."""
        c = self.cell_cm
        ox, oy = self.origin
        j0 = math.floor((x_min - ox) / c)
        j1 = math.floor((x_max - ox) / c)
        i0 = math.floor((y_min - oy) / c)
        i1 = math.floor((y_max - oy) / c)
        pad_left = max(0, -j0)
        pad_right = max(0, j1 - (self.width - 1))
        pad_bottom = max(0, -i0)
        pad_top = max(0, i1 - (self.height - 1))
        h, w = self.height + pad_bottom + pad_top, self.width + pad_left + pad_right
        if h * w > MAX_MAP_CELLS:
            raise ValueError(f"map would grow to {h:.4g} x {w:.4g} cells, above the limit "
                             f"of {MAX_MAP_CELLS}")
        if pad_left or pad_right or pad_bottom or pad_top:
            self.grid = np.pad(self.grid,
                               ((pad_bottom, pad_top), (pad_left, pad_right)),
                               constant_values=UNKNOWN)
            self.origin = (ox - pad_left * c, oy - pad_bottom * c)


@dataclass(frozen=True)
class GroundPatch:
    """Binary floor/obstacle view of the ground rectangle ahead of the robot."""

    mask: LabelMask
    width_cm: float
    depth_cm: float
    offset_cm: float

    def __post_init__(self):
        for name in ("width_cm", "depth_cm", "offset_cm"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"patch {name} must be a finite positive number, got {v!r}")


def advance_pose(p: Pose, forward_cm: float, rotate_deg: float) -> Pose:
    """Rotate, then translate along the new heading."""
    if not (math.isfinite(forward_cm) and math.isfinite(rotate_deg)):
        raise ValueError(f"motion must be finite, got forward {forward_cm!r}, "
                         f"rotate {rotate_deg!r}")
    theta = (p.theta + rotate_deg) % 360.0
    rad = math.radians(theta)
    return Pose(x=p.x + forward_cm * math.cos(rad),
                y=p.y + forward_cm * math.sin(rad),
                theta=theta)


def stitch_patch(m: OccupancyMap, pose: Pose, patch: GroundPatch) -> OccupancyMap:
    """Rigid-transform a ground patch into the map frame and fuse it in.

    Fusion per cell: occupied dominates forever, free fills in unknown, and
    unknown never overwrites anything. Returns a new map; the input is untouched.
    """
    out = m.copy()
    mask = patch.mask.labels
    mh, mw = mask.shape
    rad = math.radians(pose.theta)
    cos_t, sin_t = math.cos(rad), math.sin(rad)

    corners_robot = [(patch.offset_cm, -patch.width_cm / 2.0),
                     (patch.offset_cm, patch.width_cm / 2.0),
                     (patch.offset_cm + patch.depth_cm, -patch.width_cm / 2.0),
                     (patch.offset_cm + patch.depth_cm, patch.width_cm / 2.0)]
    corners = [(pose.x + cos_t * rx - sin_t * ry, pose.y + sin_t * rx + cos_t * ry)
               for rx, ry in corners_robot]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    out._expand_to(min(xs), max(xs), min(ys), max(ys))

    c = out.cell_cm
    ox, oy = out.origin
    j0 = max(0, math.floor((min(xs) - ox) / c))
    j1 = min(out.width - 1, math.floor((max(xs) - ox) / c))
    i0 = max(0, math.floor((min(ys) - oy) / c))
    i1 = min(out.height - 1, math.floor((max(ys) - oy) / c))

    jj, ii = np.meshgrid(np.arange(j0, j1 + 1), np.arange(i0, i1 + 1))
    wx = ox + (jj + 0.5) * c
    wy = oy + (ii + 0.5) * c
    dx = wx - pose.x
    dy = wy - pose.y
    rx = cos_t * dx + sin_t * dy
    ry = -sin_t * dx + cos_t * dy

    col = np.floor((patch.width_cm / 2.0 - ry) / patch.width_cm * mw).astype(np.int64)
    row = mh - 1 - np.floor((rx - patch.offset_cm) / patch.depth_cm * mh).astype(np.int64)
    valid = (col >= 0) & (col < mw) & (row >= 0) & (row < mh)

    state = np.full(valid.shape, UNKNOWN, dtype=np.uint8)
    state[valid] = np.where(mask[row[valid], col[valid]] == 0, FREE, OCCUPIED)

    sub = out.grid[i0:i1 + 1, j0:j1 + 1]
    sub[(state == FREE) & (sub == UNKNOWN)] = FREE
    sub[state == OCCUPIED] = OCCUPIED
    return out


def _known_cells(m: OccupancyMap):
    """The centres (cx, cy) of the map's FREE cells, then of its OCCUPIED ones,
    and how many are FREE."""
    free, occupied = np.nonzero(m.grid == FREE), np.nonzero(m.grid == OCCUPIED)
    ii, jj = (np.concatenate(pair) for pair in zip(free, occupied))
    c = m.cell_cm
    return m.origin[0] + (jj + 0.5) * c, m.origin[1] + (ii + 0.5) * c, len(free[0])


# (cos, sin) of 0, 90, 180 and 270 degrees, exact
_QUARTER_COS_SIN = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def _rotated(m: OccupancyMap, rot, cells, pool: int, code):
    """The partial turned CCW by ``rot`` degrees: its (origin, (height, width))
    on the map frame's grid, and that grid, its states coded by ``code``
    (UNKNOWN 0 < FREE < OCCUPIED), pooled ``pool`` x ``pool`` by a max (ragged
    edges padded UNKNOWN) and flipped on both axes.

    Each known cell's centre, from ``cells`` (``_known_cells``), is turned and
    binned on that grid. At a quarter turn cos and sin are exact, so every
    centre lands on a cell, and the grid is the partial's own grid turned,
    UNKNOWN margins kept: its corner sets where the pooled blocks fall. At any
    other turn its corner sits half a cell below the smallest turned centre.
    Cells go straight to their pooled cells, FREE first and then OCCUPIED, so
    OCCUPIED wins both where rotated cells collide and within a block.
    """
    cx, cy, n_free = cells
    c = m.cell_cm
    turns = rot % 360 / 90
    quarter = turns == int(turns)
    if quarter:
        cos, sin = _QUARTER_COS_SIN[int(turns)]
    else:
        rad = math.radians(rot % 360.0)
        cos, sin = math.cos(rad), math.sin(rad)
    rx, ry = cos * cx - sin * cy, sin * cx + cos * cy
    if quarter:
        (ox, oy), shape = m.origin, m.grid.shape
        for _ in range(int(turns)):  # (x, y) -> (-y, x) moves the lower corner here
            (ox, oy), shape = (-oy - shape[0] * c, ox), shape[::-1]
    else:
        ox, oy = float(rx.min()) - 0.5 * c, float(ry.min()) - 0.5 * c
    # the offsets are at least half a cell, so truncation floors them
    rows, cols = ((ry - oy) / c).astype(np.intp), ((rx - ox) / c).astype(np.intp)
    if not quarter:
        shape = int(rows.max()) + 1, int(cols.max()) + 1
    h, w = (-(-n // pool) for n in shape)
    grid = np.zeros(h * w)
    at = h * w - 1 - rows // pool * w - cols // pool
    grid[at[:n_free]] = code[FREE]
    grid[at[n_free:]] = code[OCCUPIED]
    return ((ox, oy), shape), grid.reshape(h, w)


def _code(n_known: int) -> np.ndarray:
    """Values for UNKNOWN, FREE and OCCUPIED cells: 0, 1 and B, the smallest
    power of two above ``n_known``."""
    return np.array([0.0, 1.0, float(1 << n_known.bit_length())])


class _Correlator:
    """Exact overlap and match counts of partial grids against one global grid.

    The grids are coded by ``_code(n_known)``: FREE -> 1, OCCUPIED -> B, where
    B is the smallest power of two above ``n_known``, the number of known
    cells any partial grid has. Correlating a partial q with the global g
    then gives, at each placement, X = ff + B·(fo + of) + B²·oo, where ff
    counts the partial's FREE cells on global FREE cells, fo and of the mixed
    pairs, and oo the OCCUPIED cells on OCCUPIED ones. All of them together
    count at most ``n_known`` cells, so each is one base-B digit of X, and
    match = ff + oo, overlap = ff + fo + of + oo.

    The digits are exact when X is rounded to the right integer. Percival
    (2003) bounds the error of each output of an FFT correlation of L points
    by about 13·u·log2(L)·‖g‖₂·‖q‖₂, with u the float64 unit round-off. So
    one transform (the packed layout) is used when X < 2^53 and
    u·log2(L)·‖g‖₂·‖q‖₂ ≤ 1/64, which keeps that bound under 1/4. Otherwise
    (the split layout) the global KNOWN and OCCUPIED grids are correlated
    with q apart: two inverse transforms, whose outputs hold two B-digits
    each, (ff + of) + B·(fo + oo) and of + B·oo, under the same check with
    their own norm and size. The norms are taken over ``n_free`` FREE and
    ``n_occupied`` OCCUPIED cells, which bound those of every partial grid:
    rotating and pooling a grid never adds cells of either state.
    """

    def __init__(self, global_grid: np.ndarray, n_free: int, n_occupied: int, shape):
        n_known = n_free + n_occupied
        self.code = _code(n_known)
        self.base = float(self.code[OCCUPIED])
        big = int(self.base)
        self.shape, self.global_shape = shape, global_grid.shape
        g_free = int(np.count_nonzero(global_grid == FREE))
        g_occupied = int(np.count_nonzero(global_grid == OCCUPIED))
        q_norm = math.sqrt(n_free + big ** 2 * n_occupied)
        depth = math.log2(shape[0] * shape[1])

        def exact(x_max, g_norm):
            return x_max < 2 ** 53 and 2.0 ** -53 * depth * g_norm * q_norm <= 1 / 64

        self.packed = exact(n_known * big ** 2, math.sqrt(g_free + big ** 2 * g_occupied))
        if self.packed:
            self.spectra = [np.fft.rfft2(self.code[global_grid], shape)]
        elif exact(n_known * big, math.sqrt(g_free + g_occupied)):
            self.spectra = [np.fft.rfft2(global_grid != UNKNOWN, shape),
                            np.fft.rfft2(global_grid == OCCUPIED, shape)]
        else:
            raise ValueError(f"maps too large to count placements exactly: {n_known} known "
                             f"partial cells on {shape[0]}x{shape[1]} transforms")

    def __call__(self, grid: np.ndarray):
        """(overlap, match) as integer-valued float arrays, for a partial grid
        coded with ``self.code`` and flipped on both axes. Entry
        [dy + h - 1, dx + w - 1] counts the cells (i, j) of the (h, w) grid
        that land on global cell (i + dy, j + dx).
        """
        h, w = grid.shape
        crop = slice(self.global_shape[0] + h - 1), slice(self.global_shape[1] + w - 1)
        spectrum = np.fft.rfft2(grid, self.shape)
        digits = []
        for g in self.spectra:
            x = np.rint(np.fft.irfft2(spectrum * g, self.shape)[crop])
            digits += self._split(x)
        if self.packed:
            ff, rest = digits
            mixed, oo = self._split(rest)
            ff += oo
            return ff + mixed, ff
        known_free, known_occupied, occupied_free, occupied_occupied = digits
        known_occupied += known_free
        known_free -= occupied_free
        known_free += occupied_occupied
        return known_occupied, known_free

    def _split(self, x):
        """(x mod B, x // B), the first in place, for integer-valued x >= 0
        below 2^53; every step is exact, as B is a power of two."""
        high = np.floor(x * (1.0 / self.base))
        x -= high * self.base
        return [x, high]


def _pool(grid: np.ndarray, pool: int) -> np.ndarray:
    """Pool ``pool`` x ``pool`` blocks (ragged edges padded UNKNOWN): OCCUPIED if
    any cell is, else FREE if any is. UNKNOWN < FREE < OCCUPIED, so that is a max."""
    g = np.pad(grid, ((0, -grid.shape[0] % pool), (0, -grid.shape[1] % pool)))
    return g.reshape(g.shape[0] // pool, pool, -1, pool).max(axis=(1, 3))


def _search(global_grid: np.ndarray, partial: OccupancyMap, rotations, pool: int,
            min_overlap: int):
    """Yield each rotation's ((origin, shape), score, (ay, ax)), in order.

    The partial rotated by each angle, and the global grid, are pooled
    ``pool`` x ``pool`` (1 leaves them as they are). The score is the best
    match / overlap over placements with at least ``min_overlap`` overlapping
    cells, -1.0 when there is none, and (ay, ax) is its first index, row-major,
    into the rotation's (H + h - 1, W + w - 1) counts (``_Correlator``).
    Each rotation is correlated on the smallest 2·3·5-smooth shape that fits
    its own turned grid; the search builds one correlator per shape, and frees
    them all when it ends.
    """
    if not rotations or not partial.known_count():
        return
    if pool > 1:
        global_grid = _pool(global_grid, pool)
    gh, gw = global_grid.shape
    cells = _known_cells(partial)
    n_free, n_occupied = cells[2], len(cells[0]) - cells[2]
    code, correlators = _code(n_free + n_occupied), {}
    for rot in rotations:
        frame, grid = _rotated(partial, rot, cells, pool, code)
        shape = (_smooth_size(gh + grid.shape[0] - 1), _smooth_size(gw + grid.shape[1] - 1))
        if shape not in correlators:
            correlators[shape] = _Correlator(global_grid, n_free, n_occupied, shape)
        overlap, match = correlators[shape](grid)
        invalid = overlap < min_overlap
        scores = np.divide(match, np.maximum(overlap, 1, out=overlap), out=match)
        scores[invalid] = -1.0
        at = int(scores.argmax())
        yield frame, float(scores.flat[at]), divmod(at, scores.shape[1])


@dataclass(frozen=True)
class LocalizeConfig:
    min_known: int = 50
    min_score: float = 0.6
    # placements are scored only where at least this fraction of the partial's
    # known cells lands on known global cells (floored by min_known and 1); sliver
    # overlaps would otherwise win on luck, and frontier placements by hiding
    # their distinctive cells over unexplored territory
    min_overlap_frac: float = 0.5

    def __post_init__(self):
        if not isinstance(self.min_known, int) or isinstance(self.min_known, bool) \
                or self.min_known < 0:
            raise ValueError(f"min_known must be a non-negative integer, not {self.min_known!r}")
        # both are fractions of cells, so a value above 1 could never be met
        for name in ("min_score", "min_overlap_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class LocalizeResult:
    pose: Pose
    score: float


class PartialMapError(ValueError):
    """The partial map cannot be matched: it has fewer known cells than
    ``LocalizeConfig.min_known``, or another cell size than the global map."""


def _smooth_size(n: int) -> int:
    """The smallest integer >= n with no prime factor above 5, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _required_overlap(global_map: OccupancyMap, partial: OccupancyMap,
                      cfg: LocalizeConfig) -> int:
    """Check that the maps can be matched; return the overlap a placement needs,
    at least one cell."""
    if partial.known_count() < cfg.min_known:
        raise PartialMapError(f"insufficient map content: {partial.known_count()} "
                              f"known cells, need {cfg.min_known}")
    if abs(global_map.cell_cm - partial.cell_cm) > 1e-9:
        raise PartialMapError(f"maps must share one cell size: the partial map's is "
                              f"{partial.cell_cm} cm, the global map's {global_map.cell_cm} cm")
    return max(1, cfg.min_known, int(math.ceil(cfg.min_overlap_frac * partial.known_count())))


def _localize_at(global_map: OccupancyMap, partial: OccupancyMap, cfg: LocalizeConfig,
                 rotations: list) -> LocalizeResult:
    """The best placement at full resolution over the rotations, in the given order."""
    min_overlap = _required_overlap(global_map, partial, cfg)
    best_score, best = -1.0, None
    placements = _search(global_map.grid, partial, rotations, 1, min_overlap)
    for rot, (((ox, oy), (h, w)), score, (ay, ax)) in zip(rotations, placements):
        if score > best_score:
            c = global_map.cell_cm
            best = Pose(x=global_map.origin[0] + (ax - (w - 1)) * c - ox,
                        y=global_map.origin[1] + (ay - (h - 1)) * c - oy,
                        theta=float(rot))
            best_score = score
    if best is None:
        raise ValueError(f"ambiguous localization: no placement overlaps {min_overlap} "
                         "known cells")
    if best_score < cfg.min_score:
        raise ValueError(f"ambiguous localization: best score {best_score:.3f} "
                         f"below {cfg.min_score}")
    return LocalizeResult(pose=best, score=best_score)


def localize(global_map: OccupancyMap, partial: OccupancyMap,
             cfg: LocalizeConfig = LocalizeConfig()) -> LocalizeResult:
    """Find the rigid transform placing the partial map onto the global map.

    A placement is a whole-degree rotation of the partial plus a whole-cell
    translation, scored as matching / overlapping known cells. The rotations
    are searched coarse to fine (correlative scan matching): every second
    degree is scored on both grids pooled 2x2, with the overlap threshold in
    pooled cells, then the 4 best and each degree within 2 of them are
    re-scored at full resolution, where ties keep the smallest (rotation, dy, dx).

    Each stage scores one rotation at a time, and computes the global grid's
    spectra once per FFT shape its rotations need, so its working set grows
    with the number of those shapes. Per rotation, the partial's known cells are
    turned straight into a pooled, flipped grid; one forward and one inverse
    FFT give the packed correlation X = ff + B·(fo + of) + B²·oo of grids
    coded FREE = 1, OCCUPIED = B (``_Correlator``), whose base-B digits hold
    every placement's match = ff + oo and overlap = ff + fo + of + oo; and
    one vectorized pass scores them. The counts are exact,
    so the pose does not depend on FFT rounding: the packed layout is used
    while X < 2^53 and u·log2(L)·‖g‖₂·‖q‖₂ ≤ 1/64 (u the float64 unit
    round-off, L the FFT points). Past that bound, as for a whole 300x300
    map, the global KNOWN and OCCUPIED grids are correlated apart, with two
    inverse FFTs per rotation.
    """
    min_overlap = _required_overlap(global_map, partial, cfg)
    coarse = range(0, 360, _COARSE_STEP_DEG)
    scores = [score for _, score, _ in _search(global_map.grid, partial, coarse, _POOL,
                                               -(-min_overlap // _POOL ** 2))]
    kept = sorted(range(len(scores)), key=lambda k: (-scores[k], k))[:_KEEP]
    step = _COARSE_STEP_DEG
    fine = sorted({(coarse[k] + d) % 360 for k in kept for d in range(-step, step + 1)})
    return _localize_at(global_map, partial, cfg, fine)


@dataclass(frozen=True)
class ExploreConfig:
    method: str = "otsu"
    seg: SegmentConfig = field(default_factory=SegmentConfig)
    patch_width_cm: float = 60.0
    patch_depth_cm: float = 40.0
    patch_offset_cm: float = 10.0


def explore_step(m: OccupancyMap, pose: Pose, frame: Raster,
                 forward_cm: float, rotate_deg: float,
                 cfg: ExploreConfig = ExploreConfig()):
    """Segment the ground view, stitch it at the current pose, then move."""
    mask = segment_floor(frame, cfg.method, cfg.seg)
    patch = GroundPatch(mask=mask, width_cm=cfg.patch_width_cm,
                        depth_cm=cfg.patch_depth_cm, offset_cm=cfg.patch_offset_cm)
    new_map = stitch_patch(m, pose, patch)
    return new_map, advance_pose(pose, forward_cm, rotate_deg)


def map_to_bytes(m: OccupancyMap) -> bytes:
    """One JSON header line, then the grid as P5 (unknown=128, free=255, occupied=0)."""
    header = json.dumps({"cell_cm": m.cell_cm, "origin": list(m.origin),
                         "width": m.width, "height": m.height}, sort_keys=True)
    body = write_pnm(Raster(_STATE_TO_PNM[m.grid]))
    return header.encode("ascii") + b"\n" + body


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_header(header):
    """Raise ValueError naming the first header field that is missing or mistyped."""
    if not isinstance(header, dict):
        raise ValueError("malformed map header: expected a JSON object")
    for key in ("cell_cm", "origin", "width", "height"):
        if key not in header:
            raise ValueError(f"malformed map header: missing {key!r}")
    if not _is_number(header["cell_cm"]):
        raise ValueError("malformed map header: 'cell_cm' must be a number")
    origin = header["origin"]
    if not (isinstance(origin, list) and len(origin) == 2 and all(map(_is_number, origin))):
        raise ValueError("malformed map header: 'origin' must be a pair of numbers")
    for key in ("width", "height"):
        if not isinstance(header[key], int) or isinstance(header[key], bool):
            raise ValueError(f"malformed map header: {key!r} must be an integer")


def map_from_bytes(data: bytes) -> OccupancyMap:
    newline = data.find(b"\n")
    if newline < 0:
        raise ValueError("malformed map file: missing header line")
    try:
        header = json.loads(data[:newline].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed map header: {exc}") from None
    _check_header(header)
    raster = read_pnm(data[newline + 1:])
    if raster.width != header["width"] or raster.height != header["height"]:
        raise ValueError("map header dimensions do not match the grid body")
    levels = raster.pixels
    grid = np.full(levels.shape, 255, dtype=np.uint8)
    for state, level in enumerate(_STATE_TO_PNM):
        grid[levels == level] = state
    if grid.max() > OCCUPIED:
        raise ValueError("invalid map cell value; expected 0, 128, or 255")
    return OccupancyMap(cell_cm=float(header["cell_cm"]),
                        origin=tuple(header["origin"]), grid=grid)
