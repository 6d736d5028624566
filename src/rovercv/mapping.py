"""Occupancy-grid mapping: dead-reckoned poses, stitching segmented ground
patches into a growing tri-state map, and matching a partial map onto a
complete one to recover the rigid transform between their frames.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .raster import Raster, read_pnm, write_pnm
from .segmentation import LabelMask, SegmentConfig, segment_floor

UNKNOWN, FREE, OCCUPIED = 0, 1, 2
_STATE_TO_PNM = np.array([128, 255, 0], dtype=np.uint8)
# localize scores every _COARSE_STEP_DEG-th degree on grids pooled _POOL x _POOL,
# then re-scores the _KEEP best, and each degree within a step of them, unpooled
_COARSE_STEP_DEG, _POOL, _KEEP = 2, 2, 4


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
        g = np.asarray(self.grid, dtype=np.uint8)
        if g.ndim != 2:
            raise ValueError("grid must be 2-D")
        if g.size and g.max() > OCCUPIED:
            raise ValueError("grid cells must be unknown/free/occupied")
        self.grid = g
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
        """Grow the grid (with unknown cells) until the world bbox is covered."""
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
        if self.width_cm <= 0 or self.depth_cm <= 0:
            raise ValueError("patch extent must be positive")
        if self.offset_cm <= 0:
            raise ValueError("patch offset must be positive")


def advance_pose(p: Pose, forward_cm: float, rotate_deg: float) -> Pose:
    """Rotate, then translate along the new heading."""
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


def _rot90_map(m: OccupancyMap, quarter_turns: int) -> OccupancyMap:
    """Exact rotation by multiples of 90 degrees CCW about the map frame origin."""
    out = m.copy()
    for _ in range(quarter_turns % 4):
        ox, oy = out.origin
        h = out.height
        # world (x, y) -> (-y, x); cell (i, j) -> (row j, col h-1-i)
        out = OccupancyMap(cell_cm=out.cell_cm,
                           origin=(-oy - h * out.cell_cm, ox),
                           grid=out.grid.T[:, ::-1].copy())
    return out


def _rotate_map(m: OccupancyMap, deg: float) -> OccupancyMap:
    deg = deg % 360.0
    if abs(deg - round(deg)) < 1e-9 and round(deg) % 90 == 0:
        return _rot90_map(m, int(round(deg)) // 90)
    c = m.cell_cm
    ii, jj = np.nonzero(m.grid != UNKNOWN)
    if len(ii) == 0:
        return m.copy()
    cx = m.origin[0] + (jj + 0.5) * c
    cy = m.origin[1] + (ii + 0.5) * c
    rad = math.radians(deg)
    rx = math.cos(rad) * cx - math.sin(rad) * cy
    ry = math.sin(rad) * cx + math.cos(rad) * cy
    origin = (rx.min() - 0.5 * c, ry.min() - 0.5 * c)
    col = np.floor((rx - origin[0]) / c).astype(np.int64)
    row = np.floor((ry - origin[1]) / c).astype(np.int64)
    grid = np.full((row.max() + 1, col.max() + 1), UNKNOWN, dtype=np.uint8)
    states = m.grid[ii, jj]
    free = states == FREE
    grid[row[free], col[free]] = FREE
    occ = states == OCCUPIED
    grid[row[occ], col[occ]] = OCCUPIED  # occupied wins on collisions
    return OccupancyMap(cell_cm=c, origin=origin, grid=grid)


@dataclass(frozen=True)
class LocalizeConfig:
    min_known: int = 50
    min_score: float = 0.6
    # placements are scored only where at least this fraction of the partial's
    # known cells lands on known global cells (floored by min_known); sliver
    # overlaps would otherwise win on luck, and frontier placements by hiding
    # their distinctive cells over unexplored territory
    min_overlap_frac: float = 0.5

    def __post_init__(self):
        # both are fractions of cells, so a value above 1 could never be met
        for name in ("min_score", "min_overlap_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class LocalizeResult:
    pose: Pose
    score: float


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


def _placement_counts(global_grid: np.ndarray, partial_grids: list):
    """Yield (overlap, match) for each partial grid, over every cell placement.

    For a partial of shape (h, w), both arrays have the full-correlation shape
    (H + h - 1, W + w - 1); entry [dy + h - 1, dx + w - 1] counts the partial's
    cells (i, j) landing on global cell (i + dy, j + dx) that are known in both
    grids (overlap) and that hold the same known state (match), as exact
    integers held as floats. The global FREE and OCCUPIED grids are transformed
    once, on one 2·3·5-smooth FFT shape covering the largest placement extent;
    each partial then costs two forward and two inverse FFTs (``_counts``).
    """
    gh, gw = global_grid.shape
    shape = (_smooth_size(gh + max(g.shape[0] for g in partial_grids) - 1),
             _smooth_size(gw + max(g.shape[1] for g in partial_grids) - 1))
    g_occ = np.fft.rfft2(global_grid == OCCUPIED, shape)
    g_known = np.fft.rfft2(global_grid == FREE, shape)
    g_known += g_occ
    for grid in partial_grids:
        yield _counts(g_known, g_occ, grid, shape, (gh + grid.shape[0] - 1,
                                                    gw + grid.shape[1] - 1))


def _counts(g_known, g_occ, grid, shape, full):
    """One partial's (overlap, match) from the global KNOWN and OCCUPIED spectra.

    overlap = KNOWN * (P_free + P_occ), and match = FREE * P_free + OCC * P_occ,
    computed as KNOWN * P_free + OCC * (P_occ - P_free), in place where possible.
    Both inverse transforms are cropped to the partial's own full shape.
    """
    flipped = grid[::-1, ::-1]
    match = np.fft.rfft2(flipped == FREE, shape)
    p_occ = np.fft.rfft2(flipped == OCCUPIED, shape)
    overlap = match + p_occ
    overlap *= g_known
    p_occ -= match
    p_occ *= g_occ
    match *= g_known
    match += p_occ
    # from here each name is rebound from its spectrum to its counts, so that
    # only two spectrum-sized arrays stay alive through the inverse transforms
    del p_occ
    overlap = np.fft.irfft2(overlap, shape)[:full[0], :full[1]]
    match = np.fft.irfft2(match, shape)[:full[0], :full[1]]
    return np.rint(overlap, out=overlap), np.rint(match, out=match)


def _pool(grid: np.ndarray) -> np.ndarray:
    """Pool _POOL x _POOL blocks (ragged edges padded UNKNOWN): OCCUPIED if any
    cell is, else FREE if any is. UNKNOWN < FREE < OCCUPIED, so that is a max."""
    g = np.pad(grid, ((0, -grid.shape[0] % _POOL), (0, -grid.shape[1] % _POOL)))
    return g.reshape(g.shape[0] // _POOL, _POOL, -1, _POOL).max(axis=(1, 3))


def _best_placements(global_grid: np.ndarray, partial_grids: list, min_overlap: int):
    """Yield each partial grid's best score and its first (ay, ax) index into the
    ``_placement_counts`` arrays, over placements overlapping at least
    min_overlap cells; (-1.0, None) when there are none."""
    for overlap, match in _placement_counts(global_grid, partial_grids) if partial_grids else ():
        valid = overlap >= min_overlap
        if not valid.any():
            yield -1.0, None
            continue
        scores = np.where(valid, match / np.maximum(overlap, 1), -1.0)
        idx = int(np.argmax(scores))
        yield float(scores.flat[idx]), divmod(idx, scores.shape[1])


def _required_overlap(global_map: OccupancyMap, partial: OccupancyMap,
                      cfg: LocalizeConfig) -> int:
    """Check that the maps can be matched; return the overlap a placement needs."""
    if partial.known_count() < cfg.min_known:
        raise ValueError(f"insufficient map content: {partial.known_count()} known cells, "
                         f"need {cfg.min_known}")
    if abs(global_map.cell_cm - partial.cell_cm) > 1e-9:
        raise ValueError("maps must share one cell size")
    return max(cfg.min_known, int(math.ceil(cfg.min_overlap_frac * partial.known_count())))


def _localize_at(global_map: OccupancyMap, partial: OccupancyMap, cfg: LocalizeConfig,
                 rotations: list) -> LocalizeResult:
    """The best placement at full resolution over the rotations, in the given order."""
    min_overlap = _required_overlap(global_map, partial, cfg)
    rotated = [(rot, _rotate_map(partial, rot)) for rot in rotations]
    rotated = [(rot, r) for rot, r in rotated if (r.grid != UNKNOWN).any()]
    best_score, best = -1.0, None
    placements = _best_placements(global_map.grid, [r.grid for _, r in rotated], min_overlap)
    for (rot, r), (score, at) in zip(rotated, placements):
        if score > best_score:
            dy = at[0] - (r.height - 1)
            dx = at[1] - (r.width - 1)
            c = global_map.cell_cm
            best = Pose(x=global_map.origin[0] + dx * c - r.origin[0],
                        y=global_map.origin[1] + dy * c - r.origin[1],
                        theta=float(rot))
            best_score = score
    if best is None or best_score < cfg.min_score:
        raise ValueError(f"ambiguous localization: best score {max(best_score, 0.0):.3f} "
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
    """
    min_overlap = _required_overlap(global_map, partial, cfg)
    coarse = range(0, 360, _COARSE_STEP_DEG)
    pooled = [_pool(_rotate_map(partial, rot).grid) for rot in coarse]
    scores = [score for score, _ in _best_placements(
        _pool(global_map.grid), pooled, -(-min_overlap // _POOL ** 2))]
    kept = sorted(range(len(coarse)), key=lambda k: (-scores[k], k))[:_KEEP]
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
