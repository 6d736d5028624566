"""Hough line transform, contour extraction, rectangle finding, and the lane
detection pipeline.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .raster import Raster, _require_int, blurred_gray, sobel_magnitude, threshold_binary


@dataclass(frozen=True)
class HoughLine:
    """Line x*cos(theta) + y*sin(theta) = rho, theta in degrees within [0, 180)."""

    rho: float
    theta_deg: float
    votes: int


@dataclass(frozen=True, eq=False)
class Contour:
    """One 8-connected foreground component: boundary pixels, bbox, pixel count."""

    pixels: np.ndarray  # (n, 2) ints, columns (x, y), row-major order
    bbox: tuple  # (x, y, w, h)
    area: int


@dataclass(frozen=True)
class LaneSide:
    x0: float
    y0: float
    x1: float
    y1: float
    valid: bool


@dataclass(frozen=True)
class Lane:
    left: LaneSide
    right: LaneSide


@dataclass(frozen=True)
class LaneConfig:
    horizon_frac: float = 0.6
    top_width_frac: float = 0.2
    blur_passes: int = 1
    edge_threshold: int = 60
    min_votes: int = 30
    # a boundary line is at least this many degrees off horizontal
    horizontal_margin_deg: ClassVar[float] = 10.0

    def __post_init__(self):
        if not 0 <= self.horizon_frac <= 1:
            raise ValueError(f"horizon_frac must lie in [0, 1], got {self.horizon_frac!r}")
        if not 0 < self.top_width_frac < math.inf:
            raise ValueError("top_width_frac must be a finite number above 0, "
                             f"got {self.top_width_frac!r}")
        _require_int("blur_passes", self.blur_passes, 0)
        _require_int("edge_threshold", self.edge_threshold, 0, 255)
        _require_int("min_votes", self.min_votes, 1)


# The accumulator has one theta column per degree of the half turn and one
# row per pixel of rho.
_N_THETA = 180


def _rho_bins(xs, ys, theta_deg: float, offs: int):
    """Accumulator row of every pixel in the theta column at ``theta_deg``.

    Computed in place to save N-sized temporaries; each step rounds exactly
    as rint(xs*cos + ys*sin) does.
    """
    theta = np.deg2rad(theta_deg)
    rho = xs * np.cos(theta)
    rho += ys * np.sin(theta)
    bins = np.rint(rho, out=rho).astype(np.int64)
    bins += offs
    return bins


def _peaks(acc: np.ndarray, min_votes: int, cols: np.ndarray, seeds: np.ndarray):
    """(rows, theta columns) of the accumulator cells with at least ``min_votes``
    that are 8-neighborhood maxima, ordered by column. ``cols`` holds the theta
    column of each accumulator column, ascending; only columns flagged in
    ``seeds`` can hold a peak, and two columns are neighbors only when their
    theta columns are. Equal-valued neighbors resolve in favor of the smaller
    (theta, rho) cell, and cells off the edges lose."""
    keep = (acc >= min_votes) & seeds
    apart = np.diff(cols) != 1  # of each pair of consecutive columns
    n_r, n_t = acc.shape
    for dr in (-1, 0, 1):
        for dt in (-1, 0, 1):
            if dr == 0 and dt == 0:
                continue
            here = (slice(max(0, -dr), n_r - max(0, dr)), slice(max(0, -dt), n_t - max(0, dt)))
            there = (slice(max(0, dr), n_r + min(0, dr)), slice(max(0, dt), n_t + min(0, dt)))
            precedes = dt < 0 or (dt == 0 and dr < 0)
            wins = (acc[here] > acc[there]) if precedes else (acc[here] >= acc[there])
            keep[here] &= (wins | apart) if dt else wins
    t, r = np.nonzero(keep.T)
    return r, cols[t]


@dataclass(frozen=True)
class _Votes:
    """One block's votes: the on-pixels (``xy``: float rows x, y; ``terms``:
    int64 rows x, y, x^2, y^2, xy) and, per theta column ``cols`` of the block
    (ascending, one per degree), how many of them vote in each rho bin or
    below (``ends``: the accumulator summed down its rows) and their ids sorted
    stably by rho bin, so row-major within a bin (``order``: one run of N ids
    per column, concatenated). ``diag`` bounds every pixel's distance from the
    origin, ``c_max`` every coordinate."""

    xy: np.ndarray
    terms: np.ndarray
    cols: np.ndarray
    ends: np.ndarray
    order: np.ndarray
    offs: int
    diag: float
    c_max: int

    def span(self, col, lo, hi):
        """Positions [begin, end) in ``order`` of the pixels of rho bins lo..hi of
        theta column ``col``."""
        c = np.searchsorted(self.cols, col)
        base = c * self.xy.shape[1]
        return base + np.where(lo > 0, self.ends[lo - 1, c], 0), base + self.ends[hi, c]


def _band_spans(votes: _Votes, seed_col, rho, theta_deg):
    """Spans of ``votes.order`` holding every pixel within half a pixel of each
    line.

    Each line is looked up in whichever of its seed column and the two next to
    it is nearest modulo 180 degrees; across the wrap the column's rho is
    negated. Between two angles a pixel at distance r from the origin moves by
    at most r*|dtheta| in rho, so the band lies within 0.5 + R*|dtheta| of the
    line's rho in that column (R = ``votes.diag`` >= r), plus a slack far
    above rounding error. Since rint(v) lies in [ceil(v - 0.5), floor(v + 0.5)],
    the bins of that interval cover the band.
    """
    near = (seed_col[:, None] + np.array([-1, 0, 1])) % _N_THETA
    d = theta_deg[:, None] - near
    d = np.where(d > 90.0, d - 180.0, np.where(d < -90.0, d + 180.0, d))
    k = np.arange(len(near))
    j = np.argmin(np.abs(d), axis=1)
    col, dtheta = near[k, j], np.abs(d[k, j])
    center = np.where(np.abs(theta_deg - col) > 90.0, -rho, rho)
    slack = 0.5 + votes.diag * np.deg2rad(dtheta) + 1e-9 * (1.0 + votes.diag)
    top = len(votes.ends) - 1
    lo = np.clip(np.ceil(center - slack - 0.5) + votes.offs, 0, top)
    hi = np.clip(np.floor(center + slack + 0.5) + votes.offs, 0, top)
    return votes.span(col, lo.astype(np.int64), hi.astype(np.int64))


def _runs(begin, end):
    """The positions of the concatenated ranges begin[i]:end[i], and the range
    number of each."""
    length = end - begin
    run = np.repeat(np.arange(len(begin)), length)
    return run, np.arange(len(run)) + np.repeat(begin - (np.cumsum(length) - length), length)


def _moments(terms, pix, counts, c_max: int):
    """Moments n, sum x, sum y, sum x^2, sum y^2, sum xy (rows) of each run of
    ``counts[i]`` consecutive pixels of ``pix``, from ``terms``: the rows x, y,
    x^2, y^2, xy of every pixel, in int64, with coordinates in [0, c_max].

    Integer sums are exact in any order, so one ``np.add.reduceat`` takes them
    all. The fit multiplies them, as in n * sum x^2 - (sum x)^2: for a run of
    n pixels, every such product and sum stays below 2 * (n * c_max)^2. Where
    that bound could reach 2^63 (n * c_max >= 2^31), the moments are Python
    ints instead.
    """
    exact = np.int64 if int(counts.max(initial=0)) * c_max < 1 << 31 else object
    sums = np.add.reduceat(np.take(terms, pix, axis=1).astype(exact, copy=False),
                           np.cumsum(counts) - counts, axis=1)
    return np.vstack((counts.astype(exact), sums))


def _tls_fit(moments):
    """Total-least-squares (rho, theta_deg) through each pixel set with the given
    ``_moments`` (columns); exactly horizontal and vertical sets come out with
    exact parameters.

    n times the centered sums of squares and products are exact integers, so
    the fit rounds only in the conversion to float, the arctangent, the mean
    and rho, and it is a pure function of the moments.
    """
    n, sx, sy, sxx, syy, sxy = moments
    a, b, c = n * sxx - sx * sx, n * syy - sy * sy, n * sxy - sx * sy
    theta_deg = np.degrees(0.5 * np.arctan2((2 * c).astype(np.float64),
                                            (a - b).astype(np.float64))) + 90.0
    mx, my = (sx / n).astype(np.float64), (sy / n).astype(np.float64)
    rad = np.deg2rad(theta_deg)
    rho = mx * np.cos(rad) + my * np.sin(rad)
    wrap = theta_deg >= 180.0
    theta_deg[wrap] -= 180.0
    rho[wrap] = -rho[wrap]
    horizontal = b == 0  # c^2 <= a * b, so c is 0 whenever a or b is
    vertical = (a == 0) & ~horizontal
    rho[horizontal], theta_deg[horizontal] = my[horizontal], 90.0
    rho[vertical], theta_deg[vertical] = mx[vertical], 0.0
    return rho, theta_deg


def _refine(votes: _Votes, cols, rows):
    """(rho, theta_deg, votes) of the peaks at accumulator cells (rows, cols) of
    the block ``votes``, which holds their columns and the neighbors of them.

    Every peak goes through up to five rounds: a fit to the voters of its cell,
    three refits to the pixels within half a pixel of the current line, and a
    count of that band as its votes. A peak whose band comes out empty stops
    there with 0 votes. A refit that returns the line it was fitted from is a
    fixed point: every later band and refit would be the same, so the peak
    stops there with that band's size as its votes. Each round runs for all
    live peaks at once: candidates are gathered, tested and summed into band
    moments in parts of about N pixels, N the number of on-pixels, and all
    bands are fitted together.
    """
    k = len(rows)
    rho, theta_deg = np.zeros(k), np.zeros(k)
    count = np.zeros(k, dtype=np.int64)
    live = np.ones(k, dtype=bool)
    xs, ys = votes.xy
    for rnd in range(5):
        ids = np.flatnonzero(live)
        if len(ids) == 0:
            break
        if rnd == 0:
            begin, end = votes.span(cols, rows, rows)
        else:
            begin, end = _band_spans(votes, cols[ids], rho[ids], theta_deg[ids])
            rad = np.deg2rad(theta_deg[ids])
            cos_t, sin_t, rho_t = np.cos(rad), np.sin(rad), rho[ids]
        length = end - begin
        part_of = (np.cumsum(length) - length) // len(xs)
        fitted, sums = [], []
        for part in np.split(np.arange(len(ids)), np.flatnonzero(np.diff(part_of)) + 1):
            run, pos = _runs(begin[part], end[part])
            # np.take, np.repeat and np.compress beat fancy and mask indexing
            pix = np.take(votes.order, pos)
            del pos
            if rnd:
                per = length[part]
                dist = np.take(xs, pix) * np.repeat(cos_t[part], per)
                dist += np.take(ys, pix) * np.repeat(sin_t[part], per)
                dist -= np.repeat(rho_t[part], per)
                near = np.abs(dist, out=dist) <= 0.5
                run, pix = np.compress(near, run), np.compress(near, pix)
            got, counts = ids[part], np.bincount(run, minlength=len(part))
            if rnd == 4:
                count[got] = counts
                continue
            live[got[counts == 0]] = False
            fitted.append(got[counts > 0])
            sums.append(_moments(votes.terms, pix, counts[counts > 0], votes.c_max))
        if rnd == 4:
            break
        got, moments = np.concatenate(fitted), np.concatenate(sums, axis=1)
        fit = _tls_fit(moments)
        if rnd:
            fixed = (fit[0] == rho[got]) & (fit[1] == theta_deg[got])
            count[got[fixed]] = moments[0, fixed]
            live[got[fixed]] = False
        rho[got], theta_deg[got] = fit
    return rho, theta_deg, count


def _seed_columns(theta_range_deg) -> np.ndarray:
    """Whether each theta column's angle lies in [lo, hi) modulo 180 degrees."""
    lo, hi = (float(v) for v in theta_range_deg)
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi <= lo + 180):
        raise ValueError("theta_range_deg must be finite (lo, hi) with lo < hi <= lo + 180, "
                         f"got {theta_range_deg!r}")
    # hi = lo + 180 rounded can leave hi - lo a little above 180
    width = hi - lo
    if width >= 180:
        return np.ones(_N_THETA, dtype=bool)
    return (np.arange(_N_THETA) - lo) % 180.0 < width


def hough_lines(edges: Raster, min_votes: int = 1, *, theta_range_deg=(0.0, 180.0)) -> list:
    """Accumulate (rho, theta) votes for on-pixels and return the peak lines.

    The accumulator's cells are 1 px of rho by 1 degree of theta.

    Peaks are 8-neighborhood local maxima of the accumulator (equal-valued
    neighbors resolved in favor of the smaller (theta, rho) cell), refined by a
    total-least-squares fit to their cell's voters and up to three refits to
    the on-pixels within half a pixel of the current line, stopping early once
    a refit returns its own line; votes are then the on-pixels within half a
    pixel of the refined line. Output is sorted by votes descending, then
    (theta, rho) ascending.

    Only the cells of theta columns whose angle lies in ``theta_range_deg`` =
    (lo, hi), read as [lo, hi) modulo 180 degrees, seed peaks: (98, 182) takes
    the columns from 98 degrees on and those below 2. A refined line may end
    outside the range. A peak depends only on its 3x3 cells and a refinement
    only on its own line, so the output is exactly the lines of the full range
    (the default) whose peaks lie in the range; only the range's columns and
    one neighbor on each side are voted, indexed and refined.

    Each fit works on the pixel set's exact integer moments, so the lines
    equal those of refining one peak at a time with the same fit, and lie
    within about 1e-12 of a fit to float centered sums. Moments that int64
    could overflow (a run of n pixels at coordinates up to c, n * c >= 2^31)
    are summed as Python ints.

    The seed columns go in blocks, each voted, indexed and refined in one
    pass. A block's columns are its seed columns and one neighbor on each
    side, all that its peak test and band lookups read. Each column's rho bins
    are computed once, for its accumulator counts and for its pixels sorted by
    rho bin: O(N) for N on-pixels. Refinement looks each line's pixels up in
    those sorted runs, so it costs O(support) per peak, and all peaks of a
    block are refined together. A block's accumulator and index take memory
    about twice a whole-range accumulator, plus O(N) candidate buffers.
    """
    if edges.channels != 1:
        raise ValueError("expected a grayscale raster")
    _require_int("min_votes", min_votes, 1)
    ys, xs = np.nonzero(edges.pixels)
    seeds = _seed_columns(theta_range_deg)
    diag = float(np.hypot(edges.width - 1, edges.height - 1))
    offs = int(np.ceil(diag))
    if len(xs) == 0 or not seeds.any():
        return []

    n = len(xs)
    xs, ys = xs.astype(np.int64), ys.astype(np.int64)
    terms = np.stack((xs, ys, xs * xs, ys * ys, xs * ys))
    xy = terms[:2].astype(np.float64)
    del xs, ys
    n_rows = 2 * offs + 1
    order_dtype = np.uint16 if n <= 1 << 16 else np.int32
    bin_dtype = np.uint16 if n_rows <= 1 << 16 else np.int64  # uint16 sorts by radix
    # A block's columns, its seeds and a neighbor on each side, take about two
    # accumulators of the whole half turn in counts and index: on lane frames
    # one block. Parts of N candidates keep refinement's buffers O(N); on lane
    # frames, parts of 2N left the heap larger, and parts of N/2 cost more
    # calls than they saved.
    per_col = n * np.dtype(order_dtype).itemsize + n_rows * 4
    block = max(1, 2 * n_rows * _N_THETA * 4 // per_col - 2)
    seed_cols = np.flatnonzero(seeds)
    lines = []
    for a in range(0, len(seed_cols), block):
        in_block = seed_cols[a:a + block]
        cols = np.unique((in_block[:, None] + np.array([-1, 0, 1])) % _N_THETA)
        acc = np.empty((n_rows, len(cols)), dtype=np.int32)
        order = np.empty((len(cols), n), dtype=order_dtype)
        for j, ti in enumerate(cols):
            bins = _rho_bins(*xy, ti, offs)
            acc[:, j] = np.bincount(bins, minlength=n_rows)
            order[j] = np.argsort(bins.astype(bin_dtype), kind="stable")
        del bins
        rows, peak_cols = _peaks(acc, min_votes, cols, np.isin(cols, in_block))
        votes = _Votes(xy, terms, cols, np.cumsum(acc, axis=0, out=acc), order.ravel(), offs,
                       diag, max(edges.width, edges.height) - 1)
        rho, theta_deg, count = _refine(votes, peak_cols, rows)
        del acc, order, votes
        lines += [HoughLine(rho=float(r), theta_deg=float(t), votes=int(v))
                  for r, t, v in zip(rho, theta_deg, count) if v >= min_votes]
    lines.sort(key=lambda ln: (-ln.votes, ln.theta_deg, ln.rho))
    return lines


def label_components(mask: np.ndarray, connectivity: int = 8):
    """Label connected True regions; returns (labels with -1 background, count).

    Components are numbered in the row-major order of their first pixels. The
    mask is read as runs of True pixels along its rows; runs in adjacent rows
    that overlap (for 8-connectivity, also diagonally) are merged by hooking
    each root onto the smaller one and jumping pointers until every touching
    pair agrees. Each run's root is then its component's first run. The cost is
    O(h * w) numpy work plus O(runs) per merge round.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity!r}")
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be a 2-D array, got {mask.ndim} dimension(s)")
    h, w = mask.shape
    labels = np.full((h, w), -1, dtype=np.int32)
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # run i covers flat positions start[i]..end[i]-1 of rows w + 1 wide
    left, right = padded[:, :-1], padded[:, 1:]
    start, end = np.flatnonzero(right & ~left), np.flatnonzero(left & ~right)
    n = len(start)
    if n == 0:
        return labels, 0
    # run i touches the runs of the row above from the first that ends after
    # its start to the last that starts before its end, one pixel wider on
    # each side for 8-connectivity
    reach = int(connectivity == 8)
    lo = np.searchsorted(end, start - (w + 1) - reach, side="right")
    hi = np.searchsorted(start, end - (w + 1) + reach, side="left")
    below, above = _runs(lo, hi)
    parent = np.arange(n)
    while True:
        pa, pb = parent[above], parent[below]
        apart = pa != pb
        if not apart.any():
            break
        above, below, pa, pb = above[apart], below[apart], pa[apart], pb[apart]
        root = np.minimum(pa, pb)
        np.minimum.at(parent, pa, root)
        np.minimum.at(parent, pb, root)
        while ((up := parent[parent]) != parent).any():
            parent = up
    first = parent == np.arange(n)
    labels[mask] = np.repeat((np.cumsum(first) - 1)[parent], end - start)
    return labels, int(first.sum())


def find_contours(mask: Raster) -> list:
    """One contour per 8-connected foreground component, sorted by area descending."""
    if mask.channels != 1:
        raise ValueError("expected a grayscale raster")
    return _contours(*label_components(mask.pixels > 0, connectivity=8))


def _bboxes(lab: np.ndarray, ys: np.ndarray, xs: np.ndarray, n: int, shape) -> tuple:
    """Bounding boxes of labels 0..n-1 in an image of ``shape`` from their
    pixels (ys, xs) labelled ``lab``: arrays x, y, w, h; every label needs a pixel."""
    x0, y0 = np.full(n, shape[1]), np.full(n, shape[0])
    x1, y1 = np.full(n, -1), np.full(n, -1)
    np.minimum.at(x0, lab, xs)
    np.minimum.at(y0, lab, ys)
    np.maximum.at(x1, lab, xs)
    np.maximum.at(y1, lab, ys)
    return x0, y0, x1 - x0 + 1, y1 - y0 + 1


def _contours(labels: np.ndarray, n: int) -> list:
    """One contour per component of a labeling, sorted by area descending.

    A component's boundary is its pixels with a 4-neighbor of another label or
    off the image. The bbox extremes lie on it, so one pass over the boundary
    pixels, stably sorted by label to keep each contour in row-major order,
    gives every bbox and contour.
    """
    if n == 0:
        return []
    h, w = labels.shape
    padded = np.full((h + 2, w + 2), -1, dtype=labels.dtype)
    padded[1:-1, 1:-1] = labels
    edge = ((padded[:-2, 1:-1] != labels) | (padded[2:, 1:-1] != labels)
            | (padded[1:-1, :-2] != labels) | (padded[1:-1, 2:] != labels))
    ys, xs = np.nonzero(edge & (labels >= 0))
    lab = labels[ys, xs]
    area = np.bincount(labels.ravel() + 1, minlength=n + 1)[1:]
    order = np.argsort(lab, kind="stable")
    pixels = np.column_stack((xs[order], ys[order])).astype(np.int64)
    splits = np.cumsum(np.bincount(lab, minlength=n))[:-1]
    contours = [Contour(pixels=p, bbox=(int(a), int(b), int(c), int(d)), area=int(s))
                for p, a, b, c, d, s in zip(np.split(pixels, splits),
                                            *_bboxes(lab, ys, xs, n, labels.shape), area)]
    contours.sort(key=lambda c: -c.area)
    return contours


def _enclosed_area(comp: np.ndarray) -> int:
    """Pixels enclosed by a component within its bbox (the component plus its holes).

    Holes are the 4-connected background components that touch no bbox edge.
    """
    labels, _ = label_components(~comp, connectivity=4)
    edge = np.concatenate((labels[0], labels[-1], labels[:, 0], labels[:, -1]))
    outside = np.isin(labels, edge[edge >= 0])
    return int(comp.size - outside.sum())


# The reference object fills a good part of a calibration shot. Smaller
# outlines are texture or noise: on a noisy shot whose card outline breaks up,
# one of them would otherwise be measured as the reference.
MIN_RECTANGLE_SHARE = 0.01
# A rectangle's outline and the holes it encloses fill at least this share of
# its bbox.
MIN_RECTANGLE_FILL = 0.85


def largest_rectangle(img: Raster, edge_threshold: int = 60) -> Contour:
    """Find the biggest solidly rectangular shape in a calibration scene.

    Edge map -> contours; contours whose bbox covers less than
    MIN_RECTANGLE_SHARE of the frame are skipped, the rest are ranked by the
    area they enclose, and the first whose enclosed area fills at least
    MIN_RECTANGLE_FILL of its bbox wins; with none, ValueError("no rectangle
    found"). The edges come from the unblurred gray image: the calibration
    shot is high contrast, and blur widens the edge band, biasing the
    measured pixel extent.
    """
    edges = threshold_binary(sobel_magnitude(blurred_gray(img, 0)), edge_threshold)
    labels, n = label_components(edges.pixels > 0, connectivity=8)
    ranked = []
    for c in _contours(labels, n):
        x, y, w, h = c.bbox
        if w * h < MIN_RECTANGLE_SHARE * img.width * img.height:
            continue
        comp = labels[y:y + h, x:x + w] == labels[c.pixels[0, 1], c.pixels[0, 0]]
        ranked.append((_enclosed_area(comp), c))
    ranked.sort(key=lambda item: -item[0])
    for enclosed, c in ranked:
        x, y, w, h = c.bbox
        if enclosed / (w * h) >= MIN_RECTANGLE_FILL:
            return c
    raise ValueError("no rectangle found")


def _lane_edges(frame: Raster, cfg: LaneConfig):
    """(edge map, horizon row): the edges of ``frame`` inside the road
    trapezoid, which widens from ``top_width_frac`` of the width at the
    horizon row to the whole bottom row; every pixel outside it is 0.

    The edge stage runs only from ``blur_passes`` + 1 rows above the horizon
    down: each 3x3 pass (the blurs, then Sobel) reads one row further up, so
    the rows from the horizon down equal those of the whole frame's edges.
    """
    h, w = frame.height, frame.width
    horizon_y = int(round(cfg.horizon_frac * (h - 1)))
    top = max(horizon_y - cfg.blur_passes - 1, 0)
    edges = threshold_binary(sobel_magnitude(blurred_gray(Raster(frame.pixels[top:]),
                                                          cfg.blur_passes)),
                             cfg.edge_threshold)
    cx = (w - 1) / 2.0
    top_half = cfg.top_width_frac * w / 2.0
    bottom_half = (w - 1) / 2.0
    ys = np.arange(horizon_y, h, dtype=np.float64)
    frac = (ys - horizon_y) / max((h - 1) - horizon_y, 1)
    half = top_half + frac * (bottom_half - top_half)
    xs = np.arange(w, dtype=np.float64)
    inside = np.abs(xs[None, :] - cx) <= half[:, None]
    masked = np.zeros((h, w), dtype=np.uint8)
    np.copyto(masked[horizon_y:], edges.pixels[horizon_y - top:], where=inside)
    return Raster(masked), horizon_y


# Seeds of the rightward search reach this far past [90 + margin, 180). A line
# ending inside that range from a peak outside the seeds would have to drift
# further from its seed column in refinement than ever measured: over the
# lines of at least 30 votes of 128 lanes_textured edge maps (64 frames and
# their mirrors, 305,761 lines), median 0.05, 99.9th percentile 0.50 and
# max 0.81 degrees; over 32 edge maps of 640x360 RGB noise (16 frames and
# their mirrors, 168,836 lines), max 1.40 degrees, apart from lines snapped to
# exactly 0, which the search never keeps.
_SEED_MARGIN_DEG = 2


def _best_rightward(edges: Raster, cfg: LaneConfig):
    """Highest-vote line sloping down-right (theta past 90 deg plus the margin),
    among the lines of peaks within _SEED_MARGIN_DEG of that range."""
    lo = 90.0 + cfg.horizontal_margin_deg
    seed_range = (lo - _SEED_MARGIN_DEG, 180.0 + _SEED_MARGIN_DEG)
    for ln in hough_lines(edges, min_votes=cfg.min_votes, theta_range_deg=seed_range):
        if ln.theta_deg >= lo and ln.theta_deg < 180.0:
            return ln
    return None


def _side(edges: Raster, cfg: LaneConfig, y0: float, y1: float, mirror: bool) -> LaneSide:
    """The segment from row ``y0`` to row ``y1`` of the best rightward line of
    ``edges``, or, if ``mirror``, of ``edges`` flipped left to right, with the
    segment flipped back; an invalid side if there is no such line."""
    if mirror:
        edges = Raster(edges.pixels[:, ::-1])
    ln = _best_rightward(edges, cfg)
    if ln is None:
        return LaneSide(0.0, 0.0, 0.0, 0.0, False)
    theta = np.deg2rad(ln.theta_deg)
    c, s = np.cos(theta), np.sin(theta)
    x0, x1 = (float((ln.rho - y * s) / c) for y in (y0, y1))
    if mirror:
        x0, x1 = (edges.width - 1) - x0, (edges.width - 1) - x1
    return LaneSide(x0=x0, y0=float(y0), x1=x1, y1=float(y1), valid=True)


def detect_lane(frame: Raster, cfg: LaneConfig = LaneConfig()) -> Lane:
    """Detect the left/right lane boundary segments in a road frame.

    Both sides share one code path: the right boundary is found directly, the
    left one by scanning the horizontally mirrored edge image, so a mirrored
    frame yields exactly the mirrored lane.
    """
    edges, horizon_y = _lane_edges(frame, cfg)
    y_bottom = float(frame.height - 1)
    right = _side(edges, cfg, horizon_y, y_bottom, mirror=False)
    left = _side(edges, cfg, horizon_y, y_bottom, mirror=True)
    return Lane(left=left, right=right)
