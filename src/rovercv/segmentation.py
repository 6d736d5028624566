"""Floor-vs-obstacle segmentation: Otsu thresholding, k-means clustering, and
marker-based watershed flooding behind one ``segment_floor`` entry point.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .raster import Raster, _require_gray, _require_int, _whole_in_range, blurred_gray, sobel_magnitude


@dataclass(frozen=True, eq=False)
class LabelMask:
    """Per-pixel region labels; every label is a non-negative int below ``num_labels``."""

    labels: np.ndarray
    num_labels: int

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2:
            raise ValueError("labels must be a 2-D grid")
        _require_int("num_labels", self.num_labels, 1)
        if not _whole_in_range(lab, 0, self.num_labels - 1):
            raise ValueError("labels must be whole numbers in [0, num_labels)")
        object.__setattr__(self, "labels", lab.astype(np.int32))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class OtsuResult:
    threshold: int
    between_class_variance: float


@dataclass(frozen=True)
class WatershedResult:
    """Flood labels plus the companion mask of pixels where two basins met."""

    regions: LabelMask
    lines: np.ndarray


@dataclass(frozen=True)
class SegmentConfig:
    blur_passes: int = 1
    kmeans_k: int = 2

    def __post_init__(self):
        _require_int("blur_passes", self.blur_passes, 0)
        _require_int("kmeans_k", self.kmeans_k, 1)


def otsu_from_histogram(hist) -> OtsuResult:
    """Threshold maximizing the between-class variance of a 256-bin histogram.

    Classes are split as below-t vs at-or-above-t; ties pick the smallest t.
    """
    counts = np.asarray(hist, dtype=np.float64)
    if counts.shape != (256,):
        raise ValueError("histogram must have 256 bins")
    if np.count_nonzero(counts) < 2:
        raise ValueError("degenerate histogram: need at least two distinct values")
    total = counts.sum()
    cum_n = np.cumsum(counts)
    cum_m = np.cumsum(counts * np.arange(256, dtype=np.float64))
    # n0[t] / m0[t] describe the class of values strictly below t, for t in 0..254
    n0 = np.concatenate(([0.0], cum_n[:254]))
    m0 = np.concatenate(([0.0], cum_m[:254]))
    n1 = total - n0
    m1 = cum_m[-1] - m0
    valid = (n0 > 0) & (n1 > 0)
    mu0 = np.divide(m0, n0, out=np.zeros(255), where=valid)
    mu1 = np.divide(m1, n1, out=np.zeros(255), where=valid)
    var = np.where(valid, (n0 / total) * (n1 / total) * (mu0 - mu1) ** 2, 0.0)
    t = int(np.argmax(var))
    return OtsuResult(threshold=t, between_class_variance=float(var[t]))


def otsu_threshold(img: Raster) -> OtsuResult:
    """Otsu's optimal threshold for a grayscale raster."""
    _require_gray(img)
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    return otsu_from_histogram(hist)


def kmeans_segment(img: Raster, k: int, max_iter: int = 100, tol: float = 1e-4) -> LabelMask:
    """Lloyd's k-means on the gray levels of a grayscale raster.

    Seeds spread evenly over the sorted distinct levels, so runs need no RNG;
    labels are numbered so centres ascend. The steps run on the 256-bin
    histogram, as each level takes one label and a centre is its members'
    exact integer sum over their count. Only the stop test's sum of squared
    distances is taken per pixel, in raster order, so the labels equal those
    of clustering every pixel alone (``tests/oracles.py::pixel_kmeans``).
    """
    _require_gray(img)
    _require_int("k", k, 1)
    _require_int("max_iter", max_iter, 1)
    pixels = img.pixels.ravel()
    hist = np.bincount(pixels, minlength=256)
    present = np.flatnonzero(hist)
    if k > len(present):
        raise ValueError(f"insufficient distinct pixels: k={k} but only {len(present)} distinct values")
    centers = present[np.rint(np.linspace(0, len(present) - 1, k)).astype(int)].astype(np.float64)

    levels = np.arange(256.0)
    prev_sse = np.inf
    for _ in range(max_iter):
        d2 = (levels[:, None] - centers) ** 2
        nearest = d2.argmin(axis=1)
        sse = float(d2.min(axis=1)[pixels].sum())
        counts = np.bincount(nearest, hist, minlength=k)
        filled = counts > 0
        centers[filled] = np.bincount(nearest, hist * levels, minlength=k)[filled] / counts[filled]
        if prev_sse - sse < tol:
            break
        prev_sse = sse

    rank = np.empty(k, dtype=np.int64)
    rank[np.argsort(centers, kind="stable")] = np.arange(k)
    return LabelMask(rank[nearest][img.pixels], num_labels=k)


def watershed_segment(img: Raster, markers: LabelMask) -> WatershedResult:
    """Priority-flood the image treated as terrain height, starting from marker seeds.

    Pixels pop in ascending (height, y, x); each takes the smallest label among
    its already-labeled 4-neighbors, and is flagged as a watershed-line pixel
    when two different labels meet there.

    The flood runs on flat Python lists of the grid padded by a one-pixel
    border, so neighbors need no bounds checks. Its heap holds one int key per
    pixel, height * size + padded index, which orders like (height, y, x). A
    pixel is queued once, when its first neighbor is labeled: its key never
    changes, so a second copy could only pop after the first had labeled it.
    The cost is O(h * w * log(frontier)).
    """
    _require_gray(img)
    if markers.labels.shape != img.pixels.shape:
        raise ValueError("marker dimensions must match the image")
    seeds = markers.labels
    if not (seeds > 0).any():
        raise ValueError("no markers")

    h, w = img.pixels.shape
    stride, size = w + 2, (h + 2) * (w + 2)
    # -1 marks the border and queued pixels: neither is a labeled neighbor nor
    # to be queued
    grid = np.full((h + 2, stride), -1, dtype=np.int64)
    grid[1:-1, 1:-1] = seeds
    seeded = grid > 0
    frontier = np.zeros_like(seeded)
    frontier[1:-1, 1:-1] = (seeded[:-2, 1:-1] | seeded[2:, 1:-1]
                            | seeded[1:-1, :-2] | seeded[1:-1, 2:])
    frontier &= grid == 0
    height = np.zeros((h + 2, stride), dtype=np.int64)
    height[1:-1, 1:-1] = img.pixels
    queued = np.flatnonzero(frontier)
    heap = (height.ravel()[queued] * size + queued).tolist()
    heapq.heapify(heap)
    grid[frontier] = -1
    labels, height = grid.ravel().tolist(), height.ravel().tolist()
    lines = []
    pop, push = heapq.heappop, heapq.heappush
    offsets = (-stride, -1, 1, stride)
    while heap:
        p = pop(heap) % size
        best, met = 0, False
        for d in offsets:
            q = p + d
            v = labels[q]
            if v > 0:
                if not best:
                    best = v
                elif v != best:
                    met = True
                    if v < best:
                        best = v
            elif not v:
                labels[q] = -1
                push(heap, height[q] * size + q)
        labels[p] = best
        if met:
            lines.append(p)

    line_y, line_x = np.divmod(np.array(lines, dtype=np.int64), stride)
    line_mask = np.zeros((h, w), dtype=bool)
    line_mask[line_y - 1, line_x - 1] = True
    labels = np.array(labels, dtype=np.int32).reshape(h + 2, stride)[1:-1, 1:-1]
    return WatershedResult(LabelMask(labels, num_labels=int(seeds.max()) + 1), line_mask)


def _l1_pass(f: np.ndarray, axis: int) -> np.ndarray:
    """g[i] = min over j <= i of f[j] + (i - j), along ``axis``."""
    i = np.arange(f.shape[axis]).reshape((-1, 1) if axis == 0 else (1, -1))
    return i + np.minimum.accumulate(f - i, axis=axis)


def _distance_to_outside(region: np.ndarray) -> np.ndarray:
    """4-connected grid distance from each region cell to the nearest non-region cell.

    That is the L1 distance transform, exact in one forward and one backward
    pass per axis. A region with no outside at all gets 0; callers guarantee
    both classes.
    """
    far = sum(region.shape)  # above every distance on the grid
    dist = np.where(region, far, 0)
    for axis in (0, 1):
        backward = np.flip(_l1_pass(np.flip(dist, axis), axis), axis)
        dist = np.minimum(_l1_pass(dist, axis), backward)
    dist[dist >= far] = 0
    return dist


# A derived watershed seed holds the cells of its side at least this fraction
# of the side's largest distance from the other side.
MARKER_DIST_FRAC = 0.5


def _derive_markers(gray: Raster, dist_frac: float) -> LabelMask:
    """Seed regions from the cores (distance-transform peaks) of the Otsu split:
    label 1 on the core of the at/above-threshold side, label 2 on the other's.

    The flood gives each pixel the smallest label among its labeled
    neighbors, and its order depends only on the heights and on which
    neighbors are labeled. So flooding from these two seeds gives each pixel
    the side of the core component it would have reached from seeds numbered
    per component, at/above side first.
    """
    t = otsu_threshold(gray).threshold
    fg = gray.pixels >= t
    seeds = np.zeros(gray.pixels.shape, dtype=np.int32)
    for label, region in ((1, fg), (2, ~fg)):
        dist = _distance_to_outside(region)
        seeds[region & (dist >= dist_frac * dist.max())] = label
    return LabelMask(seeds, num_labels=3)


def segment_floor(img: Raster, method: str, cfg: SegmentConfig = SegmentConfig(),
                  markers: LabelMask | None = None) -> LabelMask:
    """Binary floor/obstacle mask: 0 = floor, 1 = obstacle.

    The class containing the bottom-center anchor pixel is taken as floor,
    since that is where the robot stands. Watershed seeds may be supplied;
    otherwise they are derived from the cores of the Otsu split.
    """
    gray = blurred_gray(img, cfg.blur_passes)

    if method == "otsu":
        t = otsu_threshold(gray).threshold
        labels = (gray.pixels >= t).astype(np.int32)
    elif method == "kmeans":
        labels = kmeans_segment(gray, cfg.kmeans_k).labels
    elif method == "watershed":
        if markers is None:
            markers = _derive_markers(gray, MARKER_DIST_FRAC)
        labels = watershed_segment(sobel_magnitude(gray), markers).regions.labels
    else:
        raise ValueError(f"unknown segmentation method {method!r}")

    anchor = labels[gray.height - 1, gray.width // 2]
    return LabelMask((labels != anchor).astype(np.int32), num_labels=2)
