"""Multi-scale sliding-window car detection.

Each band of the frame is rescaled so its window size maps onto the canonical
training patch, and the descriptors of all its windows are composed at once
(``features.window_features``). Overlapping raw detections are fused by
summing Gaussian splats into a heatmap and thresholding at half its peak.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .classifier import LinearModel, svm_score_many
from .features import FeatureConfig, hog_block_grid, hog_planes, window_features
from .geometry import _bboxes, label_components
from .raster import Raster, resize_bilinear

# sigma per box chosen so the half-maximum contour of one splat spans exactly
# the box extent; threshold_boxes(heatmap_fuse([box])) then returns the box.
SPLAT_SIGMA_FACTOR = 0.5 / math.sqrt(2.0 * math.log(2.0))
SPLAT_TRUNCATE_SIGMAS = 3.0


@dataclass(frozen=True)
class BandConfig:
    y_top: int
    y_bottom: int
    window_px: int
    stride_px: int


# Default band layout for 1280x720 road frames; enumerates 697 windows total.
DEFAULT_BANDS = (
    BandConfig(400, 496, 64, 16),
    BandConfig(392, 584, 96, 24),
    BandConfig(384, 640, 128, 32),
    BandConfig(368, 656, 192, 96),
    BandConfig(360, 680, 320, 160),
)


@dataclass(frozen=True)
class WindowPlan:
    frame_w: int
    frame_h: int
    bands: tuple
    counts: tuple  # per band (nx, ny)
    total_windows: int
    features: FeatureConfig  # what describes the windows; fixes the cell and patch size


@dataclass(frozen=True)
class Detection:
    x: int
    y: int
    w: int
    h: int
    score: float


@dataclass(frozen=True)
class DetectorConfig:
    min_score: float = 0.0
    frame_memory: int = 1

    def __post_init__(self):
        if not self.min_score < math.inf:  # nan or inf would keep no window
            raise ValueError(f"min_score must be finite or -inf, got {self.min_score!r}")
        if self.frame_memory < 1:
            raise ValueError("frame_memory must be at least 1")


def plan_windows(frame_w: int, frame_h: int, bands,
                 features: FeatureConfig = FeatureConfig()) -> WindowPlan:
    """Validate a band layout against the HOG cell and patch size of ``features``,
    the descriptor its windows get, and count its windows in closed form."""
    bands = tuple(bands)
    cell_px, canonical_px = features.hog.cell_px, features.patch_px
    if not bands:
        raise ValueError("at least one band is required")
    if canonical_px % cell_px:
        raise ValueError(f"the {canonical_px} px patch is not a multiple of the {cell_px} px HOG cell")
    counts = []
    total = 0
    for band in bands:
        h_band = band.y_bottom - band.y_top
        if band.y_top < 0 or band.y_bottom > frame_h or h_band <= 0:
            raise ValueError(f"band {band} lies outside the {frame_w}x{frame_h} frame")
        if band.window_px <= 0 or band.window_px > h_band or band.window_px > frame_w:
            raise ValueError(f"band {band}: window does not fit")
        if band.stride_px <= 0:
            raise ValueError(f"band {band}: stride must be positive")
        if band.stride_px % cell_px:
            raise ValueError(f"band {band}: stride must be a multiple of the {cell_px} px HOG cell")
        scaled_stride, rem = divmod(band.stride_px * canonical_px, band.window_px)
        if rem or scaled_stride % cell_px:
            raise ValueError(
                f"band {band}: stride does not stay cell-aligned at the {canonical_px} px scale")
        nx = (frame_w - band.window_px) // band.stride_px + 1
        ny = (h_band - band.window_px) // band.stride_px + 1
        counts.append((nx, ny))
        total += nx * ny
    return WindowPlan(frame_w=frame_w, frame_h=frame_h, bands=bands,
                      counts=tuple(counts), total_windows=total, features=features)


def iter_windows(plan: WindowPlan):
    """Window placements in deterministic (band, y, x) order."""
    for b, (band, (nx, ny)) in enumerate(zip(plan.bands, plan.counts)):
        for i in range(ny):
            for j in range(nx):
                yield b, band.y_top + i * band.stride_px, j * band.stride_px


def _scaled_band(frame: Raster, band: BandConfig, nx: int, ny: int, canonical: int):
    """Rescale one band crop so its window size becomes the canonical patch size,
    then trim it to the area its windows cover.

    That area is whole cells (strides and the canonical size are cell multiples)
    where the rescaled band need not be: a 96 px window on a 1280 px frame gives
    853 px. Trimming changes no window's features; cells never look outside.
    """
    crop = frame.pixels[band.y_top:band.y_bottom]
    h_band = band.y_bottom - band.y_top
    ss = band.stride_px * canonical // band.window_px
    cover_w, cover_h = (nx - 1) * ss + canonical, (ny - 1) * ss + canonical
    ws = max(int(round(frame.width * canonical / band.window_px)), cover_w)
    hs = max(int(round(h_band * canonical / band.window_px)), cover_h)
    scaled = resize_bilinear(Raster(crop), ws, hs).pixels
    return Raster(scaled[:cover_h, :cover_w]), ss


def _band_features(frame: Raster, plan: WindowPlan):
    """Yield each band's descriptor matrix, one row per window in plan order."""
    if frame.channels != 3:
        raise ValueError("detection frames must be RGB")
    fc = plan.features
    for band, (nx, ny) in zip(plan.bands, plan.counts):
        scaled, ss = _scaled_band(frame, band, nx, ny, fc.patch_px)
        grids = [hog_block_grid(plane, fc.hog) for plane in hog_planes(scaled, fc.hog)]
        yield window_features(scaled, grids, ny, nx, ss, fc)


def detect_cars(frame: Raster, model: LinearModel, plan: WindowPlan,
                cfg: DetectorConfig = DetectorConfig()) -> list:
    """Score every planned window, one band's descriptor matrix at a time; keep
    those above cfg.min_score, in plan order. The frame must have the plan's size."""
    if (frame.width, frame.height) != (plan.frame_w, plan.frame_h):
        raise ValueError(f"frame is {frame.width}x{frame.height}, but the window plan is "
                         f"for {plan.frame_w}x{plan.frame_h}")
    windows = iter_windows(plan)
    dets = []
    for rows in _band_features(frame, plan):
        # scores first: zip stops at the band's last score without taking a window
        for score, (b, y, x) in zip(svm_score_many(model, rows), windows):
            if score > cfg.min_score:
                side = plan.bands[b].window_px
                dets.append(Detection(x=x, y=y, w=side, h=side, score=float(score)))
    return dets


def heatmap_fuse(dets, frame_w: int, frame_h: int) -> np.ndarray:
    """A frame_h x frame_w float64 heatmap: one unit-amplitude Gaussian splat per box."""
    heat = np.zeros((frame_h, frame_w), dtype=np.float64)
    for det in dets:
        if det.w <= 0 or det.h <= 0 or det.x < 0 or det.y < 0 \
                or det.x + det.w > frame_w or det.y + det.h > frame_h:
            raise ValueError(f"detection box {det} out of bounds")
        cx = det.x + (det.w - 1) / 2.0
        cy = det.y + (det.h - 1) / 2.0
        sx = det.w * SPLAT_SIGMA_FACTOR
        sy = det.h * SPLAT_SIGMA_FACTOR
        x_lo = max(0, int(math.ceil(cx - SPLAT_TRUNCATE_SIGMAS * sx)))
        x_hi = min(frame_w - 1, int(math.floor(cx + SPLAT_TRUNCATE_SIGMAS * sx)))
        y_lo = max(0, int(math.ceil(cy - SPLAT_TRUNCATE_SIGMAS * sy)))
        y_hi = min(frame_h - 1, int(math.floor(cy + SPLAT_TRUNCATE_SIGMAS * sy)))
        gx = np.exp(-((np.arange(x_lo, x_hi + 1) - cx) ** 2) / (2.0 * sx * sx))
        gy = np.exp(-((np.arange(y_lo, y_hi + 1) - cy) ** 2) / (2.0 * sy * sy))
        heat[y_lo:y_hi + 1, x_lo:x_hi + 1] += np.outer(gy, gx)
    return heat


def threshold_boxes(values: np.ndarray) -> list:
    """Boxes from the connected regions where heat >= half its peak."""
    peak = float(values.max()) if values.size else 0.0
    if peak <= 0.0:
        return []
    labels, n = label_components(values >= 0.5 * peak, connectivity=8)
    ys, xs = np.nonzero(labels >= 0)
    lab = labels[ys, xs]
    score = np.full(n, -np.inf)
    np.maximum.at(score, lab, values[ys, xs])
    boxes = [Detection(x=int(a), y=int(b), w=int(c), h=int(d), score=float(s))
             for a, b, c, d, s in zip(*_bboxes(lab, ys, xs, n, labels.shape), score)]
    boxes.sort(key=lambda d: (-d.score, d.y, d.x))
    return boxes


def detect_sequence(frames, model: LinearModel, plan: WindowPlan,
                    cfg: DetectorConfig = DetectorConfig()):
    """Yield each frame's fused boxes as soon as it is scored: the boxes of the
    sum, oldest first, of the last cfg.frame_memory frames' heatmaps. Frames are
    pulled one per result; between results only the cfg.frame_memory - 1
    heatmaps a later frame adds to its own are kept."""
    memory = deque()
    for frame in frames:
        memory.append(heatmap_fuse(detect_cars(frame, model, plan, cfg), frame.width, frame.height))
        boxes = threshold_boxes(reduce(np.add, memory))
        if len(memory) == cfg.frame_memory:
            memory.popleft()
        yield boxes


def draw_boxes(frame: Raster, dets, thickness: int = 3) -> Raster:
    """Burn detection borders into a copy of the frame (red for RGB, white for gray)."""
    out = frame.pixels.copy()
    color = np.array([255, 0, 0], dtype=np.uint8) if frame.channels == 3 else np.uint8(255)
    for det in dets:
        x0, y0 = max(det.x, 0), max(det.y, 0)
        x1, y1 = min(det.x + det.w, frame.width), min(det.y + det.h, frame.height)
        if x1 <= x0 or y1 <= y0:
            continue
        t = thickness
        out[y0:min(y0 + t, y1), x0:x1] = color
        out[max(y1 - t, y0):y1, x0:x1] = color
        out[y0:y1, x0:min(x0 + t, x1)] = color
        out[y0:y1, max(x1 - t, x0):x1] = color
    return Raster(out)
