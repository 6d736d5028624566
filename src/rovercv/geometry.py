"""Hough line transform, contour extraction, rectangle finding, and the lane
detection pipeline.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .raster import Raster, blurred_gray, sobel_magnitude, threshold_binary

_N4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_N8 = _N4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


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
    horizontal_margin_deg: float = 10.0


def _tls_line(px, py):
    """Total-least-squares (rho, theta_deg) through a pixel set; exactly
    horizontal and vertical sets come out with exact parameters."""
    mx, my = px.mean(), py.mean()
    dx, dy = px - mx, py - my
    sxx, syy, sxy = (dx * dx).sum(), (dy * dy).sum(), (dx * dy).sum()
    if sxy == 0.0 and syy == 0.0:
        return float(my), 90.0
    if sxy == 0.0 and sxx == 0.0:
        return float(mx), 0.0
    theta_deg = np.degrees(0.5 * np.arctan2(2.0 * sxy, sxx - syy)) + 90.0
    rad = np.deg2rad(theta_deg)
    rho = mx * np.cos(rad) + my * np.sin(rad)
    if theta_deg >= 180.0:
        theta_deg -= 180.0
        rho = -rho
    return float(rho), float(theta_deg)


def _refine_peak(xs, ys, rho_bin: float, theta_bin_deg: float, rho_res: float):
    """Polish a peak: refit the supporting pixels, recollect the half-pixel band,
    and repeat a fixed number of rounds.

    One-degree bins alone leave the rho of far-from-origin lines off by several
    pixels; the voters of a single bin are also a biased slice of the segment,
    so the fit and its support are iterated to a (near) fixed point.
    """
    theta = np.deg2rad(theta_bin_deg)
    r = np.rint((xs * np.cos(theta) + ys * np.sin(theta)) / rho_res) * rho_res
    sel = r == rho_bin
    rho, theta_deg = _tls_line(xs[sel], ys[sel])
    for _ in range(3):
        rad = np.deg2rad(theta_deg)
        band = np.abs(xs * np.cos(rad) + ys * np.sin(rad) - rho) <= 0.5
        if not band.any():
            break
        rho, theta_deg = _tls_line(xs[band], ys[band])
    return rho, theta_deg


def hough_lines(edges: Raster, rho_res: float = 1.0, theta_res: float = 1.0,
                min_votes: int = 1) -> list:
    """Accumulate (rho, theta) votes for on-pixels and return the peak lines.

    Peaks are 8-neighborhood local maxima of the accumulator (equal-valued
    neighbors resolved in favor of the smaller (theta, rho) cell), refined by a
    least-squares refit of their supporting pixels; votes are then recounted as
    the on-pixels within half a pixel of the refined line. Output is sorted by
    votes descending, then (theta, rho) ascending.
    """
    if edges.channels != 1:
        raise ValueError("expected a grayscale raster")
    ys, xs = np.nonzero(edges.pixels)
    n_theta = int(round(180.0 / theta_res))
    diag = float(np.hypot(edges.width - 1, edges.height - 1))
    offs = int(np.ceil(diag / rho_res))
    if len(xs) == 0:
        return []

    acc = np.zeros((2 * offs + 1, n_theta), dtype=np.int64)
    xs_f = xs.astype(np.float64)
    ys_f = ys.astype(np.float64)
    for ti in range(n_theta):
        theta = np.deg2rad(ti * theta_res)
        r = np.rint((xs_f * np.cos(theta) + ys_f * np.sin(theta)) / rho_res).astype(np.int64) + offs
        acc[:, ti] += np.bincount(r, minlength=2 * offs + 1)

    keep = acc >= min_votes
    padded = np.full((acc.shape[0] + 2, acc.shape[1] + 2), -1, dtype=np.int64)
    padded[1:-1, 1:-1] = acc
    for dr in (-1, 0, 1):
        for dt in (-1, 0, 1):
            if dr == 0 and dt == 0:
                continue
            nb = padded[1 + dr:padded.shape[0] - 1 + dr, 1 + dt:padded.shape[1] - 1 + dt]
            precedes = dt < 0 or (dt == 0 and dr < 0)
            keep &= (acc > nb) if precedes else (acc >= nb)

    lines = []
    for r, t in zip(*np.nonzero(keep)):
        rho, theta_deg = _refine_peak(xs_f, ys_f, float((r - offs) * rho_res),
                                      float(t * theta_res), rho_res)
        rad = np.deg2rad(theta_deg)
        band = np.abs(xs_f * np.cos(rad) + ys_f * np.sin(rad) - rho) <= 0.5
        votes = int(band.sum())
        if votes >= min_votes:
            lines.append(HoughLine(rho=rho, theta_deg=theta_deg, votes=votes))
    lines.sort(key=lambda ln: (-ln.votes, ln.theta_deg, ln.rho))
    return lines


def label_components(mask: np.ndarray, connectivity: int = 8):
    """Label connected True regions; returns (labels with -1 background, count)."""
    offsets = _N8 if connectivity == 8 else _N4
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    labels = np.full((h, w), -1, dtype=np.int32)
    current = 0
    for sy, sx in zip(*np.nonzero(mask)):
        if labels[sy, sx] != -1:
            continue
        labels[sy, sx] = current
        queue = deque([(sy, sx)])
        while queue:
            y, x = queue.popleft()
            for dy, dx in offsets:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and labels[ny, nx] == -1:
                    labels[ny, nx] = current
                    queue.append((ny, nx))
        current += 1
    return labels, current


def find_contours(mask: Raster) -> list:
    """One contour per 8-connected foreground component, sorted by area descending."""
    if mask.channels != 1:
        raise ValueError("expected a grayscale raster")
    return _contours(*label_components(mask.pixels > 0, connectivity=8))


def _contours(labels: np.ndarray, n: int) -> list:
    """One contour per component of a labeling, sorted by area descending."""
    contours = []
    for cid in range(n):
        comp = labels == cid
        ys, xs = np.nonzero(comp)
        x0, x1 = int(xs.min()), int(xs.max())
        y0, y1 = int(ys.min()), int(ys.max())
        local = comp[y0:y1 + 1, x0:x1 + 1]
        inner = np.zeros_like(local)
        inner[1:-1, 1:-1] = (local[:-2, 1:-1] & local[2:, 1:-1]
                             & local[1:-1, :-2] & local[1:-1, 2:])
        by, bx = np.nonzero(local & ~inner)
        pixels = np.column_stack((bx + x0, by + y0)).astype(np.int64)
        contours.append(Contour(pixels=pixels,
                                bbox=(x0, y0, x1 - x0 + 1, y1 - y0 + 1),
                                area=int(comp.sum())))
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


def largest_rectangle(img: Raster, edge_threshold: int = 60, min_fill: float = 0.85,
                      blur_passes: int = 0) -> Contour:
    """Find the biggest solidly rectangular shape in a calibration scene.

    Edge map -> contours; candidates are ranked by the area they enclose and the
    first whose enclosed area fills >= min_fill of its bbox wins. Blurring is
    off by default: the calibration shot is high contrast, and blur widens the
    edge band, biasing the measured pixel extent.
    """
    edges = threshold_binary(sobel_magnitude(blurred_gray(img, blur_passes)), edge_threshold)
    labels, n = label_components(edges.pixels > 0, connectivity=8)
    ranked = []
    for c in _contours(labels, n):
        x, y, w, h = c.bbox
        comp = labels[y:y + h, x:x + w] == labels[c.pixels[0, 1], c.pixels[0, 0]]
        ranked.append((_enclosed_area(comp), c))
    ranked.sort(key=lambda item: -item[0])
    for enclosed, c in ranked:
        x, y, w, h = c.bbox
        if enclosed / (w * h) >= min_fill:
            return c
    raise ValueError("no rectangle found")


def _lane_edges(frame: Raster, cfg: LaneConfig):
    edges = threshold_binary(sobel_magnitude(blurred_gray(frame, cfg.blur_passes)),
                             cfg.edge_threshold)
    h, w = edges.pixels.shape
    horizon_y = int(round(cfg.horizon_frac * (h - 1)))
    cx = (w - 1) / 2.0
    top_half = cfg.top_width_frac * w / 2.0
    bottom_half = (w - 1) / 2.0
    ys = np.arange(h, dtype=np.float64)
    denom = max((h - 1) - horizon_y, 1)
    frac = np.clip((ys - horizon_y) / denom, 0.0, 1.0)
    half = top_half + frac * (bottom_half - top_half)
    xs = np.arange(w, dtype=np.float64)
    inside = (np.abs(xs[None, :] - cx) <= half[:, None]) & (ys[:, None] >= horizon_y)
    masked = np.where(inside, edges.pixels, 0).astype(np.uint8)
    return Raster(masked), horizon_y


def _best_rightward(edges: Raster, cfg: LaneConfig):
    """Highest-vote line sloping down-right (theta past 90 deg plus the margin)."""
    for ln in hough_lines(edges, min_votes=cfg.min_votes):
        if ln.theta_deg >= 90.0 + cfg.horizontal_margin_deg and ln.theta_deg < 180.0:
            return ln
    return None


def _side_from_line(ln, y0: float, y1: float) -> LaneSide:
    theta = np.deg2rad(ln.theta_deg)
    c, s = np.cos(theta), np.sin(theta)
    x_at = lambda y: (ln.rho - y * s) / c
    return LaneSide(x0=float(x_at(y0)), y0=float(y0), x1=float(x_at(y1)), y1=float(y1), valid=True)


def _mirror_side(side: LaneSide, width: int) -> LaneSide:
    if not side.valid:
        return side
    return LaneSide(x0=(width - 1) - side.x0, y0=side.y0,
                    x1=(width - 1) - side.x1, y1=side.y1, valid=True)


_INVALID_SIDE = LaneSide(0.0, 0.0, 0.0, 0.0, False)


def detect_lane(frame: Raster, cfg: LaneConfig = LaneConfig()) -> Lane:
    """Detect the left/right lane boundary segments in a road frame.

    Both sides share one code path: the right boundary is found directly, the
    left one by scanning the horizontally mirrored edge image, so a mirrored
    frame yields exactly the mirrored lane.
    """
    edges, horizon_y = _lane_edges(frame, cfg)
    y_bottom = float(frame.height - 1)

    right_line = _best_rightward(edges, cfg)
    right = _side_from_line(right_line, horizon_y, y_bottom) if right_line else _INVALID_SIDE

    mirrored = Raster(edges.pixels[:, ::-1])
    left_line = _best_rightward(mirrored, cfg)
    left = (_mirror_side(_side_from_line(left_line, horizon_y, y_bottom), frame.width)
            if left_line else _INVALID_SIDE)

    return Lane(left=left, right=right)
