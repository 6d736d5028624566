"""Independent reference implementations used to check the optimized code.

Everything here is written as plainly as possible (literal loops, direct
formulas, dense solvers) and deliberately shares no code with the package
beyond its result types. The exceptions check how shared work is split, not
the shared step itself: ``per_rotation_localize`` and ``pooled_coarse_localize``
(the per-heading coarse-to-fine search that the batched ``localize`` replaced)
rotate each heading alone with ``_rotate_map``, which turns quarter turns
as whole grids (``_rot90_map``), and reuse the package's pooling and overlap
threshold; ``per_window_features`` reuses the block grid, the HOG planes
and the bilinear resample of a single patch; ``full_frame_lane_edges`` runs
the package's blur, Sobel and threshold on the whole frame, where the lane
search crops it below the horizon; ``full_search_best_rightward`` picks the
lane line from a full-range ``hough_lines``;
``list_detect_sequence`` scores and fuses each frame with the detector's own
stages; and ``component_markers`` splits the image at the package's Otsu
threshold.
"""

import heapq
import math
from collections import deque
from itertools import count
from pathlib import Path

import numpy as np

from rovercv.detector import Detection, detect_cars, heatmap_fuse, threshold_boxes
from rovercv.features import hog_block_grid, hog_planes
from rovercv.geometry import Contour, HoughLine, hough_lines
from rovercv.mapping import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    _COARSE_STEP_DEG,
    _KEEP,
    _POOL,
    LocalizeConfig,
    LocalizeResult,
    OccupancyMap,
    Pose,
    _pool,
    _required_overlap,
    _smooth_size,
)
from rovercv.raster import (
    Raster,
    _resize_bilinear,
    blurred_gray,
    sobel_magnitude,
    threshold_binary,
)
from rovercv.segmentation import LabelMask, WatershedResult, otsu_threshold

_N4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_N8 = _N4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def brute_otsu(hist):
    """Exhaustive threshold scan: argmax of between-class variance, smallest tie.

    Every threshold recomputes its class sums from scratch (no cumulative
    state), so this stays independent of the optimized implementation.
    """
    hist = np.asarray(hist, dtype=np.float64)
    values = np.arange(256, dtype=np.float64)
    total = hist.sum()
    best_var, best_t = -1.0, None
    for t in range(255):
        n0 = hist[:t].sum()
        n1 = hist[t:].sum()
        if n0 == 0.0 or n1 == 0.0:
            var = 0.0
        else:
            mu0 = (values[:t] * hist[:t]).sum() / n0
            mu1 = (values[t:] * hist[t:]).sum() / n1
            var = (n0 / total) * (n1 / total) * (mu0 - mu1) ** 2
        if var > best_var:
            best_var, best_t = var, t
    return best_t, best_var


def convolve_at(img, weights, x, y):
    """Hand 3x3 weighted sum at one pixel, replicating edges."""
    h, w = img.shape
    acc = 0.0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            yy = min(max(y + dy, 0), h - 1)
            xx = min(max(x + dx, 0), w - 1)
            acc += weights[dy + 1][dx + 1] * float(img[yy, xx])
    return acc


def naive_hog(arr, cell=8, block_cells=2, bins=9, eps=1e-6, clip=0.2):
    """Per-pixel double-loop descriptor matching the documented definition.

    Gradients are central differences confined to each cell (cell edges
    replicate); magnitudes split linearly between the two nearest orientation
    bins (centers at (i + 0.5) * 180/bins); blocks slide by one cell and are
    L2-normalized, clipped, renormalized.
    """
    arr = np.asarray(arr, dtype=np.float64)
    h, w = arr.shape
    ncy, ncx = h // cell, w // cell
    hists = np.zeros((ncy, ncx, bins))
    binw = 180.0 / bins
    for cy in range(ncy):
        for cx in range(ncx):
            for py in range(cell):
                for px in range(cell):
                    y = cy * cell + py
                    x = cx * cell + px
                    xl = cx * cell + max(px - 1, 0)
                    xr = cx * cell + min(px + 1, cell - 1)
                    yu = cy * cell + max(py - 1, 0)
                    yd = cy * cell + min(py + 1, cell - 1)
                    gx = arr[y, xr] - arr[y, xl]
                    gy = arr[yd, x] - arr[yu, x]
                    mag = np.hypot(gx, gy)
                    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
                    t = ang / binw - 0.5
                    b0 = int(np.floor(t))
                    frac = t - b0
                    hists[cy, cx, b0 % bins] += (1.0 - frac) * mag
                    hists[cy, cx, (b0 + 1) % bins] += frac * mag
    out = []
    for by in range(ncy - block_cells + 1):
        for bx in range(ncx - block_cells + 1):
            block = hists[by:by + block_cells, bx:bx + block_cells].reshape(-1)
            n1 = block / np.sqrt((block ** 2).sum() + eps ** 2)
            n2 = np.minimum(n1, clip)
            n3 = n2 / np.sqrt((n2 ** 2).sum() + eps ** 2)
            out.append(n3)
    return np.concatenate(out)


def area_average_downsample(arr, factor):
    """Block-mean downsample; preserves the image mean exactly."""
    arr = np.asarray(arr, dtype=np.float64)
    h, w = arr.shape[:2]
    return arr.reshape(h // factor, factor, w // factor, factor, -1).mean(axis=(1, 3)).squeeze()


def dense_smooth(angles, lam):
    """Penalized-least-squares smoother via a dense solve: (I + lam*L) x = s."""
    n = len(angles)
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i, i] += 1.0
        L[i + 1, i + 1] += 1.0
        L[i, i + 1] -= 1.0
        L[i + 1, i] -= 1.0
    return np.linalg.solve(np.eye(n) + lam * L, np.asarray(angles, dtype=np.float64))


def best_1d_two_means_split(values):
    """Optimal 1-D 2-means by scanning every split point of the sorted values."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    best_sse, best_split = np.inf, None
    for s in range(1, len(vals)):
        left, right = vals[:s], vals[s:]
        sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
        if sse < best_sse:
            best_sse, best_split = sse, (vals[s - 1] + vals[s]) / 2.0
    return best_split


def segment_line_params(x0, y0, x1, y1):
    """Analytic (rho, theta_deg in [0, 180)) of the line through two points."""
    dx, dy = x1 - x0, y1 - y0
    nx, ny = -dy, dx
    theta = np.degrees(np.arctan2(ny, nx))
    rho = x0 * np.cos(np.radians(theta)) + y0 * np.sin(np.radians(theta))
    if theta < 0:
        theta += 180.0
        rho = -rho
    if theta >= 180.0:
        theta -= 180.0
        rho = -rho
    return rho, theta


def line_residual(rho_a, theta_a, rho_b, theta_b):
    """(|drho|, |dtheta|) between two lines modulo the (rho, theta+180) flip."""
    cands = [(rho_b, theta_b), (-rho_b, theta_b - 180.0), (-rho_b, theta_b + 180.0)]
    best = min(cands, key=lambda rt: abs(theta_a - rt[1]))
    return abs(rho_a - best[0]), abs(theta_a - best[1])


def flood_enclosed_area(comp):
    """Pixels of a mask enclosed by it: all minus the background that a
    4-connected flood from the mask's edges reaches."""
    comp = np.asarray(comp, dtype=bool)
    h, w = comp.shape
    outside = np.zeros((h, w), dtype=bool)
    queue = deque()
    for y in range(h):
        for x in range(w):
            on_edge = y in (0, h - 1) or x in (0, w - 1)
            if on_edge and not comp[y, x]:
                outside[y, x] = True
                queue.append((y, x))
    while queue:
        y, x = queue.popleft()
        for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and not comp[ny, nx] and not outside[ny, nx]:
                outside[ny, nx] = True
                queue.append((ny, nx))
    return int(h * w - outside.sum())


def _tls_line(px, py):
    """Total-least-squares (rho, theta_deg) through a pixel set from its exact
    moments: with Python ints, n times the centered sums of squares and
    products are exact, and only their conversion to float, the arctangent,
    the mean and rho round. Exactly horizontal and vertical sets come out with
    exact parameters."""
    xs, ys = [int(v) for v in px], [int(v) for v in py]
    n, sx, sy = len(xs), sum(xs), sum(ys)
    a = n * sum(x * x for x in xs) - sx * sx
    b = n * sum(y * y for y in ys) - sy * sy
    c = n * sum(x * y for x, y in zip(xs, ys)) - sx * sy
    mx, my = sx / n, sy / n
    if b == 0:
        return float(my), 90.0
    if a == 0:
        return float(mx), 0.0
    theta_deg = np.degrees(0.5 * np.arctan2(float(2 * c), float(a - b))) + 90.0
    rad = np.deg2rad(theta_deg)
    rho = mx * np.cos(rad) + my * np.sin(rad)
    if theta_deg >= 180.0:
        theta_deg -= 180.0
        rho = -rho
    return float(rho), float(theta_deg)


def float_tls_line(px, py):
    """``_tls_line`` from float centered sums: the fit the package used before
    it summed integer moments, kept to bound how far the two fits differ."""
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


def _refine_peak(xs, ys, rho_bin: float, theta_bin_deg: float, rho_res: float, fit):
    """Polish a peak: refit the supporting pixels, recollect the half-pixel band,
    and repeat a fixed number of rounds.

    One-degree bins alone leave the rho of far-from-origin lines off by several
    pixels; the voters of a single bin are also a biased slice of the segment,
    so the fit and its support are iterated to a (near) fixed point.
    """
    theta = np.deg2rad(theta_bin_deg)
    r = np.rint((xs * np.cos(theta) + ys * np.sin(theta)) / rho_res) * rho_res
    sel = r == rho_bin
    rho, theta_deg = fit(xs[sel], ys[sel])
    for _ in range(3):
        rad = np.deg2rad(theta_deg)
        band = np.abs(xs * np.cos(rad) + ys * np.sin(rad) - rho) <= 0.5
        if not band.any():
            break
        rho, theta_deg = fit(xs[band], ys[band])
    return rho, theta_deg


def per_peak_hough_lines(edges, rho_res=1.0, theta_res=1.0, min_votes=1, fit=_tls_line,
                         theta_range_deg=(0.0, 180.0)):
    """Hough lines refined one peak at a time, each refit scanning every edge pixel.

    Peaks are 8-neighborhood local maxima of the whole accumulator (equal-valued
    neighbors resolved in favor of the smaller (theta, rho) cell). Those whose
    theta column's angle lies outside ``theta_range_deg`` = [lo, hi) modulo 180
    degrees are dropped; the rest are refined by ``_refine_peak`` with ``fit``
    (the integer-moment ``_tls_line``, or ``float_tls_line``), and votes are
    recounted as the on-pixels within half a pixel of the refined line. Sorted
    by votes descending, then (theta, rho).
    """
    lo, hi = theta_range_deg
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
        if hi - lo < 180.0 and not (t * theta_res - lo) % 180.0 < hi - lo:
            continue
        rho, theta_deg = _refine_peak(xs_f, ys_f, float((r - offs) * rho_res),
                                      float(t * theta_res), rho_res, fit)
        rad = np.deg2rad(theta_deg)
        band = np.abs(xs_f * np.cos(rad) + ys_f * np.sin(rad) - rho) <= 0.5
        votes = int(band.sum())
        if votes >= min_votes:
            lines.append(HoughLine(rho=rho, theta_deg=theta_deg, votes=votes))
    lines.sort(key=lambda ln: (-ln.votes, ln.theta_deg, ln.rho))
    return lines


def full_frame_lane_edges(frame, cfg):
    """(edge map, horizon row): the whole frame's edges, then every pixel
    outside the road trapezoid or above the horizon row set to 0."""
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


def full_search_best_rightward(edges, cfg):
    """Highest-vote line sloping down-right (theta past 90 deg plus the margin)."""
    for ln in hough_lines(edges, min_votes=cfg.min_votes):
        if ln.theta_deg >= 90.0 + cfg.horizontal_margin_deg and ln.theta_deg < 180.0:
            return ln
    return None


def bfs_label_components(mask: np.ndarray, connectivity: int = 8):
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


def bfs_distance_to_outside(region: np.ndarray) -> np.ndarray:
    """4-connected grid distance from each region cell to the nearest non-region
    cell, grown one breadth-first ring per pass; 0 where there is no outside."""
    dist = np.where(region, -1, 0).astype(np.int64)
    frontier = ~region
    d = 0
    while True:
        d += 1
        grown = np.zeros_like(frontier)
        grown[1:, :] |= frontier[:-1, :]
        grown[:-1, :] |= frontier[1:, :]
        grown[:, 1:] |= frontier[:, :-1]
        grown[:, :-1] |= frontier[:, 1:]
        newly = grown & (dist == -1)
        if not newly.any():
            break
        dist[newly] = d
        frontier = newly
    dist[dist == -1] = 0
    return dist


def component_markers(gray, dist_frac: float):
    """Watershed seeds numbered per 8-connected core component of the Otsu
    split, the at/above-threshold side's components first, and the side of
    each label (1 at/above, 0 below; 0 for the unlabeled 0). A core is the
    side's cells at least ``dist_frac`` times the side's largest distance to
    the other side."""
    fg = gray.pixels >= otsu_threshold(gray).threshold
    seeds = np.zeros(fg.shape, dtype=np.int32)
    side = [0]
    for cls, region in ((1, fg), (0, ~fg)):
        if not region.any():
            continue
        dist = bfs_distance_to_outside(region)
        comp, n = bfs_label_components(region & (dist >= dist_frac * dist.max()))
        seeds[comp >= 0] = comp[comp >= 0] + len(side)
        side += [cls] * n
    return LabelMask(seeds, num_labels=len(side)), np.array(side)


def heap_watershed(img, markers: LabelMask) -> WatershedResult:
    """Priority-flood the image treated as terrain height, starting from marker seeds.

    Pixels pop in ascending (height, y, x, insertion order); each takes the
    smallest label among its already-labeled 4-neighbors, and is flagged as a
    watershed-line pixel when two different labels meet there.
    """
    if img.channels != 1:
        raise ValueError("expected a grayscale raster")
    if markers.labels.shape != img.pixels.shape:
        raise ValueError("marker dimensions must match the image")
    seeds = markers.labels
    if not (seeds > 0).any():
        raise ValueError("no markers")

    h, w = img.pixels.shape
    height = img.pixels
    labels = seeds.astype(np.int32).copy()
    lines = np.zeros((h, w), dtype=bool)
    ticket = count()
    heap = []

    for y, x in np.argwhere(seeds > 0):
        for dy, dx in _N4:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] == 0:
                heapq.heappush(heap, (int(height[ny, nx]), int(ny), int(nx), next(ticket)))

    while heap:
        _, y, x, _ = heapq.heappop(heap)
        if labels[y, x] != 0:
            continue
        neighbor_labels = set()
        for dy, dx in _N4:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] > 0:
                neighbor_labels.add(int(labels[ny, nx]))
        labels[y, x] = min(neighbor_labels)
        if len(neighbor_labels) > 1:
            lines[y, x] = True
        for dy, dx in _N4:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] == 0:
                heapq.heappush(heap, (int(height[ny, nx]), int(ny), int(nx), next(ticket)))

    return WatershedResult(LabelMask(labels, num_labels=int(seeds.max()) + 1), lines)


def per_component_contours(labels, n):
    """One contour per component of a labeling, each found by a scan of the
    whole labeling for its pixels; sorted by area descending."""
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


def per_component_boxes(values):
    """Boxes of the 8-connected regions where heat >= half its peak, each found
    by a scan of the whole labeling for its pixels."""
    peak = float(values.max()) if values.size else 0.0
    if peak <= 0.0:
        return []
    labels, n = bfs_label_components(values >= 0.5 * peak, connectivity=8)
    boxes = []
    for cid in range(n):
        ys, xs = np.nonzero(labels == cid)
        x0, y0 = int(xs.min()), int(ys.min())
        boxes.append(Detection(
            x=x0, y=y0, w=int(xs.max()) - x0 + 1, h=int(ys.max()) - y0 + 1,
            score=float(values[ys, xs].max()),
        ))
    boxes.sort(key=lambda d: (-d.score, d.y, d.x))
    return boxes


def _fft_xcorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-D cross-correlation of small 0/1 grids, made exact by rounding.

    out[dy + hb - 1, dx + wb - 1] = sum over (i, j) of a[i+dy, j+dx] * b[i, j].
    """
    sh = (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1)
    fa = np.fft.rfft2(a, sh)
    fb = np.fft.rfft2(b[::-1, ::-1], sh)
    cc = np.fft.irfft2(fa * fb, sh)
    return np.rint(cc).astype(np.int64)


def per_rotation_localize(global_map, partial, cfg, rotations) -> LocalizeResult:
    """The localization search over the given rotations, in order, with three FFT
    correlations per rotation, each transforming both of its grids."""
    if partial.known_count() < cfg.min_known:
        raise ValueError(
            f"insufficient map content: {partial.known_count()} known cells, "
            f"need {cfg.min_known}")
    if abs(global_map.cell_cm - partial.cell_cm) > 1e-9:
        raise ValueError(f"maps must share one cell size: the partial map's is "
                         f"{partial.cell_cm} cm, the global map's {global_map.cell_cm} cm")
    min_overlap = max(1, cfg.min_known,
                      int(math.ceil(cfg.min_overlap_frac * partial.known_count())))

    kg = (global_map.grid != UNKNOWN).astype(np.float64)
    fg = (global_map.grid == FREE).astype(np.float64)
    og = (global_map.grid == OCCUPIED).astype(np.float64)

    best_score = -1.0
    best = None
    for rot in rotations:
        r = _rotate_map(partial, rot)
        kp = (r.grid != UNKNOWN).astype(np.float64)
        if not kp.any():
            continue
        overlap = _fft_xcorr(kg, kp)
        match = (_fft_xcorr(fg, (r.grid == FREE).astype(np.float64))
                 + _fft_xcorr(og, (r.grid == OCCUPIED).astype(np.float64)))
        valid = overlap >= min_overlap
        if not valid.any():
            continue
        scores = np.where(valid, match / np.maximum(overlap, 1), -1.0)
        idx = int(np.argmax(scores))
        score = float(scores.flat[idx])
        if score > best_score:
            ay, ax = divmod(idx, scores.shape[1])
            dy = ay - (r.height - 1)
            dx = ax - (r.width - 1)
            c = global_map.cell_cm
            best = Pose(x=global_map.origin[0] + dx * c - r.origin[0],
                        y=global_map.origin[1] + dy * c - r.origin[1],
                        theta=float(rot))
            best_score = score

    if best is None:
        raise ValueError(f"ambiguous localization: no placement overlaps {min_overlap} "
                         "known cells")
    if best_score < cfg.min_score:
        raise ValueError(f"ambiguous localization: best score {best_score:.3f} "
                         f"below {cfg.min_score}")
    return LocalizeResult(pose=best, score=best_score)


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
    """The map rotated CCW by ``deg`` about its frame's origin, resampled on
    whole cells; OCCUPIED wins where rotated cells collide."""
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


def _per_heading_localize_at(global_map: OccupancyMap, partial: OccupancyMap,
                             cfg: LocalizeConfig, rotations: list) -> LocalizeResult:
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
    if best is None:
        raise ValueError(f"ambiguous localization: no placement overlaps {min_overlap} "
                         "known cells")
    if best_score < cfg.min_score:
        raise ValueError(f"ambiguous localization: best score {best_score:.3f} "
                         f"below {cfg.min_score}")
    return LocalizeResult(pose=best, score=best_score)


def pooled_coarse_localize(global_map: OccupancyMap, partial: OccupancyMap,
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
    pooled = [_pool(_rotate_map(partial, rot).grid, _POOL) for rot in coarse]
    scores = [score for score, _ in _best_placements(
        _pool(global_map.grid, _POOL), pooled, -(-min_overlap // _POOL ** 2))]
    kept = sorted(range(len(coarse)), key=lambda k: (-scores[k], k))[:_KEEP]
    step = _COARSE_STEP_DEG
    fine = sorted({(coarse[k] + d) % 360 for k in kept for d in range(-step, step + 1)})
    return _per_heading_localize_at(global_map, partial, cfg, fine)


def per_window_features(window, cfg):
    """The descriptor of one RGB window, its parts joined window by window: the
    block grid of the window alone, one bincount per channel, and a bilinear
    thumbnail of the window."""
    hog_part = [hog_block_grid(plane, cfg.hog).reshape(-1) for plane in hog_planes(window, cfg.hog)]
    hist = []
    for c in range(3):
        vals = window.pixels[..., c].ravel().astype(np.int64)
        idx = np.minimum(vals * cfg.hist_bins // 256, cfg.hist_bins - 1)
        hist.append(np.bincount(idx, minlength=cfg.hist_bins).astype(np.float64))
    thumb = _resize_bilinear(window.pixels, cfg.spatial_px, cfg.spatial_px).reshape(-1)
    return np.concatenate(hog_part + hist + [thumb])


def list_detect_sequence(frames, model, plan, cfg):
    """Per-frame fused boxes as one list, summing heatmaps over the last
    cfg.frame_memory frames; every frame is scored before the list returns."""
    memory = []
    fused = []
    for frame in frames:
        dets = detect_cars(frame, model, plan, cfg)
        memory.append(heatmap_fuse(dets, frame.width, frame.height))
        if len(memory) > cfg.frame_memory:
            memory.pop(0)
        combined = memory[0].copy()
        for extra in memory[1:]:
            combined += extra
        fused.append(threshold_boxes(combined))
    return fused


def stamped_segment(pixels, side, color):
    """Paint a 3x3 stamp at 2n+1 evenly spaced points of a lane segment, n
    being its longer extent in px, one pixel at a time."""
    h, w = pixels.shape[:2]
    steps = int(max(abs(side.x1 - side.x0), abs(side.y1 - side.y0))) * 2 + 1
    for t in np.linspace(0.0, 1.0, steps):
        x = int(round(side.x0 + t * (side.x1 - side.x0)))
        y = int(round(side.y0 + t * (side.y1 - side.y0)))
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if 0 <= y + dy < h and 0 <= x + dx < w:
                    pixels[y + dy, x + dx] = color


def per_field_features_csv(path):
    """(X, labels) from features.csv, each field parsed by ``float`` in turn."""
    text = Path(path).read_text().strip()
    if not text:
        raise ValueError("features CSV is empty")
    labels, rows = [], []
    for line in text.splitlines():
        parts = line.split(",")
        labels.append(float(parts[0]))
        rows.append([float(v) for v in parts[1:]])
    return np.asarray(rows, dtype=np.float64), np.asarray(labels)
