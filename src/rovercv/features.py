"""Patch descriptors for car / non-car classification: oriented-gradient
histograms, per-channel color histograms, and downsampled raw pixels.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .raster import Raster, _resize_bilinear, to_grayscale

HOG_EPS = 1e-6
HOG_CLIP = 0.2


@dataclass(frozen=True)
class HogParams:
    cell_px: int = 8
    block_cells: int = 2
    bins: int = 9
    per_channel: bool = False

    def __post_init__(self):
        if self.cell_px < 2:
            raise ValueError("cell_px must be at least 2")
        if self.bins < 2:
            raise ValueError("bins must be at least 2")
        if self.block_cells < 1:
            raise ValueError("block_cells must be at least 1")


@dataclass(frozen=True)
class FeatureConfig:
    hog: HogParams = field(default_factory=HogParams)
    hist_bins: int = 32
    spatial_px: int = 32
    patch_px: int = 64


@dataclass(frozen=True, eq=False)
class FeatureVector:
    values: np.ndarray
    layout: dict  # name -> (start, stop)


def _cell_gradients(arr: np.ndarray, cell: int):
    """Central-difference gradients computed independently inside each cell.

    Each cell replicates its own edges, so a cell's histogram never depends on
    pixels outside the cell; whole-image cell grids can then be sub-sampled for
    sliding windows with no boundary mismatch.
    """
    h, w = arr.shape
    ncy, ncx = h // cell, w // cell
    v = arr.reshape(ncy, cell, ncx, cell)
    gx = np.empty_like(v)
    gx[..., 1:cell - 1] = v[..., 2:] - v[..., :cell - 2]
    gx[..., 0] = v[..., 1] - v[..., 0]
    gx[..., cell - 1] = v[..., cell - 1] - v[..., cell - 2]
    gy = np.empty_like(v)
    gy[:, 1:cell - 1] = v[:, 2:] - v[:, :cell - 2]
    gy[:, 0] = v[:, 1] - v[:, 0]
    gy[:, cell - 1] = v[:, cell - 1] - v[:, cell - 2]
    return gx, gy


def hog_cell_histograms(arr: np.ndarray, p: HogParams) -> np.ndarray:
    """Orientation histograms per cell; shape (ncy, ncx, bins).

    Magnitudes vote into the two nearest orientation bins (bin centers at
    (i + 0.5) * 180/bins degrees, wrapping at 180) with linear interpolation.
    """
    cell = p.cell_px
    h, w = arr.shape
    if h % cell or w % cell:
        raise ValueError("patch dimensions must be divisible by the cell size")
    ncy, ncx = h // cell, w // cell
    gx, gy = _cell_gradients(arr.astype(np.float64), cell)
    mag = np.hypot(gx, gy)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0

    binw = 180.0 / p.bins
    t = ang / binw - 0.5
    b0 = np.floor(t).astype(np.int64)
    frac = t - b0
    lo = b0 % p.bins
    hi = (b0 + 1) % p.bins

    cell_ids = (np.arange(ncy)[:, None, None, None] * ncx
                + np.arange(ncx)[None, None, :, None])
    cell_ids = np.broadcast_to(cell_ids, mag.shape)
    size = ncy * ncx * p.bins
    hist = (np.bincount((cell_ids * p.bins + lo).ravel(),
                        weights=((1.0 - frac) * mag).ravel(), minlength=size)
            + np.bincount((cell_ids * p.bins + hi).ravel(),
                          weights=(frac * mag).ravel(), minlength=size))
    return hist.reshape(ncy, ncx, p.bins)


def hog_block_grid(arr: np.ndarray, p: HogParams) -> np.ndarray:
    """Sliding normalized blocks; shape (nby, nbx, block_cells**2 * bins).

    Each block is L2-normalized (eps 1e-6), clipped at 0.2, and renormalized.
    """
    hist = hog_cell_histograms(arr, p)
    ncy, ncx = hist.shape[:2]
    bc = p.block_cells
    if ncy < bc or ncx < bc:
        raise ValueError("patch too small for the requested block size")
    windows = sliding_window_view(hist, (bc, bc, p.bins))
    blocks = windows.reshape(ncy - bc + 1, ncx - bc + 1, bc * bc * p.bins).astype(np.float64)
    n1 = blocks / np.sqrt((blocks ** 2).sum(axis=-1, keepdims=True) + HOG_EPS ** 2)
    n2 = np.minimum(n1, HOG_CLIP)
    return n2 / np.sqrt((n2 ** 2).sum(axis=-1, keepdims=True) + HOG_EPS ** 2)


def hog_planes(img: Raster, p: HogParams) -> list:
    """The float64 planes HOG runs on: R, G and B when ``p.per_channel``, else the luma."""
    if p.per_channel:
        return [img.pixels[..., c].astype(np.float64) for c in range(3)]
    return [to_grayscale(img).pixels.astype(np.float64)]


def hog(patch: Raster, p: HogParams = HogParams()) -> np.ndarray:
    """Oriented-gradient descriptor of a grayscale patch, blocks concatenated row-major."""
    if patch.channels != 1:
        raise ValueError("expected a grayscale raster")
    return hog_block_grid(patch.pixels.astype(np.float64), p).reshape(-1)


def _color_counts(pixels: np.ndarray, cell_h: int, cell_w: int, bins: int) -> np.ndarray:
    """Per-channel intensity counts over [0, 255] of each cell of an 8-bit RGB
    array; shape (ncy, ncx, 3, bins), exact integers."""
    h, w = pixels.shape[:2]
    ncy, ncx = h // cell_h, w // cell_w
    offset = (np.arange(ncy * ncx * 3) * bins).reshape(ncy, 1, ncx, 1, 3)
    key = np.minimum(np.arange(256) * bins // 256, bins - 1).take(
        pixels.reshape(ncy, cell_h, ncx, cell_w, 3))
    key += offset
    return np.bincount(key.ravel(), minlength=offset.size * bins).reshape(ncy, ncx, 3, bins)


def color_histogram(patch: Raster, bins: int = 32) -> np.ndarray:
    """Per-channel intensity counts over [0, 255], concatenated R, G, B."""
    if patch.channels != 3:
        raise ValueError("expected an RGB raster")
    return _color_counts(patch.pixels, patch.height, patch.width, bins).reshape(-1).astype(np.float64)


def spatial_features(patch: Raster, size: int = 32) -> np.ndarray:
    """Bilinear thumbnail flattened row-major with channels interleaved."""
    return _resize_bilinear(patch.pixels, size, size).reshape(-1)


def feature_layout(cfg: FeatureConfig) -> dict:
    cells = cfg.patch_px // cfg.hog.cell_px
    nb = cells - cfg.hog.block_cells + 1
    hog_len = nb * nb * cfg.hog.block_cells ** 2 * cfg.hog.bins
    if cfg.hog.per_channel:
        hog_len *= 3
    hist_len = 3 * cfg.hist_bins
    spatial_len = cfg.spatial_px * cfg.spatial_px * 3
    return {
        "hog": (0, hog_len),
        "color_hist": (hog_len, hog_len + hist_len),
        "spatial": (hog_len + hist_len, hog_len + hist_len + spatial_len),
    }


def feature_length(cfg: FeatureConfig) -> int:
    return feature_layout(cfg)["spatial"][1]


def window_features(img: Raster, grids, ny: int, nx: int, step: int,
                    cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Descriptor rows, row-major, of the ny x nx ``cfg.patch_px`` px windows
    placed every ``step`` px on an RGB raster; ``grids`` holds the
    hog_block_grid of each of its hog_planes. Each row equals its window's
    descriptor alone, bit for bit: aligned HOG blocks, a sum of exact per-cell
    color counts, and a thumbnail from one bilinear resample of all windows.
    """
    p, size = cfg.hog, cfg.patch_px
    if step % p.cell_px:
        raise ValueError(f"window stride {step} px is not a multiple of the {p.cell_px} px HOG cell")
    n = ny * nx
    sb, wb = step // p.cell_px, size // p.cell_px - p.block_cells + 1
    hog_part = [sliding_window_view(g, (wb, wb), axis=(0, 1))[::sb, ::sb][:ny, :nx]
                .transpose(0, 1, 3, 4, 2).reshape(n, -1) for g in grids]
    pixels = img.pixels[:(ny - 1) * step + size, :(nx - 1) * step + size]
    cell = math.gcd(step, size)
    k, sk = size // cell, step // cell
    counts = _color_counts(pixels, cell, cell, cfg.hist_bins)
    hist = sliding_window_view(counts, (k, k), axis=(0, 1))[::sk, ::sk].sum(axis=(-2, -1))
    windows = sliding_window_view(pixels, (size, size), axis=(0, 1))[::step, ::step]
    thumbs = _resize_bilinear(windows.transpose(0, 1, 3, 4, 2), cfg.spatial_px, cfg.spatial_px)
    return np.concatenate(hog_part + [hist.reshape(n, -1).astype(np.float64), thumbs.reshape(n, -1)],
                          axis=1)


def extract_features(patch: Raster, cfg: FeatureConfig = FeatureConfig()) -> FeatureVector:
    """Concatenated descriptor of a canonical RGB training patch."""
    if patch.channels != 3:
        raise ValueError(f"expected an RGB patch, got {patch.channels} channel(s)")
    if patch.width != cfg.patch_px or patch.height != cfg.patch_px:
        raise ValueError(
            f"expected a {cfg.patch_px}x{cfg.patch_px} patch, got {patch.width}x{patch.height}")
    grids = [hog_block_grid(plane, cfg.hog) for plane in hog_planes(patch, cfg.hog)]
    values = window_features(patch, grids, 1, 1, cfg.patch_px, cfg)[0]
    return FeatureVector(values=values, layout=feature_layout(cfg))
