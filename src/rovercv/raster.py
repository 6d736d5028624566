"""8-bit raster images, binary PNM (P5/P6) file I/O, and the 3x3 blur and Sobel stage.

Every downstream stage (segmentation, lane finding, feature extraction,
detection) operates on these rasters. Pixels are stored row-major as numpy
uint8, shape (h, w) for grayscale or (h, w, 3) for RGB.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRAY_WEIGHTS = (0.299, 0.587, 0.114)


def _whole_in_range(values: np.ndarray, lo: int, hi: int) -> bool:
    """Whether every value is a whole number in [lo, hi]; nan never is. Check
    this before casting to a narrower integer type, which would wrap or
    truncate what fails it."""
    return not values.size or bool(values.min() >= lo and values.max() <= hi and (
        np.issubdtype(values.dtype, np.integer) or (values == np.rint(values)).all()))


def _require_int(name: str, value, lo: int, hi: float = math.inf):
    """Raise a ValueError naming ``name`` unless ``value`` is an int in [lo, hi].
    A bool is not taken for an int, and neither is a whole float."""
    if not (isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi):
        bounds = f"at least {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Raster:
    """Rectangular 8-bit image; ``pixels`` is (h, w) grayscale or (h, w, 3) RGB."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if not (px.ndim == 2 or (px.ndim == 3 and px.shape[2] == 3)):
            raise ValueError("raster pixels must have shape (h, w) or (h, w, 3)")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("raster must be at least 1x1")
        # uint8 input is in range by construction; skipping the scan keeps
        # wrapping a decoded frame, a crop or a band cheap
        if px.dtype != np.uint8:
            if not _whole_in_range(px, 0, 255):
                raise ValueError("raster pixel values must be whole numbers in 0..255")
            px = px.astype(np.uint8)
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3


def _require_gray(img: Raster):
    if img.channels != 1:
        raise ValueError("expected a grayscale raster")


def to_grayscale(img: Raster) -> Raster:
    """Luma conversion: y = round(0.299 R + 0.587 G + 0.114 B), clamped to [0, 255]."""
    if img.channels == 1:
        raise ValueError("already grayscale")
    rgb = img.pixels.astype(np.float64)
    y = GRAY_WEIGHTS[0] * rgb[..., 0] + GRAY_WEIGHTS[1] * rgb[..., 1] + GRAY_WEIGHTS[2] * rgb[..., 2]
    return Raster(np.clip(np.rint(y), 0, 255).astype(np.uint8))


def _pass3(arr: np.ndarray, taps: tuple[int, int, int], axis: int) -> np.ndarray:
    """Integer 3-tap weighted sum down the rows (axis 0) or across the columns
    (axis 1) of an edge-padded array, which comes out 2 shorter along ``axis``."""
    n = arr.shape[axis] - 2
    shifted = (arr[k:k + n] if axis == 0 else arr[:, k:k + n] for k in range(3))
    return sum(tap * part for tap, part in zip(taps, shifted) if tap)


def _padded(gray: np.ndarray) -> np.ndarray:
    return np.pad(gray.astype(np.int32), 1, mode="edge")


def blurred_gray(img: Raster, passes: int) -> Raster:
    """Grayscale view of ``img`` (luma for RGB) after ``passes`` 3x3 Gaussian
    blurs: [1, 2, 1] down, then across, then /16 rounded half to even, with
    edge-replicated borders."""
    if passes < 0:
        raise ValueError(f"blur passes must be non-negative, got {passes}")
    gray = to_grayscale(img) if img.channels == 3 else img
    arr = gray.pixels
    for _ in range(passes):
        acc = _pass3(_pass3(_padded(arr), (1, 2, 1), 0), (1, 2, 1), 1)
        arr = np.rint(acc / 16).astype(np.uint8)
    return Raster(arr)


def sobel_magnitude(img: Raster) -> Raster:
    """Euclidean Sobel gradient magnitude, rounded and clamped to [0, 255].
    gx is [1, 2, 1] down then [-1, 0, 1] across, and gy its transpose, with
    edge-replicated borders."""
    _require_gray(img)
    padded = _padded(img.pixels)
    gx = _pass3(_pass3(padded, (1, 2, 1), 0), (-1, 0, 1), 1)
    gy = _pass3(_pass3(padded, (1, 2, 1), 1), (-1, 0, 1), 0)
    # int32 operands give a float64 hypot; int16 ones would round in float32
    mag = np.hypot(gx, gy)
    return Raster(np.clip(np.rint(mag), 0, 255).astype(np.uint8))


def threshold_binary(img: Raster, t: int) -> Raster:
    """Pixels >= t become 255, the rest 0."""
    _require_gray(img)
    if not 0 <= t <= 255:
        raise ValueError("threshold must be in 0..255")
    return Raster(np.where(img.pixels >= t, 255, 0).astype(np.uint8))


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ValueError("malformed header: unexpected end of data")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace() and data[pos:pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def read_pnm(data: bytes) -> Raster:
    """Parse binary PNM bytes (P5 grayscale or P6 RGB, maxval 255)."""
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise ValueError("malformed header: expected P5 or P6 magic")
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise ValueError(f"malformed header: non-numeric field {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError("malformed header: non-positive dimensions")
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}, expected 255")
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ValueError("malformed header: missing whitespace before payload")
    pos += 1
    channels = 1 if magic == b"P5" else 3
    needed = width * height * channels
    payload = data[pos:pos + needed]
    if len(payload) < needed:
        raise ValueError(f"truncated payload: expected {needed} bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return Raster(arr.reshape(shape).copy())


def write_pnm(img: Raster) -> bytes:
    """Serialize to canonical binary PNM (P5 for grayscale, P6 for RGB)."""
    magic = "P5" if img.channels == 1 else "P6"
    header = f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def load_pnm(path) -> Raster:
    """Read a binary PNM file; a malformed one raises ValueError naming ``path``."""
    data = Path(path).read_bytes()
    try:
        return read_pnm(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_pnm(path, img: Raster):
    Path(path).write_bytes(write_pnm(img))


def _resize_bilinear(arr: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resample of (h, w) or (..., h, w, 3) to (out_h, out_w); float64
    output, exact for identity sizes. Reads only the sampled pixels, so a
    strided view of many windows is resampled without copying it."""
    if out_w < 1 or out_h < 1:
        raise ValueError("target size must be positive")
    squeeze = arr.ndim == 2
    src = arr[:, :, None] if squeeze else arr
    src_h, src_w = src.shape[-3:-1]

    def _coords(n_out, n_src):
        if n_out == 1 or n_src == 1:
            return np.zeros(n_out, dtype=np.int64), np.zeros(n_out)
        pos = np.arange(n_out) * ((n_src - 1) / (n_out - 1))
        lo = np.minimum(np.floor(pos).astype(np.int64), n_src - 2)
        return lo, pos - lo

    y0, fy = _coords(out_h, src_h)
    x0, fx = _coords(out_w, src_w)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    tl, tr, bl, br = (src[..., ys[:, None], xs[None, :], :].astype(np.float64)
                      for ys, xs in ((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
    fxg = fx[:, None]
    fyg = fy[:, None, None]
    # lerp form keeps constants exact: a + f*(b - a), computed in b so that
    # resampling many windows makes no temporaries
    for a, b, f in ((tl, tr, fxg), (bl, br, fxg), (tr, br, fyg)):
        b -= a
        b *= f
        b += a
    return br[:, :, 0] if squeeze else br


def resize_bilinear(img: Raster, width: int, height: int) -> Raster:
    """Bilinear resize, rounded back to 8-bit; at the same size, a copy,
    which is what the resample gives there."""
    if (width, height) == (img.width, img.height):
        return Raster(img.pixels.copy())
    out = _resize_bilinear(img.pixels, width, height)
    return Raster(np.clip(np.rint(out), 0, 255).astype(np.uint8))
