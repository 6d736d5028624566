"""Steering-angle post-processing: quantizing per-frame angles into bins and
smoothing the sequence by exact penalized least squares.
"""

import math
from dataclasses import dataclass

import numpy as np

ANGLE_LIMIT = 90.0


@dataclass(frozen=True, eq=False)
class AngleSeries:
    """Per-frame steering angles (degrees, within [-90, 90]) with frame ids."""

    angles: np.ndarray
    frame_ids: tuple

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=np.float64)
        if a.ndim != 1 or len(a) < 1:
            raise ValueError("angle series must be a non-empty 1-D sequence")
        if len(a) != len(self.frame_ids):
            raise ValueError("angles and frame_ids must have equal length")
        if not (np.abs(a) <= ANGLE_LIMIT).all():  # nan compares false
            raise ValueError(f"angles must lie within [-{ANGLE_LIMIT}, {ANGLE_LIMIT}]")
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "frame_ids", tuple(self.frame_ids))


def bin_angle(a: float, bin_width: float = 2.0) -> float:
    """Snap an angle to the nearest bin center (half-away-from-zero), clamped."""
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    if abs(a) > ANGLE_LIMIT:
        raise ValueError(f"angle {a} outside [-{ANGLE_LIMIT}, {ANGLE_LIMIT}]")
    q = a / bin_width
    ticks = math.floor(q + 0.5) if q >= 0 else math.ceil(q - 0.5)
    return float(min(max(ticks * bin_width, -ANGLE_LIMIT), ANGLE_LIMIT))


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm for a symmetric tridiagonal system."""
    n = len(diag)
    c = np.zeros(n - 1)
    d = np.zeros(n)
    c[0] = off[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - off[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = off[i] / denom
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / denom
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def smooth_series(series: AngleSeries, lam: float) -> AngleSeries:
    """Minimize sum (out - in)^2 + lam * sum of squared consecutive differences.

    The minimizer solves a symmetric tridiagonal system; lam = 0 returns the
    input exactly, lam -> infinity flattens the series toward its mean. The
    result is clamped to [-90, 90].
    """
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be a finite non-negative number, got {lam!r}")
    angles = series.angles
    n = len(angles)
    if lam == 0 or n == 1:
        return AngleSeries(angles.copy(), series.frame_ids)
    diag = np.full(n, 1.0 + 2.0 * lam)
    diag[0] = diag[-1] = 1.0 + lam
    off = np.full(n - 1, -lam)
    smoothed = _solve_tridiagonal(diag, off, angles)
    return AngleSeries(np.clip(smoothed, -ANGLE_LIMIT, ANGLE_LIMIT), series.frame_ids)
