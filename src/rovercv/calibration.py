"""Monocular distance calibration from a reference object of known size.

A single reference shot of an object of known width, photographed at a known
distance, fixes the perceived focal length; after that, the distance to any
object of known width follows from its apparent width in pixels.
"""

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .geometry import largest_rectangle
from .raster import Raster


@dataclass(frozen=True)
class CameraModel:
    """Perceived focal length plus the reference measurements that produced it."""

    focal_px: float
    ref_length_cm: float
    ref_distance_cm: float
    ref_pixels: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CameraModel":
        return cls(focal_px=float(d["focal_px"]), ref_length_cm=float(d["ref_length_cm"]),
                   ref_distance_cm=float(d["ref_distance_cm"]), ref_pixels=float(d["ref_pixels"]))


def _require_positive(**values):
    """Raise ValueError naming the first value that is not finite and positive."""
    for name, v in values.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be a finite positive number, got {v!r}")


def estimate_focal(n_pixels: float, distance_cm: float, length_cm: float) -> CameraModel:
    """Perceived focal length from a reference object: pixels * distance / length."""
    _require_positive(n_pixels=n_pixels, distance_cm=distance_cm, length_cm=length_cm)
    return CameraModel(focal_px=n_pixels * distance_cm / length_cm,
                       ref_length_cm=float(length_cm),
                       ref_distance_cm=float(distance_cm),
                       ref_pixels=float(n_pixels))


def estimate_distance(model: CameraModel, known_width_cm: float, observed_pixels: float) -> float:
    """Distance (cm) to an object of known width appearing ``observed_pixels`` wide.

    Evaluates width * focal / pixels in exact rational arithmetic from the
    stored reference triple, so measuring the reference object itself returns
    the reference distance bit-exactly.
    """
    _require_positive(known_width_cm=known_width_cm, observed_pixels=observed_pixels)
    focal = (Fraction(model.ref_pixels) * Fraction(model.ref_distance_cm)
             / Fraction(model.ref_length_cm))
    return float(Fraction(known_width_cm) * focal / Fraction(observed_pixels))


def calibrate_from_image(img: Raster, distance_cm: float, length_cm: float,
                         edge_threshold: int = 60) -> CameraModel:
    """Measure the reference rectangle in a calibration shot and fit the model.

    The pixel count is the bbox width (horizontal extent) of the detected
    rectangle.
    """
    _require_positive(distance_cm=distance_cm, length_cm=length_cm)
    rect = largest_rectangle(img, edge_threshold=edge_threshold)
    n_pixels = rect.bbox[2]
    return estimate_focal(n_pixels, distance_cm, length_cm)
