import math
import re

import numpy as np
import pytest

from rovercv.calibration import estimate_focal
from rovercv.classifier import svm_train
from rovercv.detector import DetectorConfig
from rovercv.features import FeatureConfig, HogParams
from rovercv.geometry import LaneConfig
from rovercv.mapping import GroundPatch, LocalizeConfig
from rovercv.segmentation import LabelMask, SegmentConfig
from rovercv.steering import AngleSeries, smooth_series


def label_mask(num_labels):
    return LabelMask(np.zeros((2, 2), dtype=np.int32), num_labels=num_labels)


def _patch(width_cm=40.0, depth_cm=40.0, offset_cm=10.0):
    return GroundPatch(mask=LabelMask(np.zeros((4, 4), dtype=np.int32), num_labels=1),
                       width_cm=width_cm, depth_cm=depth_cm, offset_cm=offset_cm)


_ANGLES = AngleSeries(np.array([1.0, 5.0, 2.0]), ("f0", "f1", "f2"))
_X, _Y = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]]), np.array([0, 1, 0, 1])


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("make, field", [
    (lambda v: smooth_series(_ANGLES, v), "lam"),
    (lambda v: AngleSeries(np.array([1.0, v]), ("f0", "f1")), "angles"),
    (lambda v: svm_train(_X, _Y, lambda_=v, epochs=1), "lambda_"),
    (lambda v: estimate_focal(v, 70.0, 20.0), "n_pixels"),
    (lambda v: estimate_focal(100.0, v, 20.0), "distance_cm"),
    (lambda v: estimate_focal(100.0, 70.0, v), "length_cm"),
    (lambda v: DetectorConfig(min_score=v), "min_score"),
    (lambda v: _patch(width_cm=v), "width_cm"),
    (lambda v: _patch(depth_cm=v), "depth_cm"),
    (lambda v: _patch(offset_cm=v), "offset_cm"),
    (lambda v: LaneConfig(top_width_frac=v), "top_width_frac"),
    (lambda v: LaneConfig(blur_passes=v), "blur_passes"),
    (lambda v: LaneConfig(edge_threshold=v), "edge_threshold"),
    (lambda v: LaneConfig(min_votes=v), "min_votes"),
])
def test_non_finite_input_raises_naming_the_field(make, field, value):
    with pytest.raises(ValueError, match=field):
        make(value)


@pytest.mark.parametrize("make, field", [
    (lambda: LaneConfig(top_width_frac=-0.5), "top_width_frac"),
    (lambda: LaneConfig(top_width_frac=0.0), "top_width_frac"),
    (lambda: LaneConfig(blur_passes=1.5), "blur_passes"),
    (lambda: LaneConfig(blur_passes=True), "blur_passes"),
    (lambda: LaneConfig(edge_threshold=300), "edge_threshold"),
    (lambda: LaneConfig(edge_threshold=-1), "edge_threshold"),
    (lambda: LaneConfig(edge_threshold=60.0), "edge_threshold"),
    (lambda: LaneConfig(min_votes=0), "min_votes"),
    (lambda: LaneConfig(min_votes=False), "min_votes"),
])
def test_out_of_range_config_raises_naming_the_field(make, field):
    with pytest.raises(ValueError, match=f"^{field} must "):
        make()


@pytest.mark.parametrize("config, field, lo, hi", [
    (LaneConfig, "blur_passes", 0, math.inf),
    (LaneConfig, "edge_threshold", 0, 255),
    (LaneConfig, "min_votes", 1, math.inf),
    (SegmentConfig, "blur_passes", 0, math.inf),
    (SegmentConfig, "kmeans_k", 1, math.inf),
    (DetectorConfig, "frame_memory", 1, math.inf),
    (HogParams, "cell_px", 2, math.inf),
    (HogParams, "bins", 2, math.inf),
    (HogParams, "block_cells", 1, math.inf),
    (FeatureConfig, "hist_bins", 1, math.inf),
    (FeatureConfig, "spatial_px", 1, math.inf),
    (LocalizeConfig, "min_known", 0, math.inf),
    (label_mask, "num_labels", 1, math.inf),
], ids=lambda v: v.__name__ if callable(v) else None)
@pytest.mark.parametrize("bad", [
    lambda lo: lo - 1, lambda lo: lo + 0.5, lambda lo: float(lo), lambda lo: True,
    lambda lo: float("nan"), lambda lo: float("inf"),
], ids=["below", "fraction", "whole_float", "bool", "nan", "inf"])
def test_integer_config_field_takes_only_an_int_in_range(config, field, lo, hi, bad):
    # one check behind every integer config field: a bool or a float is no
    # integer, even where it compares equal to one
    config(**{field: lo})
    value = bad(lo)
    bounds = f"at least {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    with pytest.raises(ValueError, match=f"^{field} must be an integer {re.escape(bounds)}, "
                                         f"got {re.escape(repr(value))}$"):
        config(**{field: value})
