"""roverCV: a from-scratch classical computer-vision toolkit for indoor and
outdoor vehicle perception — segmentation, calibration, lane detection,
sliding-window car detection with heatmap fusion, occupancy mapping with
self-localization, and steering-signal post-processing.
"""

from .calibration import CameraModel, calibrate_from_image, estimate_distance, estimate_focal
from .classifier import LinearModel, svm_score_many, svm_train
from .detector import (
    BandConfig,
    Detection,
    DetectorConfig,
    WindowPlan,
    detect_cars,
    detect_sequence,
    heatmap_fuse,
    plan_windows,
    threshold_boxes,
)
from .features import FeatureConfig, FeatureVector, HogParams, extract_features, hog
from .geometry import Contour, HoughLine, Lane, LaneConfig, detect_lane, find_contours, hough_lines, largest_rectangle
from .mapping import GroundPatch, OccupancyMap, Pose, advance_pose, explore_step, localize, stitch_patch
from .raster import Raster, read_pnm, sobel_magnitude, threshold_binary, to_grayscale, write_pnm
from .segmentation import (
    LabelMask,
    OtsuResult,
    SegmentConfig,
    kmeans_segment,
    otsu_threshold,
    segment_floor,
    watershed_segment,
)
from .steering import AngleSeries, bin_angle, smooth_series

__version__ = "0.1.0"
