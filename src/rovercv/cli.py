"""Single executable exposing every pipeline stage as a file-based subcommand.

Exit codes: 0 success, 1 runtime/domain error (message on stderr), 2 usage or
configuration error. No output file is written when the exit code is nonzero.

Each subcommand's handler is a generator of (path, bytes-like) outputs; ``run``
writes each to a temporary file as it arrives and renames them all at the end.
"""

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import asdict
from itertools import chain, islice, takewhile
from pathlib import Path

import numpy as np

from .calibration import calibrate_from_image
from .classifier import model_from_dict, model_to_dict, svm_train
from .detector import (
    DEFAULT_BANDS,
    BandConfig,
    DetectorConfig,
    detect_sequence,
    draw_boxes,
    plan_windows,
)
from .features import FeatureConfig, HogParams, extract_features
from .geometry import LaneConfig, detect_lane
from .mapping import (
    ExploreConfig,
    LocalizeConfig,
    OccupancyMap,
    PartialMapError,
    Pose,
    explore_step,
    localize,
    map_from_bytes,
    map_to_bytes,
)
from .raster import Raster, load_pnm, write_pnm
from .segmentation import LabelMask, SegmentConfig, segment_floor
from .steering import ANGLE_LIMIT, AngleSeries, bin_angle, smooth_series


class UsageError(Exception):
    """Bad parameters or configuration; maps to exit code 2."""


def _ranged(parse, ok, what):
    """An argparse type: ``parse`` the text, then require ``ok`` of its value."""

    def check(text):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value

    check.__name__ = parse.__name__  # named in argparse's "invalid float value" errors
    return check


# nan fails every comparison, so the float ranges reject it along with inf
_positive_float = _ranged(float, lambda v: 0 < v < math.inf, "a finite positive number")
_nonneg_float = _ranged(float, lambda v: 0 <= v < math.inf, "a finite non-negative number")
_unit_float = _ranged(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_finite_float = _ranged(float, math.isfinite, "a finite number")
_positive_int = _ranged(int, lambda v: v > 0, "positive")
_nonneg_int = _ranged(int, lambda v: v >= 0, "non-negative")
_byte_int = _ranged(int, lambda v: 0 <= v <= 255, "in [0, 255]")
_two_plus_int = _ranged(int, lambda v: v >= 2, "at least 2")


def _build_parser(defaults: dict) -> argparse.ArgumentParser:
    """The argument parser, with ``defaults`` (the --config values) as option defaults.

    The config keys accepted are exactly those looked up here through ``d``;
    any other key raises UsageError.
    """
    read = set()

    def d(key, fallback=None):
        read.add(key)
        return defaults.get(key, fallback)

    parser = argparse.ArgumentParser(prog="rovercv",
                                     description="Classical perception toolkit for "
                                                 "indoor and outdoor vehicles")
    parser.add_argument("--config", help="JSON file with default parameter values")
    parser.add_argument("--seed", type=int, default=d("seed", 42),
                        help="seed for every randomized stage (training shuffles)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="estimate the perceived focal length from a "
                                         "reference rectangle of known size")
    p.add_argument("image")
    p.add_argument("--distance-cm", type=_positive_float, required="distance_cm" not in defaults,
                   default=d("distance_cm"))
    p.add_argument("--length-cm", type=_positive_float, required="length_cm" not in defaults,
                   default=d("length_cm"))
    p.add_argument("--edge-threshold", type=_byte_int, default=d("edge_threshold", 60))
    p.add_argument("--out", default="camera.json")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("segment", help="floor/obstacle segmentation")
    p.add_argument("image")
    p.add_argument("--method", choices=("otsu", "kmeans", "watershed"),
                   default=d("method", "otsu"))
    p.add_argument("--k", type=_positive_int, default=d("k", 2))
    p.add_argument("--blur-passes", type=_nonneg_int, default=d("blur_passes", 1))
    p.add_argument("--markers", help="optional P5 seed image for watershed (values = labels)")
    p.add_argument("--out-mask", default="mask.pnm")
    p.add_argument("--out-json", default="mask.json")
    p.set_defaults(handler=_cmd_segment)

    p = sub.add_parser("lanes", help="detect lane boundary lines")
    p.add_argument("image")
    p.add_argument("--horizon-frac", type=_unit_float, default=d("horizon_frac", 0.6))
    p.add_argument("--top-width-frac", type=_positive_float, default=d("top_width_frac", 0.2))
    p.add_argument("--edge-threshold", type=_byte_int, default=d("edge_threshold", 60))
    p.add_argument("--min-votes", type=_positive_int, default=d("min_votes", 30))
    p.add_argument("--blur-passes", type=_nonneg_int, default=d("blur_passes", 1))
    p.add_argument("--out", default="lane.json")
    p.add_argument("--out-image", default=None, help="write an annotated copy of the frame")
    p.set_defaults(handler=_cmd_lanes)

    p = sub.add_parser("extract", help="feature vectors for labeled training patches")
    p.add_argument("patch_dir")
    p.add_argument("labels_csv", help="rows of <filename>,<label 0|1>")
    p.add_argument("--hist-bins", type=_positive_int, default=d("hist_bins", 32))
    p.add_argument("--spatial-px", type=_positive_int, default=d("spatial_px", 32))
    p.add_argument("--hog-cell", type=_two_plus_int, default=d("hog_cell", 8))
    p.add_argument("--hog-bins", type=_two_plus_int, default=d("hog_bins", 9))
    p.add_argument("--hog-block-cells", type=_positive_int, default=d("hog_block_cells", 2))
    p.add_argument("--hog-per-channel", action="store_true",
                   default=d("hog_per_channel", False))
    p.add_argument("--out", default="features.csv")
    p.add_argument("--layout-json", default=None)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("train", help="train the car/non-car linear SVM")
    p.add_argument("features_csv")
    p.add_argument("--lambda", dest="lam", type=_positive_float, default=d("lam", 1e-4))
    p.add_argument("--epochs", type=_positive_int, default=d("epochs", 30))
    p.add_argument("--out", default="model.json")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("detect", help="sliding-window car detection over numbered frames")
    p.add_argument("frame_dir")
    p.add_argument("model_json")
    p.add_argument("--min-score", type=_finite_float, default=d("min_score", 0.0))
    p.add_argument("--frame-memory", type=_positive_int, default=d("frame_memory", 1))
    p.add_argument("--annotate", action="store_true")
    p.add_argument("--out-dir", default="detections")
    p.set_defaults(handler=_cmd_detect, bands=d("bands"))

    p = sub.add_parser("map-build", help="build an occupancy map from a replay script")
    p.add_argument("replay_jsonl", help="JSON lines: {frame, forward_cm, rotate_deg}")
    p.add_argument("--method", choices=("otsu", "kmeans", "watershed"),
                   default=d("method", "otsu"))
    p.add_argument("--cell-cm", type=_positive_float, default=d("cell_cm", 2.0))
    p.add_argument("--blur-passes", type=_nonneg_int, default=d("blur_passes", 1))
    p.add_argument("--patch-width-cm", type=_positive_float, default=d("patch_width_cm", 60.0))
    p.add_argument("--patch-depth-cm", type=_positive_float, default=d("patch_depth_cm", 40.0))
    p.add_argument("--patch-offset-cm", type=_positive_float, default=d("patch_offset_cm", 10.0))
    p.add_argument("--out", default="map.rmap")
    p.set_defaults(handler=_cmd_map_build)

    p = sub.add_parser("localize", help="match a partial map onto a complete map")
    p.add_argument("global_map")
    p.add_argument("partial_map")
    p.add_argument("--min-known", type=_nonneg_int, default=d("min_known", 50))
    p.add_argument("--min-score", dest="localize_min_score", type=_unit_float,
                   default=d("localize_min_score", 0.6))
    p.add_argument("--min-overlap-frac", type=_unit_float,
                   default=d("min_overlap_frac", 0.5))
    p.add_argument("--out", default="pose.json")
    p.set_defaults(handler=_cmd_localize)

    p = sub.add_parser("smooth", help="smooth (and optionally bin) a steering-angle series")
    p.add_argument("angles_csv", help="CSV with header frame_id,angle_deg")
    p.add_argument("--lambda", dest="lam", type=_nonneg_float, default=d("lam", 5.0))
    p.add_argument("--bin-width", type=_nonneg_float, default=d("bin_width", 0.0),
                   help="if > 0, snap the smoothed angles to this bin width")
    p.add_argument("--out", default="smoothed.csv")
    p.set_defaults(handler=_cmd_smooth)

    unknown = sorted(set(defaults) - read)
    if unknown:
        raise UsageError(f"unknown keys {unknown}")
    return parser


def _parse_args(argv, defaults: dict):
    """Parse ``argv``, then run each --config value the chosen command uses
    through its option's type and choices, which argparse applies only to
    string defaults. The parser is freed on return, before the command runs."""
    parser = _build_parser(defaults)
    args = parser.parse_args(argv)
    subparsers = next(a for a in parser._actions if a.dest == "command")
    for action in parser._actions + subparsers.choices[args.command]._actions:
        key = action.dest
        # a value given on the command line replaced the config value
        if key not in defaults or getattr(args, key, None) is not defaults[key]:
            continue
        value = defaults[key]
        # a flag's config value is a JSON boolean, which no type check sees
        if isinstance(action.const, bool) and not isinstance(value, bool):
            raise UsageError(f"{key}: expected true or false, not {value!r}")
        try:
            if action.type is not None:
                action.type(str(value))
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{key}: {exc}") from None
        except ValueError:
            raise UsageError(f"{key}: invalid value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{key}: {value!r} is not one of {list(action.choices)}")
    return args


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("ascii")


def _cmd_calibrate(args):
    image = load_pnm(args.image)
    try:
        model = calibrate_from_image(image, args.distance_cm, args.length_cm,
                                     edge_threshold=args.edge_threshold)
    except ValueError as exc:
        raise ValueError(f"{args.image}: {exc}") from None
    yield Path(args.out), _json_bytes(model.to_dict())


def _load_markers(path, shape):
    seeds = load_pnm(path)
    if seeds.channels != 1 or seeds.pixels.shape != shape:
        raise ValueError(f"{path}: marker image must be P5 with the same dimensions as the input")
    return LabelMask(seeds.pixels.astype(np.int32), num_labels=int(seeds.pixels.max()) + 1)


def _cmd_segment(args):
    if args.markers and args.method != "watershed":
        raise UsageError("--markers needs --method watershed")
    img = load_pnm(args.image)
    cfg = SegmentConfig(blur_passes=args.blur_passes, kmeans_k=args.k)
    markers = _load_markers(args.markers, img.pixels.shape[:2]) if args.markers else None
    mask = segment_floor(img, args.method, cfg, markers=markers)
    out_mask = Raster((mask.labels * 255 // max(mask.num_labels - 1, 1)).astype(np.uint8))
    sidecar = {
        "num_labels": mask.num_labels,
        "method": args.method,
        "params": {"blur_passes": args.blur_passes, "k": args.k},
    }
    yield Path(args.out_mask), write_pnm(out_mask)
    yield Path(args.out_json), _json_bytes(sidecar)


def _draw_segment(pixels, side, color):
    """Paint a 3x3 stamp at 2n+1 evenly spaced points of the segment, n being
    its longer extent in px; the stamps are clipped to the frame."""
    h, w = pixels.shape[:2]
    steps = int(max(abs(side.x1 - side.x0), abs(side.y1 - side.y0))) * 2 + 1
    t, d = np.linspace(0.0, 1.0, steps)[:, None], np.arange(9)
    # np.rint rounds ties to even, as round does
    ys = (np.rint(side.y0 + t * (side.y1 - side.y0)) + d // 3 - 1).astype(np.int64).ravel()
    xs = (np.rint(side.x0 + t * (side.x1 - side.x0)) + d % 3 - 1).astype(np.int64).ravel()
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    pixels[ys[inside], xs[inside]] = color


def _cmd_lanes(args):
    frame = load_pnm(args.image)
    cfg = LaneConfig(horizon_frac=args.horizon_frac, top_width_frac=args.top_width_frac,
                     edge_threshold=args.edge_threshold, min_votes=args.min_votes,
                     blur_passes=args.blur_passes)
    lane = detect_lane(frame, cfg)
    yield Path(args.out), _json_bytes(asdict(lane))
    if args.out_image:
        annotated = frame.pixels.copy()
        color = np.array([255, 0, 0], dtype=np.uint8) if frame.channels == 3 else np.uint8(255)
        for side in (lane.left, lane.right):
            if side.valid:
                _draw_segment(annotated, side, color)
        yield Path(args.out_image), write_pnm(Raster(annotated))


def _feature_config(args) -> FeatureConfig:
    return FeatureConfig(hog=HogParams(cell_px=args.hog_cell, bins=args.hog_bins,
                                       block_cells=args.hog_block_cells,
                                       per_channel=args.hog_per_channel),
                         hist_bins=args.hist_bins, spatial_px=args.spatial_px)


def _cmd_extract(args):
    """One features.csv row per patch, each appended to the output as soon as it
    is formatted, so the text is held once."""
    cfg = _feature_config(args)
    out, layout = bytearray(), None
    # read whole, so the file and its buffers are gone before the output grows
    for n, text in list(_lines(args.labels_csv)):
        name, _, label = text.strip().partition(",")
        if label not in ("0", "1"):
            raise ValueError(f"{args.labels_csv}: line {n}: label for {name!r} must be 0 or 1, "
                             f"got {label!r}")
        path = Path(args.patch_dir) / name
        patch = load_pnm(path)
        try:
            fv = extract_features(patch, cfg)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        layout = fv.layout
        out += (label + "," + ",".join(map(repr, fv.values.tolist())) + "\n").encode("ascii")
    if layout is None:
        raise ValueError(f"{args.labels_csv}: labels CSV is empty")
    yield Path(args.out), out
    layout_path = args.layout_json or str(Path(args.out).with_suffix(".layout.json"))
    yield Path(layout_path), _json_bytes({k: list(v) for k, v in layout.items()})


def _lines(path):
    """(n, text) for each line of the text file at ``path`` that is not blank: n
    counts lines from 1, blank ones included, and text is the line without its
    end. Bytes that are not UTF-8 pass through, for the line's parser to reject."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for n, line in enumerate(f, 1):
            if not line.isspace():
                yield n, line.rstrip("\n")


def _read_features_csv(path) -> tuple:
    """(X, labels) from features.csv, parsed in one pass by one numpy call that grows
    the array as it reads: numpy marks an array made whole (4 MiB or more) for huge
    pages, which a host may lack. A ``#`` is data, so a row that starts with one fails."""
    lines = _lines(path)
    line = next(lines, None)
    if line is None:
        raise ValueError(f"{path}: features CSV is empty")
    width = line[1].count(",") + 1

    def texts():
        nonlocal line
        for line in chain([line], lines):
            yield line[1]

    try:
        data = np.loadtxt(texts(), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        # numpy parses each line before it takes the next, so the last one taken failed
        n, fields = line[0], line[1].split(",")
        if len(fields) != width:
            raise ValueError(f"{path}: line {n}: the number of columns changed from "
                             f"{width} to {len(fields)}") from None
        col, field = next((j, v) for j, v in enumerate(fields, 1) if not _parses(v))
        raise ValueError(f"{path}: line {n}: could not convert string {field!r} to "
                         f"float64 at column {col}") from None
    return data[:, 1:], data[:, 0]


def _parses(text: str) -> bool:
    """Whether numpy's reader takes ``text`` as one row of numbers."""
    try:
        return bool(text) and len(np.loadtxt([text], delimiter=",", comments=None, ndmin=2)) == 1
    except ValueError:
        return False


def _cmd_train(args):
    X, y = _read_features_csv(args.features_csv)
    finite = np.isfinite(X)
    if not finite.all():
        # svm_train would name the data row; the line is found again only on this path
        row, col = np.argwhere(~finite)[0]
        n = next(islice(_lines(args.features_csv), row, None))[0]
        raise ValueError(f"{args.features_csv}: line {n}: non-finite value at column {col + 2}")
    model = svm_train(X, y, lambda_=args.lam, epochs=args.epochs, seed=args.seed)
    yield Path(args.out), _json_bytes(model_to_dict(model))


def _bands_from_config(raw) -> tuple:
    try:
        return tuple(BandConfig(y_top=int(b["y_top"]), y_bottom=int(b["y_bottom"]),
                                window_px=int(b["window_px"]), stride_px=int(b["stride_px"]))
                     for b in raw)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad bands configuration: {exc}") from None


def _cmd_detect(args):
    """Score the frames one at a time; the plan takes its size from the first."""
    frame_paths = sorted(Path(args.frame_dir).glob("*.pnm"))
    if not frame_paths:
        raise ValueError(f"no .pnm frames found in {args.frame_dir}")
    frame = load_pnm(frame_paths[0])
    model = _read(args.model_json, lambda data: model_from_dict(json.loads(data)))
    bands = _bands_from_config(args.bands) if args.bands else DEFAULT_BANDS
    try:
        plan = plan_windows(frame.width, frame.height, bands)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    cfg = DetectorConfig(min_score=args.min_score, frame_memory=args.frame_memory)

    def clip():
        nonlocal frame
        yield frame
        for path in frame_paths[1:]:
            frame = load_pnm(path)
            if (frame.width, frame.height) != (plan.frame_w, plan.frame_h):
                raise ValueError(f"frame {path} is {frame.width}x{frame.height}, but "
                                 f"{frame_paths[0].name} is {plan.frame_w}x{plan.frame_h}")
            yield frame

    out_dir = Path(args.out_dir)
    # detect_sequence pulls one frame per result, so ``frame`` is the one just scored
    for path, boxes in zip(frame_paths, detect_sequence(clip(), model, plan, cfg)):
        record = {"frame": path.stem, "boxes": [asdict(b) for b in boxes]}
        yield out_dir / f"{path.stem}.json", _json_bytes(record)
        if args.annotate:
            yield out_dir / f"{path.stem}.pnm", write_pnm(draw_boxes(frame, boxes))


def _cmd_map_build(args):
    replay_path = Path(args.replay_jsonl)
    cfg = ExploreConfig(method=args.method,
                        seg=SegmentConfig(blur_passes=args.blur_passes),
                        patch_width_cm=args.patch_width_cm,
                        patch_depth_cm=args.patch_depth_cm,
                        patch_offset_cm=args.patch_offset_cm)
    world = OccupancyMap.empty(args.cell_cm)
    pose, step = Pose(0.0, 0.0, 0.0), None
    for n, line in _lines(replay_path):
        try:
            step = json.loads(line)
            frame_path = replay_path.parent / step["frame"]
            motion = float(step["forward_cm"]), float(step["rotate_deg"])
            for key, value in zip(("forward_cm", "rotate_deg"), motion):
                if not math.isfinite(value):
                    raise ValueError(f"{key} must be finite, got {value}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"{replay_path}: line {n}: {exc.msg} at column {exc.colno}") from None
        except KeyError as exc:
            raise ValueError(f"{replay_path}: line {n}: missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{replay_path}: line {n}: {exc}") from None
        frame = load_pnm(frame_path)
        try:
            world, pose = explore_step(world, pose, frame, *motion, cfg)
        except ValueError as exc:
            raise ValueError(f"{replay_path}: line {n}: {exc}") from None
    if step is None:
        raise ValueError(f"{replay_path}: replay script is empty")
    yield Path(args.out), map_to_bytes(world)


def _read(path, parse):
    """``parse`` of the bytes of the file at ``path``, with the path named in its errors."""
    try:
        return parse(Path(path).read_bytes())
    except KeyError as exc:
        raise ValueError(f"{path}: missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_localize(args):
    global_map = _read(args.global_map, map_from_bytes)
    partial = _read(args.partial_map, map_from_bytes)
    cfg = LocalizeConfig(min_known=args.min_known, min_score=args.localize_min_score,
                         min_overlap_frac=args.min_overlap_frac)
    try:
        result = localize(global_map, partial, cfg)
    except PartialMapError as exc:
        raise ValueError(f"{args.partial_map}: {exc}") from None
    yield Path(args.out), _json_bytes({**asdict(result.pose), "score": result.score})


def _read_angles_csv(path) -> AngleSeries:
    lines = _lines(path)
    if next(lines, (0, ""))[1].strip() != "frame_id,angle_deg":
        raise ValueError(f"{path}: angles CSV must start with header 'frame_id,angle_deg'")
    ids, angles = [], []
    for n, text in lines:
        frame_id, _, angle = text.strip().partition(",")
        try:
            angles.append(float(angle))
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
        if not abs(angles[-1]) <= ANGLE_LIMIT:  # nan compares false
            raise ValueError(f"{path}: line {n}: angle {angle} outside "
                             f"[-{ANGLE_LIMIT}, {ANGLE_LIMIT}]")
        ids.append(frame_id)
    if not angles:
        raise ValueError(f"{path}: angles CSV has no rows after its header")
    return AngleSeries(np.asarray(angles), tuple(ids))


def _cmd_smooth(args):
    series = _read_angles_csv(args.angles_csv)
    smoothed = smooth_series(series, args.lam)
    values = smoothed.angles
    if args.bin_width > 0:
        values = np.array([bin_angle(a, args.bin_width) for a in values])
    body = "frame_id,angle_deg\n" + "".join(
        f"{fid},{repr(float(a))}\n" for fid, a in zip(smoothed.frame_ids, values))
    yield Path(args.out), body.encode("ascii")


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    defaults = {}
    if known.config:
        try:
            defaults = json.loads(Path(known.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if not isinstance(defaults, dict):
            print("config error: expected a JSON object", file=sys.stderr)
            return 2

    staged, made = {}, []  # output path -> its temporary file; directories made for them
    writing = None  # the output being staged or renamed, which an OSError then names
    try:
        args = _parse_args(argv, defaults)
        for writing, data in args.handler(args):
            _stage(writing, data, staged, made)
            writing = data = None  # between outputs, with the bytes already freed
        for writing, tmp in staged.items():
            os.replace(tmp, writing)
        staged, made = {}, []  # all in place: nothing for the clean-up to remove
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        where = f"cannot write {writing}: " if writing else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1
    finally:
        with suppress(OSError):
            for tmp in staged.values():
                tmp.unlink(missing_ok=True)
            for directory in reversed(made):
                directory.rmdir()


def _stage(path: Path, data: bytes, staged: dict, made: list):
    """Write ``data`` to ``path``'s temporary file beside it, first making, and
    adding to ``made``, the directories it lacks. A path given again is rewritten."""
    if path not in staged:
        missing = list(takewhile(lambda d: not d.exists(), (path.parent, *path.parent.parents)))
        for directory in reversed(missing):
            directory.mkdir()
            made.append(directory)
        staged[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    staged[path].write_bytes(data)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
