"""Seeded input generators, operations and output checkers for the benchmark workloads.

Every input is generated here from the workload seed; nothing is taken from the
test suite, so editing a test cannot change a workload. Files are written in the
formats the README documents (binary PNM, JSON, CSV, the .rmap header + P5
body), without calling the program.

An operation is one or more ``rovercv`` CLI calls, each made through
``call(argv)``, which returns the finished call's ``argv``, exit ``code`` (None
if the CLI raised), first ``stderr`` line and ``seconds``. An operation succeeds
when every call exits 0 and the checker accepts the outputs. A checker returns
``None`` for a correct output and a short reason for a wrong one; it raises
``MalformedOutput`` when an exit-0 call left a missing or unparseable output,
which breaks the CLI's contract rather than just giving a wrong answer.
"""

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class MalformedOutput(Exception):
    """An exit-0 call whose output is missing or cannot be parsed."""


@dataclass
class OpResult:
    latency_s: float
    ok: bool
    stage: str = ""
    code: int | None = 0
    message: str = ""
    malformed: bool = False
    bytes_out: int = 0


# ---------------------------------------------------------------- file formats

def write_pnm(path: Path, pixels: np.ndarray):
    magic = "P5" if pixels.ndim == 2 else "P6"
    h, w = pixels.shape[:2]
    path.write_bytes(f"{magic}\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes())


_PNM_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def pnm_size(data: bytes) -> tuple:
    """(width, height, channels) of a binary PNM, checking maxval and the payload length."""
    m = _PNM_HEADER.match(data)
    if m is None or m.group(4) != b"255":
        raise MalformedOutput("not a binary PNM with maxval 255")
    w, h = int(m.group(2)), int(m.group(3))
    channels = 1 if m.group(1) == b"P5" else 3
    if len(data) - m.end() != w * h * channels:
        raise MalformedOutput("PNM payload length does not match its header")
    return w, h, channels


CELL_CM = 2.0  # cell size of every map the benchmark writes
_STATE_LEVELS = np.array([128, 255, 0], dtype=np.uint8)  # unknown, free, occupied
UNKNOWN, FREE, OCCUPIED = 0, 1, 2


def write_rmap(path: Path, grid: np.ndarray):
    header = json.dumps({"cell_cm": CELL_CM, "origin": [0.0, 0.0],
                         "width": grid.shape[1], "height": grid.shape[0]}, sort_keys=True)
    levels = _STATE_LEVELS[grid]
    body = f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii") + levels.tobytes()
    path.write_bytes(header.encode("ascii") + b"\n" + body)


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise MalformedOutput(f"{path.name}: {exc}") from None


def read_pnm_size(path: Path) -> tuple:
    try:
        return pnm_size(path.read_bytes())
    except OSError as exc:
        raise MalformedOutput(f"{path.name}: {exc}") from None


def _file_bytes(*paths) -> int:
    return sum(p.stat().st_size for p in paths)


class Workload:
    name = ""
    why = ""
    # seconds one operation takes at the seed commit on a shared 2-core x86_64
    # host; a run of --seconds makes about seconds / op_seconds operations,
    # rounded to a whole number of ``block`` operations
    op_seconds = 1.0
    block = 1

    def generate(self, rng, work: Path):
        """Write the inputs under ``work`` and return them; uses only the benchmark's code."""
        raise NotImplementedError

    def prepare(self, inputs, call) -> float | None:
        """Program work the operations need first; returns the seconds of a detector
        training, if that is the work, else None."""
        return None

    def operation(self, inputs, i: int, call) -> OpResult:
        raise NotImplementedError


def _run_calls(call, argvs):
    """Run CLI calls in order, stopping at the first nonzero exit; returns (calls, failing call)."""
    done = []
    for argv in argvs:
        c = call(argv)
        done.append(c)
        if c.code != 0:
            return done, c
    return done, None


def _finish(calls, failing, check) -> OpResult:
    latency = sum(c.seconds for c in calls)
    if failing is not None:
        return OpResult(latency, False, stage=failing.argv[0], code=failing.code,
                        message=failing.stderr, malformed=failing.code is None)
    try:
        reason, nbytes = check()
    except MalformedOutput as exc:
        return OpResult(latency, False, stage=calls[-1].argv[0], message=f"malformed output: {exc}",
                        malformed=True)
    if reason:
        return OpResult(latency, False, stage=calls[-1].argv[0], message=reason, bytes_out=nbytes)
    return OpResult(latency, True, bytes_out=nbytes)


# ---------------------------------------------------------------- lanes_textured

@dataclass
class LaneTruth:
    horizon_y: float
    bottom_y: float
    left: tuple  # (x at horizon, x at bottom)
    right: tuple


# lanes_textured frames: size, asphalt texture amplitude in grey levels, horizon
# row as a share of the height, and the checker's endpoint tolerance
ROAD_W, ROAD_H = 640, 360
ROAD_TEXTURE = 30
HORIZON_FRAC = 0.6
LANE_TOL_PX = 3.0


def road_frame(rng):
    """Grey road with one painted boundary band per lane line and textured asphalt.

    Each band jumps from the road level to 140 exactly on the analytic line and
    fades inward in steps too small to pass the edge threshold, so the true edge
    is the line itself. The top/bottom ranges keep both lines steeper than 45
    degrees, so each row's painted edge stays an unbroken digital line. The
    texture adds uniform noise in [-ROAD_TEXTURE, ROAD_TEXTURE] per pixel.
    """
    w, h = ROAD_W, ROAD_H
    horizon_y = int(round(HORIZON_FRAC * (h - 1)))
    img = np.full((h, w), 100, dtype=np.int64)
    band = np.array([140 - 3 * k for k in range(13)])
    rows = np.arange(horizon_y, h)
    t = (rows - horizon_y) / ((h - 1) - horizon_y)

    def paint(bottom_x, top_x, inward):
        xs = np.rint(top_x + t * (bottom_x - top_x)).astype(np.int64)
        for k, value in enumerate(band):
            img[rows, np.clip(xs + inward * k, 0, w - 1)] = value
        return (top_x, bottom_x)

    left = paint(rng.uniform(0.23, 0.31) * w, rng.uniform(0.41, 0.45) * w, +1)
    right = paint(rng.uniform(0.69, 0.77) * w, rng.uniform(0.55, 0.59) * w, -1)
    img += rng.integers(-ROAD_TEXTURE, ROAD_TEXTURE + 1, size=img.shape)
    gray = np.clip(img, 0, 255).astype(np.uint8)
    return np.repeat(gray[..., None], 3, axis=2), LaneTruth(float(horizon_y), float(h - 1),
                                                            left, right)


def check_lane(record: dict, truth: LaneTruth):
    """None when both sides are valid and each endpoint is within LANE_TOL_PX of the truth."""
    for side in ("left", "right"):
        s = record.get(side)
        if not isinstance(s, dict) or not {"x0", "y0", "x1", "y1", "valid"} <= set(s):
            raise MalformedOutput(f"lane.json lacks a complete {side!r} side")
        if not s["valid"]:
            return f"{side} lane not found"
        top_x, bottom_x = getattr(truth, side)
        if abs(s["y0"] - truth.horizon_y) > 0.5 or abs(s["y1"] - truth.bottom_y) > 0.5:
            return f"{side} lane spans the wrong rows"
        err = max(abs(s["x0"] - top_x), abs(s["x1"] - bottom_x))
        if err > LANE_TOL_PX:
            return f"{side} lane endpoint off by more than {LANE_TOL_PX:g} px"
    return None


class LanesTextured(Workload):
    name = "lanes_textured"
    why = ("textured 640x360 road frames: Hough voting and peak refinement take >90% of "
           "`lanes`; no features or segmentation run")
    frames = 64
    op_seconds = 0.52

    def generate(self, rng, work):
        items = []
        for i in range(self.frames):
            pixels, truth = road_frame(rng)
            path = work / f"road_{i:03d}.pnm"
            write_pnm(path, pixels)
            items.append((path, truth, pixels.shape[1], pixels.shape[0]))
        out = work / "out"
        out.mkdir()
        return {"items": items, "out": out}

    def operation(self, inputs, i, call):
        path, truth, w, h = inputs["items"][i % len(inputs["items"])]
        lane_json, image = inputs["out"] / "lane.json", inputs["out"] / "annotated.pnm"
        for p in (lane_json, image):
            p.unlink(missing_ok=True)
        calls, failing = _run_calls(call, [["lanes", str(path), "--out", str(lane_json),
                                            "--out-image", str(image)]])

        def check():
            if read_pnm_size(image) != (w, h, 3):
                raise MalformedOutput("annotated frame has the wrong size")
            return check_lane(read_json(lane_json), truth), _file_bytes(lane_json, image)

        return _finish(calls, failing, check)


# ---------------------------------------------------------------- detect_720p

# The documented default band layout for 1280x720 frames (697 windows):
# (y_top, y_bottom, window_px, stride_px). The CLI runs its own DEFAULT_BANDS;
# this copy only places the cars on window positions.
DEFAULT_BANDS = ((400, 496, 64, 16), (392, 584, 96, 24), (384, 640, 128, 32),
                 (368, 656, 192, 96), (360, 680, 320, 160))


def car_texture(rng, size):
    """Car-like texture at any window size: red body with a dark lattice, lightly jittered."""
    u = size / 64.0
    base = np.empty((size, size, 3), dtype=np.int64)
    base[...] = (170, 45, 45)
    period, bar = int(round(16 * u)), int(round(6 * u))
    for o in range(int(round(8 * u)), size, period):
        base[o:o + bar, :] = (25, 25, 70)
        base[:, o:o + bar] = (25, 25, 70)
    return np.clip(base + rng.integers(-10, 11, size=base.shape), 0, 255).astype(np.uint8)


def _resize_bilinear(pixels, size):
    """Square bilinear resize with the corner pixels aligned, as detection rescales a band."""
    pos = np.arange(size) * ((pixels.shape[0] - 1) / (size - 1))
    lo = np.minimum(np.floor(pos).astype(np.int64), pixels.shape[0] - 2)
    f = pos - lo
    src = pixels.astype(np.float64)
    rows = src[lo] + f[:, None, None] * (src[lo + 1] - src[lo])
    out = rows[:, lo] + f[None, :, None] * (rows[:, lo + 1] - rows[:, lo])
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def positive_patch(rng, kind):
    """Car patch: drawn at 64 px, or drawn at a larger band window size and shrunk
    to 64 px the way detection shrinks a band."""
    if kind == 0:
        return car_texture(rng, 64)
    return _resize_bilinear(car_texture(rng, int(rng.choice([96, 128, 192]))), 64)


def negative_patch(rng, kind):
    """Non-car 64x64 patch: noise, a car shifted by 16-40 px, a car at 24-44 px,
    or a 64 px crop of a car drawn at 96-192 px.

    The last three are hard negatives: without them windows that only partly
    overlap a car, or see a car at the wrong scale, also fire, and the fused
    boxes grow past the car.
    """
    patch = rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
    if kind == 1:
        car = car_texture(rng, 64)
        dx, dy = (int(v) for v in rng.integers(16, 41, size=2) * rng.choice([-1, 1], size=2))
        if rng.random() < 0.5:
            dy = 0
        src = car[max(0, -dy):64 - max(0, dy), max(0, -dx):64 - max(0, dx)]
        patch[max(0, dy):max(0, dy) + src.shape[0], max(0, dx):max(0, dx) + src.shape[1]] = src
    elif kind == 2:
        size = int(rng.integers(24, 45))
        x, y = (int(v) for v in rng.integers(0, 64 - size + 1, size=2))
        patch[y:y + size, x:x + size] = _resize_bilinear(car_texture(rng, 64), size)
    elif kind == 3:
        car = car_texture(rng, int(rng.integers(96, 193)))
        x, y = (int(v) for v in rng.integers(0, car.shape[0] - 64 + 1, size=2))
        patch = car[y:y + 64, x:x + 64]
    return patch


MIN_IOU = 0.5  # the checker's bar for a car to count as found
HIST_BINS = 32  # extract's default colour-histogram bins
MIN_HELDOUT_ACC = 0.85  # the training checker's bar on held-out patches


def iou(a, b) -> float:
    iw = max(0, min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]))
    ih = max(0, min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]))
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def check_detections(record: dict, cars):
    """None when every car is covered by a fused box with IoU >= MIN_IOU."""
    boxes = record.get("boxes")
    if not isinstance(boxes, list):
        raise MalformedOutput("detection record lacks a box list")
    try:
        rects = [(b["x"], b["y"], b["w"], b["h"]) for b in boxes]
    except (KeyError, TypeError):
        raise MalformedOutput("detection box lacks x/y/w/h") from None
    for car in cars:
        if max((iou(r, car) for r in rects), default=0.0) < MIN_IOU:
            return f"car {car[2]} px not covered by a fused box with IoU >= {MIN_IOU}"
    return None


class Detect720p(Workload):
    name = "detect_720p"
    why = ("the paper's headline pipeline on 1280x720 frames with the default 697-window "
           "bands: features, classifier and detector do nearly all the work")
    width, height = 1280, 720
    clips, frames_per_clip, cars_per_clip = 4, 3, 2
    patches_per_class = 120
    op_seconds = 0.042

    def _place_cars(self, rng):
        """Cars at the window positions of two of the four smaller bands, far apart."""
        cars = []
        for b in sorted(rng.choice(4, size=self.cars_per_clip, replace=False)):
            y_top, y_bottom, size, stride = DEFAULT_BANDS[b]
            nx = (self.width - size) // stride + 1
            ny = (y_bottom - y_top - size) // stride + 1
            while True:
                box = (int(rng.integers(0, nx)) * stride,
                       y_top + int(rng.integers(0, ny)) * stride, size, size)
                if all(abs(box[0] - c[0]) >= max(box[2], c[2]) + 64 for c in cars):
                    break
            cars.append(box)
        return cars

    def generate(self, rng, work):
        patches = write_patch_set(rng, work / "patches", self.patches_per_class)
        clips = []
        for c in range(self.clips):
            clip = work / f"clip_{c}"
            clip.mkdir()
            cars = self._place_cars(rng)
            textures = [car_texture(rng, box[2]) for box in cars]
            for f in range(self.frames_per_clip):
                frame = rng.integers(0, 256, size=(self.height, self.width, 3)).astype(np.uint8)
                for (x, y, s, _), tex in zip(cars, textures):
                    frame[y:y + s, x:x + s] = tex
                write_pnm(clip / f"frame_{f:03d}.pnm", frame)
            out = work / f"out_{c}"
            out.mkdir()
            clips.append((clip, cars, out))
        return {"patches": patches, "features": work / "features.csv",
                "model": work / "model.json", "clips": clips}

    def prepare(self, inputs, call):
        calls, failing = _run_calls(call, training_calls(inputs["patches"], inputs["features"],
                                                         inputs["model"]))
        if failing is not None:
            raise RuntimeError(f"detector training failed at `{failing.argv[0]}` "
                               f"(exit {failing.code}): {failing.stderr}")
        return sum(c.seconds for c in calls)

    def operation(self, inputs, i, call):
        clip, cars, out = inputs["clips"][i % len(inputs["clips"])]
        stems = [f"frame_{f:03d}" for f in range(self.frames_per_clip)]
        outputs = [out / f"{s}{ext}" for s in stems for ext in (".json", ".pnm")]
        for p in outputs:
            p.unlink(missing_ok=True)
        calls, failing = _run_calls(call, [["detect", str(clip), str(inputs["model"]),
                                            "--annotate", "--frame-memory", "3",
                                            "--out-dir", str(out)]])

        def check():
            reason = None
            for s in stems:
                if read_pnm_size(out / f"{s}.pnm") != (self.width, self.height, 3):
                    raise MalformedOutput("annotated frame has the wrong size")
                reason = reason or check_detections(read_json(out / f"{s}.json"), cars)
            return reason, _file_bytes(*outputs)

        return _finish(calls, failing, check)


@dataclass
class PatchSet:
    """Labeled 64x64 training patches in one directory, with what extract must report."""

    dir: Path
    labels_csv: Path
    labels: np.ndarray  # 0/1 per labels.csv row
    hists: np.ndarray  # per row, the colour histogram extract must write


def color_histogram(pixels) -> np.ndarray:
    """Per-channel counts over HIST_BINS equal bins of [0, 255], concatenated R, G, B."""
    idx = np.minimum(pixels.astype(np.int64) * HIST_BINS // 256, HIST_BINS - 1)
    return np.concatenate([np.bincount(idx[..., c].ravel(), minlength=HIST_BINS)
                           for c in range(3)]).astype(np.float64)


def write_patch_set(rng, directory: Path, per_class: int) -> PatchSet:
    """Alternating car and non-car patches, cycling through their kinds, plus labels.csv."""
    directory.mkdir()
    names, labels, hists = [], [], []
    for i in range(2 * per_class):
        positive = i % 2 == 0
        kind = i // 2
        pixels = positive_patch(rng, kind % 2) if positive else negative_patch(rng, kind % 4)
        write_pnm(directory / f"p{i:04d}.pnm", pixels)
        names.append(f"p{i:04d}.pnm,{int(positive)}")
        labels.append(int(positive))
        hists.append(color_histogram(pixels))
    labels_csv = directory / "labels.csv"
    labels_csv.write_text("\n".join(names) + "\n")
    return PatchSet(directory, labels_csv, np.array(labels), np.array(hists))


def training_calls(patches: PatchSet, features: Path, model: Path) -> list:
    """`rovercv extract` then `rovercv train`, as a user trains the detector."""
    return [["extract", str(patches.dir), str(patches.labels_csv), "--out", str(features)],
            ["train", str(features), "--out", str(model)]]


def read_features(path: Path) -> np.ndarray:
    """Rows of features.csv (label first) as one float array, parsed a row at a time
    so the checker's own memory stays small next to the program's."""
    try:
        with path.open() as f:
            return np.stack([np.array(line.split(","), dtype=np.float64) for line in f])
    except (OSError, ValueError) as exc:
        raise MalformedOutput(f"{path.name}: {exc}") from None


def check_training(features: np.ndarray, layout: dict, model: dict, patches: PatchSet,
                   heldout: np.ndarray):
    """None when features.csv has one row per patch with its label and colour
    histogram, and the trained model classifies the held-out rows (label first,
    as in features.csv) with accuracy at least MIN_HELDOUT_ACC."""
    try:
        lo, hi = layout["color_hist"]
        weights, bias = np.asarray(model["weights"], dtype=np.float64), float(model["bias"])
        mean = np.asarray(model["feat_mean"], dtype=np.float64)
        std = np.asarray(model["feat_std"], dtype=np.float64)
    except (KeyError, TypeError, ValueError):
        raise MalformedOutput("layout or model lacks its fields") from None
    if features.ndim != 2 or len(features) != len(patches.labels):
        return f"features.csv has {len(features)} rows for {len(patches.labels)} patches"
    if not np.array_equal(features[:, 0], patches.labels):
        return "features.csv labels differ from labels.csv"
    if not np.array_equal(features[:, 1 + lo:1 + hi], patches.hists):
        return "features.csv colour histograms differ from the patches'"
    dim = features.shape[1] - 1
    if not weights.shape == mean.shape == std.shape == (dim,):
        return f"model has {weights.size} weights for {dim} features"
    scores = (heldout[:, 1:] - mean) / std @ weights + bias
    accuracy = float(np.mean((scores > 0) == (heldout[:, 0] > 0)))
    if accuracy < MIN_HELDOUT_ACC:
        return f"held-out accuracy {accuracy:.3f} below {MIN_HELDOUT_ACC}"
    return None


class TrainDetector(Workload):
    name = "train_detector"
    why = ("`extract` then `train` on labeled 64x64 patches, as users train the detector: "
           "features per patch and SVM training do the work")
    sets, patches_per_class, heldout_per_class = 8, 60, 60
    op_seconds = 0.56

    def generate(self, rng, work):
        sets = []
        for k in range(self.sets):
            out = work / f"out_{k}"
            out.mkdir()
            sets.append((write_patch_set(rng, work / f"set_{k}", self.patches_per_class), out))
        heldout = write_patch_set(rng, work / "heldout", self.heldout_per_class)
        return {"sets": sets, "heldout": heldout, "heldout_csv": work / "heldout.csv"}

    def prepare(self, inputs, call):
        """Extract the held-out rows the checker scores each trained model on."""
        patches, csv = inputs["heldout"], inputs["heldout_csv"]
        _, failing = _run_calls(call, [training_calls(patches, csv, csv)[0]])
        if failing is not None:
            raise RuntimeError(f"held-out extraction failed (exit {failing.code}): "
                               f"{failing.stderr}")
        inputs["heldout_rows"] = read_features(csv)
        return None

    def operation(self, inputs, i, call):
        patches, out = inputs["sets"][i % len(inputs["sets"])]
        features, layout, model = (out / "features.csv", out / "features.layout.json",
                                   out / "model.json")
        for p in (features, layout, model):
            p.unlink(missing_ok=True)
        calls, failing = _run_calls(call, training_calls(patches, features, model))

        def check():
            reason = check_training(read_features(features), read_json(layout),
                                    read_json(model), patches, inputs["heldout_rows"])
            return reason, _file_bytes(features, layout, model)

        return _finish(calls, failing, check)


# ---------------------------------------------------------------- indoor_map

MAX_POSE_DEG = 1.0  # the checker's heading tolerance; the position one is a cell
ROOM_CELLS, ROOM_OBSTACLES = 140, 60
# ground frames: size in pixels and texture amplitude in grey levels
GROUND_W, GROUND_H = 96, 64
GROUND_TEXTURE = 25
# episode paths: poses per episode, forward motion per step, the least obstacle
# share of each view, the least interior-obstacle samples over all views, and
# how many candidate starts are tried at once
EPISODE_STEPS, FORWARD_CM = 6, 10.0
MIN_VIEW_SHARE, MIN_OBSTACLE_SAMPLES = 0.08, 60
PATH_BATCH = 64
# ground rectangle seen by the camera: the CLI's map-build defaults
VIEW_WIDTH_CM, VIEW_DEPTH_CM, VIEW_OFFSET_CM = 60.0, 40.0, 10.0


def obstacle_room(rng):
    """Walled square room with random rectangular obstacles; FREE/OCCUPIED cells, row = y."""
    cells = ROOM_CELLS
    grid = np.full((cells, cells), FREE, dtype=np.uint8)
    grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = OCCUPIED
    for _ in range(ROOM_OBSTACLES):
        y, x = (int(v) for v in rng.integers(3, cells - 10, size=2))
        grid[y:y + int(rng.integers(3, 9)), x:x + int(rng.integers(3, 9))] = OCCUPIED
    return grid


def _robot_to_world(pose, rx, ry):
    """World coordinates of robot-frame points; pose entries may be arrays of poses."""
    x, y, theta = pose
    c, s = np.cos(np.radians(theta)), np.sin(np.radians(theta))
    return x + c * rx - s * ry, y + s * rx + c * ry


def _cells(grid, wx, wy, outside=OCCUPIED):
    """Cell states at world points; points outside the room read as ``outside``."""
    i = np.floor(np.asarray(wy) / CELL_CM).astype(np.int64)
    j = np.floor(np.asarray(wx) / CELL_CM).astype(np.int64)
    inside = (i >= 0) & (i < grid.shape[0]) & (j >= 0) & (j < grid.shape[1])
    states = np.full(i.shape, outside, dtype=np.uint8)
    states[inside] = grid[i[inside], j[inside]]
    return states


def ground_frame(rng, grid, pose):
    """Grey ground view ahead of the robot: textured bright floor, textured dark obstacles.

    Row 0 is the far edge and column 0 the left edge, matching how map-build
    stitches a view.
    """
    w, h = GROUND_W, GROUND_H
    rows, cols = np.mgrid[0:h, 0:w]
    ry = VIEW_WIDTH_CM / 2 - (cols + 0.5) / w * VIEW_WIDTH_CM
    rx = VIEW_OFFSET_CM + (h - 1 - rows + 0.5) / h * VIEW_DEPTH_CM
    wx, wy = _robot_to_world(pose, rx, ry)
    base = np.where(_cells(grid, wx, wy) == OCCUPIED, 50, 190)
    noisy = base + rng.integers(-GROUND_TEXTURE, GROUND_TEXTURE + 1, size=base.shape)
    return np.clip(noisy, 0, 255).astype(np.uint8)


def _grid_points(rx_range, ry_range, step_cm=2.0):
    rx, ry = np.meshgrid(np.arange(*rx_range, step_cm), np.arange(*ry_range, step_cm))
    return rx.ravel(), ry.ravel()


# robot-frame samples of the view, and of the floor from the robot to just past
# the view's near edge: segmentation takes the class under the view's
# bottom-centre pixel as floor, so that pixel, and the robot's path, must be floor
_VIEW_POINTS = _grid_points((VIEW_OFFSET_CM, VIEW_OFFSET_CM + VIEW_DEPTH_CM),
                            (-VIEW_WIDTH_CM / 2, VIEW_WIDTH_CM / 2))
_AHEAD_POINTS = _grid_points((0.0, VIEW_OFFSET_CM + 6.0), (-4.0, 8.0), step_cm=4.0)


def episode_path(rng, grid, heading):
    """Poses and motions of a collision-free path whose views are segmentable and
    localizable.

    The path goes straight with one turn of 10-25 degrees half-way; each motion
    rotates first, then moves forward, as map-build replays it. Candidate starts
    are drawn in batches until one meets three conditions. Every view lies inside
    the room, whose walls hide what is beyond. Each view shows at least
    MIN_VIEW_SHARE obstacle: segmentation splits every frame into two classes,
    so a frame of bare floor has no right answer. And the views hold at least
    MIN_OBSTACLE_SAMPLES samples of interior obstacles: bare floor along a
    straight outer wall matches many places in the room.
    """
    cells, steps, batch = grid.shape[0], EPISODE_STEPS, PATH_BATCH
    interior = np.full_like(grid, FREE)
    interior[1:-1, 1:-1] = grid[1:-1, 1:-1]
    turn_step = steps // 2 - 1
    for _ in range(1000):
        x = rng.integers(6, cells - 6, size=(batch, 1)) * CELL_CM
        y = rng.integers(6, cells - 6, size=(batch, 1)) * CELL_CM
        turns = rng.integers(10, 26, size=(batch, 1)) * rng.choice([-1.0, 1.0], size=(batch, 1))
        theta = np.full((batch, 1), float(heading))
        ok = np.ones(batch, dtype=bool)
        seen = np.zeros(batch, dtype=np.int64)
        poses = []
        for k in range(steps):
            poses.append((x, y, theta))
            ahead = _cells(grid, *_robot_to_world((x, y, theta), *_AHEAD_POINTS))
            world = _robot_to_world((x, y, theta), *_VIEW_POINTS)
            view = _cells(grid, *world, outside=UNKNOWN)
            ok &= ((ahead == FREE).all(axis=1) & (view != UNKNOWN).all(axis=1)
                   & ((view == OCCUPIED).mean(axis=1) >= MIN_VIEW_SHARE))
            seen += (_cells(interior, *world, outside=FREE) == OCCUPIED).sum(axis=1)
            if k == turn_step:
                theta = (theta + turns) % 360.0
            x = x + FORWARD_CM * np.cos(np.radians(theta))
            y = y + FORWARD_CM * np.sin(np.radians(theta))
        found = np.flatnonzero(ok & (seen >= MIN_OBSTACLE_SAMPLES))
        if found.size:
            i = found[0]
            motions = [(FORWARD_CM, float(turns[i, 0]) if k == turn_step else 0.0)
                       for k in range(steps)]
            path = [(float(px[i, 0]), float(py[i, 0]), float(pt[i, 0])) for px, py, pt in poses]
            return path, motions
    raise RuntimeError("no collision-free episode path found")


def check_pose(record: dict, truth):
    """None when the pose is less than one cell from the start position on each
    axis and at most MAX_POSE_DEG from its heading."""
    try:
        x, y, theta = float(record["x"]), float(record["y"]), float(record["theta"])
    except (KeyError, TypeError, ValueError):
        raise MalformedOutput("pose.json lacks numeric x/y/theta") from None
    dtheta = abs((theta - truth[2] + 180.0) % 360.0 - 180.0)
    if abs(x - truth[0]) >= CELL_CM or abs(y - truth[1]) >= CELL_CM or dtheta > MAX_POSE_DEG:
        return "wrong pose: a cell or more, or over 1 degree, off the start pose"
    return None


class IndoorMap(Workload):
    name = "indoor_map"
    why = ("watershed map-build over a textured replay, then localize on the prior map: "
           "segmentation, mapping and sparse wall-angle Hough do the work")
    rooms, episodes = 16, 96
    op_seconds = 0.36
    block = 6  # one episode in six starts off the quarter turns

    def generate(self, rng, work):
        priors = []
        for r in range(self.rooms):
            grid = obstacle_room(rng)
            write_rmap(work / f"room_{r}.rmap", grid)
            priors.append((grid, work / f"room_{r}.rmap"))
        episodes = []
        for e in range(self.episodes):
            # consecutive operations visit different rooms. Every sixth episode
            # starts on a whole-degree heading off the quarter turns, which only
            # the wall-angle rotation search can recover; the rest start on
            # quarter turns. Interleaving them keeps their share the same in
            # every prefix of a run, so it does not change with how far a run
            # gets. Whether an episode off the quarter turns is localized varies
            # from room to room, so a larger share of them makes the success
            # count per run, and ops_per_s, less steady.
            grid, prior = priors[e % self.rooms]
            heading = 90.0 * float(rng.integers(4))
            if e % 6 == 5:
                heading += float(rng.integers(10, 81))
            poses, motions = episode_path(rng, grid, heading)
            ep = work / f"episode_{e:03d}"
            ep.mkdir()
            lines = []
            for k, (pose, (fwd, rot)) in enumerate(zip(poses, motions)):
                write_pnm(ep / f"ground_{k:02d}.pnm", ground_frame(rng, grid, pose))
                lines.append(json.dumps({"frame": f"ground_{k:02d}.pnm",
                                         "forward_cm": fwd, "rotate_deg": rot}))
            (ep / "replay.jsonl").write_text("\n".join(lines) + "\n")
            episodes.append((ep, prior, poses[0]))
        return {"episodes": episodes}

    def operation(self, inputs, i, call):
        ep, prior, truth = inputs["episodes"][i % len(inputs["episodes"])]
        built, pose = ep / "built.rmap", ep / "pose.json"
        for p in (built, pose):
            p.unlink(missing_ok=True)
        calls, failing = _run_calls(call, [
            ["map-build", str(ep / "replay.jsonl"), "--method", "watershed", "--out", str(built)],
            ["localize", str(prior), str(built), "--out", str(pose)],
        ])

        def check():
            return check_pose(read_json(pose), truth), _file_bytes(built, pose)

        return _finish(calls, failing, check)


WORKLOADS = {w.name: w for w in (Detect720p(), TrainDetector(), LanesTextured(), IndoorMap())}
