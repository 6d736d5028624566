"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is asserted, not just printed.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    _rot90_map,
    brute_otsu,
    dense_smooth,
    line_residual,
    naive_hog,
    pooled_coarse_localize,
    segment_line_params,
)
from scenes import (
    calibration_scene,
    car_patch,
    corridor_frame,
    floor_box_scene,
    frame_with_cars,
    noise_frame,
    noise_patch,
    pinhole_render,
    rasterize_segment,
    road_frame,
    training_set,
    write_replay,
)
from rovercv.calibration import CameraModel, estimate_distance, estimate_focal
from rovercv.classifier import svm_train
from rovercv.cli import run
from rovercv.detector import (
    BandConfig,
    DetectorConfig,
    detect_sequence,
    iter_windows,
    plan_windows,
    _band_features,
    _scaled_band,
)
from rovercv.features import extract_features
from rovercv.geometry import detect_lane, hough_lines, largest_rectangle
from rovercv.mapping import (
    ExploreConfig,
    FREE,
    OccupancyMap,
    Pose,
    UNKNOWN,
    advance_pose,
    explore_step,
    localize,
    map_to_bytes,
)
from rovercv.raster import Raster, save_pnm
from rovercv.segmentation import otsu_from_histogram
from rovercv.steering import AngleSeries, smooth_series

DETECT_BANDS = (BandConfig(32, 96, 64, 16), BandConfig(0, 128, 128, 32))


def _report(n, text):
    print(f"\nPASS criterion {n}: {text}")


def test_c01_otsu_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    while checked < 200:
        hist = rng.integers(0, 500, size=256)
        hist[rng.random(256) < rng.uniform(0.2, 0.9)] = 0
        if np.count_nonzero(hist) < 2:
            continue
        expected_t, _ = brute_otsu(hist)
        got = otsu_from_histogram(hist).threshold
        assert got == expected_t, f"histogram #{checked}: {got} != {expected_t}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"200/200 random histograms match the exhaustive argmax exactly "
               f"({elapsed:.2f} s)")


def test_c02_hog_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    from rovercv.features import hog

    for i in range(100):
        side = 64 if i % 5 == 0 else 16  # 20 large patches, 80 small ones
        patch = rng.integers(0, 256, (side, side))
        fast = hog(Raster(patch.astype(np.uint8)))
        slow = naive_hog(patch)
        worst = max(worst, float(np.abs(fast - slow).max()))
        assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"100 patches match the naive per-pixel oracle; worst "
               f"|diff| = {worst:.2e} ({elapsed:.2f} s)")


def test_c03_subsampling_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    frame = noise_frame(rng, w=256, h=128)
    plan = plan_windows(256, 128, DETECT_BANDS)
    worst = 0.0
    checked = 0
    rows = (row for matrix in _band_features(frame, plan) for row in matrix)
    for (b, y, x), fv in zip(iter_windows(plan), rows):
        band = plan.bands[b]
        scaled, ss = _scaled_band(frame, band, *plan.counts[b], plan.features.patch_px)
        xs = (x // band.stride_px) * ss
        ys = ((y - band.y_top) // band.stride_px) * ss
        direct = extract_features(Raster(scaled.pixels[ys:ys + 64, xs:xs + 64]),
                                  plan.features).values
        worst = max(worst, float(np.abs(fv - direct).max()))
        assert worst <= 1e-9
        checked += 1
    assert checked == plan.total_windows
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"{checked} aligned windows: subsampled features equal direct "
               f"extraction; worst |diff| = {worst:.2e} ({elapsed:.2f} s)")


def test_c04_hough_accuracy():
    # segment lengths start at 80 px: identical pixel sets of shorter digital
    # segments correspond to generator lines further apart than the tolerance
    # itself (see test_geometry.py::TestHough::test_short_segments_are_ambiguous),
    # so recovery is only well-posed above that
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    h = w = 200
    for trial in range(50):
        while True:
            x0, y0 = rng.uniform(10, 190, 2)
            ang = rng.uniform(0, np.pi)
            length = rng.uniform(80, 180)
            x1 = x0 + length * np.cos(ang)
            y1 = y0 + length * np.sin(ang)
            if 0 <= x1 < w and 0 <= y1 < h:
                break
        edges = rasterize_segment(h, w, x0, y0, x1, y1)
        top = hough_lines(edges, min_votes=20)[0]
        rho_true, theta_true = segment_line_params(x0, y0, x1, y1)
        drho, dtheta = line_residual(rho_true, theta_true, top.rho, top.theta_deg)
        assert drho <= 1.0 and dtheta <= 1.0, f"trial {trial}: ({drho:.2f}, {dtheta:.2f})"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"50 random segments recovered within 1 px / 1 deg ({elapsed:.2f} s)")


def test_c05_calibration_round_trip():
    rng = np.random.default_rng(1005)
    for _ in range(1000):
        n, d, length = rng.uniform(0.01, 1e4, 3)
        model = estimate_focal(n, d, length)
        assert estimate_distance(model, length, n) == d

    true_focal, true_distance, object_cm = 700.0, 150.0, 20.0
    img, _ = pinhole_render(object_cm, true_distance, true_focal)
    model = CameraModel(focal_px=true_focal, ref_length_cm=object_cm,
                        ref_distance_cm=70.0, ref_pixels=true_focal * object_cm / 70.0)
    observed = largest_rectangle(img).bbox[2]
    recovered = estimate_distance(model, object_cm, observed)
    rel = abs(recovered - true_distance) / true_distance
    assert rel <= 0.02
    _report(5, f"1000/1000 round trips exact; pinhole render distance off by "
               f"{100 * rel:.2f}% (<= 2%)")


def _iou(a, b):
    ax0, ay0, ax1, ay1 = a[0], a[1], a[0] + a[2], a[1] + a[3]
    bx0, by0, bx1, by1 = b[0], b[1], b[0] + b[2], b[1] + b[3]
    iw = max(0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def test_c06_end_to_end_detection():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    cars, noise = training_set(rng, n_per_class=200)
    X = np.vstack([extract_features(p).values for p in cars + noise])
    y = np.concatenate([np.ones(len(cars)), -np.ones(len(noise))])
    model = svm_train(X, y, seed=42)

    plan = plan_windows(256, 128, DETECT_BANDS)
    cfg = DetectorConfig(min_score=0.5)
    slots = [0, 16, 48, 96, 160, 192]
    total_cars = 0
    for i in range(20):
        n_cars = i % 3
        xs = rng.choice(slots, size=n_cars, replace=False)
        while n_cars == 2 and abs(xs[0] - xs[1]) < 128:
            xs = rng.choice(slots, size=n_cars, replace=False)
        frame, truth = frame_with_cars(rng, [(int(x), 32) for x in xs])
        [boxes] = detect_sequence([frame], model, plan, cfg)
        assert len(boxes) == n_cars, f"frame {i}: {len(boxes)} boxes for {n_cars} cars"
        for t in truth:
            best = max((_iou((b.x, b.y, b.w, b.h), t) for b in boxes), default=0.0)
            assert best >= 0.5, f"frame {i}: best IoU {best:.2f} for car at {t}"
        total_cars += n_cars
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"20 frames, {total_cars} cars: all found with IoU >= 0.5, zero "
               f"fused false positives ({elapsed:.1f} s incl. training)")


def test_c07_lane_fixture():
    rng = np.random.default_rng(1007)
    for i in range(20):
        # bottom/top ranges keep the lines steeper than 45 deg, so the per-row
        # painted edge stays an unbroken digital line
        frame, truth = road_frame(
            left_bottom_x=float(rng.uniform(55, 95)),
            right_bottom_x=float(rng.uniform(225, 265)),
            left_top_x=float(rng.uniform(132, 146)),
            right_top_x=float(rng.uniform(174, 188)),
        )
        lane = detect_lane(frame)
        assert lane.left.valid and lane.right.valid
        for side, t in ((lane.left, truth["left"]), (lane.right, truth["right"])):
            assert abs(side.x0 - t["x0"]) <= 3.0, f"frame {i}"
            assert abs(side.x1 - t["x1"]) <= 3.0, f"frame {i}"

        mirrored = Raster(frame.pixels[:, ::-1])
        lane_m = detect_lane(mirrored)
        w = frame.width
        assert lane_m.left.x0 == (w - 1) - lane.right.x0
        assert lane_m.left.x1 == (w - 1) - lane.right.x1
        assert lane_m.right.x0 == (w - 1) - lane.left.x0
        assert lane_m.right.x1 == (w - 1) - lane.left.x1
    _report(7, "20 road frames: endpoints within 3 px, mirror symmetry exact")


def _obstacle_room(rng):
    """Obstacle-dense 120x120 room: every candidate window must contain distinctive
    structure, otherwise featureless cutouts are genuinely ambiguous."""
    grid = np.full((120, 120), FREE, dtype=np.uint8)
    grid[0, :] = grid[-1, :] = 2
    grid[:, 0] = grid[:, -1] = 2
    for _ in range(30):
        yy = int(rng.integers(4, 108))
        xx = int(rng.integers(4, 108))
        grid[yy:yy + int(rng.integers(3, 9)), xx:xx + int(rng.integers(3, 9))] = 2
    return OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0), grid=grid)


def _room_cutout(rng, world):
    """A random 40-59 cell window of the room as a map of its own, with its row and column."""
    rows = int(rng.integers(40, 60))
    cols = int(rng.integers(40, 60))
    r0 = int(rng.integers(0, 120 - rows))
    c0 = int(rng.integers(0, 120 - cols))
    part = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0),
                        grid=world.grid[r0:r0 + rows, c0:c0 + cols].copy())
    return part, r0, c0


def test_c08_mapping():
    # closed-loop dead reckoning
    pose = Pose(0, 0, 0)
    for _ in range(4):
        pose = advance_pose(pose, 10.0, 90.0)
    loop_err = max(abs(pose.x), abs(pose.y), min(pose.theta, 360 - pose.theta))
    assert loop_err < 1e-6

    # corridor replay free-space length
    cfg = ExploreConfig()
    world = OccupancyMap.empty(2.0)
    p = Pose(0, 0, 0)
    steps = 12
    for _ in range(steps):
        world, p = explore_step(world, p, corridor_frame(), 20.0, 0.0, cfg)
    free = np.argwhere(world.grid == FREE)
    xs = world.origin[0] + (free[:, 1] + 0.5) * world.cell_cm
    length = xs.max() - xs.min() + world.cell_cm
    expected = cfg.patch_depth_cm + (steps - 1) * 20.0
    corridor_rel = abs(length - expected) / expected
    assert corridor_rel <= 0.05

    # cutout localization at 0 and 90 degrees
    rng = np.random.default_rng(1008)
    world = _obstacle_room(rng)
    for trial in range(20):
        part, r0, c0 = _room_cutout(rng, world)
        rot = 90.0 if trial % 2 else 0.0
        if rot:
            part = _rot90_map(part, 3)
        res = localize(world, part)
        assert res == pooled_coarse_localize(world, part), f"trial {trial}"
        assert res.score == 1.0, f"trial {trial}: score {res.score}"
        assert abs(res.pose.theta - rot) <= 1.0
        assert abs(res.pose.x - c0 * 2.0) <= 2.0, f"trial {trial}"
        assert abs(res.pose.y - r0 * 2.0) <= 2.0, f"trial {trial}"
    _report(8, f"loop closure error {loop_err:.1e} cm; corridor length off by "
               f"{100 * corridor_rel:.1f}%; 20/20 cutouts localized at score 1.0")


def _turned_cutout(world, r0, c0, rows, cols, heading):
    """The room cutout at (r0, c0) as a robot at its lower corner facing
    ``heading`` maps it: each cell of a grid in the robot's frame takes the state
    of the room cell under its center, so the room is resampled once, as
    stitching does, and cells off the cutout stay unknown."""
    c = world.cell_cm
    a = math.radians(heading)
    corners = np.array([[0, 0], [cols, 0], [0, rows], [cols, rows]]) * c
    fx = math.cos(a) * corners[:, 0] + math.sin(a) * corners[:, 1]
    fy = -math.sin(a) * corners[:, 0] + math.cos(a) * corners[:, 1]
    h = int(math.ceil((fy.max() - fy.min()) / c))
    w = int(math.ceil((fx.max() - fx.min()) / c))
    ii, jj = np.mgrid[0:h, 0:w]
    qx, qy = fx.min() + (jj + 0.5) * c, fy.min() + (ii + 0.5) * c
    col = c0 + np.floor((math.cos(a) * qx - math.sin(a) * qy) / c).astype(np.int64)
    row = r0 + np.floor((math.sin(a) * qx + math.cos(a) * qy) / c).astype(np.int64)
    inside = (row >= r0) & (row < r0 + rows) & (col >= c0) & (col < c0 + cols)
    grid = np.full((h, w), UNKNOWN, dtype=np.uint8)
    grid[inside] = world.grid[row[inside], col[inside]]
    return OccupancyMap(cell_cm=c, origin=(fx.min(), fy.min()), grid=grid)


def test_c08_off_quarter_localization():
    # cutouts turned to whole-degree headings off the quarter turns: the
    # rotation search must reach every whole degree, not only the quarter turns
    rng = np.random.default_rng(1008)
    world = _obstacle_room(rng)
    worst_deg = worst_cm = 0.0
    for trial in range(12):
        part, r0, c0 = _room_cutout(rng, world)
        heading = 90 * int(rng.integers(4)) + int(rng.integers(1, 90))
        turned = _turned_cutout(world, r0, c0, *part.grid.shape, heading)
        res = localize(world, turned)
        assert res == pooled_coarse_localize(world, turned), f"trial {trial}"
        worst_deg = max(worst_deg, abs((res.pose.theta - heading + 180.0) % 360.0 - 180.0))
        worst_cm = max(worst_cm, abs(res.pose.x - c0 * 2.0), abs(res.pose.y - r0 * 2.0))
        assert worst_deg <= 1.0 and worst_cm < 2.0, f"trial {trial}, heading {heading}: {res}"
    _report(8, f"12/12 off-quarter cutouts localized: heading within {worst_deg:.0f} deg, "
               f"position within {worst_cm:.1f} cm")


def test_c09_steering_smoothing():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 80))
        lam = float(rng.uniform(0, 500))
        angles = rng.uniform(-85, 85, n)
        s = AngleSeries(angles, tuple(str(i) for i in range(n)))
        out = smooth_series(s, lam)
        oracle = np.clip(dense_smooth(angles, lam), -90, 90)
        worst = max(worst, float(np.abs(out.angles - oracle).max()))
        assert worst <= 1e-9
        tv_in = float(np.abs(np.diff(angles)).sum())
        tv_out = float(np.abs(np.diff(out.angles)).sum())
        assert tv_out <= tv_in + 1e-9

    s = AngleSeries(rng.uniform(-90, 90, 40), tuple(str(i) for i in range(40)))
    assert (smooth_series(s, 0.0).angles == s.angles).all()
    _report(9, f"100 series match the dense solver (worst |diff| = {worst:.2e}), "
               f"total variation never increased, lambda=0 is the identity")


def _run_all_subcommands(base: Path, out: Path, seed: int):
    """Invoke every subcommand once, writing all outputs under ``out``."""
    out.mkdir()
    assert run(["--seed", str(seed), "calibrate", str(base / "book.pnm"),
                "--distance-cm", "70", "--length-cm", "20",
                "--out", str(out / "camera.json")]) == 0
    assert run(["--seed", str(seed), "segment", str(base / "scene.pnm"),
                "--method", "otsu", "--out-mask", str(out / "mask.pnm"),
                "--out-json", str(out / "mask.json")]) == 0
    assert run(["--seed", str(seed), "lanes", str(base / "road.pnm"),
                "--out", str(out / "lane.json"),
                "--out-image", str(out / "lane.pnm")]) == 0
    assert run(["--seed", str(seed), "extract", str(base / "patches"),
                str(base / "labels.csv"), "--out", str(out / "features.csv"),
                "--layout-json", str(out / "layout.json")]) == 0
    assert run(["--seed", str(seed), "train", str(out / "features.csv"),
                "--epochs", "5", "--out", str(out / "model.json")]) == 0
    assert run(["--seed", str(seed), "--config", str(base / "bands.json"),
                "detect", str(base / "frames"), str(out / "model.json"),
                "--min-score", "0.5", "--annotate",
                "--out-dir", str(out / "detections")]) == 0
    assert run(["--seed", str(seed), "map-build", str(base / "replay.jsonl"),
                "--out", str(out / "map.rmap")]) == 0
    assert run(["--seed", str(seed), "localize", str(out / "map.rmap"),
                str(base / "partial.rmap"), "--out", str(out / "pose.json")]) == 0
    assert run(["--seed", str(seed), "smooth", str(base / "angles.csv"),
                "--lambda", "3.5", "--out", str(out / "smoothed.csv")]) == 0


def test_c10_cli_determinism(tmp_path):
    base = tmp_path / "inputs"
    base.mkdir()
    rng = np.random.default_rng(1010)

    save_pnm(base / "book.pnm", calibration_scene())
    save_pnm(base / "scene.pnm", floor_box_scene()[0])
    save_pnm(base / "road.pnm", road_frame()[0])

    patches = base / "patches"
    patches.mkdir()
    rows = []
    for i in range(8):
        save_pnm(patches / f"car_{i}.pnm", car_patch(rng))
        rows.append(f"car_{i}.pnm,1")
        save_pnm(patches / f"noise_{i}.pnm", noise_patch(rng))
        rows.append(f"noise_{i}.pnm,0")
    (base / "labels.csv").write_text("\n".join(rows) + "\n")

    frames = base / "frames"
    frames.mkdir()
    for i in range(2):
        frame, _ = frame_with_cars(rng, [(64, 32)] if i == 0 else [])
        save_pnm(frames / f"{i:06d}.pnm", frame)
    (base / "bands.json").write_text(json.dumps(
        {"bands": [{"y_top": 32, "y_bottom": 96, "window_px": 64, "stride_px": 16}]}))

    replay_frames = [corridor_frame() for _ in range(10)]
    motions = [(20.0, 0.0)] * 5 + [(20.0, 90.0)] + [(20.0, 0.0)] * 4
    write_replay(base, replay_frames, motions)

    cfg = ExploreConfig()
    world = OccupancyMap.empty(2.0)
    p = Pose(0, 0, 0)
    for (f, r) in motions:
        world, p = explore_step(world, p, corridor_frame(), f, r, cfg)
    corner_c = int((100.0 - world.origin[0]) / world.cell_cm)
    corner_r = int((0.0 - world.origin[1]) / world.cell_cm)
    r0 = max(0, min(corner_r - 20, world.height - 40))
    c0 = max(0, min(corner_c - 20, world.width - 40))
    partial = OccupancyMap(cell_cm=world.cell_cm, origin=(0.0, 0.0),
                           grid=world.grid[r0:r0 + 40, c0:c0 + 40].copy())
    (base / "partial.rmap").write_bytes(map_to_bytes(partial))

    (base / "angles.csv").write_text("frame_id,angle_deg\n" + "".join(
        f"f{i},{a}\n" for i, a in enumerate(rng.uniform(-45, 45, 30))))

    _run_all_subcommands(base, tmp_path / "run_a", seed=42)
    _run_all_subcommands(base, tmp_path / "run_b", seed=42)

    files_a = sorted(p.relative_to(tmp_path / "run_a")
                     for p in (tmp_path / "run_a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "run_b")
                     for p in (tmp_path / "run_b").rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        a = (tmp_path / "run_a" / rel).read_bytes()
        b = (tmp_path / "run_b" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
    _report(10, f"{len(files_a)} output files byte-identical across two seeded runs "
                f"of all 9 subcommands")
