import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import per_field_features_csv, stamped_segment
from scenes import (
    calibration_scene,
    car_patch,
    corridor_frame,
    floor_box_scene,
    noise_patch,
    noisy_calibration_scene,
    road_frame,
    write_replay,
)
from rovercv.cli import _build_parser, _draw_segment, _json_bytes, _lines, _read_features_csv, run
from rovercv.detector import DetectorConfig
from rovercv.features import FeatureConfig, HogParams, extract_features
from rovercv.geometry import LaneConfig, LaneSide
from rovercv.mapping import ExploreConfig, LocalizeConfig, OccupancyMap, map_to_bytes
from rovercv.raster import Raster, load_pnm, save_pnm, write_pnm
from rovercv.segmentation import LabelMask, SegmentConfig, segment_floor

@pytest.fixture()
def calib_image(tmp_path):
    path = tmp_path / "book.pnm"
    save_pnm(path, calibration_scene())
    return path

def test_calibrate_writes_model(tmp_path, calib_image):
    out = tmp_path / "camera.json"
    code = run(["calibrate", str(calib_image), "--distance-cm", "70",
                "--length-cm", "20", "--out", str(out)])
    assert code == 0
    model = json.loads(out.read_text())
    assert set(model) == {"focal_px", "ref_length_cm", "ref_distance_cm", "ref_pixels"}
    assert model["focal_px"] == pytest.approx(120 * 70 / 20, rel=0.02)

def test_calibrate_rejects_bad_distance(tmp_path, calib_image, capsys):
    code = run(["calibrate", str(calib_image), "--distance-cm", "-5",
                "--length-cm", "20", "--out", str(tmp_path / "cam.json")])
    assert code == 2
    assert not (tmp_path / "cam.json").exists()

def test_calibrate_noisy_shot_exits_one(tmp_path, capsys):
    src, out = tmp_path / "book.pnm", tmp_path / "camera.json"
    save_pnm(src, noisy_calibration_scene())
    code = run(["calibrate", str(src), "--distance-cm", "70", "--length-cm", "20",
                "--out", str(out)])
    assert code == 1
    assert "no rectangle found" in capsys.readouterr().err
    assert not out.exists()

def test_segment_outputs_mask_and_sidecar(tmp_path):
    img, _ = floor_box_scene()
    src = tmp_path / "scene.pnm"
    save_pnm(src, img)
    mask_path = tmp_path / "mask.pnm"
    json_path = tmp_path / "mask.json"
    code = run(["segment", str(src), "--method", "otsu",
                "--out-mask", str(mask_path), "--out-json", str(json_path)])
    assert code == 0
    mask = load_pnm(mask_path)
    assert set(np.unique(mask.pixels)) <= {0, 255}
    sidecar = json.loads(json_path.read_text())
    assert sidecar["num_labels"] == 2 and sidecar["method"] == "otsu"

def test_segment_bogus_method_usage_error(tmp_path):
    img, _ = floor_box_scene()
    src = tmp_path / "scene.pnm"
    save_pnm(src, img)
    assert run(["segment", str(src), "--method", "bogus"]) == 2

def test_lanes_contract(tmp_path):
    frame, _ = road_frame()
    src = tmp_path / "frame.pnm"
    save_pnm(src, frame)
    out = tmp_path / "lane.json"
    annotated = tmp_path / "lane.pnm"
    code = run(["lanes", str(src), "--out", str(out), "--out-image", str(annotated)])
    assert code == 0
    lane = json.loads(out.read_text())
    assert set(lane) == {"left", "right"}
    assert set(lane["left"]) == {"x0", "y0", "x1", "y1", "valid"}
    assert lane["left"]["valid"] and lane["right"]["valid"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frame.pnm", "lane.json", "lane.pnm"]

@pytest.mark.parametrize("value", ["5", "-0.1", "nan"])
def test_lanes_horizon_outside_frame_exits_two(tmp_path, capsys, value):
    # a horizon below the frame left an empty search mask, and the call used to
    # exit 0 with both sides invalid
    frame, _ = road_frame()
    src, out = tmp_path / "frame.pnm", tmp_path / "lane.json"
    save_pnm(src, frame)
    assert run(["lanes", str(src), f"--horizon-frac={value}", "--out", str(out)]) == 2
    assert "argument --horizon-frac: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frame.pnm"]


def test_lanes_horizon_at_frame_edges_accepted(tmp_path):
    frame, _ = road_frame()
    src = tmp_path / "frame.pnm"
    save_pnm(src, frame)
    for value in ("0", "1"):
        out = tmp_path / f"lane_{value}.json"
        assert run(["lanes", str(src), "--horizon-frac", value, "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {"left", "right"}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-20.0, 60.0).map(lambda v: round(v * 2) / 2 if v > 20 else v),
                min_size=4, max_size=4),
       st.booleans())
def test_draw_segment_matches_per_pixel_oracle(ends, rgb):
    # half-integer points (mapped from part of the range) test the rounding of ties
    x0, y0, x1, y1 = ends
    side = LaneSide(x0=x0, y0=y0, x1=x1, y1=y1, valid=True)
    shape, color = ((30, 40, 3), np.array([255, 0, 0], np.uint8)) if rgb else ((30, 40), np.uint8(255))
    want = np.zeros(shape, np.uint8)
    stamped_segment(want, side, color)
    got = np.zeros(shape, np.uint8)
    _draw_segment(got, side, color)
    assert got.tobytes() == want.tobytes()


def test_lanes_edge_threshold_bounds_accepted(tmp_path):
    frame, _ = road_frame()
    src = tmp_path / "frame.pnm"
    save_pnm(src, frame)
    for value in ("0", "255"):
        assert run(["lanes", str(src), "--edge-threshold", value,
                    "--out", str(tmp_path / f"lane_{value}.json")]) == 0


@pytest.mark.parametrize("command, flag, value, what", [
    (["lanes", "road.pnm"], "--edge-threshold", "256", "in [0, 255]"),
    (["lanes", "road.pnm"], "--edge-threshold", "-1", "in [0, 255]"),
    (["calibrate", "book.pnm", "--distance-cm", "70", "--length-cm", "20"],
     "--edge-threshold", "300", "in [0, 255]"),
    (["extract", "patches", "labels.csv"], "--hog-cell", "1", "at least 2"),
    (["extract", "patches", "labels.csv"], "--hog-bins", "1", "at least 2"),
])
def test_option_outside_library_range_exits_two(tmp_path, capsys, command, flag, value, what):
    # rejected by the parser, before any input is read, instead of by the
    # library with exit 1
    out = tmp_path / "out"
    assert run(command + [f"{flag}={value}", "--out", str(out)]) == 2
    assert f"argument {flag}: {value} is not {what}" in capsys.readouterr().err
    assert not out.exists()


def test_output_path_given_twice_written_once(tmp_path):
    patch_dir, labels = _write_patches(tmp_path, n_cars=1, n_noise=1)
    out = tmp_path / "out" / "features.csv"
    assert run(["extract", str(patch_dir), str(labels), "--out", str(out),
                "--layout-json", str(out)]) == 0
    # the later output wins, as it did when outputs were a dict
    assert json.loads(out.read_text())["hog"] == [0, 1764]
    assert [p.name for p in out.parent.iterdir()] == ["features.csv"]


def test_failed_write_leaves_no_output(tmp_path, capsys):
    frame, _ = road_frame()
    src = tmp_path / "frame.pnm"
    save_pnm(src, frame)
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")  # a regular file where the image's directory should be
    out, image = tmp_path / "lane.json", blocker / "lane.pnm"
    before = sorted(tmp_path.iterdir())
    code = run(["lanes", str(src), "--out", str(out), "--out-image", str(image)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {image}")
    assert not out.exists() and sorted(tmp_path.iterdir()) == before

def _write_patches(tmp_path, n_cars=6, n_noise=6):
    rng = np.random.default_rng(0)
    patch_dir = tmp_path / "patches"
    patch_dir.mkdir()
    rows = []
    for i in range(n_cars):
        name = f"car_{i}.pnm"
        save_pnm(patch_dir / name, car_patch(rng))
        rows.append(f"{name},1")
    for i in range(n_noise):
        name = f"noise_{i}.pnm"
        save_pnm(patch_dir / name, noise_patch(rng))
        rows.append(f"{name},0")
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(rows) + "\n")
    return patch_dir, labels

def test_extract_train_detect_chain(tmp_path):
    patch_dir, labels = _write_patches(tmp_path)
    feats = tmp_path / "features.csv"
    assert run(["extract", str(patch_dir), str(labels), "--out", str(feats)]) == 0
    assert feats.exists()
    layout = json.loads((tmp_path / "features.layout.json").read_text())
    assert layout["hog"] == [0, 1764]

    model_path = tmp_path / "model.json"
    assert run(["train", str(feats), "--out", str(model_path), "--epochs", "5"]) == 0
    model = json.loads(model_path.read_text())
    assert {"weights", "bias", "feat_mean", "feat_std", "lambda", "epochs", "seed"} <= set(model)

    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(1)
    frame = rng.integers(0, 256, (128, 256, 3)).astype(np.uint8)
    frame[32:96, 64:128] = car_patch(rng).pixels
    from rovercv.raster import Raster

    save_pnm(frames / "000000.pnm", Raster(frame))
    cfg = tmp_path / "bands.json"
    cfg.write_text(json.dumps({"bands": [
        {"y_top": 32, "y_bottom": 96, "window_px": 64, "stride_px": 16}]}))
    det_dir = tmp_path / "detections"
    code = run(["--config", str(cfg), "detect", str(frames), str(model_path),
                "--min-score", "0.5", "--annotate", "--out-dir", str(det_dir)])
    assert code == 0
    record = json.loads((det_dir / "000000.json").read_text())
    assert record["frame"] == "000000"
    assert len(record["boxes"]) == 1
    assert (det_dir / "000000.pnm").exists()

def test_detect_frame_of_another_size_exits_one(tmp_path, capsys):
    patch_dir, labels = _write_patches(tmp_path)
    feats, model = tmp_path / "features.csv", tmp_path / "model.json"
    assert run(["extract", str(patch_dir), str(labels), "--out", str(feats)]) == 0
    assert run(["train", str(feats), "--out", str(model), "--epochs", "2"]) == 0
    frames = tmp_path / "frames"
    frames.mkdir()
    rng = np.random.default_rng(2)
    for i, h in enumerate((128, 128, 136, 128)):
        save_pnm(frames / f"{i:06d}.pnm", Raster(rng.integers(0, 256, (h, 256, 3)).astype(np.uint8)))
    cfg = tmp_path / "bands.json"
    cfg.write_text(json.dumps({"bands": [
        {"y_top": 32, "y_bottom": 96, "window_px": 64, "stride_px": 16}]}))
    before = sorted(tmp_path.rglob("*"))
    # two frames' outputs are written before the third fails; the run removes
    # them and both directories it made
    out_dir = tmp_path / "out" / "detections"
    assert run(["--config", str(cfg), "detect", str(frames), str(model), "--annotate",
                "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == (f"error: frame {frames / '000002.pnm'} is 256x136, "
                                       f"but 000000.pnm is 256x128\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_train_single_class_exits_one(tmp_path, capsys):
    feats = tmp_path / "feats.csv"
    rows = ["1," + ",".join(str(v) for v in np.arange(4) + i) for i in range(6)]
    feats.write_text("\n".join(rows) + "\n")
    out = tmp_path / "model.json"
    code = run(["train", str(feats), "--out", str(out)])
    assert code == 1
    assert "single-class" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_non_finite_features_exit_one(tmp_path, capsys, value):
    feats = tmp_path / "feats.csv"
    rows = [f"{i % 2}," + ",".join(str(v) for v in np.arange(4) + i) for i in range(6)]
    rows[3] = rows[3].replace(",5", f",{value}")
    feats.write_text("\n".join(rows) + "\n")
    out = tmp_path / "model.json"
    assert run(["train", str(feats), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {feats}: line 4: non-finite value at column 4\n"
    assert not out.exists()


def test_json_outputs_refuse_non_finite_numbers():
    # NaN and Infinity are not JSON; a command must fail instead of writing them
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_bytes({"bias": value})


@pytest.mark.parametrize("text, what, n", [
    ("1,2,3\n0,4\n", "the number of columns changed from 3 to 2", 2),
    ("1,2,3\n0,4,x\n", "could not convert string 'x' to float64 at column 3", 2),
    # '#' starts no comment
    ("1,2,3\n#0,4,5\n", "could not convert string '#0' to float64 at column 1", 2),
    # both kinds of error name the line the same way: from 1, blank lines counted
    ("1,2,3\n0,x,4\n", "could not convert string 'x' to float64 at column 2", 2),
    ("1,2,3\n\n0,4\n", "the number of columns changed from 3 to 2", 3),
    ("\n1,2,3\r\n\r\n0,x,4\r\n", "could not convert string 'x' to float64 at column 2", 4),
    ("x,2,3\n0,4\n", "could not convert string 'x' to float64 at column 1", 1),
    ("1,2,3\n0,,5\n", "could not convert string '' to float64 at column 2", 2),
    # a value too large for float64 parses as inf; its line is named, blank lines counted
    ("1,2,3\n\n0,4,1e999\n1,2,2\n", "non-finite value at column 3", 3),
])
def test_train_unreadable_features_name_the_file(tmp_path, capfd, text, what, n):
    feats, out = tmp_path / "feats.csv", tmp_path / "model.json"
    feats.write_text(text)
    assert run(["train", str(feats), "--out", str(out)]) == 1
    assert capfd.readouterr().err == f"error: {feats}: line {n}: {what}\n"  # and no numpy warning
    assert not out.exists()


@pytest.mark.parametrize("text", ["", " \n\t\n"])
def test_train_empty_features_exit_one(tmp_path, capfd, text):
    feats, out = tmp_path / "feats.csv", tmp_path / "model.json"
    feats.write_text(text)
    assert run(["train", str(feats), "--out", str(out)]) == 1
    assert capfd.readouterr().err == f"error: {feats}: features CSV is empty\n"  # no numpy warning
    assert not out.exists()


def test_train_skips_blank_lines(tmp_path):
    feats = tmp_path / "feats.csv"
    feats.write_text("1,2,3\n\n0,4,5\n\n")
    X, y = _read_features_csv(feats)
    assert X.tolist() == [[2.0, 3.0], [4.0, 5.0]] and y.tolist() == [1.0, 0.0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
                min_size=1, max_size=6),
       st.lists(st.sampled_from([0.0, 1.0]), min_size=6, max_size=6))
@example([[-0.0, 5e-324, 1e-05], [1e+16, 2.0, -7.0], [2.2250738585072014e-308, 0.1, 1e22]],
         [1.0] * 6)
def test_features_csv_parses_bit_identical_to_float(tmp_path_factory, rows, labels):
    feats = tmp_path_factory.mktemp("csv") / "feats.csv"
    feats.write_text("".join(f"{label!r}," + ",".join(map(repr, row)) + "\n"
                             for label, row in zip(labels, rows)))
    X, y = _read_features_csv(feats)
    want_X, want_y = per_field_features_csv(feats)
    assert X.shape == want_X.shape and X.tobytes() == want_X.tobytes()
    assert y.tobytes() == want_y.tobytes()


def test_features_csv_parsed_without_copies_of_its_text(tmp_path):
    # 120 rows of 4,932 repr-written features are 11 MB of text for a 4.7 MB array
    values = np.random.default_rng(5).standard_normal((120, 4932))
    feats = tmp_path / "feats.csv"
    feats.write_text("".join(f"{i % 2}," + ",".join(map(repr, row)) + "\n"
                             for i, row in enumerate(values.tolist())))
    tracemalloc.start()
    try:
        X, _ = _read_features_csv(feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(X, values)
    assert peak < 2 * values.nbytes


def test_extract_holds_its_output_once(tmp_path):
    patch_dir, labels = _write_patches(tmp_path, n_cars=24, n_noise=24)
    out = tmp_path / "features.csv"
    tracemalloc.start()
    try:
        assert run(["extract", str(patch_dir), str(labels), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.stat().st_size


@pytest.mark.parametrize("payload, what", [
    (None, "expected a 64x64 patch, got 32x32"),
    (b"P6\n64 64\n255\n" + bytes(100), "truncated payload"),
], ids=["32x32", "truncated"])
def test_extract_bad_patch_names_it(tmp_path, capsys, payload, what):
    patch_dir, labels = _write_patches(tmp_path, n_cars=1, n_noise=1)
    bad = patch_dir / "noise_0.pnm"
    if payload is None:
        save_pnm(bad, noise_patch(np.random.default_rng(3), size=32))
    else:
        bad.write_bytes(payload)
    out = tmp_path / "features.csv"
    assert run(["extract", str(patch_dir), str(labels), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: {what}")
    assert not out.exists()


def bend_maps(tmp_path):
    """An L-shaped corridor's map and a 40x40 cutout of it around the bend, as
    (map path, cutout path, map, cutout row, cutout column)."""
    # the bend breaks the translation symmetry a straight corridor would
    # have, so the cutout localizes uniquely
    frames = [corridor_frame() for _ in range(10)]
    motions = [(20.0, 0.0)] * 5 + [(20.0, 90.0)] + [(20.0, 0.0)] * 4
    script = write_replay(tmp_path, frames, motions)
    map_path = tmp_path / "map.rmap"
    assert run(["map-build", str(script), "--out", str(map_path)]) == 0

    from rovercv.mapping import map_from_bytes

    world = map_from_bytes(map_path.read_bytes())
    # cut a window around the bend (robot turned at world (100, 0))
    corner_c = int((100.0 - world.origin[0]) / world.cell_cm)
    corner_r = int((0.0 - world.origin[1]) / world.cell_cm)
    r0 = max(0, min(corner_r - 20, world.height - 40))
    c0 = max(0, min(corner_c - 20, world.width - 40))
    partial = OccupancyMap(cell_cm=world.cell_cm, origin=(0.0, 0.0),
                           grid=world.grid[r0:r0 + 40, c0:c0 + 40].copy())
    partial_path = tmp_path / "partial.rmap"
    partial_path.write_bytes(map_to_bytes(partial))
    return map_path, partial_path, world, r0, c0


def test_map_build_and_localize(tmp_path):
    map_path, partial_path, world, r0, c0 = bend_maps(tmp_path)
    pose_path = tmp_path / "pose.json"
    code = run(["localize", str(map_path), str(partial_path), "--min-known", "50",
                "--min-overlap-frac", "0.9", "--out", str(pose_path)])
    assert code == 0
    pose = json.loads(pose_path.read_text())
    assert pose["score"] == 1.0
    assert pose["theta"] == 0.0
    assert pose["x"] == pytest.approx(world.origin[0] + c0 * world.cell_cm, abs=world.cell_cm)
    assert pose["y"] == pytest.approx(world.origin[1] + r0 * world.cell_cm, abs=world.cell_cm)


def test_localize_min_known_zero_runs(tmp_path):
    # LocalizeConfig(min_known=0) is valid, so the CLI accepts it too
    map_path, partial_path, _, _, _ = bend_maps(tmp_path)
    pose_path = tmp_path / "pose.json"
    assert run(["localize", str(map_path), str(partial_path), "--min-known", "0",
                "--out", str(pose_path)]) == 0
    assert json.loads(pose_path.read_text())["score"] == 1.0

@pytest.mark.parametrize("value", ["inf", "nan"])
def test_map_build_non_finite_cell_size_exits_two(tmp_path, capsys, value):
    script = write_replay(tmp_path, [corridor_frame()] * 2, [(20.0, 0.0)] * 2)
    out = tmp_path / "map.rmap"
    assert run(["map-build", str(script), "--cell-cm", value, "--out", str(out)]) == 2
    assert "argument --cell-cm: " in capsys.readouterr().err
    assert not out.exists()

def test_smooth_nan_lambda_exits_two(tmp_path, capsys):
    src = tmp_path / "angles.csv"
    src.write_text("frame_id,angle_deg\nf0,3.0\nf1,5.0\n")
    out = tmp_path / "smoothed.csv"
    assert run(["smooth", str(src), "--lambda", "nan", "--out", str(out)]) == 2
    assert "argument --lambda: " in capsys.readouterr().err
    assert not out.exists()

def test_smooth_round_trip(tmp_path):
    src = tmp_path / "angles.csv"
    src.write_text("frame_id,angle_deg\n" +
                   "".join(f"f{i},{a}\n" for i, a in enumerate([0, 0, 20, 20, 20])))
    out = tmp_path / "smoothed.csv"
    assert run(["smooth", str(src), "--lambda", "2.0", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "frame_id,angle_deg"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 5
    assert values[0] > 0 and values[-1] < 20

def test_smooth_with_binning(tmp_path):
    src = tmp_path / "angles.csv"
    src.write_text("frame_id,angle_deg\nf0,3.1\nf1,-3.1\n")
    out = tmp_path / "smoothed.csv"
    assert run(["smooth", str(src), "--lambda", "0", "--bin-width", "2", "--out", str(out)]) == 0
    values = [float(line.split(",")[1]) for line in out.read_text().strip().splitlines()[1:]]
    assert values == [4.0, -4.0]

def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2

def test_missing_file_exits_one(tmp_path, capsys):
    code = run(["segment", str(tmp_path / "nope.pnm")])
    assert code == 1
    assert not (tmp_path / "mask.pnm").exists()

def test_bad_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"made_up_key": 1}))
    assert run(["--config", str(cfg), "smooth", "whatever.csv"]) == 2

def test_config_provides_defaults(tmp_path):
    img, _ = floor_box_scene()
    src = tmp_path / "scene.pnm"
    save_pnm(src, img)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "kmeans", "k": 2}))
    json_path = tmp_path / "mask.json"
    code = run(["--config", str(cfg), "segment", str(src),
                "--out-mask", str(tmp_path / "mask.pnm"), "--out-json", str(json_path)])
    assert code == 0
    assert json.loads(json_path.read_text())["method"] == "kmeans"

# every key the parser reads from --config, plus the detection bands
CONFIG_KEYS = {
    "seed": 7, "distance_cm": 70.0, "length_cm": 20.0, "edge_threshold": 60,
    "method": "otsu", "k": 2, "blur_passes": 1, "horizon_frac": 0.6, "top_width_frac": 0.2,
    "min_votes": 30, "hist_bins": 32, "spatial_px": 32, "hog_cell": 8, "hog_bins": 9,
    "hog_block_cells": 2, "hog_per_channel": False, "lam": 5.0, "epochs": 30,
    "min_score": 0.0, "frame_memory": 1, "cell_cm": 2.0, "patch_width_cm": 60.0,
    "patch_depth_cm": 40.0, "patch_offset_cm": 10.0, "min_known": 50,
    "localize_min_score": 0.6, "min_overlap_frac": 0.5, "bin_width": 0.0,
    "bands": [{"y_top": 0, "y_bottom": 64, "window_px": 64, "stride_px": 16}],
}


def test_every_parser_key_accepted_from_config(tmp_path):
    src = tmp_path / "angles.csv"
    src.write_text("frame_id,angle_deg\nf0,3.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG_KEYS))
    out = tmp_path / "smoothed.csv"
    assert run(["--config", str(cfg), "smooth", str(src), "--out", str(out)]) == 0
    assert out.read_text() == "frame_id,angle_deg\nf0,3.0\n"


# the subcommand and option dests that set each config field; a nested
# config is set through the options of its own fields
FIELD_OPTIONS = {
    LaneConfig: {"horizon_frac": ("lanes", "horizon_frac"),
                 "top_width_frac": ("lanes", "top_width_frac"),
                 "blur_passes": ("lanes", "blur_passes"),
                 "edge_threshold": ("lanes", "edge_threshold"),
                 "min_votes": ("lanes", "min_votes")},
    SegmentConfig: {"blur_passes": ("segment", "blur_passes"), "kmeans_k": ("segment", "k")},
    FeatureConfig: {"hog": ("extract", "hog_cell", "hog_block_cells", "hog_bins",
                            "hog_per_channel"),
                    "hist_bins": ("extract", "hist_bins"),
                    "spatial_px": ("extract", "spatial_px")},
    HogParams: {"cell_px": ("extract", "hog_cell"), "block_cells": ("extract", "hog_block_cells"),
                "bins": ("extract", "hog_bins"), "per_channel": ("extract", "hog_per_channel")},
    LocalizeConfig: {"min_known": ("localize", "min_known"),
                     "min_score": ("localize", "localize_min_score"),
                     "min_overlap_frac": ("localize", "min_overlap_frac")},
    DetectorConfig: {"min_score": ("detect", "min_score"),
                     "frame_memory": ("detect", "frame_memory")},
    ExploreConfig: {"method": ("map-build", "method"), "seg": ("map-build", "blur_passes"),
                    "patch_width_cm": ("map-build", "patch_width_cm"),
                    "patch_depth_cm": ("map-build", "patch_depth_cm"),
                    "patch_offset_cm": ("map-build", "patch_offset_cm")},
}


@pytest.mark.parametrize("config", list(FIELD_OPTIONS), ids=lambda c: c.__name__)
def test_every_config_field_set_by_an_option(config):
    # a field that no option sets is a setting nothing uses: it belongs in a
    # constant, not in the config
    options = FIELD_OPTIONS[config]
    assert [f.name for f in dataclasses.fields(config)] == list(options)
    parser = _build_parser({})
    commands = next(a for a in parser._actions if a.dest == "command").choices
    for name, (command, *dests) in options.items():
        have = {a.dest for a in commands[command]._actions}
        assert set(dests) <= have, (name, command, dests)


@pytest.mark.parametrize("key", ["out", "annotate", "markers"])
def test_parser_dest_not_read_from_config_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, key: "x"}))
    assert run(["--config", str(cfg), "smooth", "whatever.csv"]) == 2
    assert f"config error: unknown keys ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key", [
    (["localize", "g.rmap", "p.rmap"], {"min_known": -3}, "min_known"),
    (["localize", "g.rmap", "p.rmap"], {"localize_min_score": -1}, "localize_min_score"),
    (["localize", "g.rmap", "p.rmap"], {"min_overlap_frac": 2}, "min_overlap_frac"),
    (["train", "features.csv"], {"epochs": 0}, "epochs"),
    (["train", "features.csv"], {"epochs": 2.5}, "epochs"),
    (["segment", "scene.pnm"], {"method": "sobel"}, "method"),
    (["smooth", "angles.csv"], {"lam": float("nan")}, "lam"),
    (["map-build", "replay.jsonl"], {"cell_cm": float("inf")}, "cell_cm"),
    (["detect", "frames", "model.json"], {"min_score": float("nan")}, "min_score"),
    (["lanes", "road.pnm"], {"horizon_frac": 5}, "horizon_frac"),
    (["lanes", "road.pnm"], {"edge_threshold": 300}, "edge_threshold"),
    (["calibrate", "book.pnm", "--distance-cm", "70", "--length-cm", "20"],
     {"edge_threshold": 256}, "edge_threshold"),
    (["extract", "patches", "labels.csv"], {"hog_cell": 1}, "hog_cell"),
    (["extract", "patches", "labels.csv"], {"hog_bins": 1}, "hog_bins"),
    (["extract", "patches", "labels.csv"], {"hog_per_channel": "no"}, "hog_per_channel"),
    (["extract", "patches", "labels.csv"], {"hog_per_channel": "false"}, "hog_per_channel"),
    (["extract", "patches", "labels.csv"], {"hog_per_channel": 0}, "hog_per_channel"),
])
def test_bad_config_value_exits_two(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["--config", str(cfg)] + command) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


def test_config_value_overridden_on_command_line_not_checked(tmp_path, capsys):
    src = tmp_path / "angles.csv"
    src.write_text("frame_id,angle_deg\nf0,3.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": -1}))
    out = tmp_path / "smoothed.csv"
    assert run(["--config", str(cfg), "smooth", str(src), "--lambda", "1",
                "--out", str(out)]) == 0


@pytest.mark.parametrize("flag", ["--min-score", "--min-overlap-frac"])
@pytest.mark.parametrize("value", ["1.5", "-0.1"])
def test_localize_fractions_outside_unit_interval_exit_two(tmp_path, capsys, flag, value):
    # rejected by the parser, before either map file is read
    assert run(["localize", str(tmp_path / "g.rmap"), str(tmp_path / "p.rmap"),
                flag, value]) == 2
    assert "is not in [0, 1]" in capsys.readouterr().err


def test_detect_min_score_may_exceed_one(tmp_path, capsys):
    # an SVM margin, not a fraction: the parser accepts it and the missing
    # frame directory is what fails
    assert run(["detect", str(tmp_path / "frames"), str(tmp_path / "m.json"),
                "--min-score", "1.5"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_detect_non_finite_min_score_exits_two(tmp_path, capsys, value):
    # nan would drop every window (score > nan is false) and exit 0; the
    # parser rejects it before any file is read
    out_dir = tmp_path / "detections"
    assert run(["detect", str(tmp_path / "frames"), str(tmp_path / "m.json"),
                f"--min-score={value}", "--out-dir", str(out_dir)]) == 2
    assert "argument --min-score: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("header, message", [
    ([1, 2], "expected a JSON object"),
    ({"cell_cm": 2.0, "origin": 5, "width": 4, "height": 4},
     "'origin' must be a pair of numbers"),
    ({"cell_cm": 2.0, "origin": [0.0, 0.0], "height": 4}, "missing 'width'"),
])
def test_localize_malformed_map_header_exits_one(tmp_path, capsys, header, message):
    grid = np.full((4, 4), 1, dtype=np.uint8)
    good = tmp_path / "good.rmap"
    good.write_bytes(map_to_bytes(OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0), grid=grid)))
    data = good.read_bytes()
    bad = tmp_path / "bad.rmap"
    bad.write_bytes(json.dumps(header).encode("ascii") + data[data.index(b"\n"):])
    out = tmp_path / "pose.json"
    assert run(["localize", str(good), str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: malformed map header: {message}\n"
    assert not out.exists()


def test_localize_insufficient_content_names_the_partial_map(tmp_path, capsys):
    grid = np.full((4, 4), 1, dtype=np.uint8)
    world, part = tmp_path / "world.rmap", tmp_path / "part.rmap"
    for path in (world, part):
        path.write_bytes(map_to_bytes(OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0), grid=grid)))
    out = tmp_path / "pose.json"
    assert run(["localize", str(world), str(part), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {part}: insufficient map content: "
                                       "16 known cells, need 50\n")
    assert not out.exists()


_FRAME = write_pnm(Raster(np.zeros((128, 256, 3), dtype=np.uint8)))
_MODEL = json.dumps({"weights": [0.0], "bias": 0.0, "feat_mean": [0.0], "feat_std": [1.0],
                     "lambda": 1e-4, "epochs": 1, "seed": 0})
_DETECT = ["--config", "{d}/cfg.json", "detect", "{d}/frames", "{d}/model.json",
           "--out-dir", "{o}/detections"]
_MAP_BUILD = ["map-build", "{d}/replay.jsonl", "--out", "{o}/map.rmap"]
_SEGMENT = ["segment", "{d}/scene.pnm", "--method", "watershed", "--markers", "{d}/seeds.pnm",
            "--out-mask", "{o}/mask.pnm", "--out-json", "{o}/mask.json"]
_SMOOTH = ["smooth", "{d}/angles.csv", "--out", "{o}/smoothed.csv"]
_EXTRACT = ["extract", "{d}", "{d}/labels.csv", "--out", "{o}/f.csv"]
_TRAIN = ["train", "{d}/features.csv", "--out", "{o}/model.json"]
_STEP = '{"frame": "f.pnm", "forward_cm": 20, "rotate_deg": 0}'
_LOCALIZE = ["localize", "{d}/g.rmap", "{d}/p.rmap", "--min-score", "0",
             "--out", "{o}/pose.json"]
# an all-UNKNOWN 20x20 world, and a 10x12 partial with 19 FREE cells
_NO_OVERLAP = {
    "g.rmap": map_to_bytes(OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0),
                                        grid=np.zeros((20, 20), dtype=np.uint8))),
    "p.rmap": map_to_bytes(OccupancyMap(
        cell_cm=2.0, origin=(0.0, 0.0),
        grid=(np.arange(120) < 19).reshape(10, 12).astype(np.uint8)))}
_MARKER_ERROR = ("error: {d}/seeds.pnm: marker image must be P5 with the same dimensions "
                 "as the input")


def _bands(*bands):
    return {"cfg.json": json.dumps({"bands": list(bands)}), "frames/000000.pnm": _FRAME,
            "model.json": _MODEL}


@pytest.mark.parametrize("files, argv, code, first_line", [
    ({"labels.csv": ""}, _EXTRACT, 1, "error: {d}/labels.csv: labels CSV is empty"),
    ({"labels.csv": "a.pnm,2\n"}, _EXTRACT,
     1, "error: {d}/labels.csv: line 1: label for 'a.pnm' must be 0 or 1, got '2'"),
    ({"replay.jsonl": "\n"}, _MAP_BUILD, 1, "error: {d}/replay.jsonl: replay script is empty"),
    # the line keeps its trailing space, so the value is missing at column 11
    ({"f.pnm": write_pnm(corridor_frame()), "replay.jsonl": _STEP + '\n{"frame": \n'},
     _MAP_BUILD, 1, "error: {d}/replay.jsonl: line 2: Expecting value at column 11"),
    ({"replay.jsonl": '{"forward_cm": 20, "rotate_deg": 0}\n'},
     _MAP_BUILD, 1, "error: {d}/replay.jsonl: line 1: missing 'frame'"),
    ({"replay.jsonl": '{"frame": "f.pnm", "forward_cm": "far", "rotate_deg": 0}\n'},
     _MAP_BUILD, 1, "error: {d}/replay.jsonl: line 1: could not convert string to float: 'far'"),
    ({"replay.jsonl": "[1, 2]\n"}, _MAP_BUILD,
     1, "error: {d}/replay.jsonl: line 1: list indices must be integers or slices, not str"),
    # a non-finite motion is named on its own line, the last one too
    ({"f.pnm": write_pnm(corridor_frame()),
      "replay.jsonl": '{"frame": "f.pnm", "forward_cm": Infinity, "rotate_deg": 0}\n' + _STEP},
     _MAP_BUILD, 1, "error: {d}/replay.jsonl: line 1: forward_cm must be finite, got inf"),
    ({"f.pnm": write_pnm(corridor_frame()),
      "replay.jsonl": _STEP + '\n{"frame": "f.pnm", "forward_cm": 20, "rotate_deg": NaN}\n'},
     _MAP_BUILD, 1, "error: {d}/replay.jsonl: line 2: rotate_deg must be finite, got nan"),
    # a motion that would grow the map past 1 << 26 cells is named on the line
    # whose step stitches there; 1e300 used to end in a TypeError from np.pad
    ({"f.pnm": write_pnm(corridor_frame()),
      "replay.jsonl": '{"frame": "f.pnm", "forward_cm": 1e300, "rotate_deg": 0}\n' + _STEP},
     _MAP_BUILD, 1, "error: {d}/replay.jsonl: line 2: map would grow to 31 x 5e+299 cells, "
                    "above the limit of 67108864"),
    ({"f.pnm": write_pnm(corridor_frame()),
      "replay.jsonl": '{"frame": "f.pnm", "forward_cm": 4e7, "rotate_deg": 0}\n' + _STEP},
     _MAP_BUILD, 1, "error: {d}/replay.jsonl: line 2: map would grow to 31 x 2e+07 cells, "
                    "above the limit of 67108864"),
    ({**_NO_OVERLAP, "p.rmap": map_to_bytes(OccupancyMap(
        cell_cm=3.0, origin=(0.0, 0.0), grid=np.ones((10, 10), dtype=np.uint8)))},
     _LOCALIZE, 1, "error: {d}/p.rmap: maps must share one cell size: the partial map's is "
                   "3.0 cm, the global map's 2.0 cm"),
    ({"blank.pnm": write_pnm(Raster(np.zeros((72, 128), dtype=np.uint8)))},
     ["calibrate", "{d}/blank.pnm", "--distance-cm", "70", "--length-cm", "20",
      "--out", "{o}/camera.json"],
     1, "error: {d}/blank.pnm: no rectangle found"),
    # with no floor from --min-known or --min-overlap-frac, a placement still
    # needs one known cell to overlap, and the world has none
    (_NO_OVERLAP, [*_LOCALIZE, "--min-known", "0", "--min-overlap-frac", "0"],
     1, "error: ambiguous localization: no placement overlaps 1 known cells"),
    (_NO_OVERLAP, [*_LOCALIZE, "--min-known", "5"],
     1, "error: ambiguous localization: no placement overlaps 10 known cells"),
    ({"angles.csv": "f0,3.0\n"}, _SMOOTH,
     1, "error: {d}/angles.csv: angles CSV must start with header 'frame_id,angle_deg'"),
    ({"angles.csv": "frame_id,angle_deg\nf0,3\n\nf1,95\n"}, _SMOOTH,
     1, "error: {d}/angles.csv: line 4: angle 95 outside [-90.0, 90.0]"),
    ({"angles.csv": "frame_id,angle_deg\n"}, _SMOOTH,
     1, "error: {d}/angles.csv: angles CSV has no rows after its header"),
    ({}, ["--config", "{d}/none.json", *_SMOOTH],
     2, "config error: [Errno 2] No such file or directory: '{d}/none.json'"),
    ({"cfg.json": "{"}, ["--config", "{d}/cfg.json", *_SMOOTH],
     2, "config error: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"),
    ({"cfg.json": "[1]"}, ["--config", "{d}/cfg.json", *_SMOOTH],
     2, "config error: expected a JSON object"),
    (_bands({"y_top": 32}), _DETECT, 2, "config error: bad bands configuration: 'y_bottom'"),
    ({**_bands(), "cfg.json": '{"bands": 5}'}, _DETECT,
     2, "config error: bad bands configuration: 'int' object is not iterable"),
    (_bands({"y_top": 32, "y_bottom": 300, "window_px": 64, "stride_px": 16}), _DETECT,
     2, "config error: band BandConfig(y_top=32, y_bottom=300, window_px=64, stride_px=16) "
        "lies outside the 256x128 frame"),
    ({"scene.pnm": write_pnm(corridor_frame()), "seeds.pnm": write_pnm(corridor_frame(w=48))},
     _SEGMENT, 1, _MARKER_ERROR),
    ({"scene.pnm": write_pnm(corridor_frame()),
      "seeds.pnm": write_pnm(Raster(np.zeros((48, 64, 3), dtype=np.uint8)))},
     _SEGMENT, 1, _MARKER_ERROR),
    # seeds are for watershed alone; another method would ignore them
    ({"scene.pnm": write_pnm(corridor_frame()), "seeds.pnm": write_pnm(corridor_frame())},
     [a.replace("watershed", "otsu") for a in _SEGMENT],
     2, "config error: --markers needs --method watershed"),
    ({**_bands(), "model.json": json.dumps({"bias": 0.0})}, _DETECT,
     1, "error: {d}/model.json: missing 'weights'"),
    ({**_bands(), "model.json": "weights"}, _DETECT,
     1, "error: {d}/model.json: Expecting value: line 1 column 1 (char 0)"),
    ({**_bands(), "model.json": "[1]"}, _DETECT,
     1, "error: {d}/model.json: list indices must be integers or slices, not str"),
    # one row per line-based format: a blank line, a good line, a blank line,
    # then the bad line 4, all with CRLF ends; the good line is read, so the
    # blank lines are skipped and still counted
    ({"a.pnm": write_pnm(car_patch(np.random.default_rng(0))),
      "labels.csv": "\r\na.pnm,1\r\n\r\na.pnm,yes\r\n"},
     _EXTRACT, 1, "error: {d}/labels.csv: line 4: label for 'a.pnm' must be 0 or 1, got 'yes'"),
    ({"features.csv": "\r\n1,2,3\r\n\r\n0,4\r\n"},
     _TRAIN, 1, "error: {d}/features.csv: line 4: the number of columns changed from 3 to 2"),
    ({"angles.csv": "\r\nframe_id,angle_deg\r\n\r\nf0,x\r\n"},
     _SMOOTH, 1, "error: {d}/angles.csv: line 4: could not convert string to float: 'x'"),
    ({"f.pnm": write_pnm(corridor_frame()),
      "replay.jsonl": f'\r\n{_STEP}\r\n\r\n{{"frame"}}\r\n'},
     _MAP_BUILD, 1, "error: {d}/replay.jsonl: line 4: Expecting ':' delimiter at column 9"),
], ids=["empty-labels", "label-2", "empty-replay", "replay-json", "replay-no-frame",
        "replay-motion", "replay-list", "replay-inf", "replay-nan-last",
        "replay-huge", "replay-far", "localize-cell-size", "calibrate-blank",
        "localize-no-floor", "localize-no-overlap", "angles-header", "angles-range",
        "angles-no-rows",
        "config-missing", "config-json", "config-list",
        "bands-key", "bands-int", "bands-outside", "markers-size", "markers-p6",
        "markers-otsu", "model-no-weights", "model-not-json", "model-list",
        "lines-labels", "lines-features", "lines-angles", "lines-replay"])
def test_bad_input_exits_without_output(tmp_path, capsys, files, argv, code, first_line):
    d, o = tmp_path / "in", tmp_path / "out"
    for name, data in files.items():
        (d / name).parent.mkdir(parents=True, exist_ok=True)
        (d / name).write_bytes(data.encode() if isinstance(data, str) else data)
    assert run([a.format(d=d, o=o) for a in argv]) == code
    assert capsys.readouterr().err.splitlines()[0] == first_line.format(d=d)
    assert not o.exists()


def test_lines_counts_every_line_and_yields_those_with_text(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\n a,1\r\n\r\n \t\n\xffb\rc")
    # a lone CR ends a line too, and a byte that is not UTF-8 passes through
    assert list(_lines(path)) == [(2, " a,1"), (5, "\udcffb"), (6, "c")]


@pytest.mark.parametrize("argv", [
    ["calibrate", "{bad}", "--distance-cm", "70", "--length-cm", "20", "--out", "{o}/cam.json"],
    ["segment", "{bad}", "--out-mask", "{o}/mask.pnm", "--out-json", "{o}/mask.json"],
    ["segment", "{d}/good.pnm", "--method", "watershed", "--markers", "{bad}",
     "--out-mask", "{o}/mask.pnm", "--out-json", "{o}/mask.json"],
    ["lanes", "{bad}", "--out", "{o}/lane.json"],
    ["extract", "{d}/frames", "{d}/labels.csv", "--out", "{o}/features.csv"],
    ["detect", "{d}/frames", "{d}/model.json", "--out-dir", "{o}/detections"],
    ["map-build", "{d}/frames/replay.jsonl", "--out", "{o}/map.rmap"],
], ids=["calibrate", "segment", "segment-markers", "lanes", "extract", "detect", "map-build"])
def test_truncated_pnm_named_by_every_command(tmp_path, capsys, argv):
    d, o = tmp_path / "in", tmp_path / "out"
    (d / "frames").mkdir(parents=True)
    bad = d / "frames" / "000000.pnm"
    bad.write_bytes(b"P6\n64 64\n255\n" + bytes(100))
    save_pnm(d / "good.pnm", Raster(np.zeros((64, 64), dtype=np.uint8)))
    (d / "labels.csv").write_text("000000.pnm,1\n")
    (d / "model.json").write_text(_MODEL)
    (d / "frames" / "replay.jsonl").write_text(
        '{"frame": "000000.pnm", "forward_cm": 20, "rotate_deg": 0}\n')
    assert run([a.format(d=d, o=o, bad=bad) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: truncated payload: expected "
                                              "12288 bytes, got 100\n")
    assert not o.exists()


def test_segment_markers_give_the_library_mask(tmp_path):
    scene, _ = floor_box_scene()
    seeds = np.zeros(scene.pixels.shape[:2], dtype=np.uint8)
    seeds[-3:, :] = 1
    seeds[:3, :] = 2
    save_pnm(tmp_path / "scene.pnm", scene)
    save_pnm(tmp_path / "seeds.pnm", Raster(seeds))
    mask_path = tmp_path / "mask.pnm"
    assert run(["segment", str(tmp_path / "scene.pnm"), "--method", "watershed",
                "--markers", str(tmp_path / "seeds.pnm"), "--out-mask", str(mask_path),
                "--out-json", str(tmp_path / "mask.json")]) == 0
    want = segment_floor(scene, "watershed", SegmentConfig(),
                         markers=LabelMask(seeds.astype(np.int32), num_labels=3))
    assert np.array_equal(load_pnm(mask_path).pixels, want.labels * 255)


def test_record_formats_are_pinned(tmp_path, calib_image):
    """The key sets of the JSON records, which follow their dataclasses."""
    side = {"x0", "y0", "x1", "y1", "valid"}
    road, _ = road_frame()
    save_pnm(tmp_path / "road.pnm", road)
    assert run(["lanes", str(tmp_path / "road.pnm"), "--out", str(tmp_path / "lane.json")]) == 0
    lane = json.loads((tmp_path / "lane.json").read_text())
    assert set(lane) == {"left", "right"} and set(lane["left"]) == set(lane["right"]) == side

    assert run(["calibrate", str(calib_image), "--distance-cm", "70", "--length-cm", "20",
                "--out", str(tmp_path / "camera.json")]) == 0
    camera = json.loads((tmp_path / "camera.json").read_text())
    assert set(camera) == {"focal_px", "ref_length_cm", "ref_distance_cm", "ref_pixels"}

    # a model that scores every window 1.0, so the frame has boxes
    dim = extract_features(car_patch(np.random.default_rng(0)), FeatureConfig()).values.size
    model = {"weights": [0.0] * dim, "bias": 1.0, "feat_mean": [0.0] * dim,
             "feat_std": [1.0] * dim, "lambda": 1e-4, "epochs": 1, "seed": 0}
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "frames").mkdir()
    (tmp_path / "frames" / "000000.pnm").write_bytes(_FRAME)
    (tmp_path / "cfg.json").write_text(json.dumps({"bands": [
        {"y_top": 32, "y_bottom": 96, "window_px": 64, "stride_px": 16}]}))
    assert run(["--config", str(tmp_path / "cfg.json"), "detect", str(tmp_path / "frames"),
                str(tmp_path / "model.json"), "--out-dir", str(tmp_path / "detections")]) == 0
    record = json.loads((tmp_path / "detections" / "000000.json").read_text())
    assert set(record) == {"frame", "boxes"} and record["boxes"]
    assert all(set(box) == {"x", "y", "w", "h", "score"} for box in record["boxes"])

    rng = np.random.default_rng(5)
    world = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0),
                         grid=rng.integers(1, 3, (30, 30)).astype(np.uint8))
    part = OccupancyMap(cell_cm=2.0, origin=(0.0, 0.0), grid=world.grid[5:25, 8:28].copy())
    (tmp_path / "world.rmap").write_bytes(map_to_bytes(world))
    (tmp_path / "part.rmap").write_bytes(map_to_bytes(part))
    assert run(["localize", str(tmp_path / "world.rmap"), str(tmp_path / "part.rmap"),
                "--out", str(tmp_path / "pose.json")]) == 0
    assert set(json.loads((tmp_path / "pose.json").read_text())) == {"x", "y", "theta", "score"}
