"""Tests of the benchmark's own code: each checker accepts the truth and rejects a
perturbed output, the generators are deterministic, and the tracing arithmetic
holds. Run from the repository root with ``python -m pytest benchmarks``.
"""

import io
import json
import sys
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from rovercv import cli  # noqa: E402


def _call(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.run(argv)
    return run.Call(list(argv), code, err.getvalue().strip(), 0.0)


def _lane_record(truth, shift=0.0):
    side = lambda top, bottom: {"x0": top + shift, "y0": truth.horizon_y,
                                "x1": bottom, "y1": truth.bottom_y, "valid": True}
    return {"left": side(*truth.left), "right": side(*truth.right)}


def test_lane_checker_rejects_shifted_lane():
    _, truth = W.road_frame(np.random.default_rng(0))
    assert W.check_lane(_lane_record(truth), truth) is None
    assert W.check_lane(_lane_record(truth, shift=2.9), truth) is None
    assert "off by more than" in W.check_lane(_lane_record(truth, shift=4.0), truth)
    missing = _lane_record(truth)
    missing["right"]["valid"] = False
    assert "not found" in W.check_lane(missing, truth)
    with pytest.raises(W.MalformedOutput):
        W.check_lane({"left": {}}, truth)


def test_detection_checker_rejects_dropped_box():
    cars = [(96, 392, 96, 96), (640, 384, 128, 128)]
    boxes = [{"x": x, "y": y, "w": w, "h": h, "score": 1.0} for x, y, w, h in cars]
    assert W.check_detections({"boxes": boxes}, cars) is None
    assert "not covered" in W.check_detections({"boxes": boxes[:1]}, cars)
    shifted = [dict(boxes[0], x=96 + 48), boxes[1]]  # IoU 1/3
    assert "not covered" in W.check_detections({"boxes": shifted}, cars)
    with pytest.raises(W.MalformedOutput):
        W.check_detections({"boxes": [{"x": 1}]}, cars)


def test_pose_checker_rejects_pose_one_cell_off():
    truth = (40.0, 60.0, 90.0)
    pose = {"x": 40.0, "y": 60.0, "theta": 90.0, "score": 1.0}
    assert W.check_pose(pose, truth) is None
    assert W.check_pose(dict(pose, x=40.0 + W.CELL_CM), truth) is not None
    assert W.check_pose(dict(pose, y=60.0 - W.CELL_CM), truth) is not None
    assert W.check_pose(dict(pose, theta=91.5), truth) is not None
    assert W.check_pose(dict(pose, theta=89.2), truth) is None
    assert W.check_pose(dict(pose, theta=359.5), (40.0, 60.0, 0.0)) is None
    with pytest.raises(W.MalformedOutput):
        W.check_pose({"x": 1.0}, truth)


def test_training_checker_rejects_dropped_row_wrong_histogram_and_flipped_model(tmp_path):
    wl = W.TrainDetector()
    wl.sets, wl.patches_per_class, wl.heldout_per_class = 1, 12, 12
    inputs = wl.generate(np.random.default_rng(4), tmp_path)
    wl.prepare(inputs, _call)
    result = wl.operation(inputs, 0, _call)
    assert result.ok, result.message
    patches, out = inputs["sets"][0]
    rows = W.read_features(out / "features.csv")
    layout = json.loads((out / "features.layout.json").read_text())
    model = json.loads((out / "model.json").read_text())
    heldout = inputs["heldout_rows"]
    assert W.check_training(rows, layout, model, patches, heldout) is None
    assert "rows for" in W.check_training(rows[1:], layout, model, patches, heldout)
    recolored = rows.copy()
    recolored[3, 1 + layout["color_hist"][0]] += 1.0
    assert "histograms differ" in W.check_training(recolored, layout, model, patches, heldout)
    flipped = dict(model, weights=[-v for v in model["weights"]], bias=-model["bias"])
    assert "held-out accuracy" in W.check_training(rows, layout, flipped, patches, heldout)
    with pytest.raises(W.MalformedOutput):
        W.check_training(rows, layout, {"weights": []}, patches, heldout)


def test_pnm_size_rejects_truncated_payload():
    data = b"P6\n4 2\n255\n" + bytes(range(10, 34))
    assert W.pnm_size(data) == (4, 2, 3)
    assert W.pnm_size(b"P5\n2 1\n255\n\n ") == (2, 1, 1)  # payload bytes may be whitespace
    with pytest.raises(W.MalformedOutput):
        W.pnm_size(data[:-1])


def test_lanes_operation_accepts_program_output_and_rejects_shifted_copy(tmp_path):
    wl = W.LanesTextured()
    wl.frames = 1
    inputs = wl.generate(np.random.default_rng(3), tmp_path)
    result = wl.operation(inputs, 0, _call)
    assert result.ok, result.message
    path, truth, _, _ = inputs["items"][0]
    record = json.loads((inputs["out"] / "lane.json").read_text())
    record["left"]["x1"] += 4.0
    assert W.check_lane(record, truth) is not None


def test_indoor_operation_accepts_a_quarter_turn_episode(tmp_path):
    wl = W.IndoorMap()
    wl.rooms, wl.episodes = 1, 1  # episode 0 starts on a quarter turn
    inputs = wl.generate(np.random.default_rng(5), tmp_path)
    result = wl.operation(inputs, 0, _call)
    assert result.ok, result.message
    ep, _, truth = inputs["episodes"][0]
    pose = json.loads((ep / "pose.json").read_text())
    assert W.check_pose(dict(pose, x=pose["x"] + W.CELL_CM), truth) is not None


def test_failed_call_records_exit_code_and_first_stderr_line(tmp_path):
    calls, failing = W._run_calls(_call, [["lanes", str(tmp_path / "missing.pnm")]])
    result = W._finish(calls, failing, check=None)
    assert not result.ok and not result.malformed
    assert (result.stage, result.code) == ("lanes", 1)
    assert result.message.startswith("error:")


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    wl = type(W.WORKLOADS[name])()
    for attr, small in (("frames", 2), ("rooms", 2), ("episodes", 2), ("clips", 1),
                        ("patches_per_class", 4), ("sets", 1), ("heldout_per_class", 4)):
        if hasattr(wl, attr):
            setattr(wl, attr, small)
    digests = []
    for rep in ("a", "b"):
        (tmp_path / rep).mkdir()
        wl.generate(np.random.default_rng(7), tmp_path / rep)
        digests.append(sorted((p.relative_to(tmp_path / rep).as_posix(), p.read_bytes())
                              for p in (tmp_path / rep).rglob("*") if p.is_file()))
    assert digests[0] == digests[1]


def test_tail_needs_ten_samples_beyond():
    samples = list(range(1, 41))
    assert run.tail(samples) == (30, 75.0)
    assert run.tail(samples[:39]) == (20, 50.0)
    assert run.tail(samples[:5]) == (5, 100.0)
    assert run.tail([]) == (None, None)


def test_operation_count_is_whole_blocks_and_does_not_depend_on_timing():
    indoor = W.WORKLOADS["indoor_map"]
    assert run.operation_count(indoor, 30) == 84
    assert run.operation_count(indoor, 0.01) == indoor.block
    assert run.operation_count(W.WORKLOADS["lanes_textured"], 30) == 58


def test_throughput_is_success_share_times_median_window_rate():
    results = [W.OpResult(0.5, ok=i % 4 != 3) for i in range(16)]
    marks = [0.5 * i for i in range(17)]
    marks[9:] = [m + 5.0 for m in marks[9:]]  # one window stalls for five seconds
    value, windows = run.throughput(results, marks)
    assert windows == run.THROUGHPUT_WINDOWS
    assert value == pytest.approx(0.75 * 2.0)


def test_self_time_subtracts_direct_children():
    rec = spans.Recorder()
    rec.spans = [spans.Span("cli.run", 0.0, -1, 0, end=0.010),
                 spans.Span("geometry.hough_lines", 0.001, 0, 0, end=0.007,
                            counters={"edge_px": 50, "lines": 2}),
                 spans.Span("raster.convolve3", 0.002, 1, 0, end=0.003)]
    incl, self_ms = spans._durations(rec.spans)
    assert self_ms == pytest.approx([4.0, 5.0, 1.0])
    m = spans.layer_metrics(rec.spans, [0], [])
    assert m["cli.self_ms"]["value"] == pytest.approx(4.0)
    assert m["geometry.hough_ms"]["value"] == pytest.approx(6.0)
    assert m["geometry.hough_edge_px"]["value"] == 50
    assert m["raster.kernel_ms"]["value"] == pytest.approx(1.0)


def test_dump_writes_every_span_field(tmp_path):
    recorded = [spans.Span("cli.run", 1.0, -1, 3, end=2.0),
                spans.Span("raster.load_pnm", 1.2, 0, 3, end=1.5, counters={"bytes": 12})]
    written = json.loads(spans.dump(recorded, tmp_path / "spans.json").read_text())
    assert written[1] == {"name": "raster.load_pnm", "start": 1.2, "end": 1.5, "parent": 0,
                          "op": 3, "raised": False, "counters": {"bytes": 12}}


def test_install_wraps_boundaries_and_restores_them():
    from rovercv import geometry, mapping, segmentation

    before = (cli.detect_lane, geometry.hough_lines, mapping.segment_floor)
    names = {name for _, _, name in spans.boundary_sites()}
    with spans.install(spans.Recorder()):
        assert cli.detect_lane is not before[0]
        assert geometry.hough_lines is not before[1]
        assert mapping.segment_floor is not before[2]
    assert (cli.detect_lane, geometry.hough_lines, mapping.segment_floor) == before
    assert {"geometry.detect_lane", "segmentation.segment_floor", "features.hog_block_grid",
            "classifier.svm_score_many", "raster.load_pnm"} <= names
    assert not any(n.startswith(("calibration.", "steering.")) for n in names)
    assert segmentation.watershed_segment.__module__ == "rovercv.segmentation"
