"""Span recording at rovercv's module boundaries, for the traced benchmark run only.

``install`` replaces, for the duration of a ``with`` block, every public
function one traced module imported from another with a wrapper that records a
span named ``<callee layer>.<function>``. It also wraps two source-module
attributes read by function-local imports (``segmentation._derive_markers`` and
``mapping._wall_angles``) and four stage functions that a layer calls on itself,
so that the named per-layer metrics have a span to come from. Spans stay in
memory during the run; afterwards the per-layer metrics are computed from them
and ``dump`` writes them out as JSON, so the metrics can be re-derived.
"""

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

# calibration and steering are not traced: both cost milliseconds and no
# optimisation targets them
LAYERS = ("raster", "features", "classifier", "detector", "geometry", "segmentation",
          "mapping", "cli")

EXTRA_SITES = (
    ("geometry", "label_components"),  # imported inside segmentation._derive_markers
    ("geometry", "hough_lines"),  # imported inside mapping._wall_angles
    ("detector", "heatmap_fuse"),
    ("detector", "threshold_boxes"),
    ("segmentation", "watershed_segment"),
    ("mapping", "stitch_patch"),
)


def _pnm_payload(args, kwargs, result):
    return {"bytes": int(result.pixels.nbytes)}


COUNTERS = {
    "raster.load_pnm": _pnm_payload,
    "raster.read_pnm": _pnm_payload,
    "raster.write_pnm": lambda a, k, r: {"bytes": len(r)},
    "classifier.svm_score_many": lambda a, k, r: {"rows": len(r)},
    "detector.heatmap_fuse": lambda a, k, r: {"raw": len(a[0])},
    "detector.threshold_boxes": lambda a, k, r: {"fused": len(r)},
    "geometry.hough_lines": lambda a, k, r: {"edge_px": int(np.count_nonzero(a[0].pixels)),
                                             "lines": len(r)},
    "geometry.label_components": lambda a, k, r: {"px": int(np.count_nonzero(a[0])),
                                                  "components": int(r[1])},
    "segmentation.segment_floor": lambda a, k, r: {"px": int(a[0].height * a[0].width)},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    raised: bool = False
    counters: dict = field(default_factory=dict)


class Recorder:
    """Nested spans of one thread, kept in memory in start order."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(),
                               self._stack[-1] if self._stack else -1, self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx, raised=False):
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.raised = raised
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        raised = True
        try:
            yield
            raised = False
        finally:
            self.close(idx, raised)


def _wrap(fn, name, rec):
    count = COUNTERS.get(name)

    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, raised=True)
            raise
        span = rec.close(idx)
        if count is not None:
            span.counters = count(args, kwargs, result)
        return result

    return traced


def boundary_sites():
    """(module, attribute, span name) for each cross-layer call site plus EXTRA_SITES."""
    mods = {layer: importlib.import_module(f"rovercv.{layer}") for layer in LAYERS}
    layer_of = {m.__name__: layer for layer, m in mods.items()}
    sites = []
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ != mod.__name__ and obj.__module__ in layer_of):
                sites.append((mod, attr, f"{layer_of[obj.__module__]}.{attr}"))
    sites.extend((mods[layer], attr, f"{layer}.{attr}") for layer, attr in EXTRA_SITES)
    return sites


@contextmanager
def install(rec):
    """Wrap every site for the duration of the block, then restore the originals."""
    sites = boundary_sites()
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in sites]
    try:
        for mod, attr, name in sites:
            setattr(mod, attr, _wrap(getattr(mod, attr), name, rec))
        yield rec
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


def dump(spans, path):
    """Write the spans as a JSON list of their fields, in start order; returns ``path``.

    ``parent`` is the list index of the enclosing span (-1 for none) and ``op``
    the operation id; ``start`` and ``end`` are ``time.perf_counter`` seconds.
    """
    path.write_text(json.dumps([asdict(s) for s in spans]))
    return path


# ---------------------------------------------------------------- per-layer metrics

def _durations(spans):
    """Per span: (inclusive ms, self ms), self being inclusive minus its direct children."""
    incl = [(s.end - s.start) * 1e3 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += incl[i]
    return incl, [a - b for a, b in zip(incl, child)]


# name -> (unit, kind, argument): kind "incl" sums inclusive ms of the named
# spans, "self" sums self ms of spans whose layer prefix matches, "calls" counts
# spans, "counter" sums a counter, "raised" counts spans that raised.
LAYER_METRICS = {
    "raster.kernel_ms": ("ms", "incl", ("raster.convolve3", "raster.sobel_magnitude")),
    "raster.resize_ms": ("ms", "incl", ("raster.resize_bilinear",)),
    "raster.pnm_ms": ("ms", "incl", ("raster.load_pnm", "raster.read_pnm", "raster.write_pnm")),
    "raster.pnm_bytes": ("bytes", "counter", (("raster.load_pnm", "raster.read_pnm",
                                               "raster.write_pnm"), "bytes")),
    "features.grid_ms": ("ms", "incl", ("features.hog_block_grid",)),
    "features.grid_calls": ("count", "calls", ("features.hog_block_grid",)),
    "features.window_ms": ("ms", "incl", ("features.color_histogram", "features.spatial_features")),
    "features.windows": ("count", "calls", ("features.spatial_features",)),
    "features.failed": ("count", "raised", "features."),
    "features.extract_ms": ("ms", "incl", ("features.extract_features",)),
    "features.patches": ("count", "calls", ("features.extract_features",)),
    "classifier.score_ms": ("ms", "incl", ("classifier.svm_score_many",)),
    "classifier.rows_scored": ("count", "counter", (("classifier.svm_score_many",), "rows")),
    "classifier.train_ms": ("ms", "incl", ("classifier.svm_train",)),
    "detector.self_ms": ("ms", "self", "detector."),
    "detector.heatmap_ms": ("ms", "incl", ("detector.heatmap_fuse",)),
    "detector.boxes_ms": ("ms", "incl", ("detector.threshold_boxes",)),
    "detector.raw_dets": ("count", "counter", (("detector.heatmap_fuse",), "raw")),
    "detector.fused_boxes": ("count", "counter", (("detector.threshold_boxes",), "fused")),
    "geometry.hough_ms": ("ms", "incl", ("geometry.hough_lines",)),
    "geometry.hough_calls": ("count", "calls", ("geometry.hough_lines",)),
    "geometry.hough_edge_px": ("px", "counter", (("geometry.hough_lines",), "edge_px")),
    "geometry.hough_lines_out": ("count", "counter", (("geometry.hough_lines",), "lines")),
    "geometry.label_ms": ("ms", "incl", ("geometry.label_components",)),
    "geometry.label_px": ("px", "counter", (("geometry.label_components",), "px")),
    "geometry.components": ("count", "counter", (("geometry.label_components",), "components")),
    "segmentation.self_ms": ("ms", "self", "segmentation."),
    "segmentation.watershed_ms": ("ms", "incl", ("segmentation.watershed_segment",)),
    "segmentation.px": ("px", "counter", (("segmentation.segment_floor",), "px")),
    "mapping.stitch_ms": ("ms", "incl", ("mapping.stitch_patch",)),
    "mapping.stitch_calls": ("count", "calls", ("mapping.stitch_patch",)),
    "mapping.localize_self_ms": ("ms", "self", "mapping.localize"),
    "mapping.io_ms": ("ms", "incl", ("mapping.map_from_bytes", "mapping.map_to_bytes")),
    "cli.self_ms": ("ms", "self", "cli.run"),
}

# averaged over traced detector trainings instead of traced operations
TRAINING_METRICS = ("features.extract_ms", "features.patches", "classifier.train_ms")


def _total(kind, arg, spans, incl, self_ms):
    if kind == "incl":
        return sum(d for s, d in zip(spans, incl) if s.name in arg)
    if kind == "self":
        return sum(d for s, d in zip(spans, self_ms) if s.name.startswith(arg))
    if kind == "calls":
        return sum(1 for s in spans if s.name in arg)
    if kind == "raised":
        return sum(1 for s in spans if s.raised and s.name.startswith(arg))
    names, key = arg
    return sum(s.counters.get(key, 0) for s in spans if s.name in names)


def layer_metrics(spans, op_ids, training_ids):
    """Per-layer values as means per traced operation (per traced training for
    TRAINING_METRICS), plus detector.fused_per_raw as a ratio of totals."""
    incl, self_ms = _durations(spans)
    out = {}
    for name, (unit, kind, arg) in LAYER_METRICS.items():
        ids = set(training_ids if name in TRAINING_METRICS else op_ids)
        picked = [(s, a, b) for s, a, b in zip(spans, incl, self_ms) if s.op in ids]
        total = _total(kind, arg, *zip(*picked)) if picked else 0
        out[name] = {"value": total / len(ids) if ids else 0.0, "unit": unit}
    raw = out["detector.raw_dets"]["value"]
    out["detector.fused_per_raw"] = {
        "value": out["detector.fused_boxes"]["value"] / raw if raw else 0.0, "unit": "ratio"}
    return out
