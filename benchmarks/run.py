"""End-to-end and per-layer benchmark of the rovercv CLI.

Usage, from the repository root:

    python3 benchmarks/run.py --workload lanes_textured --seed 1 --seconds 30 --trace 0

One process, one client in a closed loop: each ``rovercv.cli.run([...])`` call
starts when the previous operation has returned and its output was checked.
Inputs come from the workload's seeded generators (``workloads.py``).

Set-up (input generation, the program work the operations need first, such as
detector training, and one warm-up operation) is repeated three times;
``setup_s`` is the median.
Then a fixed number of operations runs: ``--seconds`` divided by the
workload's seconds per operation at the seed commit, in whole blocks of the
workload's input cycle. A run therefore lasts about ``--seconds`` at the seed
commit, and every run of one seed attempts the same operations on the same
inputs, so a wrong answer the program gives is counted the same in every run
of that seed instead of with how far a timed loop got. With ``--trace 1`` the
first half of the operations runs untraced and the second half traced
(``spans.py``); the traced half gives the per-layer metrics and
``trace.overhead_ms``, the traced minus the untraced median latency.
End-to-end metrics come only from ``--trace 0``. ``ops_per_s`` is the share of
operations that succeeded times the median rate over THROUGHPUT_WINDOWS windows
of the run. Before anything loads, glibc's mmap threshold is fixed at 4 MiB
(``_pin_mmap_threshold``), so peak RSS does not depend on allocation history.
The traced run also writes its spans to ``.bench_work/spans-<workload>-<seed>.json``
and names that file in the report line.

An operation fails on a nonzero exit or an output its checker rejects.
``correct`` in the result is false only when an exit-0 call left a missing or
unparseable output, or a call raised instead of returning an exit code.

Stdout: one JSON report line with every metric (unit, sample count), the run
environment and the failures grouped by stage, exit code and first stderr line;
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}`` with
the metrics BENCHMARK.json lists for the mode.
"""

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TRAINING_OP = -1  # operation id of the traced detector training
# tail percentiles, highest first; each gated workload completes more than the 40
# operations p75 needs in a run, so p75 is the one reported
TAIL_PCTS = (75.0, 50.0)
THROUGHPUT_WINDOWS = 8
M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 4 << 20  # glibc's mallopt parameter; 4 MiB
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_mmap_threshold():
    """Fix glibc's mmap threshold at MMAP_THRESHOLD, so every buffer that large is
    mapped on its own and goes back to the system when freed; returns the
    threshold, or None where the C library has no mallopt.

    Left dynamic, the first free of a large buffer raises the threshold to its
    size and later ones come from the heap. Whether a freed 11 MB features.csv
    buffer then fits the next one depends on the sizes of the workload's inputs,
    and the peak RSS of a train_detector run differs by one such buffer from
    seed to seed. Buffers under 4 MiB, such as a frame or a Hough accumulator,
    still come from the heap, as they do once a one-shot CLI process is warm.
    """
    import ctypes
    import ctypes.util

    name = ctypes.util.find_library("c")
    mallopt = getattr(ctypes.CDLL(name), "mallopt", None) if name else None
    if mallopt is None or mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return None
    return MMAP_THRESHOLD


def _blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(np, mmap_threshold) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": _nproc(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np),
            "blas_thread_cap": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "malloc_mmap_threshold": mmap_threshold}


def tail(latencies_ms):
    """(value, percentile): the highest nearest-rank percentile in TAIL_PCTS with at
    least ten samples beyond it, else the maximum."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for pct in TAIL_PCTS:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return (ordered[-1], 100.0) if ordered else (None, None)


@dataclass
class Call:
    """One finished CLI call: its argv, exit code (None if it raised) and first stderr line."""

    argv: list
    code: int | None
    stderr: str
    seconds: float


class Client:
    """Calls the CLI in-process, capturing its output, optionally inside a span."""

    def __init__(self, cli):
        self.cli = cli
        self.recorder = None

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if self.recorder is None:
                    code = self.cli.run(argv)
                else:
                    with self.recorder.span("cli.run"):
                        code = self.cli.run(argv)
            first = err.getvalue().strip().splitlines()[:1]
        except Exception as exc:  # the CLI promises exit codes; record the broken promise
            code, first = None, [f"{type(exc).__name__}: {exc}"]
        return Call(list(argv), code, first[0] if first else "", time.perf_counter() - start)


def operation_count(workload, seconds) -> int:
    """Operations in a run of ``seconds``: whole blocks, at least one."""
    blocks = round(seconds / workload.op_seconds / workload.block)
    return max(1, blocks) * workload.block


def closed_loop(workload, inputs, client, ops, first_op=0):
    """Run ``ops`` operations; returns their results and the perf_counter time
    before the first and after each one."""
    results, marks = [], [time.perf_counter()]
    for i in range(first_op, first_op + ops):
        if client.recorder is not None:
            client.recorder.op = i
        results.append(workload.operation(inputs, i, client.call))
        marks.append(time.perf_counter())
    return results, marks


def _ok_ms(results):
    return [r.latency_s * 1e3 for r in results if r.ok]


def _median(values):
    return statistics.median(values) if values else None


def throughput(results, marks):
    """Correct operations per second: the share of operations that succeeded times
    the median rate of operations over THROUGHPUT_WINDOWS consecutive windows of
    the run, so a few seconds in which the shared host stalls the process move one
    window, not the figure. Returns (value, windows)."""
    n = len(results)
    edges = sorted({round(k * n / THROUGHPUT_WINDOWS) for k in range(THROUGHPUT_WINDOWS + 1)})
    rates = [(b - a) / (marks[b] - marks[a]) for a, b in zip(edges, edges[1:])]
    return sum(r.ok for r in results) / n * statistics.median(rates), len(rates)


def end_to_end(results, marks):
    ok_ms = _ok_ms(results)
    tail_ms, tail_pct = tail(ok_ms)
    ops_per_s, windows = throughput(results, marks)
    return {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s", "n": len(results), "windows": windows},
        "latency_p50_ms": {"value": _median(ok_ms), "unit": "ms", "n": len(ok_ms)},
        "latency_tail_ms": {"value": tail_ms, "unit": "ms", "n": len(ok_ms),
                            "percentile": tail_pct},
        "failed_frac": {"value": sum(not r.ok for r in results) / len(results),
                        "unit": "fraction", "n": len(results)},
    }


def failures(results):
    groups = {}
    for r in results:
        if not r.ok:
            key = (r.stage, r.code, r.message)
            groups[key] = groups.get(key, 0) + 1
    return [{"stage": s, "exit": c, "first_line": m, "count": n}
            for (s, c, m), n in sorted(groups.items(), key=lambda kv: -kv[1])]


def setup(workload, seed, work, client, np):
    """Generate inputs, train where needed and warm up, SETUP_REPEATS times; keep the last."""
    times, trainings, inputs = [], [], None
    for rep in range(SETUP_REPEATS):
        rep_dir = work / f"setup_{rep}"
        rep_dir.mkdir()
        start = time.perf_counter()
        inputs = workload.generate(np.random.default_rng(seed), rep_dir)
        train_s = workload.prepare(inputs, client.call)
        workload.operation(inputs, 0, client.call)
        times.append(time.perf_counter() - start)
        if train_s is not None:
            trainings.append(train_s)
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(rep_dir)
    return inputs, times, trainings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rovercv" / "cli.py").is_file():
        print(f"error: no rovercv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    mmap_threshold = _pin_mmap_threshold()
    # cap BLAS threads before numpy loads, so scoring measures the program, not the scheduler
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(_nproc())
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import spans
    import workloads
    from rovercv import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    client = Client(cli)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        inputs, setup_times, trainings = setup(workload, args.seed, work, client, np)
        ops = operation_count(workload, args.seconds / 2 if args.trace else args.seconds)
        results, marks = closed_loop(workload, inputs, client, ops)
        metrics = end_to_end(results, marks)
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s",
                              "n": len(setup_times)}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB", "n": 1}
        if trainings:
            metrics["train_s"] = {"value": statistics.median(trainings), "unit": "s",
                                  "n": len(trainings)}
        if args.trace:
            client.recorder = spans.Recorder()
            training_ids = []
            with spans.install(client.recorder):
                if trainings:
                    client.recorder.op = TRAINING_OP
                    training_ids.append(TRAINING_OP)
                    workload.prepare(inputs, client.call)
                traced, _ = closed_loop(workload, inputs, client, ops, first_op=len(results))
            op_ids = range(len(results), len(results) + len(traced))
            # a workload whose operation is a training averages the training metrics over it
            metrics = spans.layer_metrics(client.recorder.spans, op_ids, training_ids or op_ids)
            spans_file = spans.dump(client.recorder.spans, ROOT / ".bench_work" /
                                    f"spans-{workload.name}-{args.seed}.json")
            metrics["cli.bytes_written"] = {
                "value": sum(r.bytes_out for r in traced) / len(traced), "unit": "bytes"}
            traced_p50, untraced_p50 = _median(_ok_ms(traced)), _median(_ok_ms(results))
            metrics["trace.overhead_ms"] = {
                "value": None if None in (traced_p50, untraced_p50) else traced_p50 - untraced_p50,
                "unit": "ms"}
            results = results + traced
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    report = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": _environment(np, mmap_threshold),
              "attempted": len(results), "failed": failed, "metrics": metrics,
              "failures": failures(results)}
    if args.trace:
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(report))
    print(json.dumps({
        "correct": not any(r.malformed for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
