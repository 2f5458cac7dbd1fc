"""Measurement loop, metrics and report of one benchmark run.

A run sets its workload up ``SETUP_ROUNDS`` times (``setup_s`` is the import
time plus the median round), then runs passes in a closed loop with one
caller until ``seconds`` have gone by. Untraced runs time every pass with the
program exactly as shipped. Traced runs alternate untraced and traced passes,
and every traced pass must reproduce the untraced AUCs bit for bit. The
tracing overhead is the spans of a traced pass times the measured cost of
one wrapper: the difference of traced and untraced pass medians is smaller
than their run-to-run noise.

The speed of a shared host drifts by tens of percent within seconds. So a
fixed calibration loop, which runs no gvvad code, is timed right before and
right after every pass and set-up round (and once after the imports). The
set-up time is scaled by ``CALIBRATION_NOMINAL_S`` over the loop's mean time
after the imports and around the set-up rounds, the pass timings by
``CALIBRATION_NOMINAL_S`` over its mean time around the measured passes:
pooled loops track the host speed of a run better than each pass's or
round's own two short loops do. The end-to-end timings are thus seconds at
the host speed at which the loop takes its nominal time: calibrated seconds. The raw timings and the host
slowdown are printed beside them, as a table and as one ``raw`` JSON line
before the result line.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer, layer_metrics, wrapper_cost_s
from workloads import WORKLOADS

SETUP_ROUNDS = 5
# The calibration loop: FNV-1a over 256 bytes, BYTE_ROUNDS times, then
# WIDE_ROUNDS 2048-wide matrix products; each half takes about 16 ms.
BYTE_ROUNDS = 400
WIDE_ROUNDS = 5
# Median duration of the calibration loop on the machine that recorded
# BASELINE.json; a constant, so calibrated timings of two commits compare.
CALIBRATION_NOMINAL_S = 0.032


def calibration_seconds() -> float:
    """Duration of a fixed pure-Python byte loop and a few 2048-wide matrix
    products: the interpreter-bound and BLAS-bound kinds of work that bound
    gvvad's passes. On six 40 s runs of each workload this pair tracked the
    runs' host speed better than a mix that added small numpy operations."""
    rng = np.random.default_rng(0)
    wide = rng.normal(size=(200, 2048)).astype(np.float32)
    wide_w = rng.normal(size=(32, 2048))
    data = rng.integers(0, 256, size=256, dtype=np.uint8).tobytes()
    start = perf_counter()
    for _ in range(BYTE_ROUNDS):
        acc = 0xCBF29CE484222325
        for b in data:
            acc = ((acc ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    for _ in range(WIDE_ROUNDS):
        hidden = np.asarray(wide, dtype=np.float64) @ wide_w.T
        wide_w = wide_w * 0.999 + 1e-6 * (hidden.T @ wide)
    return perf_counter() - start


def blas_threads() -> int:
    """Threads the OpenBLAS bundled with numpy will use; -1 when unknown."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def _slowdown(before: float, after: float) -> float:
    """Host slowdown around a timed span: mean calibration time over nominal."""
    return (before + after) / 2 / CALIBRATION_NOMINAL_S


def _checked_pass(workload, pass_dir: Path, tracer: Tracer | None, index: int):
    """Run and check one pass; a raised exception fails every operation of it."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    before = calibration_seconds()
    if tracer is not None:
        tracer.pass_index = index
        tracer.install()
    try:
        result = workload.run_pass(pass_dir)
    except Exception:
        traceback.print_exc()
        return None, [(op, False, "raised") for op in workload.pass_ops()]
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.traced = tracer is not None
    result.slowdown = _slowdown(before, calibration_seconds())
    try:
        checks = workload.check(result)
    except Exception:
        traceback.print_exc()
        return None, [(op, False, "check raised") for op in workload.pass_ops()]
    result.outputs = None  # keep peak memory that of one pass, however many run
    return result, checks


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: Path,
                 import_s: float = 0.0, trace_file: Path | None = None) -> dict:
    """Set up, measure and check one workload; returns the report."""
    setup_loops = [calibration_seconds()]
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        shutil.rmtree(work_dir, ignore_errors=True)
        setup_loops.append(calibration_seconds())
        start = perf_counter()
        workload.setup(seed, work_dir)
        setup_times.append(perf_counter() - start)
        setup_loops.append(calibration_seconds())

    tracer = Tracer() if trace else None
    pass_dir = work_dir / "pass"
    passes, checks = [], []
    try:
        start = perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            result, pass_checks = _checked_pass(workload, pass_dir, tracer if traced else None, len(passes))
            passes.append(result)
            checks.extend(pass_checks)
            elapsed = perf_counter() - start
            # Stop at whichever pass boundary lies nearest the deadline.
            if elapsed + elapsed / len(passes) / 2 >= seconds and (not trace or len(passes) % 2 == 0):
                break
        try:
            checks.extend(workload.final_checks(pass_dir))
        except Exception:
            traceback.print_exc()
            checks.append(("final checks", False, "raised"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    done = [p for p in passes if p is not None]
    for i, p in enumerate(done[1:], start=1):
        checks.append((f"pass {i} reproduces pass 0", p.aucs == done[0].aucs,
                       f"aucs {p.aucs} != {done[0].aucs}"))

    untraced = [p for p in done if not p.traced]
    slowdown = _mean(untraced, "slowdown")
    raw = {
        "raw.setup_s": (import_s + statistics.median(setup_times), "s"),
        "raw.wall_s": (_mean(untraced, "seconds"), "s"),
        "raw.cells_per_s": (_rate(untraced, "cells", "cell_seconds"), "1/s"),
        "raw.train_steps_per_s": (_rate(untraced, "steps", "train_seconds"), "1/s"),
        "host_slowdown": (slowdown, "ratio"),
    }
    end_to_end = {
        "setup_s": (raw["raw.setup_s"][0] / (statistics.fmean(setup_loops) / CALIBRATION_NOMINAL_S), "s"),
        "wall_s": (raw["raw.wall_s"][0] / slowdown if untraced else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cells_per_s": (raw["raw.cells_per_s"][0] * slowdown, "1/s"),
        "train_steps_per_s": (raw["raw.train_steps_per_s"][0] * slowdown, "1/s"),
    }
    failed = sum(1 for _, ok, _ in checks if not ok)
    report = {
        "workload": workload.name,
        "seed": seed,
        "inputs": workload.describe(),
        "passes": len(passes),
        "pass_seconds": [round(p.seconds, 4) if p is not None else None for p in passes],
        "environment": environment(),
        "checks": [(op, ok) for op, ok, _ in checks],
        "failures": [f"{op}: {detail}" for op, ok, detail in checks if not ok],
        "end_to_end": end_to_end,
        "raw": raw,
        "attempted": len(checks),
        "failed": failed,
    }
    if trace:
        traced_runs = [p for p in done if p.traced]
        per_layer = layer_metrics(tracer, max(len(traced_runs), 1), sum(p.steps for p in traced_runs),
                                  sum(p.seconds for p in traced_runs))
        overhead = len(tracer.spans) / max(len(traced_runs), 1) * wrapper_cost_s()
        per_layer["trace.overhead_s"] = (overhead, "s")
        per_layer["trace.overhead_share"] = (overhead / raw["raw.wall_s"][0] if untraced else 0.0, "ratio")
        report["per_layer"] = per_layer
        report["absent"] = list(tracer.absent)
        if trace_file is not None:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_file)
    return report


def _mean(passes, attr: str) -> float:
    return statistics.fmean(getattr(p, attr) for p in passes) if passes else 0.0


def _rate(passes, work: str, seconds: str) -> float:
    total_s = sum(getattr(p, seconds) for p in passes)
    return sum(getattr(p, work) for p in passes) / total_s if total_s else 0.0


def result_line(report: dict, trace: bool) -> dict:
    """The benchmark's result object: correctness, counts and one metric set."""
    metrics = report["per_layer"] if trace else report["end_to_end"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def print_report(report: dict, trace: bool) -> None:
    env = report["environment"]
    print(f"perfbench {report['workload']} seed={report['seed']} passes={report['passes']} "
          f"trace={int(trace)} {report['inputs']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("pass_seconds " + " ".join(map(str, report["pass_seconds"])))
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"{'failed_ratio':32s} {ratio:.6g} ratio ({report['failed']}/{report['attempted']})")
    sections = [report["end_to_end"], report["raw"]] + ([report["per_layer"]] if trace else [])
    for section in sections:
        for name, (value, unit) in section.items():
            print(f"{name:32s} {value:.6g} {unit}")
    if trace and report["absent"]:
        print("absent " + " ".join(report["absent"]))
    print("raw " + json.dumps({name: value for name, (value, _) in report["raw"].items()}))
    print(json.dumps(result_line(report, trace)))


def main(workload_name: str, seed: int, seconds: float, trace: bool, root: Path, import_s: float) -> int:
    if workload_name not in WORKLOADS:
        print(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    report = run_workload(
        WORKLOADS[workload_name](), seed, seconds, trace,
        work_dir=root / ".perfbench_work" / workload_name,
        import_s=import_s,
        trace_file=root / ".perfbench_out" / f"trace-{workload_name}-seed{seed}.jsonl" if trace else None,
    )
    print_report(report, trace)
    return 0
