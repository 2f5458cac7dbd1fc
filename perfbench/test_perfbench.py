"""Tests of the benchmark itself, at smoke size.

    python -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from gvvad import datamodel, evaluation, milcore  # noqa: E402

import harness  # noqa: E402
import record_reference  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import Tracer, wrapper_cost_s  # noqa: E402
from workloads import (  # noqa: E402
    AUC_TOLERANCE,
    MODULE_SETTINGS,
    ModuleSweep,
    PassResult,
    ReadmePipeline,
    WideIO,
    load_reference,
    optimizer_steps,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


SMOKE_WIDE_IO = dict(dim=64, clips=(20, 30), counts=(2, 2, 2, 2), epochs=2)


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """Each workload at a size that runs in seconds; module-sweep keeps its
    spec, and wide-io checks against a reference recorded at its smoke shape."""
    reference = tmp_path_factory.mktemp("reference") / "wide_io_reference.tsv"
    record_reference.record_wide_io(reference, lambda: WideIO(**SMOKE_WIDE_IO), reference.parent / "work")
    factories = {
        "module-sweep": ModuleSweep,
        "readme-pipeline": lambda: ReadmePipeline(limit=20, train_counts=(6, 6, 4, 4),
                                                  test_counts=(6, 6), epochs=2),
        "wide-io": lambda: WideIO(**SMOKE_WIDE_IO, reference_file=reference),
    }
    return lambda name: factories[name]()


WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, smoke):
    report = harness.run_workload(smoke(name), seed=3, seconds=0, trace=False, work_dir=tmp_path / "work")
    line = harness.result_line(report, trace=False)
    assert line["correct"], report["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path, smoke):
    trace_file = tmp_path / "trace.jsonl"
    report = harness.run_workload(smoke(name), seed=3, seconds=0, trace=True,
                                  work_dir=tmp_path / "work", trace_file=trace_file)
    line = harness.result_line(report, trace=True)
    assert line["correct"], report["failures"]
    assert set(line["metrics"]) == PER_LAYER
    assert report["absent"] == []
    # pass 0 runs untraced, pass 1 traced, on the same inputs
    assert ("pass 1 reproduces pass 0", True) in report["checks"]
    spans = [json.loads(row) for row in trace_file.read_text(encoding="utf-8").splitlines()]
    assert spans and all(s["pass"] == 1 and s["end"] >= s["start"] for s in spans)


def test_module_sweep_trace_shows_the_train_step_and_no_io(tmp_path, smoke):
    report = harness.run_workload(smoke("module-sweep"), seed=5, seconds=0, trace=True, work_dir=tmp_path)
    layer = {name: value for name, (value, _) in report["per_layer"].items()}
    assert layer["milcore.loss_adam_share"] > 0.5
    assert all(value == 0 for name, value in layer.items() if name.startswith("datamodel."))
    # on GAP_WORLD the filter keeps none of the synthetic videos
    assert layer["milcore.filter_kept_ratio"] == 0.0
    assert layer["milcore.filter_s"] > 0


def test_tracing_does_not_change_results(tmp_path, smoke):
    workload = smoke("wide-io")
    workload.setup(7, tmp_path)
    plain = workload.run_pass(tmp_path / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced.aucs == plain.aucs
    assert {span[0] for span in tracer.spans} >= {"datamodel.fnv1a64", "milcore.total_loss_and_grads",
                                                  "numerics.adam_step", "evaluation.roc_auc"}
    assert milcore.adam_step.__module__ == "gvvad.numerics"  # originals restored
    assert not hasattr(milcore.adam_step, "__wrapped__")


def test_checksum_guard_fires(tmp_path, smoke):
    workload = smoke("wide-io")
    workload.setup(2, tmp_path)
    workload.run_pass(tmp_path / "pass")
    assert workload.final_checks(tmp_path / "pass") == [
        ("checksum guard GVFT", True, ""), ("checksum guard GVPM", True, ""),
    ]


def test_checksum_guard_fails_a_reader_that_skips_verification(tmp_path, monkeypatch, smoke):
    # Writers store and readers compare a constant: the files round-trip but
    # nothing is verified, which is what the guard must refuse.
    monkeypatch.setattr(datamodel, "fnv1a64", lambda data: 0)
    monkeypatch.setattr(milcore, "fnv1a64", lambda data: 0)
    workload = smoke("wide-io")
    workload.setup(2, tmp_path)
    workload.run_pass(tmp_path / "pass")
    assert [ok for _, ok, _ in workload.final_checks(tmp_path / "pass")] == [False, False]


def test_module_sweep_check_compares_with_the_reference():
    workload = ModuleSweep()
    workload.seeds = (4, 9)
    workload.reference = load_reference()
    rows = [evaluation.AblationRow(name, s, workload.reference[(s, name)][0])
            for name in MODULE_SETTINGS for s in workload.seeds]
    result = PassResult(1.0, 10, 1.0, 1, 1.0, (), outputs=rows)
    assert all(ok for _, ok, _ in workload.check(result))

    rows[3] = evaluation.AblationRow(rows[3].setting, rows[3].seed, rows[3].auc + 2 * AUC_TOLERANCE)
    rows[6] = evaluation.AblationRow(rows[7].setting, rows[7].seed, rows[7].auc)  # wrong order
    assert [i for i, (_, ok, _) in enumerate(workload.check(result)) if not ok] == [3, 6]
    assert not any(ok for _, ok, _ in workload.check(PassResult(1.0, 10, 1.0, 1, 1.0, (), outputs=rows[:-1])))


def test_recorded_steps_match_the_pairing_rule():
    reference = load_reference()
    for seed in range(16):
        assert reference[(seed, "baseline")][1] == optimizer_steps(16, 16, 0, 0, 70, 2)
        assert reference[(seed, "vg")][1] == optimizer_steps(16, 16, 36, 36, 70, 2)


def test_metric_names_and_bounds_meet_the_contract():
    names = [m["name"] for m in (*BENCH["workloads"], *BENCH["end_to_end"], *BENCH["per_layer"])]
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [n for n, b in bounds.items() if b == bounds["setup_s"]] == ["setup_s"]


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "module-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_wide_io_check_compares_the_auc_with_the_reference(tmp_path, smoke):
    workload = smoke("wide-io")
    workload.setup(4, tmp_path)
    result = workload.run_pass(tmp_path / "pass")
    assert all(ok for _, ok, _ in workload.check(result))
    # a train that skips its updates scores about 0.5, far from the reference
    workload.reference_auc = result.aucs[0] + 2 * AUC_TOLERANCE
    assert [op for op, ok, _ in workload.check(result) if not ok] == ["train"]


def test_counters_read_arguments_by_name_and_a_broken_one_is_absent(monkeypatch):
    # a counter that no longer fits its target, as after a renamed argument
    monkeypatch.setitem(tracer_module._COUNTERS, "evaluation.roc_auc", lambda counts, args, result: args["renamed"])
    tracer = Tracer()
    tracer.install()
    try:
        datamodel.fnv1a64(data=b"abcd")
        datamodel.fnv1a64(b"ab")
        auc = evaluation.roc_auc(np.array([0.1, 0.9]), np.array([0, 1]))
    finally:
        tracer.uninstall()
    assert auc == 1.0
    assert tracer.counts["datamodel.fnv1a64"]["bytes"] == 6
    assert tracer.absent == ["evaluation.roc_auc:count"]
    assert [span[0] for span in tracer.spans] == ["datamodel.fnv1a64"] * 2 + ["evaluation.roc_auc"]


def test_tracing_overhead_is_estimated_from_the_spans(tmp_path, smoke):
    assert wrapper_cost_s() > 0
    report = harness.run_workload(smoke("readme-pipeline"), seed=2, seconds=0, trace=True, work_dir=tmp_path)
    overhead, _ = report["per_layer"]["trace.overhead_s"]
    share, _ = report["per_layer"]["trace.overhead_share"]
    assert overhead > 0 and 0 < share < 1
