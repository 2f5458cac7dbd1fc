"""Span tracing of gvvad's public functions, installed from outside the package.

A traced pass replaces every module-level reference to a traced function with
a wrapper that records a span (function, start, end, parent span, pass) and,
for a few functions, a work count taken from the arguments or the result.
Wrappers go in at every lookup site -- ``gvvad.milcore.adam_step`` as well as
``gvvad.numerics.adam_step`` -- because each module calls the name bound in
its own namespace. ``uninstall`` puts the originals back, so untraced passes
run the program exactly as shipped.

A target that no longer exists (a later change may delete or rename it) is
reported in ``absent``; its metrics read 0. Counters read the arguments by
name; one that no longer fits its target (a renamed argument, a changed
result) is listed in ``absent`` as ``<target>:count`` and stops counting,
while the call itself goes on unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# layer -> functions wrapped in that layer (the layer is the defining module)
TRACED = {
    "cli": ("cmd_prompts", "cmd_world", "cmd_train", "cmd_eval"),
    "promptgen": ("build_repository", "export_repository", "load_repository"),
    "worldsim": ("generate_dataset",),
    "datamodel": (
        "write_dataset", "load_manifest", "load_samples",
        "write_features", "read_features", "write_frame_labels", "read_frame_labels",
        "fnv1a64",
    ),
    "milcore": (
        "train", "total_loss_and_grads", "filter_synthetic",
        "save_params", "load_params", "score_segments",
    ),
    "numerics": ("adam_step",),
    "evaluation": ("run_ablation", "evaluate", "roc_auc"),
}

_IO_WRITE = ("datamodel.write_dataset",)
_IO_READ = ("datamodel.load_manifest", "datamodel.load_samples")


def _sample_bytes(samples) -> int:
    """Feature (f32) plus frame-label (u8) payload bytes of VideoSamples."""
    total = 0
    for s in samples:
        total += s.features.size * 4
        if s.frame_labels is not None:
            total += s.frame_labels.size
    return total


# Counters take (counts, arguments by parameter name, result).

def _count_fnv(counts, args, result):
    counts["bytes"] += len(args["data"])


def _count_generated(counts, args, result):
    counts["clips"] += sum(s.num_clips for s in result.all_samples())


def _count_filter(counts, args, result):
    counts["offered"] += len(args["synth_anomalous"]) + len(args["synth_normal"])
    counts["kept"] += len(result[0]) + len(result[1])


def _count_frames(counts, args, result):
    counts["frames"] += result.num_frames


def _count_written(counts, args, result):
    counts["bytes"] += _sample_bytes(args["samples"])


def _count_read(counts, args, result):
    counts["bytes"] += _sample_bytes(result)


_COUNTERS = {
    "datamodel.fnv1a64": _count_fnv,
    "worldsim.generate_dataset": _count_generated,
    "milcore.filter_synthetic": _count_filter,
    "evaluation.evaluate": _count_frames,
    "datamodel.write_dataset": _count_written,
    "datamodel.load_samples": _count_read,
}


class Tracer:
    """Collects spans and counts over any number of traced passes."""

    def __init__(self):
        self.spans = []  # (key, start, end, parent index or -1, pass index)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.absent = []
        self.pass_index = -1
        self._stack = []
        self._patched = []  # (module, attribute name, original)

    # -- installation -------------------------------------------------------

    def _wrap(self, key, fn):
        spans, stack, counter = self.spans, self._stack, _COUNTERS.get(key)
        counts = self.counts[key]
        signature = inspect.signature(fn) if counter is not None else None
        count_name = f"{key}:count"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (key, start, end, parent, self.pass_index)
            if counter is not None and count_name not in self.absent:
                try:
                    counter(counts, signature.bind(*args, **kwargs).arguments, result)
                except Exception:
                    self.absent.append(count_name)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every gvvad module that binds it."""
        targets = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"gvvad.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    targets[id(fn)] = (f"{layer}.{name}", fn)
                elif f"{layer}.{name}" not in self.absent:
                    self.absent.append(f"{layer}.{name}")
        wrappers = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "gvvad" or mod_name.startswith("gvvad.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None:
                    continue
                key, fn = hit
                if key not in wrappers:
                    wrappers[key] = self._wrap(key, fn)
                setattr(module, attr, wrappers[key])
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> dict:
        """key -> {"calls", "total_s", "self_s"} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (key, start, end, _, _) in enumerate(self.spans):
            agg = out[key]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += (end - start) - child_time[i]
        return out

    def time_under(self, key: str, ancestors) -> float:
        """Seconds spent in ``key`` spans that run inside any of ``ancestors``."""
        total = 0.0
        for span in self.spans:
            if span[0] != key:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in ancestors:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += span[2] - span[1]
        return total

    def write(self, path) -> None:
        """Write the spans as JSON lines: pass, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, parent, pass_index in self.spans:
                fh.write(json.dumps({"pass": pass_index, "name": key, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def wrapper_cost_s(calls: int = 10000, rounds: int = 5) -> float:
    """Seconds a wrapper adds to one call: the median over ``rounds`` of a
    wrapped no-op's time per call minus the bare no-op's. Counters are not
    included; they run on a few hundred calls a pass at most."""
    def noop():
        return None

    costs = []
    for _ in range(rounds):
        wrapped = Tracer()._wrap("noop", noop)
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def layer_metrics(tracer: Tracer, passes: int, steps: int, traced_wall_s: float) -> dict:
    """Per-layer metrics, per traced pass; ``steps`` is the optimizer steps in those passes."""
    agg = tracer.aggregate()

    def total(key):
        return agg[key]["total_s"] if key in agg else 0.0

    def calls(key):
        return agg[key]["calls"] if key in agg else 0

    def per_call_us(key):
        return total(key) / calls(key) * 1e6 if calls(key) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    mb = 1e6
    write_s = sum(total(k) for k in _IO_WRITE)
    read_s = sum(total(k) for k in _IO_READ)
    fnv_io_s = tracer.time_under("datamodel.fnv1a64", set(_IO_WRITE + _IO_READ))
    train_self = agg["milcore.train"]["self_s"] if "milcore.train" in agg else 0.0
    filt = counts["milcore.filter_synthetic"]
    per_pass = 1.0 / passes
    metrics = {
        "cli.prompts_s": (total("cli.cmd_prompts") * per_pass, "s"),
        "cli.world_s": (total("cli.cmd_world") * per_pass, "s"),
        "cli.train_s": (total("cli.cmd_train") * per_pass, "s"),
        "cli.eval_s": (total("cli.cmd_eval") * per_pass, "s"),
        "promptgen.build_repository_s": (total("promptgen.build_repository") * per_pass, "s"),
        "worldsim.generate_dataset_s": (total("worldsim.generate_dataset") * per_pass, "s"),
        "worldsim.clips_per_s": (ratio(counts["worldsim.generate_dataset"]["clips"],
                                       total("worldsim.generate_dataset")), "1/s"),
        "datamodel.write_dataset_s": (total("datamodel.write_dataset") * per_pass, "s"),
        "datamodel.load_manifest_s": (total("datamodel.load_manifest") * per_pass, "s"),
        "datamodel.load_samples_s": (total("datamodel.load_samples") * per_pass, "s"),
        "datamodel.write_mb_per_s": (ratio(counts["datamodel.write_dataset"]["bytes"] / mb, write_s), "MB/s"),
        "datamodel.read_mb_per_s": (ratio(counts["datamodel.load_samples"]["bytes"] / mb, read_s), "MB/s"),
        "datamodel.fnv1a64_s": (total("datamodel.fnv1a64") * per_pass, "s"),
        "datamodel.fnv1a64_mb": (counts["datamodel.fnv1a64"]["bytes"] / mb * per_pass, "MB"),
        "datamodel.checksum_share": (ratio(fnv_io_s, write_s + read_s), "ratio"),
        "milcore.train_s": (total("milcore.train") * per_pass, "s"),
        "milcore.step_us": (ratio(train_self, steps) * 1e6, "us"),
        "milcore.loss_grads_us": (per_call_us("milcore.total_loss_and_grads"), "us"),
        "milcore.loss_grads_calls": (calls("milcore.total_loss_and_grads") * per_pass, "count"),
        "milcore.loss_adam_share": (ratio(total("milcore.total_loss_and_grads") + total("numerics.adam_step"),
                                          traced_wall_s), "ratio"),
        "milcore.filter_s": (total("milcore.filter_synthetic") * per_pass, "s"),
        "milcore.filter_kept_ratio": (ratio(filt["kept"], filt["offered"]), "ratio"),
        "milcore.save_params_s": (total("milcore.save_params") * per_pass, "s"),
        "milcore.load_params_s": (total("milcore.load_params") * per_pass, "s"),
        "numerics.adam_step_us": (per_call_us("numerics.adam_step"), "us"),
        "numerics.adam_calls": (calls("numerics.adam_step") * per_pass, "count"),
        "evaluation.run_ablation_s": (total("evaluation.run_ablation") * per_pass, "s"),
        "evaluation.evaluate_s": (total("evaluation.evaluate") * per_pass, "s"),
        "evaluation.frames_per_s": (ratio(counts["evaluation.evaluate"]["frames"],
                                          total("evaluation.evaluate")), "1/s"),
        "evaluation.roc_auc_s": (total("evaluation.roc_auc") * per_pass, "s"),
        "trace.absent_targets": (len(tracer.absent), "count"),
    }
    return metrics
