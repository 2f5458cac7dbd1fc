"""Frame-level ROC-AUC, score-curve export, and ablation sweeps.

The default evaluation protocol is micro-averaged: every test video's clip
scores are expanded to frame scores, all frames are concatenated in ascending
video-id order, and a single ROC is computed. Rank sums use exact integer
arithmetic (twice the midranks), so the result matches a pairwise count
oracle bit for bit and ties contribute exactly one half.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datamodel import mix_datasets, subsample_real
from .errors import ShapeError, ValidationError
from .milcore import (
    ScorerParams,
    TrainConfig,
    check_percentile,
    filter_synthetic,
    score_segments,
    train_runs,
)
from .numerics import derived_int_seed, is_binary
from .worldsim import GenerationCounts, WorldConfig, generate_dataset

LAMBDA_GRID_DEFAULT = ("0.1", "0.25", "0.5", "1.0", "2.0")
DATA_SCALE_GRID_DEFAULT = ("0.25", "0.5", "0.75", "1.0")
MODULE_GRID_DEFAULT = ("baseline", "vg", "vg+vf", "vg+ssls", "vg+vf+ssls")

ABLATION_KINDS = ("lambda_sweep", "data_scale_sweep", "module_ablation")


def clip_to_frame_scores(clip_scores, clip_len: int) -> np.ndarray:
    """Expand clip scores to frame scores by repeating each one clip_len times."""
    if clip_len < 1:
        raise ValidationError(f"clip_len must be >= 1, got {clip_len}")
    s = np.asarray(clip_scores, dtype=np.float64)
    if s.ndim != 1:
        raise ShapeError(f"clip scores must be 1-D, got shape {s.shape}")
    return np.repeat(s, clip_len)


def roc_auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC with midrank tie handling.

    Equivalent to the fraction of (positive, negative) pairs ranked
    correctly, counting ties as one half; exact because rank sums are
    accumulated as integers.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.ndim != 1 or s.shape != y.shape:
        raise ShapeError(f"scores {s.shape} and labels {y.shape} must be equal-length vectors")
    if s.size == 0:
        raise ValidationError("cannot compute AUC of empty inputs")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores contain non-finite values")
    if not is_binary(y):
        raise ValidationError("labels must be 0 or 1")
    p = int(y.sum())
    n = int(y.size - p)
    if p == 0 or n == 0:
        raise ValidationError("AUC undefined: only one label class present")

    order = np.argsort(s, kind="stable")
    ss = s[order]
    ys = y[order]
    uniq = np.unique(ss)
    first = np.searchsorted(ss, uniq, side="left")
    last = np.searchsorted(ss, uniq, side="right") - 1
    rank2 = first + last + 2  # twice the midrank of each tie group (1-based ranks)
    group = np.searchsorted(uniq, ss)
    pos_counts = np.bincount(group[ys == 1], minlength=uniq.size)
    rank2_sum_pos = int((pos_counts * rank2).sum())
    num2 = rank2_sum_pos - p * (p + 1)
    return num2 / (2 * p * n)


@dataclass(frozen=True, eq=False)
class VideoScores:
    id: str
    frame_scores: np.ndarray
    frame_labels: np.ndarray


@dataclass(frozen=True, eq=False)
class EvalResult:
    auc: float
    num_frames: int
    per_video: tuple


def evaluate(params: ScorerParams, samples, macro: bool = False) -> EvalResult:
    """Score every test video and compute frame-level AUC.

    ``macro=True`` averages per-video AUCs over the videos whose frame labels
    contain both classes instead of pooling all frames.
    """
    samples = list(samples)
    if not samples:
        raise ValidationError("evaluation needs at least one sample")
    per = []
    for s in sorted(samples, key=lambda v: v.id):
        if s.frame_labels is None:
            raise ValidationError(f"sample {s.id!r} has no frame labels")
        labels = np.asarray(s.frame_labels, dtype=np.uint8)
        clip_len = labels.size // s.num_clips
        frame_scores = clip_to_frame_scores(score_segments(params, s.features), clip_len)
        per.append(VideoScores(s.id, frame_scores, labels))
    all_scores = np.concatenate([v.frame_scores for v in per])
    all_labels = np.concatenate([v.frame_labels for v in per])
    if macro:
        aucs = [
            roc_auc(v.frame_scores, v.frame_labels)
            for v in per
            if 0 < int(v.frame_labels.sum()) < v.frame_labels.size
        ]
        if not aucs:
            raise ValidationError("macro AUC undefined: no video has both label classes")
        auc = float(np.mean(aucs))
    else:
        auc = roc_auc(all_scores, all_labels)
    return EvalResult(auc=auc, num_frames=int(all_scores.size), per_video=tuple(per))


# ---------------------------------------------------------------------------
# ablation sweeps
# ---------------------------------------------------------------------------

def _grid_number(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"grid entry {raw!r} is not a number") from None


@dataclass(frozen=True, eq=False)
class AblationSpec:
    """One sweep: a grid of settings x seeds over a fixed world and trainer.

    Kinds:
      * ``lambda_sweep``: grid entries are scaling factors.
      * ``data_scale_sweep``: grid entries are real-data fractions; each one
        runs a real-only arm and a with-synthetic arm on the same subsample.
      * ``module_ablation``: grid entries name module combinations out of
        {baseline, vg, vg+vf, vg+ssls, vg+vf+ssls}.

    Building a spec checks every value. The grid is parsed once, into
    ``cells``: one ``(setting, value)`` per run of a seed, in row order,
    where the value is a lambda, a ``(fraction, with_synth)`` arm or a
    frozenset of module flags. A bad grid entry fails here, before any
    training.
    """

    kind: str
    seeds: tuple
    world: WorldConfig
    train: TrainConfig
    pairs: tuple
    counts: GenerationCounts
    grid: tuple = ()
    test_counts: tuple = (40, 40)
    filter_percentile: float = 95.0
    cells: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ABLATION_KINDS:
            raise ValidationError(f"unknown ablation kind {self.kind!r}")
        if not self.seeds:
            raise ValidationError("ablation needs at least one seed")
        if not self.pairs:
            raise ValidationError("ablation needs a description repository")
        if len(self.test_counts) != 2 or min(self.test_counts) < 1:
            raise ValidationError(f"test_counts must be two positive ints, got {self.test_counts}")
        check_percentile(self.filter_percentile)
        if not self.grid:
            defaults = {
                "lambda_sweep": LAMBDA_GRID_DEFAULT,
                "data_scale_sweep": DATA_SCALE_GRID_DEFAULT,
                "module_ablation": MODULE_GRID_DEFAULT,
            }
            object.__setattr__(self, "grid", defaults[self.kind])
        for name, values in (("seed", self.seeds), ("grid entry", self.grid)):
            duplicate = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if duplicate is not None:
                raise ValidationError(f"duplicate {name} {duplicate!r}: each cell must train once")
        object.__setattr__(self, "cells", self._parse_grid())
        if self.kind != "module_ablation" and self.counts.real_anomalous * self.counts.real_normal == 0:
            raise ValidationError("sweep needs real videos in both classes")

    def _parse_grid(self) -> tuple:
        if self.kind == "lambda_sweep":
            # replace() applies TrainConfig's rule to each: finite and >= 0
            lams = [replace(self.train, lam=_grid_number(raw)).lam for raw in self.grid]
            return tuple((f"lambda={raw}", lam) for raw, lam in zip(self.grid, lams))
        if self.kind == "data_scale_sweep":
            cells = []
            for raw in self.grid:
                fraction = _grid_number(raw)
                if not 0.0 < fraction <= 1.0:
                    raise ValidationError(f"data scale {raw!r} outside (0, 1]")
                cells.append((f"scale={raw}/real-only", (fraction, False)))
                cells.append((f"scale={raw}/with-synth", (fraction, True)))
            return tuple(cells)
        for name in self.grid:
            if name not in MODULE_GRID_DEFAULT:
                raise ValidationError(f"unknown module configuration {name!r}")
        return tuple((name, frozenset(name.split("+")) - {"baseline"}) for name in self.grid)


@dataclass(frozen=True)
class AblationRow:
    setting: str
    seed: int
    auc: float


@dataclass(frozen=True)
class AblationSummary:
    setting: str
    mean_auc: float
    std_auc: float
    n_seeds: int


def _seed_runs(spec: AblationSpec, pool, seed: int) -> list:
    """The (dataset, config) of each of ``spec.cells`` on one seed's pool."""
    config = replace(spec.train, seed=derived_int_seed(spec.train.seed, "ablate-train", seed))
    real = (pool.real_anomalous, pool.real_normal)
    synth = (pool.synth_anomalous, pool.synth_normal)
    no_synth = ((), ())
    if spec.kind == "lambda_sweep":
        mixed = mix_datasets(*real, *synth)
        return [(mixed, replace(config, lam=lam)) for _, lam in spec.cells]
    if spec.kind == "data_scale_sweep":
        # Subsample seed is arm-independent: both arms keep the same real videos.
        scale_seed = derived_int_seed("ablate-scale", seed)
        runs = []
        for _, (fraction, with_synth) in spec.cells:
            mixed = mix_datasets(*real, *(synth if with_synth else no_synth))
            runs.append((subsample_real(mixed, fraction, scale_seed), config))
        return runs
    runs = []
    for _, flags in spec.cells:
        cell_synth = synth if "vg" in flags else no_synth
        if "vf" in flags:  # every module combination with vf also has vg
            cell_synth = filter_synthetic(*real, *synth, spec.filter_percentile)[:2]
        cell_config = config if "ssls" in flags else replace(config, lam=1.0)
        runs.append((mix_datasets(*real, *cell_synth), cell_config))
    return runs


def run_ablation(spec: AblationSpec) -> list:
    """Run the grid and return one AblationRow per (setting, seed).

    The generated pool and test set are shared across settings within a
    seed, so per-seed comparisons between settings are paired. A seed's
    cells train in one lockstep :func:`train_runs` call, and each ends with
    the parameters it would reach trained alone; only one seed's pool is
    held at a time.
    """
    rows = {}
    for seed in spec.seeds:
        pool = generate_dataset(spec.world, spec.pairs, spec.counts, base_seed=("ablate-pool", seed))
        results = train_runs(_seed_runs(spec, pool, seed))
        del pool  # before the next seed's pool is generated
        test_sets = generate_dataset(
            spec.world, spec.pairs,
            GenerationCounts(real_anomalous=spec.test_counts[0], real_normal=spec.test_counts[1]),
            base_seed=("ablate-test", seed),
        )
        test_samples = [*test_sets.real_anomalous, *test_sets.real_normal]
        for (setting, _), result in zip(spec.cells, results):
            auc = evaluate(result.params, test_samples).auc
            rows[(setting, seed)] = AblationRow(setting, int(seed), auc)
    return [rows[(setting, seed)] for setting, _ in spec.cells for seed in spec.seeds]


def summarize_ablation(rows) -> list:
    grouped: dict[str, list] = {}
    for row in rows:
        grouped.setdefault(row.setting, []).append(row.auc)
    out = []
    for setting, aucs in grouped.items():
        arr = np.asarray(aucs, dtype=np.float64)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        out.append(AblationSummary(setting, float(arr.mean()), std, int(arr.size)))
    return out


def rows_to_csv(rows) -> str:
    lines = ["setting,seed,auc"]
    lines.extend(f"{r.setting},{r.seed},{r.auc!r}" for r in rows)
    return "\n".join(lines) + "\n"


def summary_to_csv(summaries) -> str:
    lines = ["setting,mean_auc,std_auc,n_seeds"]
    lines.extend(f"{s.setting},{s.mean_auc!r},{s.std_auc!r},{s.n_seeds}" for s in summaries)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# score curves
# ---------------------------------------------------------------------------

def render_score_curve_svg(frame_scores, frame_labels, title: str = "") -> str:
    """A small self-contained SVG: score polyline over shaded ground truth."""
    scores = np.asarray(frame_scores, dtype=np.float64)
    labels = np.asarray(frame_labels)
    width, height = 800.0, 220.0
    left, right, top, bottom = 45.0, 10.0, 20.0, 25.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    n = scores.size

    def x_at(i):
        return left + (plot_w * i / max(n - 1, 1))

    def y_at(v):
        return top + plot_h * (1.0 - min(max(v, 0.0), 1.0))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    # shade ground-truth anomalous regions
    i = 0
    while i < n:
        if labels[i] == 1:
            j = i
            while j + 1 < n and labels[j + 1] == 1:
                j += 1
            parts.append(
                f'<rect x="{x_at(i):.2f}" y="{top:.2f}" '
                f'width="{max(x_at(j) - x_at(i), 1.0):.2f}" height="{plot_h:.2f}" '
                f'fill="#f4b6b6"/>'
            )
            i = j + 1
        else:
            i += 1
    parts.append(
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        f'fill="none" stroke="#404040" stroke-width="1"/>'
    )
    points = " ".join(f"{x_at(i):.2f},{y_at(v):.2f}" for i, v in enumerate(scores))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>')
    for value in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{left - 6:.2f}" y="{y_at(value) + 4:.2f}" font-size="11" '
            f'font-family="monospace" text-anchor="end">{value:.1f}</text>'
        )
    if title:
        parts.append(
            f'<text x="{left:.2f}" y="{top - 6:.2f}" font-size="12" '
            f'font-family="monospace">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_score_curve(result: EvalResult, video_id: str, csv_path, svg_path=None) -> None:
    """Write one video's per-frame scores as CSV (and optionally an SVG plot)."""
    video = next((v for v in result.per_video if v.id == video_id), None)
    if video is None:
        raise ValidationError(f"unknown video id {video_id!r}")
    lines = ["frame,score,gt"]
    lines.extend(
        f"{i},{float(score)!r},{int(gt)}"
        for i, (score, gt) in enumerate(zip(video.frame_scores, video.frame_labels))
    )
    Path(csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if svg_path is not None:
        Path(svg_path).write_text(
            render_score_curve_svg(video.frame_scores, video.frame_labels, title=video_id),
            encoding="utf-8",
        )
