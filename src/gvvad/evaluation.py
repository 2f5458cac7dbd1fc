"""Frame-level ROC-AUC, score-curve export, and ablation sweeps.

The default evaluation protocol is micro-averaged: one ROC over every frame
of every test video, videos in ascending id order. A frame's score is its
clip's score, so the AUC is computed over clips, each standing for its
frames: a clip contributes its count of positive and of negative frames.
Rank sums use exact integer arithmetic over groups of tied scores, so the
result matches a pairwise count over the frames bit for bit and ties
contribute exactly one half.

A :class:`PreparedTestSet` lays a test set out once (samples in id order,
per-clip frame counts, forward chunks) and scores any number of scorers on
it in one forward per call, the trainer's (float32 features keep a
float32 first layer; any other dtype is cast to float64).
Validation during training and ablation sweeps read only its AUCs;
:func:`evaluate` also expands clip scores to frame scores, for the
per-video curves.
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
    _chunk_bags,
    _logits,
    filter_synthetic,
    train_runs,
)
from .numerics import derived_int_seed, is_binary, stable_sigmoid
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


def roc_auc(scores, labels, counts=None) -> float:
    """Rank-based (Mann-Whitney) AUC with midrank tie handling.

    Without ``counts`` item i is one frame and ``labels[i]`` its 0/1 label.
    With integer ``counts``, item i stands for ``counts[i]`` frames sharing
    its score, ``labels[i]`` of them positive. Equivalent to the fraction of
    (positive, negative) frame pairs ranked correctly, counting ties as one
    half; exact because the pair count is accumulated as an integer: each
    positive beats the negatives of every lower tie group and ties with the
    negatives of its own.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.ndim != 1 or s.shape != y.shape:
        raise ShapeError(f"scores {s.shape} and labels {y.shape} must be equal-length vectors")
    if s.size == 0:
        raise ValidationError("cannot compute AUC of empty inputs")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores contain non-finite values")
    if counts is None:
        if not is_binary(y):
            raise ValidationError("labels must be 0 or 1")
        pos = y.astype(np.int64)
        neg = 1 - pos
    else:
        c = np.asarray(counts)
        if c.shape != s.shape:
            raise ShapeError(f"counts {c.shape} must match scores {s.shape}")
        if not (y.dtype.kind in "iu" and c.dtype.kind in "iu" and (y >= 0).all() and (y <= c).all()):
            raise ValidationError("with counts, labels must be integers from 0 to each item's count")
        pos = y.astype(np.int64)
        neg = c.astype(np.int64) - pos
    p = int(pos.sum())
    n = int(neg.sum())
    if p == 0 or n == 0:
        raise ValidationError("AUC undefined: only one label class present")

    order = np.argsort(s)
    ss = s[order]
    groups = np.flatnonzero(np.concatenate(([True], ss[1:] != ss[:-1])))  # first item of each tie group
    pos_g = np.add.reduceat(pos[order], groups)
    neg_g = np.add.reduceat(neg[order], groups)
    below = neg_g.cumsum() - neg_g  # negatives in lower groups
    num2 = int((pos_g * (2 * below + neg_g)).sum())
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


class PreparedTestSet:
    """A labelled test set laid out once, to score many scorers on.

    Holds the samples in ascending id order, each clip's positive and total
    frame counts, and the forward chunks: the trainer's rule, at most
    ``_CHUNK_BYTES`` of float64 features or one bag per chunk. The features
    are not copied, nor unified to one dtype. A scoring call is one call of
    the trainer's forward (:func:`gvvad.milcore._forward`) over all its
    scorers, under the trainer's dtype and copy rule, decided from every
    sample: a set whose features are all float32 keeps a float32 first
    layer, and a set that mixes dtypes is cast to float64. Each chunk goes
    through one matmul per layer per scorer, and the bias adds and ReLU run
    once over every scorer's rows. Building it fails on an empty set, a sample
    without frame labels or of a feature dim other than ``dim``, and a set
    whose frames are all of one class; scoring fails, naming the video,
    where a clip's first layer overflows.
    """

    def __init__(self, samples, dim: int):
        self.samples = sorted(samples, key=lambda v: v.id)
        if not self.samples:
            raise ValidationError("evaluation needs at least one sample")
        for s in self.samples:
            if s.frame_labels is None:
                raise ValidationError(f"sample {s.id!r} has no frame labels")
            if s.dim != dim:
                raise ShapeError(f"features of {s.id!r} have dim {s.dim}, scorer has {dim}")
        self.dim = dim
        self.features = [np.asarray(s.features) for s in self.samples]
        clips = np.array([len(f) for f in self.features])
        self.clip_bounds = [0, *clips.cumsum().tolist()]  # video v owns clips [bounds[v], bounds[v + 1])
        frames = [np.asarray(s.frame_labels).reshape(len(f), -1) for s, f in zip(self.samples, self.features)]
        self.clip_frames = np.concatenate([np.full(len(f), f.shape[1]) for f in frames])
        self.clip_positives = np.concatenate([f.sum(axis=1, dtype=np.int64) for f in frames])
        self.num_frames = int(self.clip_frames.sum())
        if not 0 < int(self.clip_positives.sum()) < self.num_frames:
            raise ValidationError("AUC undefined: only one label class present")
        self.chunk_bags = _chunk_bags(int(clips.max()), dim)

    def clip_scores(self, params) -> np.ndarray:
        """(len(params), clips) score of every clip, in id order, under each
        ScorerParams of ``params``; the scorers must share their layer sizes."""
        for p in params:
            if p.dim != self.dim:
                raise ShapeError(f"scorer dim {p.dim} does not match the test set's {self.dim}")
        scores = stable_sigmoid(_logits(params, self.features, self.chunk_bags))
        if np.isnan(scores.sum()):  # the forward scores a clip NaN where its first layer overflows
            clip = int(np.isnan(scores).any(axis=0).argmax())
            video = self.samples[int(np.searchsorted(self.clip_bounds, clip, side="right")) - 1]
            raise ValidationError(f"clip scores of video {video.id!r} are non-finite: the first layer overflows on them")
        return scores

    def auc(self, clip_scores, macro: bool = False) -> float:
        """AUC of one scorer's clip scores: micro over all frames, or with
        ``macro`` the mean AUC of the videos whose frames hold both classes."""
        if not macro:
            return roc_auc(clip_scores, self.clip_positives, self.clip_frames)
        aucs = []
        for lo, hi in zip(self.clip_bounds, self.clip_bounds[1:]):
            if 0 < self.clip_positives[lo:hi].sum() < self.clip_frames[lo:hi].sum():
                aucs.append(roc_auc(clip_scores[lo:hi], self.clip_positives[lo:hi], self.clip_frames[lo:hi]))
        if not aucs:
            raise ValidationError("macro AUC undefined: no video has both label classes")
        return float(np.mean(aucs))

    def aucs(self, params) -> list:
        """The micro AUC of each ScorerParams of ``params``, scored in one pass."""
        return [self.auc(scores) for scores in self.clip_scores(params)]


def evaluate(params: ScorerParams, samples, macro: bool = False) -> EvalResult:
    """Score every test video and compute frame-level AUC.

    The AUC is computed over clips, each standing for its frames, and equals
    the ROC-AUC over the frames bit for bit. ``macro=True`` averages
    per-video AUCs over the videos whose frame labels contain both classes
    instead of pooling all frames. Frame scores (each clip's score repeated
    over its frames) are built only for ``per_video``.
    """
    test_set = PreparedTestSet(samples, params.dim)
    scores = test_set.clip_scores([params])[0]
    per_video = tuple(
        VideoScores(s.id, clip_to_frame_scores(scores[lo:hi], int(test_set.clip_frames[lo])),
                    np.asarray(s.frame_labels, dtype=np.uint8))
        for s, lo, hi in zip(test_set.samples, test_set.clip_bounds, test_set.clip_bounds[1:])
    )
    return EvalResult(auc=test_set.auc(scores, macro), num_frames=test_set.num_frames, per_video=per_video)


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
        {baseline, vg, vg+vf, vg+ssls, vg+vf+ssls}; vf keeps the synthetic
        videos within the fixed ``milcore.FILTER_PERCENTILE`` (95th
        percentile) of the real class distances, filtered once per seed.

    Building a spec checks every value. The grid is parsed once, into
    ``cells``: one ``(setting, (lam, fraction, synthetic))`` per run of a
    seed, in row order, of any kind. A cell trains at ``lam`` (None keeps
    ``train.lam``) on the real videos subsampled to ``fraction``, mixed with
    the synthetic pool it names: ``none``, ``all`` or the vf-``kept`` one.
    A bad grid entry, or a cell that would meet a class without videos,
    fails here, before any training.
    """

    kind: str
    seeds: tuple
    world: WorldConfig
    train: TrainConfig
    pairs: tuple
    counts: GenerationCounts
    grid: tuple = ()
    test_counts: tuple = (40, 40)
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
        c = self.counts
        noun = "module configuration" if self.kind == "module_ablation" else "sweep cell"
        for setting, (_, _, synthetic) in self.cells:
            # "none" cells train on the real videos alone and vf filters
            # against them; a subsample keeps one of every class that has one
            only_real = synthetic != "all"
            videos = (c.real_anomalous, c.real_normal) if only_real else (
                c.real_anomalous + c.synth_anomalous, c.real_normal + c.synth_normal)
            if min(videos) == 0:
                raise ValidationError(f"{noun} {setting!r} needs {'real ' * only_real}videos in both "
                                      f"classes; counts give {videos[0]} anomalous and {videos[1]} normal")

    def _parse_grid(self) -> tuple:
        if self.kind == "lambda_sweep":
            # replace() applies TrainConfig's rule to each: finite and >= 0
            lams = [replace(self.train, lam=_grid_number(raw)).lam for raw in self.grid]
            return tuple((f"lambda={raw}", (lam, 1.0, "all")) for raw, lam in zip(self.grid, lams))
        if self.kind == "data_scale_sweep":
            cells = []
            for raw in self.grid:
                fraction = _grid_number(raw)
                if not 0.0 < fraction <= 1.0:
                    raise ValidationError(f"data scale {raw!r} outside (0, 1]")
                cells.append((f"scale={raw}/real-only", (None, fraction, "none")))
                cells.append((f"scale={raw}/with-synth", (None, fraction, "all")))
            return tuple(cells)
        cells = []
        for name in self.grid:
            if name not in MODULE_GRID_DEFAULT:
                raise ValidationError(f"unknown module configuration {name!r}")
            # a cell without ssls trains at lambda = 1
            synthetic = "kept" if "vf" in name else "all" if "vg" in name else "none"
            cells.append((name, (None if "ssls" in name else 1.0, 1.0, synthetic)))
        return tuple(cells)


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
    synth = {"none": ((), ()), "all": (pool.synth_anomalous, pool.synth_normal)}
    if any(name == "kept" for _, (_, _, name) in spec.cells):
        synth["kept"] = filter_synthetic(*real, *synth["all"])  # once per seed, for every vf cell
    # The subsample seed is cell-independent: cells of one fraction keep the same real videos.
    scale_seed = derived_int_seed("ablate-scale", seed)
    return [(subsample_real(mix_datasets(*real, *synth[name]), fraction, scale_seed),
             config if lam is None else replace(config, lam=lam))
            for _, (lam, fraction, name) in spec.cells]


def run_ablation(spec: AblationSpec) -> list:
    """Run the grid and return one AblationRow per (setting, seed).

    The generated pool and test set are shared across settings within a
    seed, so per-seed comparisons between settings are paired. A seed's
    cells train in one lockstep :func:`train_runs` call, and each ends with
    the parameters it would reach trained alone; its test set is prepared
    once and scores every cell, each AUC equal to :func:`evaluate`'s. Only
    one seed's pool is held at a time.
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
        test_set = PreparedTestSet([*test_sets.real_anomalous, *test_sets.real_normal], spec.world.dim)
        for (setting, _), auc in zip(spec.cells, test_set.aucs([result.params for result in results])):
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
        # escaped here: importing xml.sax.saxutils or html for it would add
        # 0.3 to 2 MB to every process that imports this module
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{left:.2f}" y="{top - 6:.2f}" font-size="12" '
            f'font-family="monospace">{text}</text>'
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
