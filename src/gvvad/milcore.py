"""Per-clip scorer, top-k bag objective, synthetic-loss scaling, and training.

The scorer is a single-hidden-layer network applied independently to every
clip feature vector. A bag (video) is scored by averaging its k highest clip
scores; each training step consumes (anomalous, normal) bag pairs and
optimizes binary cross-entropy on the two bag scores. Losses of pairs that
contain synthetic-source samples are multiplied by a scaling factor before
summation, which bounds how hard the synthetic domain can pull on the model.

Gradients are exact analytic derivatives of the scaled batch loss. The top-k
selection is treated as constant within a step (the standard subgradient
choice for max-pooling objectives), so gradient flows only to selected clips.
The batch objective is built from :func:`topk_mean`,
:func:`gvvad.numerics.bce` and :func:`ssls_scale`; no other code implements
those rules.

Training is lockstep: :func:`train_runs` trains R independent runs (the cells
of a sweep) as one stacked program, and :func:`train` is its R = 1 case. The
runs share one TrainConfig except for lambda and the seed, and the
parameters of all runs live in one (R, P) array. What a step needs of the
schedule alone (which bag belongs to which run and (run, source) group,
each bag's clip rows, k, label and pair source, the forward's groups, the
top-k row positions, the backward's buckets and the pair each bag's loss
adds to) is laid out ahead of the steps by :func:`_layout_window`, in one
vectorized pass per window of ``_LAYOUT_STEPS`` steps; the one-run :func:`total_loss_and_grads` lays
out its one step the same way. A step then does only what depends on the
parameters. The dtype and copy rule, applied in :func:`_forward` alone: a
forward (one step, or one test set) whose bags are all float32 computes
its first layer in float32, against w1 rounded to float32 once per
forward, and writes each product into the float64 hidden activations; any
other forward is cast to float64. Either way the bags are copied (and
cast) in one piece when their rows fit ``_CHUNK_BYTES`` as float64, else
one group at a time, and a float32 group of one bag is used in place; a
one-piece copy may span runs. Callers hand :func:`_forward` groups, never
copies. Everything after the first layer's product is float64 but the
first layer's weight gradient: a plan has one feature dtype
(``_Plan.dtype``), and when it is float32 a step keeps its top-k rows
float32 and takes the w1 gradient as one float32 product of them and the
hidden gradients rounded to float32, copied into the float64 gradient.
The weights, the losses, every other gradient and Adam stay float64. A clip
whose float32 first layer overflows past the ReLU scores NaN. numpy's
overflow and invalid warnings are silenced around the forward by its
callers, so that the refusal of such a clip is the one report: the
trainer's loop holds one ``np.errstate`` for all its steps, and
:func:`_logits` and the one-run :func:`total_loss_and_grads` enter their
own. Only the matmuls keep a run's shapes: a run's bags go in
chunks of its own ``_Plan.chunk_bags``, exactly as when the run trains
alone, because BLAS rounding depends on the matrix shape. Every forward
is one loop per layer over groups: a group takes one stacked product per
layer, whose slices are the BLAS calls the runs' own matmuls of their
chunks would make. In a step copied in one piece, consecutive runs whose
chunks have equal row counts form a group, each run reading its own rows;
in a step copied by chunks, each chunk is a group of its own, so no group
spans a copy. A test set's chunk is one group of all its scorers, which
read the chunk's rows by broadcasting. Each group adds its runs' b1 and b2
to the rows it wrote; the ReLU runs once over all rows of the step. Sigmoid
and the NaN check follow, then top-k means, BCE and loss scaling, each
rule called once per step over all runs. The top-k rows' features are one
take from the one-piece copy that :func:`_forward` hands back (one take
per bag for a step copied by chunks). The backward covers only those rows, in buckets
of the step's (run, source) groups with equal selected row counts, never
padded: one call per block per bucket, whose stacked product makes for
each group the BLAS call a product of its own would. Each group has a
gradient slot, an empty group's holding zeros, and every run's gradient
is ``real + lambda * synthetic``: one take of the runs' synthetic slots,
scaled by their lambdas, plus one take of their real slots. Runs are
ordered by schedule length and a run leaves the stack when its schedule
ends, so every stacked run takes every step: Adam updates the stack in
place with one shared step count, and a finished run's count stays at its
own number of steps. Each run ends bit-identical to the same run trained
alone. The same forward scores test sets
(:class:`gvvad.evaluation.PreparedTestSet`) and :func:`score_segments`.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .datamodel import fnv1a64, read_checked, write_checked  # fnv1a64 unused: perfbench's checksum test patches it
from .errors import DataFormatError, ShapeError, ValidationError
from .kvformat import parse_float, parse_int, parse_str, read_fields, write_fields
from .numerics import (
    DEFAULT_CLAMP_EPS, AdamState, adam_step, bce, finite_diff_grad, is_binary, rng_from, stable_sigmoid,
)

PARAMS_MAGIC = b"GVPM"

_PARAM_KEYS = ("w1", "b1", "w2", "b2")


# ---------------------------------------------------------------------------
# scorer
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ScorerParams:
    """Weights of the clip scorer: dim -> hidden (relu) -> 1 (sigmoid)."""

    w1: np.ndarray  # (hidden, dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: np.ndarray  # scalar, shape ()

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64)
        if b2.size != 1:
            raise ShapeError(f"b2 must hold one value, got shape {b2.shape}")
        self.b2 = b2.reshape(())
        if self.w1.ndim != 2 or 0 in self.w1.shape:
            raise ShapeError(f"w1 must be 2-D with no empty dimension, got shape {self.w1.shape}")
        hidden = self.w1.shape[0]
        if self.b1.shape != (hidden,) or self.w2.shape != (hidden,):
            raise ShapeError(
                f"b1 {self.b1.shape} and w2 {self.w2.shape} must both be ({hidden},)"
            )
        self.check_finite()

    def check_finite(self) -> None:
        for name in _PARAM_KEYS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"parameter {name} contains non-finite values")

    @property
    def dim(self) -> int:
        return int(self.w1.shape[1])

    @property
    def hidden(self) -> int:
        return int(self.w1.shape[0])

    @classmethod
    def init(cls, dim: int, hidden: int, rng: np.random.Generator) -> "ScorerParams":
        if dim < 1 or hidden < 1:
            raise ValidationError(f"dim and hidden must be >= 1, got {dim}, {hidden}")
        return cls(
            w1=rng.normal(0.0, math.sqrt(2.0 / dim), size=(hidden, dim)),
            b1=np.zeros(hidden),
            w2=rng.normal(0.0, math.sqrt(1.0 / hidden), size=hidden),
            b2=np.zeros(()),
        )


def score_segments(params: ScorerParams, features) -> np.ndarray:
    """Anomaly score in (0,1) per clip; clips are scored independently.
    Clips whose float32 first layer overflows are refused, as evaluation
    refuses them."""
    x = np.asarray(features)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ShapeError(f"features {x.shape} do not match scorer dim {params.dim}")
    scores = stable_sigmoid(_logits([params], [x], 1)[0])
    if np.isnan(scores.sum()):
        raise ValidationError("clip scores are non-finite: the first layer overflows on them")
    return scores


def _param_views(vec: np.ndarray, dim: int, hidden: int) -> dict:
    """Block name -> view of the flat vector ``vec`` with that block's shape."""
    if vec.size != hidden * (dim + 2) + 1:
        raise ShapeError(f"vector of size {vec.size} cannot fill a {dim}->{hidden}->1 scorer")
    return {name: block[0, ...] for name, block in zip(_PARAM_KEYS, _stacked_views(vec[None], dim, hidden))}


def _stacked_views(flat: np.ndarray, dim: int, hidden: int) -> tuple:
    """Per-block views of stacked flat vectors ``flat`` (n, P), each block
    with a leading run axis: (n, hidden, dim), (n, hidden), (n, hidden), (n,).
    This is the parameter layout: the blocks of ``_PARAM_KEYS`` in order,
    each row-major."""
    w1_end = hidden * dim
    return (flat[:, :w1_end].reshape(len(flat), hidden, dim), flat[:, w1_end:w1_end + hidden],
            flat[:, w1_end + hidden:-1], flat[:, -1])


def _rule_number(rule: str, arg: str, parse):
    try:
        return parse(arg)
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise ValidationError(f"k rule {rule!r}: {arg!r} is not {what}") from None


def resolve_k(rule: str, num_clips: int) -> int:
    """Map a top-k policy string to a concrete k for a bag of ``num_clips``.

    Policies: ``div:<m>`` (k = max(1, T // m)), ``fixed:<k>`` (clamped to T),
    ``frac:<f>`` (k = max(1, floor(f * T))).
    """
    if num_clips < 1:
        raise ValidationError(f"bag must contain at least one clip, got {num_clips}")
    kind, _, arg = rule.partition(":")
    if kind == "div":
        divisor = _rule_number(rule, arg, int)
        if divisor < 1:
            raise ValidationError(f"k rule {rule!r}: divisor must be >= 1")
        return max(1, num_clips // divisor)
    if kind == "fixed":
        k = _rule_number(rule, arg, int)
        if k < 1:
            raise ValidationError(f"k rule {rule!r}: k must be >= 1")
        return min(k, num_clips)
    if kind == "frac":
        f = _rule_number(rule, arg, float)
        if not 0.0 < f <= 1.0:
            raise ValidationError(f"k rule {rule!r}: fraction must be in (0, 1]")
        return max(1, math.floor(round(f * num_clips, 9)))  # round: 0.57 * 100 is 56.99999999999999
    raise ValidationError(f"unknown k rule {rule!r}")


def topk_mean(scores, k, return_indices: bool = False):
    """Mean of the k largest scores, summed in descending-score order.

    ``scores`` is one bag's 1-D clip scores and ``k`` an int, or a 2-D array
    with one bag per row, padded with -inf, and ``k`` one int per row; one
    bag is the one-row case. Each row's mean equals ``np.sum`` of its k
    values in descending-score order: rows with k < 8 are summed over their
    first 7 ranked scores with zeros past k, which numpy adds in order; rows
    with k >= 8, where numpy switches to its unrolled pairwise sum, are
    summed as one (rows, k) block per k.

    With ``return_indices`` it returns ``(mean, indices)``: for one bag the
    indices of its k selected clips, for rows each row's clips in
    descending-score order, the first k of them selected.

    NaN scores are refused, and so is a k below 1 or past its bag's clips.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim not in (1, 2):
        raise ShapeError(f"scores must be 1-D or 2-D, got shape {s.shape}")
    rows = s.reshape(-1, s.shape[-1])
    ks = np.asarray(k).reshape(-1) if s.ndim == 1 else np.asarray(k)
    width = rows.shape[1]
    k_list = ks.tolist() if ks.shape == (len(rows),) else [0]
    # k is checked against the ranked scores, not a count of clips: a mean
    # that reaches a row's -inf padding is -inf, or NaN next to a +inf
    # score. Clips are counted only then, to tell such a k from a mean of
    # finite scores that overflowed.
    k_min, k_max = min(k_list), max(k_list)
    in_range = 1 <= k_min and k_max <= width
    if in_range:
        order = (-rows).argsort(axis=1, kind="stable")  # descending; ties keep the lower clip first
        ranked = rows.take(order + np.arange(0, rows.size, width)[:, None])
        if math.isnan(ranked[:, -1].max()):  # NaN sorts last
            raise ValidationError("scores must not be NaN")
        if k_min < 8:
            head = min(7, width)
            means = np.where(np.arange(head) < ks[:, None], ranked[:, :head], 0.0).sum(axis=1) / ks
        else:
            means = np.empty(len(ks))
        if k_max >= 8:
            for kk in sorted({kk for kk in k_list if kk >= 8}):
                at = np.flatnonzero(ks == kk)
                means[at] = ranked[at, :kk].sum(axis=1) / kk
        in_range = s.ndim == 1 or means.min() > -np.inf
    if not in_range:
        clips = np.array([len(s)]) if s.ndim == 1 else (s > -np.inf).sum(axis=1)
        if ks.shape != clips.shape or not ((ks >= 1) & (ks <= clips)).all():
            raise ValidationError(f"k={k} out of range for {clips[0] if s.ndim == 1 else clips} clips")
    if s.ndim == 1:
        means, order = float(means[0]), order[0, :k]
    return (means, order) if return_indices else means


# ---------------------------------------------------------------------------
# loss scaling
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LossBreakdown:
    """Per-pair raw and scaled losses plus the summed training objective.

    scaled[..., i] equals raw[..., i] exactly for real pairs and
    lambda * raw[..., i] for synthetic ones; ``total`` is the left-to-right
    sum of ``scaled`` in pair order. One run has 1-D arrays and a float
    total; R stacked runs have (R, pairs) arrays and R totals.
    """

    raw: np.ndarray
    scaled: np.ndarray
    total: float | np.ndarray


def _left_fold(values: np.ndarray):
    """Left-to-right sum over the last axis, starting from 0.0. The first
    column plus 0.0 is 0.0 plus it, bit for bit, -0.0 included."""
    if not values.shape[-1]:
        return np.zeros(values.shape[:-1])
    total = values[..., 0] + 0.0
    for j in range(1, values.shape[-1]):
        total += values[..., j]
    return total


def ssls_scale(raw_losses, source_labels, lam) -> LossBreakdown:
    """Apply the synthetic-sample scaling rule to raw pair losses.

    One run: 1-D losses and source labels with a float ``lam``. R stacked
    runs: (R, pairs) losses and labels with one ``lam`` per run.
    """
    raw = np.asarray(raw_losses, dtype=np.float64)
    ys = np.asarray(source_labels)
    lam = np.asarray(lam, dtype=np.float64)
    if raw.ndim not in (1, 2) or raw.shape != ys.shape:
        raise ShapeError(f"losses {raw.shape} and source labels {ys.shape} must be equal-shape 1-D or 2-D arrays")
    if lam.shape != raw.shape[:-1]:
        raise ShapeError(f"scaling factors {lam.shape} do not match losses {raw.shape}")
    if not is_binary(ys):
        raise ValidationError("source labels must be 0 or 1")
    lams = lam.ravel().tolist()
    if not all(0 <= v < math.inf for v in lams):  # NaN fails both bounds
        rule = ">= 0" if any(v < 0 for v in lams) else "finite and >= 0"
        raise ValidationError(f"scaling factor must be {rule}, got {lam}")
    scaled = np.where(ys.astype(bool, copy=False), lam[..., None] * raw, raw)  # binary: nonzero is 1
    total = _left_fold(scaled)
    return LossBreakdown(raw=raw, scaled=scaled, total=float(total) if raw.ndim == 1 else total)


# ---------------------------------------------------------------------------
# training configuration
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """Training knobs; ``lam`` is the synthetic-sample loss scale, and
    ``lam = 1`` trains without scaling. The optimizer and loss knobs default
    to Adam's and bce's own defaults."""

    lam: float = 0.5
    k_rule: str = "div:16"
    lr: float = AdamState.lr
    weight_decay: float = AdamState.weight_decay
    epochs: int = 20
    batch_pairs: int = 8
    clamp_eps: float = DEFAULT_CLAMP_EPS
    hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValidationError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_pairs < 1:
            raise ValidationError(f"batch_pairs must be >= 1, got {self.batch_pairs}")
        if self.hidden < 1:
            raise ValidationError(f"hidden must be >= 1, got {self.hidden}")
        if not 0.0 < self.clamp_eps < 0.5:
            raise ValidationError(f"clamp_eps must be in (0, 0.5), got {self.clamp_eps}")
        resolve_k(self.k_rule, 16)  # surface bad rules early


TRAIN_CONFIG_KEYS = {
    "lambda": ("lam", parse_float),
    "k_rule": ("k_rule", parse_str),
    "lr": ("lr", parse_float),
    "weight_decay": ("weight_decay", parse_float),
    "epochs": ("epochs", parse_int),
    "batch_pairs": ("batch_pairs", parse_int),
    "clamp_eps": ("clamp_eps", parse_float),
    "hidden": ("hidden", parse_int),
    "seed": ("seed", parse_int),
}


def train_config_to_kv(config: TrainConfig) -> dict:
    return write_fields(config, TRAIN_CONFIG_KEYS)


def train_config_from_kv(values: dict, origin: str = "<config>") -> TrainConfig:
    return TrainConfig(**read_fields(values, TRAIN_CONFIG_KEYS, origin, "train config"))


# ---------------------------------------------------------------------------
# batch objective
# ---------------------------------------------------------------------------

# Features per forward chunk and per one-piece copy, counted as float64
# whatever their dtype, so a chunk's matmul shapes do not depend on it: one
# 220-clip, 2048-dim bag (3.6 MB) fits, two do not, so wide inputs never
# hold more than about one bag's copy at a time, and a float32 one-bag
# chunk needs no copy.
_CHUNK_BYTES = 4 << 20


def _chunk_bags(max_clips: int, dim: int) -> int:
    """Bags per forward chunk when the largest bag has ``max_clips`` clips:
    at most ``_CHUNK_BYTES`` of float64 features, or one bag."""
    return max(1, _CHUNK_BYTES // (max_clips * dim * 8))


def _one_piece(rows, dim: int):
    """The copy rule (module docstring) for forwards of ``rows`` clips."""
    return rows * (8 * dim) <= _CHUNK_BYTES


def _forward(bags, groups, weights, dtype, h, logits):
    """Write the hidden activation and the logit of every output row into
    ``h`` (rows, hidden) and ``logits`` (rows,), under the weights of the
    run whose product writes it. Returns the one-piece copy of ``bags``
    (rows, dim), or None when they were copied one group at a time.

    ``weights`` are (w1, b1, w2, b2) with a leading run axis, and ``dtype``
    is the bags' common dtype (None when they have none). ``bags`` are the
    feature arrays in row order, and ``groups`` are (first bag, end bag,
    first row, end row, first output row, end output row, first run, end
    run). A group takes one stacked matmul per layer, each run's slice of
    it writing ``n`` output rows, run by run. Its rows enter as
    ``rows.reshape(-1, n, dim)``: when they hold ``n`` rows per run (a
    training step), each run reads its own; when they hold ``n`` in all (a
    test-set chunk), every run reads them, by broadcasting. Every slice is
    exactly the matmul that run would make of those rows alone: BLAS
    rounding depends on the matrix shape, so a run's result would otherwise
    depend on what it is stacked with. The dtype and copy rule (module
    docstring) is applied here alone: float32 bags take a float32 first
    layer, its result written straight into the float64 ``h``; any others
    are cast to float64. All ``bags`` are copied in one piece, or each
    group's bags in turn. Each group adds its runs' biases to the rows it
    just wrote; the ReLU runs once over all rows. The caller silences
    numpy's overflow and invalid warnings: a float32 overflow shows as a NaN
    logit.
    """
    w1, b1, w2, b2 = weights
    float32 = dtype == np.float32
    dtype = np.float32 if float32 else np.float64
    w1 = w1.astype(np.float32) if float32 else w1
    dim, hidden = w1.shape[-1], h.shape[1]
    x = np.concatenate(bags, dtype=dtype) if _one_piece(groups[-1][3], dim) else None
    for first_bag, end_bag, lo, hi, out_lo, out_hi, r0, r1 in groups:
        if x is not None:
            rows = x[lo:hi]
        elif float32 and end_bag - first_bag == 1:
            rows = bags[first_bag]
        else:
            rows = np.concatenate(bags[first_bag:end_bag], dtype=dtype)
        z = h[out_lo:out_hi].reshape(r1 - r0, -1, hidden)
        np.matmul(rows.reshape(-1, z.shape[1], dim), w1[r0:r1].transpose(0, 2, 1), out=z)
        z += b1[r0:r1, None]
        del rows  # before the next group's copy
    np.maximum(h, 0.0, out=h)
    for *_, out_lo, out_hi, r0, r1 in groups:
        y = logits[out_lo:out_hi].reshape(r1 - r0, -1, 1)
        np.matmul(h[out_lo:out_hi].reshape(r1 - r0, -1, hidden), w2[r0:r1, :, None], out=y)
        y += b2[r0:r1, None, None]
    # A float32 product can overflow where a float64 one does not; the
    # ReLU clears one at -inf, and any other reaches the logit. Such a clip
    # scores NaN, which training and evaluation refuse.
    if float32 and not math.isfinite(logits.sum()):
        logits[~np.isfinite(logits)] = np.nan
    return x


def _logits(params, bags: list, chunk_bags: int) -> np.ndarray:
    """(len(params), clips) logit of every clip of ``bags`` (feature arrays,
    in order) under each ScorerParams of ``params``, which share their layer
    sizes. The bags go in chunks of ``chunk_bags``, and each chunk is one
    group of every scorer, all reading the chunk's rows: the forward's
    output rows are chunk by chunk, each chunk's scorer by scorer."""
    dim, hidden = params[0].dim, params[0].hidden
    if any((p.dim, p.hidden) != (dim, hidden) for p in params):
        raise ShapeError("scorers scored together must share their layer sizes")
    weights = _stacked_views(np.stack([params_to_vector(p) for p in params]), dim, hidden)
    rows = [0, *itertools.accumulate(map(len, bags))]
    n_runs, n = len(params), rows[-1]
    if not n:  # rows.reshape(-1, 0, dim) has no shape
        return np.empty((n_runs, 0))
    chunk_at = [*range(0, len(bags), chunk_bags), len(bags)]
    groups = [(b0, b1, rows[b0], rows[b1], n_runs * rows[b0], n_runs * rows[b1], 0, n_runs)
              for b0, b1 in zip(chunk_at, chunk_at[1:])]
    dtypes = {bag.dtype for bag in bags}
    h, logits = np.empty((n_runs * n, hidden)), np.empty(n_runs * n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a NaN logit
        _forward(bags, groups, weights, dtypes.pop() if len(dtypes) == 1 else None, h, logits)
    return np.concatenate([logits[lo:hi].reshape(n_runs, -1) for *_, lo, hi, _, _ in groups], axis=1)


@dataclass(eq=False)
class _Plan:
    """What the batch objective needs besides the parameters.

    The bags of every run live in one table, one entry per sample: its
    features (in the pool's common dtype: only bags of another dtype are
    copied), id, clip count, k, label and source. Per run, in stack order:
    lambda and how many bags go into one forward chunk. The BCE clamp is
    the runs' shared one.
    """

    features: list
    ids: list
    clips: np.ndarray
    k: np.ndarray
    y: np.ndarray  # bool, so the per-step label checks pass at once
    synthetic: np.ndarray  # bool
    lam: np.ndarray
    clamp_eps: float
    chunk_bags: np.ndarray
    dim: int
    hidden: int
    dtype: np.dtype  # of every entry of features


class _BagTable:
    """Collects the distinct samples that a plan draws from."""

    def __init__(self):
        self.index = {}
        self.samples = []

    def add(self, sample) -> int:
        if id(sample) not in self.index:
            self.index[id(sample)] = len(self.samples)
            self.samples.append(sample)
        return self.index[id(sample)]

    def plan(self, config, lam, run_bags, dim: int, hidden: int) -> _Plan:
        """The plan for runs that share ``config``, with one lambda per run in
        ``lam``, each drawing on the bag indices in ``run_bags``."""
        for s in self.samples:
            if s.dim != dim:
                raise ShapeError(f"features of {s.id!r} have dim {s.dim}, scorer has {dim}")
        features = [np.asarray(s.features) for s in self.samples]
        dtype = np.result_type(*{f.dtype for f in features})
        features = [f.astype(dtype, copy=False) for f in features]  # a mixed pool trains as float64 at every step
        clips = np.array([len(f) for f in features])
        return _Plan(
            features=features,
            ids=[s.id for s in self.samples],
            clips=clips,
            k=np.array([resolve_k(config.k_rule, s.num_clips) for s in self.samples]),
            y=np.array([s.y == 1 for s in self.samples]),
            synthetic=np.array([s.y_s == 1 for s in self.samples]),
            lam=np.array(lam, dtype=np.float64),
            clamp_eps=config.clamp_eps,
            chunk_bags=np.array([_chunk_bags(int(clips[bags].max()), dim) for bags in run_bags]),
            dim=dim,
            hidden=hidden,
            dtype=dtype,
        )


# Lockstep steps whose layouts are built in one pass: enough to spread the
# pass's few dozen numpy calls thin, few enough that a window stays small
# (about 0.4 MB for 64 steps of five runs of 2 pairs). Layout time a step on
# a 2-core x86 host, at 16, 64 and 128 steps: 12.2, 8.3 and 7.8 us on
# criterion 7's five-run schedule, 17.0, 11.1 and 9.3 us on a one-run one.
_LAYOUT_STEPS = 64


@dataclass(eq=False)
class _StepLayout:
    """The part of one lockstep step that depends on the schedule alone.

    Bags are in (run, source) group order g = 2 * run + source, each group
    in slot order, so a pair's anomalous bag comes before its normal one;
    rows count the step's clips, bag by bag, from 0. A selected row is one
    of a bag's first k ranks. The backward takes the selected rows bucket
    by bucket: a bucket holds the step's groups with one selected row
    count, in group order, and the buckets go by ascending row count. Each
    group's rows lie together, its bags in order and each bag's ranks in
    order; its gradient has one slot, counted in the same order.
    """

    bags: list  # per bag: its features
    groups: list  # the forward's groups of equal-size chunks of consecutive runs, as :func:`_forward` takes them
    videos: np.ndarray  # per bag: its index in the plan's table
    is_clip: np.ndarray  # (bags, most clips in a bag): the padded entries that hold a clip
    k: np.ndarray
    y: np.ndarray
    pair_at: np.ndarray  # per bag: its pair's flat index in the (runs, pairs) pair losses
    pairs: tuple  # (runs, pairs)
    synthetic: np.ndarray  # (runs, pairs) pair sources, bool like y
    sel_order: np.ndarray  # per selected row: its flat index in the padded clip order
    sel_start: np.ndarray  # per selected row: its bag's first row
    sel_bag: np.ndarray  # per selected row: its bag
    sel_run: np.ndarray  # per selected row: its run
    buckets: list  # (first, end) selected row and (first, end) gradient slot of each bucket
    grad_slots: np.ndarray  # (2, runs): each run's real, then synthetic, group's gradient slot, past the last if empty


def _layout_window(plan: _Plan, bags: np.ndarray):
    """Yield the :class:`_StepLayout` of each step of ``bags`` (steps, runs,
    slots; pair j in slots 2j and 2j + 1, -1 for no bag), all built in one
    pass. A pair is synthetic when either bag is; the runs that step are
    the ones with a bag in slot 0."""
    n_steps, n_runs, n_slots = bags.shape
    has_bag = bags >= 0
    from_synthetic = plan.synthetic[bags] & has_bag
    synthetic = from_synthetic[..., 0::2] | from_synthetic[..., 1::2]
    step, run, slot = has_bag.nonzero()
    n_groups = 2 * n_runs  # per step; group g = 2 * run + source
    key = n_groups * step + 2 * run + synthetic[step, run, slot // 2]  # per bag: its (step, group)
    by_group = key.argsort(kind="stable")
    step, run, slot, key = step[by_group], run[by_group], slot[by_group], key[by_group]
    videos = bags[step, run, slot]
    clips, k = plan.clips[videos], plan.k[videos]
    # First bag of each step and of each (step, run); first row and first
    # selected row of each bag and of each step; all counted over the window.
    bag_at = step.searchsorted(np.arange(n_steps + 1))
    run_at = (n_runs * step + run).searchsorted(np.arange(n_steps * n_runs + 1))
    row_at = np.concatenate(([0], clips.cumsum()))
    sel_at = np.concatenate(([0], k.cumsum()))
    step_row, step_sel = row_at[bag_at], sel_at[bag_at]
    widths = np.maximum.reduceat(clips, bag_at[:-1])
    is_clip = np.arange(widths.max()) < clips[:, None]
    # The backward's buckets: each step's nonempty groups by selected row
    # count, stably, so in group order within a bucket; a group's gradient
    # slot is its place in that order. The selected rows follow their groups.
    sizes = sel_at[key.searchsorted(np.arange(n_groups * n_steps + 1))]
    sizes = sizes[1:] - sizes[:-1]  # per (step, group)
    groups = sizes.nonzero()[0]
    groups = groups[np.lexsort((sizes[groups], groups // n_groups))]
    group_step, size = groups // n_groups, sizes[groups]
    group_at = group_step.searchsorted(np.arange(n_steps + 1))
    group_slot = np.arange(len(groups)) - group_at[group_step]
    grad_slots = np.repeat(group_at[1:] - group_at[:-1], n_groups)  # an empty group's: one past its step's last
    grad_slots[groups] = group_slot
    sel_bag = np.repeat(np.arange(len(videos)), k)
    sel_step = step[sel_bag]
    by_bucket = (n_groups * step + grad_slots[key])[sel_bag].argsort(kind="stable")
    grad_slots = grad_slots.reshape(n_steps, n_runs, 2).transpose(2, 0, 1).copy()  # (source, step, run)
    sel_run = run[sel_bag][by_bucket]
    sel_start = (row_at[sel_bag] - step_row[sel_step])[by_bucket]
    sel_order = ((sel_bag - bag_at[sel_step]) * widths[sel_step] + np.arange(len(sel_bag)) - sel_at[sel_bag])[by_bucket]
    sel_bag = (sel_bag - bag_at[sel_step])[by_bucket]
    # A bucket starts at each group whose step or size differs from the one before.
    first = np.flatnonzero((group_step[1:] != group_step[:-1]) | (size[1:] != size[:-1])) + 1
    first = np.concatenate(([0], first))
    depth = np.concatenate((first[1:], [len(groups)])) - first  # groups per bucket
    lo = np.concatenate(([0], size.cumsum()))[first] - step_sel[group_step[first]]
    buckets = list(zip(lo.tolist(), (lo + depth * size[first]).tolist(),
                       group_slot[first].tolist(), (group_slot[first] + depth).tolist()))
    bucket_at = group_step[first].searchsorted(np.arange(n_steps + 1)).tolist()
    pair_at, y = n_slots // 2 * run + slot // 2, plan.y[videos]

    features = [plan.features[v] for v in videos.tolist()]
    # The forward: each run's bags of a step in chunks of the run's
    # plan.chunk_bags, as when it trains alone, so stacking never changes a
    # run's matmul shapes. Bags and rows are counted from the step's first.
    chunk_at = np.flatnonzero((np.arange(len(videos)) - run_at[n_runs * step + run]) % plan.chunk_bags[run] == 0)
    chunk_step, chunk_run = step[chunk_at], run[chunk_at]
    edges = np.stack([chunk_at, np.append(chunk_at[1:], len(videos))])  # first and end bag
    first_bag, end_bag = edges - bag_at[chunk_step]
    chunk_lo, chunk_hi = row_at[edges] - step_row[chunk_step]
    # The forward's groups, each writing the rows it reads. In a step copied
    # in one piece, a group starts at each chunk whose run does not follow
    # the one before or whose row count differs; a step's first chunk is run
    # 0's, which follows no run, so no group spans steps. In a step copied
    # by chunks, each chunk is a group, so no group spans a copy.
    one_piece = _one_piece(step_row[1:] - step_row[:-1], plan.dim)[chunk_step]
    starts = np.flatnonzero(~one_piece | (np.diff(chunk_run, prepend=-2) != 1)
                            | (np.diff(chunk_hi - chunk_lo, prepend=0) != 0))
    ends = np.append(starts[1:], len(chunk_at)) - 1  # each group's last chunk
    lo, hi = chunk_lo[starts], chunk_hi[ends]
    groups = np.stack([first_bag[starts], end_bag[ends], lo, hi, lo, hi, chunk_run[starts], chunk_run[ends] + 1],
                      axis=1).tolist()
    step_group = chunk_step[starts].searchsorted(np.arange(n_steps + 1)).tolist()

    bag_at, step_sel, widths = bag_at.tolist(), step_sel.tolist(), widths.tolist()
    for t, n in enumerate(has_bag[:, :, 0].sum(axis=1).tolist()):
        b0, b1, s0, s1 = bag_at[t], bag_at[t + 1], step_sel[t], step_sel[t + 1]
        yield _StepLayout(
            bags=features[b0:b1],
            groups=groups[step_group[t]:step_group[t + 1]],
            videos=videos[b0:b1],
            is_clip=is_clip[b0:b1, :widths[t]],
            k=k[b0:b1],
            y=y[b0:b1],
            pair_at=pair_at[b0:b1],
            pairs=(n, n_slots // 2),
            synthetic=synthetic[t, :n],
            sel_order=sel_order[s0:s1],
            sel_start=sel_start[s0:s1],
            sel_bag=sel_bag[s0:s1],
            sel_run=sel_run[s0:s1],
            buckets=buckets[bucket_at[t]:bucket_at[t + 1]],
            grad_slots=grad_slots[:, t, :n],
        )


def total_loss_and_grads(params, batch, config):
    """Scaled loss and exact gradients over a batch of (anomalous, normal) bag pairs.

    A pair counts as synthetic when either member is synthetic. Each bag
    keeps only its top-k rows; the backward pass runs over those rows into
    a real and a synthetic gradient, and the result is
    ``real + lambda * synthetic``; lambda = 1 trains without scaling.

    One run: ``params`` is a ScorerParams, ``batch`` a sequence of pairs and
    ``config`` a TrainConfig. Returns (LossBreakdown, grads) where grads maps
    each scorer block to a view of one flat gradient (laid out as
    :func:`params_to_vector`). This is the R = 1 case of the stacked call,
    its one step laid out by the same builder.

    R stacked runs, as :func:`train_runs` calls it: ``params`` is the (R, P)
    array of flat parameter vectors, ``batch`` the step's
    :class:`_StepLayout` and ``config`` the plan. Returns the LossBreakdown
    of every run and the (R, P) gradient.
    """
    if not isinstance(params, ScorerParams):
        return _stacked_loss_and_grads(params, batch, config)
    batch = list(batch)
    if not batch:
        raise ValidationError("batch must contain at least one pair")
    table = _BagTable()
    bags = []
    for a, n in batch:
        if (a.y, n.y) != (1, 0):
            raise ValidationError(f"pair ({a.id!r}, {n.id!r}) must be (anomalous, normal), got y=({a.y}, {n.y})")
        bags += [table.add(a), table.add(n)]
    plan = table.plan(config, [config.lam], [bags], params.dim, params.hidden)
    (step,) = _layout_window(plan, np.array([[bags]]))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite clip score is refused, naming its video
        breakdown, grads = _stacked_loss_and_grads(params_to_vector(params)[None], step, plan)
    one_run = LossBreakdown(breakdown.raw[0], breakdown.scaled[0], float(breakdown.total[0]))
    return one_run, _param_views(grads[0].copy(), params.dim, params.hidden)


def _stacked_loss_and_grads(theta: np.ndarray, step: _StepLayout, plan: _Plan):
    n_runs, n_rows = len(theta), step.groups[-1][3]
    weights = _stacked_views(theta, plan.dim, plan.hidden)
    h, logits = np.empty((n_rows, plan.hidden)), np.empty(n_rows)
    copy = _forward(step.bags, step.groups, weights, plan.dtype, h, logits)
    scores = stable_sigmoid(logits)
    if math.isnan(scores.sum()):
        bag_at = step.is_clip.sum(axis=1).cumsum()  # each bag's end row
        bad = step.videos[int(bag_at.searchsorted(np.flatnonzero(np.isnan(scores))[0], side="right"))]
        raise ValidationError(f"clip scores of video {plan.ids[bad]!r} are non-finite")

    padded = np.full(step.is_clip.shape, -np.inf)
    padded[step.is_clip] = scores
    y_hat, order = topk_mean(padded, step.k, return_indices=True)
    # The top-k rows of every bag, bucket by bucket as the layout orders
    # them; x, in the pool's dtype, in one take from the forward's one-piece
    # copy, else bag by bag from the features as stored.
    rows = step.sel_start + order.take(step.sel_order)
    h, s = h[rows], scores[rows]
    if copy is not None:
        x = copy.take(rows, axis=0)
    else:
        x = np.empty((len(rows), plan.dim), dtype=plan.dtype)
        firsts = np.flatnonzero(np.diff(step.sel_bag, prepend=-1)).tolist()
        for lo, hi in zip(firsts, [*firsts[1:], len(rows)]):
            b = int(step.sel_bag[lo])
            np.take(step.bags[b], order[b, :hi - lo], axis=0, out=x[lo:hi])

    loss, dy_hat = bce(step.y, y_hat, plan.clamp_eps, return_grad=True)
    # A pair's anomalous bag comes first, so each pair sums 0.0 + a + n = a + n.
    pair_loss = np.bincount(step.pair_at, loss, math.prod(step.pairs)).reshape(step.pairs)
    lam = plan.lam[:n_runs]
    breakdown = ssls_scale(pair_loss, step.synthetic, lam)

    # Backward once per bucket of equal-size (run, source) groups, over
    # their bags' top-k rows, each group into its own gradient slot. A
    # float32 pool's w1 gradient is a float32 product into float32 scratch,
    # copied into the slots once: a float64 out= would take numpy's slower
    # casting path.
    du = (dy_hat / step.k)[step.sel_bag] * s * (1.0 - s)
    dz1 = weights[2][step.sel_run]
    dz1 *= du[:, None]
    dz1 *= (h > 0.0)
    n_slots = step.buckets[-1][3]
    grads = np.empty((n_slots + 1, theta.shape[1]))
    grads[-1] = 0.0  # the slot of every empty group
    g_w1, g_b1, g_w2, g_b2 = _stacked_views(grads, plan.dim, plan.hidden)
    if plan.dtype == np.float32:
        dz_x, w1_slots = dz1.astype(np.float32), np.empty((n_slots, plan.hidden, plan.dim), dtype=np.float32)
    else:
        dz_x, w1_slots = dz1, g_w1
    for lo, hi, s0, s1 in step.buckets:
        dz, d = dz1[lo:hi].reshape(s1 - s0, -1, plan.hidden), du[lo:hi].reshape(s1 - s0, -1)
        np.matmul(dz_x[lo:hi].reshape(s1 - s0, -1, plan.hidden).transpose(0, 2, 1),
                  x[lo:hi].reshape(s1 - s0, -1, plan.dim), out=w1_slots[s0:s1])
        dz.sum(axis=1, out=g_b1[s0:s1])
        np.matmul(h[lo:hi].reshape(s1 - s0, -1, plan.hidden).transpose(0, 2, 1), d[..., None],
                  out=g_w2[s0:s1, :, None])
        d.sum(axis=1, out=g_b2[s0:s1])
    if w1_slots is not g_w1:
        g_w1[:n_slots] = w1_slots
    # real + lambda * synthetic for every run at once. Two (runs, P) takes,
    # not one (2, runs, P) take: that trained wide-io about 3% slower.
    out = grads.take(step.grad_slots[1], axis=0)
    out *= lam[:, None]
    out += grads.take(step.grad_slots[0], axis=0)
    return breakdown, out


# ---------------------------------------------------------------------------
# synthetic-video filter
# ---------------------------------------------------------------------------

FILTER_PERCENTILE = 95.0


def _video_mean(sample) -> np.ndarray:
    return np.asarray(sample.features, dtype=np.float64).mean(axis=0)


def _filter_class(real, synth) -> tuple:
    means = np.stack([_video_mean(s) for s in real])
    centroid = means.mean(axis=0)
    threshold = np.percentile(np.linalg.norm(means - centroid, axis=1), FILTER_PERCENTILE)
    return tuple(s for s in synth if np.linalg.norm(_video_mean(s) - centroid) <= threshold)


def filter_synthetic(real_anomalous, real_normal, synth_anomalous, synth_normal):
    """Keep the synthetic videos that lie near the real ones, per class.

    A synthetic video is kept when the distance of its mean feature to the
    real class centroid is at most the ``FILTER_PERCENTILE``-th percentile of
    the real videos' distances. Returns (kept_synth_anomalous,
    kept_synth_normal); real videos are never filtered.
    """
    if not real_anomalous or not real_normal:
        raise ValidationError("centroid-distance filtering needs non-empty real sets for both classes")
    return _filter_class(real_anomalous, synth_anomalous), _filter_class(real_normal, synth_normal)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochStats:
    epoch: int
    total_loss: float  # mean adjusted loss per pair
    mil_mean: float  # mean unscaled MIL loss per pair
    val_auc: float | None


@dataclass(eq=False)
class TrainResult:
    params: ScorerParams
    history: list


HISTORY_HEADER = "epoch,L_total,L_MIL_mean,val_auc"


def history_to_csv(history) -> str:
    lines = [HISTORY_HEADER]
    for row in history:
        val = "" if row.val_auc is None else repr(row.val_auc)
        lines.append(f"{row.epoch},{row.total_loss!r},{row.mil_mean!r},{val}")
    return "\n".join(lines) + "\n"


def save_history(history, path) -> None:
    Path(path).write_text(history_to_csv(history), encoding="utf-8")


def _epoch_pairs(real_a, synth_a, real_n, synth_n, rng):
    """Draw this epoch's bag pairs without replacement, as (anomalous, normal)
    arrays of bag indices.

    Same-source pairs are preferred (real with real, synthetic with
    synthetic); leftovers are paired across sources and inherit the synthetic
    label if either member is synthetic.
    """
    real_a, synth_a, real_n, synth_n = (
        group[rng.permutation(len(group))] for group in (real_a, synth_a, real_n, synth_n)
    )
    n_real = min(len(real_a), len(real_n))
    n_synth = min(len(synth_a), len(synth_n))
    rest_a = np.concatenate([real_a[n_real:], synth_a[n_synth:]])
    rest_n = np.concatenate([real_n[n_real:], synth_n[n_synth:]])
    n_cross = min(len(rest_a), len(rest_n))
    anomalous = np.concatenate([real_a[:n_real], synth_a[:n_synth], rest_a[:n_cross]])
    normal = np.concatenate([real_n[:n_real], synth_n[:n_synth], rest_n[:n_cross]])
    order = rng.permutation(len(anomalous))
    return anomalous[order], normal[order]


@dataclass(eq=False)
class _Schedule:
    """Every run's batches, runs in stack order (longest schedule first).

    ``bags[t, r]`` holds run r's bag indices at lockstep step t (pair j in
    slots 2j and 2j + 1, -1 where the run has no bag). At step t the runs
    with a bag in slot 0 step; they are the first ones.
    """

    bags: np.ndarray
    epoch_ends: dict  # step -> [(run, epoch, pairs in that epoch)]
    order: list  # run in stack order -> its index in the caller's list


def _lockstep_plan(runs, config: TrainConfig):
    """Plan and schedule of ``runs``, which share ``config`` but for lam and
    seed; each run's pair RNG draws its epochs in the order a run trained
    alone would. A run's dataset is a :class:`gvvad.datamodel.MixedDataset`,
    whose pools were checked when it was built."""
    table = _BagTable()
    drawn = []  # per run: (its bag indices, its epochs of pairs)
    draws = {}  # (seed, source index arrays) -> epochs: runs that share both draw the same pairs
    for dataset, run_config in runs:
        anomalous = sorted(dataset.anomalous, key=lambda s: s.id)
        normal = sorted(dataset.normal, key=lambda s: s.id)
        if not anomalous or not normal:
            raise ValidationError("training needs at least one sample per class")
        sources = [
            np.array([table.add(s) for s in pool if s.y_s == y_s], dtype=np.int64)
            for pool in (anomalous, normal) for y_s in (0, 1)
        ]
        key = (run_config.seed, *(s.tobytes() for s in sources))
        if key not in draws:
            rng = rng_from(run_config.seed, "pair-sampling")
            draws[key] = [_epoch_pairs(*sources, rng) for _ in range(config.epochs)]
        drawn.append((np.concatenate(sources), draws[key]))

    width = config.batch_pairs
    steps_per_epoch = [math.ceil(len(epochs[0][0]) / width) for _, epochs in drawn]
    order = sorted(range(len(drawn)), key=lambda r: -steps_per_epoch[r])
    bags = np.full((steps_per_epoch[order[0]] * config.epochs, len(order), 2 * width), -1, dtype=np.int64)
    epoch_ends = {}
    plan = table.plan(config, [runs[r][1].lam for r in order], [drawn[r][0] for r in order],
                      table.samples[0].dim, config.hidden)
    for pos, r in enumerate(order):
        per_epoch = steps_per_epoch[r]
        for e, (anomalous, normal) in enumerate(drawn[r][1]):
            pairs = np.full((per_epoch * width, 2), -1, dtype=np.int64)
            pairs[:len(anomalous)] = np.stack([anomalous, normal], axis=1)
            steps = slice(e * per_epoch, (e + 1) * per_epoch)
            bags[steps, pos, :2 * width] = pairs.reshape(per_epoch, 2 * width)
            epoch_ends.setdefault((e + 1) * per_epoch - 1, []).append((pos, e + 1, len(anomalous)))
    return plan, _Schedule(bags, epoch_ends, order)


def train(dataset, config: TrainConfig, val_samples=None) -> TrainResult:
    """Train the scorer on a mixed dataset; fully deterministic given inputs.

    Samples are ordered by id before any seeded shuffling, so two datasets
    holding the same samples train identically regardless of construction
    order. With ``val_samples``, every epoch records the AUC that
    :func:`gvvad.evaluation.evaluate` gives its parameters on them. This is
    the one-run case of :func:`train_runs`.
    """
    return train_runs([(dataset, config)], val_samples)[0]


def train_runs(runs, val_samples=None) -> list:
    """Train every (dataset, config) of ``runs`` in lockstep; one TrainResult each.

    Each run draws the batches it would draw alone and ends with the
    parameters it would reach alone, bit for bit. The runs' configs must be
    equal in every field but ``lam`` and ``seed``, or a ValidationError names
    the first field that differs. ``val_samples`` are laid out once, as a
    :class:`gvvad.evaluation.PreparedTestSet`, before the first step, so a
    sample without frame labels or of another feature dim fails before any
    training. Training stops with a ValidationError at the first step with
    a non-finite clip score (which a float32 first layer that overflows gives),
    loss or updated parameter;
    numpy's floating-point warnings are silenced while it runs, so that error
    is the only report.
    """
    runs = list(runs)
    if not runs:
        return []
    config = runs[0][1]
    for f in fields(TrainConfig):
        if f.name not in ("lam", "seed") and len({getattr(c, f.name) for _, c in runs}) > 1:
            raise ValidationError(f"runs trained together must share {f.name}; only lam and seed may differ")
    plan, schedule = _lockstep_plan(runs, config)
    dim, hidden = plan.dim, plan.hidden
    val_set = None
    if val_samples is not None:
        from .evaluation import PreparedTestSet  # local import: evaluation imports this module

        val_set = PreparedTestSet(val_samples, dim)  # a bad val set fails before the first step
    theta = np.stack([
        params_to_vector(ScorerParams.init(dim, hidden, rng_from(runs[r][1].seed, "scorer-init")))
        for r in schedule.order
    ])
    moments = np.zeros((2, *theta.shape))
    total_sum = np.zeros(len(runs))
    mil_sum = np.zeros(len(runs))
    history = [[] for _ in runs]
    state = AdamState(lr=config.lr, weight_decay=config.weight_decay,
                      first_moment=moments[0], second_moment=moments[1])
    layouts = itertools.chain.from_iterable(
        _layout_window(plan, schedule.bags[t:t + _LAYOUT_STEPS]) for t in range(0, len(schedule.bags), _LAYOUT_STEPS))
    with np.errstate(over="ignore", invalid="ignore"):
        for t, step in enumerate(layouts):
            n = step.pairs[0]
            if n < len(state.first_moment):  # runs whose schedule ended leave the stack; the others step on
                state.first_moment, state.second_moment = moments[:, :n]
            live = theta[:n]
            breakdown, grads = total_loss_and_grads(live, step, plan)
            # As for the parameters below: only a sum that is not finite is searched.
            if not math.isfinite(np.add.reduce(breakdown.total)) and not np.isfinite(breakdown.total).all():
                bad = int(np.argmin(np.isfinite(breakdown.total)))
                raise ValidationError(
                    f"training loss is non-finite at epoch {len(history[bad]) + 1}")
            adam_step(live, grads, state, out=live)
            # A finite sum has no inf or NaN term; only a sum that is not
            # finite is searched element by element.
            if not math.isfinite(live.sum()) and not np.isfinite(live).all():
                vector_to_params(live[int(np.argmin(np.isfinite(live).all(axis=1)))], dim, hidden)  # names the block
            total_sum[:n] += breakdown.total
            mil_sum[:n] += _left_fold(breakdown.raw)
            for r, epoch, n_pairs in schedule.epoch_ends.get(t, ()):
                history[r].append(EpochStats(
                    epoch=epoch,
                    total_loss=float(total_sum[r] / n_pairs),
                    mil_mean=float(mil_sum[r] / n_pairs),
                    val_auc=None if val_set is None else val_set.aucs([vector_to_params(theta[r], dim, hidden)])[0],
                ))
                total_sum[r] = mil_sum[r] = 0.0

    results = [None] * len(runs)
    for pos, r in enumerate(schedule.order):
        results[r] = TrainResult(params=vector_to_params(theta[pos], dim, hidden), history=history[pos])
    return results


# ---------------------------------------------------------------------------
# parameter files (GVPM)
# ---------------------------------------------------------------------------

def save_params(path, params: ScorerParams) -> None:
    """Write scorer weights as a GVPM file (layout in :mod:`gvvad.datamodel`)."""
    header = bytearray(struct.pack("<I", len(_PARAM_KEYS)))
    for name in _PARAM_KEYS:
        shape = np.shape(getattr(params, name)) or (1,)  # the scalar b2 is stored as (1,)
        header += struct.pack(f"<I{len(name)}sI{len(shape)}I", len(name), name.encode("ascii"), len(shape), *shape)
    write_checked(path, PARAMS_MAGIC, bytes(header), np.asarray(params_to_vector(params), dtype="<f8"))


def _read_blocks(take) -> tuple:
    """Block shapes of a GVPM header, in ``_PARAM_KEYS`` order, and their total item count."""
    (n_blocks,) = struct.unpack("<I", take(4))
    if n_blocks != len(_PARAM_KEYS):
        raise DataFormatError(f"expected {len(_PARAM_KEYS)} parameter blocks, found {n_blocks}")
    shapes = []
    for name in _PARAM_KEYS:
        got = take(struct.unpack("<I", take(4))[0])
        if got != name.encode("ascii"):
            raise DataFormatError(f"parameter block {len(shapes)} is {got!r}, expected {name!r}")
        (ndim,) = struct.unpack("<I", take(4))
        shapes.append(struct.unpack(f"<{ndim}I", take(4 * ndim)))
    return shapes, sum(math.prod(shape) for shape in shapes)


def load_params(path) -> ScorerParams:
    """Read a GVPM file; the blocks are views of one float64 array."""
    shapes, flat = read_checked(path, PARAMS_MAGIC, "<f8", _read_blocks)
    blocks = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes[:-1]]))
    try:
        return ScorerParams(**{name: b.reshape(s) for name, b, s in zip(_PARAM_KEYS, blocks, shapes)})
    except ShapeError as exc:
        raise DataFormatError(f"{path}: bad block shape: {exc}") from None
    except ValidationError as exc:  # a non-finite weight
        raise DataFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def params_to_vector(params: ScorerParams) -> np.ndarray:
    return np.concatenate([np.ravel(getattr(params, k)) for k in _PARAM_KEYS])


def vector_to_params(vec: np.ndarray, dim: int, hidden: int) -> ScorerParams:
    """Scorer whose blocks are views of the flat float64 vector ``vec``."""
    return ScorerParams(**_param_views(vec, dim, hidden))


@dataclass(frozen=True)
class GradCheckReport:
    threshold: float
    max_rel_error: float
    block_errors: dict
    num_batches: int
    passed: bool

    def format(self) -> str:
        lines = [f"gradient check over {self.num_batches} batches (threshold {self.threshold:g})"]
        for name, err in self.block_errors.items():
            lines.append(f"  {name:4s} max_rel_err {err:.3e}")
        lines.append(f"  max  max_rel_err {self.max_rel_error:.3e}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"


def _random_pair(rng, dim: int, y_s_a: int, y_s_n: int, tag: str):
    from .datamodel import VideoSample  # local to avoid polluting module API

    def sample(y, y_s, suffix):
        t = int(rng.integers(4, 10))
        feats = rng.normal(0.0, 1.0, size=(t, dim)).astype(np.float32).astype(np.float64)
        return VideoSample(f"gc-{tag}-{suffix}", feats, y, y_s)

    return sample(1, y_s_a, "a"), sample(0, y_s_n, "n")


def gradient_check(seed: int = 0, num_batches: int = 10, h: float = 1e-5,
                   threshold: float = 1e-4) -> GradCheckReport:
    """Compare analytic batch gradients against central finite differences.

    Exercises the top-k selection and real, synthetic and mixed-source pairs
    under a scaling factor other than 1. The features are float32 values
    held as float64, so the check differentiates the float64 forward: a
    float32 first layer rounds w1, which a central difference at ``h``
    cannot resolve. Relative error per coordinate uses a
    safeguarded denominator max(|analytic|, |numeric|, 1e-5) so coordinates
    whose true gradient is dominated by finite-difference noise do not blow
    up the ratio.
    """
    if num_batches < 1:
        raise ValidationError(f"gradient check needs at least one batch, got {num_batches}")
    dim, hidden = 7, 5
    config = TrainConfig(lam=0.7, k_rule="frac:0.3", hidden=hidden)
    block_errors = dict.fromkeys(_PARAM_KEYS, 0.0)
    for b in range(num_batches):
        rng = rng_from(seed, "gradcheck", b)
        params = ScorerParams.init(dim, hidden, rng)
        batch = [
            _random_pair(rng, dim, 0, 0, f"{b}-real"),
            _random_pair(rng, dim, 1, 1, f"{b}-synth"),
            _random_pair(rng, dim, 1, 0, f"{b}-mixed"),
        ]
        _, grads = total_loss_and_grads(params, batch, config)
        analytic = np.concatenate([grads[k].ravel() for k in _PARAM_KEYS])

        def objective(vec):
            breakdown, _ = total_loss_and_grads(vector_to_params(vec, dim, hidden), batch, config)
            return breakdown.total

        numeric = finite_diff_grad(objective, params_to_vector(params), h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
        rel = np.abs(analytic - numeric) / denom
        for name, block in zip(_PARAM_KEYS, _stacked_views(rel[None], dim, hidden)):
            block_errors[name] = max(block_errors[name], float(block.max()))
    max_err = max(block_errors.values())
    return GradCheckReport(
        threshold=threshold,
        max_rel_error=max_err,
        block_errors=block_errors,
        num_batches=num_batches,
        passed=max_err < threshold,
    )
