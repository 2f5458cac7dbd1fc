"""Per-clip scorer, top-k bag objective, synthetic-loss scaling, and training.

The scorer is a single-hidden-layer network applied independently to every
clip feature vector. A bag (video) is scored by averaging its k highest clip
scores; each training step consumes (anomalous, normal) bag pairs and
optimizes binary cross-entropy on the two bag scores. Losses of pairs that
contain synthetic-source samples are multiplied by a scaling factor before
summation, which bounds how hard the synthetic domain can pull on the model.

Gradients are exact analytic derivatives of the scaled batch loss. The top-k
selection is treated as constant within a step (the standard subgradient
choice for max-pooling objectives), so gradient flows only to selected clips,
and the backward pass runs over the selected rows only: one pass per source
(real, synthetic) over the top-k clips of all its bags in the batch. The batch
objective is built from :func:`topk_mean`, :func:`gvvad.numerics.bce` and
:func:`ssls_scale`; no other code implements those rules.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import fnv1a64
from .errors import DataFormatError, ShapeError, ValidationError
from .kvformat import load_kv, parse_bool, parse_float, parse_int, save_kv
from .numerics import AdamState, adam_step, bce, finite_diff_grad, rng_from, stable_sigmoid

PARAMS_MAGIC = b"GVPM"
PARAMS_VERSION = 1

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
        self.b2 = np.asarray(self.b2, dtype=np.float64).reshape(())
        if self.w1.ndim != 2:
            raise ShapeError(f"w1 must be 2-D, got shape {self.w1.shape}")
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


def _forward(params: ScorerParams, features):
    """(pre-activation, hidden activation, score) per clip; the float64 copy
    of the features is freed on return."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ShapeError(f"features {x.shape} do not match scorer dim {params.dim}")
    z1 = x @ params.w1.T + params.b1
    h = np.maximum(z1, 0.0)
    logits = h @ params.w2 + params.b2
    scores = stable_sigmoid(logits)
    return z1, h, scores


def score_segments(params: ScorerParams, features) -> np.ndarray:
    """Anomaly score in (0,1) per clip; clips are scored independently."""
    return _forward(params, features)[2]


@functools.lru_cache(maxsize=64)
def _param_layout(dim: int, hidden: int) -> tuple:
    """(name, shape, start, stop) of each scorer block in the flat parameter
    vector: the blocks of ``_PARAM_KEYS`` in order, each row-major."""
    layout, start = [], 0
    for name, shape in zip(_PARAM_KEYS, ((hidden, dim), (hidden,), (hidden,), ())):
        stop = start + math.prod(shape)
        layout.append((name, shape, start, stop))
        start = stop
    return tuple(layout)


def _param_views(vec: np.ndarray, dim: int, hidden: int) -> dict:
    """Block name -> view of the flat vector ``vec`` with that block's shape."""
    layout = _param_layout(dim, hidden)
    if vec.size != layout[-1][3]:
        raise ShapeError(f"vector of size {vec.size} cannot fill a {dim}->{hidden}->1 scorer")
    return {name: vec[start:stop].reshape(shape) for name, shape, start, stop in layout}


def _rule_number(rule: str, arg: str, parse):
    try:
        return parse(arg)
    except ValueError:
        raise ValidationError(f"k rule {rule!r}: {arg!r} is not a number") from None


def resolve_k(rule: str, num_clips: int) -> int:
    """Map a top-k policy string to a concrete k for a bag of ``num_clips``.

    Policies: ``div:<m>`` (k = max(1, T // m)), ``fixed:<k>`` (clamped to T),
    ``frac:<f>`` (k = max(1, floor(f * T))).
    """
    if num_clips < 1:
        raise ValidationError(f"bag must contain at least one clip, got {num_clips}")
    kind, _, arg = rule.partition(":")
    if kind == "div":
        divisor = _rule_number(rule, arg, int) if arg else 16
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
        return max(1, int(f * num_clips))
    raise ValidationError(f"unknown k rule {rule!r}")


def topk_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores; ties keep the lower clip index first."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ShapeError(f"scores must be 1-D, got shape {s.shape}")
    if not 1 <= k <= s.shape[0]:
        raise ValidationError(f"k={k} out of range for {s.shape[0]} clips")
    order = np.argsort(-s, kind="stable")
    return order[:k]


def topk_mean(scores, k: int, return_indices: bool = False):
    """Mean of the k largest scores, summed in descending-score order.

    With ``return_indices`` it returns ``(mean, indices)``, the indices being
    those of :func:`topk_indices` from the same single sort.
    """
    s = np.asarray(scores, dtype=np.float64)
    idx = topk_indices(s, k)
    mean = float(s[idx].sum() / k)
    return (mean, idx) if return_indices else mean


def _selected_backward(params: ScorerParams, selected) -> np.ndarray:
    """Flat parameter gradient of the selected clips of one source.

    ``selected`` holds, per bag, the (features, pre-activation, hidden
    activation, d loss / d logit) rows of its top-k clips; no other clip
    reaches the gradient.
    """
    flat = np.zeros(_param_layout(params.dim, params.hidden)[-1][3])
    if not selected:
        return flat
    x, z1, h, du = (np.concatenate(rows, dtype=np.float64) for rows in zip(*selected))
    dz1 = np.outer(du, params.w2) * (z1 > 0.0)
    g = _param_views(flat, params.dim, params.hidden)
    np.matmul(dz1.T, x, out=g["w1"])
    dz1.sum(axis=0, out=g["b1"])
    np.matmul(h.T, du, out=g["w2"])
    g["b2"][...] = du.sum()
    return flat


# ---------------------------------------------------------------------------
# loss scaling
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LossBreakdown:
    """Per-sample raw and scaled losses plus the summed training objective.

    ``total`` is the left-to-right sum of ``scaled`` in ascending sample
    order; scaled[i] equals raw[i] exactly for real samples and
    lambda * raw[i] for synthetic ones.
    """

    raw: np.ndarray
    scaled: np.ndarray
    total: float
    source_labels: np.ndarray
    lambda_effective: float


def _left_fold_sum(values) -> float:
    total = 0.0
    for v in values:
        total += float(v)
    return total


def ssls_scale(raw_losses, source_labels, lam: float) -> LossBreakdown:
    """Apply the synthetic-sample scaling rule to a vector of raw losses."""
    raw = np.asarray(raw_losses, dtype=np.float64)
    ys = np.asarray(source_labels)
    if raw.ndim != 1 or raw.shape != ys.shape:
        raise ShapeError(f"losses {raw.shape} and source labels {ys.shape} must be equal-length vectors")
    if not ((ys == 0) | (ys == 1)).all():
        raise ValidationError("source labels must be 0 or 1")
    if lam < 0:
        raise ValidationError(f"scaling factor must be >= 0, got {lam}")
    scaled = np.where(ys == 1, lam * raw, raw)
    return LossBreakdown(
        raw=raw.copy(),
        scaled=scaled,
        total=_left_fold_sum(scaled),
        source_labels=ys.astype(np.int64),
        lambda_effective=float(lam),
    )


# ---------------------------------------------------------------------------
# training configuration
# ---------------------------------------------------------------------------

TRAIN_CONFIG_KEYS = (
    "lambda", "ssls_enabled", "k_rule",
    "lr", "weight_decay", "epochs", "batch_pairs", "clamp_eps", "hidden", "seed",
)


@dataclass
class TrainConfig:
    """Training knobs; ``lam`` is the synthetic-sample loss scale."""

    lam: float = 0.5
    ssls_enabled: bool = True
    k_rule: str = "div:16"
    lr: float = 0.001
    weight_decay: float = 0.005
    epochs: int = 20
    batch_pairs: int = 8
    clamp_eps: float = 1e-7
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


def train_config_to_kv(config: TrainConfig) -> dict:
    return {
        "lambda": repr(config.lam),
        "ssls_enabled": "1" if config.ssls_enabled else "0",
        "k_rule": config.k_rule,
        "lr": repr(config.lr),
        "weight_decay": repr(config.weight_decay),
        "epochs": str(config.epochs),
        "batch_pairs": str(config.batch_pairs),
        "clamp_eps": repr(config.clamp_eps),
        "hidden": str(config.hidden),
        "seed": str(config.seed),
    }


def train_config_from_kv(values: dict, origin: str = "<config>") -> TrainConfig:
    unknown = sorted(set(values) - set(TRAIN_CONFIG_KEYS))
    if unknown:
        raise ValidationError(f"{origin}: unknown train config keys {unknown}")
    kwargs = {}
    if "lambda" in values:
        kwargs["lam"] = parse_float(values["lambda"], "lambda")
    if "ssls_enabled" in values:
        kwargs["ssls_enabled"] = parse_bool(values["ssls_enabled"], "ssls_enabled")
    if "k_rule" in values:
        kwargs["k_rule"] = values["k_rule"]
    for key, attr in (("lr", "lr"), ("weight_decay", "weight_decay"), ("clamp_eps", "clamp_eps")):
        if key in values:
            kwargs[attr] = parse_float(values[key], key)
    for key, attr in (("epochs", "epochs"), ("batch_pairs", "batch_pairs"),
                      ("hidden", "hidden"), ("seed", "seed")):
        if key in values:
            kwargs[attr] = parse_int(values[key], key)
    return TrainConfig(**kwargs)


def save_train_config(config: TrainConfig, path) -> None:
    save_kv(train_config_to_kv(config), path)


def load_train_config(path) -> TrainConfig:
    return train_config_from_kv(load_kv(path), origin=str(Path(path)))


# ---------------------------------------------------------------------------
# batch objective
# ---------------------------------------------------------------------------

def total_loss_and_grads(params: ScorerParams, batch, config: TrainConfig):
    """Scaled loss and exact gradients over a batch of (anomalous, normal) bag pairs.

    A pair counts as synthetic when either member is synthetic. Each bag
    keeps only its top-k rows; after the forward passes, one backward pass
    per source runs over those rows into a flat real and a flat synthetic
    gradient, and the result is ``real + lambda * synthetic``; with scaling
    disabled lambda is 1.0, so that path is the lambda = 1 path. Returns
    (LossBreakdown, grads) where grads maps each scorer block to a view of
    that one flat gradient (laid out as :func:`params_to_vector`).
    """
    batch = list(batch)
    if not batch:
        raise ValidationError("batch must contain at least one pair")
    lam_eff = config.lam if config.ssls_enabled else 1.0

    raw = np.zeros(len(batch))
    ys = np.zeros(len(batch), dtype=np.int64)
    selected = ([], [])  # per source (real, synthetic): the top-k rows of each bag
    for i, pair in enumerate(batch):
        if (pair[0].y, pair[1].y) != (1, 0):
            raise ValidationError(
                f"pair ({pair[0].id!r}, {pair[1].id!r}) must be (anomalous, normal), "
                f"got y=({pair[0].y}, {pair[1].y})"
            )
        ys[i] = 1 if (pair[0].y_s == 1 or pair[1].y_s == 1) else 0
        for sample in pair:
            z1, h, scores = _forward(params, sample.features)
            k = resolve_k(config.k_rule, scores.shape[0])
            y_hat, idx = topk_mean(scores, k, return_indices=True)
            loss, dy_hat = bce(sample.y, y_hat, config.clamp_eps, return_grad=True)
            raw[i] += loss
            s = scores[idx]
            selected[ys[i]].append(
                (np.asarray(sample.features)[idx], z1[idx], h[idx], dy_hat / k * s * (1.0 - s))
            )

    breakdown = ssls_scale(raw, ys, lam_eff)
    real, synthetic = (_selected_backward(params, rows) for rows in selected)
    return breakdown, _param_views(real + lam_eff * synthetic, params.dim, params.hidden)


# ---------------------------------------------------------------------------
# synthetic-video filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterPolicy:
    """``none`` keeps everything; ``centroid_distance`` drops synthetic videos
    whose mean feature lies beyond the given percentile of real same-class
    distances to the real class centroid."""

    kind: str = "none"
    percentile: float = 95.0

    def __post_init__(self):
        if self.kind not in ("none", "centroid_distance"):
            raise ValidationError(f"unknown filter policy {self.kind!r}")
        if not 0.0 < self.percentile <= 100.0:
            raise ValidationError(f"percentile must be in (0, 100], got {self.percentile}")


@dataclass(frozen=True)
class ClassFilterStats:
    threshold: float | None
    kept: tuple
    rejected: tuple  # (id, distance) pairs


@dataclass(frozen=True)
class FilterReport:
    policy: FilterPolicy
    anomalous: ClassFilterStats
    normal: ClassFilterStats

    @property
    def rejected_ids(self) -> tuple:
        return tuple(i for i, _ in self.anomalous.rejected) + tuple(i for i, _ in self.normal.rejected)


def _video_mean(sample) -> np.ndarray:
    return np.asarray(sample.features, dtype=np.float64).mean(axis=0)


def _filter_class(real, synth, percentile: float):
    means = np.stack([_video_mean(s) for s in real])
    centroid = means.mean(axis=0)
    real_dists = np.linalg.norm(means - centroid, axis=1)
    threshold = float(np.percentile(real_dists, percentile))
    kept, rejected = [], []
    for s in synth:
        dist = float(np.linalg.norm(_video_mean(s) - centroid))
        if dist <= threshold:
            kept.append(s)
        else:
            rejected.append((s.id, dist))
    return tuple(kept), ClassFilterStats(threshold, tuple(s.id for s in kept), tuple(rejected))


def filter_synthetic(real_anomalous, real_normal, synth_anomalous, synth_normal,
                     policy: FilterPolicy = FilterPolicy()):
    """Filter synthetic videos against the real distribution, per class.

    Returns (kept_synth_anomalous, kept_synth_normal, FilterReport). Real
    videos are never filtered.
    """
    if policy.kind == "none":
        stats = ClassFilterStats(None, tuple(s.id for s in synth_anomalous), ())
        stats_n = ClassFilterStats(None, tuple(s.id for s in synth_normal), ())
        return tuple(synth_anomalous), tuple(synth_normal), FilterReport(policy, stats, stats_n)
    if not real_anomalous or not real_normal:
        raise ValidationError("centroid_distance filtering needs non-empty real sets for both classes")
    kept_a, stats_a = _filter_class(real_anomalous, synth_anomalous, policy.percentile)
    kept_n, stats_n = _filter_class(real_normal, synth_normal, policy.percentile)
    return kept_a, kept_n, FilterReport(policy, stats_a, stats_n)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochStats:
    epoch: int
    total_loss: float  # mean adjusted loss per pair
    mil_mean: float  # mean unscaled MIL loss per pair
    val_auc: float | None
    lambda_effective: float


@dataclass(eq=False)
class TrainResult:
    params: ScorerParams
    history: list
    lambda_value: float


HISTORY_HEADER = "epoch,L_total,L_MIL_mean,val_auc,lambda_effective"


def history_to_csv(history) -> str:
    lines = [HISTORY_HEADER]
    for row in history:
        val = "" if row.val_auc is None else repr(row.val_auc)
        lines.append(
            f"{row.epoch},{row.total_loss!r},{row.mil_mean!r},{val},{row.lambda_effective!r}"
        )
    return "\n".join(lines) + "\n"


def save_history(history, path) -> None:
    Path(path).write_text(history_to_csv(history), encoding="utf-8")


def _shuffled(items, rng) -> list:
    items = list(items)
    return [items[i] for i in rng.permutation(len(items))]


def _epoch_pairs(anomalous, normal, rng) -> list:
    """Draw this epoch's bag pairs without replacement.

    Same-source pairs are preferred (real with real, synthetic with
    synthetic); leftovers are paired across sources and inherit the synthetic
    label if either member is synthetic.
    """
    real_a = _shuffled((s for s in anomalous if s.y_s == 0), rng)
    synth_a = _shuffled((s for s in anomalous if s.y_s == 1), rng)
    real_n = _shuffled((s for s in normal if s.y_s == 0), rng)
    synth_n = _shuffled((s for s in normal if s.y_s == 1), rng)

    pairs = []
    n_real = min(len(real_a), len(real_n))
    pairs.extend(zip(real_a[:n_real], real_n[:n_real]))
    n_synth = min(len(synth_a), len(synth_n))
    pairs.extend(zip(synth_a[:n_synth], synth_n[:n_synth]))
    rest_a = real_a[n_real:] + synth_a[n_synth:]
    rest_n = real_n[n_real:] + synth_n[n_synth:]
    n_cross = min(len(rest_a), len(rest_n))
    pairs.extend(zip(rest_a[:n_cross], rest_n[:n_cross]))
    return [pairs[i] for i in rng.permutation(len(pairs))]


def train(dataset, config: TrainConfig, val_samples=None) -> TrainResult:
    """Train the scorer on a mixed dataset; fully deterministic given inputs.

    Samples are ordered by id before any seeded shuffling, so two datasets
    holding the same samples train identically regardless of construction
    order. Validation AUC is computed per epoch when ``val_samples`` carry
    frame labels.
    """
    anomalous = sorted(dataset.anomalous, key=lambda s: s.id)
    normal = sorted(dataset.normal, key=lambda s: s.id)
    if not anomalous or not normal:
        raise ValidationError("training needs at least one sample per class")
    dim = anomalous[0].dim
    for s in (*anomalous, *normal):
        if s.dim != dim:
            raise ShapeError(f"sample {s.id!r} has dim {s.dim}, dataset has {dim}")

    theta = params_to_vector(ScorerParams.init(dim, config.hidden, rng_from(config.seed, "scorer-init")))
    params = vector_to_params(theta, dim, config.hidden)  # views: updating theta updates params
    state = AdamState(lr=config.lr, weight_decay=config.weight_decay)
    lam_eff = config.lam if config.ssls_enabled else 1.0
    loop_rng = rng_from(config.seed, "pair-sampling")

    history = []
    for epoch in range(1, config.epochs + 1):
        pairs = _epoch_pairs(anomalous, normal, loop_rng)
        total_sum = 0.0
        mil_sum = 0.0
        n_pairs = 0
        for start in range(0, len(pairs), config.batch_pairs):
            batch = pairs[start:start + config.batch_pairs]
            breakdown, grads = total_loss_and_grads(params, batch, config)
            flat_grad = grads["w1"].base  # every scorer block is a view of one flat gradient
            theta[...] = adam_step(theta, flat_grad, state)
            if not np.isfinite(theta).all():
                params.check_finite()  # names the block
            total_sum += breakdown.total
            mil_sum += _left_fold_sum(breakdown.raw)
            n_pairs += len(batch)
        val_auc = None
        if val_samples is not None:
            from .evaluation import evaluate  # local import: evaluation imports this module

            val_auc = evaluate(params, val_samples).auc
        history.append(EpochStats(
            epoch=epoch,
            total_loss=total_sum / n_pairs,
            mil_mean=mil_sum / n_pairs,
            val_auc=val_auc,
            lambda_effective=lam_eff,
        ))

    return TrainResult(params=params, history=history, lambda_value=lam_eff)


# ---------------------------------------------------------------------------
# parameter files (GVPM)
# ---------------------------------------------------------------------------

def save_params(path, params: ScorerParams) -> None:
    """Write scorer weights as float64 blocks with a trailing checksum."""
    blocks = [(name, np.ascontiguousarray(getattr(params, name), dtype="<f8")) for name in _PARAM_KEYS]
    meta = bytearray()
    meta += struct.pack("<4sII", PARAMS_MAGIC, PARAMS_VERSION, len(blocks))
    payload = bytearray()
    for name, arr in blocks:
        encoded = name.encode("ascii")
        meta += struct.pack("<I", len(encoded)) + encoded
        meta += struct.pack("<I", arr.ndim)
        meta += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        payload += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(meta))
        fh.write(bytes(payload))
        fh.write(struct.pack("<Q", fnv1a64(bytes(payload))))


def load_params(path) -> ScorerParams:
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise DataFormatError(f"{path}: truncated file")
    magic, version, n_blocks = struct.unpack_from("<4sII", raw, 0)
    if magic != PARAMS_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {PARAMS_MAGIC!r}")
    if version != PARAMS_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    offset = 12
    shapes = []
    try:
        for _ in range(n_blocks):
            (name_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            name = raw[offset:offset + name_len].decode("ascii")
            offset += name_len
            (ndim,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}I", raw, offset) if ndim else ()
            offset += 4 * ndim
            shapes.append((name, shape))
    except (struct.error, UnicodeDecodeError):
        raise DataFormatError(f"{path}: truncated or corrupt block header") from None
    names = [name for name, _ in shapes]
    if names != list(_PARAM_KEYS):
        raise DataFormatError(f"{path}: unexpected parameter blocks {names}")
    total = sum(int(np.prod(shape, dtype=np.int64)) for _, shape in shapes)
    expected = offset + total * 8 + 8
    if len(raw) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    payload = raw[offset:-8]
    (stored,) = struct.unpack_from("<Q", raw, len(raw) - 8)
    if fnv1a64(payload) != stored:
        raise DataFormatError(f"{path}: checksum mismatch")
    values = {}
    cursor = 0
    for name, shape in shapes:
        count = int(np.prod(shape, dtype=np.int64))
        values[name] = np.frombuffer(payload, dtype="<f8", count=count, offset=cursor * 8).reshape(shape).copy()
        cursor += count
    return ScorerParams(**values)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def params_to_vector(params: ScorerParams) -> np.ndarray:
    return np.concatenate([getattr(params, k).ravel() for k in _PARAM_KEYS])


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
        feats = rng.normal(0.0, 1.0, size=(t, dim)).astype(np.float32)
        return VideoSample(f"gc-{tag}-{suffix}", feats, y, y_s)

    return sample(1, y_s_a, "a"), sample(0, y_s_n, "n")


def gradient_check(seed: int = 0, num_batches: int = 10, h: float = 1e-5,
                   threshold: float = 1e-4, corrupt: bool = False) -> GradCheckReport:
    """Compare analytic batch gradients against central finite differences.

    Exercises the top-k selection and real, synthetic and mixed-source pairs
    under a scaling factor other than 1. Relative error per coordinate uses a
    safeguarded denominator max(|analytic|, |numeric|, 1e-5) so coordinates
    whose true gradient is dominated by finite-difference noise do not blow
    up the ratio. ``corrupt`` perturbs one analytic gradient block and is a
    negative-control hook for tests.
    """
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
        if corrupt:
            grads = dict(grads)
            grads["w1"] = grads["w1"] + 1e-3

        analytic = np.concatenate([grads[k].ravel() for k in _PARAM_KEYS])

        def objective(vec):
            breakdown, _ = total_loss_and_grads(vector_to_params(vec, dim, hidden), batch, config)
            return breakdown.total

        numeric = finite_diff_grad(objective, params_to_vector(params), h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
        rel = np.abs(analytic - numeric) / denom
        for name, _, start, stop in _param_layout(dim, hidden):
            block_errors[name] = max(block_errors[name], float(rel[start:stop].max()))
    max_err = max(block_errors.values())
    return GradCheckReport(
        threshold=threshold,
        max_rel_error=max_err,
        block_errors=block_errors,
        num_batches=num_batches,
        passed=max_err < threshold,
    )
