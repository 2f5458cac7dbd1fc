"""Seeded feature-space simulator with a controllable real/synthetic gap.

Videos are sampled as Gaussian clip clouds around a configurable center.
Three additive offsets shape the world: an anomaly offset applied to clips
inside an anomalous video's (contiguous) anomalous segment, a domain offset
applied to every clip of synthetic-source videos (the size of this vector is
the real-to-synthetic "domain gap"), and a small deterministic perturbation
hashed from the description's element tuple so the same text always shifts
features the same way.

Every video is fully determined by (config, description pair, class, source,
seed), so datasets regenerate bit-identically and per-video generation can be
distributed without changing the result.

Note the gap model is deliberately simple: one fixed offset vector stands in
for whatever structured differences a real generator would introduce, so
transfer conclusions drawn here should not be over-read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import VideoSample
from .errors import ValidationError
from .kvformat import load_kv, parse_float, parse_int, parse_list, read_fields, save_kv, write_fields
from .numerics import rng_from, seed_sequence


def _as_vector(value, dim: int, name: str) -> np.ndarray:
    """None -> zeros; scalar -> constant vector; sequence -> checked copy."""
    if value is None:
        return np.zeros(dim)
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ValidationError(f"{name} must have {dim} entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr.copy()


@dataclass(frozen=True, eq=False)
class WorldConfig:
    """Parameters of the simulated feature world."""

    dim: int
    clips_min: int = 8
    clips_max: int = 16
    clip_len: int = 16
    noise_sigma: float = 1.0
    anomaly_frac_min: float = 0.2
    anomaly_frac_max: float = 0.5
    element_effect_scale: float = 0.0
    normal_center: np.ndarray | None = None
    anomaly_offset: np.ndarray | None = None
    domain_offset: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if not 1 <= self.clips_min <= self.clips_max:
            raise ValidationError(f"need 1 <= clips_min <= clips_max, got {self.clips_min}..{self.clips_max}")
        if self.clip_len < 1:
            raise ValidationError(f"clip_len must be >= 1, got {self.clip_len}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma > 0):
            raise ValidationError(f"noise_sigma must be finite and > 0, got {self.noise_sigma}")
        if not 0.0 < self.anomaly_frac_min <= self.anomaly_frac_max <= 1.0:
            raise ValidationError(
                f"need 0 < anomaly_frac_min <= anomaly_frac_max <= 1, "
                f"got {self.anomaly_frac_min}..{self.anomaly_frac_max}"
            )
        if not (math.isfinite(self.element_effect_scale) and self.element_effect_scale >= 0):
            raise ValidationError(
                f"element_effect_scale must be finite and >= 0, got {self.element_effect_scale}"
            )
        object.__setattr__(self, "normal_center", _as_vector(self.normal_center, self.dim, "normal_center"))
        object.__setattr__(self, "anomaly_offset", _as_vector(self.anomaly_offset, self.dim, "anomaly_offset"))
        object.__setattr__(self, "domain_offset", _as_vector(self.domain_offset, self.dim, "domain_offset"))


def parse_vector(value: str, key: str):
    """World vector text: empty -> None (zeros), one number -> a scalar to
    broadcast, several -> the list of entries."""
    vec = parse_list(value, key, parse_float)
    if not vec:
        return None
    return vec[0] if len(vec) == 1 else vec


WORLD_CONFIG_KEYS = {
    "dim": ("dim", parse_int),
    "clips_min": ("clips_min", parse_int),
    "clips_max": ("clips_max", parse_int),
    "clip_len": ("clip_len", parse_int),
    "noise_sigma": ("noise_sigma", parse_float),
    "anomaly_frac_min": ("anomaly_frac_min", parse_float),
    "anomaly_frac_max": ("anomaly_frac_max", parse_float),
    "element_effect_scale": ("element_effect_scale", parse_float),
    "normal_center": ("normal_center", parse_vector),
    "anomaly_offset": ("anomaly_offset", parse_vector),
    "domain_offset": ("domain_offset", parse_vector),
}


def save_world_config(config: WorldConfig, path) -> None:
    save_kv(write_fields(config, WORLD_CONFIG_KEYS), path)


def world_config_from_kv(values: dict, origin: str = "<config>") -> WorldConfig:
    kwargs = read_fields(values, WORLD_CONFIG_KEYS, origin, "world config")
    if "dim" not in kwargs:
        raise ValidationError(f"{origin}: world config requires 'dim'")
    return WorldConfig(**kwargs)


def load_world_config(path) -> WorldConfig:
    return world_config_from_kv(load_kv(path), origin=str(Path(path)))


def element_perturbation(elements, dim: int, scale: float) -> np.ndarray:
    """Deterministic direction hashed from the element tuple, with L2 norm ``scale``."""
    if scale == 0.0:
        return np.zeros(dim)
    rng = rng_from("element-perturbation", *elements)
    vec = rng.standard_normal(dim)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return np.zeros(dim)
    return (scale / norm) * vec


def _seed_tag(tokens) -> str:
    return format(seed_sequence(*tokens).generate_state(1, np.uint64)[0], "016x")[:8]


def generate_video(config: WorldConfig, pair, label: str, source: str, seed,
                   video_id: str | None = None) -> VideoSample:
    """Sample one video's feature sequence plus ground-truth frame labels.

    ``label`` is "normal" or "anomalous"; ``source`` is "real" or "synthetic".
    ``seed`` may be an int or a tuple of seed tokens.
    """
    if label not in ("normal", "anomalous"):
        raise ValidationError(f"label must be 'normal' or 'anomalous', got {label!r}")
    if source not in ("real", "synthetic"):
        raise ValidationError(f"source must be 'real' or 'synthetic', got {source!r}")
    tokens = tuple(seed) if isinstance(seed, tuple) else (seed,)
    rng = rng_from(*tokens, "video", label, source, pair.index)

    t = int(rng.integers(config.clips_min, config.clips_max, endpoint=True))
    clip_labels = np.zeros(t, dtype=np.uint8)
    start = seg_len = 0
    if label == "anomalous":
        lo = max(1, math.ceil(config.anomaly_frac_min * t))
        hi = max(lo, math.floor(config.anomaly_frac_max * t))
        seg_len = int(rng.integers(lo, hi, endpoint=True))
        start = int(rng.integers(0, t - seg_len, endpoint=True))
        clip_labels[start:start + seg_len] = 1

    mean = config.normal_center + element_perturbation(pair.elements, config.dim, config.element_effect_scale)
    if source == "synthetic":
        mean = mean + config.domain_offset
    feats = rng.normal(0.0, config.noise_sigma, size=(t, config.dim))
    feats += mean  # in place: the same bits as mean + feats
    feats[start:start + seg_len] += config.anomaly_offset

    if video_id is None:
        video_id = f"{source[0]}{label[0]}-p{pair.index:05d}-x{_seed_tag(tokens)}"
    return VideoSample(
        id=video_id,
        features=feats.astype(np.float32),
        y=1 if label == "anomalous" else 0,
        y_s=1 if source == "synthetic" else 0,
        frame_labels=np.repeat(clip_labels, config.clip_len),
    )


@dataclass(frozen=True)
class GenerationCounts:
    real_anomalous: int = 0
    real_normal: int = 0
    synth_anomalous: int = 0
    synth_normal: int = 0

    def __post_init__(self):
        for name in ("real_anomalous", "real_normal", "synth_anomalous", "synth_normal"):
            if getattr(self, name) < 0:
                raise ValidationError(f"count {name} must be >= 0")

    @property
    def total(self) -> int:
        return self.real_anomalous + self.real_normal + self.synth_anomalous + self.synth_normal


@dataclass(frozen=True, eq=False)
class GeneratedSets:
    """The four source pools: real/synthetic x anomalous/normal."""

    real_anomalous: tuple
    real_normal: tuple
    synth_anomalous: tuple
    synth_normal: tuple

    def all_samples(self) -> list:
        return [*self.real_anomalous, *self.real_normal, *self.synth_anomalous, *self.synth_normal]


_SET_SPECS = (
    ("ra", "anomalous", "real", "real_anomalous"),
    ("rn", "normal", "real", "real_normal"),
    ("va", "anomalous", "synthetic", "synth_anomalous"),
    ("vn", "normal", "synthetic", "synth_normal"),
)


def generate_dataset(config: WorldConfig, pairs, counts: GenerationCounts, base_seed) -> GeneratedSets:
    """Generate the four video pools; ids encode set, ordinal, and pair index.

    Description pairs are cycled when a count exceeds the repository size;
    each video still gets a distinct derived seed.
    """
    pairs = list(pairs)
    if counts.total > 0 and not pairs:
        raise ValidationError("cannot generate videos from an empty pair list")
    base_tokens = tuple(base_seed) if isinstance(base_seed, tuple) else (base_seed,)
    pools = {}
    for tag, label, source, field_name in _SET_SPECS:
        n = getattr(counts, field_name)
        vids = []
        for i in range(n):
            pair = pairs[i % len(pairs)]
            vids.append(generate_video(
                config, pair, label, source,
                seed=(*base_tokens, tag, i),
                video_id=f"{tag}-{i:05d}-p{pair.index:05d}",
            ))
        pools[field_name] = tuple(vids)
    return GeneratedSets(**pools)
