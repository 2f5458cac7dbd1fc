"""On-disk formats and in-memory dataset types.

A dataset is a UTF-8 text manifest plus one small binary file per video for
the clip-feature matrix (magic ``GVFT``) and, optionally, per-frame ground
truth labels (magic ``GVLB``). Binary files carry a trailing 64-bit FNV-1a
checksum over the payload. Mixing and subsampling never mutate their inputs.

Layout of the binary envelope (all integers little-endian):

    magic (4 bytes)  u32 version  u32 T  u32 D  payload  u64 fnv1a(payload)

Feature payloads are T*D float32 row-major; label payloads are T bytes of
0/1 with D fixed to 1.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError
from .numerics import rng_from

MANIFEST_TAG = "gvvad-manifest v1"
FEATURE_MAGIC = b"GVFT"
LABEL_MAGIC = b"GVLB"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIII")
_CHECKSUM = struct.Struct("<Q")
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_ID_RE = re.compile(r"[A-Za-z0-9._-]+")  # ids name files: checked on write and on load


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


# ---------------------------------------------------------------------------
# binary feature / label files
# ---------------------------------------------------------------------------

def write_features(path, values) -> None:
    """Write a T x D float32 clip-feature matrix to ``path``."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValidationError(f"feature sequence must be 2-D, got shape {arr.shape}")
    t, d = arr.shape
    if t < 1 or d < 1:
        raise ValidationError(f"feature sequence needs T,D >= 1, got {t}x{d}")
    payload_arr = np.ascontiguousarray(arr, dtype="<f4")
    if not np.all(np.isfinite(payload_arr)):
        raise ValidationError("feature sequence contains non-finite values")
    payload = payload_arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, FORMAT_VERSION, t, d))
        fh.write(payload)
        fh.write(_CHECKSUM.pack(fnv1a64(payload)))


def _read_envelope(path, magic: bytes, item_size: int):
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + _CHECKSUM.size:
        raise DataFormatError(f"{path}: truncated file ({len(raw)} bytes)")
    got_magic, version, t, d = _HEADER.unpack_from(raw, 0)
    if got_magic != magic:
        raise DataFormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    if t < 1 or d < 1:
        raise DataFormatError(f"{path}: invalid dimensions {t}x{d}")
    expected = _HEADER.size + t * d * item_size + _CHECKSUM.size
    if len(raw) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    payload = raw[_HEADER.size:-_CHECKSUM.size]
    (stored,) = _CHECKSUM.unpack_from(raw, len(raw) - _CHECKSUM.size)
    if fnv1a64(payload) != stored:
        raise DataFormatError(f"{path}: checksum mismatch")
    return t, d, payload


def read_features(path) -> np.ndarray:
    """Read a feature file back as a (T, D) float32 array."""
    t, d, payload = _read_envelope(path, FEATURE_MAGIC, 4)
    arr = np.frombuffer(payload, dtype="<f4").reshape(t, d).copy()
    if not np.all(np.isfinite(arr)):
        raise DataFormatError(f"{path}: non-finite feature values")
    return arr


def read_feature_header(path) -> tuple:
    """Read just (T, D) from a feature file without loading the payload."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, version, t, d = _HEADER.unpack(raw)
    if magic != FEATURE_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    return t, d


def write_frame_labels(path, labels) -> None:
    """Write a 1-D vector of 0/1 frame labels to ``path``."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"frame labels must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError("frame labels must be 0 or 1")
    payload = np.ascontiguousarray(arr, dtype=np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(LABEL_MAGIC, FORMAT_VERSION, arr.size, 1))
        fh.write(payload)
        fh.write(_CHECKSUM.pack(fnv1a64(payload)))


def read_frame_labels(path) -> np.ndarray:
    """Read a label file back as a (n,) uint8 array of 0/1."""
    t, d, payload = _read_envelope(path, LABEL_MAGIC, 1)
    if d != 1:
        raise DataFormatError(f"{path}: label files must have D=1, got {d}")
    arr = np.frombuffer(payload, dtype=np.uint8).copy()
    if not np.isin(arr, (0, 1)).all():
        raise DataFormatError(f"{path}: label values outside {{0,1}}")
    return arr


# ---------------------------------------------------------------------------
# in-memory types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VideoSample:
    """One video: a clip-feature matrix plus labels.

    ``y`` is the video-level anomaly label and ``y_s`` the source label
    (0 real, 1 synthetic). ``frame_labels`` is per-frame ground truth, present
    only for simulated or evaluation data.
    """

    id: str
    features: np.ndarray
    y: int
    y_s: int
    frame_labels: np.ndarray | None = None

    def __post_init__(self):
        feats = np.asarray(self.features)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValidationError(f"sample {self.id!r}: features must be T x D with T,D >= 1")
        if not np.all(np.isfinite(feats)):
            raise ValidationError(f"sample {self.id!r}: non-finite feature values")
        if self.y not in (0, 1):
            raise ValidationError(f"sample {self.id!r}: y must be 0 or 1, got {self.y!r}")
        if self.y_s not in (0, 1):
            raise ValidationError(f"sample {self.id!r}: y_s must be 0 or 1, got {self.y_s!r}")
        if self.frame_labels is not None:
            fl = np.asarray(self.frame_labels)
            if fl.ndim != 1 or fl.size < 1 or fl.size % feats.shape[0] != 0:
                raise ValidationError(
                    f"sample {self.id!r}: frame labels must align with {feats.shape[0]} clips"
                )
            if not np.isin(fl, (0, 1)).all():
                raise ValidationError(f"sample {self.id!r}: frame labels must be 0 or 1")
            if self.y == 0 and fl.any():
                raise ValidationError(f"sample {self.id!r}: normal video has anomalous frame labels")
            if self.y == 1 and not fl.any():
                raise ValidationError(f"sample {self.id!r}: anomalous video has no anomalous frames")

    @property
    def num_clips(self) -> int:
        return int(np.asarray(self.features).shape[0])

    @property
    def dim(self) -> int:
        return int(np.asarray(self.features).shape[1])


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    feature_path: str
    y: int
    y_s: int
    frame_label_path: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple
    feature_dim: int
    clip_len: int

    def __post_init__(self):
        if self.feature_dim < 1 or self.clip_len < 1:
            raise ValidationError(f"manifest dims must be >= 1, got dim={self.feature_dim} clip_len={self.clip_len}")
        seen = set()
        for entry in self.entries:
            if entry.id in seen:
                raise ValidationError(f"duplicate manifest id {entry.id!r}")
            seen.add(entry.id)


def save_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"{MANIFEST_TAG} dim={manifest.feature_dim} clip_len={manifest.clip_len}"]
    for e in manifest.entries:
        label_part = e.frame_label_path if e.frame_label_path is not None else "-"
        lines.append(f"{e.id}\t{e.feature_path}\t{e.y}\t{e.y_s}\t{label_part}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_binary_field(raw: str, name: str, origin: str, lineno: int) -> int:
    if raw not in ("0", "1"):
        raise DataFormatError(f"{origin}:{lineno}: field {name!r} must be 0 or 1, got {raw!r}")
    return int(raw)


def load_manifest(path, check_files: bool = True) -> DatasetManifest:
    """Parse and validate a manifest; errors name the offending line."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataFormatError(f"{path}: missing manifest header")
    header = re.fullmatch(r"gvvad-manifest v1 dim=(\d+) clip_len=(\d+)", lines[0])
    if header is None:
        raise DataFormatError(f"{path}:1: bad header {lines[0]!r}")
    dim = int(header.group(1))
    clip_len = int(header.group(2))
    entries = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 5:
            raise DataFormatError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}")
        vid, feature_path, y_raw, ys_raw, label_path = parts
        if _ID_RE.fullmatch(vid) is None:
            raise DataFormatError(f"{path}:{lineno}: id {vid!r} is not filesystem-safe")
        if vid in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate id {vid!r}")
        seen.add(vid)
        if not feature_path:
            raise DataFormatError(f"{path}:{lineno}: empty feature path")
        y = _parse_binary_field(y_raw, "y", str(path), lineno)
        y_s = _parse_binary_field(ys_raw, "y_s", str(path), lineno)
        entries.append(ManifestEntry(vid, feature_path, y, y_s, None if label_path == "-" else label_path))
    manifest = DatasetManifest(tuple(entries), dim, clip_len)
    if check_files:
        base = path.parent
        for e in manifest.entries:
            fpath = base / e.feature_path
            if not fpath.is_file():
                raise DataFormatError(f"{path}: entry {e.id!r} references missing file {e.feature_path!r}")
            _, file_dim = read_feature_header(fpath)
            if file_dim != dim:
                raise DataFormatError(
                    f"{path}: entry {e.id!r} has feature dim {file_dim}, manifest declares {dim}"
                )
            if e.frame_label_path is not None and not (base / e.frame_label_path).is_file():
                raise DataFormatError(f"{path}: entry {e.id!r} references missing file {e.frame_label_path!r}")
    return manifest


def load_samples(manifest: DatasetManifest, base_dir) -> list:
    """Load every manifest entry into a VideoSample."""
    base = Path(base_dir)
    samples = []
    for e in manifest.entries:
        feats = read_features(base / e.feature_path)
        if feats.shape[1] != manifest.feature_dim:
            raise DataFormatError(
                f"entry {e.id!r}: feature dim {feats.shape[1]} != manifest dim {manifest.feature_dim}"
            )
        labels = None
        if e.frame_label_path is not None:
            labels = read_frame_labels(base / e.frame_label_path)
            if labels.size != feats.shape[0] * manifest.clip_len:
                raise DataFormatError(
                    f"entry {e.id!r}: {labels.size} frame labels for {feats.shape[0]} clips "
                    f"of {manifest.clip_len} frames"
                )
        samples.append(VideoSample(e.id, feats, e.y, e.y_s, labels))
    return samples


def write_dataset(out_dir, samples, feature_dim: int, clip_len: int) -> Path:
    """Write features, labels, and a manifest for ``samples`` under ``out_dir``.

    Returns the manifest path. Sample ids double as file names and must be
    filesystem-safe.
    """
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    entries = []
    for s in samples:
        if _ID_RE.fullmatch(s.id) is None:
            raise ValidationError(f"sample id {s.id!r} is not filesystem-safe")
        if s.dim != feature_dim:
            raise ValidationError(f"sample {s.id!r} has dim {s.dim}, dataset declares {feature_dim}")
        feature_path = f"features/{s.id}.gvft"
        write_features(out / feature_path, s.features)
        label_path = None
        if s.frame_labels is not None:
            (out / "labels").mkdir(exist_ok=True)
            label_path = f"labels/{s.id}.gvlb"
            write_frame_labels(out / label_path, s.frame_labels)
        entries.append(ManifestEntry(s.id, feature_path, s.y, s.y_s, label_path))
    manifest = DatasetManifest(tuple(entries), feature_dim, clip_len)
    manifest_path = out / "manifest.tsv"
    save_manifest(manifest, manifest_path)
    return manifest_path


# ---------------------------------------------------------------------------
# mixing and subsampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixedDataset:
    """Mixed training pools: anomalous samples all have y=1, normal all y=0."""

    anomalous: tuple
    normal: tuple

    def __post_init__(self):
        seen = set()
        for s in self.anomalous:
            if s.y != 1:
                raise ValidationError(f"sample {s.id!r} with y={s.y} in the anomalous pool")
            if s.id in seen:
                raise ValidationError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
        for s in self.normal:
            if s.y != 0:
                raise ValidationError(f"sample {s.id!r} with y={s.y} in the normal pool")
            if s.id in seen:
                raise ValidationError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)

    def ids(self) -> set:
        return {s.id for s in self.anomalous} | {s.id for s in self.normal}


def _check_class(samples, expected_y: int, name: str) -> None:
    for s in samples:
        if s.y != expected_y:
            raise ValidationError(f"{name} contains sample {s.id!r} with y={s.y}, expected {expected_y}")


def mix_datasets(real_anomalous, real_normal, synth_anomalous, synth_normal) -> MixedDataset:
    """Union the four source pools into mixed anomalous/normal training sets.

    Id collisions across the inputs are hard errors: silently deduplicating
    would corrupt the cardinality accounting of the mix.
    """
    _check_class(real_anomalous, 1, "real_anomalous")
    _check_class(real_normal, 0, "real_normal")
    _check_class(synth_anomalous, 1, "synth_anomalous")
    _check_class(synth_normal, 0, "synth_normal")
    seen = set()
    for s in (*real_anomalous, *real_normal, *synth_anomalous, *synth_normal):
        if s.id in seen:
            raise ValidationError(f"id collision across input sets: {s.id!r}")
        seen.add(s.id)
    return MixedDataset(
        anomalous=tuple(synth_anomalous) + tuple(real_anomalous),
        normal=tuple(synth_normal) + tuple(real_normal),
    )


def _ceil_count(fraction: float, n: int) -> int:
    # round() guards against float dust like 0.1 * 50 == 5.000000000000001
    return math.ceil(round(fraction * n, 9))


def subsample_real(dataset: MixedDataset, fraction: float, seed: int) -> MixedDataset:
    """Keep ceil(fraction * n) real samples per class; synthetic samples pass through.

    The retained subset depends only on the real samples and the seed, so the
    same seed picks the same real videos whether or not synthetic samples are
    present.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must be in (0, 1], got {fraction}")

    def pick(samples, tag):
        real = sorted((s for s in samples if s.y_s == 0), key=lambda s: s.id)
        if fraction == 1.0 or not real:
            return tuple(samples)
        keep = _ceil_count(fraction, len(real))
        rng = rng_from(seed, "subsample", tag)
        chosen = {real[i].id for i in rng.permutation(len(real))[:keep]}
        return tuple(s for s in samples if s.y_s == 1 or s.id in chosen)

    return MixedDataset(pick(dataset.anomalous, "anomalous"), pick(dataset.normal, "normal"))
