"""On-disk formats and in-memory dataset types.

A dataset is a UTF-8 text manifest plus one small binary file per video for
the clip-feature matrix (magic ``GVFT``) and, optionally, per-frame ground
truth labels (magic ``GVLB``); trained scorer weights are a third binary file
(magic ``GVPM``, see :mod:`gvvad.milcore`). Mixing and subsampling never
mutate their inputs. Every binary file has one envelope, written by
:func:`write_checked` and read by :func:`read_checked` (integers little-endian):

    magic (4 bytes)  u32 version  format header  payload  u64 fnv1a(payload)

GVFT's header is u32 T, u32 D and its payload T*D float32 row-major; GVLB's
is the same with D fixed to 1 and T bytes of 0/1. GVPM's header is a u32
block count, then per block a u32 name length, the name, a u32 ndim and
ndim u32 dims, for w1, b1, w2 and b2 (stored as shape (1,)); its payload is
the flat float64 parameter vector in that order.
"""

from __future__ import annotations

import functools
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError
from .kvformat import read_text
from .numerics import is_binary, rng_from

MANIFEST_TAG = "gvvad-manifest v1"
FEATURE_MAGIC = b"GVFT"
LABEL_MAGIC = b"GVLB"
FORMAT_VERSION = 1

_PREFIX = struct.Struct("<4sI")  # magic, version
_DIMS = struct.Struct("<II")  # T, D of feature and label files
_CHECKSUM = struct.Struct("<Q")
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
# Timings on a 2-core x86 host. The table-driven short path wins up to about
# 2.5 KiB (1 KiB: 56 vs 116 us; 2 KiB: 103 vs 122 us), the vectorized one
# above (a 3,200-byte label file: 127 vs 159 us; 4 KiB: 134 vs 208 us). The
# switch stays at 8 KiB: every payload of the README walkthrough lies below
# it, and the first vectorized call makes about 0.25 MB of numpy code
# resident to save under 0.3 ms.
_VECTORIZED_MIN_BYTES = 8 * 1024
# Bytes per chunk of the vectorized path: one pass of bit-plane rounds and one
# GEMM each, in a uint8 and a float32 work array of the chunk's size (1.25 MB
# at 256 KiB). A round makes about 20 numpy calls whatever its size; on 1.6 MB
# payloads 64 KiB chunks hashed at 187 MB/s, 128 KiB at 237, 256 KiB at 254 and
# 512 KiB at 260, with peaks of 0.5, 0.9, 1.9 and 3.7 MB under tracemalloc.
_CHUNK_BYTES = 256 * 1024
# Deltas per GEMM row. Each row sum of d * limb has at most 256 terms of
# magnitude <= 255 * 255, so every partial sum, in any order, is an integer
# below 256 * 255 * 255 = 16,646,400 < 2**24: float32 holds it exactly.
_ROW_BYTES = 256
# Bytes per uint64 dot product of the short path's affine sum (_add_deltas):
# every input below the switch is one block.
_BLOCK_BYTES = 8 * 1024
# numpy scalars keep the dtypes fixed under both value-based and NEP 50 casting
_PRIME_LOW = np.uint8(_FNV_PRIME & 0xFF)
_BYTE_BITS = tuple(np.uint8(1 << k) for k in range(8))
_WORD_SHIFTS = tuple(np.uint64(1 << k) for k in range(6))
_TOP_BIT = np.uint64(63)
_ONE = np.uint64(1)
_ID_RE = re.compile(r"[A-Za-z0-9._-]+")  # ids name files: checked on write and on load


def fnv1a64(data) -> int:
    """64-bit FNV-1a hash of ``data`` (bytes, bytearray or a byte memoryview).

    Each step is ``h <- (h ^ b) * P mod 2**64``. The same value is computed
    in two stages:

    - The low byte ``l`` of ``h`` follows its own recurrence,
      ``l' = ((l ^ b) * (P & 0xFF)) mod 256``. Short inputs step it one
      byte at a time through a 256-entry table. From
      ``_VECTORIZED_MIN_BYTES`` on, numpy solves it by bit planes: ``P &
      0xFF`` is odd, so bit k of ``l'`` is bit k of ``l`` XOR bit k of
      ``((l mod 2**k) ^ b) * P``, which depends only on the bits below k.
      Eight rounds, one bit plane each, solve the whole sequence: a uint8
      multiply, a mask and a prefix XOR.
    - XOR with a byte only changes the low byte, so ``h ^ b = h + d`` with
      ``d = (l ^ b) - l``. Then ``h_n = h_0 * P**n + sum(d_i * P**(n - i))``
      mod 2**64. Short inputs take it as one uint64 dot product, which wraps
      exactly. The vectorized path splits each ``P**j`` of a 256-byte row
      into eight 8-bit limbs and sums ``d * limb`` with one float32 GEMM
      per chunk, exact because every partial sum stays below 2**24; the
      row sums then meet the powers of ``P**256`` in one uint64 dot
      product.

    On a 2-core x86 host the vectorized path hashes 1.6 MB and 525 KB
    payloads at about 245 MB/s and 64 KiB at about 185 MB/s.
    """
    if len(data) < _VECTORIZED_MIN_BYTES:
        return _fnv1a64_loop(data)
    return _fnv1a64_vectorized(data)


def _fnv1a64_loop(data) -> int:
    """FNV-1a of short inputs (see fnv1a64): the low byte's states one byte
    at a time from a table, then the affine sum."""
    b = np.frombuffer(data, dtype=np.uint8)
    steps = _low_steps()
    low, state = [], _FNV_OFFSET & 0xFF
    for byte in b.tolist():
        low.append(state)  # low[i]: low byte of the state before byte i
        state = steps[state ^ byte]
    low = np.array(low, dtype=np.uint8)
    return _add_deltas(_FNV_OFFSET, low ^ b, low)


@functools.cache
def _low_steps() -> tuple:
    """steps[v] = (v * P) mod 256: the low byte after a step whose XOR gave v."""
    return tuple((v * _FNV_PRIME) & 0xFF for v in range(256))


@functools.cache
def _powers() -> np.ndarray:
    """powers[i] = P**(i + 1) mod 2**64 for i < _BLOCK_BYTES, built once per process."""
    return np.multiply.accumulate(np.full(_BLOCK_BYTES, _FNV_PRIME, dtype=np.uint64))


def _add_deltas(h: int, x: np.ndarray, low: np.ndarray) -> int:
    """The state after the bytes whose low bytes before and after the XOR
    are ``low`` and ``x`` (uint8), from state ``h``: one uint64 dot product
    per block of the affine sum (see fnv1a64), which wraps exactly."""
    powers = _powers()
    for block in range(0, len(x), _BLOCK_BYTES):
        m = min(_BLOCK_BYTES, len(x) - block)  # the block's deltas are weighted by powers[m - 1::-1]
        delta = np.subtract(x[block:block + m], low[block:block + m], dtype=np.uint64)  # h ^ b == h + delta
        h = (h * int(powers[m - 1]) + int(np.dot(delta, powers[m - 1::-1]))) & _MASK64
    return h


@functools.cache
def _limbs() -> np.ndarray:
    """limbs[j, t] = byte t of P**(_ROW_BYTES - j) mod 2**64, as float32: the
    weight of a row's delta j, split for the exact GEMM."""
    weights = [pow(_FNV_PRIME, _ROW_BYTES - j, 1 << 64) for j in range(_ROW_BYTES)]
    return np.array([[(w >> (8 * t)) & 0xFF for t in range(8)] for w in weights], dtype=np.float32)


@functools.cache
def _row_powers() -> np.ndarray:
    """row_powers[r, t] = P**(_ROW_BYTES * (R - 1 - r)) * 2**(8 * t) mod 2**64,
    R = _CHUNK_BYTES // _ROW_BYTES: the weight of limb t of a row's sum when
    R - 1 - r rows follow it in its chunk, so a chunk of q rows takes the last q."""
    rows = _CHUNK_BYTES // _ROW_BYTES
    step = pow(_FNV_PRIME, _ROW_BYTES, 1 << 64)
    return np.array([[(pow(step, rows - 1 - r, 1 << 64) << (8 * t)) & _MASK64 for t in range(8)]
                     for r in range(rows)], dtype=np.uint64)


def _prefix_xor(bits: np.ndarray, scratch: np.ndarray, parity: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of a 0/nonzero uint8 vector (length a multiple of 64)
    as 0/1 bytes, with uint64 ``scratch`` and uint8 ``parity`` of one entry per word."""
    words = np.packbits(bits, bitorder="little").view("<u8")  # element j is bit j
    for shift in _WORD_SHIFTS:
        np.left_shift(words, shift, out=scratch)
        words ^= scratch
    np.right_shift(words, _TOP_BIT, out=scratch)  # each word's parity in its low byte
    np.cumsum(scratch.view(np.uint8)[::8], dtype=np.uint8, out=parity)  # odd: words[: j + 1] flip
    scratch[:] = parity
    scratch &= _ONE
    np.negative(scratch, out=scratch)  # all ones where words[: j + 1] flip
    words[1:] ^= scratch[:-1]
    return np.unpackbits(words.view(np.uint8), bitorder="little")


def _solve_low_bytes(u: np.ndarray, x: np.ndarray, scratch: np.ndarray, parity: np.ndarray) -> None:
    """Turn ``u`` from the bytes b, with ``u[0] = l[0] ^ b[0]``, into ``l ^ b``
    in place: one round per bit plane of the low bytes l (see fnv1a64), in
    uint8 scratch ``x``. In round k, bits below k of ``u`` are final."""
    for bit in _BYTE_BITS:
        np.multiply(u, _PRIME_LOW, out=x)
        x &= bit  # bit k of l[1], then of l[i + 1] ^ l[i]: u[0] is complete
        flips = _prefix_xor(x, scratch, parity)
        flips *= bit
        u[1:] ^= flips[:-1]  # bit k of l[i + 1], so far 0, flips it in l ^ b


def _fnv1a64_vectorized(data) -> int:
    """FNV-1a by low-byte bit planes and one exact float32 GEMM per chunk (see fnv1a64)."""
    arr = np.frombuffer(data, dtype=np.uint8)
    # A chunk is hashed in whole rows: the last one is padded with zeros, and
    # a zero byte only multiplies the state by P, so P**-pad undoes the padding.
    # The work arrays are sized once per call and every chunk reuses them.
    size = -(-min(arr.size, _CHUNK_BYTES) // _ROW_BYTES) * _ROW_BYTES
    u_buf, delta_buf = np.empty(size, dtype=np.uint8), np.empty(size, dtype=np.float32)
    scratch, parity = np.empty(size // 64, dtype="<u8"), np.empty(size // 64, dtype=np.uint8)
    sums = np.empty((size // _ROW_BYTES, 8), dtype=np.float32)
    limbs, row_powers = _limbs(), _row_powers()
    h, pad = _FNV_OFFSET, -arr.size % _ROW_BYTES
    for start in range(0, arr.size, _CHUNK_BYTES):
        b = arr[start:start + _CHUNK_BYTES]
        if b.size % _ROW_BYTES:
            b = np.concatenate((b, np.zeros(pad, dtype=np.uint8)))
        m, rows = b.size, b.size // _ROW_BYTES
        u, deltas = u_buf[:m], delta_buf[:m]
        np.copyto(u, b)
        u[0] ^= h & 0xFF
        # the deltas' buffer is free until they are made
        _solve_low_bytes(u, delta_buf.view(np.uint8)[:m], scratch[:m // 64], parity[:m // 64])
        np.copyto(deltas, u)
        u ^= b  # the low bytes l
        deltas -= u  # d = (l ^ b) - l
        np.matmul(deltas.reshape(rows, _ROW_BYTES), limbs, out=sums[:rows])
        total = np.dot(sums[:rows].astype(np.int64).view(np.uint64).ravel(), row_powers[-rows:].ravel())
        h = (h * pow(_FNV_PRIME, m, 1 << 64) + int(total)) & _MASK64
    return h * pow(_FNV_PRIME, -pad, 1 << 64) & _MASK64


# ---------------------------------------------------------------------------
# binary feature / label files
# ---------------------------------------------------------------------------

def write_checked(path, magic: bytes, header: bytes, payload) -> None:
    """Write one checked file: ``magic``, the version, the format's ``header``
    bytes, the C-contiguous array ``payload`` and the payload's checksum."""
    data = memoryview(payload).cast("B")  # hashed and written without a bytes copy
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(magic, FORMAT_VERSION) + header)
        fh.write(data)
        fh.write(_CHECKSUM.pack(fnv1a64(data)))


def _read_head(fh, path, magic: bytes, itemsize: int, read_header) -> tuple:
    """(header, payload item count) of ``fh``, left at the payload, if the file has the size they imply."""
    size = os.fstat(fh.fileno()).st_size
    left = size - _CHECKSUM.size  # header reads stay within the file

    def take(n: int) -> bytes:
        nonlocal left
        raw = fh.read(n) if n <= left else b""
        if len(raw) != n:
            raise DataFormatError(f"truncated file ({size} bytes)")
        left -= n
        return raw

    try:
        got_magic, version = _PREFIX.unpack(take(_PREFIX.size))
        if got_magic != magic:
            raise DataFormatError(f"bad magic {got_magic!r}, expected {magic!r}")
        if version != FORMAT_VERSION:
            raise DataFormatError(f"unsupported format version {version}")
        header, count = read_header(take)
        if left != count * itemsize:
            raise DataFormatError(f"expected {size - left + count * itemsize} bytes, found {size}")
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return header, count


def read_checked(path, magic: bytes, dtype, read_header) -> tuple:
    """(header, flat payload array) of a checked file, the payload read straight into
    the array. ``read_header(take)`` returns the format's header and its payload item
    count, reading the header through ``take(n)``, which returns the next n bytes."""
    with open(path, "rb") as fh:
        header, count = _read_head(fh, path, magic, np.dtype(dtype).itemsize, read_header)
        values = np.empty(count, dtype=dtype)
        payload = values.view(np.uint8).data
        got = fh.readinto(payload)
        stored = fh.read(_CHECKSUM.size)
    if got != len(payload) or len(stored) != _CHECKSUM.size:  # the file shrank after fstat
        raise DataFormatError(f"{path}: truncated file")
    if fnv1a64(payload) != _CHECKSUM.unpack(stored)[0]:
        raise DataFormatError(f"{path}: checksum mismatch")
    return header, values


def _read_dims(take) -> tuple:
    """(T, D) header of a feature or label file, and its T*D payload items."""
    t, d = _DIMS.unpack(take(_DIMS.size))
    if t < 1 or d < 1:
        raise DataFormatError(f"invalid dimensions {t}x{d}")
    return (t, d), t * d


def write_features(path, values) -> None:
    """Write a T x D float32 clip-feature matrix to ``path``."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValidationError(f"feature sequence must be 2-D, got shape {arr.shape}")
    t, d = arr.shape
    if t < 1 or d < 1:
        raise ValidationError(f"feature sequence needs T,D >= 1, got {t}x{d}")
    with np.errstate(over="ignore"):  # the check below is the one report of an overflow
        payload = np.ascontiguousarray(arr, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise ValidationError("feature sequence contains non-finite values")
    write_checked(path, FEATURE_MAGIC, _DIMS.pack(t, d), payload)


def read_features(path) -> np.ndarray:
    """Read a feature file back as a (T, D) float32 array."""
    shape, values = read_checked(path, FEATURE_MAGIC, "<f4", _read_dims)
    arr = values.reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise DataFormatError(f"{path}: non-finite feature values")
    return arr


def write_frame_labels(path, labels) -> None:
    """Write a 1-D vector of 0/1 frame labels to ``path``."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"frame labels must be a non-empty 1-D vector, got shape {arr.shape}")
    if not is_binary(arr):
        raise ValidationError("frame labels must be 0 or 1")
    write_checked(path, LABEL_MAGIC, _DIMS.pack(arr.size, 1), np.ascontiguousarray(arr, dtype=np.uint8))


def read_frame_labels(path) -> np.ndarray:
    """Read a label file back as a (n,) uint8 array of 0/1."""
    (_, d), arr = read_checked(path, LABEL_MAGIC, np.uint8, _read_dims)
    if d != 1:
        raise DataFormatError(f"{path}: label files must have D=1, got {d}")
    if not is_binary(arr):
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
            if not is_binary(fl):
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


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a manifest and the files it references; errors name
    the offending line or entry."""
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines:
        raise DataFormatError(f"{path}: missing manifest header")
    header = re.fullmatch(r"gvvad-manifest v1 dim=(\d+) clip_len=(\d+)", lines[0])
    if header is None:
        raise DataFormatError(f"{path}:1: bad header {lines[0]!r}")
    dim = int(header.group(1))
    clip_len = int(header.group(2))
    if dim < 1 or clip_len < 1:
        raise DataFormatError(f"{path}:1: manifest dims must be >= 1, got dim={dim} clip_len={clip_len}")
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
    base = path.parent
    for e in manifest.entries:
        fpath = base / e.feature_path
        if not fpath.is_file():
            raise DataFormatError(f"{path}: entry {e.id!r} references missing file {e.feature_path!r}")
        with open(fpath, "rb") as fh:  # the header alone, checked against the file size
            (_, file_dim), _ = _read_head(fh, fpath, FEATURE_MAGIC, 4, _read_dims)
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
    filesystem-safe and unique. Every sample is checked before any file is
    written, so a bad one leaves ``out_dir`` without files.
    """
    samples = list(samples)
    for s in samples:
        if _ID_RE.fullmatch(s.id) is None:
            raise ValidationError(f"sample id {s.id!r} is not filesystem-safe")
        if s.dim != feature_dim:
            raise ValidationError(f"sample {s.id!r} has dim {s.dim}, dataset declares {feature_dim}")
        feats = np.asarray(s.features)
        if not np.can_cast(feats.dtype, "<f4"):  # VideoSample found float32 features finite already
            with np.errstate(over="ignore"):
                if not np.isfinite(feats.astype("<f4")).all():
                    raise ValidationError(f"sample {s.id!r}: feature values overflow float32")
    entries = tuple(ManifestEntry(s.id, f"features/{s.id}.gvft", s.y, s.y_s,
                                  None if s.frame_labels is None else f"labels/{s.id}.gvlb") for s in samples)
    manifest = DatasetManifest(entries, feature_dim, clip_len)  # checks the ids are unique
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    if any(entry.frame_label_path is not None for entry in manifest.entries):
        (out / "labels").mkdir(exist_ok=True)
    for s, entry in zip(samples, manifest.entries):
        write_features(out / entry.feature_path, s.features)
        if entry.frame_label_path is not None:
            write_frame_labels(out / entry.frame_label_path, s.frame_labels)
    manifest_path = out / "manifest.tsv"
    save_manifest(manifest, manifest_path)
    return manifest_path


# ---------------------------------------------------------------------------
# mixing and subsampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixedDataset:
    """Mixed training pools: anomalous samples all have y=1, normal all y=0,
    and no id is in them twice. Building one is the one check of both rules."""

    anomalous: tuple
    normal: tuple

    def __post_init__(self):
        seen = set()
        for pool, y in ((self.anomalous, 1), (self.normal, 0)):
            for s in pool:
                if s.y != y:
                    raise ValidationError(f"sample {s.id!r} with y={s.y} in the {('normal', 'anomalous')[y]} pool")
                if s.id in seen:
                    raise ValidationError(f"id collision: sample {s.id!r} is in the pools twice")
                seen.add(s.id)


def mix_datasets(real_anomalous, real_normal, synth_anomalous, synth_normal) -> MixedDataset:
    """Union the four source pools into mixed anomalous/normal training sets.

    :class:`MixedDataset` checks the result: a sample of the wrong class and
    an id in two inputs are hard errors (silently deduplicating would
    corrupt the cardinality accounting of the mix).
    """
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
