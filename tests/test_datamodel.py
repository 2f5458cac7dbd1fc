import tracemalloc

import numpy as np
import pytest

from gvvad import datamodel
from gvvad.datamodel import (
    DatasetManifest,
    ManifestEntry,
    MixedDataset,
    VideoSample,
    fnv1a64,
    load_manifest,
    load_samples,
    mix_datasets,
    read_features,
    read_frame_labels,
    save_manifest,
    subsample_real,
    write_dataset,
    write_features,
    write_frame_labels,
)
from gvvad.errors import DataFormatError, ValidationError
from gvvad.milcore import ScorerParams, load_params, save_params
from gvvad.numerics import rng_from


def make_sample(sample_id, y, y_s=0, t=3, dim=4, seed=0, labels=False, clip_len=2):
    rng = rng_from(seed, sample_id)
    feats = rng.normal(size=(t, dim)).astype(np.float32)
    frame_labels = None
    if labels:
        frame_labels = np.zeros(t * clip_len, dtype=np.uint8)
        if y == 1:
            frame_labels[:clip_len] = 1
    return VideoSample(sample_id, feats, y, y_s, frame_labels)


def sample_ids(dataset) -> set:
    """The ids of both pools of a MixedDataset."""
    return {s.id for pool in (dataset.anomalous, dataset.normal) for s in pool}


def fnv1a64_oracle(data) -> int:
    """The FNV-1a definition, one byte at a time."""
    h = 0xCBF29CE484222325
    for b in bytes(data):
        h = ((h ^ b) * 0x100000001B3) % 2**64
    return h


def pattern(shape, dtype, scale=64.0):
    """Values from integer arithmetic only, exact in float32 and float64."""
    n = int(np.prod(shape, dtype=np.int64))
    ints = (np.arange(n, dtype=np.int64) * 40503) % 65521 - 32760
    return (ints / scale).astype(dtype).reshape(shape)


def wide_params(hidden=8):
    """A 2048-dim scorer; test_written_bytes_are_pinned pins its GVPM bytes at hidden=8."""
    return ScorerParams(w1=pattern((hidden, 2048), np.float64, 1024.0), b1=pattern((hidden,), np.float64),
                        w2=pattern((hidden,), np.float64, 4096.0), b2=0.25)


SWITCH = datamodel._VECTORIZED_MIN_BYTES
BLOCK = datamodel._BLOCK_BYTES
CHUNK = datamodel._CHUNK_BYTES
HASH_PATHS = (fnv1a64, datamodel._fnv1a64_loop, datamodel._fnv1a64_vectorized)


class TestFnv1a:
    def test_known_vectors(self):
        # Reference values for the 64-bit FNV-1a test vectors.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @pytest.mark.parametrize("kind", ["random", "zeros", "ones"])
    # 64 KiB - 1, 64 KiB + 1 and 3 * 64 KiB + 17 end inside one chunk, in a
    # partial 64-byte word and a partial block.
    # SWITCH + 256 +- 1 and CHUNK +- 256 end on either side of a 256-byte GEMM row.
    @pytest.mark.parametrize("n", sorted({0, 1, SWITCH - 1, SWITCH, SWITCH + 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                          SWITCH + 255, SWITCH + 256, SWITCH + 257,
                                          65535, 65536, 65537, 196625,
                                          CHUNK - 256, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 256, 3 * CHUNK + 17}))
    def test_every_path_equals_the_byte_loop(self, n, kind):
        if kind == "random":
            data = rng_from(n, "fnv").integers(0, 256, n, dtype=np.uint8).tobytes()
        else:
            data = (b"\x00" if kind == "zeros" else b"\xff") * n
        expected = fnv1a64_oracle(data)
        for path in HASH_PATHS:
            for buf in (data, bytearray(data), memoryview(data)):
                assert path(buf) == expected, (path.__name__, type(buf).__name__)

    # Each byte picks v = l ^ b, the low byte after the XOR, for the running
    # low byte l to make d = v - l large: "largest" maximises |d| (d settles
    # at 178, and even sums stay exact in float32 up to 2**25, so it catches
    # GEMM rows of 2048 bytes, not 1024); "odd" takes the largest odd d > 0
    # (177 and 101 in turn), which catches 1024-byte rows.
    @pytest.mark.parametrize("rule", [lambda low: 255 if 255 - low > low else 0,
                                      lambda low: 254 if low % 2 else 255], ids=["largest", "odd"])
    def test_largest_deltas_stay_exact(self, rule):
        # 3 chunks and a tail that is no whole 256-byte row
        low, data = 0xCBF29CE484222325 & 0xFF, bytearray()
        for _ in range(3 * CHUNK + 100):
            v = rule(low)
            data.append(low ^ v)
            low = (v * 0x100000001B3) & 0xFF
        expected = fnv1a64_oracle(data)
        for path in HASH_PATHS:
            assert path(data) == expected, path.__name__

    def test_wide_payload_scratch_is_bounded(self):
        # numpy reports its buffers to tracemalloc. The vectorized path holds a
        # uint8 and a float32 copy of one chunk and one chunk-sized temporary
        # per round, whatever the payload's size.
        data = rng_from("fnv-memory").integers(0, 256, 3 * CHUNK, dtype=np.uint8).tobytes()
        fnv1a64(data)  # builds the cached tables
        tracemalloc.start()
        try:
            fnv1a64(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak  # 1.85 MiB with 256 KiB chunks


class TestChecksumAboveSwitch:
    """Payloads large enough for the vectorized checksum, across chunk boundaries."""

    @pytest.mark.parametrize("offset", [0, CHUNK - 1, CHUNK, -1], ids=["first", "chunk-end", "chunk-start", "last"])
    def test_flipped_bit_in_features_rejected(self, tmp_path, offset):
        path = tmp_path / "f.gvft"
        features = pattern((2 * CHUNK // (4 * 2048) + 1, 2048), np.float32)  # spans three chunks
        write_features(path, features)
        raw = path.read_bytes()
        assert features.nbytes > 2 * CHUNK
        start, end = 16, len(raw) - 8
        self._assert_each_flip_rejected(path, raw, range(start, end)[offset], lambda: read_features(path))

    @pytest.mark.parametrize("offset", [0, CHUNK - 1, CHUNK, -1], ids=["first", "chunk-end", "chunk-start", "last"])
    def test_flipped_bit_in_params_rejected(self, tmp_path, offset):
        path = tmp_path / "p.gvpm"
        params = wide_params(hidden=2 * CHUNK // (8 * 2048))  # spans three chunks
        save_params(path, params)
        raw = path.read_bytes()
        payload_size = 8 * (params.w1.size + params.b1.size + params.w2.size + 1)
        assert payload_size > 2 * CHUNK
        start, end = len(raw) - 8 - payload_size, len(raw) - 8
        self._assert_each_flip_rejected(path, raw, range(start, end)[offset], lambda: load_params(path))

    @staticmethod
    def _assert_each_flip_rejected(path, raw, index, read):
        read()  # the intact file reads
        for mask in (0x01, 0x80):
            bad = bytearray(raw)
            bad[index] ^= mask
            path.write_bytes(bad)
            with pytest.raises(DataFormatError, match="checksum"):
                read()

    def test_written_bytes_are_pinned(self, tmp_path):
        # Sizes and whole-file hashes recorded from files written when the
        # checksum was a byte loop: the bytes on disk, stored checksums
        # included, do not depend on how the checksum is computed.
        write_features(tmp_path / "f.gvft", pattern((9, 2048), np.float32))
        write_frame_labels(tmp_path / "l.gvlb", (np.arange(9001) * 40503 % 65521 % 2).astype(np.uint8))
        save_params(tmp_path / "p.gvpm", wide_params())
        pinned = {"f.gvft": (73728, 73752, 0x674465F7EB3F7FF8),
                  "l.gvlb": (9001, 9025, 0x19D36F99A6E28346),
                  "p.gvpm": (131208, 131288, 0x3C52E66FFF53EA76)}
        for name, (payload_size, size, digest) in pinned.items():
            raw = (tmp_path / name).read_bytes()
            assert (len(raw), fnv1a64_oracle(raw)) == (size, digest), name
            payload = raw[size - 8 - payload_size:size - 8]
            assert int.from_bytes(raw[-8:], "little") == fnv1a64_oracle(payload), name


class TestFeatureFiles:
    def test_minimal_file_is_28_bytes(self, tmp_path):
        path = tmp_path / "one.gvft"
        write_features(path, np.zeros((1, 1), dtype=np.float32))
        assert path.stat().st_size == 28

    def test_round_trip_bit_exact(self, tmp_path):
        rng = rng_from(1, "feat")
        arr = rng.normal(size=(20, 16)).astype(np.float32)
        path = tmp_path / "f.gvft"
        write_features(path, arr)
        back = read_features(path)
        assert back.dtype == np.float32
        assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))

    def test_many_random_round_trips(self, tmp_path):
        rng = rng_from(2, "feat-sweep")
        path = tmp_path / "f.gvft"
        for i in range(1000):
            t = int(rng.integers(1, 12))
            d = int(rng.integers(1, 24))
            arr = (rng.normal(size=(t, d)) * rng.uniform(0.01, 100)).astype(np.float32)
            write_features(path, arr)
            assert np.array_equal(read_features(path).view(np.uint32), arr.view(np.uint32))

    def test_corrupted_checksum_rejected(self, tmp_path):
        path = tmp_path / "f.gvft"
        write_features(path, np.ones((2, 2), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF  # flip a payload byte, checksum now stale
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="checksum"):
            read_features(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "f.gvft"
        write_features(path, np.ones((1, 1), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            read_features(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "f.gvft"
        write_features(path, np.ones((3, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataFormatError):
            read_features(path)

    def test_nonfinite_rejected_on_write(self, tmp_path):
        arr = np.ones((2, 2), dtype=np.float32)
        arr[0, 0] = np.inf
        with pytest.raises(ValidationError):
            write_features(tmp_path / "f.gvft", arr)


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        path = tmp_path / "l.gvlb"
        write_frame_labels(path, labels)
        np.testing.assert_array_equal(read_frame_labels(path), labels)

    def test_rejects_non_binary(self, tmp_path):
        with pytest.raises(ValidationError):
            write_frame_labels(tmp_path / "l.gvlb", np.array([0, 2, 1]))

    @pytest.mark.parametrize("labels", [np.array(["0", "1"]), np.array([0, "1"], dtype=object)])
    def test_rejects_string_and_object_labels(self, tmp_path, labels):
        with pytest.raises(ValidationError, match="0 or 1"):
            write_frame_labels(tmp_path / "l.gvlb", labels)
        assert not (tmp_path / "l.gvlb").exists()


class TestVideoSample:
    def test_normal_video_with_anomalous_frames_rejected(self):
        labels = np.ones(6, dtype=np.uint8)
        with pytest.raises(ValidationError, match="normal video"):
            VideoSample("bad", np.zeros((3, 2), dtype=np.float32), 0, 0, labels)

    def test_anomalous_video_without_anomalous_frames_rejected(self):
        labels = np.zeros(6, dtype=np.uint8)
        with pytest.raises(ValidationError, match="no anomalous frames"):
            VideoSample("bad", np.zeros((3, 2), dtype=np.float32), 1, 0, labels)

    def test_frame_labels_must_align_with_clips(self):
        labels = np.array([1, 0, 0, 0, 0], dtype=np.uint8)  # 5 frames, 3 clips
        with pytest.raises(ValidationError, match="align"):
            VideoSample("bad", np.zeros((3, 2), dtype=np.float32), 1, 0, labels)

    def test_rejects_bad_labels(self):
        feats = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValidationError):
            VideoSample("s", feats, 2, 0)
        with pytest.raises(ValidationError):
            VideoSample("s", feats, 0, 5)

    @pytest.mark.parametrize("labels", [np.array(["0", "1", "0", "0"]), np.array([0, 1, 0, "0"], dtype=object)])
    def test_rejects_string_and_object_frame_labels(self, labels):
        with pytest.raises(ValidationError, match="frame labels must be 0 or 1"):
            VideoSample("s", np.zeros((2, 2), dtype=np.float32), 1, 0, labels)


class TestManifest:
    def header(self, dim=4, clip_len=2):
        return f"gvvad-manifest v1 dim={dim} clip_len={clip_len}"

    def test_header_only_file_is_empty_manifest(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(self.header(dim=16, clip_len=16) + "\n")
        manifest = load_manifest(path)
        assert manifest.entries == ()
        assert manifest.feature_dim == 16
        assert manifest.clip_len == 16

    @pytest.mark.parametrize("dims", [(0, 2), (4, 0)], ids=["dim", "clip_len"])
    def test_zero_dims_name_the_header_line(self, tmp_path, dims):
        path = tmp_path / "m.tsv"
        path.write_text(self.header(*dims) + "\n")
        with pytest.raises(DataFormatError, match=r"m\.tsv:1: manifest dims must be >= 1"):
            load_manifest(path)

    def test_bad_y_value_names_field_and_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(self.header() + "\nvid1\tf.gvft\t2\t0\t-\n")
        with pytest.raises(DataFormatError, match=r"m\.tsv:2.*'y'"):
            load_manifest(path)

    def test_duplicate_id_rejected_with_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(self.header() + "\na\tf.gvft\t0\t0\t-\na\tg.gvft\t1\t0\t-\n")
        with pytest.raises(DataFormatError, match=r"m\.tsv:3.*duplicate"):
            load_manifest(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(self.header() + "\nonly\tthree\tfields\n")
        with pytest.raises(DataFormatError, match=r"m\.tsv:2"):
            load_manifest(path)

    def test_unsafe_id_rejected_with_line(self, tmp_path):
        # Ids name the files written for a video (score curves, features), so
        # a manifest may only hold ids that write_dataset would accept.
        for bad in ("../x", "a/b", "a b"):
            path = tmp_path / "m.tsv"
            path.write_text(self.header() + f"\nok\tf.gvft\t0\t0\t-\n{bad}\tg.gvft\t1\t0\t-\n")
            with pytest.raises(DataFormatError, match=r"m\.tsv:3.*not filesystem-safe"):
                load_manifest(path)
            with pytest.raises(ValidationError, match="not filesystem-safe"):
                write_dataset(tmp_path / "out", [make_sample(bad, 0)], feature_dim=4, clip_len=2)

    def test_missing_referenced_file_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(self.header() + "\nvid\tmissing.gvft\t0\t0\t-\n")
        with pytest.raises(DataFormatError, match="missing.gvft"):
            load_manifest(path)

    def test_dimension_inconsistency_rejected(self, tmp_path):
        write_features(tmp_path / "v.gvft", np.zeros((2, 3), dtype=np.float32))
        path = tmp_path / "m.tsv"
        path.write_text(self.header(dim=4) + "\nvid\tv.gvft\t0\t0\t-\n")
        with pytest.raises(DataFormatError, match="dim"):
            load_manifest(path)

    def test_save_load_round_trip(self, tmp_path):
        samples = [
            make_sample("a1", 1, y_s=0, labels=True),
            make_sample("n1", 0, y_s=1),
        ]
        manifest_path = write_dataset(tmp_path, samples, feature_dim=4, clip_len=2)
        manifest = load_manifest(manifest_path)
        assert [e.id for e in manifest.entries] == ["a1", "n1"]
        save_manifest(manifest, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_text() == manifest_path.read_text()
        loaded = load_samples(manifest, tmp_path)
        assert loaded[0].y == 1 and loaded[0].frame_labels is not None
        assert loaded[1].y_s == 1 and loaded[1].frame_labels is None
        np.testing.assert_array_equal(loaded[0].features, samples[0].features)

    def test_labels_directory_only_when_a_sample_has_labels(self, tmp_path):
        write_dataset(tmp_path / "none", [make_sample("a1", 1), make_sample("n1", 0)], feature_dim=4, clip_len=2)
        assert sorted(p.name for p in (tmp_path / "none").iterdir()) == ["features", "manifest.tsv"]
        write_dataset(tmp_path / "one", [make_sample("a1", 1, labels=True), make_sample("n1", 0)],
                      feature_dim=4, clip_len=2)
        assert [p.name for p in (tmp_path / "one" / "labels").iterdir()] == ["a1.gvlb"]

    def test_duplicate_ids_rejected_at_construction(self):
        entries = (ManifestEntry("x", "a.gvft", 0, 0), ManifestEntry("x", "b.gvft", 1, 0))
        with pytest.raises(ValidationError, match="duplicate"):
            DatasetManifest(entries, 4, 2)

    def test_bad_sample_fails_before_any_file_is_written(self, tmp_path):
        # A repeated id or a later sample of the wrong dim must not leave the
        # files of the samples before it (nor overwrite a repeated id's file).
        cases = {
            "duplicate": [make_sample("x", 1, labels=True), make_sample("x", 0, seed=1)],
            "dim": [make_sample("a", 1, labels=True), make_sample("b", 0, dim=5)],
            "filesystem-safe": [make_sample("a", 1), make_sample("a b", 0)],
        }
        for match, samples in cases.items():
            out = tmp_path / match
            with pytest.raises(ValidationError, match=match):
                write_dataset(out, samples, feature_dim=4, clip_len=2)
            assert [p for p in tmp_path.rglob("*") if p.is_file()] == [], match

    def test_float32_overflow_fails_before_any_file_is_written(self, tmp_path):
        # b's float64 features are finite, so VideoSample accepts them, but
        # they overflow the float32 payload; a's files must not be written.
        samples = [make_sample("a", 1, labels=True), VideoSample("b", np.full((3, 4), 1e39), 0, 0)]
        with pytest.raises(ValidationError, match="sample 'b': feature values overflow float32"):
            write_dataset(tmp_path / "out", samples, feature_dim=4, clip_len=2)
        assert list(tmp_path.rglob("*")) == []
        with pytest.raises(ValidationError, match="non-finite"):
            write_features(tmp_path / "b.gvft", samples[1].features)


class TestMixDatasets:
    def test_empty_synthetic_is_identity(self):
        real_a = [make_sample(f"a{i}", 1) for i in range(3)]
        real_n = [make_sample(f"n{i}", 0) for i in range(4)]
        mixed = mix_datasets(real_a, real_n, (), ())
        assert [s.id for s in mixed.anomalous] == [s.id for s in real_a]
        assert [s.id for s in mixed.normal] == [s.id for s in real_n]

    def test_cardinalities_add_exactly(self):
        real_a = [make_sample(f"ra{i}", 1) for i in range(5)]
        synth_a = [make_sample(f"va{i}", 1, y_s=1) for i in range(7)]
        mixed = mix_datasets(real_a, [make_sample("n", 0)], synth_a, [make_sample("vn", 0, y_s=1)])
        assert len(mixed.anomalous) == 12
        assert len(mixed.normal) == 2

    def test_paper_scale_counts(self):
        # 300 synthetic videos per class on top of a small real pool.
        real_a = [make_sample(f"ra{i}", 1, t=1, dim=2) for i in range(10)]
        real_n = [make_sample(f"rn{i}", 0, t=1, dim=2) for i in range(10)]
        synth_a = [make_sample(f"va{i}", 1, y_s=1, t=1, dim=2) for i in range(300)]
        synth_n = [make_sample(f"vn{i}", 0, y_s=1, t=1, dim=2) for i in range(300)]
        mixed = mix_datasets(real_a, real_n, synth_a, synth_n)
        assert len(mixed.anomalous) == 310
        assert len(mixed.normal) == 310
        assert sum(s.y_s for s in mixed.anomalous) == 300

    def test_commutative_up_to_set_equality(self):
        real_a = [make_sample(f"ra{i}", 1) for i in range(3)]
        synth_a = [make_sample(f"va{i}", 1, y_s=1) for i in range(2)]
        real_n = [make_sample("rn", 0)]
        synth_n = [make_sample("vn", 0, y_s=1)]
        m1 = mix_datasets(real_a, real_n, synth_a, synth_n)
        m2 = mix_datasets(synth_a, synth_n, real_a, real_n)  # swapped roles
        assert sample_ids(m1) == sample_ids(m2)
        assert len(m1.anomalous) == len(m2.anomalous)

    def test_id_collision_rejected(self):
        a = make_sample("dup", 1)
        b = make_sample("dup", 1, y_s=1)
        with pytest.raises(ValidationError, match="collision"):
            mix_datasets([a], [make_sample("n", 0)], [b], [])

    def test_class_purity_enforced(self):
        with pytest.raises(ValidationError, match="y=0"):
            mix_datasets([make_sample("x", 0)], [], [], [])
        with pytest.raises(ValidationError, match="y=1"):
            MixedDataset(anomalous=(), normal=(make_sample("x", 1),))


class TestSubsampleReal:
    def build(self, n_real=8, n_synth=3):
        anomalous = [make_sample(f"a{i}", 1) for i in range(n_real)]
        anomalous += [make_sample(f"sa{i}", 1, y_s=1) for i in range(n_synth)]
        normal = [make_sample(f"n{i}", 0) for i in range(n_real)]
        normal += [make_sample(f"sn{i}", 0, y_s=1) for i in range(n_synth)]
        return MixedDataset(tuple(anomalous), tuple(normal))

    def test_full_fraction_is_identity(self):
        ds = self.build()
        out = subsample_real(ds, 1.0, seed=1)
        assert sample_ids(out) == sample_ids(ds)

    def test_ceiling_arithmetic(self):
        anomalous = tuple(make_sample(f"a{i}", 1) for i in range(100))
        normal = tuple(make_sample(f"n{i}", 0) for i in range(100))
        out = subsample_real(MixedDataset(anomalous, normal), 0.25, seed=0)
        assert len(out.anomalous) == 25
        assert len(out.normal) == 25

    def test_float_dust_does_not_inflate_count(self):
        normal = tuple(make_sample(f"n{i}", 0) for i in range(50))
        anomalous = (make_sample("a", 1),)
        out = subsample_real(MixedDataset(anomalous, normal), 0.1, seed=0)
        assert len(out.normal) == 5

    def test_synthetic_untouched(self):
        ds = self.build(n_real=8, n_synth=3)
        out = subsample_real(ds, 0.5, seed=2)
        assert sum(s.y_s for s in out.anomalous) == 3
        assert sum(1 for s in out.anomalous if s.y_s == 0) == 4

    def test_same_seed_same_subset(self):
        ds = self.build()
        ids1 = sample_ids(subsample_real(ds, 0.5, seed=42))
        ids2 = sample_ids(subsample_real(ds, 0.5, seed=42))
        assert ids1 == ids2

    def test_subset_independent_of_synthetic_presence(self):
        with_synth = self.build(n_real=8, n_synth=3)
        without = MixedDataset(
            tuple(s for s in with_synth.anomalous if s.y_s == 0),
            tuple(s for s in with_synth.normal if s.y_s == 0),
        )
        picked_with = {s.id for s in subsample_real(with_synth, 0.5, seed=5).anomalous if s.y_s == 0}
        picked_without = {s.id for s in subsample_real(without, 0.5, seed=5).anomalous}
        assert picked_with == picked_without

    def test_twice_subsampled_cardinality_law(self):
        normal = tuple(make_sample(f"n{i}", 0) for i in range(40))
        ds = MixedDataset((make_sample("a", 1),), normal)
        once = subsample_real(ds, 0.5, seed=1)
        twice = subsample_real(once, 0.5, seed=2)
        direct = subsample_real(ds, 0.25, seed=3)
        assert len(twice.normal) == len(direct.normal) == 10

    def test_fraction_bounds(self):
        ds = self.build()
        with pytest.raises(ValidationError):
            subsample_real(ds, 0.0, seed=0)
        with pytest.raises(ValidationError):
            subsample_real(ds, 1.2, seed=0)
