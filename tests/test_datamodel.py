import numpy as np
import pytest

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


class TestFnv1a:
    def test_known_vectors(self):
        # Reference values for the 64-bit FNV-1a test vectors.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8


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

    def test_bad_y_value_names_field_and_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(self.header() + "\nvid1\tf.gvft\t2\t0\t-\n")
        with pytest.raises(DataFormatError, match=r"m\.tsv:2.*'y'"):
            load_manifest(path, check_files=False)

    def test_duplicate_id_rejected_with_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(self.header() + "\na\tf.gvft\t0\t0\t-\na\tg.gvft\t1\t0\t-\n")
        with pytest.raises(DataFormatError, match=r"m\.tsv:3.*duplicate"):
            load_manifest(path, check_files=False)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(self.header() + "\nonly\tthree\tfields\n")
        with pytest.raises(DataFormatError, match=r"m\.tsv:2"):
            load_manifest(path, check_files=False)

    def test_unsafe_id_rejected_with_line(self, tmp_path):
        # Ids name the files written for a video (score curves, features), so
        # a manifest may only hold ids that write_dataset would accept.
        for bad in ("../x", "a/b", "a b"):
            path = tmp_path / "m.tsv"
            path.write_text(self.header() + f"\nok\tf.gvft\t0\t0\t-\n{bad}\tg.gvft\t1\t0\t-\n")
            with pytest.raises(DataFormatError, match=r"m\.tsv:3.*not filesystem-safe"):
                load_manifest(path, check_files=False)
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

    def test_duplicate_ids_rejected_at_construction(self):
        entries = (ManifestEntry("x", "a.gvft", 0, 0), ManifestEntry("x", "b.gvft", 1, 0))
        with pytest.raises(ValidationError, match="duplicate"):
            DatasetManifest(entries, 4, 2)


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
        assert m1.ids() == m2.ids()
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
        assert out.ids() == ds.ids()

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
        ids1 = subsample_real(ds, 0.5, seed=42).ids()
        ids2 = subsample_real(ds, 0.5, seed=42).ids()
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
