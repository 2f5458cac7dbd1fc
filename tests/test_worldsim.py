import math
from dataclasses import fields

import numpy as np
import pytest

from gvvad.datamodel import mix_datasets
from gvvad.errors import ValidationError
from gvvad.evaluation import evaluate
from gvvad.milcore import TrainConfig, train
from gvvad.promptgen import build_repository, default_inventory
from gvvad.worldsim import (
    WORLD_CONFIG_KEYS,
    GenerationCounts,
    WorldConfig,
    element_perturbation,
    generate_dataset,
    generate_video,
    load_world_config,
    save_world_config,
    world_config_from_kv,
)

PAIRS = build_repository(default_inventory(), limit=24, seed=7)


def world(dim=8, **kwargs):
    defaults = dict(dim=dim, clips_min=4, clips_max=8, clip_len=4, noise_sigma=1.0,
                    anomaly_frac_min=0.25, anomaly_frac_max=0.5)
    defaults.update(kwargs)
    return WorldConfig(**defaults)


def offset(dim, mag, axis=0):
    vec = np.zeros(dim)
    vec[axis] = mag
    return vec


class TestWorldConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            world(noise_sigma=0.0)
        with pytest.raises(ValidationError):
            world(clips_min=9, clips_max=8)
        with pytest.raises(ValidationError):
            world(anomaly_frac_min=0.8, anomaly_frac_max=0.5)
        with pytest.raises(ValidationError):
            world(anomaly_offset=np.zeros(5))  # wrong length for dim=8

    def test_scalar_broadcast(self):
        cfg = world(normal_center=1.5)
        np.testing.assert_array_equal(cfg.normal_center, np.full(8, 1.5))

    def test_file_round_trip(self, tmp_path):
        cfg = world(anomaly_offset=offset(8, 2.0), domain_offset=offset(8, 1.0, axis=1))
        path = tmp_path / "world.cfg"
        save_world_config(cfg, path)
        back = load_world_config(path)
        assert back.dim == cfg.dim
        assert back.clip_len == cfg.clip_len
        np.testing.assert_array_equal(back.anomaly_offset, cfg.anomaly_offset)
        np.testing.assert_array_equal(back.domain_offset, cfg.domain_offset)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            world_config_from_kv({"dim": "4", "bogus": "1"})

    def test_every_field_round_trips_through_kv_text(self, tmp_path):
        assert sorted(field for field, _ in WORLD_CONFIG_KEYS.values()) == sorted(
            f.name for f in fields(WorldConfig))
        cfg = WorldConfig(dim=3, clips_min=2, clips_max=5, clip_len=4, noise_sigma=0.75,
                          anomaly_frac_min=0.1, anomaly_frac_max=0.9, element_effect_scale=0.3,
                          normal_center=[0.5, -1.0, 0.1], anomaly_offset=[2.0, 0.0, 1e-3],
                          domain_offset=[0.0, 1.25, -0.2])
        path = tmp_path / "world.cfg"
        save_world_config(cfg, path)
        back = load_world_config(path)
        for f in fields(WorldConfig):
            np.testing.assert_array_equal(getattr(back, f.name), getattr(cfg, f.name))

    @pytest.mark.parametrize("key, value", [
        ("noise_sigma", math.inf),
        ("element_effect_scale", math.nan),
        ("element_effect_scale", math.inf),
    ])
    def test_non_finite_setting_rejected_by_name(self, key, value):
        with pytest.raises(ValidationError, match=key):
            world(**{key: value})
        with pytest.raises(ValidationError, match=key):
            world_config_from_kv({"dim": "4", key: str(value)})

    @pytest.mark.parametrize("value", ["2,,0,0,0", "2,0,0,0,", ",2,0,0,0", "2, ,0,0,0"])
    def test_empty_vector_item_rejected(self, value):
        with pytest.raises(ValidationError, match="anomaly_offset"):
            world_config_from_kv({"dim": "4", "anomaly_offset": value})

    def test_empty_vector_means_zeros(self):
        cfg = world_config_from_kv({"dim": "4", "anomaly_offset": ""})
        np.testing.assert_array_equal(cfg.anomaly_offset, np.zeros(4))


class TestElementPerturbation:
    def test_deterministic_and_tuple_sensitive(self):
        a = element_perturbation(("v", "l", "s", "e"), 8, 0.5)
        b = element_perturbation(("v", "l", "s", "e"), 8, 0.5)
        c = element_perturbation(("v", "l", "s", "other"), 8, 0.5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_norm_equals_scale(self):
        vec = element_perturbation(("v", "l", "s", "e"), 16, 0.7)
        assert np.linalg.norm(vec) == pytest.approx(0.7)

    def test_zero_scale_short_circuits(self):
        np.testing.assert_array_equal(element_perturbation(("v", "l", "s", "e"), 8, 0.0), np.zeros(8))


class TestGenerateVideo:
    def test_deterministic_bitwise(self):
        cfg = world(element_effect_scale=0.3, anomaly_offset=offset(8, 1.0))
        a = generate_video(cfg, PAIRS[0], "anomalous", "synthetic", seed=5)
        b = generate_video(cfg, PAIRS[0], "anomalous", "synthetic", seed=5)
        assert a.id == b.id
        assert np.array_equal(a.features.view(np.uint32), b.features.view(np.uint32))
        np.testing.assert_array_equal(a.frame_labels, b.frame_labels)

    def test_labels_and_source_set_from_arguments(self):
        cfg = world()
        v = generate_video(cfg, PAIRS[1], "anomalous", "real", seed=1)
        assert v.y == 1 and v.y_s == 0
        n = generate_video(cfg, PAIRS[1], "normal", "synthetic", seed=1)
        assert n.y == 0 and n.y_s == 1

    def test_clip_count_in_range_and_labels_contiguous(self):
        cfg = world()
        for seed in range(50):
            v = generate_video(cfg, PAIRS[seed % len(PAIRS)], "anomalous", "real", seed=seed)
            t = v.num_clips
            assert cfg.clips_min <= t <= cfg.clips_max
            clip_labels = v.frame_labels[::cfg.clip_len]
            assert clip_labels.sum() >= 1
            ones = np.flatnonzero(clip_labels)
            assert ones[-1] - ones[0] + 1 == len(ones)  # one contiguous run
            frac = len(ones) / t
            assert cfg.anomaly_frac_min - 1e-9 <= frac or len(ones) == 1
            assert frac <= cfg.anomaly_frac_max + 1.0 / t

    def test_frame_labels_repeat_clip_labels(self):
        cfg = world(clip_len=4)
        v = generate_video(cfg, PAIRS[2], "anomalous", "real", seed=3)
        labels = v.frame_labels.reshape(-1, 4)
        assert np.all(labels == labels[:, :1])

    def test_normal_videos_have_zero_labels(self):
        cfg = world()
        v = generate_video(cfg, PAIRS[3], "normal", "real", seed=2)
        assert v.frame_labels.sum() == 0

    def test_zero_gap_means_match_across_sources(self):
        # With domain_offset = 0 the per-clip means differ only by noise.
        cfg = world(dim=16, clips_min=16, clips_max=16)
        real = [generate_video(cfg, PAIRS[i % 8], "normal", "real", seed=(1, i))
                for i in range(40)]
        synth = [generate_video(cfg, PAIRS[i % 8], "normal", "synthetic", seed=(2, i))
                 for i in range(40)]
        clips_r = np.concatenate([s.features for s in real])
        clips_s = np.concatenate([s.features for s in synth])
        diff = clips_r.mean(axis=0) - clips_s.mean(axis=0)
        bound = 3.0 * cfg.noise_sigma * np.sqrt(1.0 / len(clips_r) + 1.0 / len(clips_s))
        assert np.all(np.abs(diff) < bound * 1.5)

    def test_rejects_bad_enum_values(self):
        with pytest.raises(ValidationError):
            generate_video(world(), PAIRS[0], "weird", "real", seed=0)
        with pytest.raises(ValidationError):
            generate_video(world(), PAIRS[0], "normal", "weird", seed=0)


class TestGenerateDataset:
    def test_requested_counts(self):
        sets = generate_dataset(world(), PAIRS, GenerationCounts(40, 40, 30, 30), base_seed=3)
        assert len(sets.real_anomalous) == 40
        assert len(sets.real_normal) == 40
        assert len(sets.synth_anomalous) == 30
        assert len(sets.synth_normal) == 30

    def test_paper_scale_synthetic_counts(self):
        cfg = world(dim=4, clips_min=1, clips_max=2, clip_len=1)
        sets = generate_dataset(cfg, PAIRS, GenerationCounts(0, 0, 300, 300), base_seed=1)
        assert len(sets.synth_anomalous) == 300
        assert len(sets.synth_normal) == 300
        assert all(s.y_s == 1 for s in sets.synth_anomalous)

    def test_disjoint_ids_across_sets(self):
        sets = generate_dataset(world(), PAIRS, GenerationCounts(10, 10, 10, 10), base_seed=2)
        ids = [s.id for s in sets.all_samples()]
        assert len(ids) == len(set(ids)) == 40

    def test_deterministic(self):
        a = generate_dataset(world(), PAIRS, GenerationCounts(5, 5, 5, 5), base_seed=4)
        b = generate_dataset(world(), PAIRS, GenerationCounts(5, 5, 5, 5), base_seed=4)
        for sa, sb in zip(a.all_samples(), b.all_samples()):
            assert sa.id == sb.id
            assert np.array_equal(sa.features.view(np.uint32), sb.features.view(np.uint32))

    def test_pairs_cycled_when_counts_exceed(self):
        sets = generate_dataset(world(), PAIRS[:3], GenerationCounts(7, 0, 0, 0), base_seed=5)
        indices = [int(s.id.split("-p")[1]) for s in sets.real_anomalous]
        assert indices == [PAIRS[i % 3].index for i in range(7)]

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError):
            generate_dataset(world(), [], GenerationCounts(1, 0, 0, 0), base_seed=0)


def train_and_score(cfg, mag, seed, n_train=24, n_test=40, epochs=12):
    w = world(dim=16, clips_min=8, clips_max=16, anomaly_offset=offset(16, mag),
              anomaly_frac_min=0.3, anomaly_frac_max=0.6)
    sets = generate_dataset(w, PAIRS, GenerationCounts(n_train, n_train, 0, 0), base_seed=(seed, "tr"))
    ds = mix_datasets(sets.real_anomalous, sets.real_normal, (), ())
    result = train(ds, TrainConfig(epochs=epochs, seed=seed, batch_pairs=2, k_rule="frac:0.2"))
    test = generate_dataset(w, PAIRS, GenerationCounts(n_test, n_test, 0, 0), base_seed=(seed, "te"))
    return evaluate(result.params, [*test.real_anomalous, *test.real_normal]).auc


class TestWorldStatistics:
    def test_zero_signal_world_is_undetectable(self):
        # No anomaly offset: a trained detector cannot beat chance.
        aucs = [train_and_score(None, 0.0, seed) for seed in range(10)]
        assert all(0.4 <= a <= 0.6 for a in aucs)

    def test_separability_monotone_in_anomaly_offset(self):
        mags = (0.0, 0.5, 1.0, 2.0)
        means = []
        for mag in mags:
            means.append(np.mean([train_and_score(None, mag, seed) for seed in range(10)]))
        for weak, strong in zip(means, means[1:]):
            assert strong >= weak - 0.02

    def test_linear_probe_detects_pronounced_gap(self):
        # Least-squares probe separates real from synthetic clips at a 3-sigma gap.
        gap = offset(16, 3.0, axis=2)
        w = world(dim=16, clips_min=8, clips_max=16, domain_offset=gap)
        sets = generate_dataset(w, PAIRS, GenerationCounts(60, 60, 60, 60), base_seed=77)
        clips, labels = [], []
        for s in sets.all_samples():
            clips.append(np.asarray(s.features, dtype=np.float64))
            labels.append(np.full(s.num_clips, s.y_s))
        x = np.concatenate(clips)
        y = np.concatenate(labels)
        order = np.random.default_rng(5).permutation(len(x))
        x, y = x[order], y[order]
        x_aug = np.hstack([x, np.ones((len(x), 1))])
        half = len(x) // 2
        coef, *_ = np.linalg.lstsq(x_aug[:half], 2.0 * y[:half] - 1.0, rcond=None)
        pred = (x_aug[half:] @ coef) > 0
        accuracy = np.mean(pred == (y[half:] == 1))
        assert accuracy > 0.9
