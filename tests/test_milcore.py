import math

import numpy as np
import pytest

from gvvad.datamodel import MixedDataset, VideoSample, mix_datasets
from gvvad.errors import ShapeError, ValidationError
from gvvad.milcore import (
    FilterPolicy,
    ScorerParams,
    TrainConfig,
    filter_synthetic,
    gradient_check,
    history_to_csv,
    load_params,
    load_train_config,
    params_to_vector,
    resolve_k,
    save_params,
    save_train_config,
    score_segments,
    ssls_scale,
    topk_indices,
    topk_mean,
    total_loss_and_grads,
    train,
    vector_to_params,
)
from gvvad.numerics import rng_from, stable_sigmoid
from gvvad.promptgen import build_repository, default_inventory
from gvvad.worldsim import GenerationCounts, WorldConfig, generate_dataset

PAIRS = build_repository(default_inventory(), limit=24, seed=7)


def sample(sample_id, y, y_s=0, t=6, dim=5, seed=0):
    rng = rng_from("milcore-sample", sample_id, seed)
    return VideoSample(sample_id, rng.normal(size=(t, dim)).astype(np.float32), y, y_s)


def pair_batch(n_pairs, dim=5, synth_mask=None, seed=0):
    batch = []
    for i in range(n_pairs):
        y_s = 1 if (synth_mask and synth_mask[i]) else 0
        batch.append((
            sample(f"a{i}", 1, y_s=y_s, dim=dim, seed=seed),
            sample(f"n{i}", 0, y_s=y_s, dim=dim, seed=seed),
        ))
    return batch


class TestScoreSegments:
    def test_zero_weights_give_half(self):
        params = ScorerParams(np.zeros((3, 4)), np.zeros(3), np.zeros(3), np.zeros(()))
        scores = score_segments(params, np.ones((5, 4), dtype=np.float32))
        np.testing.assert_array_equal(scores, np.full(5, 0.5))

    def test_permutation_equivariance(self):
        rng = rng_from("perm")
        params = ScorerParams.init(4, 8, rng)
        feats = rng.normal(size=(7, 4))
        perm = rng.permutation(7)
        np.testing.assert_array_equal(score_segments(params, feats)[perm],
                                      score_segments(params, feats[perm]))

    def test_matches_naive_per_clip_loop(self):
        rng = rng_from("naive")
        params = ScorerParams.init(6, 5, rng)
        feats = rng.normal(size=(9, 6))
        naive = []
        for t in range(9):
            hidden = np.maximum(params.w1 @ feats[t] + params.b1, 0.0)
            naive.append(stable_sigmoid(float(params.w2 @ hidden + params.b2)))
        np.testing.assert_allclose(score_segments(params, feats), naive, atol=1e-12)

    def test_dimension_mismatch(self):
        params = ScorerParams.init(4, 3, rng_from("dim"))
        with pytest.raises(ShapeError):
            score_segments(params, np.zeros((2, 5)))


class TestTopK:
    def test_hand_case(self):
        assert topk_mean(np.array([0.9, 0.1, 0.8, 0.2]), 2) == pytest.approx(0.85, abs=1e-12)

    def test_k_equals_t_is_plain_mean(self):
        scores = np.array([0.2, 0.4, 0.9])
        assert topk_mean(scores, 3) == pytest.approx(scores.mean(), abs=1e-15)

    def test_matches_sort_oracle_exactly(self):
        rng = rng_from("topk-oracle")
        for _ in range(300):
            t = int(rng.integers(1, 51))
            scores = rng.uniform(size=t)
            if rng.uniform() < 0.3:
                scores = np.round(scores, 1)  # force ties
            for k in range(1, t + 1):
                ranked = sorted(zip(scores, range(t)), key=lambda p: (-p[0], p[1]))
                expected = float(np.sum(np.array([v for v, _ in ranked[:k]])) / k)
                assert topk_mean(scores, k) == expected

    def test_ties_break_toward_lower_index(self):
        from gvvad.milcore import topk_indices

        scores = np.array([0.5, 0.9, 0.5, 0.9])
        np.testing.assert_array_equal(topk_indices(scores, 2), [1, 3])
        np.testing.assert_array_equal(topk_indices(scores, 3), [1, 3, 0])

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            topk_mean(np.array([0.5]), 2)
        with pytest.raises(ValidationError):
            topk_mean(np.array([0.5]), 0)


class TestResolveK:
    def test_div_rule_default(self):
        assert resolve_k("div:16", 15) == 1
        assert resolve_k("div:16", 16) == 1
        assert resolve_k("div:16", 33) == 2

    def test_fixed_clamps_to_bag(self):
        assert resolve_k("fixed:3", 10) == 3
        assert resolve_k("fixed:3", 2) == 2

    def test_frac(self):
        assert resolve_k("frac:0.2", 10) == 2
        assert resolve_k("frac:0.2", 3) == 1

    def test_unknown_rule(self):
        with pytest.raises(ValidationError):
            resolve_k("best:5", 10)

    def test_non_numeric_argument(self):
        for rule in ("fixed:x", "frac:abc", "div:y", "fixed:", "frac:"):
            with pytest.raises(ValidationError, match="is not a number"):
                resolve_k(rule, 10)


class TestMilLoss:
    # A pair's loss is the BCE of the anomalous bag score toward 1 plus the
    # normal one toward 0, as the batch objective computes it.
    def test_uninformative_scores(self):
        params = ScorerParams(np.zeros((3, 5)), np.zeros(3), np.zeros(3), np.zeros(()))  # every clip 0.5
        bd, _ = total_loss_and_grads(params, pair_batch(1), TrainConfig())
        assert bd.raw[0] == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_perfect_separation_is_tiny(self):
        # Feature 0 drives the score: logit 70 on the anomalous bag, -30 on the normal one.
        w1 = np.zeros((1, 5))
        w1[0, 0] = 1.0
        params = ScorerParams(w1, np.zeros(1), np.array([10.0]), np.array(-30.0))
        a = VideoSample("a", np.full((4, 5), 10.0, dtype=np.float32), 1, 0)
        n = VideoSample("n", np.full((4, 5), -10.0, dtype=np.float32), 0, 0)
        bd, _ = total_loss_and_grads(params, [(a, n)], TrainConfig())
        assert bd.raw[0] < 1e-6


class TestSslsScale:
    def test_hand_case(self):
        out = ssls_scale(np.array([0.8]), np.array([1]), 0.5)
        assert out.scaled[0] == pytest.approx(0.4, abs=1e-15)

    def test_real_samples_bit_identical(self):
        rng = rng_from("ssls-real")
        raw = rng.uniform(0.1, 2.0, size=50)
        ys = (rng.uniform(size=50) < 0.5).astype(int)
        out = ssls_scale(raw, ys, 0.37)
        real = ys == 0
        assert np.array_equal(out.scaled[real], raw[real])
        np.testing.assert_array_equal(out.scaled[~real], 0.37 * raw[~real])

    def test_ratio_law_for_power_of_two_lambda(self):
        rng = rng_from("ssls-ratio")
        raw = rng.uniform(0.1, 3.0, size=100)
        ys = np.ones(100, dtype=int)
        for lam in (0.5, 0.25):
            out = ssls_scale(raw, ys, lam)
            np.testing.assert_array_equal(out.scaled / raw, np.full(100, lam))

    def test_lambda_one_is_identity(self):
        raw = np.array([0.3, 1.7, 0.0])
        out = ssls_scale(raw, np.array([1, 1, 1]), 1.0)
        assert np.array_equal(out.scaled, raw)

    def test_lambda_zero_annihilates_synthetic(self):
        out = ssls_scale(np.array([1.0, 2.0]), np.array([0, 1]), 0.0)
        np.testing.assert_array_equal(out.scaled, [1.0, 0.0])

    def test_total_is_ascending_left_fold(self):
        raw = np.array([0.1, 0.2, 0.3])
        out = ssls_scale(raw, np.zeros(3, dtype=int), 0.5)
        assert out.total == ((0.1 + 0.2) + 0.3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ssls_scale(np.zeros(3), np.zeros(2, dtype=int), 0.5)


class TestTotalLossAndGrads:
    def test_all_real_batch_is_lambda_invariant_bitwise(self):
        params = ScorerParams.init(5, 4, rng_from("tl1"))
        batch = pair_batch(3)
        outs = []
        for lam in (0.2, 0.7, 1.0):
            bd, grads = total_loss_and_grads(params, batch, TrainConfig(lam=lam))
            outs.append((bd.total, grads))
        for total, grads in outs[1:]:
            assert total == outs[0][0]
            assert all(np.array_equal(grads[k], outs[0][1][k]) for k in grads)

    def test_synthetic_pair_gradient_scales_exactly(self):
        params = ScorerParams.init(5, 4, rng_from("tl2"))
        batch = pair_batch(1, synth_mask=[True])
        lam = 0.3
        _, g_scaled = total_loss_and_grads(params, batch, TrainConfig(lam=lam))
        _, g_unit = total_loss_and_grads(params, batch, TrainConfig(lam=1.0))
        for key in g_unit:
            np.testing.assert_array_equal(g_scaled[key], lam * g_unit[key])

    def test_pair_source_label_is_or_of_members(self):
        params = ScorerParams.init(5, 4, rng_from("tl3"))
        batch = [(sample("a", 1, y_s=0), sample("n", 0, y_s=1))]
        bd, _ = total_loss_and_grads(params, batch, TrainConfig(lam=0.5))
        assert bd.source_labels.tolist() == [1]
        assert bd.scaled[0] == pytest.approx(0.5 * bd.raw[0], abs=1e-15)

    def test_disabled_path_bit_identical_to_lambda_one(self):
        params = ScorerParams.init(5, 4, rng_from("tl4"))
        batch = pair_batch(4, synth_mask=[False, True, True, False])
        bd_one, g_one = total_loss_and_grads(params, batch, TrainConfig(lam=1.0))
        bd_off, g_off = total_loss_and_grads(params, batch, TrainConfig(ssls_enabled=False))
        assert bd_one.total == bd_off.total
        assert np.array_equal(bd_one.scaled, bd_off.scaled)
        assert all(np.array_equal(g_one[k], g_off[k]) for k in g_one)

    def test_topk_gradient_sparsity(self):
        # Only the k selected clips of each bag reach the gradient: moving a
        # clip outside its bag's top-k leaves every gradient bit-equal,
        # moving a selected clip does not.
        params = ScorerParams.init(5, 4, rng_from("tl6"))
        cfg = TrainConfig(k_rule="fixed:2")
        pair = (sample("a", 1, t=9), sample("n", 0, t=7))
        _, base = total_loss_and_grads(params, [pair], cfg)

        def grads_with_moved_clip(bag, clip):
            moved = list(pair)
            feats = pair[bag].features.copy()
            feats[clip] += np.float32(0.01)
            moved[bag] = VideoSample(pair[bag].id, feats, pair[bag].y, pair[bag].y_s)
            before = topk_indices(score_segments(params, pair[bag].features), 2)
            after = topk_indices(score_segments(params, feats), 2)
            np.testing.assert_array_equal(before, after)  # the selection itself is unchanged
            return total_loss_and_grads(params, [tuple(moved)], cfg)[1]

        for bag in (0, 1):
            scores = score_segments(params, pair[bag].features)
            selected = topk_indices(scores, 2)
            outside = int(np.argmin(scores))
            assert outside not in selected
            moved = grads_with_moved_clip(bag, outside)
            assert all(np.array_equal(moved[k], base[k]) for k in base)
            moved = grads_with_moved_clip(bag, int(selected[0]))
            assert not all(np.array_equal(moved[k], base[k]) for k in base)

    def test_mixed_class_pair_rejected(self):
        params = ScorerParams.init(5, 4, rng_from("tl7"))
        with pytest.raises(ValidationError):
            total_loss_and_grads(params, [(sample("x", 0), sample("y", 0))], TrainConfig())

    def test_scorer_gradients_are_views_of_one_flat_vector(self):
        # train() hands this flat vector to Adam; it must hold every block in
        # the layout of params_to_vector.
        params = ScorerParams.init(5, 4, rng_from("tl12"))
        _, grads = total_loss_and_grads(params, pair_batch(2, synth_mask=[False, True]), TrainConfig())
        flat = grads["w1"].base
        assert flat.shape == params_to_vector(params).shape
        unpacked = vector_to_params(flat, 5, 4)
        for key in ("w1", "b1", "w2", "b2"):
            assert np.shares_memory(grads[key], flat)
            assert np.array_equal(getattr(unpacked, key), grads[key])

class TestGradientCheck:
    def test_passes_against_finite_differences(self):
        report = gradient_check(seed=0)
        assert report.passed
        assert report.max_rel_error < 1e-4

    def test_corrupted_gradient_fails(self):
        report = gradient_check(seed=0, corrupt=True)
        assert not report.passed

    def test_report_lists_every_block(self):
        report = gradient_check(seed=1, num_batches=2)
        assert set(report.block_errors) == {"w1", "b1", "w2", "b2"}
        text = report.format()
        for name in ("w1", "b1", "w2", "b2"):
            assert name in text
        assert "PASS" in text

    def test_mil_gradient_matches_finite_differences_through_topk(self):
        from gvvad.numerics import finite_diff_grad

        cfg = TrainConfig(k_rule="fixed:2", hidden=2)
        params = ScorerParams.init(4, 2, rng_from("fd-mil"))
        batch = pair_batch(3, dim=4, synth_mask=[False, True, False], seed=5)

        _, grads = total_loss_and_grads(params, batch, cfg)
        analytic = params_to_vector(ScorerParams(grads["w1"], grads["b1"], grads["w2"], grads["b2"]))

        def objective(vec):
            bd, _ = total_loss_and_grads(vector_to_params(vec, 4, 2), batch, cfg)
            return bd.total

        numeric = finite_diff_grad(objective, params_to_vector(params), h=1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


class TestFilterSynthetic:
    def world_sets(self, gap_sigma, seed=0, n=30):
        dim = 8
        gap = np.zeros(dim)
        gap[1] = gap_sigma
        world = WorldConfig(dim=dim, clips_min=6, clips_max=10, clip_len=2,
                            anomaly_frac_min=0.3, anomaly_frac_max=0.6,
                            anomaly_offset=None, domain_offset=gap)
        return generate_dataset(world, PAIRS, GenerationCounts(n, n, n, n), base_seed=seed)

    def test_none_policy_is_identity(self):
        sets = self.world_sets(1.0)
        kept_a, kept_n, report = filter_synthetic(
            sets.real_anomalous, sets.real_normal, sets.synth_anomalous, sets.synth_normal
        )
        assert kept_a == tuple(sets.synth_anomalous)
        assert kept_n == tuple(sets.synth_normal)
        assert report.rejected_ids == ()

    def test_video_at_real_centroid_always_kept(self):
        sets = self.world_sets(0.5)
        means = np.stack([np.asarray(s.features, dtype=np.float64).mean(axis=0)
                          for s in sets.real_anomalous])
        centroid = means.mean(axis=0)
        planted = VideoSample("planted", np.tile(centroid, (4, 1)).astype(np.float32), 1, 1)
        kept_a, _, _ = filter_synthetic(
            sets.real_anomalous, sets.real_normal,
            (planted,), sets.synth_normal, FilterPolicy("centroid_distance", 95.0),
        )
        assert any(s.id == "planted" for s in kept_a)

    def test_huge_gap_rejects_most_synthetic(self):
        for seed in range(10):
            sets = self.world_sets(10.0, seed=seed, n=20)
            kept_a, kept_n, report = filter_synthetic(
                sets.real_anomalous, sets.real_normal,
                sets.synth_anomalous, sets.synth_normal,
                FilterPolicy("centroid_distance", 95.0),
            )
            rejected = len(report.rejected_ids)
            total = len(sets.synth_anomalous) + len(sets.synth_normal)
            assert rejected / total > 0.5

    def test_real_sets_required_for_active_policy(self):
        sets = self.world_sets(1.0)
        with pytest.raises(ValidationError):
            filter_synthetic((), sets.real_normal, sets.synth_anomalous, sets.synth_normal,
                             FilterPolicy("centroid_distance"))

    def test_report_contains_distances(self):
        sets = self.world_sets(10.0)
        _, _, report = filter_synthetic(
            sets.real_anomalous, sets.real_normal,
            sets.synth_anomalous, sets.synth_normal,
            FilterPolicy("centroid_distance", 95.0),
        )
        assert report.anomalous.threshold is not None
        assert all(dist > report.anomalous.threshold for _, dist in report.anomalous.rejected)


def small_world_dataset(mag=4.0, n=40, seed=0, gap=0.0):
    dim = 16
    a = np.zeros(dim)
    a[0] = mag
    d = np.zeros(dim)
    d[1] = gap
    world = WorldConfig(dim=dim, clips_min=8, clips_max=16, clip_len=4,
                        anomaly_frac_min=0.3, anomaly_frac_max=0.6,
                        anomaly_offset=a, domain_offset=d)
    sets = generate_dataset(world, PAIRS, GenerationCounts(n, n, 0, 0), base_seed=(seed, "train"))
    test = generate_dataset(world, PAIRS, GenerationCounts(40, 40, 0, 0), base_seed=(seed, "test"))
    dataset = mix_datasets(sets.real_anomalous, sets.real_normal, (), ())
    return dataset, [*test.real_anomalous, *test.real_normal]


class TestTrain:
    def test_strong_signal_reaches_high_auc_within_30_epochs(self):
        from gvvad.evaluation import evaluate

        passed = 0
        for seed in range(10):
            dataset, test = small_world_dataset(mag=4.0, seed=seed)
            result = train(dataset, TrainConfig(epochs=30, seed=seed, batch_pairs=2, k_rule="frac:0.2"))
            if evaluate(result.params, test).auc > 0.95:
                passed += 1
        assert passed >= 9

    def test_same_seed_bit_identical_params(self):
        dataset, _ = small_world_dataset(mag=2.0, n=12, seed=3)
        cfg = TrainConfig(epochs=4, seed=11, batch_pairs=2)
        a = train(dataset, cfg).params
        b = train(dataset, cfg).params
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b1, b.b1)
        assert np.array_equal(a.w2, b.w2) and np.array_equal(a.b2, b.b2)

    def test_training_invariant_to_sample_order(self):
        dataset, _ = small_world_dataset(mag=2.0, n=10, seed=4)
        reversed_ds = MixedDataset(tuple(reversed(dataset.anomalous)), tuple(reversed(dataset.normal)))
        cfg = TrainConfig(epochs=3, seed=2, batch_pairs=4)
        a = train(dataset, cfg).params
        b = train(reversed_ds, cfg).params
        assert np.array_equal(a.w1, b.w1)

    def test_lambda_one_run_bit_identical_to_ssls_disabled(self):
        dim = 16
        a_off = np.zeros(dim)
        a_off[0] = 2.0
        world = WorldConfig(dim=dim, clips_min=6, clips_max=10, clip_len=2,
                            anomaly_frac_min=0.3, anomaly_frac_max=0.6, anomaly_offset=a_off)
        sets = generate_dataset(world, PAIRS, GenerationCounts(8, 8, 8, 8), base_seed=9)
        dataset = mix_datasets(sets.real_anomalous, sets.real_normal,
                               sets.synth_anomalous, sets.synth_normal)
        one = train(dataset, TrainConfig(lam=1.0, epochs=5, seed=1, batch_pairs=2)).params
        off = train(dataset, TrainConfig(ssls_enabled=False, epochs=5, seed=1, batch_pairs=2)).params
        assert np.array_equal(one.w1, off.w1) and np.array_equal(one.b1, off.b1)
        assert np.array_equal(one.w2, off.w2) and np.array_equal(one.b2, off.b2)

    def test_zero_signal_world_stays_near_chance(self):
        from gvvad.evaluation import evaluate

        for seed in range(3):
            dataset, test = small_world_dataset(mag=0.0, n=20, seed=seed)
            result = train(dataset, TrainConfig(epochs=8, seed=seed, batch_pairs=2, k_rule="frac:0.2"))
            assert 0.4 <= evaluate(result.params, test).auc <= 0.6

    def test_history_rows_and_csv(self):
        dataset, test = small_world_dataset(mag=2.0, n=8, seed=5)
        result = train(dataset, TrainConfig(epochs=3, seed=0, batch_pairs=2), val_samples=test)
        assert len(result.history) == 3
        assert all(row.val_auc is not None for row in result.history)
        csv_text = history_to_csv(result.history)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "epoch,L_total,L_MIL_mean,val_auc,lambda_effective"
        assert len(lines) == 4

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            train(MixedDataset((), (sample("n", 0),)), TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_diverging_parameters_rejected(self):
        # A step that leaves a non-finite weight stops training with the
        # name of the block; the overflow that causes it is the point here.
        dataset, _ = small_world_dataset(mag=2.0, n=8, seed=6)
        with pytest.raises(ValidationError, match=r"parameter (w1|b1|w2|b2) contains non-finite values"):
            train(dataset, TrainConfig(lr=1e308, epochs=5, batch_pairs=2))

    def test_train_runs_the_tested_rules(self, monkeypatch):
        # Training must go through the top-k mean, BCE and loss scaling that
        # the unit and acceptance tests check, not through private copies.
        import gvvad.milcore as milcore
        import gvvad.numerics as numerics

        assert milcore.bce is numerics.bce
        calls = dict.fromkeys(("topk_mean", "bce", "ssls_scale"), 0)
        for name in calls:
            def spy(*args, _name=name, _fn=getattr(milcore, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(milcore, name, spy)
        world = WorldConfig(dim=16, clips_min=6, clips_max=10, clip_len=2,
                            anomaly_frac_min=0.3, anomaly_frac_max=0.6)
        sets = generate_dataset(world, PAIRS, GenerationCounts(4, 4, 4, 4), base_seed=12)
        dataset = mix_datasets(sets.real_anomalous, sets.real_normal,
                               sets.synth_anomalous, sets.synth_normal)
        train(dataset, TrainConfig(epochs=1, batch_pairs=2))
        # 8 pairs (4 real, 4 synthetic) in 4 batches: one top-k and one BCE per bag.
        assert calls == {"topk_mean": 16, "bce": 16, "ssls_scale": 4}


class TestParamsFile:
    def test_round_trip_bit_exact(self, tmp_path):
        params = ScorerParams.init(7, 5, rng_from("pf"))
        path = tmp_path / "params.gvpm"
        save_params(path, params)
        back = load_params(path)
        assert np.array_equal(params.w1, back.w1)
        assert np.array_equal(params.b1, back.b1)
        assert np.array_equal(params.w2, back.w2)
        assert np.array_equal(params.b2, back.b2)

    def test_corruption_detected(self, tmp_path):
        from gvvad.errors import DataFormatError

        params = ScorerParams.init(3, 2, rng_from("pf2"))
        path = tmp_path / "params.gvpm"
        save_params(path, params)
        raw = bytearray(path.read_bytes())
        raw[-12] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            load_params(path)


class TestTrainConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(lam=0.25, k_rule="frac:0.2",
                          epochs=7, batch_pairs=3, hidden=12, seed=99)
        path = tmp_path / "train.cfg"
        save_train_config(cfg, path)
        assert load_train_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs=3\nmystery=1\n")
        with pytest.raises(ValidationError, match="mystery"):
            load_train_config(path)

    def test_learnable_lambda_key_rejected(self, tmp_path):
        # The scaling factor is fixed; a config that asks to learn it is refused.
        path = tmp_path / "train.cfg"
        path.write_text("lambda=0.5\nlambda_learnable=1\n")
        with pytest.raises(ValidationError, match="lambda_learnable"):
            load_train_config(path)
        with pytest.raises(TypeError):
            TrainConfig(lam_learnable=True)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(lam=-0.1)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=0)
        for bad in ({"lr": 0.0}, {"lr": -0.001}, {"lr": float("nan")}, {"lr": float("inf")},
                    {"weight_decay": -0.1}, {"weight_decay": float("nan")},
                    {"lam": float("inf")}, {"lam": float("nan")}):
            with pytest.raises(ValidationError):
                TrainConfig(**bad)
