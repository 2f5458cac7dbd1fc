import math
import re
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from gvvad.datamodel import MixedDataset, VideoSample, mix_datasets
from gvvad.errors import ShapeError, ValidationError
from gvvad.kvformat import format_kv, load_kv, parse_kv_text, save_kv
from gvvad.milcore import (
    TRAIN_CONFIG_KEYS,
    ScorerParams,
    TrainConfig,
    filter_synthetic,
    gradient_check,
    history_to_csv,
    load_params,
    params_to_vector,
    resolve_k,
    save_params,
    score_segments,
    ssls_scale,
    topk_mean,
    total_loss_and_grads,
    train,
    train_config_from_kv,
    train_config_to_kv,
    train_runs,
    vector_to_params,
)
from gvvad.numerics import rng_from, stable_sigmoid
from gvvad.promptgen import build_repository, default_inventory
from gvvad.worldsim import GenerationCounts, WorldConfig, generate_dataset

PAIRS = build_repository(default_inventory(), limit=24, seed=7)


def sample(sample_id, y, y_s=0, t=6, dim=5, seed=0, dtype=np.float32):
    """Float32 features, held in ``dtype``: the same values either way."""
    rng = rng_from("milcore-sample", sample_id, seed)
    return VideoSample(sample_id, rng.normal(size=(t, dim)).astype(np.float32).astype(dtype), y, y_s)


def pair_batch(n_pairs, dim=5, synth_mask=None, seed=0, dtype=np.float32):
    batch = []
    for i in range(n_pairs):
        y_s = 1 if (synth_mask and synth_mask[i]) else 0
        batch.append((
            sample(f"a{i}", 1, y_s=y_s, dim=dim, seed=seed, dtype=dtype),
            sample(f"n{i}", 0, y_s=y_s, dim=dim, seed=seed, dtype=dtype),
        ))
    return batch


def corrupt_w1_gradient(monkeypatch):
    """Make every analytic gradient the trainer computes wrong by 1e-3 in each
    w1 entry, leaving the loss itself exact."""
    import gvvad.milcore as milcore

    exact = milcore.total_loss_and_grads

    def corrupted(params, batch, config):
        breakdown, grads = exact(params, batch, config)
        return breakdown, {**grads, "w1": grads["w1"] + 1e-3}

    monkeypatch.setattr(milcore, "total_loss_and_grads", corrupted)


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

    def test_float32_first_layer_overflow_is_refused(self):
        # 20 * 1e38 overflows float32 but not float64: the float32 clips are
        # refused as train and evaluate refuse them, and their float64
        # copies score.
        w1 = np.zeros((2, 3))
        w1[0, 0] = 20.0
        params = ScorerParams(w1, np.zeros(2), np.array([1.0, 0.0]), -10.0)
        features = np.zeros((3, 3), dtype=np.float32)
        features[:, 0] = [0.0, 1e38, 1.0]
        with pytest.raises(ValidationError, match="clip scores are non-finite: the first layer overflows on them"):
            score_segments(params, features)
        np.testing.assert_allclose(score_segments(params, features.astype(np.float64)),
                                   [stable_sigmoid(-10.0), 1.0, stable_sigmoid(10.0)], rtol=1e-12)


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
        scores = np.array([0.5, 0.9, 0.5, 0.9])
        np.testing.assert_array_equal(topk_mean(scores, 2, return_indices=True)[1], [1, 3])
        np.testing.assert_array_equal(topk_mean(scores, 3, return_indices=True)[1], [1, 3, 0])

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            topk_mean(np.array([0.5]), 2)
        with pytest.raises(ValidationError):
            topk_mean(np.array([0.5]), 0)

    def test_rows_k_out_of_range(self):
        # Row 1 holds two clips and one -inf pad.
        padded = np.array([[0.5, 0.4, 0.3], [0.2, 0.9, -np.inf]])
        # k past a row's clips, k = 0, k past the padded width, and a k vector of the wrong length
        for ks in ([3, 3], [0, 1], [1, 4], [1], [1, 1, 1]):
            with pytest.raises(ValidationError, match=r"out of range for \[3 2\] clips"):
                topk_mean(padded, np.array(ks))
        np.testing.assert_array_equal(topk_mean(padded, np.array([3, 2])), [(0.5 + 0.4 + 0.3) / 3, (0.9 + 0.2) / 2])
        # a mean of finite scores that overflows to -inf is not a k out of range
        with np.errstate(over="ignore"):
            assert topk_mean(np.array([[-1e308, -1e308]]), np.array([2])).tolist() == [-np.inf]

    def test_nan_scores_refused_in_both_shapes(self):
        with pytest.raises(ValidationError, match="NaN"):
            topk_mean(np.array([0.5, np.nan, 0.2]), 3)
        with pytest.raises(ValidationError, match="NaN"):
            topk_mean(np.array([0.5, np.nan, 0.2]), 1)
        with pytest.raises(ValidationError, match="NaN"):
            topk_mean(np.array([[0.5, np.nan, 0.2]]), np.array([2]))  # not padding: its k fits
        with pytest.raises(ValidationError, match="NaN"):
            topk_mean(np.array([[0.5, 0.1, -np.inf], [0.3, np.nan, -np.inf]]), np.array([1, 1]))


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
        # k floors the exact product, not its float dust: 0.57 * 100 is
        # 56.99999999999999 in floats.
        assert resolve_k("frac:0.57", 100) == 57
        assert resolve_k("frac:0.7", 90) == 63
        assert resolve_k("frac:0.29", 100) == 29
        # The fractions that the tests, the benchmark and gradient_check
        # train with give the k that int(f * T) gave, for every T, so no
        # recorded AUC moves with the float-dust guard.
        for rule in ("frac:0.2", "frac:0.25", "frac:0.3"):
            f = float(rule.partition(":")[2])
            assert all(resolve_k(rule, t) == max(1, int(f * t)) for t in range(1, 100_001)), rule

    def test_unknown_rule(self):
        with pytest.raises(ValidationError):
            resolve_k("best:5", 10)

    def test_non_numeric_argument(self):
        for rule in ("frac:abc", "frac:"):
            with pytest.raises(ValidationError, match="is not a number"):
                resolve_k(rule, 10)
        for rule in ("fixed:x", "div:y", "fixed:", "div:", "div:2.5", "fixed:1e3"):
            with pytest.raises(ValidationError, match="is not an integer"):
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

    def test_non_finite_lambda_refused(self):
        for lam in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="scaling factor must be finite and >= 0"):
                ssls_scale(np.array([1.0, 2.0]), np.array([0, 1]), lam)
        with pytest.raises(ValidationError, match="scaling factor must be finite and >= 0"):
            ssls_scale(np.ones((2, 2)), np.ones((2, 2), dtype=bool), np.array([0.5, math.nan]))
        with pytest.raises(ValidationError, match="scaling factor must be >= 0"):
            ssls_scale(np.array([1.0, 2.0]), np.array([0, 1]), -math.inf)


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
        assert bd.raw[0] > 0 and bd.scaled[0] == 0.5 * bd.raw[0]  # a real pair would keep its raw loss

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
            before = topk_mean(score_segments(params, pair[bag].features), 2, return_indices=True)[1]
            after = topk_mean(score_segments(params, feats), 2, return_indices=True)[1]
            np.testing.assert_array_equal(before, after)  # the selection itself is unchanged
            return total_loss_and_grads(params, [tuple(moved)], cfg)[1]

        for bag in (0, 1):
            scores = score_segments(params, pair[bag].features)
            selected = topk_mean(scores, 2, return_indices=True)[1]
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

    def test_corrupted_gradient_fails(self, monkeypatch):
        corrupt_w1_gradient(monkeypatch)
        report = gradient_check(seed=0)
        assert not report.passed

    def test_report_lists_every_block(self):
        report = gradient_check(seed=1, num_batches=2)
        assert set(report.block_errors) == {"w1", "b1", "w2", "b2"}
        text = report.format()
        for name in ("w1", "b1", "w2", "b2"):
            assert name in text
        assert "PASS" in text

    @pytest.mark.parametrize("num_batches", [0, -3])
    def test_no_batches_rejected(self, num_batches):
        # Zero batches would leave every error at 0.0 and report PASS.
        with pytest.raises(ValidationError, match="at least one batch"):
            gradient_check(seed=0, num_batches=num_batches)

    def test_mil_gradient_matches_finite_differences_through_topk(self):
        # Float64 features, as gradient_check uses: a float32 first layer
        # rounds w1, which a central difference at h = 1e-5 cannot resolve.
        # test_float32_first_layer_matches_float64 bounds the float32 path.
        from gvvad.numerics import finite_diff_grad

        cfg = TrainConfig(k_rule="fixed:2", hidden=2)
        params = ScorerParams.init(4, 2, rng_from("fd-mil"))
        batch = pair_batch(3, dim=4, synth_mask=[False, True, False], seed=5, dtype=np.float64)

        _, grads = total_loss_and_grads(params, batch, cfg)
        analytic = params_to_vector(ScorerParams(grads["w1"], grads["b1"], grads["w2"], grads["b2"]))

        def objective(vec):
            bd, _ = total_loss_and_grads(vector_to_params(vec, 4, 2), batch, cfg)
            return bd.total

        numeric = finite_diff_grad(objective, params_to_vector(params), h=1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_float32_first_layer_matches_float64(self):
        # Float32 features take a float32 first layer and the same values
        # held as float64 the float64 one; the losses must agree to 1e-6
        # and every gradient to 1e-3, under gradient_check's safeguarded
        # denominator. The biases are nonzero, so a first layer that drops
        # b1 shows. Two stacked runs of 2048-dim, 200-clip bags take one
        # bag per chunk, each under its own run's w1. At 2048 dims single
        # w1 coordinates cancel to near the 1e-5 floor, so there each run's
        # gradient is bounded against its largest entry, at 1e-5 (about 100
        # float32 epsilons).
        import gvvad.milcore as milcore

        def rel(a, b):
            return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5))

        def as_dtype(samples, dtype):
            return [VideoSample(s.id, s.features.astype(dtype), s.y, s.y_s) for s in samples]

        config = TrainConfig(lam=0.7, k_rule="frac:0.3", hidden=5)
        for seed in range(20):
            rng = rng_from("float32-first-layer", seed)
            p = ScorerParams.init(7, 5, rng)
            params = ScorerParams(p.w1, rng.normal(size=5), p.w2, rng.normal())
            pairs = [milcore._random_pair(rng, 7, *sources, tag) for *sources, tag in
                     ((0, 0, "real"), (1, 1, "synth"), (1, 0, "mixed"))]
            (loss64, grads64), (loss32, grads32) = (
                total_loss_and_grads(params, [tuple(as_dtype(pair, dtype)) for pair in pairs], config)
                for dtype in (np.float64, np.float32))
            assert abs(loss32.total - loss64.total) <= 1e-6 * abs(loss64.total), seed
            for key in ("w1", "b1", "w2", "b2"):
                assert rel(grads32[key], grads64[key]) <= 1e-3, (seed, key)

        wide = TrainConfig(k_rule="div:16", hidden=8)
        rng = rng_from("float32-first-layer", "wide")
        theta = np.stack([params_to_vector(ScorerParams.init(2048, 8, rng)) for _ in range(2)])
        theta[:, 2048 * 8:2048 * 8 + 8] = rng.normal(size=(2, 8))  # b1
        steps = []
        for dtype in (np.float64, np.float32):
            runs = [(MixedDataset(*([VideoSample(f"r{r}-{y}", rng_from("wide", r, y).normal(size=(200, 2048))
                                                  .astype(np.float32).astype(dtype), y, 0)] for y in (1, 0))),
                     replace(wide, seed=r)) for r in range(2)]
            plan, schedule = milcore._lockstep_plan(runs, wide)
            (step,) = milcore._layout_window(plan, schedule.bags[:1])
            assert [b1 - b0 for b0, b1, *_ in step.chunks] == [1] * 4
            steps.append(total_loss_and_grads(theta, step, plan))
        (loss64, grads64), (loss32, grads32) = steps
        assert np.all(np.abs(loss32.total - loss64.total) <= 1e-6 * np.abs(loss64.total))
        assert np.all(np.abs(grads32 - grads64).max(axis=1) <= 1e-5 * np.abs(grads64).max(axis=1))

    def test_float32_batch_takes_a_float32_w1_gradient(self, monkeypatch):
        # A float32 batch's w1 gradient is one float32 product per bucket,
        # into float32 scratch (never a float64 out=); the same values held
        # as float64 take float64 products. Every block of the float32
        # result must agree with the float64 one within 1e-5 of the block's
        # largest entry (about 100 float32 epsilons; about 2e-7 measured),
        # and the loss within 1e-6 relative.
        products = []
        matmul = np.matmul

        def recording(a, b, out=None):
            if np.ndim(a) == 3:
                products.append((a.dtype.name, b.dtype.name, out.dtype.name, out.shape[-1]))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recording)
        config = TrainConfig(lam=0.7, k_rule="frac:0.3", hidden=8)
        results = {}
        for dtype in (np.float64, np.float32):
            products.clear()
            results[dtype] = total_loss_and_grads(ScorerParams.init(512, 8, rng_from("f32-grad")),
                                                  pair_batch(4, dim=512, synth_mask=[0, 1, 1, 0], dtype=dtype),
                                                  config)
            name = np.dtype(dtype).name
            assert products and set(products) == {("float64",) * 3 + (1,), (name,) * 3 + (512,)}
        (loss64, grads64), (loss32, grads32) = results[np.float64], results[np.float32]
        assert abs(loss32.total - loss64.total) <= 1e-6 * abs(loss64.total)
        for key in ("w1", "b1", "w2", "b2"):
            assert grads32[key].dtype == np.float64
            assert np.abs(grads32[key] - grads64[key]).max() <= 1e-5 * np.abs(grads64[key]).max(), key


class TestFilterSynthetic:
    def world_sets(self, gap_sigma, seed=0, n=30):
        dim = 8
        gap = np.zeros(dim)
        gap[1] = gap_sigma
        world = WorldConfig(dim=dim, clips_min=6, clips_max=10, clip_len=2,
                            anomaly_frac_min=0.3, anomaly_frac_max=0.6,
                            anomaly_offset=None, domain_offset=gap)
        return generate_dataset(world, PAIRS, GenerationCounts(n, n, n, n), base_seed=seed)

    def test_video_at_real_centroid_always_kept(self):
        sets = self.world_sets(0.5)
        means = np.stack([np.asarray(s.features, dtype=np.float64).mean(axis=0)
                          for s in sets.real_anomalous])
        centroid = means.mean(axis=0)
        planted = VideoSample("planted", np.tile(centroid, (4, 1)).astype(np.float32), 1, 1)
        kept_a, _ = filter_synthetic(sets.real_anomalous, sets.real_normal, (planted,), sets.synth_normal)
        assert any(s.id == "planted" for s in kept_a)

    def test_huge_gap_rejects_most_synthetic(self):
        for seed in range(10):
            sets = self.world_sets(10.0, seed=seed, n=20)
            kept_a, kept_n = filter_synthetic(
                sets.real_anomalous, sets.real_normal,
                sets.synth_anomalous, sets.synth_normal,
            )
            offered = len(sets.synth_anomalous) + len(sets.synth_normal)
            dropped = offered - len(kept_a) - len(kept_n)
            assert dropped / offered > 0.5

    def test_real_sets_required_for_active_policy(self):
        sets = self.world_sets(1.0)
        with pytest.raises(ValidationError):
            filter_synthetic((), sets.real_normal, sets.synth_anomalous, sets.synth_normal)

    def test_kept_set_matches_a_centroid_distance_oracle(self):
        # The oracle: per class, the real centroid of the float64 video
        # means, the real distances to it and their 95th percentile; a
        # synthetic video is kept when its distance is within it.
        def oracle(real, synth):
            centroid = np.mean([s.features.astype(np.float64).mean(axis=0) for s in real], axis=0)
            real_dists = [np.linalg.norm(s.features.astype(np.float64).mean(axis=0) - centroid) for s in real]
            threshold = np.percentile(real_dists, 95.0)
            return [s.id for s in synth
                    if np.linalg.norm(s.features.astype(np.float64).mean(axis=0) - centroid) <= threshold]

        selective = 0
        for seed in range(5):
            sets = self.world_sets(1.0, seed=seed)
            kept = filter_synthetic(sets.real_anomalous, sets.real_normal,
                                    sets.synth_anomalous, sets.synth_normal)
            for kept_class, real, synth in zip(kept, (sets.real_anomalous, sets.real_normal),
                                               (sets.synth_anomalous, sets.synth_normal)):
                assert [s.id for s in kept_class] == oracle(real, synth)
                selective += 0 < len(kept_class) < len(synth)
        assert selective == 10  # in every class the filter keeps some videos and drops some


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

    def test_pool_of_mixed_float_widths_trains_as_float64(self):
        # The plan holds every bag in the pool's common dtype, so the backward
        # can gather any bag; float32 bags train as their exact float64 casts.
        dataset, _ = small_world_dataset(mag=2.0, n=8, seed=6)

        def widened(samples, every):
            return tuple(replace(s, features=np.asarray(s.features, dtype=np.float64)) if i % every == 0 else s
                         for i, s in enumerate(samples))

        mixed = MixedDataset(widened(dataset.anomalous, 2), widened(dataset.normal, 3))
        assert {np.asarray(s.features).dtype for s in mixed.anomalous} == {np.dtype(np.float32), np.dtype(np.float64)}
        cfg = TrainConfig(epochs=3, seed=2, batch_pairs=2)
        a = train(mixed, cfg)
        b = train(MixedDataset(widened(dataset.anomalous, 1), widened(dataset.normal, 1)), cfg)
        for key in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(a.params, key), getattr(b.params, key)), key
        assert a.history == b.history

    def test_training_invariant_to_sample_order(self):
        dataset, _ = small_world_dataset(mag=2.0, n=10, seed=4)
        reversed_ds = MixedDataset(tuple(reversed(dataset.anomalous)), tuple(reversed(dataset.normal)))
        cfg = TrainConfig(epochs=3, seed=2, batch_pairs=4)
        a = train(dataset, cfg).params
        b = train(reversed_ds, cfg).params
        assert np.array_equal(a.w1, b.w1)

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
        assert lines[0] == "epoch,L_total,L_MIL_mean,val_auc"
        assert len(lines) == 4

    @pytest.mark.parametrize("bad", ["no frame labels", "wrong dim"])
    def test_bad_val_set_fails_before_the_first_step(self, monkeypatch, bad):
        from gvvad import milcore

        dataset, test = small_world_dataset(mag=2.0, n=8, seed=5)
        odd = test[0]
        if bad == "no frame labels":
            odd = VideoSample(odd.id, odd.features, odd.y, odd.y_s)
        else:
            odd = VideoSample(odd.id, odd.features[:, :-1], odd.y, odd.y_s, odd.frame_labels)
        steps = []
        exact = milcore.total_loss_and_grads
        monkeypatch.setattr(milcore, "total_loss_and_grads", lambda *args: steps.append(1) or exact(*args))
        with pytest.raises(ValidationError, match="frame labels" if bad == "no frame labels" else "dim"):
            train(dataset, TrainConfig(epochs=2, seed=0, batch_pairs=2), val_samples=[*test[1:], odd])
        assert steps == []

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            train(MixedDataset((), (sample("n", 0),)), TrainConfig(epochs=1))

    def test_diverging_parameters_rejected(self):
        # A step that leaves a non-finite weight stops training with the
        # name of the block; the overflow that causes it is the point here.
        dataset, _ = small_world_dataset(mag=2.0, n=8, seed=6)
        with pytest.raises(ValidationError, match=r"parameter (w1|b1|w2|b2) contains non-finite values"):
            train(dataset, TrainConfig(lr=1e308, epochs=5, batch_pairs=2))

    def test_non_finite_loss_rejected(self, monkeypatch):
        # A step whose loss is non-finite stops training even when the
        # parameters it would produce are finite.
        import gvvad.milcore as milcore

        exact = milcore.total_loss_and_grads

        def nan_loss(params, batch, config):
            breakdown, grads = exact(params, batch, config)
            breakdown.total = math.nan
            return breakdown, grads

        monkeypatch.setattr(milcore, "total_loss_and_grads", nan_loss)
        dataset, _ = small_world_dataset(mag=2.0, n=8, seed=6)
        with pytest.raises(ValidationError, match="non-finite"):
            train(dataset, TrainConfig(epochs=2, batch_pairs=2))

    def test_train_runs_the_tested_rules(self, monkeypatch):
        # Training must go through the top-k mean, BCE and loss scaling that
        # the unit and acceptance tests check, not through private copies:
        # one call of each per lockstep step, covering every bag and pair.
        import gvvad.milcore as milcore
        import gvvad.numerics as numerics

        assert milcore.bce is numerics.bce
        calls = {name: [] for name in ("topk_mean", "bce", "ssls_scale")}
        for name in calls:
            def spy(*args, _name=name, _fn=getattr(milcore, name), **kwargs):
                calls[_name].append(np.shape(args[0]))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(milcore, name, spy)
        world = WorldConfig(dim=16, clips_min=6, clips_max=10, clip_len=2,
                            anomaly_frac_min=0.3, anomaly_frac_max=0.6)
        sets = generate_dataset(world, PAIRS, GenerationCounts(4, 4, 4, 4), base_seed=12)
        dataset = mix_datasets(sets.real_anomalous, sets.real_normal,
                               sets.synth_anomalous, sets.synth_normal)
        train(dataset, TrainConfig(epochs=1, batch_pairs=2))
        # 8 pairs (4 real, 4 synthetic) in 4 steps of 2 pairs: per step one
        # top-k call and one BCE call over its 4 bags, one scaling call over its 2 pairs.
        assert [shape[0] for shape in calls["topk_mean"]] == [4] * 4
        assert calls["bce"] == [(4,)] * 4
        assert calls["ssls_scale"] == [(1, 2)] * 4
        for seen in calls.values():
            seen.clear()
        train_runs([(dataset, TrainConfig(epochs=1, batch_pairs=2, seed=seed)) for seed in (0, 1)])
        # two runs in lockstep: the same calls, each covering both runs
        assert [shape[0] for shape in calls["topk_mean"]] == [8] * 4
        assert calls["bce"] == [(8,)] * 4
        assert calls["ssls_scale"] == [(2, 2)] * 4

    def test_runs_stay_isolated_across_layout_windows(self, monkeypatch):
        # Step layouts are built a window of steps at a time. A run that
        # leaves the stack inside a window and a longest run that crosses at
        # least three windows must each end bit-identical to the run
        # trained alone, with its own Adam step count, and to the stack
        # trained with one step per window.
        import gvvad.milcore as milcore

        window = milcore._LAYOUT_STEPS
        step_counts = []
        exact_adam = milcore.adam_step

        def counting_adam(param, grad, state, **kwargs):
            out = exact_adam(param, grad, state, **kwargs)
            step_counts.append((len(param), state.step))  # the stacked runs share one count
            return out

        monkeypatch.setattr(milcore, "adam_step", counting_adam)

        def run(tag, real, synth, lam, seed):
            # one step per pair at batch_pairs=1: real + synth pairs an epoch
            def pool(y):
                return tuple(sample(f"{tag}-{y}{i}", y, y_s=int(i >= real), t=4 + i % 5)
                             for i in range(real + synth))
            return MixedDataset(pool(1), pool(0)), TrainConfig(lam=lam, epochs=2, batch_pairs=1, hidden=4, seed=seed)

        runs = [run("long", window, window + 3, 0.5, 1), run("mid", window // 2, window // 4 + 1, 2.0, 2),
                run("short", 2, 1, 0.5, 3)]
        lengths = [2 * len(data.anomalous) for data, _ in runs]
        assert lengths[0] > 2 * window and lengths[1] % window and lengths[2] % window
        stacked = train_runs(runs)
        assert [max(step for n, step in step_counts if n > i) for i in range(3)] == lengths
        with monkeypatch.context() as patch:
            patch.setattr(milcore, "_LAYOUT_STEPS", 1)
            step_by_step = train_runs(runs)
        for (data, config), result, single, length in zip(runs, stacked, step_by_step, lengths):
            step_counts.clear()
            alone = train(data, config)
            assert len(step_counts) == length
            for other in (alone, single):
                for key in ("w1", "b1", "w2", "b2"):
                    assert np.array_equal(getattr(result.params, key), getattr(other.params, key)), key
                assert result.history == other.history

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stacking_never_changes_a_runs_chunking(self, monkeypatch, dtype):
        # A run's forward chunks come from its own bags: with a budget of 24
        # float64 rows, run "wide" (one 12-clip bag) takes chunks of 2 bags
        # and run "narrow" (4-clip bags) one chunk a step. Each run's step
        # fits one copy, the stacked step does not, so it is copied one
        # chunk at a time. Float64 bags are copied by a cast; float32 bags
        # are never cast, and a float32 one-bag chunk is not copied at all.
        # Stacked, every run must get the matmul shapes it gets alone and
        # end bit-identical to it.
        import gvvad.milcore as milcore

        monkeypatch.setattr(milcore, "_CHUNK_BYTES", 24 * 5 * 8)
        forwards = []  # per forward: the rows of each copy by dtype, and each chunk's (run, rows, bags)
        exact, concatenate = milcore._forward, np.concatenate

        def spy(bags, chunks, *args):
            copies = {np.float64: [], np.float32: []}

            def copy(arrays, **kwargs):
                out = concatenate(arrays, **kwargs)
                copies[kwargs["dtype"]].append(len(out))
                return out

            with monkeypatch.context() as patch:
                patch.setattr(np, "concatenate", copy)
                exact(bags, chunks, *args)
            forwards.append((copies, [(r, hi - lo, b1 - b0) for b0, b1, lo, hi, products in chunks
                                      for r, _ in products]))

        monkeypatch.setattr(milcore, "_forward", spy)

        def run(tag, long_clips, lam, seed):
            def pool(y):
                return tuple(sample(f"{tag}-{y}{i}", y, y_s=i % 2, t=long_clips if (y, i) == (1, 0) else 4, dtype=dtype)
                             for i in range(4))
            return MixedDataset(pool(1), pool(0)), TrainConfig(lam=lam, epochs=2, batch_pairs=2, hidden=3, seed=seed)

        def chunk_rows(run):  # per step: the rows of each of the run's chunks
            return [[n for r, n, _ in chunks if r == run] for _, chunks in forwards]

        runs = [run("wide", 12, 0.5, 1), run("narrow", 4, 2.0, 2)]
        stacked = train_runs(runs)
        assert any(len(copies[dtype]) > 1 for copies, _ in forwards)
        for copies, chunks in forwards:
            rows = [n for _, n, _ in chunks]
            chunked = rows if dtype is np.float64 else [n for _, n, bags in chunks if bags > 1]
            assert copies[dtype] == ([sum(rows)] if sum(rows) <= 24 else chunked)
            assert copies[np.float64 if dtype is np.float32 else np.float32] == []
        stacked_rows = [chunk_rows(r) for r in range(len(runs))]
        assert max(map(len, stacked_rows[0])) >= 2
        for (data, config), result, rows in zip(runs, stacked, stacked_rows):
            forwards.clear()
            alone = train(data, config)
            assert all(len(copies[dtype]) == 1 for copies, _ in forwards)
            assert rows == chunk_rows(0)
            for key in ("w1", "b1", "w2", "b2"):
                assert np.array_equal(getattr(result.params, key), getattr(alone.params, key)), key
            assert result.history == alone.history

    @pytest.mark.parametrize("dim, dtype, chunked", [(16, np.float32, False), (16, np.float64, False),
                                                     (512, np.float32, False), (16, np.float32, True)])
    def test_equal_size_groups_share_one_backward_product(self, monkeypatch, dim, dtype, chunked):
        # Every bag has 6 clips and k = 2, so a step's (run, source) groups
        # with as many bags have as many selected rows. The backward makes
        # one w1 and one w2 product per distinct group size, stacking the
        # groups of that size, and every run still ends bit-identical to
        # the run trained alone. ``chunked`` copies a step one bag at a
        # time, so the top-k rows come from each bag's features.
        import gvvad.milcore as milcore

        if chunked:
            monkeypatch.setattr(milcore, "_CHUNK_BYTES", 6 * dim * 8)
        steps = []  # per step: the group sizes, and the stack depth of each stacked product
        exact, matmul = milcore._stacked_loss_and_grads, np.matmul

        def spy(theta, step, plan):
            sizes = {}
            pairs = step.pairs[1]
            for pair, k in zip(step.pair_at.tolist(), step.k.tolist()):
                group = (pair // pairs, bool(step.synthetic.flat[pair]))
                sizes[group] = sizes.get(group, 0) + k
            stacked = []

            def counting(a, b, **kwargs):
                if np.ndim(a) == 3:
                    stacked.append(len(a))
                return matmul(a, b, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np, "matmul", counting)
                out = exact(theta, step, plan)
            steps.append((sorted(sizes.values()), stacked))
            return out

        monkeypatch.setattr(milcore, "_stacked_loss_and_grads", spy)

        def run(tag, lam, seed):
            def pool(y):
                return tuple(sample(f"{tag}-{y}{i}", y, y_s=i % 2, t=6, dim=dim, dtype=dtype) for i in range(6))
            return MixedDataset(pool(1), pool(0)), TrainConfig(lam=lam, epochs=3, batch_pairs=2, hidden=4,
                                                               k_rule="fixed:2", seed=seed)

        runs = [run("a", 0.5, 1), run("b", 2.0, 2), run("c", 0.25, 3)]
        stacked = train_runs(runs)
        assert any(len(set(sizes)) < len(sizes) for sizes, _ in steps)  # some bucket holds several groups
        for sizes, products in steps:
            depths = [sizes.count(n) for n in sorted(set(sizes))]
            assert products == [d for d in depths for _ in range(2)]  # w1 and w2, one each per bucket
        for (data, config), result in zip(runs, stacked):
            alone = train(data, config)
            for key in ("w1", "b1", "w2", "b2"):
                assert np.array_equal(getattr(result.params, key), getattr(alone.params, key)), key
            assert result.history == alone.history

    def test_layouts_come_from_one_builder_a_window_at_a_time(self, monkeypatch):
        # Training builds its step layouts a window of steps per call, and a
        # one-run batch call (as gradient_check makes) goes through the same
        # builder, one build per call.
        import gvvad.milcore as milcore

        builds, calls = [], []
        build, exact = milcore._layout_window, milcore.total_loss_and_grads
        monkeypatch.setattr(milcore, "_layout_window", lambda *args: builds.append(len(args[1])) or build(*args))
        monkeypatch.setattr(milcore, "total_loss_and_grads", lambda *args: calls.append(1) or exact(*args))
        dataset, _ = small_world_dataset(mag=2.0, n=8, seed=5)
        train(dataset, TrainConfig(epochs=10, batch_pairs=1))
        assert len(calls) == 80 == sum(builds)
        assert len(builds) == math.ceil(80 / milcore._LAYOUT_STEPS) < len(calls)
        builds.clear(), calls.clear()
        assert gradient_check(num_batches=1).passed
        assert builds == [1] * len(calls) and len(calls) > 1

    def test_nan_clip_score_names_a_video_of_its_run(self, monkeypatch):
        # Rows are counted per step across the stacked runs: a NaN clip
        # score of run 1 must name one of run 1's videos. Run 1's weights are
        # finite but overflow: a clip whose hidden activation reaches inf
        # meets w2 = 0 and scores inf * 0 = NaN.
        import gvvad.milcore as milcore

        exact = milcore.total_loss_and_grads
        overflowing = params_to_vector(ScorerParams(w1=np.full((2, 5), 1e308), b1=np.zeros(2), w2=np.zeros(2), b2=0.0))

        def run_1_overflows(theta, step, plan):
            return exact(np.stack([theta[0], overflowing]), step, plan)

        monkeypatch.setattr(milcore, "total_loss_and_grads", run_1_overflows)
        runs = [(MixedDataset(tuple(sample(f"run{r}-a{i}", 1, seed=r) for i in range(4)),
                              tuple(sample(f"run{r}-n{i}", 0, seed=r) for i in range(4))),
                 TrainConfig(epochs=1, batch_pairs=2, hidden=2, seed=r)) for r in (0, 1)]
        with pytest.raises(ValidationError, match=r"clip scores of video 'run1-[an]\d' are non-finite"):
            train_runs(runs)

    @pytest.mark.parametrize("field, values", [("k_rule", ("frac:0.2", "fixed:2")), ("batch_pairs", (2, 3))])
    def test_stacked_runs_share_one_config(self, field, values):
        # Runs trained together may differ only in lambda and seed; any
        # other difference is refused before training, naming the field.
        dataset, _ = small_world_dataset(mag=2.0, n=8, seed=7)
        runs = [(dataset, TrainConfig(lam=lam, seed=seed, epochs=1, **{field: value}))
                for lam, seed, value in zip((0.5, 1.0), (0, 1), values)]
        with pytest.raises(ValidationError, match=f"must share {field}; only lam and seed may differ"):
            train_runs(runs)
        assert len(train_runs([(dataset, replace(config, **{field: values[0]})) for _, config in runs])) == 2

    def test_float32_first_layer_overflow_stops_training(self):
        # Features near the float32 limit overflow a float32 first layer.
        # The overflowed clips score NaN, and the step refuses them by video.
        big = VideoSample("a-big", np.full((6, 5), 3e38, dtype=np.float32), 1, 0)
        dataset = MixedDataset((big, sample("a1", 1)), (sample("n0", 0), sample("n1", 0)))
        with pytest.raises(ValidationError, match=r"clip scores of video 'a-big' are non-finite"):
            train(dataset, TrainConfig(epochs=1, batch_pairs=2))

    def test_nan_clip_scores_stop_training(self):
        # At lr=1e100 the weights blow up until some clip scores are NaN
        # while the loss, taken over the finite clips, is still finite. The
        # batch objective must refuse that step rather than train on it.
        pairs = build_repository(default_inventory(), limit=12, seed=3)
        world = WorldConfig(dim=16, clips_min=6, clips_max=10, clip_len=2)
        sets = generate_dataset(world, pairs, GenerationCounts(4, 4, 0, 0), base_seed=4)
        dataset = mix_datasets(sets.real_anomalous, sets.real_normal, (), ())
        with pytest.raises(ValidationError, match=r"clip scores of video '[^']+' are non-finite"):
            train(dataset, TrainConfig(lr=1e100, epochs=5, batch_pairs=2))


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

    def test_non_finite_weight_is_a_format_error_naming_the_file(self, tmp_path):
        # A file whose w1 holds a NaN, with a valid checksum.
        from gvvad.errors import DataFormatError

        params = ScorerParams.init(3, 2, rng_from("pf-nan"))
        params.w1[0, 0] = np.nan
        path = tmp_path / "nan.gvpm"
        save_params(path, params)
        with pytest.raises(DataFormatError, match=re.escape(str(path)) + ".*w1 contains non-finite"):
            load_params(path)

    def test_wrong_b2_shape_is_a_format_error(self, tmp_path):
        # A file whose b2 block holds two values, with a valid checksum.
        from gvvad.errors import DataFormatError

        params = ScorerParams.init(3, 2, rng_from("pf3"))
        params.b2 = np.zeros(2)
        path = tmp_path / "params.gvpm"
        save_params(path, params)
        with pytest.raises(DataFormatError, match="b2 must hold one value, got shape \\(2,\\)"):
            load_params(path)
        with pytest.raises(ShapeError, match="b2"):
            ScorerParams(w1=np.zeros((2, 3)), b1=np.zeros(2), w2=np.zeros(2), b2=np.zeros(2))

    def test_empty_layer_is_a_format_error(self, tmp_path):
        # A file of a scorer with no hidden unit, with a valid checksum: it
        # would score every clip as sigmoid(b2).
        from gvvad.datamodel import write_checked
        from gvvad.errors import DataFormatError
        from gvvad.milcore import PARAMS_MAGIC

        header = struct.pack("<I", 4)
        for name, shape in (("w1", (0, 3)), ("b1", (0,)), ("w2", (0,)), ("b2", (1,))):
            header += struct.pack(f"<I2sI{len(shape)}I", 2, name.encode("ascii"), len(shape), *shape)
        path = tmp_path / "empty.gvpm"
        write_checked(path, PARAMS_MAGIC, header, np.zeros(1, dtype="<f8"))
        with pytest.raises(DataFormatError, match=re.escape(str(path)) + ": bad block shape: w1"):
            load_params(path)
        for hidden, dim in ((0, 4), (2, 0)):
            with pytest.raises(ShapeError, match="w1"):
                ScorerParams(w1=np.zeros((hidden, dim)), b1=np.zeros(hidden), w2=np.zeros(hidden), b2=0.0)

    # Header of a 3 -> 2 scorer: magic, version, block count at 8, then w1's
    # name length at 12, name at 16 and ndim at 18.
    MALFORMED = {
        "truncated-12": lambda raw: raw[:12],
        "truncated-30": lambda raw: raw[:30],
        "bad-magic": lambda raw: b"GVPX" + raw[4:],
        "version-2": lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
        "renamed-block": lambda raw: raw[:16] + b"v1" + raw[18:],
        "huge-block-count": lambda raw: raw[:8] + b"\xff" * 4 + raw[12:],
        "huge-name-length": lambda raw: raw[:12] + b"\xff" * 4 + raw[16:],
        "huge-ndim": lambda raw: raw[:18] + b"\xff" * 4 + raw[22:],
        "trailing-byte": lambda raw: raw + b"\x00",
        "empty": lambda raw: b"",
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_file_is_a_format_error_naming_it(self, tmp_path, case):
        from gvvad.errors import DataFormatError

        path = tmp_path / "params.gvpm"
        save_params(path, ScorerParams.init(3, 2, rng_from("pf4")))
        raw = path.read_bytes()
        assert raw[16:18] == b"w1" and int.from_bytes(raw[18:22], "little") == 2
        path.write_bytes(self.MALFORMED[case](raw))
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=re.escape(str(path))):
                load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if case.startswith("huge-"):
            assert peak < 1 << 20


class TestTrainConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = TrainConfig(lam=0.25, k_rule="frac:0.2",
                          epochs=7, batch_pairs=3, hidden=12, seed=99)
        path = tmp_path / "train.cfg"
        save_kv(train_config_to_kv(cfg), path)
        assert train_config_from_kv(load_kv(path)) == cfg

    def test_every_field_round_trips_through_kv_text(self):
        # One key table declares every field; each field, set away from its
        # default, comes back from the kv text unchanged.
        assert sorted(field for field, _ in TRAIN_CONFIG_KEYS.values()) == sorted(
            f.name for f in fields(TrainConfig))
        cfg = TrainConfig(lam=0.125, k_rule="fixed:3", lr=0.02,
                          weight_decay=0.0, epochs=3, batch_pairs=5, clamp_eps=1e-5,
                          hidden=7, seed=11)
        default = TrainConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(TrainConfig))
        assert train_config_from_kv(parse_kv_text(format_kv(train_config_to_kv(cfg)))) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs=3\nmystery=1\n")
        with pytest.raises(ValidationError, match="mystery"):
            train_config_from_kv(load_kv(path))

    def test_learnable_lambda_key_rejected(self, tmp_path):
        # The scaling factor is fixed and is the only scaling setting; a
        # config that asks to learn it or to switch scaling off is refused.
        path = tmp_path / "train.cfg"
        for key in ("lambda_learnable=1", "ssls_enabled=0"):
            path.write_text(f"lambda=0.5\n{key}\n")
            with pytest.raises(ValidationError, match=key.split("=")[0]):
                train_config_from_kv(load_kv(path))
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
