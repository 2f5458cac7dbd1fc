import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from gvvad import evaluation
from gvvad.datamodel import VideoSample, mix_datasets
from gvvad.errors import ShapeError, ValidationError
from gvvad.evaluation import (
    DATA_SCALE_GRID_DEFAULT,
    LAMBDA_GRID_DEFAULT,
    MODULE_GRID_DEFAULT,
    AblationSpec,
    EvalResult,
    PreparedTestSet,
    VideoScores,
    clip_to_frame_scores,
    evaluate,
    export_score_curve,
    render_score_curve_svg,
    roc_auc,
    rows_to_csv,
    run_ablation,
    summarize_ablation,
    summary_to_csv,
)
from gvvad import milcore
from gvvad.milcore import ScorerParams, TrainConfig, filter_synthetic, train
from gvvad.numerics import rng_from
from gvvad.promptgen import build_repository, default_inventory
from gvvad.worldsim import GenerationCounts, WorldConfig, generate_dataset

PAIRS = tuple(build_repository(default_inventory(), limit=16, seed=7))


def pairwise_auc_oracle(scores, labels):
    """O(P*N) pairwise count; exact via integer arithmetic."""
    scores = list(scores)
    labels = list(labels)
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    count2 = 0
    for p in pos:
        for n in neg:
            if p > n:
                count2 += 2
            elif p == n:
                count2 += 1
    return count2 / (2 * len(pos) * len(neg))


class TestClipToFrameScores:
    def test_single_clip(self):
        np.testing.assert_array_equal(clip_to_frame_scores([0.3], 16), np.full(16, 0.3))

    def test_clip_len_one_is_identity(self):
        scores = np.array([0.1, 0.9, 0.4])
        np.testing.assert_array_equal(clip_to_frame_scores(scores, 1), scores)

    def test_length_law(self):
        rng = rng_from("c2f")
        for _ in range(50):
            t = int(rng.integers(1, 30))
            clip_len = int(rng.integers(1, 20))
            out = clip_to_frame_scores(rng.uniform(size=t), clip_len)
            assert out.shape == (t * clip_len,)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            clip_to_frame_scores([0.5], 0)
        with pytest.raises(ShapeError):
            clip_to_frame_scores(np.zeros((2, 2)), 2)


class TestRocAuc:
    def test_perfect_ordering(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_constant_scores_are_half(self):
        assert roc_auc(np.full(10, 0.7), [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = rng_from("auc-oracle")
        for i in range(200):
            n = int(rng.integers(5, 60))
            if i % 3 == 0:
                scores = rng.integers(0, 4, size=n) / 4.0  # heavy ties
            else:
                scores = rng.uniform(size=n)
            labels = (rng.uniform(size=n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == pairwise_auc_oracle(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = rng_from("auc-mono")
        scores = rng.uniform(0.05, 0.95, size=300)
        labels = (rng.uniform(size=300) < 0.5).astype(int)
        base = roc_auc(scores, labels)
        assert abs(roc_auc(2.0 * scores + 1.0, labels) - base) < 1e-12
        assert abs(roc_auc(scores ** 3, labels) - base) < 1e-12

    def test_label_flip_symmetry(self):
        rng = rng_from("auc-flip")
        scores = np.round(rng.uniform(size=100), 1)
        labels = (rng.uniform(size=100) < 0.5).astype(int)
        assert roc_auc(scores, labels) + roc_auc(scores, 1 - labels) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="one label class"):
            roc_auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("labels", [np.array(["1", "0"]), np.array([1, "0"], dtype=object), [1, 2]])
    def test_non_binary_labels_rejected(self, labels):
        with pytest.raises(ValidationError, match="labels must be 0 or 1"):
            roc_auc([0.9, 0.1], labels)

    def test_counts_weigh_each_item_by_its_frames(self):
        # Item 0 is 3 frames (1 positive), item 1 is 2 frames (both negative).
        assert roc_auc([0.9, 0.1], [1, 0], [3, 2]) == roc_auc([0.9] * 3 + [0.1] * 2, [1, 0, 0, 0, 0])

    @pytest.mark.parametrize("labels, counts", [
        ([1, 0], [1.0, 2.0]),  # counts must be integers
        ([1.0, 0.0], [1, 2]),  # and so must the positives
        ([2, 0], [1, 2]),  # more positives than frames
        ([-1, 1], [1, 2]),
    ])
    def test_bad_counts_rejected(self, labels, counts):
        with pytest.raises(ValidationError, match="with counts"):
            roc_auc([0.9, 0.1], np.array(labels), np.array(counts))

    def test_counts_shape_checked(self):
        with pytest.raises(ShapeError):
            roc_auc([0.9, 0.1], [1, 0], [1, 1, 1])


def oracle_sample(sample_id, clip_labels, clip_len=4, y_s=0, dim=3):
    clip_labels = np.asarray(clip_labels, dtype=np.uint8)
    feats = np.zeros((len(clip_labels), dim), dtype=np.float32)
    feats[:, 0] = clip_labels  # feature 0 carries the truth
    return VideoSample(sample_id, feats, int(clip_labels.max()), y_s,
                       np.repeat(clip_labels, clip_len))


def oracle_params(dim=3, gain=1.0):
    # Scores ~ sigmoid(gain * 20 * x0 - gain * 10): 1-ish on anomalous clips, 0-ish otherwise.
    w1 = np.zeros((1, dim))
    w1[0, 0] = 20.0
    return ScorerParams(w1, np.zeros(1), np.array([gain]), np.asarray(-10.0 * gain))


class TestEvaluate:
    def samples(self):
        return [
            oracle_sample("v1", [0, 1, 1, 0]),
            oracle_sample("v2", [0, 0, 0]),
            oracle_sample("v3", [1, 0]),
        ]

    def test_ground_truth_oracle_reaches_auc_one(self):
        result = evaluate(oracle_params(), self.samples())
        assert result.auc == 1.0
        assert result.num_frames == sum(s.frame_labels.size for s in self.samples())

    def test_constant_scorer_is_half(self):
        params = ScorerParams(np.zeros((1, 3)), np.zeros(1), np.zeros(1), np.zeros(()))
        assert evaluate(params, self.samples()).auc == 0.5

    def test_label_flipped_oracle_is_zero(self):
        assert evaluate(oracle_params(gain=-1.0), self.samples()).auc == 0.0

    def test_micro_equals_manual_concatenation(self):
        params = oracle_params(gain=0.3)
        result = evaluate(params, self.samples())
        scores = np.concatenate([v.frame_scores for v in result.per_video])
        labels = np.concatenate([v.frame_labels for v in result.per_video])
        assert result.auc == roc_auc(scores, labels)

    def test_float32_first_layer_overflow_names_the_video(self, tmp_path):
        # Float32 features take a float32 first layer, which overflows on
        # features near the float32 limit or on a w1 beyond it (here read
        # from a GVPM file). evaluate refuses the set with one error naming
        # the video and the cause, and no numpy warning. The same values
        # held as float64 take the float64 first layer and still score.
        huge = [VideoSample(s.id, s.features * np.float32(1e38), s.y, s.y_s, s.frame_labels)
                for s in self.samples()]
        p = oracle_params()
        milcore.save_params(tmp_path / "w1.gvpm", ScorerParams(p.w1 * 1e40, p.b1, p.w2, p.b2))
        for params, samples in ((p, huge), (milcore.load_params(tmp_path / "w1.gvpm"), self.samples())):
            with pytest.raises(ValidationError, match=r"^clip scores of video 'v1' are non-finite: the first layer overflows"):
                evaluate(params, samples)
            as_float64 = [VideoSample(s.id, s.features.astype(np.float64), s.y, s.y_s, s.frame_labels) for s in samples]
            assert evaluate(params, as_float64).auc == 1.0

    def test_videos_ordered_by_id(self):
        result = evaluate(oracle_params(), list(reversed(self.samples())))
        assert [v.id for v in result.per_video] == ["v1", "v2", "v3"]

    def test_macro_averages_only_mixed_videos(self):
        result = evaluate(oracle_params(), self.samples(), macro=True)
        assert result.auc == 1.0  # both mixed videos are perfectly ranked

    def test_missing_frame_labels_rejected(self):
        bad = VideoSample("x", np.zeros((2, 3), dtype=np.float32), 0, 0)
        with pytest.raises(ValidationError, match="frame labels"):
            evaluate(oracle_params(), [bad])


class TestPreparedTestSet:
    def test_scores_every_scorer_as_evaluate_does(self):
        samples = [oracle_sample("b", [0, 1, 1, 0], clip_len=3), oracle_sample("a", [0, 0], clip_len=5)]
        prepared = PreparedTestSet(samples, 3)
        scorers = [oracle_params(gain=g) for g in (1.0, 0.3, -1.0)]
        aucs = prepared.aucs(scorers)
        assert aucs == [evaluate(p, samples).auc for p in scorers] == [1.0, 1.0, 0.0]
        assert prepared.num_frames == 4 * 3 + 2 * 5
        assert [s.id for s in prepared.samples] == ["a", "b"]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scorers_scored_together_match_each_scored_alone(self, monkeypatch, dtype):
        # One call scores every scorer over each chunk of the test set, one
        # product per layer and chunk whose slices are the scorers' own
        # matmuls, so each scorer's clip scores equal its own call's bit for
        # bit, over a set of at least three chunks. The set's 30 rows exceed
        # the bound, so it is copied one chunk at a time, as under any bound
        # it does not fit; under one it fits, it is copied in one piece, to
        # the same bits. Float64 features are copied by a cast; float32 ones
        # are never cast, and the one-bag chunk of 8 clips is not copied at
        # all.
        monkeypatch.setattr(milcore, "_CHUNK_BYTES", 2 * 8 * 5 * 8)  # two 8-clip bags of dim 5
        forwards = []  # per forward: the rows of each copy by dtype, and each chunk's (run, rows)
        matmuls = []  # per forward: its products by layer
        exact, concatenate, matmul = milcore._forward, np.concatenate, np.matmul

        def spy(bags, groups, *args):
            copies = {np.float64: [], np.float32: []}
            products = [0, 0]

            def copy(arrays, **kwargs):
                out = concatenate(arrays, **kwargs)
                copies[kwargs["dtype"]].append(len(out))
                return out

            def counting(a, b, **kwargs):
                products[np.shape(b)[-1] == 1 or np.ndim(b) == 1] += 1  # the second layer's is w2
                return matmul(a, b, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np, "concatenate", copy)
                patch.setattr(np, "matmul", counting)
                exact(bags, groups, *args)
            forwards.append((copies, [(r, hi - lo) for _, _, lo, hi, _, _, r0, r1 in groups for r in range(r0, r1)]))
            matmuls.append(products)

        def copied(rows):  # a forward's copies by dtype; float32 features skip the 8-clip one-bag chunk
            return {np.float64: [], np.float32: [], dtype: [n for n in rows if dtype is np.float64 or n != 8]}

        monkeypatch.setattr(milcore, "_forward", spy)
        rng = np.random.default_rng(3)
        samples = [VideoSample(f"v{i}", rng.normal(size=(4 + i, 5)).astype(np.float32).astype(dtype), i % 2, 0,
                               np.repeat(np.arange(4 + i) % 2 * (i % 2), 3)) for i in range(5)]
        prepared = PreparedTestSet(samples, 5)
        n_chunks = math.ceil(len(samples) / prepared.chunk_bags)
        assert n_chunks >= 3
        scorers = [ScorerParams.init(5, 6, np.random.default_rng(seed)) for seed in range(3)]
        together = prepared.clip_scores(scorers)
        chunk_rows = [9, 13, 8]  # 4 + 5, 6 + 7 and 8 clips
        assert forwards == [(copied(chunk_rows), [(r, n) for n in chunk_rows for r in range(len(scorers))])]
        assert matmuls == [[n_chunks, n_chunks]]  # one product per layer and chunk, not one per scorer
        for scorer, scores in zip(scorers, together):
            assert np.array_equal(scores, prepared.clip_scores([scorer])[0])
        for rows, expected in ((22, chunk_rows), (30, [30])):
            forwards.clear()
            matmuls.clear()
            monkeypatch.setattr(milcore, "_CHUNK_BYTES", rows * 5 * 8)  # chunks stay as prepared
            assert np.array_equal(prepared.clip_scores(scorers), together)
            assert [copies for copies, _ in forwards] == [copied(expected)], rows  # 22 rows hold chunks 1-2, not the set
            assert matmuls == [[n_chunks, n_chunks]], rows

    def test_one_chunk_per_bag_when_a_bag_fills_the_chunk(self):
        wide = VideoSample("w", np.zeros((300, 2048), dtype=np.float32), 1, 0, np.repeat([1, 0] * 150, 2))
        assert PreparedTestSet([wide], 2048).chunk_bags == 1
        assert PreparedTestSet(TestEvaluate().samples(), 3).chunk_bags > 3

    def test_bad_sets_fail_when_prepared(self):
        with pytest.raises(ShapeError, match="dim"):
            PreparedTestSet(TestEvaluate().samples(), 4)
        with pytest.raises(ValidationError, match="one label class"):
            PreparedTestSet([oracle_sample("n", [0, 0])], 3)
        with pytest.raises(ValidationError, match="at least one sample"):
            PreparedTestSet([], 3)

    def test_scorer_dim_checked(self):
        with pytest.raises(ShapeError, match="dim"):
            PreparedTestSet(TestEvaluate().samples(), 3).clip_scores([oracle_params(dim=4)])


class TestValidationIsEvaluation:
    def test_val_auc_of_epoch_e_is_the_auc_of_e_epochs_of_training(self):
        # The pair RNG draws epochs in order, so the first e epochs of a longer
        # run are the whole of an e-epoch run.
        world = tiny_spec("lambda_sweep").world
        sets = generate_dataset(world, PAIRS, GenerationCounts(6, 6, 3, 3), base_seed="val-train")
        val = generate_dataset(world, PAIRS, GenerationCounts(8, 8), base_seed="val-test")
        dataset = mix_datasets(sets.real_anomalous, sets.real_normal, sets.synth_anomalous, sets.synth_normal)
        val_samples = [*val.real_anomalous, *val.real_normal]

        def cfg(epochs):
            return TrainConfig(epochs=epochs, batch_pairs=2, k_rule="frac:0.25", hidden=8, seed=4)

        history = train(dataset, cfg(3), val_samples).history
        for e in (1, 2, 3):
            assert history[e - 1].val_auc == evaluate(train(dataset, cfg(e)).params, val_samples).auc


class TestSweepRowsAreEvaluation:
    @pytest.mark.parametrize("kind", ["module_ablation", "lambda_sweep"])
    def test_each_row_is_the_evaluate_auc_of_its_cell(self, monkeypatch, kind):
        spec = tiny_spec(kind, seeds=(0, 1))
        trained, test_sets = [], {}
        lockstep, generate = evaluation.train_runs, evaluation.generate_dataset

        def capturing_train(runs):
            trained.append(lockstep(runs))
            return trained[-1]

        def capturing_generate(*args, base_seed, **kwargs):
            sets = generate(*args, base_seed=base_seed, **kwargs)
            test_sets[base_seed] = sets
            return sets

        monkeypatch.setattr(evaluation, "train_runs", capturing_train)
        monkeypatch.setattr(evaluation, "generate_dataset", capturing_generate)
        rows = run_ablation(spec)
        assert len(trained) == 2
        for seed, results in zip(spec.seeds, trained):
            test = test_sets[("ablate-test", seed)]
            samples = [*test.real_anomalous, *test.real_normal]
            by_setting = {row.setting: row.auc for row in rows if row.seed == seed}
            for (setting, _), result in zip(spec.cells, results):
                assert by_setting[setting] == evaluate(result.params, samples).auc, setting


def tiny_spec(kind, grid=(), seeds=(0,), **overrides):
    dim = 8
    a = np.zeros(dim)
    a[0] = 2.0
    defaults = dict(
        kind=kind,
        grid=tuple(grid),
        seeds=tuple(seeds),
        world=WorldConfig(dim=dim, clips_min=4, clips_max=6, clip_len=2,
                          anomaly_frac_min=0.3, anomaly_frac_max=0.6, anomaly_offset=a),
        train=TrainConfig(epochs=2, batch_pairs=2, k_rule="frac:0.25"),
        pairs=PAIRS,
        counts=GenerationCounts(6, 6, 4, 4),
        test_counts=(6, 6),
    )
    defaults.update(overrides)
    return AblationSpec(**defaults)


class TestRunAblation:
    def test_single_grid_point_single_seed(self):
        rows = run_ablation(tiny_spec("lambda_sweep", grid=("0.5",)))
        assert len(rows) == 1
        assert rows[0].setting == "lambda=0.5"
        assert 0.0 <= rows[0].auc <= 1.0

    def test_default_lambda_grid_mirrors_standard_sweep(self):
        assert LAMBDA_GRID_DEFAULT == ("0.1", "0.25", "0.5", "1.0", "2.0")
        spec = tiny_spec("lambda_sweep")
        assert spec.grid == LAMBDA_GRID_DEFAULT

    def test_default_data_scale_grid(self):
        assert DATA_SCALE_GRID_DEFAULT == ("0.25", "0.5", "0.75", "1.0")
        rows = run_ablation(tiny_spec("data_scale_sweep", grid=("0.5", "1.0")))
        assert [r.setting for r in rows] == [
            "scale=0.5/real-only", "scale=0.5/with-synth",
            "scale=1.0/real-only", "scale=1.0/with-synth",
        ]

    def test_module_ablation_produces_five_configurations(self):
        rows = run_ablation(tiny_spec("module_ablation"))
        assert [r.setting for r in rows] == list(MODULE_GRID_DEFAULT)

    def test_deterministic(self):
        spec = tiny_spec("lambda_sweep", grid=("0.5", "2.0"), seeds=(0, 1))
        a = run_ablation(spec)
        b = run_ablation(spec)
        assert a == b

    def test_rows_grouped_by_setting_then_seed(self):
        rows = run_ablation(tiny_spec("lambda_sweep", grid=("0.5", "1.0"), seeds=(0, 1)))
        assert [(r.setting, r.seed) for r in rows] == [
            ("lambda=0.5", 0), ("lambda=0.5", 1), ("lambda=1.0", 0), ("lambda=1.0", 1),
        ]

    def test_summary_and_csv(self):
        rows = run_ablation(tiny_spec("lambda_sweep", grid=("0.5",), seeds=(0, 1, 2)))
        summary = summarize_ablation(rows)
        assert len(summary) == 1
        assert summary[0].n_seeds == 3
        assert summary[0].mean_auc == pytest.approx(np.mean([r.auc for r in rows]))
        csv_rows = rows_to_csv(rows).splitlines()
        assert csv_rows[0] == "setting,seed,auc"
        assert len(csv_rows) == 4
        summary_csv = summary_to_csv(summary).splitlines()
        assert summary_csv[0] == "setting,mean_auc,std_auc,n_seeds"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            tiny_spec("weird_sweep")

    def test_bad_module_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown module"):
            run_ablation(tiny_spec("module_ablation", grid=("vg+nope",)))

    def test_learnable_grid_entry_rejected(self):
        with pytest.raises(ValidationError, match="'learnable' is not a number"):
            run_ablation(tiny_spec("lambda_sweep", grid=("0.5", "learnable")))

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    def test_non_finite_lambda_rejected_before_training(self, monkeypatch, bad):
        calls = []
        real_train = evaluation.train_runs
        monkeypatch.setattr(evaluation, "train_runs", lambda *args: calls.append(args) or real_train(*args))
        with pytest.raises(ValidationError, match="finite and >= 0"):
            run_ablation(tiny_spec("lambda_sweep", grid=("0.5", "1.0", bad)))
        assert calls == []

    @pytest.mark.parametrize("field, values, shown", [
        ("seeds", (1, 2, 1), "seed 1"),
        ("grid", ("baseline", "vg", "baseline"), "grid entry 'baseline'"),
    ])
    def test_duplicate_seed_or_grid_entry_rejected(self, field, values, shown):
        # A repeated seed or setting would train the same cell twice and
        # count it as two independent seeds.
        with pytest.raises(ValidationError, match=f"duplicate {shown}"):
            tiny_spec("module_ablation", **{field: values})

    @pytest.mark.parametrize("counts, grid, shown", [
        ((0, 0, 4, 4), ("baseline", "vg"), "'baseline' needs real videos in both classes; counts give 0 anomalous"),
        ((4, 0, 4, 4), ("vg", "vg+vf"), "'vg\\+vf' needs real videos in both classes; counts give 4 anomalous and 0"),
        ((0, 4, 0, 4), ("vg",), "'vg' needs videos in both classes; counts give 0 anomalous and 8 normal"),
    ])
    def test_module_cell_that_cannot_train_rejected_when_spec_is_built(self, counts, grid, shown):
        # A cell that would meet an empty class in training is refused when
        # the spec is built, naming the cell, before any pool is generated.
        with pytest.raises(ValidationError, match=shown):
            tiny_spec("module_ablation", grid=grid, counts=GenerationCounts(*counts))

    def test_vg_without_real_videos_trains(self):
        rows = run_ablation(tiny_spec("module_ablation", grid=("vg", "vg+ssls"), counts=GenerationCounts(0, 0, 4, 4)))
        assert [r.setting for r in rows] == ["vg", "vg+ssls"]

    def test_sweep_cells_read_their_synthetic_pool(self):
        # The class check reads each cell's pool for every kind: a real-only
        # arm needs real videos of both classes, a lambda cell (all synthetic
        # videos) real or synthetic ones.
        with pytest.raises(ValidationError, match="sweep cell 'scale=0.5/real-only' needs real videos in both classes"):
            tiny_spec("data_scale_sweep", grid=("0.5",), counts=GenerationCounts(0, 4, 4, 4))
        rows = run_ablation(tiny_spec("lambda_sweep", grid=("0.5",), counts=GenerationCounts(0, 0, 4, 4)))
        assert [r.setting for r in rows] == ["lambda=0.5"]

    @pytest.mark.parametrize("kind, calls", [("module_ablation", 2), ("lambda_sweep", 0)])
    def test_one_filter_call_per_seed(self, monkeypatch, kind, calls):
        # vg+vf and vg+vf+ssls share one filtered pool per seed; a sweep
        # without vf cells never filters.
        seen = []
        real_filter = evaluation.filter_synthetic
        monkeypatch.setattr(evaluation, "filter_synthetic", lambda *args: seen.append(args) or real_filter(*args))
        run_ablation(tiny_spec(kind, seeds=(0, 1)))
        assert len(seen) == calls


class TestCellData:
    # Every cell of every kind trains on the seed's real videos (subsampled
    # to its fraction) mixed with its synthetic pool, at its lambda. The spy
    # reads what each cell hands to the trainer.

    def cells(self, monkeypatch, spec):
        calls = []
        lockstep = evaluation.train_runs
        monkeypatch.setattr(evaluation, "train_runs", lambda runs: calls.append(list(runs)) or lockstep(runs))
        run_ablation(spec)
        (runs,) = calls  # one seed, one stack
        cells = {}
        for (setting, _), (dataset, config) in zip(spec.cells, runs):
            samples = dataset.anomalous + dataset.normal
            real = frozenset(s.id for s in samples if s.y_s == 0)
            cells[setting] = (real, frozenset(s.id for s in samples if s.y_s == 1), config.lam)
        return cells

    def pool(self, spec):
        pool = generate_dataset(spec.world, spec.pairs, spec.counts, base_seed=("ablate-pool", spec.seeds[0]))
        real = frozenset(s.id for s in pool.real_anomalous + pool.real_normal)
        return pool, real, frozenset(s.id for s in pool.synth_anomalous + pool.synth_normal)

    def test_lambda_sweep_cells(self, monkeypatch):
        spec = tiny_spec("lambda_sweep", grid=("0.25", "2.0"))
        _, real, synth = self.pool(spec)
        assert self.cells(monkeypatch, spec) == {"lambda=0.25": (real, synth, 0.25), "lambda=2.0": (real, synth, 2.0)}

    def test_data_scale_arms_share_their_real_videos(self, monkeypatch):
        spec = tiny_spec("data_scale_sweep", grid=("0.5", "1.0"))
        pool, real, synth = self.pool(spec)
        cells = self.cells(monkeypatch, spec)
        lam = spec.train.lam
        assert cells["scale=1.0/real-only"] == (real, frozenset(), lam)
        assert cells["scale=1.0/with-synth"] == (real, synth, lam)
        half = cells["scale=0.5/real-only"][0]
        assert cells["scale=0.5/real-only"] == (half, frozenset(), lam)
        assert cells["scale=0.5/with-synth"] == (half, synth, lam)
        assert half < real
        assert len(half & {s.id for s in pool.real_anomalous}) == 3  # ceil(0.5 * 6) a class
        assert len(half & {s.id for s in pool.real_normal}) == 3

    def test_module_cells(self, monkeypatch):
        spec = tiny_spec("module_ablation")
        pool, real, synth = self.pool(spec)
        kept = frozenset(s.id for kept_class in filter_synthetic(pool.real_anomalous, pool.real_normal,
                                                                    pool.synth_anomalous, pool.synth_normal)
                         for s in kept_class)
        assert kept  # the vf cells differ from baseline
        lam = spec.train.lam
        assert lam != 1.0
        assert self.cells(monkeypatch, spec) == {
            "baseline": (real, frozenset(), 1.0),
            "vg": (real, synth, 1.0),
            "vg+vf": (real, kept, 1.0),
            "vg+ssls": (real, synth, lam),
            "vg+vf+ssls": (real, kept, lam),
        }


class TestLockstep:
    def test_each_cell_ends_as_if_trained_alone(self, monkeypatch):
        # A seed's cells train in one stack, with schedules of unequal
        # length (baseline 8 steps an epoch, vg 26). Each cell must end
        # bit-identical to the same run trained alone, and its Adam step
        # count must be its own number of steps.
        spec = tiny_spec("module_ablation", seeds=(0, 1), counts=GenerationCounts(16, 16, 36, 36))
        step_counts = []
        exact_adam = milcore.adam_step

        def counting_adam(param, grad, state, **kwargs):
            out = exact_adam(param, grad, state, **kwargs)
            step_counts.append((len(param), state.step))  # the stacked runs share one count
            return out

        calls = []  # per lockstep call: its runs, their results and its Adam step counts
        lockstep = evaluation.train_runs

        def capturing(runs):
            step_counts.clear()
            results = lockstep(runs)
            calls.append((list(runs), results, list(step_counts)))
            return results

        monkeypatch.setattr(milcore, "adam_step", counting_adam)
        monkeypatch.setattr(evaluation, "train_runs", capturing)
        rows = run_ablation(spec)
        assert len(rows) == 10
        assert [len(runs) for runs, _, _ in calls] == [5, 5]  # one stack per seed

        for runs, results, counts in calls:
            lockstep_steps = [max(step for stacked, step in counts if stacked > i) for i in range(len(runs))]
            alone_steps = []
            for (dataset, config), stacked in zip(runs, results):
                step_counts.clear()
                alone = train(dataset, config).params
                alone_steps.append(len(step_counts))
                for key in ("w1", "b1", "w2", "b2"):
                    assert np.array_equal(getattr(stacked.params, key), getattr(alone, key)), key
            assert {16, 52} <= set(alone_steps)  # 2 epochs of 8 and of 26 steps
            assert sorted(lockstep_steps) == sorted(alone_steps)
            assert len(counts) == max(alone_steps)

    def test_cells_that_share_their_pools_draw_their_pairs_once(self, monkeypatch):
        # A seed's cells share the train seed, so cells with the same pools
        # draw the same epochs of pairs. With a domain gap the filter keeps
        # no synthetic video, so the five module cells hold two distinct
        # pools (real; real + synthetic), and each epoch is drawn once per
        # pool. Every cell must still get the batches it draws alone.
        gap = np.zeros(8)
        gap[1] = 50.0
        spec = tiny_spec("module_ablation", world=replace(tiny_spec("module_ablation").world, domain_offset=gap),
                         train=TrainConfig(epochs=3, batch_pairs=2, k_rule="frac:0.25"))
        draws, plans = [], []
        exact_pairs, exact_plan = milcore._epoch_pairs, milcore._lockstep_plan

        def counting(*args):
            draws.append(1)
            return exact_pairs(*args)

        def capturing(runs, config):
            out = exact_plan(runs, config)
            plans.append((runs, out))
            return out

        monkeypatch.setattr(milcore, "_epoch_pairs", counting)
        monkeypatch.setattr(milcore, "_lockstep_plan", capturing)
        run_ablation(spec)
        ((runs, (plan, schedule)),) = plans
        pools = {(config.seed, tuple(sorted(s.id for s in data.anomalous + data.normal))) for data, config in runs}
        assert len(runs) == 5 and len(pools) == 2
        assert len(draws) == spec.train.epochs * 2

        def batches(plan, schedule, pos):
            return [[plan.ids[b] for b in step if b >= 0] for step in schedule.bags[:, pos].tolist() if step[0] >= 0]

        for pos, r in enumerate(schedule.order):
            alone_plan, alone_schedule = exact_plan([runs[r]], runs[r][1])
            assert batches(plan, schedule, pos) == batches(alone_plan, alone_schedule, 0), spec.cells[r][0]


    def test_equal_size_cells_share_one_forward_product_per_layer(self, monkeypatch):
        # With a domain gap the filter keeps nothing, so the five module
        # cells draw two pairings: vg and vg+ssls first (the longer
        # schedule), then baseline, vg+vf and vg+vf+ssls. While all five
        # step, each pairing's cells have equal row counts and are
        # consecutive, so a step makes one first-layer and one second-layer
        # product per pairing, and one in all where the two sizes meet.
        gap = np.zeros(8)
        gap[1] = 50.0
        spec = tiny_spec("module_ablation", world=replace(tiny_spec("module_ablation").world, domain_offset=gap),
                         train=TrainConfig(epochs=3, batch_pairs=2, k_rule="frac:0.25"))
        steps = []  # per training forward: each chunk's (run, rows), and its products by layer
        exact, matmul = milcore._forward, np.matmul

        def spy(bags, groups, *args):
            products = [0, 0]

            def counting(a, b, **kwargs):
                products[np.shape(b)[-1] == 1 or np.ndim(b) == 1] += 1  # the second layer's is w2
                return matmul(a, b, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np, "matmul", counting)
                out = exact(bags, groups, *args)
            if all(group[2:4] == group[4:6] for group in groups):  # a training step, not a test set of five scorers
                steps.append(([(r, (hi - lo) // (r1 - r0)) for _, _, lo, hi, _, _, r0, r1 in groups
                               for r in range(r0, r1)], products))
            return out

        monkeypatch.setattr(milcore, "_forward", spy)
        run_ablation(spec)
        five = [(rows, products) for rows, products in steps if len(rows) == 5]
        assert five and len(five) < len(steps)
        for rows, products in steps:
            assert [r for r, _ in rows] == list(range(len(rows)))  # one chunk per cell
        for rows, products in five:
            n = [m for _, m in rows]
            assert n[0] == n[1] and n[2] == n[3] == n[4]
            assert products == ([1, 1] if n[1] == n[2] else [2, 2])
        assert any(products == [2, 2] for _, products in five)
        assert all(products == [1, 1] for rows, products in steps if len(rows) == 2)

    def test_cells_without_ssls_match_their_ssls_cells_at_lambda_one(self, monkeypatch):
        # A module cell without ssls trains at lambda = 1, so at train.lam=1.0
        # it must end with the same weights, bit for bit, as the same cell
        # with ssls. Rank-based AUCs could hide a small difference in lambda.
        grid = ("vg", "vg+ssls", "vg+vf", "vg+vf+ssls")
        spec = tiny_spec("module_ablation", grid=grid, seeds=(0, 1),
                         train=TrainConfig(lam=1.0, epochs=2, batch_pairs=2, k_rule="frac:0.25"))
        calls = []
        lockstep = evaluation.train_runs

        def capturing(runs):
            results = lockstep(runs)
            calls.append(dict(zip(grid, zip(runs, results))))
            return results

        monkeypatch.setattr(evaluation, "train_runs", capturing)
        run_ablation(spec)
        assert len(calls) == 2  # one stack per seed
        for cells in calls:
            (filtered, _), _ = cells["vg+vf"]
            assert any(s.y_s == 1 for s in filtered.anomalous + filtered.normal)  # vf keeps synthetic videos
            for plain, scaled in (("vg", "vg+ssls"), ("vg+vf", "vg+vf+ssls")):
                plain_params, scaled_params = cells[plain][1].params, cells[scaled][1].params
                for key in ("w1", "b1", "w2", "b2"):
                    assert np.array_equal(getattr(plain_params, key), getattr(scaled_params, key)), (plain, key)


class TestScoreCurve:
    def result(self):
        return evaluate(oracle_params(), [oracle_sample("vid-a", [0, 1, 0]),
                                          oracle_sample("vid-b", [0, 0])])

    def test_csv_rows_match_frame_count(self, tmp_path):
        result = self.result()
        path = tmp_path / "curve.csv"
        export_score_curve(result, "vid-a", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame,score,gt"
        assert len(lines) == 1 + 12  # 3 clips x clip_len 4

    def test_sixteen_frame_normal_video_gt_all_zero(self, tmp_path):
        result = evaluate(oracle_params(), [oracle_sample("norm", [0, 0, 0, 0]),
                                            oracle_sample("anom", [1, 0])])
        path = tmp_path / "curve.csv"
        export_score_curve(result, "norm", path)
        rows = path.read_text().strip().splitlines()[1:]
        assert len(rows) == 16
        assert all(line.split(",")[2] == "0" for line in rows)

    def test_svg_is_well_formed_xml(self, tmp_path):
        result = self.result()
        svg_path = tmp_path / "curve.svg"
        export_score_curve(result, "vid-a", tmp_path / "curve.csv", svg_path)
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")

    def test_svg_title_is_escaped(self, tmp_path):
        # A library VideoSample id may hold XML markup characters; the SVG
        # must still parse and show the id as its title text.
        video_id = "a&b<c>\"d'"
        result = evaluate(oracle_params(), [oracle_sample(video_id, [0, 1, 0]), oracle_sample("b", [0, 0])])
        svg_path = tmp_path / "curve.svg"
        export_score_curve(result, video_id, tmp_path / "curve.csv", svg_path)
        texts = [e.text for e in ET.parse(svg_path).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-1] == video_id

    def test_svg_renders_random_inputs(self):
        rng = rng_from("svg")
        for _ in range(20):
            n = int(rng.integers(1, 200))
            scores = rng.uniform(size=n)
            labels = (rng.uniform(size=n) < 0.3).astype(np.uint8)
            ET.fromstring(render_score_curve_svg(scores, labels, title="t"))

    def test_unknown_video_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown video"):
            export_score_curve(self.result(), "nope", tmp_path / "c.csv")


class TestEvalResultShape:
    def test_per_video_fields(self):
        result = evaluate(oracle_params(), [oracle_sample("only", [1, 0])])
        assert isinstance(result, EvalResult)
        video = result.per_video[0]
        assert isinstance(video, VideoScores)
        assert video.frame_scores.shape == video.frame_labels.shape
