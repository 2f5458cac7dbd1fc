import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gvvad.datamodel import VideoSample
from gvvad.errors import ShapeError, ValidationError
from gvvad.evaluation import (
    DATA_SCALE_GRID_DEFAULT,
    LAMBDA_GRID_DEFAULT,
    MODULE_GRID_DEFAULT,
    AblationSpec,
    EvalResult,
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
from gvvad.milcore import ScorerParams, TrainConfig
from gvvad.numerics import rng_from
from gvvad.promptgen import build_repository, default_inventory
from gvvad.worldsim import GenerationCounts, WorldConfig

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

    def test_filter_percentile_validated_when_spec_is_built(self):
        # Every kind rejects a percentile outside (0, 100] before any training.
        for kind in ("lambda_sweep", "data_scale_sweep", "module_ablation"):
            for bad in (0.0, 101.0, -3.0):
                with pytest.raises(ValidationError, match="percentile"):
                    tiny_spec(kind, filter_percentile=bad)


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
