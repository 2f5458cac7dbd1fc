"""Acceptance suite: one test per pipeline-level guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s``)
including its runtime against the stated budget. Statistical criteria run on
the fixed seeds 0..9 and are fully deterministic.
"""

import time
from contextlib import contextmanager

import numpy as np

from gvvad.cli import main
from gvvad.datamodel import VideoSample, mix_datasets
from gvvad.evaluation import AblationSpec, evaluate, roc_auc, run_ablation
from gvvad.milcore import (
    ScorerParams,
    TrainConfig,
    gradient_check,
    ssls_scale,
    topk_mean,
    total_loss_and_grads,
    train,
)
from gvvad.numerics import rng_from
from gvvad.promptgen import build_repository, default_inventory
from gvvad.worldsim import GenerationCounts, WorldConfig, generate_dataset

PAIRS = tuple(build_repository(default_inventory(), limit=40, seed=7))
DIM = 16
SEEDS = tuple(range(10))


@contextmanager
def criterion(name, limit_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit_s, f"{name}: {elapsed:.1f}s exceeded the {limit_s:.0f}s budget"
    except BaseException:
        print(f"[FAIL] {name} ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[PASS] {name} ({elapsed:.1f}s, budget {limit_s:.0f}s)")


def axis_vector(mag, axis=0):
    vec = np.zeros(DIM)
    vec[axis] = mag
    return vec


def gap_vector(norm, angle_deg):
    """Domain offset of the given norm, tilted away from the anomaly axis."""
    theta = np.deg2rad(angle_deg)
    vec = np.zeros(DIM)
    vec[0] = norm * np.cos(theta)
    vec[1] = norm * np.sin(theta)
    return vec


def make_world(anomaly_offset, domain_offset, frac=(0.3, 0.6)):
    return WorldConfig(
        dim=DIM, clips_min=8, clips_max=16, clip_len=16, noise_sigma=1.0,
        anomaly_frac_min=frac[0], anomaly_frac_max=frac[1],
        element_effect_scale=0.0,
        anomaly_offset=anomaly_offset, domain_offset=domain_offset,
    )


def base_train(epochs):
    return TrainConfig(epochs=epochs, batch_pairs=2, k_rule="frac:0.2")


def random_pair(rng, y_s_a, y_s_n, tag):
    def sample(y, y_s, suffix):
        t = int(rng.integers(4, 10))
        return VideoSample(f"{tag}-{suffix}", rng.normal(size=(t, 6)).astype(np.float32), y, y_s)

    return sample(1, y_s_a, "a"), sample(0, y_s_n, "n")


class TestCriterion1Gradients:
    def test_gradcheck(self):
        with criterion("criterion 1: gradient correctness", 10.0):
            report = gradient_check(seed=0, num_batches=10, h=1e-5, threshold=1e-4)
            assert report.passed, report.format()
            assert report.max_rel_error < 1e-4


class TestCriterion2SslsExactness:
    def test_scaling_laws(self):
        with criterion("criterion 2: SSLS exactness", 5.0):
            # Per-sample scaled/raw ratio is exactly 1 (real) or lambda (synthetic).
            rng = rng_from("acceptance-ssls")
            for trial in range(20):
                n = int(rng.integers(2, 40))
                raw = rng.uniform(0.01, 3.0, size=n)
                ys = (rng.uniform(size=n) < 0.5).astype(int)
                lam = float(rng.uniform(0.05, 2.0))
                out = ssls_scale(raw, ys, lam)
                real = ys == 0
                assert np.array_equal(out.scaled[real], raw[real])
                assert np.array_equal(out.scaled[~real], lam * raw[~real])

            # All-synthetic pair gradients equal lambda times the lambda=1 gradients.
            params = ScorerParams.init(6, 4, rng_from("acceptance-ssls-params"))
            batch = [random_pair(rng, 1, 1, f"sp{i}") for i in range(3)]
            for lam in (0.5, 0.25, 0.37):
                _, g_lam = total_loss_and_grads(params, batch, TrainConfig(lam=lam))
                _, g_one = total_loss_and_grads(params, batch, TrainConfig(lam=1.0))
                for key in g_one:
                    assert np.array_equal(g_lam[key], lam * g_one[key])

            # A module cell without ssls trains at lambda = 1: at train.lam=1.0
            # each such cell is bit-identical to the same cell with ssls. With
            # no domain gap the filter keeps some synthetic videos, so at any
            # other lambda every compared pair of cells differs.
            spec = AblationSpec(
                kind="module_ablation",
                grid=("vg", "vg+ssls", "vg+vf", "vg+vf+ssls"),
                seeds=(0, 1),
                world=make_world(axis_vector(1.0), axis_vector(0.0)),
                train=TrainConfig(lam=1.0, epochs=4, seed=3, batch_pairs=2),
                pairs=PAIRS,
                counts=GenerationCounts(6, 6, 6, 6),
                test_counts=(6, 6),
            )
            auc = {(row.setting, row.seed): row.auc for row in run_ablation(spec)}
            for seed in spec.seeds:
                assert auc[("vg", seed)] == auc[("vg+ssls", seed)]
                assert auc[("vg+vf", seed)] == auc[("vg+vf+ssls", seed)]


class TestCriterion3TopK:
    def test_sort_oracle_equivalence(self):
        with criterion("criterion 3: top-k oracle equivalence", 5.0):
            rng = rng_from("acceptance-topk")
            for i in range(1000):
                t = int(rng.integers(1, 65))
                scores = rng.uniform(size=t)
                if i % 4 == 0:
                    scores = np.round(scores, 1)  # tie-heavy
                for k in range(1, t + 1):
                    ranked = sorted(zip(scores, range(t)), key=lambda p: (-p[0], p[1]))
                    expected = float(np.sum(np.array([v for v, _ in ranked[:k]])) / k)
                    assert topk_mean(scores, k) == expected

    def test_batched_rows_match_the_sort_oracle(self):
        with criterion("criterion 3: batched top-k oracle equivalence", 5.0):
            # The trainer's form: many bags in one call, padded with -inf,
            # each with its own k from 1 to 64 (k >= 8 takes numpy's unrolled
            # sum); each mean and selection equals the sort oracle's for that
            # bag alone.
            rng = rng_from("acceptance-topk-batched")
            for trial in range(300):
                lengths = rng.integers(1, 65, size=int(rng.integers(1, 33)))
                padded = np.full((lengths.size, lengths.max()), -np.inf)
                ks = np.array([int(rng.integers(1, t + 1)) for t in lengths])
                oracle = []
                for i, (t, k) in enumerate(zip(lengths, ks)):
                    scores = rng.uniform(size=t)
                    if (trial + i) % 3 == 0:
                        scores = np.round(scores, 1)  # tie-heavy
                    padded[i, :t] = scores
                    ranked = sorted(zip(scores, range(t)), key=lambda p: (-p[0], p[1]))[:k]
                    oracle.append((float(np.sum(np.array([v for v, _ in ranked])) / k), [j for _, j in ranked]))
                means, order = topk_mean(padded, ks, return_indices=True)
                assert means.tolist() == [mean for mean, _ in oracle]
                assert [order[i, :k].tolist() for i, k in enumerate(ks)] == [idx for _, idx in oracle]


class TestCriterion4Auc:
    def test_pairwise_oracle_equivalence(self):
        with criterion("criterion 4: AUC oracle equivalence", 10.0):
            rng = rng_from("acceptance-auc")
            for i in range(200):
                n = int(rng.integers(10, 120))
                if i % 3 == 0:
                    scores = rng.integers(0, 5, size=n) / 5.0  # heavy ties
                else:
                    scores = rng.uniform(size=n)
                labels = (rng.uniform(size=n) < 0.4).astype(int)
                if labels.sum() in (0, n):
                    labels[0] = 1 - labels[0]
                count2 = 0
                pos = scores[labels == 1]
                neg = scores[labels == 0]
                for p in pos:
                    count2 += 2 * int(np.sum(p > neg)) + int(np.sum(p == neg))
                assert roc_auc(scores, labels) == count2 / (2 * len(pos) * len(neg))

            assert roc_auc(np.full(50, 0.3), [1, 0] * 25) == 0.5
            assert roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0

            scores = rng.uniform(0.05, 0.95, size=500)
            labels = (rng.uniform(size=500) < 0.5).astype(int)
            base = roc_auc(scores, labels)
            assert abs(roc_auc(2.0 * scores + 1.0, labels) - base) < 1e-12
            assert abs(roc_auc(scores ** 3, labels) - base) < 1e-12


def pairwise_frame_auc(scores, labels):
    """Integer pairwise count over frames: 2 per positive above a negative, 1 per tie."""
    neg = np.sort(scores[labels == 0])
    pos = scores[labels == 1]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return int((2 * below + tied).sum()) / (2 * len(pos) * len(neg))


def ragged_test_set(rng, i):
    """Videos of 1-12 clips, each with its own clip_len in 1..19, frame labels
    that change inside clips, and tie-heavy clip scores on every other trial."""
    scores, labels, clip_lens = [], [], []
    for _ in range(int(rng.integers(1, 8))):
        t, clip_len = int(rng.integers(1, 13)), int(rng.integers(1, 20))
        frames = (rng.uniform(size=t * clip_len) < rng.uniform(0.1, 0.6)).astype(np.uint8)
        clip = rng.integers(0, 3, size=t) / 3.0 if i % 2 == 0 else rng.uniform(size=t)
        scores.append(clip)
        labels.append(frames)
        clip_lens.append(clip_len)
    return scores, labels, clip_lens


def clip_counts(labels, clip_lens):
    positives = np.concatenate([f.reshape(-1, n).sum(axis=1) for f, n in zip(labels, clip_lens)])
    frames = np.concatenate([np.full(f.size // n, n) for f, n in zip(labels, clip_lens)])
    return positives, frames


class TestCriterion4ClipCountAuc:
    def test_clip_counts_equal_the_expanded_frames(self):
        with criterion("criterion 4: clip-count AUC equals the frame AUC", 10.0):
            rng = rng_from("acceptance-clip-auc")
            checked_micro = checked_macro = 0
            for i in range(300):
                scores, labels, clip_lens = ragged_test_set(rng, i)
                frame_scores = [np.repeat(s, n) for s, n in zip(scores, clip_lens)]
                all_frames = np.concatenate(frame_scores)
                all_labels = np.concatenate(labels)
                if 0 < all_labels.sum() < all_labels.size:
                    positives, frames = clip_counts(labels, clip_lens)
                    auc = roc_auc(np.concatenate(scores), positives, frames)
                    assert auc == roc_auc(all_frames, all_labels)
                    assert auc == pairwise_frame_auc(all_frames, all_labels)
                    checked_micro += 1
                for s, f, n, fs in zip(scores, labels, clip_lens, frame_scores):
                    if 0 < f.sum() < f.size:
                        positives, frames = clip_counts([f], [n])
                        auc = roc_auc(s, positives, frames)
                        assert auc == roc_auc(fs, f) == pairwise_frame_auc(fs, f)
                        checked_macro += 1
            assert checked_micro > 250 and checked_macro > 500

    def test_evaluate_equals_the_frame_auc_of_its_frame_scores(self):
        with criterion("criterion 4: evaluate equals the frame AUC", 10.0):
            rng = rng_from("acceptance-evaluate-auc")
            for i in range(60):
                _, labels, clip_lens = ragged_test_set(rng, i)
                samples = [
                    VideoSample(f"v{j:02d}", rng.normal(size=(f.size // n, 6)).astype(np.float32),
                                int(f.any()), 0, f)
                    for j, (f, n) in enumerate(zip(labels, clip_lens))
                ]
                frames = np.concatenate(labels)
                if not 0 < frames.sum() < frames.size:
                    continue
                params = ScorerParams.init(6, 4, rng_from("acceptance-evaluate-auc", i))
                if i % 2 == 0:  # few distinct scores: most clips tie
                    params.w1[:] = np.round(params.w1)
                    params.w2[:] = np.round(params.w2)
                micro = evaluate(params, samples)
                assert micro.auc == roc_auc(np.concatenate([v.frame_scores for v in micro.per_video]),
                                            np.concatenate([v.frame_labels for v in micro.per_video]))
                mixed = [v for v in micro.per_video if 0 < v.frame_labels.sum() < v.frame_labels.size]
                if mixed:
                    macro = evaluate(params, samples, macro=True)
                    assert macro.auc == float(np.mean([roc_auc(v.frame_scores, v.frame_labels) for v in mixed]))


class TestCriterion5DataScaleTrend:
    def test_synthetic_data_helps_most_when_real_data_is_scarce(self):
        with criterion("criterion 5: data-scale trend", 300.0):
            spec = AblationSpec(
                kind="data_scale_sweep",
                grid=("0.25", "0.5", "0.75", "1.0"),
                seeds=SEEDS,
                world=make_world(axis_vector(1.5), gap_vector(1.0, 75), frac=(0.4, 0.7)),
                train=base_train(epochs=40),
                pairs=PAIRS,
                counts=GenerationCounts(80, 80, 60, 60),
                test_counts=(100, 100),
            )
            rows = run_ablation(spec)
            by = {}
            for row in rows:
                by.setdefault(row.setting, {})[row.seed] = row.auc
            gains = {}
            for frac in spec.grid:
                base = np.mean([by[f"scale={frac}/real-only"][s] for s in SEEDS])
                synth = np.mean([by[f"scale={frac}/with-synth"][s] for s in SEEDS])
                gains[frac] = synth - base
                assert synth >= base, f"synthetic data hurt at scale {frac}: {synth:.4f} < {base:.4f}"
            assert gains["0.25"] > gains["1.0"], (
                f"gain at 25% ({gains['0.25']:+.4f}) not above gain at 100% ({gains['1.0']:+.4f})"
            )


# Pronounced-gap world shared by criteria 6 and 7: the domain offset has a
# component along the anomaly axis, so full-weight synthetic supervision
# conflicts with the real decision boundary.
GAP_WORLD = make_world(axis_vector(2.0), gap_vector(3.0, 45), frac=(0.3, 0.6))
GAP_COUNTS = GenerationCounts(16, 16, 36, 36)


class TestCriterion6LambdaTrend:
    def test_moderate_scaling_beats_both_extremes(self):
        with criterion("criterion 6: lambda-sweep trend", 300.0):
            spec = AblationSpec(
                kind="lambda_sweep",
                grid=("0.1", "0.5", "1.0"),
                seeds=SEEDS,
                world=GAP_WORLD,
                train=base_train(epochs=70),
                pairs=PAIRS,
                counts=GAP_COUNTS,
                test_counts=(200, 200),
            )
            rows = run_ablation(spec)
            by = {}
            for row in rows:
                by.setdefault(row.setting, {})[row.seed] = row.auc
            half = by["lambda=0.5"]
            full = by["lambda=1.0"]
            tiny = by["lambda=0.1"]
            # Strict: a trainer that ignores lambda ties every seed and wins none.
            wins_half_vs_full = sum(half[s] > full[s] for s in SEEDS)
            wins_tiny_vs_half = sum(tiny[s] < half[s] for s in SEEDS)
            assert wins_half_vs_full >= 7, f"lambda=0.5 > lambda=1.0 on only {wins_half_vs_full}/10 seeds"
            assert wins_tiny_vs_half >= 7, f"lambda=0.1 < lambda=0.5 on only {wins_tiny_vs_half}/10 seeds"


class TestCriterion7ModuleAblation:
    def test_five_configurations_and_full_beats_baseline(self):
        with criterion("criterion 7: module-ablation dataflow", 300.0):
            spec = AblationSpec(
                kind="module_ablation",
                seeds=SEEDS,
                world=GAP_WORLD,
                train=base_train(epochs=70),
                pairs=PAIRS,
                counts=GAP_COUNTS,
                test_counts=(100, 100),
            )
            rows = run_ablation(spec)
            settings = [r.setting for r in rows]
            expected = ["baseline", "vg", "vg+vf", "vg+ssls", "vg+vf+ssls"]
            assert [s for s in dict.fromkeys(settings)] == expected
            by = {}
            for row in rows:
                by.setdefault(row.setting, []).append(row.auc)
            assert all(len(v) == len(SEEDS) for v in by.values())
            full_mean = np.mean(by["vg+vf+ssls"])
            base_mean = np.mean(by["baseline"])
            assert full_mean >= base_mean, f"full {full_mean:.4f} < baseline {base_mean:.4f}"


class TestCriterion8Determinism:
    def test_cli_pipeline_byte_identical(self, tmp_path):
        with criterion("criterion 8: end-to-end determinism", 120.0):
            world_cfg = tmp_path / "world.cfg"
            lines = {
                "dim": "8", "clips_min": "4", "clips_max": "8", "clip_len": "4",
                "noise_sigma": "1.0", "anomaly_frac_min": "0.3", "anomaly_frac_max": "0.6",
                "element_effect_scale": "0.1",
                "anomaly_offset": "1.5,0,0,0,0,0,0,0",
                "domain_offset": "0,1.0,0,0,0,0,0,0",
            }
            world_cfg.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))

            roots = (tmp_path / "run-a", tmp_path / "run-b")
            for root in roots:
                assert main(["prompts", "--limit", "12", "--seed", "3",
                             "--out", str(root / "prompts")]) == 0
            prompts = roots[0] / "prompts" / "prompts.tsv"
            for root in roots:
                assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                             "--counts", "6,6,4,4", "--seed", "11",
                             "--out", str(root / "data")]) == 0
            manifest = roots[0] / "data" / "manifest.tsv"
            for root in roots:
                assert main(["train", "--manifest", str(manifest),
                             "--set", "epochs=3", "--set", "batch_pairs=2", "--set", "hidden=8",
                             "--seed", "4", "--out", str(root / "model")]) == 0
            params = roots[0] / "model" / "params.gvpm"
            for root in roots:
                assert main(["eval", "--params", str(params), "--manifest", str(manifest),
                             "--out", str(root / "eval")]) == 0

            def tree(root):
                return {
                    str(p.relative_to(root)): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()
                }

            assert tree(roots[0]) == tree(roots[1])


class TestCriterion9ZeroSignal:
    def test_no_label_leakage(self):
        with criterion("criterion 9: zero-signal sanity", 120.0):
            world = make_world(np.zeros(DIM), np.zeros(DIM), frac=(0.3, 0.6))
            for seed in SEEDS:
                sets = generate_dataset(world, PAIRS, GenerationCounts(20, 20, 0, 0),
                                        base_seed=("zero-signal", seed))
                dataset = mix_datasets(sets.real_anomalous, sets.real_normal, (), ())
                result = train(dataset, TrainConfig(epochs=10, seed=seed, batch_pairs=2,
                                                    k_rule="frac:0.2"))
                test = generate_dataset(world, PAIRS, GenerationCounts(40, 40, 0, 0),
                                        base_seed=("zero-signal-test", seed))
                auc = evaluate(result.params, [*test.real_anomalous, *test.real_normal]).auc
                assert 0.4 <= auc <= 0.6, f"seed {seed}: AUC {auc:.4f} outside [0.4, 0.6]"
