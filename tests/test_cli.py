import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gvvad.cli import main
from gvvad.kvformat import load_kv
from gvvad.milcore import TrainConfig, train_config_to_kv
from gvvad.promptgen import default_inventory, save_inventory


def tree_bytes(root):
    """Map of relative path -> file bytes for a whole directory tree."""
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def write_world_config(path, dim=6, gap=0.0):
    anomaly = ",".join(["2.0"] + ["0.0"] * (dim - 1))
    domain = ",".join(["0.0", str(gap)] + ["0.0"] * (dim - 2))
    path.write_text(
        "\n".join([
            f"dim={dim}",
            "clips_min=4",
            "clips_max=6",
            "clip_len=2",
            "noise_sigma=1.0",
            "anomaly_frac_min=0.3",
            "anomaly_frac_max=0.6",
            "element_effect_scale=0.0",
            "normal_center=0",
            f"anomaly_offset={anomaly}",
            f"domain_offset={domain}",
        ]) + "\n"
    )


@pytest.fixture
def pipeline(tmp_path):
    """Prompts + world files shared by the command tests."""
    inventory_path = tmp_path / "inventory.tsv"
    save_inventory(default_inventory(), inventory_path)
    prompts_dir = tmp_path / "prompts"
    assert main(["prompts", "--inventory", str(inventory_path), "--limit", "12",
                 "--seed", "3", "--out", str(prompts_dir)]) == 0
    world_cfg = tmp_path / "world.cfg"
    write_world_config(world_cfg)
    return tmp_path, prompts_dir / "prompts.tsv", world_cfg


class TestPrompts:
    def test_minimal_inventory(self, tmp_path):
        inv = tmp_path / "inv.tsv"
        inv.write_text(
            "gvvad-inventory v1\n"
            "viewpoint\tstreet camera\n"
            "location\tstation\n"
            "subject\tpasserby\n"
            "anomalous_event\tfalling over\n"
            "normal_event\twalking through\n"
        )
        out = tmp_path / "out"
        assert main(["prompts", "--inventory", str(inv), "--out", str(out)]) == 0
        lines = (out / "prompts.tsv").read_text().splitlines()
        assert len(lines) == 2  # header + single pair
        assert (out / "resolved.cfg").exists()

    def test_limit_exceeding_product_exits_2(self, tmp_path, capsys):
        inv = tmp_path / "inv.tsv"
        inv.write_text(
            "gvvad-inventory v1\n"
            "viewpoint\tstreet camera\n"
            "location\tstation\n"
            "subject\tpasserby\n"
            "anomalous_event\tfalling over\n"
            "normal_event\twalking through\n"
        )
        assert main(["prompts", "--inventory", str(inv), "--limit", "5",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "5" in err and "1" in err

    def test_builtin_inventory_paper_scale(self, tmp_path):
        out = tmp_path / "out"
        assert main(["prompts", "--limit", "300", "--out", str(out)]) == 0
        assert len((out / "prompts.tsv").read_text().splitlines()) == 301

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        assert main(["prompts", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_inventory_file_exits_3(self, tmp_path):
        assert main(["prompts", "--inventory", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "o")]) == 3


class TestWorld:
    def test_counts_make_manifest_entries(self, pipeline):
        tmp_path, prompts, world_cfg = pipeline
        out = tmp_path / "world-out"
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "4,4,2,2", "--seed", "1", "--out", str(out)]) == 0
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 13  # header + 12 entries
        assert (out / "world.cfg").exists()
        assert (out / "resolved.cfg").exists()
        assert len(list((out / "features").glob("*.gvft"))) == 12
        assert len(list((out / "labels").glob("*.gvlb"))) == 12

    def test_rerun_same_seed_byte_identical(self, pipeline):
        tmp_path, prompts, world_cfg = pipeline
        args = ["world", "--world", str(world_cfg), "--prompts", str(prompts),
                "--counts", "3,3,2,2", "--seed", "7"]
        out_a = tmp_path / "wa"
        out_b = tmp_path / "wb"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_zero_synthetic_counts(self, pipeline):
        tmp_path, prompts, world_cfg = pipeline
        out = tmp_path / "baseline"
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "3,3,0,0", "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "manifest.tsv").read_text().splitlines()[1:]
        assert len(lines) == 6
        assert all(line.split("\t")[3] == "0" for line in lines)  # all real

    def test_missing_required_key_exits_2(self, pipeline):
        tmp_path, prompts, _ = pipeline
        assert main(["world", "--prompts", str(prompts), "--counts", "1,1,0,0",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("counts", ["4,,4,4,4", "4,4,4,4,", ",4,4,4,4"])
    def test_empty_count_item_exits_2(self, pipeline, capsys, counts):
        tmp_path, prompts, world_cfg = pipeline
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", counts, "--out", str(tmp_path / "x")]) == 2
        assert "'counts'" in capsys.readouterr().err

    @pytest.mark.parametrize("offset", ["2,,0,0,0", "2,0,0,0,"])
    def test_empty_world_vector_item_exits_2(self, pipeline, capsys, offset):
        # Dropping the empty item would leave exactly dim=4 entries.
        tmp_path, prompts, _ = pipeline
        world_cfg = tmp_path / "w4.cfg"
        world_cfg.write_text(f"dim=4\nanomaly_offset={offset}\n")
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "2,2,0,0", "--out", str(tmp_path / "x")]) == 2
        assert "'anomaly_offset'" in capsys.readouterr().err


class TestTrainEvalFlow:
    def run_pipeline(self, pipeline, train_args=()):
        tmp_path, prompts, world_cfg = pipeline
        train_dir = tmp_path / "data-train"
        test_dir = tmp_path / "data-test"
        for out, seed in ((train_dir, 1), (test_dir, 2)):
            assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                         "--counts", "6,6,3,3", "--seed", str(seed), "--out", str(out)]) == 0
        model_dir = tmp_path / "model"
        assert main(["train", "--manifest", str(train_dir / "manifest.tsv"),
                     "--val-manifest", str(test_dir / "manifest.tsv"),
                     "--set", "epochs=3", "--set", "batch_pairs=2", "--set", "hidden=8",
                     "--seed", "5", "--out", str(model_dir), *train_args]) == 0
        return tmp_path, test_dir, model_dir

    def test_train_then_eval(self, pipeline):
        tmp_path, test_dir, model_dir = self.run_pipeline(pipeline)
        assert (model_dir / "params.gvpm").exists()
        history = (model_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,L_total,L_MIL_mean,val_auc"
        assert len(history) == 4

        eval_dir = tmp_path / "eval"
        video_id = (test_dir / "manifest.tsv").read_text().splitlines()[1].split("\t")[0]
        assert main(["eval", "--params", str(model_dir / "params.gvpm"),
                     "--manifest", str(test_dir / "manifest.tsv"),
                     "--curve", video_id, "--svg", "--out", str(eval_dir)]) == 0
        metrics = dict(
            line.split(" ", 1) for line in (eval_dir / "metrics.txt").read_text().splitlines()
        )
        assert 0.0 <= float(metrics["auc"]) <= 1.0
        assert metrics["auc_protocol"] == "micro"
        assert (eval_dir / "curves" / f"{video_id}.csv").exists()
        assert (eval_dir / "curves" / f"{video_id}.svg").exists()

    def test_non_positive_lr_exits_2(self, pipeline):
        tmp_path, prompts, world_cfg = pipeline
        data_dir = tmp_path / "data"
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "2,2,0,0", "--seed", "1", "--out", str(data_dir)]) == 0
        model_dir = tmp_path / "model"
        assert main(["train", "--manifest", str(data_dir / "manifest.tsv"),
                     "--set", "lr=-0.001", "--out", str(model_dir)]) == 2
        assert not (model_dir / "params.gvpm").exists()

    def test_non_numeric_k_rule_exits_2(self, pipeline):
        tmp_path, prompts, world_cfg = pipeline
        data_dir = tmp_path / "data"
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "2,2,0,0", "--seed", "1", "--out", str(data_dir)]) == 0
        model_dir = tmp_path / "model"
        assert main(["train", "--manifest", str(data_dir / "manifest.tsv"),
                     "--set", "k_rule=fixed:x", "--out", str(model_dir)]) == 2
        assert not (model_dir / "params.gvpm").exists()

    def test_learnable_lambda_exits_2(self, pipeline):
        tmp_path, prompts, world_cfg = pipeline
        data_dir = tmp_path / "data"
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "2,2,0,0", "--seed", "1", "--out", str(data_dir)]) == 0
        config = tmp_path / "train.cfg"
        config.write_text("lambda_learnable=1\n")
        for extra in (["--set", "lambda_learnable=1"], ["--config", str(config)]):
            model_dir = tmp_path / "model"
            assert main(["train", "--manifest", str(data_dir / "manifest.tsv"),
                         *extra, "--out", str(model_dir)]) == 2
            assert not (model_dir / "params.gvpm").exists()

    def test_eval_curve_id_cannot_leave_out(self, pipeline):
        # A manifest id naming a path outside --out is refused before
        # anything is written.
        tmp_path, test_dir, model_dir = self.run_pipeline(pipeline)
        manifest = test_dir / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        victim = lines[1].split("\t")
        victim[0] = "../../evil"
        lines[1] = "\t".join(victim)
        manifest.write_text("\n".join(lines) + "\n")
        eval_dir = tmp_path / "ev" / "out"
        before = tree_bytes(tmp_path)
        assert main(["eval", "--params", str(model_dir / "params.gvpm"),
                     "--manifest", str(manifest), "--curve", "../../evil",
                     "--out", str(eval_dir)]) == 2
        assert tree_bytes(tmp_path) == before
        assert not (tmp_path / "ev").exists()

    def test_eval_unknown_curve_id_leaves_no_out(self, pipeline, capsys):
        # Every requested id is checked before anything is written, also
        # when a valid id comes first.
        tmp_path, test_dir, model_dir = self.run_pipeline(pipeline)
        manifest = test_dir / "manifest.tsv"
        video_id = manifest.read_text().splitlines()[1].split("\t")[0]
        eval_dir = tmp_path / "ev" / "out"
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        assert main(["eval", "--params", str(model_dir / "params.gvpm"), "--manifest", str(manifest),
                     "--curve", video_id, "--curve", "no-such-video", "--svg", "--out", str(eval_dir)]) == 2
        assert capsys.readouterr().err == "error: unknown video id 'no-such-video'\n"
        assert tree_bytes(tmp_path) == before
        assert not (tmp_path / "ev").exists()

    def test_eval_rejects_corrupt_params_with_exit_2(self, pipeline):
        tmp_path, test_dir, model_dir = self.run_pipeline(pipeline)
        params_path = model_dir / "params.gvpm"
        raw = bytearray(params_path.read_bytes())
        raw[-1] ^= 0xFF
        params_path.write_bytes(bytes(raw))
        assert main(["eval", "--params", str(params_path),
                     "--manifest", str(test_dir / "manifest.tsv"),
                     "--out", str(tmp_path / "e2")]) == 2

    def test_eval_rejects_wrong_b2_shape_with_one_error_line(self, pipeline, capsys):
        # A params file whose b2 block holds two values, with a valid checksum.
        from gvvad.milcore import ScorerParams, save_params
        from gvvad.numerics import rng_from

        tmp_path, test_dir, _ = self.run_pipeline(pipeline)
        params = ScorerParams.init(6, 8, rng_from("cli-bad-b2"))
        params.b2 = [0.0, 0.0]
        bad = tmp_path / "bad.gvpm"
        save_params(bad, params)
        capsys.readouterr()
        assert main(["eval", "--params", str(bad), "--manifest", str(test_dir / "manifest.tsv"),
                     "--out", str(tmp_path / "e3")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "b2" in err[0]
        assert not (tmp_path / "e3" / "metrics.txt").exists()

    def test_eval_rejects_non_finite_params_naming_the_file(self, pipeline, capsys):
        # A params file whose w1 holds a NaN, with a valid checksum.
        from gvvad.milcore import ScorerParams, save_params
        from gvvad.numerics import rng_from

        tmp_path, test_dir, _ = self.run_pipeline(pipeline)
        params = ScorerParams.init(6, 8, rng_from("cli-nan"))
        params.w1[0, 0] = np.nan
        bad = tmp_path / "nan.gvpm"
        save_params(bad, params)
        capsys.readouterr()
        assert main(["eval", "--params", str(bad), "--manifest", str(test_dir / "manifest.tsv"),
                     "--out", str(tmp_path / "e5")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(bad) in err[0] and "non-finite" in err[0]
        assert not (tmp_path / "e5").exists()

    @pytest.mark.parametrize("bad", ["no frame labels", "wrong dim"])
    def test_train_with_a_bad_val_set_writes_nothing(self, pipeline, capsys, bad):
        from gvvad.datamodel import VideoSample, load_manifest, load_samples, write_dataset

        tmp_path, prompts, world_cfg = pipeline
        train_dir, val_dir = tmp_path / "data-train", tmp_path / "data-val"
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "4,4,0,0", "--seed", "1", "--out", str(train_dir)]) == 0
        if bad == "wrong dim":
            write_world_config(world_cfg, dim=5)
            assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                         "--counts", "4,4,0,0", "--seed", "2", "--out", str(val_dir)]) == 0
        else:
            manifest = load_manifest(train_dir / "manifest.tsv")
            unlabelled = [VideoSample(s.id, s.features, s.y, s.y_s) for s in load_samples(manifest, train_dir)]
            write_dataset(val_dir, unlabelled, manifest.feature_dim, manifest.clip_len)
        model_dir = tmp_path / "model"
        capsys.readouterr()
        assert main(["train", "--manifest", str(train_dir / "manifest.tsv"),
                     "--val-manifest", str(val_dir / "manifest.tsv"), "--out", str(model_dir)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not model_dir.exists()

    def test_eval_seed_flag_exits_2(self, pipeline, capsys):
        # eval's configuration has no seed key, so --seed is not one of its flags.
        tmp_path, test_dir, model_dir = self.run_pipeline(pipeline)
        out = tmp_path / "e4"
        capsys.readouterr()
        assert main(["eval", "--params", str(model_dir / "params.gvpm"), "--manifest", str(test_dir / "manifest.tsv"),
                     "--seed", "3", "--out", str(out)]) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()


class TestEndToEndDeterminism:
    def test_full_pipeline_twice_is_byte_identical(self, tmp_path):
        # Identical inputs and seeds, only --out differs between the two runs.
        world_cfg = tmp_path / "world.cfg"
        write_world_config(world_cfg)

        def run(root):
            root.mkdir()
            assert main(["prompts", "--limit", "10", "--seed", "3",
                         "--out", str(root / "prompts")]) == 0
            return root

        a = run(tmp_path / "run-a")
        b = run(tmp_path / "run-b")

        # Downstream stages consume the *same* input files for both runs.
        prompts = a / "prompts" / "prompts.tsv"
        for root in (a, b):
            assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                         "--counts", "5,5,3,3", "--seed", "11", "--out", str(root / "data")]) == 0
        manifest = a / "data" / "manifest.tsv"
        for root in (a, b):
            assert main(["train", "--manifest", str(manifest),
                         "--set", "epochs=2", "--set", "batch_pairs=2",
                         "--set", "hidden=8", "--seed", "4", "--out", str(root / "model")]) == 0
        params = a / "model" / "params.gvpm"
        for root in (a, b):
            assert main(["eval", "--params", str(params), "--manifest", str(manifest),
                         "--out", str(root / "eval")]) == 0
        assert tree_bytes(a) == tree_bytes(b)


class TestAblate:
    def test_small_sweep(self, pipeline, tmp_path):
        _, prompts, _ = pipeline
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "\n".join([
                "kind=lambda_sweep",
                "grid=0.5,1.0",
                "seeds=0,1",
                "counts=4,4,3,3",
                "test_counts=4,4",
                f"prompts={prompts}",
                "world.dim=6",
                "world.clips_min=4",
                "world.clips_max=6",
                "world.clip_len=2",
                "world.anomaly_offset=2.0,0,0,0,0,0",
                "world.anomaly_frac_min=0.3",
                "world.anomaly_frac_max=0.6",
                "train.epochs=2",
                "train.batch_pairs=2",
                "train.hidden=8",
            ]) + "\n"
        )
        out = tmp_path / "ablate-out"
        assert main(["ablate", "--spec", str(spec), "--out", str(out)]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert rows[0] == "setting,seed,auc"
        assert len(rows) == 5  # 2 settings x 2 seeds
        summary = (out / "ablation_summary.csv").read_text().splitlines()
        assert summary[0] == "setting,mean_auc,std_auc,n_seeds"
        assert len(summary) == 3
        assert (out / "spec.cfg").read_text() == spec.read_text()

    @pytest.mark.parametrize("kind, bad", [
        ("lambda_sweep", "grid=0.5,learnable"),
        ("lambda_sweep", "grid=0.5,inf"),
        ("lambda_sweep", "grid=0.5,nan"),
        ("lambda_sweep", "grid=0.5,-inf"),
        ("lambda_sweep", "filter_percentile=-3"),
        ("module_ablation", "filter_percentile=0"),
        ("data_scale_sweep", "filter_percentile=101"),
        ("lambda_sweep", "grid=0.5,,1.0"),
        ("module_ablation", "test_counts=2,2,"),
    ])
    def test_bad_spec_value_exits_2_before_writing(self, tmp_path, pipeline, capsys, kind, bad):
        _, prompts, _ = pipeline
        spec = tmp_path / "bad-spec.cfg"
        spec.write_text(f"kind={kind}\nseeds=0\ncounts=2,2,2,2\ntest_counts=2,2\n"
                        f"prompts={prompts}\n{bad}\nworld.dim=6\ntrain.epochs=1\n")
        out = tmp_path / "o"
        assert main(["ablate", "--spec", str(spec), "--out", str(out)]) == 2
        assert not (out / "ablation.csv").exists()
        if bad.startswith("filter_percentile="):
            # the vf threshold is fixed; the key it had is now unknown
            assert "'filter_percentile'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, bad, shown", [
        ("lambda_sweep", "seeds=0,1,0", "duplicate seed 0"),
        ("module_ablation", "seeds=0\ngrid=vg,baseline,vg", "duplicate grid entry 'vg'"),
    ])
    def test_duplicate_seed_or_grid_entry_exits_2(self, tmp_path, pipeline, capsys, kind, bad, shown):
        _, prompts, _ = pipeline
        spec = tmp_path / "dup-spec.cfg"
        spec.write_text(f"kind={kind}\n{bad}\ncounts=2,2,2,2\ntest_counts=2,2\n"
                        f"prompts={prompts}\nworld.dim=6\ntrain.epochs=1\n")
        out = tmp_path / "o"
        assert main(["ablate", "--spec", str(spec), "--out", str(out)]) == 2
        assert shown in capsys.readouterr().err
        assert not (out / "ablation.csv").exists()

    def test_module_cell_without_real_videos_exits_2(self, tmp_path, pipeline, capsys):
        # baseline trains on real videos alone; with none in a class the
        # spec is refused, naming the cell, before anything is generated.
        _, prompts, _ = pipeline
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"kind=module_ablation\ngrid=baseline,vg\nseeds=0\ncounts=0,0,4,4\ntest_counts=2,2\n"
                        f"prompts={prompts}\nworld.dim=6\ntrain.epochs=1\n")
        out = tmp_path / "o"
        assert main(["ablate", "--spec", str(spec), "--out", str(out)]) == 2
        assert "module configuration 'baseline' needs real videos in both classes" in capsys.readouterr().err
        assert not (out / "ablation.csv").exists()

    @pytest.mark.parametrize("flag", [["--seed", "99"], ["--set", "train.epochs=50"], ["--config", "/nonexistent"]])
    def test_flags_besides_spec_and_out_exit_2(self, tmp_path, pipeline, capsys, flag):
        # The spec file is the ablation's only configuration; argparse
        # refuses every other flag before anything runs.
        _, prompts, _ = pipeline
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"kind=lambda_sweep\ngrid=0.5\nseeds=0\ncounts=2,2,2,2\ntest_counts=2,2\n"
                        f"prompts={prompts}\nworld.dim=6\ntrain.epochs=1\n")
        out = tmp_path / "o"
        assert main(["ablate", "--spec", str(spec), *flag, "--out", str(out)]) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_spec_key_exits_2(self, tmp_path, pipeline):
        _, prompts, _ = pipeline
        spec = tmp_path / "bad-spec.cfg"
        spec.write_text(f"kind=lambda_sweep\nseeds=0\ncounts=1,1,0,0\nprompts={prompts}\nwhat=1\n")
        assert main(["ablate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2


class TestGradcheck:
    def test_default_passes_with_exit_0(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--seed", "0", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        for block in ("w1", "b1", "w2", "b2"):
            assert block in report
        assert "PASS" in report

    def test_corrupted_gradient_exits_1(self, capsys, monkeypatch):
        import gvvad.milcore as milcore

        exact = milcore.total_loss_and_grads

        def corrupted(params, batch, config):
            breakdown, grads = exact(params, batch, config)
            return breakdown, {**grads, "w1": grads["w1"] + 1e-3}

        monkeypatch.setattr(milcore, "total_loss_and_grads", corrupted)
        assert main(["gradcheck", "--seed", "0", "--batches", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("batches", ["0", "-3"])
    def test_no_batches_exits_2_with_one_error_line(self, tmp_path, capsys, batches):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--batches", batches, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "at least one batch" in err[0]
        assert not out.exists()

    def test_corrupt_flag_is_gone(self):
        assert main(["gradcheck", "--seed", "0", "--corrupt"]) == 2


class TestResolvedConfig:
    def test_provenance_recorded(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("limit=4\n")
        out = tmp_path / "out"
        assert main(["prompts", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        resolved = (out / "resolved.cfg").read_text()
        assert "# limit <- file" in resolved
        assert "# seed <- flag" in resolved
        assert "# inventory <- default" in resolved
        assert "limit=4" in resolved
        assert "seed=9" in resolved

    def test_train_defaults_are_the_train_config_defaults(self, pipeline):
        tmp_path, prompts, world_cfg = pipeline
        data = tmp_path / "data"
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "2,2,0,0", "--out", str(data)]) == 0
        out = tmp_path / "model"
        assert main(["train", "--manifest", str(data / "manifest.tsv"), "--out", str(out)]) == 0
        resolved = load_kv(out / "resolved.cfg")
        defaults = train_config_to_kv(TrainConfig())
        assert list(resolved) == ["manifest", "val_manifest", *defaults]
        assert {k: resolved[k] for k in defaults} == defaults
        text = (out / "resolved.cfg").read_text()
        for key in defaults:
            assert f"# {key} <- default" in text

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("limit=4\nseed=1\n")
        out = tmp_path / "out"
        assert main(["prompts", "--config", str(cfg), "--limit", "6", "--out", str(out)]) == 0
        assert len((out / "prompts.tsv").read_text().splitlines()) == 7


class TestDivergence:
    @pytest.mark.parametrize("lr", ["1e308", "1e100"])
    def test_diverging_run_prints_only_the_error(self, pipeline, lr):
        # numpy's overflow warnings must not precede the clean error.
        tmp_path, prompts, world_cfg = pipeline
        data = tmp_path / "data"
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "4,4,0,0", "--out", str(data)]) == 0
        result = subprocess.run(
            [sys.executable, "-m", "gvvad", "train", "--manifest", str(data / "manifest.tsv"),
             "--set", f"lr={lr}", "--out", str(tmp_path / "model")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
        assert "non-finite" in lines[0]

    def test_nan_clip_scores_exit_2_with_one_error_line(self, pipeline, capsys):
        # At lr=1e100 some clip scores turn NaN while the loss is still
        # finite; the run stops there with one error line naming the video.
        tmp_path, prompts, _ = pipeline
        world_cfg = tmp_path / "world-16.cfg"
        world_cfg.write_text("dim=16\nclips_min=6\nclips_max=10\nclip_len=2\n")
        data = tmp_path / "data"
        assert main(["world", "--world", str(world_cfg), "--prompts", str(prompts),
                     "--counts", "4,4,0,0", "--seed", "4", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--manifest", str(data / "manifest.tsv"), "--set", "lr=1e100",
                     "--set", "epochs=5", "--set", "batch_pairs=2", "--out", str(tmp_path / "model")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: clip scores of video "), lines
        assert lines[0].endswith(" are non-finite")


class TestNonUtf8Input:
    @pytest.mark.parametrize("reader", ["manifest", "kv", "repository", "inventory"])
    def test_exits_2_naming_the_file(self, pipeline, capsys, reader):
        # A text input that does not decode as UTF-8 is a format error:
        # one error line naming the file, exit 2, nothing written.
        tmp_path, prompts, world_cfg = pipeline
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xffdim=6\n")
        argv = {
            "manifest": ["train", "--manifest", str(bad)],
            "kv": ["world", "--world", str(bad), "--prompts", str(prompts), "--counts", "2,2,0,0"],
            "repository": ["world", "--world", str(world_cfg), "--prompts", str(bad), "--counts", "2,2,0,0"],
            "inventory": ["prompts", "--inventory", str(bad)],
        }[reader]
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: not UTF-8 text (byte 0: invalid start byte)"]
        assert not out.exists()


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "gvvad", "prompts", "--limit", "3",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "3 description pairs" in result.stdout

    def test_bad_arguments_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "gvvad", "nonsense"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
