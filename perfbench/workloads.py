"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` (with an
untimed warm-up pass), then runs the same inputs on every ``run_pass``. A pass
times only calls into gvvad; ``check`` then verifies its outputs, untimed,
and returns one (operation, ok, detail) triple per operation attempted.

Every gvvad function is looked up through its module at call time
(``evaluation.run_ablation``, not a name bound at import), so the tracer's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import io
import math
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from gvvad import cli, datamodel, evaluation, milcore, promptgen, worldsim
from gvvad.errors import DataFormatError

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "module_sweep_reference.tsv"
WIDE_IO_REFERENCE_FILE = HERE / "wide_io_reference.tsv"
REFERENCE_SEEDS = tuple(range(16))
# Widest AUC move seen when the initial weights were scaled by (1 +- 1e-5)
# on ablation seeds 0-2 was 0.006; ulp-sized (<= 1e-8) perturbations moved
# no AUC at all. Summation-order changes are ulp-sized, so 0.01 admits them
# and still catches a changed objective, pairing or dataset.
AUC_TOLERANCE = 0.01
MODULE_SETTINGS = ("baseline", "vg", "vg+vf", "vg+ssls", "vg+vf+ssls")


@dataclass
class PassResult:
    seconds: float  # timed part of the pass
    cells: int  # train + evaluate cells completed
    cell_seconds: float  # seconds of the calls that ran those cells
    steps: int  # optimizer steps taken
    train_seconds: float  # seconds of the calls that trained
    aucs: tuple  # every AUC the pass produced, for the determinism check
    outputs: object = None  # what ``check`` inspects; dropped once checked
    traced: bool = False
    slowdown: float = 1.0  # calibration loop time over its nominal time, around the pass


def optimizer_steps(real_a: int, real_n: int, synth_a: int, synth_n: int,
                    epochs: int, batch_pairs: int) -> int:
    """Steps ``milcore.train`` takes: it pairs same-source videos first, then
    the leftovers across sources, and steps once per ``batch_pairs`` pairs."""
    n_real = min(real_a, real_n)
    n_synth = min(synth_a, synth_n)
    n_cross = min(real_a + synth_a - n_real - n_synth, real_n + synth_n - n_real - n_synth)
    return epochs * math.ceil((n_real + n_synth + n_cross) / batch_pairs)


def _seed_stream(tag: str, seed: int, n: int) -> list:
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(1 << 30) for _ in range(n)]


def _same_arrays(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# module-sweep
# ---------------------------------------------------------------------------

def gap_world() -> worldsim.WorldConfig:
    """``GAP_WORLD`` of acceptance criterion 7: a 3.0 domain gap tilted 45
    degrees away from the 2.0 anomaly offset."""
    anomaly = np.zeros(16)
    anomaly[0] = 2.0
    domain = np.zeros(16)
    domain[0] = 3.0 * np.cos(np.deg2rad(45))
    domain[1] = 3.0 * np.sin(np.deg2rad(45))
    return worldsim.WorldConfig(
        dim=16, clips_min=8, clips_max=16, clip_len=16, noise_sigma=1.0,
        anomaly_frac_min=0.3, anomaly_frac_max=0.6, element_effect_scale=0.0,
        anomaly_offset=anomaly, domain_offset=domain,
    )


def module_sweep_spec(seeds) -> evaluation.AblationSpec:
    """Acceptance criterion 7's module ablation over the given ablation seeds."""
    return evaluation.AblationSpec(
        kind="module_ablation",
        seeds=tuple(seeds),
        world=gap_world(),
        train=milcore.TrainConfig(epochs=70, batch_pairs=2, k_rule="frac:0.2"),
        pairs=tuple(promptgen.build_repository(promptgen.default_inventory(), limit=40, seed=7)),
        counts=worldsim.GenerationCounts(16, 16, 36, 36),
        test_counts=(100, 100),
    )


def load_wide_io_reference(path=WIDE_IO_REFERENCE_FILE) -> dict:
    """data seed -> AUC of a wide-io pass, recorded by ``record_reference.py``."""
    rows = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    return {int(seed): float(auc) for seed, auc in (row.split("\t") for row in rows)}


def load_reference(path=REFERENCE_FILE) -> dict:
    """(seed, setting) -> (auc, steps) recorded by ``record_reference.py``."""
    table = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        seed, setting, auc, steps = line.split("\t")
        table[(int(seed), setting)] = (float(auc), int(steps))
    return table


class ModuleSweep:
    """``run_ablation`` on criterion 7's spec: in memory, bound by the Python
    overhead of the training step; the no-I/O workload."""

    name = "module-sweep"

    def setup(self, seed: int, work_dir: Path) -> None:
        self.reference = load_reference()
        self.seeds = (random.Random(f"module-sweep:{seed}").choice(REFERENCE_SEEDS),)
        self.spec = module_sweep_spec(self.seeds)
        self.steps = sum(self.reference[(s, name)][1] for s in self.seeds for name in MODULE_SETTINGS)
        warm = replace(self.spec, seeds=self.seeds[:1], train=replace(self.spec.train, epochs=1))
        evaluation.run_ablation(warm)

    def describe(self) -> str:
        return "ablation_seeds=" + ",".join(map(str, self.seeds))

    def run_pass(self, pass_dir: Path) -> PassResult:
        start = perf_counter()
        rows = evaluation.run_ablation(self.spec)
        seconds = perf_counter() - start
        cells = len(MODULE_SETTINGS) * len(self.seeds)
        return PassResult(seconds, cells, seconds, self.steps, seconds,
                          tuple(r.auc for r in rows), outputs=rows)

    def pass_ops(self) -> list:
        return [f"cell {name} seed={s}" for name in MODULE_SETTINGS for s in self.seeds]

    def check(self, result: PassResult) -> list:
        rows = result.outputs
        expected = [(name, s) for name in MODULE_SETTINGS for s in self.seeds]
        ops = self.pass_ops()
        if len(rows) != len(expected):
            return [(op, False, f"{len(rows)} rows, expected {len(expected)}") for op in ops]
        checks = []
        for op, (name, s), row in zip(ops, expected, rows):
            ref_auc = self.reference[(s, name)][0]
            if (row.setting, row.seed) != (name, s):
                checks.append((op, False, f"row is ({row.setting}, {row.seed})"))
            elif not 0.0 <= row.auc <= 1.0:
                checks.append((op, False, f"auc {row.auc!r} outside [0, 1]"))
            elif abs(row.auc - ref_auc) > AUC_TOLERANCE:
                checks.append((op, False, f"auc {row.auc!r} vs reference {ref_auc!r}"))
            else:
                checks.append((op, True, ""))
        return checks

    def final_checks(self, work_dir: Path) -> list:
        return []


# ---------------------------------------------------------------------------
# readme-pipeline
# ---------------------------------------------------------------------------

README_WORLD = """\
dim=16
clips_min=8
clips_max=16
clip_len=16
noise_sigma=1.0
anomaly_frac_min=0.3
anomaly_frac_max=0.6
element_effect_scale=0.25
normal_center=0
anomaly_offset=2.0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
domain_offset=0,1.0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
"""


class ReadmePipeline:
    """The README's CLI walkthrough through ``cli.main``: every layer once,
    with the GVFT/GVLB/GVPM files on disk."""

    name = "readme-pipeline"

    def __init__(self, limit: int = 300, train_counts=(40, 40, 30, 30), test_counts=(40, 40),
                 epochs: int = 40):
        self.limit = limit
        self.train_counts = tuple(train_counts)
        self.test_counts = tuple(test_counts)
        self.epochs = epochs

    def setup(self, seed: int, work_dir: Path) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.world_cfg = work_dir / "world.cfg"
        self.world_cfg.write_text(README_WORLD, encoding="utf-8")
        self.seeds = _seed_stream("readme-pipeline", seed, 4)
        warm = ReadmePipeline(limit=20, train_counts=(4, 4, 2, 2), test_counts=(4, 4), epochs=1)
        warm.world_cfg, warm.seeds = self.world_cfg, self.seeds
        warm_dir = work_dir / "warm-up"
        warm.run_pass(warm_dir)
        shutil.rmtree(warm_dir)

    def describe(self) -> str:
        return "cli_seeds=" + ",".join(map(str, self.seeds))

    def _commands(self, out: Path) -> list:
        s_prompts, s_train_world, s_test_world, s_train = self.seeds
        prompts = out / "prompts" / "prompts.tsv"
        common = ["--world", str(self.world_cfg), "--prompts", str(prompts)]
        return [
            ["prompts", "--limit", str(self.limit), "--seed", str(s_prompts), "--out", str(out / "prompts")],
            ["world", *common, "--counts", ",".join(map(str, self.train_counts)),
             "--seed", str(s_train_world), "--out", str(out / "train-data")],
            ["world", *common, "--counts", ",".join(map(str, (*self.test_counts, 0, 0))),
             "--seed", str(s_test_world), "--out", str(out / "test-data")],
            ["train", "--manifest", str(out / "train-data" / "manifest.tsv"),
             "--val-manifest", str(out / "test-data" / "manifest.tsv"),
             "--set", f"epochs={self.epochs}", "--set", "batch_pairs=2", "--set", "k_rule=frac:0.2",
             "--seed", str(s_train), "--out", str(out / "model")],
        ]

    def run_pass(self, pass_dir: Path) -> PassResult:
        codes = []
        call_seconds = []
        with redirect_stdout(io.StringIO()):
            for argv in self._commands(pass_dir):
                start = perf_counter()
                codes.append(cli.main(argv))
                call_seconds.append(perf_counter() - start)
            start = perf_counter()
            manifest = pass_dir / "test-data" / "manifest.tsv"
            curve_id = manifest.read_text(encoding="utf-8").splitlines()[1].split("\t")[0]
            codes.append(cli.main([
                "eval", "--params", str(pass_dir / "model" / "params.gvpm"),
                "--manifest", str(manifest), "--curve", curve_id, "--svg", "--out", str(pass_dir / "eval"),
            ]))
            call_seconds.append(perf_counter() - start)
        seconds = sum(call_seconds)
        metrics = (pass_dir / "eval" / "metrics.txt").read_text(encoding="utf-8")
        auc = float(metrics.splitlines()[0].split()[1])
        train_s, eval_s = call_seconds[3], call_seconds[4]
        steps = optimizer_steps(*self.train_counts, self.epochs, 2)
        return PassResult(seconds, 1, train_s + eval_s, steps, train_s, (auc,),
                          outputs=(pass_dir, codes, curve_id, auc))

    def pass_ops(self) -> list:
        return ["cli prompts", "cli world train", "cli world test", "cli train", "cli eval"]

    def check(self, result: PassResult) -> list:
        pass_dir, codes, curve_id, auc = result.outputs
        checks = [(op, code == 0, f"exit {code}") for op, code in zip(self.pass_ops(), codes)]
        missing = [p for p in self._expected_files(pass_dir, curve_id) if not p.is_file()]
        train_n, test_n = sum(self.train_counts), sum(self.test_counts)
        tree_ok = (not missing
                   and len(list((pass_dir / "train-data" / "features").glob("*.gvft"))) == train_n
                   and len(list((pass_dir / "train-data" / "labels").glob("*.gvlb"))) == train_n
                   and len(list((pass_dir / "test-data" / "features").glob("*.gvft"))) == test_n
                   and len(list((pass_dir / "test-data" / "labels").glob("*.gvlb"))) == test_n
                   and len((pass_dir / "model" / "history.csv").read_text().splitlines()) == self.epochs + 1)
        if not tree_ok:
            checks[-1] = ("cli eval", False, f"output tree incomplete; missing {[str(p) for p in missing]}")
            return checks
        manifest = pass_dir / "test-data" / "manifest.tsv"
        params = milcore.load_params(pass_dir / "model" / "params.gvpm")
        samples = datamodel.load_samples(datamodel.load_manifest(manifest), manifest.parent)
        expected = evaluation.evaluate(params, samples).auc
        if auc != expected:
            checks[-1] = ("cli eval", False, f"metrics.txt auc {auc!r} != in-process {expected!r}")
        return checks

    @staticmethod
    def _expected_files(out: Path, curve_id: str) -> list:
        files = [out / "prompts" / "prompts.tsv", out / "prompts" / "resolved.cfg"]
        for data in ("train-data", "test-data"):
            files += [out / data / name for name in ("manifest.tsv", "world.cfg", "resolved.cfg")]
        files += [out / "model" / name for name in ("params.gvpm", "history.csv", "resolved.cfg")]
        files += [out / "eval" / "metrics.txt", out / "eval" / "resolved.cfg",
                  out / "eval" / "curves" / f"{curve_id}.csv", out / "eval" / "curves" / f"{curve_id}.svg"]
        return files

    def final_checks(self, work_dir: Path) -> list:
        return []


# ---------------------------------------------------------------------------
# wide-io
# ---------------------------------------------------------------------------

def wide_world(dim: int, clips_min: int, clips_max: int) -> worldsim.WorldConfig:
    anomaly = np.zeros(dim)
    anomaly[: max(1, dim // 32)] = 0.5
    domain = np.zeros(dim)
    domain[dim // 2] = 1.0
    return worldsim.WorldConfig(
        dim=dim, clips_min=clips_min, clips_max=clips_max, clip_len=16, noise_sigma=1.0,
        anomaly_frac_min=0.3, anomaly_frac_max=0.6, element_effect_scale=0.25,
        anomaly_offset=anomaly, domain_offset=domain,
    )


def _by_class(samples) -> datamodel.MixedDataset:
    return datamodel.MixedDataset(anomalous=tuple(s for s in samples if s.y == 1),
                                  normal=tuple(s for s in samples if s.y == 0))


def _flip_payload_byte(src: Path, dst: Path, offset: int) -> None:
    """Copy ``src`` to ``dst`` with the lowest bit of byte ``offset`` flipped."""
    raw = bytearray(src.read_bytes())
    raw[offset] ^= 0x01
    dst.write_bytes(bytes(raw))


class WideIO:
    """The ROADMAP's realistic shape: 2048-dim features, about 200 clips per
    video, 8 videos (about 13 MB of f32) through write, read, a BLAS-bound
    train, a params round trip and evaluation. Clip counts vary per video
    (ragged bags) but only by +-10%, so every seed does nearly the same work.
    The workload seed picks one of ``REFERENCE_SEEDS`` as the data seed, whose
    AUC ``reference_file`` holds for this shape."""

    name = "wide-io"

    def __init__(self, dim: int = 2048, clips=(180, 220), counts=(2, 2, 2, 2), epochs: int = 40,
                 reference_file=WIDE_IO_REFERENCE_FILE):
        self.dim = dim
        self.clips = tuple(clips)
        self.counts = tuple(counts)
        self.epochs = epochs
        self.reference_file = reference_file

    def setup(self, seed: int, work_dir: Path) -> None:
        data_seed = random.Random(f"wide-io:{seed}").choice(REFERENCE_SEEDS)
        self.reference_auc = load_wide_io_reference(self.reference_file)[data_seed]
        self.prepare(data_seed, work_dir)

    def prepare(self, seed: int, work_dir: Path) -> None:
        """Build the inputs of data seed ``seed`` and run the warm-up."""
        s_prompts, train_seed = _seed_stream("wide-io", seed, 2)
        pairs = tuple(promptgen.build_repository(promptgen.default_inventory(), limit=40, seed=s_prompts))
        self._configure(seed, pairs, train_seed)
        # Warm-up: the file path on short videos, then a train and evaluate on
        # full-size ones in memory. The first train on arrays this large pays
        # one-off allocation costs that the timed passes should not.
        warm = WideIO(self.dim, (8, 16), (1, 1, 1, 1), epochs=1)
        warm._configure(seed, pairs, train_seed)
        warm_dir = work_dir / "warm-up"
        warm.run_pass(warm_dir)
        shutil.rmtree(warm_dir)
        full = worldsim.generate_dataset(self.world, pairs, worldsim.GenerationCounts(1, 1, 1, 1),
                                         base_seed=("perfbench-wide-io-warm-up", seed)).all_samples()
        params = milcore.train(_by_class(full), milcore.TrainConfig(epochs=1, batch_pairs=2, k_rule="frac:0.2")).params
        evaluation.evaluate(params, full)

    def _configure(self, seed: int, pairs: tuple, train_seed: int) -> None:
        self.seed, self.pairs, self.train_seed = seed, pairs, train_seed
        self.world = wide_world(self.dim, *self.clips)

    def describe(self) -> str:
        return f"data_seed={self.seed} dim={self.dim} clips={self.clips[0]}-{self.clips[1]} videos={sum(self.counts)}"

    def run_pass(self, pass_dir: Path) -> PassResult:
        config = milcore.TrainConfig(epochs=self.epochs, batch_pairs=2, k_rule="frac:0.2", seed=self.train_seed)
        t0 = perf_counter()
        sets = worldsim.generate_dataset(self.world, self.pairs, worldsim.GenerationCounts(*self.counts),
                                         base_seed=("perfbench-wide-io", self.seed))
        t1 = perf_counter()
        manifest_path = datamodel.write_dataset(pass_dir, sets.all_samples(), self.dim, self.world.clip_len)
        t2 = perf_counter()
        loaded = datamodel.load_samples(datamodel.load_manifest(manifest_path), pass_dir)
        t3 = perf_counter()
        trained = milcore.train(_by_class(loaded), config)
        t4 = perf_counter()
        milcore.save_params(pass_dir / "params.gvpm", trained.params)
        params = milcore.load_params(pass_dir / "params.gvpm")
        t5 = perf_counter()
        result = evaluation.evaluate(params, loaded)
        t6 = perf_counter()
        steps = optimizer_steps(*self.counts, self.epochs, config.batch_pairs)
        return PassResult(t6 - t0, 1, (t4 - t3) + (t6 - t5), steps, t4 - t3, (result.auc,),
                          outputs=(sets, loaded, trained.params, params, result.auc))

    def pass_ops(self) -> list:
        return ["generate", "write+read bit-equal", "train", "params round trip", "evaluate"]

    def check(self, result: PassResult) -> list:
        sets, loaded, trained, params, auc = result.outputs
        generated = sorted(sets.all_samples(), key=lambda s: s.id)
        loaded = sorted(loaded, key=lambda s: s.id)
        gen_ok = len(generated) == sum(self.counts) and all(s.dim == self.dim for s in generated)
        io_ok = len(loaded) == len(generated) and all(
            a.id == b.id and a.y == b.y and a.y_s == b.y_s
            and _same_arrays(a.features, b.features) and _same_arrays(a.frame_labels, b.frame_labels)
            for a, b in zip(generated, loaded)
        )
        finite = all(np.all(np.isfinite(getattr(trained, k))) for k in ("w1", "b1", "w2", "b2"))
        train_ok = finite and abs(auc - self.reference_auc) <= AUC_TOLERANCE
        params_ok = all(_same_arrays(getattr(trained, k), getattr(params, k)) for k in ("w1", "b1", "w2", "b2"))
        expected = evaluation.evaluate(trained, generated).auc
        eval_ok = 0.0 <= auc <= 1.0 and auc == expected
        return [
            ("generate", gen_ok, f"{len(generated)} videos"),
            ("write+read bit-equal", io_ok, "read-back differs from generated samples"),
            ("train", train_ok, f"finite={finite}, auc {auc!r} vs reference {self.reference_auc!r}"),
            ("params round trip", params_ok, "loaded params differ from trained"),
            ("evaluate", eval_ok, f"auc {auc!r}, in-memory {expected!r}"),
        ]

    def final_checks(self, work_dir: Path) -> list:
        """A single flipped payload bit must make the readers refuse the file."""
        feature = sorted((work_dir / "features").glob("*.gvft"))[0]
        guards = [
            ("checksum guard GVFT", feature, work_dir / "guard.gvft", 16, datamodel.read_features),
            ("checksum guard GVPM", work_dir / "params.gvpm", work_dir / "guard.gvpm",
             -16, milcore.load_params),
        ]
        checks = []
        for op, src, dst, offset, reader in guards:
            # Offset 16 is the low byte of the first f32 after the 16-byte
            # header, -16 the low byte of the last f64 before the 8-byte
            # checksum: a last-bit change, so only the checksum can catch it.
            _flip_payload_byte(src, dst, offset if offset >= 0 else src.stat().st_size + offset)
            try:
                reader(dst)
            except DataFormatError:
                checks.append((op, True, ""))
            else:
                checks.append((op, False, f"{reader.__name__} accepted a corrupted {dst.name}"))
        return checks


WORKLOADS = {w.name: w for w in (ModuleSweep, ReadmePipeline, WideIO)}
