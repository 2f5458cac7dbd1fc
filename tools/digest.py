"""Print one ``name sha256`` line per pinned output of the program.

    python3 tools/digest.py            # every output
    python3 tools/digest.py NAME ...   # only these

A change meant to move no result prints the same lines as its parent:
diffing this command's output at the two commits is the whole bit-identity
check. The outputs are criterion 7's module ablation (rows, and every
cell's weights and history) at ablation seeds 0, 5 and 13; a five-lambda
sweep on the same world at seed 3; a wide-io pass (2048 dims, about 200
clips a video) with its weights and AUC; a 512-dim two-run stack of mixed
float32/float64 features at ``batch_pairs=8``; the raw clip scores of
``PreparedTestSet.clip_scores`` for criterion 7 seed 0's five cells, and
for three scorers on a 2048-dim test set scored chunk by chunk, in float32
and float64; and the README's CLI walkthrough, every file of its output
tree with the work directory written as ``<work>``. The program is
imported from ``src/`` next to this directory, and
``perfbench/workloads.py`` is read for the benchmark's shapes. It runs in
5-7 s on a 2-core x86 host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread, as the benchmark runs, set before numpy loads OpenBLAS.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gvvad import cli, evaluation, milcore, promptgen, worldsim  # noqa: E402


def _results(h, results) -> None:
    """Feed each TrainResult's weights (as their flat float64 vector) and
    history CSV into ``h``."""
    for result in results:
        h.update(milcore.params_to_vector(result.params).tobytes())
        h.update(milcore.history_to_csv(result.history).encode("utf-8"))


def _ablation(spec) -> str:
    """Rows of ``spec`` and the weights and histories of each seed's cells."""
    h = hashlib.sha256(evaluation.rows_to_csv(evaluation.run_ablation(spec)).encode("utf-8"))
    for seed in spec.seeds:
        pool = worldsim.generate_dataset(spec.world, spec.pairs, spec.counts, base_seed=("ablate-pool", seed))
        _results(h, milcore.train_runs(evaluation._seed_runs(spec, pool, seed)))
    return h.hexdigest()


def criterion7(seed: int) -> str:
    return _ablation(workloads.module_sweep_spec((seed,)))


def lambda_sweep() -> str:
    spec = workloads.module_sweep_spec((3,))
    return _ablation(replace(spec, kind="lambda_sweep", grid=evaluation.LAMBDA_GRID_DEFAULT))


def wide_io() -> str:
    wide = workloads.WideIO()
    with tempfile.TemporaryDirectory() as work:
        wide.prepare(3, Path(work))
        result = wide.run_pass(Path(work) / "pass")
    _, _, trained, _, auc = result.outputs
    h = hashlib.sha256(milcore.params_to_vector(trained).tobytes())
    h.update(repr(auc).encode("utf-8"))
    return h.hexdigest()


def mixed_stack() -> str:
    """Two runs in one stack on 512-dim features, every other one float64."""
    pairs = promptgen.build_repository(promptgen.default_inventory(), limit=40, seed=7)
    sets = worldsim.generate_dataset(workloads.wide_world(512, 8, 16), pairs, worldsim.GenerationCounts(8, 8, 8, 8),
                                     base_seed=("digest", 512))
    samples = [replace(s, features=s.features.astype(np.float64)) if i % 2 else s
               for i, s in enumerate(sets.all_samples())]
    dataset = workloads._by_class(samples)
    config = milcore.TrainConfig(epochs=6, batch_pairs=8, k_rule="frac:0.2")
    h = hashlib.sha256()
    _results(h, milcore.train_runs([(dataset, replace(config, lam=0.5, seed=1)),
                                    (dataset, replace(config, lam=2.0, seed=2))]))
    return h.hexdigest()


def raw_test_scores() -> str:
    """Raw test-set clip scores, which the AUCs above see only by rank."""
    spec = workloads.module_sweep_spec((0,))
    pool = worldsim.generate_dataset(spec.world, spec.pairs, spec.counts, base_seed=("ablate-pool", 0))
    cells = [result.params for result in milcore.train_runs(evaluation._seed_runs(spec, pool, 0))]
    test = worldsim.generate_dataset(spec.world, spec.pairs, worldsim.GenerationCounts(*spec.test_counts, 0, 0),
                                     base_seed=("ablate-test", 0))
    h = hashlib.sha256(evaluation.PreparedTestSet(test.all_samples(), spec.world.dim).clip_scores(cells).tobytes())
    # About 200 clips a video at 2048 dims: one bag a chunk, and no one-piece copy.
    pairs = promptgen.build_repository(promptgen.default_inventory(), limit=40, seed=7)
    wide = worldsim.generate_dataset(workloads.wide_world(2048, 180, 220), pairs, worldsim.GenerationCounts(2, 2, 0, 0),
                                     base_seed=("digest", "test-scores")).all_samples()
    scorers = [milcore.ScorerParams.init(2048, 32, np.random.default_rng(seed)) for seed in range(3)]
    for dtype in (np.float32, np.float64):
        samples = [replace(s, features=s.features.astype(dtype)) for s in wide]
        h.update(evaluation.PreparedTestSet(samples, 2048).clip_scores(scorers).tobytes())
    return h.hexdigest()


def readme_walkthrough() -> str:
    """The README's CLI walkthrough, steps 1-4, as written there."""
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        world = Path(work) / "world.cfg"
        world.write_text(workloads.README_WORLD, encoding="utf-8")
        common = ["--world", str(world), "--prompts", str(out / "prompts" / "prompts.tsv")]
        commands = [
            ["prompts", "--limit", "300", "--seed", "1", "--out", str(out / "prompts")],
            ["world", *common, "--counts", "40,40,30,30", "--seed", "2", "--out", str(out / "train-data")],
            ["world", *common, "--counts", "40,40,0,0", "--seed", "3", "--out", str(out / "test-data")],
            ["train", "--manifest", str(out / "train-data" / "manifest.tsv"),
             "--val-manifest", str(out / "test-data" / "manifest.tsv"),
             "--set", "epochs=40", "--set", "batch_pairs=2", "--set", "k_rule=frac:0.2",
             "--seed", "4", "--out", str(out / "model")],
            ["eval", "--params", str(out / "model" / "params.gvpm"),
             "--manifest", str(out / "test-data" / "manifest.tsv"),
             "--curve", "ra-00000-p00000", "--svg", "--out", str(out / "eval")],
        ]
        h = hashlib.sha256()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                code = cli.main(argv)
                if code:
                    raise RuntimeError(f"gvvad {argv[0]} exited {code}")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out)).encode("utf-8") + b"\0")
            h.update(path.read_bytes().replace(work.encode("utf-8"), b"<work>") + b"\0")
    return h.hexdigest()


DIGESTS = {
    **{f"criterion7-seed{seed}": (lambda seed=seed: criterion7(seed)) for seed in (0, 5, 13)},
    "lambda-sweep-seed3": lambda_sweep,
    "wide-io-seed3": wide_io,
    "mixed-stack-512": mixed_stack,
    "test-scores": raw_test_scores,
    "readme-walkthrough": readme_walkthrough,
}


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else list(argv)
    unknown = [name for name in names if name not in DIGESTS]
    if unknown:
        print(f"unknown digest {unknown[0]!r}; known: {', '.join(DIGESTS)}", file=sys.stderr)
        return 2
    for name in names or DIGESTS:
        print(name, DIGESTS[name](), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
