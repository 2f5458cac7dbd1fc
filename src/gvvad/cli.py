"""Command-line pipeline driver.

Commands: ``prompts`` (description repository), ``world`` (simulated dataset),
``train``, ``eval``, ``ablate``, ``gradcheck``. Every command but ``ablate``
resolves its configuration as defaults <- ``--config`` file <- its own flags
<- ``--set`` in :func:`resolve_config`: each of its own flags stores under
the config key it sets (its argparse ``dest``), so a flag and ``--set KEY=``
name the same key and ``--set`` wins. It refuses unknown keys, checks every
value before writing anything, and echoes the effective values (with
per-key provenance) into ``resolved.cfg`` inside its output directory.
``ablate`` takes only ``--spec`` and ``--out``: the spec file is its whole
configuration, copied to ``spec.cfg``. Nothing is written outside ``--out``.

Exit codes: 0 success, 1 a failed ``gradcheck``, 2 input validation,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .datamodel import MixedDataset, load_manifest, load_samples, write_dataset
from .errors import ValidationError
from .evaluation import (
    AblationSpec,
    evaluate,
    export_score_curve,
    rows_to_csv,
    run_ablation,
    summarize_ablation,
    summary_to_csv,
)
from .kvformat import load_kv, parse_bool, parse_int, parse_list, parse_str, read_fields
from .milcore import (
    TrainConfig,
    gradient_check,
    load_params,
    save_history,
    save_params,
    train,
    train_config_from_kv,
    train_config_to_kv,
)
from .promptgen import build_repository, default_inventory, export_repository, load_inventory, load_repository
from .worldsim import (
    GenerationCounts,
    generate_dataset,
    load_world_config,
    save_world_config,
    world_config_from_kv,
)

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


@dataclass
class RunConfig:
    """Merged key=value configuration with per-key provenance."""

    values: dict
    sources: dict

    def get(self, key: str) -> str:
        return self.values[key]

    def get_optional(self, key: str):
        value = self.values[key]
        return value if value != "" else None


def resolve_config(args, defaults: dict, required=()) -> RunConfig:
    """Merge defaults <- ``--config`` file <- command flags <- ``--set``.

    A command flag is one whose argparse ``dest`` is a key of ``defaults``;
    a repeated flag's values join with commas, as a list is written in a file.
    """
    flags = {key: getattr(args, key, None) for key in defaults}
    flags = {key: ",".join(v) if isinstance(v, list) else v for key, v in flags.items() if v is not None}
    for item in args.set or ():
        key, eq, value = item.partition("=")
        if not eq:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        flags[key.strip()] = value.strip()
    values = dict(defaults)
    sources = dict.fromkeys(defaults, "default")
    file_kv = load_kv(args.config) if args.config else {}
    for source, kv, origin in (("file", file_kv, f"{args.config}: "), ("flag", flags, "")):
        for key, value in kv.items():
            if key not in defaults:
                raise ValidationError(f"{origin}unknown config key {key!r}")
            values[key] = value
            sources[key] = source
    for key in required:
        if values[key] == "":
            raise ValidationError(f"missing required key {key!r} (flag or config file)")
    return RunConfig(values, sources)


def write_resolved(config: RunConfig, out_dir) -> None:
    lines = ["# resolved configuration (defaults <- config file <- flags)"]
    lines.extend(f"# {key} <- {config.sources[key]}" for key in config.values)
    lines.extend(f"{key}={value}" for key, value in config.values.items())
    (Path(out_dir) / "resolved.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _counts_from(value: str, key: str, n: int) -> list:
    parts = parse_list(value, key, parse_int)
    if len(parts) != n or any(c < 0 for c in parts):
        raise ValidationError(f"key {key!r}: expected {n} non-negative integers, got {value!r}")
    return parts


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_prompts(args) -> int:
    defaults = {"inventory": "", "limit": "", "seed": "0"}
    config = resolve_config(args, defaults)
    inventory_path = config.get_optional("inventory")
    inventory = load_inventory(inventory_path) if inventory_path else default_inventory()
    limit_raw = config.get_optional("limit")
    limit = parse_int(limit_raw, "limit") if limit_raw is not None else None
    seed = parse_int(config.get("seed"), "seed")

    pairs = build_repository(inventory, limit=limit, seed=seed)
    out = _out_dir(args)
    export_repository(pairs, out / "prompts.tsv")
    write_resolved(config, out)
    print(f"wrote {len(pairs)} description pairs to {out / 'prompts.tsv'}")
    return EXIT_OK


def cmd_world(args) -> int:
    defaults = {"world": "", "prompts": "", "counts": "", "seed": "0"}
    config = resolve_config(args, defaults, required=("world", "prompts", "counts"))
    world = load_world_config(config.get("world"))
    pairs = load_repository(config.get("prompts"))
    ra, rn, va, vn = _counts_from(config.get("counts"), "counts", 4)
    counts = GenerationCounts(ra, rn, va, vn)
    seed = parse_int(config.get("seed"), "seed")

    sets = generate_dataset(world, pairs, counts, base_seed=seed)
    out = _out_dir(args)
    manifest_path = write_dataset(out, sets.all_samples(), world.dim, world.clip_len)
    save_world_config(world, out / "world.cfg")
    write_resolved(config, out)
    print(f"wrote {counts.total} videos to {manifest_path}")
    return EXIT_OK


def _split_by_class(samples) -> MixedDataset:
    return MixedDataset(
        anomalous=tuple(s for s in samples if s.y == 1),
        normal=tuple(s for s in samples if s.y == 0),
    )


def cmd_train(args) -> int:
    defaults = {"manifest": "", "val_manifest": "", **train_config_to_kv(TrainConfig())}
    config = resolve_config(args, defaults, required=("manifest",))
    train_kv = {k: v for k, v in config.values.items() if k not in ("manifest", "val_manifest")}
    train_config = train_config_from_kv(train_kv)

    manifest_path = Path(config.get("manifest"))
    manifest = load_manifest(manifest_path)
    dataset = _split_by_class(load_samples(manifest, manifest_path.parent))
    val_samples = None
    val_value = config.get_optional("val_manifest")
    if val_value is not None:
        val_path = Path(val_value)
        val_samples = load_samples(load_manifest(val_path), val_path.parent)

    result = train(dataset, train_config, val_samples=val_samples)
    out = _out_dir(args)
    save_params(out / "params.gvpm", result.params)
    save_history(result.history, out / "history.csv")
    write_resolved(config, out)
    final = result.history[-1]
    val_part = "" if final.val_auc is None else f" val_auc={final.val_auc:.4f}"
    print(f"trained {train_config.epochs} epochs, final loss {final.total_loss:.4f}{val_part}")
    print(f"wrote {out / 'params.gvpm'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    defaults = {"params": "", "manifest": "", "macro": "0", "curves": "", "svg": "0"}
    config = resolve_config(args, defaults, required=("params", "manifest"))
    params = load_params(config.get("params"))
    manifest_path = Path(config.get("manifest"))
    samples = load_samples(load_manifest(manifest_path), manifest_path.parent)
    macro = parse_bool(config.get("macro"), "macro")
    curve_ids = parse_list(config.get("curves"), "curves")
    want_svg = parse_bool(config.get("svg"), "svg")
    known = {s.id for s in samples}
    for video_id in curve_ids:
        if video_id not in known:
            raise ValidationError(f"unknown video id {video_id!r}")

    result = evaluate(params, samples, macro=macro)
    out = _out_dir(args)
    metrics = [
        f"auc {result.auc!r}",
        f"auc_protocol {'macro' if macro else 'micro'}",
        f"num_frames {result.num_frames}",
        f"num_videos {len(result.per_video)}",
    ]
    (out / "metrics.txt").write_text("\n".join(metrics) + "\n", encoding="utf-8")
    if curve_ids:
        curve_dir = out / "curves"
        curve_dir.mkdir(exist_ok=True)
        for video_id in curve_ids:
            export_score_curve(
                result, video_id,
                curve_dir / f"{video_id}.csv",
                curve_dir / f"{video_id}.svg" if want_svg else None,
            )
    write_resolved(config, out)
    print(f"auc {result.auc:.6f} over {result.num_frames} frames")
    return EXIT_OK


# Top-level spec keys; ``prompts`` stays a path until the spec's directory is known.
_ABLATE_KEYS = {
    "kind": ("kind", parse_str),
    "grid": ("grid", lambda value, key: tuple(parse_list(value, key))),
    "seeds": ("seeds", lambda value, key: tuple(parse_list(value, key, parse_int))),
    "counts": ("counts", lambda value, key: GenerationCounts(*_counts_from(value, key, 4))),
    "test_counts": ("test_counts", lambda value, key: tuple(_counts_from(value, key, 2))),
    "prompts": ("pairs", parse_str),
}


def ablation_spec_from_file(path) -> AblationSpec:
    """Spec from a kv file; the keys it leaves out take AblationSpec's defaults."""
    path = Path(path)
    world_kv, train_kv, top = {}, {}, {}
    for key, value in load_kv(path).items():
        if key.startswith("world."):
            world_kv[key[len("world."):]] = value
        elif key.startswith("train."):
            train_kv[key[len("train."):]] = value
        else:
            top[key] = value
    kwargs = read_fields(top, _ABLATE_KEYS, str(path), "ablation")
    for required in ("kind", "seeds", "counts", "prompts"):
        if required not in top:
            raise ValidationError(f"{path}: missing required key {required!r}")
    # a relative prompts path is relative to the spec file; an absolute one replaces it
    kwargs["pairs"] = tuple(load_repository(path.parent / kwargs["pairs"]))
    return AblationSpec(
        **kwargs,
        world=world_config_from_kv(world_kv, origin=f"{path} [world.*]"),
        train=train_config_from_kv(train_kv, origin=f"{path} [train.*]"),
    )


def cmd_ablate(args) -> int:
    spec_path = Path(args.spec)
    spec = ablation_spec_from_file(spec_path)
    rows = run_ablation(spec)
    out = _out_dir(args)
    (out / "ablation.csv").write_text(rows_to_csv(rows), encoding="utf-8")
    summaries = summarize_ablation(rows)
    (out / "ablation_summary.csv").write_text(summary_to_csv(summaries), encoding="utf-8")
    (out / "spec.cfg").write_text(spec_path.read_text(encoding="utf-8"), encoding="utf-8")
    config = RunConfig({"spec": str(spec_path)}, {"spec": "flag"})
    write_resolved(config, out)
    for summary in summaries:
        print(f"{summary.setting}: mean_auc={summary.mean_auc:.4f} std={summary.std_auc:.4f} n={summary.n_seeds}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    defaults = {"seed": "0", "batches": "10"}
    config = resolve_config(args, defaults)
    report = gradient_check(
        seed=parse_int(config.get("seed"), "seed"),
        num_batches=parse_int(config.get("batches"), "batches"),
    )
    text = report.format()
    print(text, end="")
    if args.out:
        out = _out_dir(args)
        (out / "report.txt").write_text(text, encoding="utf-8")
        write_resolved(config, out)
    return EXIT_OK if report.passed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, out_required: bool = True):
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a single config key (repeatable)")
    sub.add_argument("--out", required=out_required, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvvad",
        description="Anomaly-detection training pipeline over simulated feature sequences",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("prompts", help="compile a description repository")
    p.add_argument("--inventory", default=None, help="element inventory file (built-in when omitted)")
    p.add_argument("--limit", default=None, help="sample this many pairs instead of the full product")
    p.add_argument("--seed", default=None, help="seed override")
    _add_common(p)
    p.set_defaults(func=cmd_prompts)

    p = subparsers.add_parser("world", help="generate a simulated dataset")
    p.add_argument("--world", default=None, help="world config file")
    p.add_argument("--prompts", default=None, help="description repository file")
    p.add_argument("--counts", default=None, metavar="RA,RN,VA,VN",
                   help="video counts: real-anomalous,real-normal,synth-anomalous,synth-normal")
    p.add_argument("--seed", default=None, help="seed override")
    _add_common(p)
    p.set_defaults(func=cmd_world)

    p = subparsers.add_parser("train", help="train the clip scorer on a manifest")
    p.add_argument("--manifest", default=None, help="training manifest")
    p.add_argument("--val-manifest", dest="val_manifest", default=None, help="validation manifest")
    p.add_argument("--seed", default=None, help="seed override")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subparsers.add_parser("eval", help="frame-level evaluation of trained params")
    p.add_argument("--params", default=None, help="params file (.gvpm)")
    p.add_argument("--manifest", default=None, help="test manifest with frame labels")
    p.add_argument("--curve", dest="curves", action="append", default=None, metavar="VIDEO_ID",
                   help="export a score curve for this video (repeatable)")
    p.add_argument("--svg", action="store_const", const="1", default=None, help="also render curve SVGs")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subparsers.add_parser("ablate", help="run an ablation sweep from a spec file")
    p.add_argument("--spec", required=True, help="ablation spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ablate)

    p = subparsers.add_parser("gradcheck", help="compare analytic gradients against finite differences")
    p.add_argument("--batches", default=None, help="number of seeded batches")
    p.add_argument("--seed", default=None, help="seed override")
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
