"""Command-line pipeline driver.

Commands: ``prompts`` (description repository), ``world`` (simulated dataset),
``train``, ``eval``, ``ablate``, ``gradcheck``. Every command resolves its
configuration as defaults <- config file <- flags, refuses unknown keys, and
echoes the effective values (with per-key provenance) into ``resolved.cfg``
inside its output directory. Nothing is written outside ``--out``.

Exit codes: 0 success, 1 numeric/assertion failure, 2 input validation,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .datamodel import MixedDataset, load_manifest, load_samples, write_dataset
from .errors import GvvadError, ValidationError
from .evaluation import (
    AblationSpec,
    evaluate,
    export_score_curve,
    rows_to_csv,
    run_ablation,
    summarize_ablation,
    summary_to_csv,
)
from .kvformat import load_kv, parse_bool, parse_float, parse_int, parse_int_list
from .milcore import (
    gradient_check,
    load_params,
    save_history,
    save_params,
    train,
    train_config_from_kv,
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


def resolve_config(defaults: dict, config_path, overrides: dict) -> RunConfig:
    values = dict(defaults)
    sources = {key: "default" for key in defaults}
    if config_path:
        for key, value in load_kv(config_path).items():
            if key not in defaults:
                raise ValidationError(f"{config_path}: unknown config key {key!r}")
            values[key] = value
            sources[key] = "file"
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in defaults:
            raise ValidationError(f"unknown config key {key!r}")
        values[key] = str(value)
        sources[key] = "flag"
    return RunConfig(values, sources)


def _parse_set_flags(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


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
    parts = parse_int_list(value, key)
    if len(parts) != n or any(c < 0 for c in parts):
        raise ValidationError(f"key {key!r}: expected {n} non-negative integers, got {value!r}")
    return parts


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_prompts(args) -> int:
    defaults = {"inventory": "", "limit": "", "seed": "0"}
    config = resolve_config(defaults, args.config, {
        "inventory": args.inventory, "limit": args.limit, "seed": args.seed,
        **_parse_set_flags(args.set),
    })
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
    config = resolve_config(defaults, args.config, {
        "world": args.world, "prompts": args.prompts, "counts": args.counts, "seed": args.seed,
        **_parse_set_flags(args.set),
    })
    for key in ("world", "prompts", "counts"):
        if config.get_optional(key) is None:
            raise ValidationError(f"missing required key {key!r} (flag or config file)")
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


def _train_defaults() -> dict:
    return {
        "manifest": "", "val_manifest": "",
        "lambda": "0.5", "ssls_enabled": "1",
        "k_rule": "div:16", "lr": "0.001",
        "weight_decay": "0.005", "epochs": "20", "batch_pairs": "8",
        "clamp_eps": "1e-07", "hidden": "32", "seed": "0",
    }


def _split_by_class(samples) -> MixedDataset:
    return MixedDataset(
        anomalous=tuple(s for s in samples if s.y == 1),
        normal=tuple(s for s in samples if s.y == 0),
    )


def cmd_train(args) -> int:
    config = resolve_config(_train_defaults(), args.config, {
        "manifest": args.manifest, "val_manifest": args.val_manifest, "seed": args.seed,
        **_parse_set_flags(args.set),
    })
    manifest_value = config.get_optional("manifest")
    if manifest_value is None:
        raise ValidationError("missing required key 'manifest' (flag or config file)")
    train_kv = {k: v for k, v in config.values.items() if k not in ("manifest", "val_manifest")}
    train_config = train_config_from_kv(train_kv)

    manifest_path = Path(manifest_value)
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
    curves_flag = ",".join(args.curve) if args.curve else None
    config = resolve_config(defaults, args.config, {
        "params": args.params, "manifest": args.manifest,
        "curves": curves_flag, "svg": "1" if args.svg else None,
        **_parse_set_flags(args.set),
    })
    for key in ("params", "manifest"):
        if config.get_optional(key) is None:
            raise ValidationError(f"missing required key {key!r} (flag or config file)")
    params = load_params(config.get("params"))
    manifest_path = Path(config.get("manifest"))
    samples = load_samples(load_manifest(manifest_path), manifest_path.parent)
    macro = parse_bool(config.get("macro"), "macro")

    result = evaluate(params, samples, macro=macro)
    out = _out_dir(args)
    metrics = [
        f"auc {result.auc!r}",
        f"auc_protocol {'macro' if macro else 'micro'}",
        f"num_frames {result.num_frames}",
        f"num_videos {len(result.per_video)}",
    ]
    (out / "metrics.txt").write_text("\n".join(metrics) + "\n", encoding="utf-8")
    curves_value = config.get_optional("curves")
    if curves_value is not None:
        curve_dir = out / "curves"
        curve_dir.mkdir(exist_ok=True)
        want_svg = parse_bool(config.get("svg"), "svg")
        for video_id in (v.strip() for v in curves_value.split(",") if v.strip()):
            export_score_curve(
                result, video_id,
                curve_dir / f"{video_id}.csv",
                curve_dir / f"{video_id}.svg" if want_svg else None,
            )
    write_resolved(config, out)
    print(f"auc {result.auc:.6f} over {result.num_frames} frames")
    return EXIT_OK


_ABLATE_TOP_KEYS = ("kind", "grid", "seeds", "counts", "test_counts", "filter_percentile", "prompts")


def ablation_spec_from_file(path) -> AblationSpec:
    path = Path(path)
    values = load_kv(path)
    world_kv, train_kv, top = {}, {}, {}
    for key, value in values.items():
        if key.startswith("world."):
            world_kv[key[len("world."):]] = value
        elif key.startswith("train."):
            train_kv[key[len("train."):]] = value
        elif key in _ABLATE_TOP_KEYS:
            top[key] = value
        else:
            raise ValidationError(f"{path}: unknown ablation key {key!r}")
    for required in ("kind", "seeds", "counts", "prompts"):
        if required not in top:
            raise ValidationError(f"{path}: missing required key {required!r}")
    prompts_path = Path(top["prompts"])
    if not prompts_path.is_absolute():
        prompts_path = path.parent / prompts_path
    counts = _counts_from(top["counts"], "counts", 4)
    test_counts = _counts_from(top.get("test_counts", "40,40"), "test_counts", 2)
    grid = tuple(v.strip() for v in top.get("grid", "").split(",") if v.strip())
    return AblationSpec(
        kind=top["kind"],
        grid=grid,
        seeds=tuple(parse_int_list(top["seeds"], "seeds")),
        world=world_config_from_kv(world_kv, origin=f"{path} [world.*]"),
        train=train_config_from_kv(train_kv, origin=f"{path} [train.*]"),
        pairs=tuple(load_repository(prompts_path)),
        counts=GenerationCounts(*counts),
        test_counts=tuple(test_counts),
        filter_percentile=parse_float(top.get("filter_percentile", "95"), "filter_percentile"),
    )


def cmd_ablate(args) -> int:
    spec_path = Path(args.spec)
    spec = ablation_spec_from_file(spec_path)
    rows = run_ablation(spec)
    out = _out_dir(args)
    (out / "ablation.csv").write_text(rows_to_csv(rows), encoding="utf-8")
    (out / "ablation_summary.csv").write_text(summary_to_csv(summarize_ablation(rows)), encoding="utf-8")
    (out / "spec.cfg").write_text(spec_path.read_text(encoding="utf-8"), encoding="utf-8")
    config = RunConfig({"spec": str(spec_path)}, {"spec": "flag"})
    write_resolved(config, out)
    for summary in summarize_ablation(rows):
        print(f"{summary.setting}: mean_auc={summary.mean_auc:.4f} std={summary.std_auc:.4f} n={summary.n_seeds}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    defaults = {"seed": "0", "batches": "10"}
    config = resolve_config(defaults, args.config, {
        "seed": args.seed, "batches": args.batches, **_parse_set_flags(args.set),
    })
    report = gradient_check(
        seed=parse_int(config.get("seed"), "seed"),
        num_batches=parse_int(config.get("batches"), "batches"),
        corrupt=args.corrupt,
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

def _add_common(sub, with_out: bool = True, out_required: bool = True):
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument("--seed", default=None, help="seed override")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a single config key (repeatable)")
    if with_out:
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
    _add_common(p)
    p.set_defaults(func=cmd_prompts)

    p = subparsers.add_parser("world", help="generate a simulated dataset")
    p.add_argument("--world", default=None, help="world config file")
    p.add_argument("--prompts", default=None, help="description repository file")
    p.add_argument("--counts", default=None, metavar="RA,RN,VA,VN",
                   help="video counts: real-anomalous,real-normal,synth-anomalous,synth-normal")
    _add_common(p)
    p.set_defaults(func=cmd_world)

    p = subparsers.add_parser("train", help="train the clip scorer on a manifest")
    p.add_argument("--manifest", default=None, help="training manifest")
    p.add_argument("--val-manifest", dest="val_manifest", default=None, help="validation manifest")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subparsers.add_parser("eval", help="frame-level evaluation of trained params")
    p.add_argument("--params", default=None, help="params file (.gvpm)")
    p.add_argument("--manifest", default=None, help="test manifest with frame labels")
    p.add_argument("--curve", action="append", default=None, metavar="VIDEO_ID",
                   help="export a score curve for this video (repeatable)")
    p.add_argument("--svg", action="store_true", help="also render curve SVGs")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subparsers.add_parser("ablate", help="run an ablation sweep from a spec file")
    p.add_argument("--spec", required=True, help="ablation spec file")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = subparsers.add_parser("gradcheck", help="compare analytic gradients against finite differences")
    p.add_argument("--batches", default=None, help="number of seeded batches")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)  # negative-control hook
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
    except GvvadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
