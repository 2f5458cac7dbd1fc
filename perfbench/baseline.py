"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json
    python3 perfbench/baseline.py --runs 5 --workloads wide-io

For each workload it runs the command of ``BENCHMARK.json`` once per seed
(1..runs), one run at a time, for ``run_seconds``. Per metric it reports the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median (null when the median is 0); an end-to-end
metric is ``steady`` when that spread is below a third of its bound. Beside
them, under ``raw``, it summarises the same runs' raw timings (before the
host-speed calibration) and ``host_slowdown``, so calibrated and raw spreads
compare. ``--trace`` summarises the per-layer metrics of traced runs instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int, trace: bool):
    """The result object and the raw timings of one run."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    raw = next(json.loads(line[4:]) for line in reversed(lines) if line.startswith("raw "))
    return json.loads(lines[-1]), raw


def summarise(values, bound) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    out = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread is not None and spread < bound / 3
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [run_once(bench["command"], workload, s, bench["run_seconds"], args.trace) for s in seeds]
        results = [result for result, _ in runs]
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"unit": results[0]["metrics"][name]["unit"],
                             **summarise(values, None if args.trace else bounds.get(name))}
        raw = {name: summarise([r[name] for _, r in runs], None) for name in runs[0][1]}
        summary["workloads"][workload] = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
            "raw": raw,
        }
        for name, m in [*metrics.items(), *raw.items()]:
            flag = "" if "steady" not in m else ("  steady" if m["steady"] else "  NOT STEADY")
            spread = "null" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:16s} {name:32s} median={m['median']:.6g} {m.get('unit', '')} "
                  f"spread={spread}{flag}")
        print(f"{workload:16s} correct={summary['workloads'][workload]['all_correct']} "
              f"failed={summary['workloads'][workload]['failed']}/{summary['workloads'][workload]['attempted']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
