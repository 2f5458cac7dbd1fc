"""Record the reference tables that the workloads check their AUCs against.

    python3 perfbench/record_reference.py                # both tables
    python3 perfbench/record_reference.py wide-io        # one of them

``module-sweep`` runs criterion 7's module ablation once per ablation seed in
``workloads.REFERENCE_SEEDS`` under the tracer, and writes
``module_sweep_reference.tsv`` (seed, setting, auc, steps). Steps are the
``adam_step`` calls made inside each cell's ``train`` span.

``wide-io`` runs one wide-io pass per data seed in ``REFERENCE_SEEDS`` at
the benchmark's shape and writes ``wide_io_reference.tsv`` (seed, auc).

Record them again only when a change is meant to move these AUCs, and say so.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

from run import PINNED_THREADS, ROOT, import_program


def record_module_sweep() -> int:
    from gvvad import evaluation

    from tracer import Tracer
    from workloads import MODULE_SETTINGS, REFERENCE_FILE, REFERENCE_SEEDS, module_sweep_spec

    lines = ["seed\tsetting\tauc\tsteps"]
    for seed in REFERENCE_SEEDS:
        tracer = Tracer()
        tracer.install()
        try:
            rows = evaluation.run_ablation(module_sweep_spec((seed,)))
        finally:
            tracer.uninstall()
        trains = [i for i, span in enumerate(tracer.spans) if span[0] == "milcore.train"]
        steps = [sum(1 for span in tracer.spans if span[0] == "numerics.adam_step" and span[3] == i)
                 for i in trains]
        if [r.setting for r in rows] != list(MODULE_SETTINGS) or len(steps) != len(rows):
            print(f"seed {seed}: unexpected rows {[r.setting for r in rows]}", file=sys.stderr)
            return 1
        filt = tracer.counts["milcore.filter_synthetic"]
        print(f"seed {seed}: filter kept {filt['kept']}/{filt['offered']} synthetic videos, "
              + " ".join(f"{r.setting}={r.auc:.4f}" for r in rows))
        lines.extend(f"{seed}\t{r.setting}\t{r.auc!r}\t{n}" for r, n in zip(rows, steps))
    REFERENCE_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def record_wide_io(path: Path, make_workload, work_dir: Path) -> None:
    """Write (seed, auc) of one pass of ``make_workload()`` per reference seed."""
    from workloads import REFERENCE_SEEDS

    lines = ["seed\tauc"]
    try:
        for seed in REFERENCE_SEEDS:
            shutil.rmtree(work_dir, ignore_errors=True)
            workload = make_workload()
            workload.prepare(seed, work_dir)
            auc = workload.run_pass(work_dir / "pass").aucs[0]
            print(f"seed {seed}: auc={auc:.4f}")
            lines.append(f"{seed}\t{auc!r}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    tables = (sys.argv[1:] if argv is None else argv) or ["module-sweep", "wide-io"]
    os.environ.update(PINNED_THREADS)
    import_program()
    from workloads import WIDE_IO_REFERENCE_FILE, WideIO

    for table in tables:
        if table == "module-sweep":
            if record_module_sweep():
                return 1
        elif table == "wide-io":
            record_wide_io(WIDE_IO_REFERENCE_FILE, WideIO, ROOT / ".perfbench_work" / "reference")
            print(f"wrote {WIDE_IO_REFERENCE_FILE}")
        else:
            print(f"unknown table {table!r}; choose module-sweep or wide-io", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
