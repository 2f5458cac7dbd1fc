import os
import re
import subprocess
import sys
from pathlib import Path

from gvvad.cli import _ABLATE_KEYS

ROOT = Path(__file__).resolve().parents[1]


def test_library_use_block_runs(tmp_path):
    # The README's "Library use" example, run as written against src/.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert 0.0 <= float(result.stdout) <= 1.0


def test_ablation_spec_keys_exist():
    # Every top-level key of the README's spec example and of its optional
    # list is one that `gvvad ablate` accepts, so a removed key cannot linger.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Ablation sweeps\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```\n(.*?)```", section, re.S).group(1)
    keys = [line.partition("=")[0] for line in example.splitlines() if line and not line.startswith("#")]
    optional = section.split("The other top-level keys are optional:\n", 1)[1].split("\n\n", 1)[0]
    keys += re.findall(r"^\* `([^`]+)`", optional, re.M)
    assert set(_ABLATE_KEYS) <= set(keys)  # the example shows every key
    unknown = [k for k in keys if k not in _ABLATE_KEYS and not k.startswith(("world.", "train."))]
    assert unknown == []
