import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_repeats():
    # tools/digest.py is the bit-identity check between two commits, so an
    # output must hash the same on every call. No hash is pinned: a change
    # that moves a result on purpose changes it.
    spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    first = digest.DIGESTS["mixed-stack-512"]()
    assert len(first) == 64
    assert digest.DIGESTS["mixed-stack-512"]() == first
