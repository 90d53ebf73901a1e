"""Byte-identical CLI outputs: the corpus of scripts/golden.py must give
the digests recorded in tests/golden.sha256.

A change that means to alter an output updates exactly those digest lines
(`python3 scripts/golden.py > tests/golden.sha256`) and names each one in
CHANGES.md; any other mismatch is a regression.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_matches_recorded_digests():
    golden = _golden()
    want = golden.DIGESTS.read_text(encoding="utf-8").splitlines()
    got = golden.run_corpus()
    assert [line.split("  ", 1)[1] for line in got] == [line.split("  ", 1)[1] for line in want]
    changed = [g.split("  ", 1)[1] for g, w in zip(got, want) if g != w]
    assert not changed, f"outputs differ from {golden.DIGESTS.name}: {changed}"
