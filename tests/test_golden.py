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
    found = golden.differences(golden.run_corpus(), golden.DIGESTS.read_text(encoding="utf-8").splitlines())
    assert not found, f"outputs differ from {golden.DIGESTS.name}: {found}"


def test_differences_name_each_kind_of_mismatch():
    golden = _golden()
    want = ["aa  x/stdout", "bb  x/exit", "cc  y/stdout"]
    assert golden.differences(want, want) == []
    assert golden.differences(["aa  x/stdout", "bf  x/exit", "cc  y/stdout"], want) == ["x/exit differs"]
    assert golden.differences(["aa  x/stdout", "cc  y/stdout", "dd  z/exit"], want) == ["x/exit missing", "z/exit extra"]
    assert golden.differences([want[1], want[0], want[2]], want) == ["entries out of order"]
    assert golden.differences(want + want[:1], want) == ["entries out of order"]
