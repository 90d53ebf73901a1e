#!/usr/bin/env python3
"""Golden outputs: run a fixed corpus of CLI commands and print digests.

Each command runs in process through `autopatch.cli.main`, inside one
scratch directory that holds copies of the example programs, the
500-state program of tests/support.py, a program whose lucidac route
overflows the low-res lanes and clamps coefficients, a program whose
state becomes non-finite, an image cut short, a product of degree 300,
a program with a state that has no derivative, Lorenz with one
coefficient changed, a script with an unknown opcode, a program laid out
with CRLF line ends, tabs and comments (one at the end of the file with
no newline), a program whose lex error follows tabs, a ring of twelve
states, and a program with two undeclared names in one derivative; one
command writes into a directory that does not exist.  For every command
the script prints one sha256 per output file it wrote or changed, and one
each for its stdout, stderr and exit code, as
`<hex digest>  <command>/<what>`.

Usage: python3 scripts/golden.py          # print the digests
       python3 scripts/golden.py --check  # compare with tests/golden.sha256

Only the standard library is used, and autopatch is imported from this
checkout's src/, so the script runs as is under any supported CPython.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden.sha256"

#: (name, argv) in run order; later commands read the images earlier ones wrote.
CORPUS = (
    ("compile-lorenz", ["compile", "lorenz.odedsl", "--emit-ir"]),
    ("route-lorenz", ["route", "lorenz.odedsl", "-o", "lorenz.acfg", "--emit-config"]),
    ("simulate-lorenz-reference", ["simulate", "lorenz.odedsl", "--reference", "--out-dir", "reference"]),
    ("simulate-lorenz-clip", ["simulate", "lorenz.odedsl", "--clip", "0.3", "--stride", "7", "--out-dir", "clip"]),
    ("simulate-lorenz-image", ["simulate", "lorenz.acfg", "--ic", "0.2,-0.1,0.05", "--out-dir", "image"]),
    ("route-s500", ["route", "s500.odedsl", "--machine", "redac", "-o", "s500.acfg"]),
    ("simulate-s500", ["simulate", "s500.odedsl", "--machine", "redac", "--dt", "0.01", "--t-end", "1",
                       "--out-dir", "s500"]),
    ("route-decay", ["route", "decay.odedsl", "-o", "decay.acfg"]),
    ("diff", ["diff", "lorenz.acfg", "decay.acfg", "-o", "lorenz-decay.acdl"]),
    ("apply", ["apply", "lorenz.acfg", "lorenz-decay.acdl", "-o", "applied.acfg"]),
    ("fabric-simstar", ["fabric", "--spec", "simstar", "--experiment", "--load", "320", "--trials", "1000",
                        "--seed", "42"]),
    ("route-decay-custom", ["route", "decay.odedsl", "--machine", "custom:i=3,m=1,l=8", "-o", "custom.acfg"]),
    ("custom-too-many-lanes", ["route", "decay.odedsl", "--machine", "custom:i=-1,m=0,l=100000", "-o", "x.acfg"]),
    ("custom-too-many-rows", ["route", "decay.odedsl", "--machine", "custom:i=70000,m=-1,l=8", "-o", "x.acfg"]),
    ("route-clamp", ["route", "clamp.odedsl", "-o", "clamp.acfg", "--emit-config"]),
    ("simulate-lorenz-refclip", ["simulate", "lorenz.odedsl", "--reference", "--clip", "0.3", "--out-dir", "refclip"]),
    ("simulate-blowup", ["simulate", "blowup.odedsl", "--t-end", "1", "--out-dir", "blowup"]),
    ("simulate-lorenz-euler", ["simulate", "lorenz.odedsl", "--method", "euler", "--stride", "3", "--t-end", "1.0005",
                               "--out-dir", "euler"]),
    ("version", ["--version"]),
    ("fabric-count", ["fabric", "--spec", "simstar", "--count"]),
    ("diff-short-image", ["diff", "short.acfg", "decay.acfg", "-o", "short.acdl"]),
    ("compile-degree-300", ["compile", "deep.odedsl"]),
    ("compile-missing-derivative", ["compile", "missing.odedsl"]),
    ("route-lorenz-edit", ["route", "lorenz-edit.odedsl", "-o", "lorenz-edit.acfg"]),
    ("diff-lorenz-edit", ["diff", "lorenz.acfg", "lorenz-edit.acfg", "-o", "lorenz-edit.acdl"]),
    ("apply-lorenz-edit", ["apply", "lorenz.acfg", "lorenz-edit.acdl", "-o", "lorenz-edit-applied.acfg"]),
    ("apply-bad-opcode", ["apply", "lorenz.acfg", "bad-opcode.acdl", "-o", "x.acfg"]),
    ("compile-layout", ["compile", "layout.odedsl", "--emit-ir"]),
    ("route-layout", ["route", "layout.odedsl", "-o", "layout.acfg", "--emit-config"]),
    ("compile-lex-error-after-tabs", ["compile", "tabs.odedsl"]),
    # 2 * 4096 + 1 whole steps and a landing step: `sim.run` moves its samples
    # into the trace arrays every 4096 steps, so this crosses two block edges
    ("simulate-decay-blocks", ["simulate", "decay.odedsl", "--method", "euler", "--stride", "3", "--t-end",
                               "8.1935", "--out-dir", "blocks"]),
    ("simulate-decay-blocks-reference", ["simulate", "decay.odedsl", "--method", "euler", "--stride", "3",
                                         "--t-end", "8.1935", "--reference", "--out-dir", "blocks-reference"]),
    # the reference of a system with more states than `sim._SCALAR_STATES`,
    # whose generated step keeps its states in lists, clamped
    ("simulate-s500-reference", ["simulate", "s500.odedsl", "--machine", "redac", "--dt", "0.01", "--t-end", "0.2",
                                 "--clip", "1.0", "--reference", "--out-dir", "s500-reference"]),
    # an image with twelve used integrators: its columns are in slot order,
    # as --ic takes its values, so I10 and I11 come after I9
    ("route-ring-custom", ["route", "ring.odedsl", "--machine", "custom:i=12,m=0,l=16", "-o", "ring.acfg"]),
    ("simulate-ring-image", ["simulate", "ring.acfg", "--machine", "custom:i=12,m=0,l=16", "--t-end", "0.01",
                             "--ic", ",".join(str(k) for k in range(12)), "--out-dir", "ring"]),
    # the 500-state circuit dump: every node and edge `build_circuit` makes
    ("compile-s500", ["compile", "s500.odedsl", "--emit-ir"]),
    # two undeclared names in one derivative: the first one in the source is named
    ("compile-undeclared", ["compile", "undeclared.odedsl"]),
    # an output path whose directory does not exist: named in a one-line diagnostic
    ("route-unwritable", ["route", "decay.odedsl", "-o", "no-such-dir/x.acfg"]),
)

#: one state that grows without bound, so `simulate` aborts when it becomes non-finite
BLOWUP = "fn X(t);\nlet diff[X, t] = 5 * X * X;\nlet X(t: 0) = 0.9;\nout X(t);\n"

#: an image cut after its magic and version byte, which `diff` refuses by its length
SHORT_IMAGE = b"ACFG\x01"

#: a product of degree 300, refused by the degree check in one line
DEEP = "fn X(t);\nlet diff[X, t] = " + " * ".join(["X"] * 300) + ";\nlet X(t: 0) = 0.5;\n"

#: a script whose single record has opcode 9, which `apply` refuses at offset 9
BAD_OPCODE = b"ACDL\x01\x01\x00\x00\x00\x09\x00\x00\x00\x00"

#: a second state with no derivative, declared at line 5, column 3
MISSING = "fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1;\n\n  fn Y(t); let Y(t: 0) = 0;\n"

#: an oscillator with CRLF line ends, tabs, end-of-line comments and a final
#: comment with no newline; written as bytes, so the CRLFs reach the file
LAYOUT = (
    "# a damped oscillator\r\n"
    "fn\tX(t);\tfn Y(t);  # two states\r\n"
    "let diff[X,\tt]\t=\tY;\r\n"
    "\tlet diff[Y, t] = -0.25 * X - 0.1 * Y;\t# spring and damper\r\n"
    "\r\n"
    "let X(t: 0) = 0.5;\tlet Y(t: 0) = 0;\r\n"
    "plot(x: X(t), y: Y(t));\r\n"
    "out X(t);\t\t# end-of-line comment\r\n"
    "# a comment at the end of the file"
)

#: twelve states in a ring, each driven by the next
RING = "".join(
    [f"fn s{i}(t);\n" for i in range(12)]
    + [f"let diff[s{i}, t] = -0.5 * s{(i + 1) % 12};\n" for i in range(12)]
    + [f"let s{i}(t: 0) = 0;\n" for i in range(12)]
)

#: a lex error on a line that starts with two tabs: `$` is at line 2, column 20
TABS = "fn X(t);\n\t\tlet diff[X, t] = $X;\nlet X(t: 0) = 1;\n"

#: a derivative that uses two undeclared states: `A` at line 3, column 18 is the one reported
UNDECLARED = "fn X(t);\nlet X(t: 0) = 1;\nlet diff[X, t] = A * B - X;\n"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(top: Path) -> dict[str, str]:
    return {path.relative_to(top).as_posix(): _sha(path.read_bytes()) for path in top.rglob("*") if path.is_file()}


def _large_program() -> str:
    location = ROOT / "tests" / "support.py"
    spec = importlib.util.spec_from_file_location("golden_support", location)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.synthetic_large_program(500)


def _clamp_program() -> str:
    """Eight states on lucidac with nine exact `10 *` terms, one more than
    the eight low-res lanes hold, and a `28 *` term that clamps."""
    lines = [f"fn s{i}(t);" for i in range(8)]
    lines.append("let diff[s0, t] = 10 * s1 + 10 * s2 + 28 * s0 - 0.3 * s3;")
    lines += [f"let diff[s{i}, t] = 10 * s{(i + 1) % 8};" for i in range(1, 8)]
    lines += [f"let s{i}(t: 0) = 0.1;" for i in range(8)]
    lines.append("out s0(t);")
    return "\n".join(lines) + "\n"


def run_corpus() -> list[str]:
    """Run every command of CORPUS and return its digest lines."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from autopatch import cli

    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("lorenz.odedsl", "decay.odedsl"):
            shutil.copy(ROOT / "programs" / name, work / name)
        (work / "s500.odedsl").write_text(_large_program(), encoding="utf-8")
        (work / "clamp.odedsl").write_text(_clamp_program(), encoding="utf-8")
        (work / "blowup.odedsl").write_text(BLOWUP, encoding="utf-8")
        (work / "short.acfg").write_bytes(SHORT_IMAGE)
        (work / "deep.odedsl").write_text(DEEP, encoding="utf-8")
        (work / "missing.odedsl").write_text(MISSING, encoding="utf-8")
        # the smallest program switch: one coefficient of Lorenz changed
        lorenz = (work / "lorenz.odedsl").read_text(encoding="utf-8")
        (work / "lorenz-edit.odedsl").write_text(lorenz.replace("1.8 * Y", "1.7 * Y"), encoding="utf-8")
        (work / "bad-opcode.acdl").write_bytes(BAD_OPCODE)
        (work / "layout.odedsl").write_bytes(LAYOUT.encode())
        (work / "tabs.odedsl").write_text(TABS, encoding="utf-8")
        (work / "ring.odedsl").write_text(RING, encoding="utf-8")
        (work / "undeclared.odedsl").write_text(UNDECLARED, encoding="utf-8")
        os.chdir(work)
        try:
            for name, argv in CORPUS:
                before = _files(work)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                after = _files(work)
                for path in sorted(after):
                    if before.get(path) != after[path]:
                        lines.append(f"{after[path]}  {name}/{path}")
                for what, data in (("stdout", out.getvalue()), ("stderr", err.getvalue()), ("exit", str(code))):
                    lines.append(f"{_sha(data.encode())}  {name}/{what}")
        finally:
            os.chdir(cwd)
    return lines


def main(argv: list[str]) -> int:
    if argv[1:] not in ([], ["--check"]):
        print("usage: python3 scripts/golden.py [--check]", file=sys.stderr)
        return 2
    lines = run_corpus()
    if argv[1:]:
        want = DIGESTS.read_text(encoding="utf-8").splitlines()
        if lines == want:
            print(f"golden: {len(lines)} digests match {DIGESTS.name}")
            return 0
        got_names = {line.split("  ", 1)[1]: line for line in lines}
        want_names = {line.split("  ", 1)[1]: line for line in want}
        for key in sorted(got_names.keys() | want_names.keys()):
            if got_names.get(key) != want_names.get(key):
                print(f"golden: {key} differs", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
