import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import support
from autopatch import bitstream, circuit, cli, dsl, router, sim
from autopatch.circuit import MAX_TERMS
from autopatch.cli import main
from autopatch.dsl import MAX_NESTING
from autopatch.fabric import MAX_PORTS, MAX_REQUESTS
from autopatch.machine import MAX_LANES, MAX_ROWS, MachineConfig

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
LORENZ = str(PROGRAMS / "lorenz.odedsl")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCompile:
    def test_emit_ir(self, capsys):
        assert main(["compile", LORENZ, "--emit-ir"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("NODE") and "Integrator" in l) == 3
        assert sum(1 for l in lines if l.startswith("NODE") and "Multiplier" in l) == 2
        assert sum(1 for l in lines if l.startswith("EDGE")) == 11
        assert "Summer" not in out

    def test_quiet_success_without_flag(self, capsys):
        assert main(["compile", LORENZ]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_empty_program_fails(self, tmp_path, capsys):
        src = write(tmp_path, "empty.odedsl", "")
        assert main(["compile", src]) == 1
        assert "no states declared" in capsys.readouterr().err

    def test_unknown_variable_reports_position(self, tmp_path, capsys):
        src = write(tmp_path, "bad.odedsl", "fn X(t);\nlet diff[X, t] = X * Q;\nlet X(t: 0) = 0;\n")
        assert main(["compile", src]) == 1
        err = capsys.readouterr().err
        assert "2:22" in err
        assert "Q" in err

    def test_degree_300_product_is_refused_in_one_short_line(self, tmp_path, capsys):
        src = write(tmp_path, "deep.odedsl", "fn X(t); let diff[X, t] = " + " * ".join(["X"] * 300) + "; let X(t: 0) = 0;")
        assert main(["compile", src]) == 1
        err = capsys.readouterr().err
        assert err == "autopatch: error: monomial X^300 has degree 300 > maximum 4\n"
        assert len(err) < 100

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/f.odedsl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_utf8_source_names_the_file(self, tmp_path, capsys):
        src = tmp_path / "bad.odedsl"
        src.write_bytes(b"\xff")
        assert main(["compile", str(src)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"autopatch: error: cannot read {src}: not UTF-8 text"
            " ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"
        ]

    def test_non_utf8_byte_after_byte_order_mark_is_named_at_its_file_offset(self, tmp_path, capsys):
        src = tmp_path / "bad.odedsl"
        src.write_bytes(b"\xef\xbb\xbffn\xff")
        assert main(["compile", str(src)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"autopatch: error: cannot read {src}: not UTF-8 text"
            " ('utf-8' codec can't decode byte 0xff in position 5: invalid start byte)"
        ]


class TestNesting:
    @staticmethod
    def program(expr):
        return f"fn X(t);\nlet diff[X, t] = {expr};\nlet X(t: 0) = 1.0;\nout X(t);\n"

    @pytest.mark.parametrize(
        "expr",
        ["-" + "(" * 5000 + "X" + ")" * 5000, "- " * 5000 + "X", "(" * (MAX_NESTING + 1) + "X" + ")" * (MAX_NESTING + 1)],
        ids=["parentheses", "unary_minus", "one_past_limit"],
    )
    def test_too_deep_is_refused(self, tmp_path, capsys, expr):
        src = write(tmp_path, "deep.odedsl", self.program(expr))
        assert main(["compile", src]) == 1
        err = capsys.readouterr().err
        assert f"at most {MAX_NESTING} nested '(' and unary '-'" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "expr",
        [
            "(" * MAX_NESTING + "X" + ")" * MAX_NESTING,
            "- " * MAX_NESTING + "X",
            "-(" * (MAX_NESTING // 2) + "X" + ")" * (MAX_NESTING // 2),
        ],
        ids=["parentheses", "unary_minus", "mixed"],
    )
    def test_at_limit_runs_every_stage(self, tmp_path, capsys, expr):
        src = write(tmp_path, "deep.odedsl", self.program(expr))
        assert main(["compile", src, "--emit-ir"]) == 0
        assert main(["route", src, "-o", str(tmp_path / "deep.acfg")]) == 0
        assert main(["simulate", src, "--t-end", "0.01", "--reference", "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("max_abs_deviation: 0\n")
        assert captured.err == ""


class TestRoute:
    def test_lorenz_image_and_report(self, tmp_path, capsys):
        out = tmp_path / "lorenz.acfg"
        assert main(["route", LORENZ, "-o", str(out)]) == 0
        assert out.stat().st_size == 197
        stdout = capsys.readouterr().out
        assert "lanes_used: 11" in stdout

    def test_capacity_error_message(self, tmp_path, capsys):
        lines = [f"fn s{i}(t);" for i in range(9)]
        lines += [f"let diff[s{i}, t] = -s{i};" for i in range(9)]
        lines += [f"let s{i}(t: 0) = 0;" for i in range(9)]
        src = write(tmp_path, "nine.odedsl", "\n".join(lines))
        assert main(["route", src, "-o", str(tmp_path / "x.acfg")]) == 1
        assert "integrators: need 9, have 8" in capsys.readouterr().err

    def test_huge_coefficient_clamps(self, tmp_path, capsys):
        # a finite literal whose scaling to a code overflows to inf
        src = write(tmp_path, "huge.odedsl", f"fn X(t);\nlet diff[X, t] = 17{'0' * 307} * X;\nlet X(t: 0) = 0.1;\nout X(t);\n")
        assert main(["route", src, "-o", str(tmp_path / "huge.acfg")]) == 0
        captured = capsys.readouterr()
        assert "lane 0: coefficient 1.7e+308 clamps to code 2047 (9.9951171875)" in captured.out
        assert captured.err == ""

    def test_large_machine_accepts_nine_integrators(self, tmp_path, capsys):
        lines = [f"fn s{i}(t);" for i in range(9)]
        lines += [f"let diff[s{i}, t] = -s{i};" for i in range(9)]
        lines += [f"let s{i}(t: 0) = 0;" for i in range(9)]
        src = write(tmp_path, "nine.odedsl", "\n".join(lines))
        assert main(["route", src, "--machine", "redac", "-o", str(tmp_path / "x.acfg")]) == 0

    def test_emit_config_dump(self, tmp_path, capsys):
        assert main(["route", LORENZ, "-o", str(tmp_path / "l.acfg"), "--emit-config"]) == 0
        assert "LANE 0: row0" in capsys.readouterr().out

    def test_custom_machine(self, tmp_path):
        assert main(["route", LORENZ, "--machine", "custom:i=4,m=2,l=16", "-o", str(tmp_path / "c.acfg")]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.acfg", tmp_path / "b.acfg"
        assert main(["route", LORENZ, "-o", str(a)]) == 0
        assert main(["route", LORENZ, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_source_with_byte_order_mark_routes_as_without(self, tmp_path, capsys):
        bom = tmp_path / "bom.odedsl"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(LORENZ).read_bytes())
        a, b = tmp_path / "a.acfg", tmp_path / "b.acfg"
        assert main(["route", LORENZ, "-o", str(a)]) == 0
        assert main(["route", str(bom), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_csv_outputs(self, tmp_path, capsys):
        assert main(["simulate", LORENZ, "--dt", "1e-3", "--t-end", "1", "--out-dir", str(tmp_path)]) == 0
        out = (tmp_path / "out.csv").read_text().splitlines()
        assert out[0] == "t,X,Y"
        assert len(out) == 1002
        assert (tmp_path / "plot_X_Y.csv").exists()

    def test_plots_that_name_one_file_are_refused(self, tmp_path, capsys, monkeypatch):
        states = ("A_B", "C", "A", "B_C")
        src = write(
            tmp_path,
            "clash.odedsl",
            "".join(f"fn {s}(t);\nlet diff[{s}, t] = -{s};\nlet {s}(t: 0) = 0.5;\n" for s in states)
            + "plot(x: A_B(t), y: C(t));\nplot(x: A(t), y: B_C(t));\n",
        )
        runs = []
        run = sim.run
        monkeypatch.setattr(sim, "run", lambda *args: runs.append(args) or run(*args))
        out_dir = tmp_path / "out"
        # 10^6 steps on each path, were they run
        args = ["simulate", src, "--dt", "1e-3", "--t-end", "1000", "--reference", "--out-dir", str(out_dir)]
        assert main(args) == 1
        assert capsys.readouterr().err == "autopatch: error: plots (A_B, C) and (A, B_C) both write plot_A_B_C.csv\n"
        assert not runs and not out_dir.exists()

    def test_plot_repeated_with_the_same_axes_is_accepted(self, tmp_path):
        src = write(
            tmp_path,
            "twice.odedsl",
            "fn X(t);\nfn Y(t);\nlet diff[X, t] = Y;\nlet diff[Y, t] = -X;\nlet X(t: 0) = 1;\nlet Y(t: 0) = 0;\n"
            "plot(x: X(t), y: Y(t));\nplot(x: X(t), y: Y(t));\n",
        )
        assert main(["simulate", src, "--t-end", "0.01", "--out-dir", str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["out.csv", "plot_X_Y.csv"]
        assert (tmp_path / "out" / "plot_X_Y.csv").read_text().startswith("X,Y\n1,0\n")

    def test_reference_deviation_printed(self, tmp_path, capsys):
        assert (
            main(
                ["simulate", LORENZ, "--t-end", "2", "--reference", "--quantize", "off",
                 "--out-dir", str(tmp_path)]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        line = next(l for l in stdout.splitlines() if l.startswith("max_abs_deviation:"))
        assert float(line.split(":")[1]) <= 1e-9
        assert (tmp_path / "ref_out.csv").exists()

    def test_derivative_with_5000_terms(self, tmp_path, capsys):
        terms = " ".join(["- 0.0002 * X"] * 5000)
        src = write(tmp_path, "long.odedsl", f"fn X(t);\nlet diff[X, t] = {terms};\nlet X(t: 0) = 1.0;\nout X(t);\n")
        image = tmp_path / "long.acfg"
        assert main(["compile", src]) == 0
        assert main(["route", src, "-o", str(image)]) == 0
        assert main(["simulate", src, "--t-end", "1", "--out-dir", str(tmp_path / "sim")]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "sim" / "out.csv").read_text().splitlines()
        assert rows[0] == "t,X"
        assert abs(float(rows[-1].split(",")[1]) - math.exp(-1)) < 2e-3  # the weights sum to -1, quantized

    def test_image_input_single_row(self, tmp_path, capsys):
        image = tmp_path / "l.acfg"
        assert main(["route", LORENZ, "-o", str(image)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "sim"
        assert main(["simulate", str(image), "--t-end", "0", "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "out.csv").read_text().splitlines()
        assert rows[0] == "t,I0,I1,I2"
        assert len(rows) == 2
        assert rows[1].split(",")[0] == "0"

    def test_image_input_with_initial_conditions(self, tmp_path):
        image = tmp_path / "l.acfg"
        main(["route", LORENZ, "-o", str(image)])
        out_dir = tmp_path / "sim"
        assert (
            main(
                ["simulate", str(image), "--t-end", "0", "--ic", "0.1,0,0", "--out-dir", str(out_dir)]
            )
            == 0
        )
        rows = (out_dir / "out.csv").read_text().splitlines()
        assert rows[1] == "0,0.10000000000000001,0,0"

    def test_image_columns_are_in_slot_order_as_ic(self, tmp_path, capsys):
        # 12 used integrators: sorted as strings, I10 and I11 would come before I2
        n, machine = 12, "custom:i=12,m=0,l=16"
        lines = [f"fn s{i}(t);" for i in range(n)]
        lines += [f"let diff[s{i}, t] = -0.5 * s{(i + 1) % n};" for i in range(n)]
        lines += [f"let s{i}(t: 0) = 0;" for i in range(n)]
        src = write(tmp_path, "ring.odedsl", "\n".join(lines) + "\n")
        image = tmp_path / "ring.acfg"
        assert main(["route", src, "--machine", machine, "-o", str(image)]) == 0
        out_dir = tmp_path / "sim"
        ic = ",".join(str(k) for k in range(n))
        argv = ["simulate", str(image), "--machine", machine, "--t-end", "0", "--ic", ic, "--out-dir", str(out_dir)]
        assert main(argv) == 0
        rows = (out_dir / "out.csv").read_text().splitlines()
        assert rows == ["t," + ",".join(f"I{k}" for k in range(n)), "0," + ic]

    def test_image_with_multiplier_loop_is_refused(self, tmp_path, capsys):
        from autopatch.bitstream import encode
        from autopatch.circuit import LoopError, NodeKind, Port
        from autopatch.machine import CoefficientCode, MachineConfig, lucidac_spec
        from autopatch.sim import build_dynamics

        # M0 and M1 feed each other; M2 reads M1 but is on no cycle
        spec = lucidac_spec()
        code = CoefficientCode.highres(100)
        config = support.with_lanes(
            MachineConfig.empty(spec),
            (0, spec.out_row(NodeKind.MULTIPLIER, 0), code, spec.in_row(Port.MUL_A, 1)),
            (1, spec.out_row(NodeKind.MULTIPLIER, 1), code, spec.in_row(Port.MUL_A, 0)),
            (2, spec.out_row(NodeKind.MULTIPLIER, 1), code, spec.in_row(Port.MUL_A, 2)),
        )
        with pytest.raises(LoopError) as err:
            build_dynamics(config)
        assert set(err.value.cycle) == {"M0", "M1"}
        image = tmp_path / "loop.acfg"
        image.write_bytes(encode(config))
        assert main(["simulate", str(image), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["autopatch: error: algebraic loop without an integrator: M0 -> M1 -> M0"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--quantize", "off"], "--quantize off needs DSL input (an image holds only quantized coefficients)"),
            (["--ic", "1,2,x"], "malformed --ic '1,2,x' (expected comma-separated numbers)"),
            (["--ic", "nan,0,0"], "non-finite value in --ic 'nan,0,0' (expected finite numbers)"),
            (["--ic", "0,inf,0"], "non-finite value in --ic '0,inf,0' (expected finite numbers)"),
            (["--ic", "0,0,1e400"], "non-finite value in --ic '0,0,1e400' (expected finite numbers)"),
        ],
        ids=["quantize-off", "ic-not-a-number", "ic-nan", "ic-inf", "ic-1e400"],
    )
    def test_image_input_refuses_flag(self, tmp_path, capsys, flags, message):
        image = tmp_path / "l.acfg"
        assert main(["route", LORENZ, "-o", str(image)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "sim"
        assert main(["simulate", str(image), "--t-end", "0", "--out-dir", str(out_dir)] + flags) == 1
        assert capsys.readouterr().err.splitlines() == [f"autopatch: error: {message}"]
        assert not (out_dir / "out.csv").exists()

    def test_run_past_value_cap_is_refused(self, tmp_path, capsys):
        # 5 * 10^7 steps and the final sample, each of t and the taps X and Y
        started = time.process_time()
        assert main(["simulate", LORENZ, "--t-end", "50000", "--out-dir", str(tmp_path)]) == 1
        assert time.process_time() - started < 1.0
        assert capsys.readouterr().err.splitlines() == [
            f"autopatch: error: run would record 150000003 values, above the cap of {sim.MAX_VALUES}; "
            "raise record_stride (--stride)"
        ]
        assert not (tmp_path / "out.csv").exists()

    def test_refused_reference_run_writes_nothing(self, tmp_path, capsys):
        # routing clamps the gain 50 to 9.995, so the hardware run stays
        # finite while the reference run overflows
        src = write(tmp_path, "fast.odedsl", "fn X(t);\nlet diff[X, t] = 50 * X;\nlet X(t: 0) = 1.0;\nout X(t);\n")
        out_dir = tmp_path / "sim"
        assert main(["simulate", src, "--t-end", "20", "--reference", "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == ["autopatch: error: X became non-finite at t=14.083"]
        assert not out_dir.exists()

    def test_reference_run_records_the_hardware_taps(self, tmp_path, capsys, monkeypatch):
        # 1001 samples of t, X and Y in each trace: the reference trace
        # records no state the hardware trace does not tap
        monkeypatch.setattr(sim, "MAX_VALUES", 3 * 1001)
        out_dir = tmp_path / "sim"
        assert main(["simulate", LORENZ, "--t-end", "1", "--reference", "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().err == ""
        for name in ("out.csv", "ref_out.csv"):
            rows = (out_dir / name).read_text().splitlines()
            assert rows[0] == "t,X,Y"
            assert len(rows) == 1002

    def test_missing_image_names_the_file(self, tmp_path, capsys):
        missing = tmp_path / "x.acfg"
        assert main(["simulate", str(missing), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"autopatch: error: cannot read {missing}: No such file or directory\n"

    def test_ic_rejected_for_source_input(self, capsys, tmp_path):
        assert main(["simulate", LORENZ, "--ic", "1,2,3", "--out-dir", str(tmp_path)]) == 1
        assert ".acfg" in capsys.readouterr().err

    def test_euler_flag(self, tmp_path):
        assert main(["simulate", LORENZ, "--t-end", "0.5", "--method", "euler", "--out-dir", str(tmp_path)]) == 0

    def test_clip_flag(self, tmp_path):
        assert main(["simulate", LORENZ, "--t-end", "0.5", "--clip", "0.3", "--out-dir", str(tmp_path)]) == 0
        assert main(["simulate", LORENZ, "--t-end", "0.5", "--clip", "off", "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("clip", ["inf", "nan"])
    def test_non_finite_clip_is_refused_in_one_line(self, tmp_path, capsys, clip):
        assert main(["simulate", LORENZ, "--clip", clip, "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "autopatch: error: clip threshold must be positive and finite\n"
        assert not (tmp_path / "out").exists()


class TestDiffApply:
    def test_diff_same_image_zero_ops(self, tmp_path, capsys):
        image = tmp_path / "l.acfg"
        main(["route", LORENZ, "-o", str(image)])
        capsys.readouterr()
        delta = tmp_path / "same.acdl"
        assert main(["diff", str(image), str(image), "-o", str(delta)]) == 0
        assert "ops: 0" in capsys.readouterr().out
        assert delta.read_bytes()[:4] == b"ACDL"

    def test_diff_then_apply_reproduces_target(self, tmp_path, capsys):
        base = tmp_path / "empty.acfg"
        target = tmp_path / "lorenz.acfg"
        from autopatch.bitstream import encode
        from autopatch.machine import MachineConfig
        from autopatch.machine import lucidac_spec

        base.write_bytes(encode(MachineConfig.empty(lucidac_spec())))
        main(["route", LORENZ, "-o", str(target)])
        capsys.readouterr()
        delta = tmp_path / "up.acdl"
        assert main(["diff", str(base), str(target), "-o", str(delta)]) == 0
        assert "ops: 33" in capsys.readouterr().out
        result = tmp_path / "patched.acfg"
        assert main(["apply", str(base), str(delta), "-o", str(result)]) == 0
        assert result.read_bytes() == target.read_bytes()

    def test_diff_of_a_missing_image_names_the_file(self, tmp_path, capsys):
        image, missing = tmp_path / "l.acfg", tmp_path / "x.acfg"
        assert main(["route", LORENZ, "-o", str(image)]) == 0
        capsys.readouterr()
        assert main(["diff", str(image), str(missing), "-o", str(tmp_path / "d.acdl")]) == 1
        assert capsys.readouterr().err == f"autopatch: error: cannot read {missing}: No such file or directory\n"

    def test_apply_of_a_missing_delta_names_the_file(self, tmp_path, capsys):
        image, missing = tmp_path / "l.acfg", tmp_path / "x.acdl"
        assert main(["route", LORENZ, "-o", str(image)]) == 0
        capsys.readouterr()
        assert main(["apply", str(image), str(missing), "-o", str(tmp_path / "out.acfg")]) == 1
        assert capsys.readouterr().err == f"autopatch: error: cannot read {missing}: No such file or directory\n"

    def test_apply_invalid_delta_fails(self, tmp_path, capsys):
        base = tmp_path / "empty.acfg"
        from autopatch.bitstream import DeltaOp, DeltaScript, OpCode, encode, encode_delta
        from autopatch.machine import MachineConfig, lucidac_spec

        base.write_bytes(encode(MachineConfig.empty(lucidac_spec())))
        bad = tmp_path / "bad.acdl"
        bad.write_bytes(encode_delta(DeltaScript((DeltaOp(OpCode.SET_U_SOURCE, 0, 3),))))
        assert main(["apply", str(base), str(bad), "-o", str(tmp_path / "out.acfg")]) == 1
        assert "dangling" in capsys.readouterr().err


# Compiles a program in a child process that may not map more than 1 GiB, so
# a runaway expansion fails there, and prints the exit code and the peak
# resident size of the child's own image, interpreter included, in bytes.
# That is VmHWM, which Linux reports in kB: ru_maxrss would carry the peak of
# the test process across fork and exec, and tracemalloc, which counts only
# Python allocations, slows the refusal more than tenfold.
_COMPILE_CHILD = """
import re, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from autopatch.cli import main
status = main(["compile", sys.argv[1]])
with open("/proc/self/status") as f:
    print(status, int(re.search(r"^VmHWM:\\s+(\\d+) kB$", f.read(), re.M)[1]) * 1024)
"""


# Compiles a program in a child process and prints the exit code and the CPU
# seconds the compile took, which another tenant of a shared host inflates
# less than wall time.
_TIMED_COMPILE_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from autopatch.cli import main
started = time.process_time()
status = main(["compile", sys.argv[1]])
print(status, time.process_time() - started)
"""


class TestWriteFailures:
    """A file or directory that cannot be written is named in one line with
    the system's reason, as an unreadable input is, and the command exits 1."""

    def assert_cannot_write(self, capsys, path, reason):
        captured = capsys.readouterr()
        assert captured.err == f"autopatch: error: cannot write {path}: {reason}\n"
        assert captured.out == ""

    def test_route(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.acfg"
        assert main(["route", LORENZ, "-o", str(out)]) == 1
        self.assert_cannot_write(capsys, out, "No such file or directory")

    def test_diff(self, tmp_path, capsys):
        image, out = tmp_path / "l.acfg", tmp_path / "no-such-dir" / "d.acdl"
        assert main(["route", LORENZ, "-o", str(image)]) == 0
        capsys.readouterr()
        assert main(["diff", str(image), str(image), "-o", str(out)]) == 1
        self.assert_cannot_write(capsys, out, "No such file or directory")

    def test_apply(self, tmp_path, capsys):
        image, delta = tmp_path / "l.acfg", tmp_path / "d.acdl"
        assert main(["route", LORENZ, "-o", str(image)]) == 0
        assert main(["diff", str(image), str(image), "-o", str(delta)]) == 0
        capsys.readouterr()
        assert main(["apply", str(image), str(delta), "-o", str(tmp_path)]) == 1
        self.assert_cannot_write(capsys, tmp_path, "Is a directory")

    def test_simulate_out_dir_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "x"
        assert main(["simulate", LORENZ, "--t-end", "0.01", "--out-dir", str(out_dir)]) == 1
        self.assert_cannot_write(capsys, out_dir, "Not a directory")

    def test_simulate_image_out_dir_under_a_file(self, tmp_path, capsys):
        image = tmp_path / "l.acfg"
        assert main(["route", LORENZ, "-o", str(image)]) == 0
        capsys.readouterr()
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "x"
        assert main(["simulate", str(image), "--t-end", "0.01", "--out-dir", str(out_dir)]) == 1
        self.assert_cannot_write(capsys, out_dir, "Not a directory")

    @pytest.mark.parametrize("blocked", ["out.csv", "plot_X_Y.csv", "ref_out.csv"])
    def test_simulate_names_the_csv_that_failed(self, tmp_path, capsys, blocked):
        (tmp_path / blocked).mkdir()
        argv = ["simulate", LORENZ, "--t-end", "0.01", "--reference", "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        # the deviation is printed only once every file is written
        self.assert_cannot_write(capsys, tmp_path / blocked, "Is a directory")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv", [["route", LORENZ, "-o", "{tmp}/l.acfg"], ["fabric", "--spec", "simstar", "--count"]], ids=["route", "fabric"]
    )
    def test_stdout_whose_reader_has_gone(self, tmp_path, argv, buffered):
        """...ends the command with one line and exit code 1, and nothing
        more at exit, whether stdout buffers its writes or not."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "autopatch.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "autopatch: error: cannot write stdout: Broken pipe\n")


class TestExpansionBound:
    def test_bound_is_the_lane_limit(self):
        assert MAX_TERMS == MAX_LANES

    def test_power_of_one_variable_is_refused_quickly(self, tmp_path):
        # k copies of (1 + X) keep only k + 1 monomials, of degree up to k; a
        # product costs time in the distinct variables, not in the degree, so
        # the binomial weights overflow and are refused in O(k^2) work
        k = 1200
        program = "fn X(t);\nlet diff[X, t] = " + " * ".join(["(1 + X)"] * k) + ";\nlet X(t: 0) = 0.5;\n"
        src = write(tmp_path, "binomial.odedsl", program)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _TIMED_COMPILE_CHILD, src], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "autopatch: error: constant folding overflowed for monomial X^339\n"
        status, seconds = proc.stdout.split()
        assert int(status) == 1
        assert float(seconds) < 2.0

    @pytest.mark.parametrize("k", [12, 20])
    def test_power_of_a_sum_is_refused(self, tmp_path, k):
        # k copies of a ten-variable sum: 293,930 monomials of degree 12 at k = 12
        names = "ABCDEFGHIJ"
        lines = [f"fn {n}(t);" for n in names]
        lines.append("let diff[A, t] = " + " * ".join(["(" + " + ".join(names) + ")"] * k) + ";")
        lines += [f"let diff[{n}, t] = -{n};" for n in names[1:]]
        lines += [f"let {n}(t: 0) = 0;" for n in names]
        src = write(tmp_path, "power.odedsl", "\n".join(lines) + "\nout A(t);\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _COMPILE_CHILD, src], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"autopatch: error: derivative of A expands to more than {MAX_TERMS} monomials\n"
        status, peak = map(int, proc.stdout.split())
        assert status == 1
        assert peak < 64 << 20


class TestMachineSizeBound:
    def test_diff_and_apply_at_lane_limit(self, tmp_path, capsys):
        from autopatch.bitstream import encode
        from autopatch.machine import CoefficientCode, MachineConfig, MachineSpec

        machine = f"custom:i=1,m=0,l={MAX_LANES}"
        empty = MachineConfig.empty(MachineSpec(1, 0, MAX_LANES))
        wired = support.with_lanes(empty, (MAX_LANES - 1, 0, CoefficientCode.lowres(1), 0))
        old, new = tmp_path / "old.acfg", tmp_path / "new.acfg"
        old.write_bytes(encode(empty))
        new.write_bytes(encode(wired))
        delta, patched = tmp_path / "d.acdl", tmp_path / "patched.acfg"
        assert main(["diff", str(old), str(new), "-o", str(delta), "--machine", machine]) == 0
        assert capsys.readouterr().out == "ops: 3\n"
        assert main(["apply", str(old), str(delta), "-o", str(patched), "--machine", machine]) == 0
        assert patched.read_bytes() == new.read_bytes()

    def test_route_at_row_limit(self, tmp_path, capsys):
        decay = write(tmp_path, "decay.odedsl", "fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1.0;\nout X(t);\n")
        machine = f"custom:i={MAX_ROWS - 1},m=0,l=8"
        assert main(["route", decay, "--machine", machine, "-o", str(tmp_path / "a.acfg")]) == 0
        assert "lanes_used: 1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "machine",
        [f"custom:i=1,m=0,l={MAX_LANES + 1}", "custom:i=1,m=0,l=70000", f"custom:i={MAX_ROWS},m=0,l=8",
         f"custom:i=1,m={MAX_ROWS // 2},l=8", "custom:i=1,m=0,l=1000000000"],
    )
    def test_past_limit_is_refused(self, tmp_path, capsys, machine):
        image = tmp_path / "a.acfg"
        image.write_bytes(b"ACFG\x01")
        assert main(["diff", str(image), str(image), "-o", str(tmp_path / "d.acdl"), "--machine", machine]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceed the format limit" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "d.acdl").exists()


class TestFabric:
    def test_production_switch_count(self, capsys):
        assert main(["fabric", "--spec", "simstar", "--count"]) == 0
        assert capsys.readouterr().out == "30464\n"

    def test_crossbar_switch_count(self, capsys):
        assert main(["fabric", "--spec", "crossbar:320x512", "--count"]) == 0
        assert capsys.readouterr().out == "163840\n"

    def test_custom_fabric_count(self, capsys):
        assert main(["fabric", "--spec", "custom:20x16x20,20x20x32,32x22x16", "--count"]) == 0
        assert capsys.readouterr().out == "30464\n"

    def test_experiment_report(self, capsys):
        assert main(["fabric", "--spec", "simstar", "--experiment", "--load", "50", "--trials", "5", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("blocked_fraction: ")
        assert lines[1].startswith("mean_routed: ")

    def test_experiment_requires_load(self, capsys):
        assert main(["fabric", "--spec", "simstar", "--experiment"]) == 1
        assert "--load" in capsys.readouterr().err

    def test_unknown_spec(self, capsys):
        assert main(["fabric", "--spec", "what", "--count"]) == 1
        assert "unknown fabric spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("custom:1x2", "expected custom:BxNxM,BxNxM,BxNxM"),
            ("custom:1x2x3,1x2x3", "expected custom:BxNxM,BxNxM,BxNxM"),
            ("crossbar:5", "expected crossbar:<n>x<m>"),
            ("crossbar:5xq", "expected crossbar:<n>x<m>"),
        ],
    )
    def test_malformed_spec(self, capsys, spec, expected):
        assert main(["fabric", "--spec", spec, "--count"]) == 1
        err = capsys.readouterr().err
        assert expected in err
        assert len(err.splitlines()) == 1

    def test_count_with_experiment_is_refused(self, capsys):
        assert main(["fabric", "--spec", "simstar", "--count", "--experiment", "--load", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--count and --experiment" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_fabric_past_size_bound_is_refused(self, capsys):
        spec = f"custom:1x1x1,1x1x1,1x1x{MAX_PORTS + 1}"
        assert main(["fabric", "--spec", spec, "--experiment", "--load", "1", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at most {MAX_PORTS}" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_experiment_past_request_bound_is_refused(self, capsys):
        trials = 100_000_000_000
        assert main(["fabric", "--spec", "simstar", "--experiment", "--load", "1", "--trials", str(trials)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"autopatch: error: {trials} trials at load 1 issue {trials} requests; at most {MAX_REQUESTS} are run\n"
        )

    def test_count_stays_unbounded(self, capsys):
        assert main(["fabric", "--spec", "custom:1x1x1,1x1x1,1x1x1000000000", "--count"]) == 0
        assert capsys.readouterr().out == "1000000002\n"


class TestMachineSpec:
    @pytest.mark.parametrize("spec", ["custom:foo", "custom:i=1,m=2", "custom:i=1,m=2,l=x", "custom:"])
    def test_malformed_custom_machine(self, tmp_path, capsys, spec):
        assert main(["route", LORENZ, "--machine", spec, "-o", str(tmp_path / "a.acfg")]) == 1
        err = capsys.readouterr().err
        assert "expected custom:i=<n>,m=<n>,l=<n>" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "spec, problem",
        [("custom:i=1,m=0,l=2,x=7", "unknown field 'x'"), ("custom:i=1,m=0,l=2,l=3", "repeated field 'l'")],
    )
    def test_unknown_or_repeated_custom_field(self, tmp_path, capsys, spec, problem):
        decay = write(tmp_path, "decay.odedsl", "fn X(t);\nlet diff[X, t] = -X;\nlet X(t: 0) = 1.0;\nout X(t);\n")
        assert main(["route", decay, "--machine", spec, "-o", str(tmp_path / "a.acfg")]) == 1
        err = capsys.readouterr().err
        assert problem in err
        assert "expected custom:i=<n>,m=<n>,l=<n>" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "a.acfg").exists()


class TestMisc:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "autopatch 0.1.0" in out
        assert "bitstream format v1" in out

    def test_unknown_flag_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compile", LORENZ, "--what-is-this"])
        assert exit_info.value.code != 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", LORENZ, "--dt", "x"], "argument --dt: invalid float value: 'x'"),
            (["simulate", LORENZ, "--clip", "abc"],
             "argument --clip: invalid value 'abc' (expected a number or 'off')"),
            (["compile", LORENZ, "--what-is-this"], "unrecognized arguments: --what-is-this"),
            (["route", LORENZ], "the following arguments are required: -o/--output"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad_float", "bad_clip", "unknown_flag", "missing_output", "missing_subcommand"],
    )
    def test_argument_error_is_one_line_with_exit_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"autopatch: error: {message}\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["route", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: autopatch route")

    def test_diagnostics_go_to_stderr_only(self, tmp_path, capsys):
        src = write(tmp_path, "bad.odedsl", "fn X(t);")
        assert main(["compile", src]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""


class TestDiagnosticRule:
    """Every pipeline error a command raises is one line on stderr and exit
    code 1; any other exception propagates."""

    @pytest.mark.parametrize(
        "exc",
        [
            dsl.SourceError("unexpected character", 2, 5),
            circuit.DegreeError(("X", "X", "X"), 2),
            circuit.LoopError(["M0", "M1", "M0"]),
            router.CapacityError("integrators", 9, 8),
            bitstream.FormatError(12, "truncated"),
            bitstream.SpecMismatchError("image is for another machine"),
            bitstream.RangeError("lane 70 outside [0, 32)"),
            bitstream.ValidationError(["lane 3: dangling source"]),
            sim.UnroutedTapError("X has no integrator"),
            sim.NonFiniteError(0.5, "I0"),
            ValueError("bad value"),
            OSError("cannot read x"),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_pipeline_error_is_one_line(self, monkeypatch, capsys, exc):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_fabric", fail)
        assert main(["fabric", "--spec", "simstar", "--count"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"autopatch: error: {exc}\n"

    def test_other_errors_propagate(self, monkeypatch):
        def fail(args):
            raise KeyError("lane")

        monkeypatch.setattr(cli, "_cmd_fabric", fail)
        with pytest.raises(KeyError):
            main(["fabric", "--spec", "simstar", "--count"])


# Imports autopatch, runs each command of the JSON list in argv[1] through
# cli.main, asserts that no module named in the JSON list in argv[2] was
# loaded, and prints the autopatch submodules then loaded as its last line.
_FOOTPRINT_CHILD = """
import json, sys
import autopatch
for argv in json.loads(sys.argv[1]):
    from autopatch.cli import main
    assert main(argv) == 0, argv
for name in json.loads(sys.argv[2]):
    assert name not in sys.modules, f"{name} was loaded"
print(*sorted(name for name in sys.modules if name.startswith("autopatch.")))
"""


def loaded_submodules(*commands, unloaded=()):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_CHILD, json.dumps(commands), json.dumps(unloaded)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestImportFootprint:
    """Each command loads only the layers it runs."""

    def test_package_import_loads_no_submodule(self):
        assert loaded_submodules() == set()

    def test_fabric_loads_only_the_fabric_model(self):
        """...and no `dataclasses`, nor the `inspect` it imports."""
        loaded = loaded_submodules(["fabric", "--spec", "simstar", "--count"], unloaded=["dataclasses", "inspect"])
        assert loaded == {"autopatch.cli", "autopatch.fabric"}

    def test_diff_and_apply_load_only_the_image_layers(self, tmp_path, lorenz_design):
        old, new = tmp_path / "old.acfg", tmp_path / "new.acfg"
        old.write_bytes(bitstream.encode(MachineConfig.empty(lorenz_design.config.spec)))
        new.write_bytes(bitstream.encode(lorenz_design.config))
        delta, out = str(tmp_path / "d.acdl"), str(tmp_path / "out.acfg")
        loaded = loaded_submodules(["diff", str(old), str(new), "-o", delta], ["apply", str(old), delta, "-o", out])
        assert loaded == {"autopatch.cli", "autopatch.bitstream", "autopatch.machine"}
        assert Path(out).read_bytes() == new.read_bytes()

    def test_simulate_of_an_image_skips_the_compiler(self, tmp_path, lorenz_design):
        image = tmp_path / "lorenz.acfg"
        image.write_bytes(bitstream.encode(lorenz_design.config))
        loaded = loaded_submodules(["simulate", str(image), "--t-end", "0.01", "--out-dir", str(tmp_path)])
        assert loaded == {"autopatch.cli", "autopatch.bitstream", "autopatch.machine", "autopatch.sim"}
        assert (tmp_path / "out.csv").read_text().startswith("t,I0,I1,I2\n")
