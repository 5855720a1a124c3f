"""End-to-end command line coverage through main(argv): exit codes, output
formats, stdin handling, and the files a command writes."""

import ast
import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import groupcut
from groupcut import FiniteGroupFunction, PwlTorusFunction, gmi, gom, identity_fn, md2, tilde_fn
from groupcut import (
    cli,
    experiments,
    finite_functions,
    group_core,
    polytope,
    torus,
)
from groupcut.cli import main


@pytest.fixture
def gom54_path(tmp_path):
    path = tmp_path / "gom54.json"
    path.write_text(gom(5, 4).to_json())
    return str(path)


@pytest.fixture
def gmi_half_path(tmp_path):
    path = tmp_path / "gmi_half.json"
    path.write_text(gmi(F(1, 2)).to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_minimal_finite_function(self, capsys, gom54_path):
        code, out, _err = run(capsys, "check", gom54_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_minimal"] is True
        assert payload["violations"] == []

    def test_rhs_override_breaks_symmetry(self, capsys, gom54_path):
        code, out, _err = run(capsys, "check", gom54_path, "--b", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_minimal"] is False
        assert payload["violations"][0]["kind"] == "symmetry"

    def test_text_format(self, capsys, gom54_path):
        code, out, _err = run(capsys, "check", gom54_path, "--format", "text")
        assert code == 0
        assert "is_minimal: True" in out

    def test_circle_function(self, capsys, gmi_half_path):
        code, out, _err = run(capsys, "check", gmi_half_path)
        assert code == 0
        assert json.loads(out)["is_minimal"] is True

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(md2(5, 4).to_json()))
        code, out, _err = run(capsys, "check", "-")
        assert code == 0
        assert json.loads(out)["is_minimal"] is True

    def test_bad_json_exits_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _out, err = run(capsys, "check", str(path))
        assert code == 3
        assert "bad JSON" in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_json_exits_3(self, capsys, monkeypatch, tmp_path, source):
        text = "[" * 100000
        if source == "file":
            path = tmp_path / "deep.json"
            path.write_text(text)
            arg = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            arg = "-"
        code, out, err = run(capsys, "check", arg)
        assert code == 3 and out == ""
        assert "error:" in err and "Traceback" not in err

    def test_missing_file_exits_3(self, capsys):
        code, _out, err = run(capsys, "check", "/nonexistent/fn.json")
        assert code == 3
        assert "error" in err

    def test_wrong_shape_exits_3(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"q": 5}')
        code, _out, err = run(capsys, "check", str(path))
        assert code == 3

    def test_huge_order_refused_by_the_cap(self, capsys, monkeypatch, tmp_path):
        """The cap comes before the value count and before any trial
        division, so an over-cap file with too few values gets the cap's
        refusal."""

        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        monkeypatch.setattr(group_core, "is_prime", refuse)
        path = tmp_path / "huge.json"
        path.write_text('{"q": 10000000000000061, "b": 1, "values": ["0", "1"]}')
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (3, "")
        assert err == "error: q=10000000000000061 exceeds the pair-scan cap 10007\n"

    @pytest.mark.parametrize(
        "values", ["[0, 0.25, 0.5, 0.75, 1]", "[0, true, true, true, true]"]
    )
    def test_inexact_values_exit_3(self, capsys, tmp_path, values):
        path = tmp_path / "inexact.json"
        path.write_text('{"q": 5, "b": 4, "values": %s}' % values)
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert out == ""
        assert "expected an exact rational" in err

    @pytest.mark.parametrize(
        "order_and_rhs", ['"q": 5.9, "b": 4.2', '"q": "5", "b": 4', '"q": 5, "b": true']
    )
    def test_inexact_order_or_rhs_exit_3(self, capsys, tmp_path, order_and_rhs):
        path = tmp_path / "inexact.json"
        path.write_text('{%s, "values": [0, 1, 2, 3, 4]}' % order_and_rhs)
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert out == ""
        assert "expected an integer" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"q": 5, "b": 4, "values": "01234"}',
            '{"b": null, "mode": "wrap", "breakpoints": "0",'
            ' "pieces": [{"slope": "1", "intercept": "0"}],'
            ' "limits": [{"left": "1", "at": "0", "right": "0"}]}',
            '{"b": null, "mode": "wrap", "breakpoints": ["0"],'
            ' "pieces": {"slope": "1", "intercept": "0"},'
            ' "limits": [{"left": "1", "at": "0", "right": "0"}]}',
            '{"b": null, "mode": "wrap", "breakpoints": ["0"],'
            ' "pieces": [{"slope": "1", "intercept": "0"}], "limits": "0"}',
        ],
        ids=["values", "breakpoints", "pieces", "limits"],
    )
    def test_non_list_fields_exit_3(self, capsys, tmp_path, text):
        path = tmp_path / "not_a_list.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert out == ""
        assert "expected a list" in err

    @pytest.mark.parametrize("field", ["pieces", "limits"])
    def test_non_object_entry_exits_3(self, capsys, tmp_path, field):
        data = gmi(F(1, 2)).to_dict()
        data[field][0] = list(data[field][0].values())
        path = tmp_path / "flat_entry.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 3 and out == ""
        assert "expected a JSON object, got list" in err

    def test_wrong_limit_at_dropped_breakpoint_exits_3(self, capsys, tmp_path):
        # gmi(1/2) with a redundant breakpoint at 1/4, where the ramp 2x is
        # 1/2 on both sides; the stored left limit 1/5 is wrong
        data = gmi(F(1, 2)).to_dict()
        data["breakpoints"].insert(1, "1/4")
        data["pieces"].insert(1, data["pieces"][0])
        data["limits"].insert(1, {"left": "1/5", "at": "1/2", "right": "1/2"})
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert out == ""
        assert "disagree" in err
        data["limits"][1]["left"] = "1/2"
        path.write_text(json.dumps(data))
        assert run(capsys, "check", str(path))[0] == 0

    def test_rhs_override_rejected_for_circle_input(self, capsys, gmi_half_path):
        code, out, err = run(capsys, "check", gmi_half_path, "--b", "2")
        assert (code, out) == (3, "")
        assert "finite" in err


class TestRearrange:
    def test_finite_function_sorted(self, capsys, tmp_path):
        vertex = (0, F(2, 3), F(1, 2), F(1, 3), 1)
        path = tmp_path / "v.json"
        from groupcut import FiniteGroupFunction

        path.write_text(FiniteGroupFunction.from_values(5, 4, vertex).to_json())
        code, out, _err = run(capsys, "rearrange", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == ["0", "1/3", "1/2", "2/3", "1"]

    def test_circle_function_sorted(self, capsys, gmi_half_path):
        code, out, _err = run(capsys, "rearrange", gmi_half_path)
        assert code == 0
        assert PwlTorusFunction.from_json(out) == identity_fn()

    def test_tilde_flag(self, capsys, gmi_half_path):
        code, out, _err = run(capsys, "rearrange", gmi_half_path, "--tilde")
        assert code == 0
        from groupcut import PwlTorusFunction

        assert PwlTorusFunction.from_dict(json.loads(out)) == identity_fn()

    def test_tilde_rejected_for_finite_input(self, capsys, gom54_path):
        code, _out, err = run(capsys, "rearrange", gom54_path, "--tilde")
        assert code == 3
        assert "circle" in err


class TestOptimize:
    def test_json_report(self, capsys):
        code, out, _err = run(capsys, "optimize", "--primes", "5", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert [row["q"] for row in payload["rows"]] == [5, 7]
        assert payload["rows"][0]["min_product"] == "3/32"

    def test_csv_format(self, capsys):
        code, out, _err = run(
            capsys, "optimize", "--primes", "5", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["q", "b", "status"]
        assert rows[1][:3] == ["5", "4", "OK"]

    def test_cap_exceeded_exits_3(self, capsys):
        code, _out, err = run(capsys, "optimize", "--primes", "37")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("order", ["29", "31"])
    def test_default_cap_refuses_before_enumerating(self, capsys, monkeypatch, order):
        def refuse(q, b):
            raise AssertionError(f"enumeration started at q={q}")

        monkeypatch.setattr(polytope, "build_polytope", refuse)
        code, out, err = run(capsys, "optimize", "--primes", "5", order)
        assert code == 3 and out == ""
        assert f"q={order} exceeds the enumeration cap 23" in err

    def test_composite_order_refused_before_enumerating(self, capsys, monkeypatch):
        def refuse(q, b):
            raise AssertionError(f"enumeration started at q={q}")

        monkeypatch.setattr(polytope, "build_polytope", refuse)
        code, out, err = run(capsys, "optimize", "--primes", "5", "9")
        assert code == 3 and out == ""
        assert "q=9 is not prime" in err

    def test_huge_order_refused_by_the_cap_before_the_primality_test(
        self, capsys, monkeypatch
    ):
        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        monkeypatch.setattr(group_core, "is_prime", refuse)
        code, out, err = run(capsys, "optimize", "--primes", "10000000000000061")
        assert code == 3 and out == ""
        assert "q=10000000000000061 exceeds the enumeration cap 23" in err

    @pytest.mark.parametrize("policy", [[], ["--b-policy", "all"]])
    def test_fixed_b_without_fixed_policy_exits_3(self, capsys, policy):
        argv = ["optimize", "--primes", "5", "--fixed-b", "3", *policy]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "fixed_b" in err


def _bad_value_argv(tmp_path, case, text):
    """argv reading the rational `text` as a finite value, a circle slope, a
    tableau row's rhs or a riemann profile's gmi rhs."""
    if case == "riemann":
        return ["experiment", "riemann", "--q", "11", "--h", f"gmi:{text}"]
    finite = tmp_path / "finite.json"
    values = ["0", text, "1/2", "3/4", "1"]
    finite.write_text(json.dumps({"q": 5, "b": 4, "values": values}))
    if case == "finite":
        return ["check", str(finite)]
    if case == "circle":
        data = gmi(F(1, 2)).to_dict()
        data["pieces"][0]["slope"] = text
        circle = tmp_path / "circle.json"
        circle.write_text(json.dumps(data))
        return ["check", str(circle)]
    row = tmp_path / "row.json"
    row.write_text(json.dumps({"rhs": text, "columns": []}))
    return ["cutgen", "--row", str(row), "--function", str(finite)]


@pytest.mark.parametrize("case", ["finite", "circle", "cutgen", "riemann"])
def test_zero_denominator_exits_3(capsys, tmp_path, case):
    code, out, err = run(capsys, *_bad_value_argv(tmp_path, case, "1/0"))
    assert code == 3 and out == ""
    assert "zero denominator in '1/0'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["finite", "circle", "cutgen", "riemann"])
def test_exponent_notation_exits_3_before_parsing(capsys, monkeypatch, tmp_path, case):
    # Fraction("1e-3000000") would build 10^3000000 for minutes, unbounded by
    # the digit limit: a string with an exponent must not reach the parser
    new = F.__new__

    def spy(cls, numerator=0, *args, **kwargs):
        if isinstance(numerator, str) and "e" in numerator.lower():
            raise AssertionError(f"Fraction parsed {numerator!r}")
        return new(cls, numerator, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", spy)
    code, out, err = run(capsys, *_bad_value_argv(tmp_path, case, "1e-3000000"))
    assert code == 3 and out == ""
    assert "exponent notation in '1e-3000000'" in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--workers", "2"],
            ["optimize", "--primes", "x"],
            ["optimize", "--cap", "5"],
            ["optimize", "--force"],
            ["experiment", "riemann", "--q", "11", "--tolerance", "0"],
            ["optimize", "--primes", "5", "--config", "run.conf"],
            ["optimize", "--primes", "5", "--output-csv", "report.csv"],
            ["optimize", "--primes", "5", "--output-json", "report.json"],
            ["rearrange", "gmi_half.json", "--output", "sorted.json"],
            ["rearrange", "gmi_half.json", "-o", "sorted.json"],
            ["experiment", "stirling", "--primes", "5", "--output-csv", "gaps.csv"],
            ["optimize"],
            ["experiment", "stirling"],
        ],
    )
    def test_usage_errors_exit_3(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        out = capsys.readouterr()
        assert out.out == "" and "usage:" in out.err
        if argv[-1] in ("optimize", "stirling"):  # no orders, nothing to certify
            assert "--primes" in out.err and "required" in out.err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--primes", "1_3"],
            ["optimize", "--primes", "\u0661\u0663"],
            ["optimize", "--primes", "5", "+7"],
            ["optimize", "--primes", "5", "--b-policy", "fixed", "--fixed-b", "1_3"],
            ["experiment", "riemann", "--q", "1_1"],
            ["experiment", "stirling", "--primes", "\u0661\u0663"],
            ["check", "gom54.json", "--b", "1_3"],
            ["integrate", "gom54.json", "--p", "\u0663"],
        ],
        ids=repr,
    )
    def test_integer_flags_read_only_ascii_digits(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "invalid strict_int value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["optimize", "--help"],
            ["experiment", "riemann", "--help"],
            ["experiment", "stirling", "--help"],
        ],
    )
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def _call(argv):
    """main(argv) in this process: its exit code, usage errors included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParserReuse:
    """main builds its parser once per process and every call parses with
    it: no flag's value may leak from one call into the next."""

    SEQUENCE = [
        ["integrate", "gmi_half.json", "--p", "1", "--p", "2"],
        ["integrate", "gmi_half.json"],
        # csv: the json report carries each row's wall time
        ["optimize", "--primes", "5", "--b-policy", "fixed", "--fixed-b", "2",
         "--format", "csv"],
        ["optimize", "--primes", "5", "--format", "csv"],
        ["experiment", "riemann", "--q", "11", "--h", "gmi:1/3"],
        ["experiment", "riemann", "--q", "11"],
        ["check", "gom54.json", "--b", "2"],
        ["check", "gom54.json"],
        ["experiment", "stirling", "--primes", "5", "11", "--format", "text"],
        ["experiment", "riemann", "--q", "9"],
        ["experiment", "stirling", "--primes", "5", "--q", "7"],
    ]

    def test_each_call_matches_a_fresh_process(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "gom54.json").write_text(gom(5, 4).to_json())
        (tmp_path / "gmi_half.json").write_text(gmi(F(1, 2)).to_json())
        monkeypatch.chdir(tmp_path)
        src = Path(groupcut.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        fresh = {}
        for argv in self.SEQUENCE:
            done = subprocess.run(
                [sys.executable, "-m", "groupcut.cli", *argv],
                env=env,
                capture_output=True,
                timeout=60,
                check=False,
            )
            fresh[tuple(argv)] = (done.returncode, done.stdout.decode())
        capsys.readouterr()
        for argv in self.SEQUENCE + self.SEQUENCE[::-1]:
            code = _call(argv)
            assert (code, capsys.readouterr().out) == fresh[tuple(argv)], argv

    def test_the_parser_is_built_once(self, capsys, monkeypatch, gom54_path):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        _call(["check", gom54_path])
        after_one = len(built)
        for argv in (["check", gom54_path], ["experiment", "riemann"]) * 10:
            _call(argv)
        capsys.readouterr()
        assert len(built) == after_one


class TestWrittenFiles:
    """Settings come from flags and results go to stdout: run from an empty
    working directory, a subcommand leaves no file there, and none next to
    its inputs (integrate --sublevel-csv, which writes the plot data it is
    asked for, is TestIntegrate's)."""

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        inputs, work = tmp_path / "inputs", tmp_path / "work"
        inputs.mkdir()
        work.mkdir()
        row = {"rhs": "1/2", "columns": [{"name": "s1", "frac": "1/4"}]}
        for name, text in (
            ("gom54.json", gom(5, 4).to_json()),
            ("md2.json", md2(5, 4).to_json()),
            ("gmi_half.json", gmi(F(1, 2)).to_json()),
            ("row.json", json.dumps(row)),
        ):
            (inputs / name).write_text(text)
        monkeypatch.chdir(work)
        return inputs

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "gom54.json", "--b", "2"],
            ["check", "gmi_half.json", "--format", "text"],
            ["rearrange", "md2.json"],
            ["rearrange", "gmi_half.json", "--tilde"],
            ["optimize", "--primes", "5", "7", "--b-policy", "all"],
            ["optimize", "--primes", "7", "--format", "csv"],
            ["integrate", "gom54.json", "--format", "text"],
            ["integrate", "gmi_half.json", "--p", "2", "--layer-cake"],
            ["experiment", "riemann", "--q", "11", "--h", "gmi:1/3"],
            ["experiment", "stirling", "--primes", "5", "11", "--format", "text"],
            ["cutgen", "--row", "row.json", "--function", "gmi_half.json"],
            ["decompose", "md2.json", "--format", "text"],
        ],
        ids=" ".join,
    )
    def test_commands_write_no_file(self, capsys, inputs, argv):
        names = sorted(os.listdir(inputs))
        argv = [str(inputs / a) if a.endswith(".json") else a for a in argv]
        code, out, _err = run(capsys, *argv)
        assert code == 0 and out
        assert os.listdir() == [] and sorted(os.listdir(inputs)) == names


class TestImport:
    def test_import_loads_no_process_machinery(self):
        src = Path(groupcut.__file__).resolve().parents[1]
        code = (
            "import sys, groupcut.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.strip() == "[]"


class TestIntegrate:
    def test_finite_scores(self, capsys, gom54_path):
        code, out, _err = run(capsys, "integrate", gom54_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["lp_norms"]["1"]["power"] == "1/2"
        assert payload["volume_product"] == "3/32"

    def test_circle_norms_and_layer_cake(self, capsys, gmi_half_path):
        code, out, _err = run(
            capsys, "integrate", gmi_half_path, "--p", "1", "--p", "2", "--layer-cake"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["integral_ln"] == pytest.approx(-1.0, abs=1e-9)
        assert payload["lp_norms"]["1"] == pytest.approx(0.5)
        assert payload["layer_cake"]["gap"] < 1e-10

    @pytest.mark.parametrize("flags", [(), ("--layer-cake",)])
    @pytest.mark.parametrize("kind", ["steep", "flat"])
    def test_slopes_no_float_holds(self, capsys, tmp_path, ramps_through, kind, flags):
        # a slope of 10^310, which float() overflows, and one of 4 10^-400,
        # which it takes to 0.0
        eps = F(1, 10**400)
        fn = {
            "steep": gmi(F(1, 10**310)),
            "flat": ramps_through(F(1, 2) - eps, F(1, 2) + eps),
        }[kind]
        path = tmp_path / "fn.json"
        path.write_text(fn.to_json())
        code, out, err = run(capsys, "integrate", str(path), *flags)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        expected = -1.0 if kind == "steep" else (math.log(0.5) - 1) / 2
        assert payload["integral_ln"] == pytest.approx(expected, abs=1e-12)
        if flags:
            assert payload["layer_cake"]["gap"] < 1e-12

    @pytest.mark.parametrize("flags", [(), ("--layer-cake",)])
    def test_a_norm_no_float_holds_exits_3(
        self, capsys, tmp_path, ramps_through, flags
    ):
        big = F(10**400)
        path = tmp_path / "big.json"
        path.write_text(ramps_through(big, big).to_json())
        code, out, err = run(capsys, "integrate", str(path), *flags)
        assert (code, out) == (3, "")
        assert err == "error: the root of index 1 is too large for a float\n"

    def test_sublevel_csv(self, capsys, monkeypatch, tmp_path, gmi_half_path):
        # from an empty working directory, the plot is the one file written
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, _err = run(
            capsys, "integrate", gmi_half_path, "--sublevel-csv", "plot.csv"
        )
        assert code == 0 and json.loads(out)["sublevel_csv"] == "plot.csv"
        assert os.listdir() == ["plot.csv"]
        with open("plot.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["alpha", "measure"]
        assert ["1/2", "1/2"] in rows

    def test_one_integral_and_one_sweep_per_call(
        self, capsys, monkeypatch, tmp_path, gmi_half_path
    ):
        # the layer cake reads the payload's integral, and the plot the
        # layer cake's sweep
        calls = []

        def spy(name, original):
            def called(*args):
                calls.append(name)
                return original(*args)

            return called

        modules = [m for n, m in sys.modules.items() if n.startswith("groupcut")]
        for name in ("integral_ln", "_sublevel_sweep"):
            original = vars(torus)[name]
            for module in modules:
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, spy(name, original))
        plot = tmp_path / "p.csv"
        code, out, _err = run(
            capsys, "integrate", gmi_half_path, "--layer-cake", "--sublevel-csv", str(plot)
        )
        assert code == 0 and {"layer_cake", "sublevel_csv"} <= set(json.loads(out))
        assert plot.exists()
        assert sorted(calls) == ["_sublevel_sweep", "integral_ln"]
        # the spies are in place: the library's own calls reach them
        torus.layer_cake_check(gmi(F(1, 2)))
        assert sorted(calls) == ["_sublevel_sweep"] * 2 + ["integral_ln"] * 2

    def test_zero_set_prints_valid_json(self, capsys, tmp_path):
        # pi vanishes on [0, 1/2): the log integral is -inf, and JSON has no
        # number for it
        half = F(1, 2)
        path = tmp_path / "zero_set.json"
        path.write_text(
            PwlTorusFunction(
                (F(0), half), ((F(0), F(0)), (F(0), F(1))), b=half
            ).to_json()
        )
        code, out, _err = run(
            capsys, "integrate", str(path), "--p", "1", "--layer-cake"
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(out, parse_constant=reject)
        assert payload["integral_ln"] == "-inf"
        assert payload["lp_norms"] == {"1": 0.5}
        assert payload["layer_cake"] == {"lhs": "inf", "rhs": "inf", "gap": 0.0}

    @pytest.mark.parametrize("path", ["gmi_half_path", "gom54_path"])
    @pytest.mark.parametrize("p", ["1001", "100000", "1" + "0" * 400])
    def test_exponent_above_the_cap_exits_3(
        self, capsys, monkeypatch, request, unreadable_numerators, path, p
    ):
        def fail(*_args):
            raise AssertionError("arithmetic ran before the exponent check")

        def load(data):
            fn = read(data)
            if isinstance(fn, FiniteGroupFunction):
                return unreadable_numerators(fn)
            return fn

        read = cli._function_from_dict
        monkeypatch.setattr(cli, "_function_from_dict", load)
        monkeypatch.setattr(torus, "_spans", fail)
        path = request.getfixturevalue(path)
        code, out, err = run(capsys, "integrate", path, "--p", p)
        assert (code, out) == (3, "")
        assert "exceeds the exponent cap 1000" in err

    @pytest.mark.parametrize("flag", ["--layer-cake", "--sublevel-csv"])
    def test_circle_flags_rejected_for_finite_input(
        self, capsys, tmp_path, gom54_path, flag
    ):
        plot = tmp_path / "plot.csv"
        flags = [flag, str(plot)] if flag == "--sublevel-csv" else [flag]
        code, out, err = run(capsys, "integrate", gom54_path, *flags)
        assert (code, out) == (3, "")
        assert "circle" in err
        assert not plot.exists()


class TestCertificates:
    """A failed certificate raises ValidationFailure, which exits 2, and no
    certificate rides on `assert`, which `python -O` strips."""

    def test_sublevel_end_check_exits_2(self, capsys, monkeypatch, gmi_half_path):
        exact = torus.sublevel_measure
        monkeypatch.setattr(
            torus, "sublevel_measure", lambda fn, alpha: exact(fn, alpha) + F(1, 7)
        )
        code, out, err = run(capsys, "integrate", gmi_half_path, "--layer-cake")
        assert (code, out) == (2, "")
        assert err.startswith("validation failure: sublevel sweep reaches measure 1")
        assert "Traceback" not in err

    def test_sublevel_check_below_the_top_level_exits_2(
        self, capsys, monkeypatch, tmp_path
    ):
        # md2(5, 4) on the circle has levels 0, 1/2 and 1; a measure that is
        # off only below the top level must still be caught
        fn = torus.from_finite_function(md2(5, 4))
        assert torus.sublevel_profile(fn).alphas == (0, F(1, 2), 1)
        path = tmp_path / "md2.json"
        path.write_text(fn.to_json())
        exact = torus.sublevel_measure
        monkeypatch.setattr(
            torus,
            "sublevel_measure",
            lambda fn, alpha: exact(fn, alpha) + (F(1, 7) if alpha < 1 else 0),
        )
        code, out, err = run(capsys, "integrate", str(path), "--layer-cake")
        assert (code, out) == (2, "")
        assert err.startswith(
            "validation failure: sublevel sweep reaches measure 7/10 at level 1/2, "
            "but the measure there is 59/70"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [(), ("--tilde",)])
    def test_decreasing_profile_exits_2(self, capsys, monkeypatch, gmi_half_path, flags):
        # rows (level, below, at, rate above) over w = 2 and den = 4: the
        # measure rises from 1/2 at level 0 to 1 just below level 1/2, and is
        # 1/4 at 1/2
        decreasing = [(0, 0, 2, 2), (1, 4, 1, 0), (2, 1, 4, 0)], 2, 4
        monkeypatch.setattr(torus, "_sublevel_sweep", lambda fn: decreasing)
        code, out, err = run(capsys, "rearrange", gmi_half_path, *flags)
        assert (code, out) == (2, "")
        assert err.startswith(
            "validation failure: sublevel profile decreases at level 1/2: 1/4 < 1"
        )
        assert "Traceback" not in err

    def test_package_has_no_assert(self):
        package = Path(groupcut.__file__).resolve().parent
        modules = sorted(package.glob("*.py"))
        asserts = [
            f"{path.name}:{node.lineno}"
            for path in modules
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert len(modules) > 5 and asserts == []


class TestExperiment:
    def test_riemann_identity(self, capsys):
        code, out, _err = run(capsys, "experiment", "riemann", "--q", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["product"] == "3/32"
        assert payload["integral"] == pytest.approx(-1.0, abs=1e-12)

    def test_riemann_gmi_profile(self, capsys):
        code, out, _err = run(
            capsys, "experiment", "riemann", "--q", "11", "--h", "gmi:1/3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["discrete_mean"] >= payload["lower_bound"]

    def test_riemann_needs_q(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "riemann"])
        assert exc.value.code == 3
        out = capsys.readouterr()
        assert out.out == "" and "usage:" in out.err
        assert "--q" in out.err and "required" in out.err

    def test_riemann_composite_exits_3(self, capsys):
        code, out, err = run(capsys, "experiment", "riemann", "--q", "9")
        assert (code, out) == (3, "")
        assert "q=9 is not prime" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["riemann", "--q", "11", "--primes", "5", "7"], "--primes"),
            (["stirling", "--primes", "5", "--q", "7"], "--q"),
            (["stirling", "--primes", "5", "--h", "identity"], "--h"),
            (["stirling", "--primes", "5", "--q", "7", "--h", "bogus"], "--q"),
        ],
    )
    def test_the_other_kinds_flags_exit_3(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", *argv])
        assert exc.value.code == 3
        out = capsys.readouterr()
        assert out.out == "" and "usage:" in out.err
        assert flag in out.err and "unrecognized arguments" in out.err

    def test_stirling_table(self, capsys):
        code, out, _err = run(capsys, "experiment", "stirling", "--primes", "3", "11")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["q"] for row in rows] == [3, 11]
        assert rows[0]["ratio"] == "1/2"

    def test_stirling_rows_are_exact(self, capsys):
        argv = ["experiment", "stirling", "--primes", "11", "3", "7"]
        code, out, _err = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["rows"] == [
            {
                "q": row.q,
                "ratio": str(row.ratio),
                "log_mean": row.log_mean,
                "gap_to_minus_one": row.gap_to_minus_one,
            }
            for row in groupcut.stirling_table([3, 7, 11])
        ]

    def test_unknown_profile_exits_3(self, capsys):
        code, _out, err = run(
            capsys, "experiment", "riemann", "--q", "5", "--h", "sine"
        )
        assert code == 3
        assert "unknown profile" in err

    def test_riemann_profile_files_print_what_the_identity_prints(self, capsys, tmp_path):
        # tilde(gmi(b)) is the identity ramp for every b, so a file of it, a
        # file of the identity and gmi:<b> all discretize the same profile
        argv = ["experiment", "riemann", "--q", "11", "--h"]
        expected = run(capsys, *argv, "identity")
        assert expected[0] == 0 and expected[2] == ""
        for name, fn in (("identity", identity_fn()), ("tilde", tilde_fn(gmi(F(1, 3))))):
            path = tmp_path / f"{name}.json"
            path.write_text(fn.to_json())
            assert run(capsys, *argv, f"file:{path}") == expected
        assert run(capsys, *argv, "gmi:1/3") == expected

    def test_riemann_refuses_a_finite_function_file(self, capsys, gom54_path):
        argv = ["experiment", "riemann", "--q", "11", "--h", f"file:{gom54_path}"]
        assert run(capsys, *argv) == (3, "", "error: missing key: 'breakpoints'\n")


def _without(data, *path):
    """data with the key at the end of path removed, one level per name."""
    *parents, key = path
    inner = data
    for name in parents:
        inner = inner[name]
    del inner[key]
    return data


class TestMissingKey:
    """An input object without a key the command reads exits 3 with empty
    stdout and names the key on stderr."""

    @pytest.mark.parametrize(
        "command, data, key",
        [
            ("check", _without(gom(5, 4).to_dict(), "b"), "b"),
            ("check", _without(gmi(F(1, 2)).to_dict(), "limits"), "limits"),
            ("check", _without(gmi(F(1, 2)).to_dict(), "limits", 1, "left"), "left"),
            ("cutgen", {"columns": [{"name": "s1", "frac": "1/4"}]}, "rhs"),
        ],
        ids=["finite-b", "circle-limits", "limit-entry-left", "cutgen-row-rhs"],
    )
    def test_missing_key_exits_3(self, capsys, tmp_path, gmi_half_path, command, data, key):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        if command == "check":
            argv = ["check", str(path)]
        else:
            argv = ["cutgen", "--row", str(path), "--function", gmi_half_path]
        assert run(capsys, *argv) == (3, "", f"error: missing key: '{key}'\n")


class TestCutgen:
    def test_text_cut(self, capsys, tmp_path, gmi_half_path):
        row_path = tmp_path / "row.json"
        row_path.write_text(
            json.dumps(
                {
                    "rhs": "1/2",
                    "columns": [
                        {"name": "s1", "frac": "1/4"},
                        {"name": "s2", "frac": "3/4"},
                    ],
                }
            )
        )
        code, out, _err = run(
            capsys,
            "cutgen",
            "--row",
            str(row_path),
            "--function",
            gmi_half_path,
            "--format",
            "text",
        )
        assert code == 0
        assert out.strip() == "1/2 s1 + 1/2 s2 >= 1"

    def test_rhs_mismatch_exits_3(self, capsys, tmp_path, gom54_path):
        row_path = tmp_path / "row.json"
        row_path.write_text(json.dumps({"rhs": "1/2", "columns": []}))
        code, _out, _err = run(
            capsys, "cutgen", "--row", str(row_path), "--function", gom54_path
        )
        assert code == 3

    @pytest.mark.parametrize("name", ["null", "true", "5", '["a"]'])
    def test_non_string_name_exits_3(self, capsys, tmp_path, gom54_path, name):
        row_path = tmp_path / "row.json"
        row_path.write_text(
            '{"rhs": "4/5", "columns": [{"name": %s, "frac": "1/5"}]}' % name
        )
        code, out, err = run(
            capsys, "cutgen", "--row", str(row_path), "--function", gom54_path
        )
        assert code == 3 and out == ""
        assert "expected a string name" in err

    def test_non_object_column_exits_3(self, capsys, tmp_path, gom54_path):
        row_path = tmp_path / "row.json"
        row_path.write_text('{"rhs": "4/5", "columns": [["s1", "1/5"]]}')
        code, out, err = run(
            capsys, "cutgen", "--row", str(row_path), "--function", gom54_path
        )
        assert code == 3 and out == ""
        assert "expected a JSON object, got list" in err


class TestDecompose:
    def test_plateau_split(self, capsys, tmp_path):
        path = tmp_path / "md2.json"
        path.write_text(md2(5, 4).to_json())
        code, out, _err = run(capsys, "decompose", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == "1/6"
        assert payload["gamma"] == "1/2"
        assert payload["pi_tilde"] == ["0", "11/20", "1/2", "9/20", "1"]

    def test_wrong_rhs_exits_3(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(gom(5, 2).to_json())
        code, _out, _err = run(capsys, "decompose", str(path))
        assert code == 3


class TestRiemannOrderCap:
    def test_order_above_the_cap_exits_3_before_the_primality_test(
        self, capsys, monkeypatch
    ):
        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        monkeypatch.setattr(group_core, "is_prime", refuse)
        code, out, err = run(capsys, "experiment", "riemann", "--q", "100003")
        assert code == 3 and out == ""
        assert "q=100003 exceeds the riemann cap 10007" in err


class TestStirlingOrderCap:
    def test_order_above_the_cap_exits_3_before_the_primality_test(
        self, capsys, monkeypatch
    ):
        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        monkeypatch.setattr(group_core, "is_prime", refuse)
        code, out, err = run(
            capsys, "experiment", "stirling", "--primes", "11", "100003"
        )
        assert code == 3 and out == ""
        assert "q=100003 exceeds the stirling cap 10007" in err


class TestScanOrderCap:
    """A finite function file above MAX_SCAN_ORDER is refused when it is
    read, before any O(q^2) pair scan."""

    @pytest.fixture(scope="class")
    def above_cap_path(self, tmp_path_factory):
        # a prime order: rearrange and decompose refuse a composite order
        # before any scan, so a composite file would not reach the cap
        q = 10009
        assert q > finite_functions.MAX_SCAN_ORDER and group_core.is_prime(q)
        path = tmp_path_factory.mktemp("cap") / "gom.json"
        path.write_text(gom(q, q - 1).to_json())
        return str(path)

    @pytest.mark.parametrize("command", ["check", "rearrange", "decompose"])
    def test_order_above_the_cap_exits_3_before_the_pair_scan(
        self, capsys, monkeypatch, above_cap_path, command
    ):
        def refuse(nums):
            raise AssertionError(f"pair scan started at q={len(nums)}")

        monkeypatch.setattr(finite_functions, "_negative_rows", refuse)
        code, out, err = run(capsys, command, above_cap_path)
        assert code == 3 and out == ""
        assert "q=10009 exceeds the pair-scan cap 10007" in err


class TestBreakpointCap:
    """A circle function file above MAX_BREAKPOINTS is refused before the
    grid screen, the corner scan or the symmetry scan runs.  Loading the
    file walks it once, at its breakpoints, to check its stored limits."""

    @pytest.mark.parametrize("argv", [["check"], ["rearrange", "--tilde"]])
    def test_breakpoints_above_the_cap_exit_3_before_any_scan(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        n = torus.MAX_BREAKPOINTS + 1
        fn = PwlTorusFunction(
            tuple(F(j, n) for j in range(n)),
            ((F(0), F(1, 2)),) * n,
            (F(0),) + (F(1),) * (n - 1),
            mode="wrap",
        )
        path = tmp_path / "spikes.json"
        path.write_text(fn.to_json())

        def refuse(*args):
            raise AssertionError("the function was scanned")

        for scan in ("_screen_is_clean", "_subadditivity_scan", "_symmetry_scan"):
            monkeypatch.setattr(torus, scan, refuse)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 3 and out == ""
        assert f"error: {n} breakpoints exceed the corner-scan cap 300\n" == err


@contextlib.contextmanager
def _int_digit_limit(limit):
    """The interpreter's int <-> str digit limit set to limit (0 lifts it)
    for the body; a no-op on interpreters without the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int <-> str digit limit",
)


class TestLongExactOutput:
    """Exact results longer than the interpreter's int <-> str digit limit
    (4300 digits by default) are printed in full, while input is still
    parsed under the limit main was called with."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        with _int_digit_limit(4300):
            yield

    def test_integrate_prints_long_exact_scores(self, capsys, tmp_path):
        path = tmp_path / "gom977.json"
        path.write_text(gom(977, 976).to_json())
        code, out, err = run(capsys, "integrate", str(path))
        assert code == 0, err
        assert max(map(len, out.split())) > 4300  # a number past the limit
        with _int_digit_limit(0):
            expected = groupcut.score_function(gom(977, 976), ps=(1, 2, 3))
            assert json.loads(out) == expected.to_dict()

    def test_riemann_prints_a_long_product(self, capsys):
        code, out, err = run(capsys, "experiment", "riemann", "--q", "1523")
        assert code == 0, err
        with _int_digit_limit(0):
            payload = json.loads(out)
            floor = experiments.expected_min_product(1523)
            assert F(payload["product"]) == F(payload["product_bound"]) == floor

    def test_stirling_prints_a_long_ratio(self, capsys):
        code, out, err = run(capsys, "experiment", "stirling", "--primes", "1601")
        assert code == 0, err
        with _int_digit_limit(0):
            (row,) = json.loads(out)["rows"]
            assert F(row["ratio"]) == experiments.expected_min_product(1601)

    @needs_digit_limit
    def test_long_input_number_still_exits_3(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        values = ["0", "1" * 5000 + "/" + "3" * 5000, "1"]
        path.write_text(json.dumps({"q": 3, "b": 2, "values": values}))
        code, out, err = run(capsys, "check", str(path))
        assert code == 3 and out == ""
        assert "limit" in err

    @needs_digit_limit
    @pytest.mark.parametrize(
        "argv", [["experiment", "stirling", "--primes", "1601"], ["check", "-"]]
    )
    def test_main_restores_the_callers_limit(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{"))  # exit 3 for check
        with _int_digit_limit(5000):
            main(argv)
            assert sys.get_int_max_str_digits() == 5000
        capsys.readouterr()


class TestCollector:
    """main pauses the cyclic garbage collector while a command runs and
    gives the caller's state back, whatever the exit code."""

    @pytest.mark.parametrize("caller_enabled", [True, False])
    @pytest.mark.parametrize(
        "flags, off, expected",
        [
            (["--layer-cake"], 0, 0),
            (["--layer-cake"], F(1, 7), 2),
            (["--p", "1001"], 0, 3),
        ],
    )
    def test_state_comes_back(
        self, capsys, monkeypatch, gmi_half_path, caller_enabled, flags, off, expected
    ):
        during = []
        exact_load, exact_measure = cli._function_from_dict, torus.sublevel_measure

        def spy_load(data):  # every case loads its file, --p 1001 too
            during.append(gc.isenabled())
            return exact_load(data)

        def off_measure(fn, alpha):  # a nonzero offset fails the sweep check
            return exact_measure(fn, alpha) + off

        monkeypatch.setattr(cli, "_function_from_dict", spy_load)
        monkeypatch.setattr(torus, "sublevel_measure", off_measure)
        previous = gc.isenabled()
        (gc.enable if caller_enabled else gc.disable)()
        try:
            code, _out, _err = run(capsys, "integrate", gmi_half_path, *flags)
            after = gc.isenabled()
        finally:
            (gc.enable if previous else gc.disable)()
        assert code == expected
        assert during == [False]
        assert after is caller_enabled


class _GonePipe(io.StringIO):
    """A stdout whose reader has gone, with no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    """A reader that closes stdout early is not bad input: exit 141
    (128 + SIGPIPE), with nothing on stderr."""

    @pytest.mark.parametrize("command", ["check", "integrate"])
    def test_in_process_exits_141(self, capsys, monkeypatch, gom54_path, command):
        monkeypatch.setattr(sys, "stdout", _GonePipe())
        assert main([command, gom54_path]) == 141
        assert capsys.readouterr().err == ""

    def test_a_reader_that_closes_early_exits_141(self, tmp_path):
        # about 0.4 MB of violations, well above a pipe's buffer, so the
        # child is still writing when the reader closes after 10 bytes
        q = 211
        rng = random.Random(q)
        values = ["0"] + [f"{rng.randint(1, 100)}/100" for _ in range(q - 1)]
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"q": q, "b": q - 1, "values": values}))
        src = Path(groupcut.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        with subprocess.Popen(
            [sys.executable, "-m", "groupcut.cli", "check", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as child:
            head = child.stdout.read(10)
            child.stdout.close()
            err = child.stderr.read()
        assert (child.returncode, head, err) == (141, b'{\n  "is_mi', b"")
