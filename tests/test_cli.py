"""End-to-end command line coverage through main(argv): exit codes, output
formats, stdin handling, and file outputs."""

import ast
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import groupcut
from groupcut import PwlTorusFunction, gmi, gom, identity_fn, md2
from groupcut import experiments, finite_functions, group_core, polytope, torus
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

    def test_huge_order_refused_by_the_length_check(
        self, capsys, monkeypatch, tmp_path
    ):
        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        monkeypatch.setattr(group_core, "is_prime", refuse)
        path = tmp_path / "huge.json"
        path.write_text('{"q": 10000000000000061, "b": 1, "values": ["0", "1"]}')
        code, out, err = run(capsys, "check", str(path))
        assert code == 3 and out == ""
        assert "expected 10000000000000061 values, got 2" in err

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

    def test_circle_function_to_file(self, capsys, tmp_path, gmi_half_path):
        out_path = tmp_path / "sorted.json"
        code, _out, _err = run(
            capsys, "rearrange", gmi_half_path, "--output", str(out_path)
        )
        assert code == 0
        from groupcut import PwlTorusFunction

        assert PwlTorusFunction.from_json(out_path.read_text()) == identity_fn()

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

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("prime_list = 3\nb_policy = canonical\n")
        code, out, _err = run(
            capsys, "optimize", "--config", str(conf), "--primes", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["q"] for row in payload["rows"]] == [5]

    def test_policy_flag_replaces_the_files_fixed_b(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("prime_list = 5\nb_policy = fixed\nfixed_b = 2\n")
        argv = ["optimize", "--config", str(conf), "--b-policy", "all"]
        code, out, _err = run(capsys, *argv)
        assert code == 0
        assert [row["b"] for row in json.loads(out)["rows"]] == [1, 2, 3, 4]

    def test_output_files(self, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        code, _out, _err = run(
            capsys,
            "optimize",
            "--primes",
            "5",
            "--output-csv",
            str(csv_path),
            "--output-json",
            str(json_path),
        )
        assert code == 0
        assert csv_path.exists() and json.loads(json_path.read_text())["ok"]

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
        assert "q=9 is composite" in err

    def test_huge_order_refused_by_the_cap_before_the_primality_test(
        self, capsys, monkeypatch
    ):
        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        for module in (polytope, experiments):
            monkeypatch.setattr(module, "is_prime", refuse)
        code, out, err = run(capsys, "optimize", "--primes", "10000000000000061")
        assert code == 3 and out == ""
        assert "q=10000000000000061 exceeds the enumeration cap 23" in err

    @pytest.mark.parametrize("policy", [[], ["--b-policy", "all"]])
    def test_fixed_b_without_fixed_policy_exits_3(self, capsys, policy):
        argv = ["optimize", "--primes", "5", "--fixed-b", "3", *policy]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "fixed_b" in err


def _zero_denominator_argv(tmp_path, case):
    if case == "riemann":
        return ["experiment", "riemann", "--q", "11", "--h", "gmi:1/0"]
    finite = tmp_path / "finite.json"
    finite.write_text('{"q": 5, "b": 4, "values": ["0", "1/0", "1/2", "3/4", "1"]}')
    if case == "finite":
        return ["check", str(finite)]
    if case == "circle":
        data = gmi(F(1, 2)).to_dict()
        data["pieces"][0]["slope"] = "1/0"
        circle = tmp_path / "circle.json"
        circle.write_text(json.dumps(data))
        return ["check", str(circle)]
    row = tmp_path / "row.json"
    row.write_text(json.dumps({"rhs": "1/0", "columns": []}))
    return ["cutgen", "--row", str(row), "--function", str(finite)]


@pytest.mark.parametrize("case", ["finite", "circle", "cutgen", "riemann"])
def test_zero_denominator_exits_3(capsys, tmp_path, case):
    code, out, err = run(capsys, *_zero_denominator_argv(tmp_path, case))
    assert code == 3 and out == ""
    assert "zero denominator in '1/0'" in err
    assert "Traceback" not in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--workers", "2"],
            ["optimize", "--primes", "x"],
            ["optimize", "--cap", "5"],
            ["optimize", "--force"],
        ],
    )
    def test_usage_errors_exit_3(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["optimize", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


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

    def test_sublevel_csv(self, capsys, tmp_path, gmi_half_path):
        plot = tmp_path / "plot.csv"
        code, _out, _err = run(
            capsys, "integrate", gmi_half_path, "--sublevel-csv", str(plot)
        )
        assert code == 0
        with open(plot, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["alpha", "measure"]
        assert ["1/2", "1/2"] in rows


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
        half = F(1, 2)
        decreasing = torus.SublevelProfile(
            alphas=(F(0), half, F(1)), pieces=((F(1), half), (F(0), F(1, 4)))
        )
        monkeypatch.setattr(torus, "sublevel_profile", lambda fn: decreasing)
        code, out, err = run(capsys, "rearrange", gmi_half_path, *flags)
        assert (code, out) == (2, "")
        assert err.startswith("validation failure: sublevel profile decreases")
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

    @pytest.mark.parametrize(
        "tolerance, expected",
        [([], 0), (["--tolerance", "0"], 0)]
        + [(["--tolerance", bad], 3) for bad in ("-1", "nan", "inf")],
    )
    def test_riemann_tolerance_must_be_finite_and_nonnegative(
        self, capsys, tolerance, expected
    ):
        code, out, err = run(capsys, "experiment", "riemann", "--q", "11", *tolerance)
        assert code == expected
        if expected == 3:
            assert out == ""
            assert "tolerance must be finite and >= 0" in err

    def test_riemann_needs_q(self, capsys):
        code, _out, err = run(capsys, "experiment", "riemann")
        assert code == 3
        assert "--q" in err

    def test_riemann_composite_exits_3(self, capsys):
        code, _out, _err = run(capsys, "experiment", "riemann", "--q", "9")
        assert code == 3

    def test_stirling_table_with_csv(self, capsys, tmp_path):
        path = tmp_path / "gaps.csv"
        code, out, _err = run(
            capsys,
            "experiment",
            "stirling",
            "--primes",
            "3",
            "11",
            "--output-csv",
            str(path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["ratio"] == "1/2"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "q" and rows[1][0] == "3"

    def test_stirling_csv_rows_are_exact(self, capsys, tmp_path):
        path = tmp_path / "gaps.csv"
        argv = ["experiment", "stirling", "--primes", "11", "3", "7"]
        code, _out, _err = run(capsys, *argv, "--output-csv", str(path))
        assert code == 0
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["q", "ratio", "log_mean", "gap_to_minus_one"]] + [
            [str(row.q), str(row.ratio), repr(row.log_mean), repr(row.gap_to_minus_one)]
            for row in groupcut.stirling_table([3, 7, 11])
        ]

    def test_unknown_profile_exits_3(self, capsys):
        code, _out, err = run(
            capsys, "experiment", "riemann", "--q", "5", "--h", "sine"
        )
        assert code == 3
        assert "unknown profile" in err


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

        monkeypatch.setattr(experiments, "is_prime", refuse)
        code, out, err = run(capsys, "experiment", "riemann", "--q", "100003")
        assert code == 3 and out == ""
        assert "q=100003 exceeds the riemann cap 10007" in err


class TestStirlingOrderCap:
    def test_order_above_the_cap_exits_3_before_the_primality_test(
        self, capsys, monkeypatch
    ):
        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        monkeypatch.setattr(experiments, "is_prime", refuse)
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

        for module in (finite_functions, polytope):
            monkeypatch.setattr(module, "_rows", refuse)
        code, out, err = run(capsys, command, above_cap_path)
        assert code == 3 and out == ""
        assert "q=10009 exceeds the pair-scan cap 10007" in err


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
