"""Configuration handling, cut emission from tableau rows, the discretization
experiment, the exact floor table, and the batch optimization report."""

import csv
import io
import math
import sys
from fractions import Fraction as F

import pytest

from groupcut import experiments, finite_functions, group_core, polytope
from groupcut import (
    CutInequality,
    DimensionCap,
    ExperimentConfig,
    FiniteGroupFunction,
    GridMismatch,
    MODE_WRAP,
    NotInClassG,
    NotPrime,
    OptimizationRow,
    OutOfRange,
    PwlTorusFunction,
    Report,
    RhsMismatch,
    RiemannResult,
    STATUS_MISMATCH,
    STATUS_OK,
    TableauRow,
    ValidationFailure,
    emit_cut,
    expected_min_product,
    from_finite_function,
    gmi,
    gom,
    identity_fn,
    integral_ln,
    is_minimal,
    ln_fraction,
    md2,
    md2_torus,
    minimize_volume,
    optimize_and_report,
    riemann_experiment,
    stirling_table,
    tilde_fn,
    volume_product,
)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.prime_list == ()
        assert config.b_policy == "canonical"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(prime_list=(1, 5)),
            dict(b_policy="everything"),
            dict(b_policy="fixed"),
            dict(b_policy="fixed", fixed_b=0),
            dict(fixed_b=3),
            dict(b_policy="all", fixed_b=3),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


class TestTableauRow:
    def test_round_trip(self):
        row = TableauRow(rhs=F(4, 5), columns=(("s1", F(1, 5)), ("s2", F(2, 5))))
        assert TableauRow.from_dict(row.to_dict()) == row

    @pytest.mark.parametrize("rhs", [F(0), F(1), F(3, 2)])
    def test_rhs_needs_fractional_part(self, rhs):
        with pytest.raises(OutOfRange):
            TableauRow(rhs=rhs, columns=())

    def test_column_fraction_validated(self):
        with pytest.raises(OutOfRange):
            TableauRow(rhs=F(1, 2), columns=(("s1", F(5, 4)),))

    def test_zero_column_fraction_allowed(self):
        row = TableauRow(rhs=F(1, 2), columns=(("s1", F(0)),))
        assert row.columns == (("s1", F(0)),)


class TestCutInequality:
    def test_str_form(self):
        cut = CutInequality(names=("s1", "s2"), coefficients=(F(1, 2), F(1, 2)))
        assert str(cut) == "1/2 s1 + 1/2 s2 >= 1"

    def test_empty_cut(self):
        assert str(CutInequality(names=(), coefficients=())) == "0 >= 1"

    def test_dict_shape(self):
        cut = CutInequality(names=("x",), coefficients=(F(3, 4),))
        assert cut.to_dict() == {
            "terms": [{"name": "x", "coefficient": "3/4"}],
            "sense": ">=",
            "rhs": "1",
        }


class TestEmitCut:
    def test_torus_function_scores_any_fraction(self):
        row = TableauRow(rhs=F(1, 2), columns=(("s1", F(1, 4)), ("s2", F(3, 4))))
        cut = emit_cut(row, gmi(F(1, 2)))
        assert cut.coefficients == (F(1, 2), F(1, 2))
        assert str(cut) == "1/2 s1 + 1/2 s2 >= 1"

    def test_finite_function_scores_grid_fractions(self):
        row = TableauRow(rhs=F(4, 5), columns=(("s1", F(1, 5)), ("s2", F(2, 5))))
        cut = emit_cut(row, gom(5, 4))
        assert cut.coefficients == (F(1, 4), F(1, 2))

    def test_zero_fraction_gets_zero_coefficient(self):
        row = TableauRow(rhs=F(4, 5), columns=(("s1", F(0)),))
        assert emit_cut(row, gom(5, 4)).coefficients == (F(0),)

    def test_finite_rhs_mismatch(self):
        row = TableauRow(rhs=F(1, 2), columns=())
        with pytest.raises(RhsMismatch):
            emit_cut(row, gom(5, 4))

    def test_grid_mismatch(self):
        row = TableauRow(rhs=F(4, 5), columns=(("s1", F(1, 3)),))
        with pytest.raises(GridMismatch):
            emit_cut(row, gom(5, 4))

    def test_torus_rhs_mismatch(self):
        row = TableauRow(rhs=F(1, 2), columns=())
        with pytest.raises(RhsMismatch):
            emit_cut(row, gmi(F(1, 3)))

    def test_wrap_symmetric_functions_cannot_cut(self):
        row = TableauRow(rhs=F(1, 2), columns=())
        with pytest.raises(RhsMismatch):
            emit_cut(row, identity_fn())


class TestRiemannExperiment:
    def test_identity_at_q5_lands_on_the_floor(self):
        result = riemann_experiment(identity_fn(), 5)
        assert result.product == F(3, 32) == result.product_bound
        assert result.discrete_mean == result.lower_bound
        assert result.integral == pytest.approx(-1.0, abs=1e-12)

    def test_plateau_sits_above_the_floor(self):
        h = tilde_fn(md2_torus(F(1, 2)))
        result = riemann_experiment(h, 5)
        assert result.product == F(1, 8)
        assert result.product_bound == F(3, 32)
        assert result.discrete_mean > result.lower_bound

    def test_larger_orders_stay_above_the_floor(self):
        for q in (11, 101):
            result = riemann_experiment(identity_fn(), q)
            assert result.product >= result.product_bound
            assert -1.0 < result.discrete_mean < 0.0

    def test_composite_order_refused(self):
        with pytest.raises(NotPrime):
            riemann_experiment(identity_fn(), 9)

    def test_rhs_symmetric_input_refused(self):
        with pytest.raises(NotInClassG):
            riemann_experiment(gmi(F(1, 2)), 5)

    def test_non_minimal_input_refused(self):
        lifted = PwlTorusFunction(
            breakpoints=(F(0),), pieces=((F(0), F(1, 2)),), mode=MODE_WRAP
        )
        with pytest.raises(NotInClassG):
            riemann_experiment(lifted, 5)


def sampled_function(h, q):
    """h at x/(q-1) for x < q - 1, and 1 at q - 1, by value_at."""
    values = [h.value_at(F(x, q - 1)) for x in range(q - 1)] + [F(1)]
    return FiniteGroupFunction.from_values(q, q - 1, values)


def sampled_result(h, q):
    """The discretization experiment over Fractions: the sample as a
    FiniteGroupFunction, certified by is_minimal and scored by
    volume_product."""
    sampled = sampled_function(h, q)
    assert is_minimal(sampled).is_minimal
    product, bound = volume_product(sampled), expected_min_product(q)
    return RiemannResult(
        q=q,
        product=product,
        product_bound=bound,
        discrete_mean=ln_fraction(product) / (q - 1),
        lower_bound=ln_fraction(bound) / (q - 1),
        integral=integral_ln(h),
    )


RIEMANN_PROFILES = {
    "identity": identity_fn(),
    "tilde(gmi(1/3))": tilde_fn(gmi(F(1, 3))),
    "tilde(gmi(3/5))": tilde_fn(gmi(F(3, 5))),
    "tilde(md2_torus(1/2))": tilde_fn(md2_torus(F(1, 2))),
    # three pieces, breakpoints at sevenths: q = 29 samples them
    "tilde(md2(7, 6))": tilde_fn(from_finite_function(md2(7, 6))),
}


class TestRiemannMatchesTheFractionRoute:
    """riemann_experiment checks and scores its sample as integers over one
    common denominator; every field, floats included, must equal the route
    over Fractions."""

    @pytest.mark.parametrize("q", [29, 101, 503])
    @pytest.mark.parametrize("name", RIEMANN_PROFILES)
    def test_result_is_the_fraction_result(self, name, q):
        h = RIEMANN_PROFILES[name]
        got = riemann_experiment(h, q)
        expected = sampled_result(h, q)
        assert got == expected
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("q", [29, 101])
    def test_a_failing_sample_names_the_first_violation(self, monkeypatch, q):
        # lift one sampled value: the error names the first violation that
        # is_minimal finds in the lifted Fraction sample
        h = RIEMANN_PROFILES["tilde(md2(7, 6))"]
        walk = experiments._walk_pieces
        z = q // 3

        def lifted_walk(fn, d, points):
            scaled, w = walk(fn, d, points)
            p = sorted(scaled)[z]
            left, value, right = scaled[p]
            scaled[p] = (left, value + w, right)
            return scaled, w

        monkeypatch.setattr(experiments, "_walk_pieces", lifted_walk)
        values = list(sampled_function(h, q).values)
        values[z] += 1
        lifted = FiniteGroupFunction.from_values(q, q - 1, values)
        first = is_minimal(lifted).violations[0]
        assert first.kind == "subadditivity"
        with pytest.raises(ValidationFailure) as info:
            riemann_experiment(h, q)
        assert str(info.value) == f"discretized sample is not minimal: {first}"


class TestStirlingTable:
    def test_smallest_case(self):
        (row,) = stirling_table([3])
        assert row.ratio == F(1, 2)
        assert row.log_mean == pytest.approx(math.log(0.5) / 2, abs=1e-15)
        assert row.gap_to_minus_one == pytest.approx(1 + math.log(0.5) / 2)

    def test_gaps_shrink_monotonically(self):
        rows = stirling_table([11, 101, 1009])
        gaps = [row.gap_to_minus_one for row in rows]
        assert gaps[0] > gaps[1] > gaps[2] > 0
        assert gaps[2] < 0.01

    def test_duplicates_collapse_and_order_ascends(self):
        rows = stirling_table([7, 3, 7])
        assert [row.q for row in rows] == [3, 7]

    def test_composite_refused(self):
        with pytest.raises(NotPrime):
            stirling_table([9])


def report_csv(report):
    """The rows `Report.write_csv` writes, as `optimize --format csv` prints
    them, read back."""
    handle = io.StringIO()
    report.write_csv(handle)
    handle.seek(0)
    return list(csv.reader(handle))


class TestOptimizeAndReport:
    def test_all_rhs_for_small_primes(self):
        config = ExperimentConfig(prime_list=(3, 5, 7), b_policy="all")
        report = optimize_and_report(config)
        assert report.ok
        assert len(report.rows) == 2 + 4 + 6
        for row in report.rows:
            assert row.status == STATUS_OK
            assert row.min_product == expected_min_product(row.q)
            assert row.unique is True

    def test_composite_order_refused(self):
        with pytest.raises(NotPrime, match="q=9 is not prime"):
            optimize_and_report(ExperimentConfig(prime_list=(5, 9)))

    def test_cap_refuses_before_the_primality_test(self, monkeypatch):
        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        monkeypatch.setattr(group_core, "is_prime", refuse)
        with pytest.raises(DimensionCap, match="exceeds the enumeration cap 23"):
            optimize_and_report(ExperimentConfig(prime_list=(10**16 + 61,)))

    def test_empty_prime_list_yields_empty_report(self):
        report = optimize_and_report(ExperimentConfig())
        assert report.rows == () and report.ok

    def test_fixed_rhs_policy(self):
        config = ExperimentConfig(prime_list=(5, 7), b_policy="fixed", fixed_b=2)
        report = optimize_and_report(config)
        assert [(row.q, row.b) for row in report.rows] == [(5, 2), (7, 2)]
        assert report.ok

    def test_fixed_rhs_out_of_range_for_some_order(self):
        config = ExperimentConfig(prime_list=(3,), b_policy="fixed", fixed_b=5)
        with pytest.raises(OutOfRange):
            optimize_and_report(config)

    def test_carried_rows_match_direct_enumeration(self):
        config = ExperimentConfig(prime_list=(3, 5, 7, 11, 13), b_policy="all")
        report = optimize_and_report(config)
        assert [(row.q, row.b) for row in report.rows] == [
            (q, b) for q in (3, 5, 7, 11, 13) for b in range(1, q)
        ]
        for row in report.rows:
            direct = minimize_volume(row.q, row.b)
            assert row.n_vertices == direct.n_vertices
            assert row.min_product == direct.value
            assert row.unique is direct.unique
            assert row.argmin == direct.argmin

    def test_carried_row_certification_can_fail(self, monkeypatch):
        # the uncarried optimum, relabelled to the new rhs: its product is the
        # floor and it sorts to gom, but it is not symmetric about the new rhs
        def relabel(pi, u):
            b = pi.b_residue * pow(u, -1, pi.q)
            return FiniteGroupFunction.from_values(pi.q, b, pi.values)

        monkeypatch.setattr(experiments, "compose", relabel)
        report = optimize_and_report(
            ExperimentConfig(prime_list=(7,), b_policy="fixed", fixed_b=3)
        )
        (row,) = report.rows
        assert row.status == STATUS_MISMATCH
        assert report.ok is False

    def test_csv_and_json_outputs(self):
        report = optimize_and_report(ExperimentConfig(prime_list=(5,)))
        rows = report_csv(report)
        assert rows[0][:3] == ["q", "b", "status"]
        assert rows[1][:3] == ["5", "4", "OK"]
        assert rows[1][4] == "3/32"
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["rows"][0]["argmin"] == ["0", "1/4", "1/2", "3/4", "1"]

    def test_full_report_csv(self):
        config = ExperimentConfig(prime_list=(5, 7), b_policy="all")
        report = optimize_and_report(config)
        rows = report_csv(report)
        assert rows[0] == list(experiments.CSV_COLUMNS) == [
            "q", "b", "status", "n_vertices", "min_product", "unique"
        ]
        assert all(row.wall_time_ms >= 0 for row in report.rows)
        per_b = [
            [*cells[:5], " ".join(map(str, row.argmin.values)), cells[5]]
            for cells, row in zip(rows[1:], report.rows, strict=True)
        ]
        assert per_b == [
            ["5", "1", "OK", "2", "3/32", "0 1 3/4 1/2 1/4", "true"],
            ["5", "2", "OK", "2", "3/32", "0 1/2 1 1/4 3/4", "true"],
            ["5", "3", "OK", "2", "3/32", "0 3/4 1/4 1 1/2", "true"],
            ["5", "4", "OK", "2", "3/32", "0 1/4 1/2 3/4 1", "true"],
            ["7", "1", "OK", "4", "5/324", "0 1 5/6 2/3 1/2 1/3 1/6", "true"],
            ["7", "2", "OK", "4", "5/324", "0 1/2 1 1/3 5/6 1/6 2/3", "true"],
            ["7", "3", "OK", "4", "5/324", "0 1/3 2/3 1 1/6 1/2 5/6", "true"],
            ["7", "4", "OK", "4", "5/324", "0 5/6 1/2 1/6 1 2/3 1/3", "true"],
            ["7", "5", "OK", "4", "5/324", "0 2/3 1/6 5/6 1/3 1 1/2", "true"],
            ["7", "6", "OK", "4", "5/324", "0 1/6 1/3 1/2 2/3 5/6 1", "true"],
        ]

    def test_mismatch_rows_serialize_and_flag(self):
        row = OptimizationRow(
            q=5,
            b=4,
            status=STATUS_MISMATCH,
            n_vertices=2,
            min_product=F(3, 32),
            argmin=gom(5, 4),
            unique=True,
            wall_time_ms=0.0,
        )
        report = Report(rows=(row,), ok=False)
        assert report_csv(report)[1] == ["5", "4", STATUS_MISMATCH, "2", "3/32", "true"]
        assert report.to_dict()["rows"][0]["argmin"] == ["0", "1/4", "1/2", "3/4", "1"]
        assert not report.ok


class TestRiemannOrderCap:
    """An order above MAX_SCAN_ORDER is refused by an O(1) comparison,
    before the primality test and before any sampling."""

    @pytest.fixture
    def no_primality_test(self, monkeypatch):
        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        monkeypatch.setattr(group_core, "is_prime", refuse)

    @pytest.mark.parametrize(
        "q", [finite_functions.MAX_SCAN_ORDER + 1, 10000000000000061]
    )
    def test_order_above_the_cap_refused_first(self, no_primality_test, monkeypatch, q):
        def refuse(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(experiments, "_walk_pieces", refuse)
        with pytest.raises(
            DimensionCap, match=f"q={q} exceeds the riemann cap 10007"
        ):
            riemann_experiment(identity_fn(), q)

    def test_the_cap_itself_reaches_the_primality_test(self, no_primality_test):
        with pytest.raises(AssertionError, match="trial division started at q=10007"):
            riemann_experiment(identity_fn(), finite_functions.MAX_SCAN_ORDER)


class TestOrdersPastTheDigitLimit:
    """An order with more digits than the interpreter converts to text is
    still refused with DimensionCap, not a ValueError from the message."""

    Q = 10**5000

    @pytest.fixture(autouse=True)
    def default_limit(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            yield
            return
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(previous)

    def refused(self, call, cap):
        with pytest.raises(DimensionCap) as info:
            call()
        text = str(info.value)
        assert text.endswith(f" exceeds the {cap}")
        if hasattr(sys, "set_int_max_str_digits"):
            assert text.startswith(f"a q of {self.Q.bit_length()} bits ")

    def test_minimize_volume(self):
        self.refused(lambda: minimize_volume(self.Q, 1), "enumeration cap 23")

    def test_optimize_and_report(self):
        config = ExperimentConfig(prime_list=(5, self.Q))
        self.refused(lambda: optimize_and_report(config), "enumeration cap 23")

    def test_riemann_experiment(self):
        self.refused(lambda: riemann_experiment(identity_fn(), self.Q), "riemann cap 10007")

    def test_stirling_table(self):
        self.refused(lambda: stirling_table([5, self.Q]), "stirling cap 10007")
