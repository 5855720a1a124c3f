"""Numeric helpers: exact coercion, the JSON field reader, big-integer logs,
integer roots."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcut import as_fraction, ln_fraction, nth_root_float
from groupcut.rationals import iroot, json_field


class TestAsFraction:
    def test_coerces_exact_inputs(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction("3/4") == Fraction(3, 4)
        assert as_fraction(Fraction(5, 7)) == Fraction(5, 7)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_booleans(self, flag):
        with pytest.raises(TypeError):
            as_fraction(flag)

    def test_zero_denominator_is_a_value_error_naming_the_value(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            as_fraction("1/0")


class TestJsonField:
    def test_returns_a_value_of_the_asked_kind(self):
        data = {"q": 5, "values": ["0"], "name": "s1", "rhs": True}
        assert json_field(data, "q", int) == 5
        assert json_field(data, "values", list) == ["0"]
        assert json_field(data, "name", str) == "s1"
        assert json_field(data, "rhs") is True  # any kind by default

    @pytest.mark.parametrize(
        "value, kind, expected",
        [
            (True, int, "expected an integer q, got bool"),
            (5.0, int, "expected an integer q, got float"),
            ("5", int, "expected an integer q, got str"),
            ("01", list, "expected a list of q, got str"),
            (None, str, "expected a string q, got NoneType"),
            (["a"], str, "expected a string q, got list"),
        ],
    )
    def test_refuses_another_kind(self, value, kind, expected):
        with pytest.raises(TypeError, match=re.escape(expected)):
            json_field({"q": value}, "q", kind)

    @pytest.mark.parametrize("data", [["q"], "q", 5, None])
    def test_refuses_data_that_is_not_an_object(self, data):
        with pytest.raises(TypeError, match="expected a JSON object"):
            json_field(data, "q")

    def test_missing_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            json_field({}, "q", int)


class TestLnFraction:
    def test_matches_math_log_on_moderate_values(self):
        for num in (1, 2, 3, 17, 1000):
            for den in (1, 2, 7, 997):
                x = Fraction(num, den)
                assert ln_fraction(x) == pytest.approx(
                    math.log(num / den), abs=1e-13
                )

    def test_zero_gives_negative_infinity(self):
        assert ln_fraction(Fraction(0)) == float("-inf")

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            ln_fraction(Fraction(-1, 2))

    def test_big_integers_do_not_overflow(self):
        x = Fraction(math.factorial(300), 7)
        # lgamma(301) = ln(300!) is an independent route to the same number
        assert ln_fraction(x) == pytest.approx(
            math.lgamma(301) - math.log(7), rel=1e-12
        )

    def test_near_one_keeps_tiny_logs_accurate(self):
        eps = Fraction(1, 10**12)
        assert ln_fraction(1 + eps) == pytest.approx(1e-12, rel=1e-9)
        assert ln_fraction(1 - eps) == pytest.approx(-1e-12, rel=1e-9)


class TestIroot:
    @given(st.integers(min_value=0, max_value=10**40), st.integers(1, 6))
    def test_floor_root_property(self, n, p):
        r = iroot(n, p)
        assert r**p <= n < (r + 1) ** p

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)


class TestNthRootFloat:
    def test_exact_cases(self):
        assert nth_root_float(Fraction(1, 4), 2) == 0.5
        assert nth_root_float(Fraction(27), 3) == 3.0
        assert nth_root_float(Fraction(1), 5) == 1.0
        assert nth_root_float(Fraction(0), 3) == 0.0

    @given(
        st.fractions(
            min_value=Fraction(1, 10**6), max_value=Fraction(10**6)
        ),
        st.integers(1, 5),
    )
    def test_close_to_float_power(self, x, p):
        got = nth_root_float(x, p)
        want = float(x) ** (1.0 / p)
        assert got == pytest.approx(want, rel=1e-13)
