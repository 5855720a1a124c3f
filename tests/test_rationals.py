"""Numeric helpers: exact coercion, the JSON field reader, big-integer logs,
integer roots, and the packed-field layout of the big-int scans."""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcut import OutOfRange, as_fraction, ln_fraction, nth_root_float
from groupcut.rationals import (
    FLOAT_HUGE,
    PackedFields,
    fits_float,
    iroot,
    json_field,
    strict_int,
)


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

    @pytest.mark.parametrize("text", ["1e5", "1E-5"])
    def test_refuses_exponent_notation(self, text):
        # Fraction("1e-N") builds 10^N without the int-to-string digit limit
        with pytest.raises(ValueError, match="exponent notation"):
            as_fraction(text)


class TestStrictInt:
    @pytest.mark.parametrize("text, value", [("13", 13), ("-1", -1), ("007", 7)])
    def test_reads_ascii_digits_with_an_optional_minus(self, text, value):
        assert strict_int(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1_3", "\u0661\u0663", "+13", " 13", "13 ", "", "-", "--1", "1.0", "0x1"],
    )
    def test_refuses_what_only_int_reads(self, text):
        with pytest.raises(ValueError, match="expected an integer"):
            strict_int(text)


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

    def test_a_root_no_float_holds_is_refused(self):
        top = Fraction(FLOAT_HUGE)
        assert nth_root_float(top - Fraction(1, 10**400), 1) == 1.7976931348623157e308
        for x, p in ((top, 1), (Fraction(10**400), 1), (Fraction(10**800), 2)):
            with pytest.raises(OutOfRange, match=f"root of index {p} is too large"):
                nth_root_float(x, p)

    def test_roots_between_2_to_960_and_2_to_1024(self):
        # the root scaled by 2^64 is above every float; the root is not
        assert nth_root_float(Fraction(2**2000), 2) == 2.0**1000
        largest = int(sys.float_info.max)  # (2^53 - 1) 2^971, just below 2^1024
        assert nth_root_float(Fraction(largest) ** 2, 2) == sys.float_info.max
        assert nth_root_float(Fraction(largest) ** 3, 3) == sys.float_info.max
        for x, p in ((Fraction(2**2048), 2), (Fraction(2**2048 + 1), 2), (Fraction(2**3100), 3)):
            with pytest.raises(OutOfRange, match=f"root of index {p} is too large"):
                nth_root_float(x, p)

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


def test_fits_float_is_where_float_overflows():
    # half an ulp above the largest float rounds, ties to even, to 2^1024
    top = Fraction(FLOAT_HUGE)
    eps = Fraction(1, 10**400)
    below = [top - eps, -(top - eps), Fraction(1, 2**1100), Fraction(0)]
    assert fits_float(*below) and float(top - eps) == 1.7976931348623157e308
    for x in (top, -top, top + eps, Fraction(10**400)):
        assert not fits_float(Fraction(1), x)
        with pytest.raises(OverflowError):
            float(x)


def test_packed_fields_at_their_boundaries():
    # the fewest whole bytes with 2^(width-1) > bound
    assert PackedFields(3, 0).width == 8
    for k in (1, 2, 3, 17):  # 2^135 is near 10^40
        top = 1 << (8 * k - 1)
        assert PackedFields(3, top - 1).width == 8 * k
        assert PackedFields(3, top).width == 8 * (k + 1)
    assert PackedFields(1, 10**40).width == 136 and (10**40).bit_length() == 133

    empty = PackedFields(0, 5)
    assert (empty.ones, empty.tops, empty.mask) == (0, 0, 0)
    assert empty.pack([]) == 0 and empty.low_bytes(0) == b""
    one = PackedFields(1, 5)
    assert (one.ones, one.half, one.tops, one.mask) == (1, 128, 128, 255)

    # biased fields of negative values unpack to the values
    values = [-300, 0, 299, -1, 300]
    fields = PackedFields(len(values), 300)
    assert (fields.width, fields.half) == (16, 1 << 15)
    packed = fields.pack(values, 300)
    field = (1 << fields.width) - 1
    assert [(packed >> i * fields.width & field) - 300 for i in range(5)] == values
    assert fields.mask == sum(field << i * fields.width for i in range(5))
    assert fields.tops == fields.half * fields.ones
    # one byte per field, the low one
    packed = fields.pack([1, 0, 258, 255, 0x1234])
    assert fields.low_bytes(packed) == bytes([1, 0, 2, 255, 0x34])
