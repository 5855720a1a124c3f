"""Strength criteria: L_p norms, value products, simplex volume, log means."""

import math
import random
from fractions import Fraction as F

import pytest

from groupcut import (
    INFINITE,
    DimensionCap,
    FiniteGroupFunction,
    dantzig,
    gom,
    log_geo_mean,
    lp_norm,
    md2,
    rearrange_finite,
    score_function,
    simplex_volume,
    volume_product,
)
from groupcut import criteria
from groupcut.finite_functions import compose
from groupcut.rationals import MAX_EXPONENT


class TestLpNorm:
    def test_md2_l1_is_half_for_any_order(self):
        for q, b in [(3, 1), (5, 2), (7, 6), (11, 4)]:
            score = lp_norm(md2(q, b), 1)
            assert score.power == F(1, 2)
            assert score.root == 0.5

    def test_gom_l1_is_half(self):
        assert lp_norm(gom(5, 4), 1).power == F(1, 2)

    def test_gom_l2_squared(self):
        assert lp_norm(gom(5, 4), 2).power == F(3, 8)

    def test_md2_higher_powers_follow_closed_form(self):
        for q in (3, 5, 7, 11):
            for p in (2, 3):
                got = lp_norm(md2(q, q - 1), p).power
                assert got == F(1, 2) ** p + (1 - 2 * F(1, 2) ** p) / q

    def test_root_matches_power(self):
        score = lp_norm(gom(7, 3), 3)
        assert score.root == pytest.approx(float(score.power) ** (1 / 3), rel=1e-14)

    def test_every_minimal_function_has_l1_exactly_half(self, vertices_for):
        for b in range(1, 7):
            for vertex in vertices_for(7, b):
                assert lp_norm(vertex, 1).power == F(1, 2)

    def test_power_is_the_fraction_sum(self):
        values = [F(0)] + [F(k, 9 + k) for k in range(1, 11)]
        pi = FiniteGroupFunction.from_values(11, 10, values)
        for p in (1, 2, 5, 17):
            assert lp_norm(pi, p).power == sum(v**p for v in pi.values) / F(11)

    def test_the_cap_admits_its_own_exponent(self):
        p, half = MAX_EXPONENT, F(1, 2)
        assert lp_norm(md2(5, 4), p).power == half**p + (1 - 2 * half**p) / 5


class TestExponentRefusal:
    """A bad exponent is refused before any arithmetic: on a function whose
    stored numerators raise when read, and with the root patched to fail, the
    refusal must still come first."""

    @pytest.fixture(autouse=True)
    def no_arithmetic(self, monkeypatch, unreadable_numerators):
        def fail(*_args):
            raise AssertionError("arithmetic ran before the exponent check")

        monkeypatch.setattr(criteria, "nth_root_float", fail)
        self.pi = unreadable_numerators(gom(5, 4))

    @pytest.mark.parametrize("p", [MAX_EXPONENT + 1, 100000, 10**100])
    def test_above_the_cap(self, p):
        with pytest.raises(DimensionCap, match="exceeds the exponent cap 1000"):
            lp_norm(self.pi, p)

    @pytest.mark.parametrize("p", [1.5, True, F(2), "2"])
    def test_not_an_int(self, p):
        with pytest.raises(TypeError, match="p must be an integer"):
            lp_norm(self.pi, p)

    def test_below_one(self):
        with pytest.raises(ValueError, match="p must be a positive integer"):
            lp_norm(self.pi, 0)


class TestVolumeProduct:
    def test_gom_reaches_the_floor(self):
        assert volume_product(gom(5, 4)) == F(3, 32)
        assert volume_product(gom(3, 1)) == F(1, 2)

    def test_brute_force_example(self):
        fn = FiniteGroupFunction.from_values(
            5, 4, [F(0), F(2, 3), F(1, 2), F(1, 3), F(1)]
        )
        assert volume_product(fn) == F(1, 9)

    def test_invariant_under_automorphism(self):
        for u in range(1, 7):
            assert volume_product(compose(gom(7, 4), u)) == volume_product(gom(7, 4))

    def test_invariant_under_rearrangement(self):
        fn = md2(7, 2)
        assert volume_product(rearrange_finite(fn)) == volume_product(fn)


class TestSimplexVolume:
    def test_examples(self):
        assert simplex_volume(gom(3, 1)) == F(1)
        assert simplex_volume(gom(5, 4)) == F(4, 9)

    def test_zero_value_is_infinite(self):
        fn = FiniteGroupFunction.from_values(3, 2, [F(0), F(0), F(1)])
        assert simplex_volume(fn) == INFINITE


class TestLogGeoMean:
    def test_matches_volume_product_log(self):
        for fn in (gom(5, 4), gom(3, 1), md2(7, 3)):
            expected = math.log(float(volume_product(fn))) / (fn.q - 1)
            assert log_geo_mean(fn) == pytest.approx(expected, abs=1e-12)

    def test_zero_value_is_negative_infinity(self):
        fn = FiniteGroupFunction.from_values(3, 2, [F(0), F(0), F(1)])
        assert log_geo_mean(fn) == float("-inf")

    def test_reference_value(self):
        assert log_geo_mean(gom(5, 4)) == pytest.approx(
            math.log(3 / 32) / 4, abs=1e-12
        )


class TestScoreFunction:
    def test_report_round_trip_fields(self):
        report = score_function(gom(5, 4), ps=(1, 2))
        data = report.to_dict()
        assert data["q"] == 5 and data["b"] == 4
        assert data["lp_norms"]["1"]["power"] == "1/2"
        assert data["volume_product"] == "3/32"
        assert data["simplex_volume"] == "4/9"

    def test_infinite_volume_serialized_as_string(self):
        fn = FiniteGroupFunction.from_values(3, 2, [F(0), F(0), F(1)])
        assert score_function(fn).to_dict()["simplex_volume"] == "Infinite"

    def test_dantzig_scores_dominated_by_md2(self):
        weak = score_function(dantzig(5, 2))
        strong = score_function(md2(5, 2))
        assert weak.volume_product > strong.volume_product
        assert weak.lp_norms[2].power > strong.lp_norms[2].power


def running_product(pi):
    """The value product multiplied out one Fraction at a time."""
    prod = F(1)
    for v in pi.values[1:]:
        prod *= v
    return prod


class TestVolumeProductOnNumerators:
    """volume_product multiplies integer numerators and normalizes once; it
    must equal the running Fraction product exactly."""

    def test_every_vertex_up_to_order_13(self, vertices_for):
        checked = 0
        for q in range(2, 14):
            for b in range(1, q):
                for v in vertices_for(q, b):
                    got = volume_product(v)
                    assert got == running_product(v) and type(got) is F
                    checked += 1
        assert checked > 1000

    def test_random_vectors(self):
        rng = random.Random(74)
        zeros = 0
        for q in (2, 2, 3, 5, 8, 13, 29, 101) * 6:
            dens = (1, 2, 3, 7, 12, 35, 1008)
            values = [F(rng.randint(0, 3 * d), d) for d in rng.choices(dens, k=q)]
            if rng.random() < 0.3:
                values[rng.randrange(1, q)] = F(0)
            pi = FiniteGroupFunction.from_values(q, 1, values)
            got = volume_product(pi)
            assert got == running_product(pi)
            assert repr(got) == repr(running_product(pi))
            zeros += got == 0
        assert zeros > 0

    def test_order_two_and_zero_value(self):
        pi = FiniteGroupFunction.from_values(2, 1, [F(3, 4), F(5, 6)])
        assert volume_product(pi) == F(5, 6)
        pi = FiniteGroupFunction.from_values(3, 1, [F(1, 3), F(0), F(7, 9)])
        assert volume_product(pi) == 0 and type(volume_product(pi)) is F
