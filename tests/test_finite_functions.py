"""Construction, minimality certification and rearrangement on Z/qZ."""

import math
import random
from fractions import Fraction as F
from itertools import repeat

import pytest

from groupcut import (
    CyclicGroup,
    DimensionCap,
    FiniteGroupFunction,
    IdenticallyZero,
    NotAUnit,
    NotPrime,
    NotSubadditive,
    Violation,
    ZeroElement,
    automorphism_sending,
    build_polytope,
    compose,
    dantzig,
    enumerate_vertices,
    gom,
    gomory_decomposition,
    is_minimal,
    lp_norm,
    md2,
    minimize_volume,
    rearrange_finite,
    volume_product,
)
from groupcut import finite_functions
from groupcut.finite_functions import MAX_SCAN_ORDER, _violations


def fractions(*texts):
    return tuple(F(t) for t in texts)


class TestConstructors:
    def test_gom_values(self):
        assert gom(5, 4).values == fractions("0", "1/4", "1/2", "3/4", "1")
        assert gom(3, 1).values == fractions("0", "1", "1/2")
        assert gom(5, 2).values == fractions("0", "1/2", "1", "2/3", "1/3")

    def test_md2_values(self):
        assert md2(5, 2).values == fractions("0", "1/2", "1", "1/2", "1/2")
        assert md2(3, 1).values == gom(3, 1).values
        assert md2(7, 3).values == fractions(
            "0", "1/2", "1/2", "1", "1/2", "1/2", "1/2"
        )

    def test_dantzig_is_all_ones(self):
        assert dantzig(3).values == fractions("1", "1", "1")
        assert dantzig(2).values == fractions("1", "1")

    def test_zero_rhs_rejected(self):
        with pytest.raises(ZeroElement):
            gom(5, 0)
        with pytest.raises(ZeroElement):
            md2(5, 5)
        with pytest.raises(ZeroElement):
            FiniteGroupFunction.from_values(3, 0, [0, 1, 1])

    def test_value_validation(self):
        with pytest.raises(ValueError):
            FiniteGroupFunction.from_values(3, 1, [0, 1])
        with pytest.raises(ValueError):
            FiniteGroupFunction.from_values(3, 1, [0, F(-1, 2), 1])
        with pytest.raises(TypeError):
            FiniteGroupFunction.from_values(3, 1, [0, 0.5, 1])

    def test_call_reduces_mod_q(self):
        fn = gom(5, 4)
        assert fn(6) == fn(1) == F(1, 4)

    def test_from_values_keeps_the_coerced_values(self):
        raw = [0, "1/6", F(2, 4), "2/3", F(5, 6), 1, "1/3"]
        fn = FiniteGroupFunction.from_values(7, 5, raw)
        nums, den = fn.numerators, fn.denominator
        assert "values" in vars(fn)
        assert vars(fn)["values"] == tuple(map(F, nums, repeat(den)))
        assert fn.values is vars(fn)["values"]
        built = FiniteGroupFunction(fn.group, fn.b, nums, den)
        assert "values" not in vars(built)
        assert fn == built and hash(fn) == hash(built) and repr(fn) == repr(built)
        assert fn.values == built.values


class TestMinimality:
    def test_reference_functions_are_minimal(self):
        for q, b in [(3, 1), (5, 2), (5, 4), (7, 3), (9, 5), (12, 7)]:
            assert is_minimal(gom(q, b)).is_minimal
            assert is_minimal(md2(q, b)).is_minimal

    def test_brute_force_example(self):
        fn = FiniteGroupFunction.from_values(
            5, 4, fractions("0", "2/3", "1/2", "1/3", "1")
        )
        assert is_minimal(fn).is_minimal

    def test_dantzig_fails_at_origin(self):
        verdict = is_minimal(dantzig(3, 1))
        assert not verdict.is_minimal
        assert any(v.kind == "origin" for v in verdict.violations)

    def test_subadditivity_witness_exact(self):
        fn = FiniteGroupFunction.from_values(
            5, 4, fractions("0", "1/10", "9/10", "9/10", "1")
        )
        verdict = is_minimal(fn)
        violation = next(
            v for v in verdict.violations if v.kind == "subadditivity"
        )
        assert violation.witness == (1, 1)
        assert violation.amount == F(7, 10)

    def test_symmetry_witness_exact(self):
        fn = FiniteGroupFunction.from_values(
            5, 4, fractions("0", "1/4", "1/2", "1/2", "1")
        )
        verdict = is_minimal(fn)
        violation = next(v for v in verdict.violations if v.kind == "symmetry")
        assert violation.witness == (1,)
        assert violation.amount == F(1, 4)

    def test_another_rhs_changes_verdict(self):
        fn = md2(5, 2)
        assert is_minimal(fn).is_minimal
        assert not is_minimal(at_rhs(fn, 4)).is_minimal

    def test_the_chain_yields_one_violation_at_a_time(self):
        fn = dantzig(5)
        chain = _violations(fn.numerators, fn.denominator, fn.b_residue)
        assert next(chain) == is_minimal(fn).violations[0]

    @pytest.mark.parametrize("b", [0, 5, -5])
    def test_the_constructor_refuses_a_zero_rhs(self, b):
        with pytest.raises(ZeroElement, match="^right-hand side b must be nonzero$"):
            at_rhs(gom(5, 4), b)


def at_rhs(fn, b):
    """fn's values at the right-hand side b, as `check --b` builds them."""
    return FiniteGroupFunction(fn.group, fn.group.element(b), fn.numerators, fn.denominator)


def first_violation(fn):
    """The first element of fn's lazy violation chain, or None."""
    return next(_violations(fn.numerators, fn.denominator, fn.b_residue), None)


def dense(q=503, den=100):
    """A seeded value vector with thousands of violations of every kind."""
    rng = random.Random(q)
    values = [F(0)] + [F(rng.randrange(1, den + 1), den) for _ in range(q - 1)]
    return FiniteGroupFunction.from_values(q, rng.randrange(1, q), values)


class TestViolation:
    """A violation is a named tuple: built in C by the pair scan, it keeps the
    field names, repr, immutability and hashability of a frozen record."""

    def test_fields_by_name_and_repr(self):
        v = Violation("subadditivity", (2, 4), F(1, 2))
        assert (v.kind, v.witness, v.amount) == ("subadditivity", (2, 4), F(1, 2))
        assert repr(v) == (
            "Violation(kind='subadditivity', witness=(2, 4), amount=Fraction(1, 2))"
        )

    @pytest.mark.parametrize("field", ["kind", "witness", "amount"])
    def test_fields_cannot_be_assigned(self, field):
        v = Violation("origin", (0,), F(1, 5))
        with pytest.raises(AttributeError):
            setattr(v, field, None)

    def test_hashable_and_equal_to_the_tuple_of_its_fields(self):
        v = Violation("symmetry", (0,), F(2, 5))
        assert hash(v) == hash(Violation("symmetry", (0,), F(2, 5)))
        assert len({v, Violation("symmetry", (0,), F(2, 5))}) == 1
        assert v == ("symmetry", (0,), F(2, 5))

    def test_scan_builds_violations_with_shared_amounts(self):
        found = is_minimal(dense()).violations
        kinds = {v.kind for v in found}
        assert kinds == {"subadditivity", "symmetry"} and len(found) > 10_000
        assert all(type(v) is Violation for v in found)
        subadditive = [v.amount for v in found if v.kind == "subadditivity"]
        assert len({id(a) for a in subadditive}) == len(set(subadditive))

    @pytest.mark.parametrize(
        "fn",
        [
            dense(),
            dantzig(7, 3),
            FiniteGroupFunction.from_values(
                7, 6, fractions("1/5", "1/2", "1/4", "1/2", "1/2", "1/2", "1")
            ),
        ],
        ids=["dense", "dantzig", "origin"],
    )
    def test_the_chain_s_first_element_is_the_first_of_the_full_list(self, fn):
        full = is_minimal(fn).violations
        assert first_violation(fn) == full[0]


class TestSerialization:
    def test_round_trip_is_exact(self):
        fn = gom(7, 5)
        assert FiniteGroupFunction.from_json(fn.to_json()) == fn

    def test_dict_shape(self):
        data = gom(3, 1).to_dict()
        assert data == {"q": 3, "b": 1, "values": ["0", "1", "1/2"]}


class TestCompose:
    def test_multiplier_two_example(self):
        result = compose(gom(5, 4), 2)
        assert result.values == fractions("0", "1/2", "1", "1/4", "3/4")
        assert result.b_residue == 2

    def test_identity_automorphism(self):
        assert compose(gom(5, 4), 1) == gom(5, 4)

    def test_seven_element_example(self):
        result = compose(gom(7, 6), 2)
        assert result.values == fractions(
            "0", "1/3", "2/3", "1", "1/6", "1/2", "5/6"
        )
        assert result.b_residue == 3

    def test_preserves_minimality(self):
        for u in range(1, 7):
            assert is_minimal(compose(md2(7, 4), u)).is_minimal

    @pytest.mark.parametrize("u", [-3, 9, 2 + 7 * 10**30])
    def test_unit_read_mod_q(self, u):
        assert compose(md2(7, 4), u) == compose(md2(7, 4), u % 7)

    @pytest.mark.parametrize("u", [0, 7, -7])
    def test_zero_unit_refused(self, u):
        with pytest.raises(NotAUnit):
            compose(md2(7, 4), u)

    def test_composite_order_refused(self):
        with pytest.raises(NotPrime):
            compose(md2(9, 4), 2)

    def test_round_trip_through_rhs_change(self):
        g = CyclicGroup(11)
        u = automorphism_sending(g.element(3), g.element(10))
        moved = compose(gom(11, 10), u)
        assert moved.b_residue == 3
        assert compose(moved, pow(u, -1, 11)) == gom(11, 10)

    @pytest.mark.parametrize("q, lam, b", [(101, F(5, 12), 37), (307, F(11, 12), 2)])
    def test_moves_a_blend_to_any_rhs(self, q, lam, b):
        # lam * gom + (1 - lam) * md2 at rhs q-1, moved to rhs b by the unit
        # that sends b to q-1: values[x] = blend[u x], minimal at b
        blend = [lam * F(x, q - 1) + (1 - lam) / 2 for x in range(q)]
        blend[0], blend[q - 1] = F(0), F(1)
        pi0 = FiniteGroupFunction.from_values(q, q - 1, blend)
        g = pi0.group
        u = automorphism_sending(g.element(b), g.element(q - 1))
        assert u == (q - 1) * pow(b, -1, q) % q
        pi = compose(pi0, u)
        assert pi.b_residue == b
        assert pi.values == tuple(blend[u * x % q] for x in range(q))
        assert is_minimal(pi).is_minimal
        assert rearrange_finite(pi) == pi0


class TestRearrangeFinite:
    def test_sorts_value_multiset(self):
        fn = FiniteGroupFunction.from_values(
            5, 2, fractions("0", "1/2", "1", "1/4", "3/4")
        )
        out = rearrange_finite(fn)
        assert out == gom(5, 4)

    def test_gom_is_fixed_point(self):
        assert rearrange_finite(gom(5, 4)) == gom(5, 4)

    def test_md2_example(self):
        out = rearrange_finite(md2(5, 2))
        assert out.values == fractions("0", "1/2", "1/2", "1/2", "1")
        assert out.b_residue == 4

    def test_idempotent(self):
        fn = md2(7, 2)
        once = rearrange_finite(fn)
        assert rearrange_finite(once) == once

    def test_composite_order_refused(self):
        with pytest.raises(NotPrime):
            rearrange_finite(md2(9, 2))

    def test_zero_function_refused(self):
        fn = FiniteGroupFunction.from_values(2, 1, [0, 0])
        with pytest.raises(IdenticallyZero):
            rearrange_finite(fn)

    def test_nonzero_origin_refused(self):
        with pytest.raises(ValueError):
            rearrange_finite(dantzig(5))

    def test_subadditivity_required(self):
        fn = FiniteGroupFunction.from_values(
            5, 4, fractions("0", "1/10", "9/10", "1/2", "1")
        )
        with pytest.raises(NotSubadditive):
            rearrange_finite(fn)


class TestMinimalPositivity:
    def test_minimal_functions_are_positive_away_from_origin(self, vertices_for):
        for q in (5, 7):
            for b in range(1, q):
                for vertex in vertices_for(q, b):
                    assert all(v > 0 for v in vertex.values[1:])


def blend(q, lam):
    """lam * gom(q, q-1) + (1 - lam) * md2(q, q-1): nondecreasing and minimal."""
    values = [lam * F(x, q - 1) + (1 - lam) / 2 for x in range(q)]
    values[0], values[q - 1] = F(0), F(1)
    return FiniteGroupFunction.from_values(q, q - 1, values)


class TestIntegerNumerators:
    """A function holds its values as integer numerators over their least
    common denominator; every scan reads those, and `values` is built from
    them on first access."""

    def test_fields_and_values(self):
        fn = FiniteGroupFunction.from_values(5, 4, ["0", "1/6", F(1, 2), 2, "3/4"])
        assert (fn.numerators, fn.denominator) == ((0, 2, 6, 24, 9), 12)
        assert fn.values == fractions("0", "1/6", "1/2", "2", "3/4")
        assert fn(9) == F(3, 4)

    def test_constructor_keeps_the_canonical_form(self):
        group = CyclicGroup(3)
        fn = FiniteGroupFunction(group, group.element(2), [0, 4, 6], 8)
        assert (fn.numerators, fn.denominator) == ((0, 2, 3), 4)
        assert fn == FiniteGroupFunction.from_values(3, 2, fn.values)
        assert hash(fn) == hash(FiniteGroupFunction.from_values(3, 2, fn.values))

    @pytest.mark.parametrize("nums, den", [((0, -1, 2), 3), ((0, 1, 2), 0), ((0, 1), 1)])
    def test_constructor_refuses_bad_numerators(self, nums, den):
        group = CyclicGroup(3)
        with pytest.raises(ValueError):
            FiniteGroupFunction(group, group.element(1), nums, den)

    def test_no_scan_reads_the_fraction_values(self, monkeypatch):
        pi0 = blend(11, F(5, 12))
        u = 3
        pi = compose(pi0, u)

        def fail(_self):
            raise AssertionError("a scan read the Fraction values")

        monkeypatch.setattr(FiniteGroupFunction, "values", property(fail))
        assert is_minimal(pi).is_minimal
        assert compose(pi, pow(u, -1, 11)).numerators == pi0.numerators
        assert rearrange_finite(pi).numerators == pi0.numerators
        assert gomory_decomposition(pi0).lam > 0
        assert lp_norm(pi, 2).power > 0
        assert volume_product(pi) > 0

    def test_every_internal_path_builds_the_canonical_form(self):
        pi0 = blend(13, F(7, 12))
        built = [
            compose(pi0, 5),
            rearrange_finite(compose(pi0, 5)),
            gomory_decomposition(pi0).pi_tilde,
            *enumerate_vertices(build_polytope(7, 3)).vertices,
            minimize_volume(7, 3).argmin,
            minimize_volume(11, 10).argmin,
        ]
        for fn in built:
            again = FiniteGroupFunction.from_values(fn.q, fn.b_residue, fn.values)
            assert fn == again and hash(fn) == hash(again)
            assert (fn.numerators, fn.denominator) == (again.numerators, again.denominator)
            assert math.gcd(fn.denominator, *fn.numerators) == 1

    def test_vertices_are_sorted_by_value_vector(self):
        vertices = enumerate_vertices(build_polytope(7, 3)).vertices
        assert [v.values for v in vertices] == sorted(v.values for v in vertices)
        assert len({v.denominator for v in vertices}) > 1

    def test_the_cap_comes_before_any_value_is_read(self, monkeypatch):
        def fail(_value):
            raise AssertionError("a value was coerced before the cap")

        monkeypatch.setattr(finite_functions, "as_fraction", fail)
        q = MAX_SCAN_ORDER + 2
        data = {"q": q, "b": 1, "values": ["1/2"] * q}
        with pytest.raises(DimensionCap, match="exceeds the pair-scan cap"):
            FiniteGroupFunction.from_dict(data)
        data["values"] = ["1/2"] * 3  # a wrong count too: the cap still first
        with pytest.raises(DimensionCap, match="exceeds the pair-scan cap"):
            FiniteGroupFunction.from_dict(data)
