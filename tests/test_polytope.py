"""Vertex enumeration of the minimal-function polytope, volume optimization,
and the split of nondecreasing minimal functions along gom.

The double-description enumerator is cross-checked against an independent
brute-force oracle that solves every d-subset of reduced inequality rows by
rational Gaussian elimination.
"""

import itertools
from fractions import Fraction as F

import pytest

from groupcut import group_core, polytope
from groupcut import (
    CyclicGroup,
    DimensionCap,
    FiniteGroupFunction,
    NotMinimal,
    NotNondecreasing,
    NotPrime,
    ValidationFailure,
    Violation,
    automorphism_sending,
    build_polytope,
    compose,
    enumerate_vertices,
    expected_min_product,
    gom,
    gomory_decomposition,
    is_minimal,
    md2,
    minimize_volume,
    rearrange_finite,
    volume_product,
)


def solve_square(rows, rhs):
    """Exact Gaussian elimination; None when the system is singular."""
    d = len(rhs)
    aug = [[F(c) for c in row] + [F(r)] for row, r in zip(rows, rhs)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [v / head for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][d] for r in range(d)]


def value_vector(poly, z):
    """Full value vector of a point z of the reduced coordinate space: per
    residue, half its doubled constant plus sign times its free coordinate."""
    return tuple(
        F(const2, 2) + sign * z[j] if sign else F(const2, 2)
        for const2, j, sign in poly.terms
    )


def brute_force_vertices(q, b):
    """All basic feasible solutions of the reduced system, by exhaustion."""
    poly = build_polytope(q, b)
    d = poly.dimension
    rows = list(poly.box_rows) + list(poly.other_rows)
    if d == 0:
        return {value_vector(poly, ())}
    found = set()
    for subset in itertools.combinations(rows, d):
        z = solve_square([r[0] for r in subset], [r[1] for r in subset])
        if z is None:
            continue
        if all(
            sum(c * zj for c, zj in zip(coeffs, z)) >= rhs for coeffs, rhs in rows
        ):
            found.add(value_vector(poly, z))
    return found


class TestBuildPolytope:
    def test_dimension_for_odd_prime_orders(self):
        for q in (3, 5, 7, 11, 13):
            assert build_polytope(q, q - 1).dimension == (q - 3) // 2

    def test_dimension_for_composite_order(self):
        assert build_polytope(9, 8).dimension == 3

    @pytest.mark.parametrize("q", range(2, 12))
    def test_rows_hold_exactly_at_minimal_points(self, q):
        # on a grid reaching just outside the unit box, the reduced rows must
        # accept a point iff its value vector is a nonnegative minimal function
        grid = [F(k, 4) for k in range(-1, 6)]
        for b in range(1, q):
            poly = build_polytope(q, b)
            rows = poly.box_rows + poly.other_rows
            accepted = 0
            for z in itertools.product(grid, repeat=poly.dimension):
                in_rows = all(
                    sum(c * zj for c, zj in zip(coeffs, z)) >= rhs
                    for coeffs, rhs in rows
                )
                values = value_vector(poly, z)
                minimal = min(values) >= 0 and is_minimal(
                    FiniteGroupFunction.from_values(q, b, values)
                ).is_minimal
                assert in_rows == minimal, (q, b, z)
                accepted += in_rows
            assert accepted > 0, (q, b)

    def test_zero_rhs_rejected(self):
        from groupcut import ZeroElement

        with pytest.raises(ZeroElement):
            build_polytope(5, 0)


class TestEnumerateVertices:
    def test_matches_brute_force_oracle(self, vertices_for):
        cases = [(2, 1), (3, 1), (4, 2), (5, 1), (5, 4), (7, 2), (7, 6), (9, 8), (9, 4)]
        for q, b in cases:
            expected = brute_force_vertices(q, b)
            got = {v.values for v in enumerate_vertices(build_polytope(q, b)).vertices}
            assert got == expected, (q, b)

    def test_counts_are_stable(self, vertices_for):
        counts = {q: len(vertices_for(q, q - 1)) for q in (3, 5, 7, 11, 13)}
        assert counts == {3: 1, 5: 2, 7: 4, 11: 18, 13: 40}

    def test_every_vertex_is_minimal(self, vertices_for):
        for q in (3, 5, 7, 11, 13):
            for b in range(1, q):
                for vertex in vertices_for(q, b):
                    assert is_minimal(vertex).is_minimal

    def test_vertices_are_deduplicated_and_sorted(self, vertices_for):
        vertices = vertices_for(11, 10)
        values = [v.values for v in vertices]
        assert values == sorted(set(values))

    def test_functions_are_built_once_from_the_integer_points(self):
        vertex_set = enumerate_vertices(build_polytope(7, 6))
        assert len(vertex_set) == len(vertex_set.vertices) == 4
        assert vertex_set.vertices is vertex_set.vertices
        from_points = sorted(
            tuple(F(n, den) for n in values) for values, den in vertex_set.points
        )
        assert from_points == [v.values for v in vertex_set.vertices]

    def test_order_cap_enforced(self):
        with pytest.raises(DimensionCap):
            enumerate_vertices(build_polytope(37, 36))

    def test_certificate_recomputes_the_tight_rows(self, monkeypatch):
        # a midpoint of two vertices is no vertex: its tight rows have rank
        # below the dimension
        enumerate_reduced = polytope._enumerate_reduced

        def with_midpoint(rows, d):
            vertices = enumerate_reduced(rows, d)
            (un, ud), (wn, wd) = vertices[:2]
            nums = [u * wd + w * ud for u, w in zip(un, wn)]
            return vertices + [polytope._canonical(nums, 2 * ud * wd)]

        monkeypatch.setattr(polytope, "_enumerate_reduced", with_midpoint)
        with pytest.raises(ValidationFailure, match="tight rank below"):
            enumerate_vertices(build_polytope(7, 6))

    def test_certificate_checks_every_row_at_the_point(self, monkeypatch):
        # z = (0, 0) is tight on two box rows, rank 2, but violates
        # subadditivity: its value vector (0, 0, 0, 1/2, 1, 1, 1) is not minimal
        enumerate_reduced = polytope._enumerate_reduced

        def with_origin(rows, d):
            return enumerate_reduced(rows, d) + [((0, 0), 1)]

        poly = build_polytope(7, 6)
        values = value_vector(poly, (F(0), F(0)))
        assert values == (0, 0, 0, F(1, 2), 1, 1, 1)
        assert not is_minimal(FiniteGroupFunction.from_values(7, 6, values)).is_minimal
        monkeypatch.setattr(polytope, "_enumerate_reduced", with_origin)
        with pytest.raises(ValidationFailure, match="violates a row"):
            enumerate_vertices(poly)
        with pytest.raises(ValidationFailure, match="violates a row"):
            minimize_volume(7, 6)

    def test_md2_is_a_strict_convex_combination(self, vertices_for):
        v1, v2 = vertices_for(5, 4)
        mixed = tuple(
            F(2, 5) * a + F(3, 5) * b_
            for a, b_ in zip(gom(5, 4).values, v2.values if v1 == gom(5, 4) else v1.values)
        )
        assert mixed == md2(5, 4).values

    def test_gom_is_a_vertex(self, vertices_for):
        for q in (5, 7, 11):
            assert gom(q, q - 1) in vertices_for(q, q - 1)


class TestMinimizeVolume:
    def test_cap_refuses_before_building_the_polytope(self, monkeypatch):
        def refuse(q, b):
            raise AssertionError(f"polytope built at q={q}")

        monkeypatch.setattr(polytope, "build_polytope", refuse)
        with pytest.raises(DimensionCap, match="q=1009 exceeds the enumeration cap 23"):
            minimize_volume(1009, 1008)

    def test_cap_refuses_before_the_primality_test(self, monkeypatch):
        def refuse(q):
            raise AssertionError(f"trial division started at q={q}")

        monkeypatch.setattr(group_core, "is_prime", refuse)
        with pytest.raises(DimensionCap, match="exceeds the enumeration cap 23"):
            minimize_volume(10**16 + 61, 1)

    def test_reaches_the_predicted_floor(self):
        for q in (3, 5, 7):
            for b in range(1, q):
                result = minimize_volume(q, b)
                assert result.value == expected_min_product(q)
                assert result.unique

    def test_frozen_small_cases(self):
        r5 = minimize_volume(5, 4)
        assert r5.value == F(3, 32) and r5.argmin == gom(5, 4)
        r3 = minimize_volume(3, 1)
        assert r3.value == F(1, 2)
        assert r3.argmin.values == (F(0), F(1), F(1, 2))

    def test_moved_rhs_argmin_matches_composed_gom(self):
        result = minimize_volume(5, 2)
        assert result.argmin.values == (F(0), F(1, 2), F(1), F(1, 4), F(3, 4))

    def test_composite_refused_without_force(self):
        with pytest.raises(NotPrime):
            minimize_volume(9, 8)

    @pytest.mark.parametrize(
        "q, b", [(q, b) for q in (5, 7, 11, 13) for b in range(1, q)] + [(17, 16)]
    )
    def test_argmin_is_true_minimum_over_vertices(self, q, b, vertices_for):
        # the value product of every enumerated vertex, scored as Fractions
        vertices = vertices_for(q, b)
        products = [volume_product(v) for v in vertices]
        best = min(products)
        argmins = [v for v, product in zip(vertices, products) if product == best]
        result = minimize_volume(q, b)
        assert result.value == best
        assert result.argmin == argmins[0]
        assert result.unique == (len(argmins) == 1)
        assert result.n_vertices == len(vertices)

    def test_frontier_order_19(self):
        result = minimize_volume(19, 18)
        assert result.n_vertices == 726 and result.unique
        assert result.value == expected_min_product(19)
        assert rearrange_finite(result.argmin) == gom(19, 18)


class TestGomoryDecomposition:
    def test_md2_frozen_example(self):
        d = gomory_decomposition(md2(5, 4))
        assert d.gamma == F(1, 2)
        assert d.lam == F(1, 6)
        assert d.pi_tilde.values == (F(0), F(11, 20), F(1, 2), F(9, 20), F(1))

    def test_gom_decomposes_to_itself(self):
        for q in (3, 5, 7, 11):
            d = gomory_decomposition(gom(q, q - 1))
            assert d.pi_tilde == gom(q, q - 1)

    def test_reconstruction_is_exact(self):
        pi = md2(7, 6)
        d = gomory_decomposition(pi)
        g = gom(7, 6)
        rebuilt = tuple(
            d.lam * g.values[x] + (1 - d.lam) * d.pi_tilde.values[x]
            for x in range(7)
        )
        assert rebuilt == pi.values

    def test_remainder_is_minimal(self, rng, make_minimal_finite):
        for _ in range(10):
            pi = make_minimal_finite(rng, 7, 6)
            if any(pi.values[x] > pi.values[x + 1] for x in range(6)):
                continue
            d = gomory_decomposition(pi)
            assert is_minimal(d.pi_tilde).is_minimal
            assert 0 < d.lam < 1

    def test_remainder_certificate_scans_the_remainder(self, monkeypatch):
        # the second scan is the certificate on pi_tilde's own values, and a
        # violation it reports refuses the split
        scans = []

        def spy(nums, den, b):
            scans.append(([F(n, den) for n in nums], b))
            if len(scans) == 2:
                yield Violation("symmetry", (0,), F(1))
            yield from real(nums, den, b)

        real = polytope._violations
        pi = md2(7, 6)
        d = gomory_decomposition(pi)
        monkeypatch.setattr(polytope, "_violations", spy)
        with pytest.raises(ValidationFailure) as refused:
            gomory_decomposition(pi)
        assert scans == [(list(pi.values), 6), (list(d.pi_tilde.values), 6)]
        assert str(refused.value) == (
            "split remainder unexpectedly not minimal: "
            "Violation(kind='symmetry', witness=(0,), amount=Fraction(1, 1))"
        )

    def test_lambda_formula(self):
        pi = md2(5, 4)
        d = gomory_decomposition(pi)
        wrap_slacks = [
            pi.values[x] + pi.values[y] - pi.values[x + y - 5]
            for x in range(1, 5)
            for y in range(x, 5)
            if x + y >= 5
        ]
        assert d.gamma == min(wrap_slacks)
        assert d.lam == min(
            [d.gamma * F(4, 5)] + [pi.values[x] / x for x in range(1, 5)]
        )

    def test_two_element_group_splits_evenly(self):
        d = gomory_decomposition(gom(2, 1))
        assert d.lam == F(1, 2)
        assert d.pi_tilde == gom(2, 1)

    def test_decreasing_input_refused(self):
        fn = FiniteGroupFunction.from_values(
            7, 6, [F(0), F(3, 4), F(1, 3), F(1, 2), F(2, 3), F(1, 4), F(1)]
        )
        assert is_minimal(fn).is_minimal
        with pytest.raises(NotNondecreasing):
            gomory_decomposition(fn)

    @pytest.mark.parametrize(
        "values, message",
        [
            (
                [F(1, 5), F(1, 2), F(1, 4), F(1, 2), F(1, 2), F(1, 2), F(1)],
                "Violation(kind='origin', witness=(0,), amount=Fraction(1, 5))",
            ),
            (
                [F(0), F(1, 2), F(1, 4), F(3, 4), F(1, 4), F(3, 4), F(1)],
                "Violation(kind='subadditivity', witness=(2, 4), "
                "amount=Fraction(1, 2))",
            ),
            (
                [F(0), F(3, 5), F(2, 5), F(3, 5), F(3, 5), F(3, 5), F(3, 5)],
                "Violation(kind='symmetry', witness=(0,), amount=Fraction(2, 5))",
            ),
        ],
    )
    def test_non_minimal_decreasing_input_names_the_first_violation(
        self, values, message
    ):
        fn = FiniteGroupFunction.from_values(7, 6, values)
        assert any(values[x] > values[x + 1] for x in range(6))
        assert str(is_minimal(fn).violations[0]) == message
        with pytest.raises(NotMinimal) as refused:
            gomory_decomposition(fn)
        assert str(refused.value) == f"not minimal: {message}"

    def test_wrong_rhs_refused(self):
        with pytest.raises(NotMinimal):
            gomory_decomposition(gom(5, 2))

    def test_composite_order_refused(self):
        with pytest.raises(NotPrime):
            gomory_decomposition(gom(9, 8))


class TestEquivariance:
    def test_vertex_sets_map_onto_each_other(self, vertices_for):
        q = 7
        group = CyclicGroup(q)
        base = set(vertices_for(q, q - 1))
        for b in range(1, q):
            phi = automorphism_sending(group.element(b), group.element(q - 1))
            mapped = {compose(v, phi) for v in base}
            assert mapped == set(vertices_for(q, b))
