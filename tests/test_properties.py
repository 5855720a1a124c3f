"""Randomized structural properties: sumset growth on prime-order groups, its
measure-theoretic analogue on the circle, superadditivity of the sublevel
distribution of a minimal function, and equivariance under automorphisms."""

from fractions import Fraction as F

from groupcut import (
    CyclicGroup,
    automorphism_sending,
    compose,
    lp_norm,
    rearrange_finite,
    subadditivity_slack,
    sublevel_measure,
    sublevel_set,
    volume_product,
)
from sumsets import interval_sumset, sumset, union_measure


def random_subset(rng, q):
    size = rng.randrange(1, q + 1)
    return tuple(rng.sample(range(q), size))


def random_interval_union(rng, denom=64, max_parts=3):
    cuts = sorted(rng.sample(range(denom + 1), 2 * rng.randrange(1, max_parts + 1)))
    return tuple(
        (F(cuts[i], denom), F(cuts[i + 1], denom)) for i in range(0, len(cuts), 2)
    )


class TestSumsetGrowth:
    def test_lower_bound_on_prime_orders(self, rng):
        """|A + B| >= min(q, |A| + |B| - 1) whenever the order is prime."""
        for q in (5, 7, 11, 13):
            for _ in range(250):
                a = random_subset(rng, q)
                b = random_subset(rng, q)
                grown = sumset(q, a, b)
                assert len(grown) >= min(q, len(a) + len(b) - 1), (q, a, b)

    def test_intervals_attain_the_bound(self):
        for q in (7, 11):
            for ka in range(1, q):
                for kb in range(1, q):
                    a = range(ka)
                    b = range(kb)
                    assert len(sumset(q, a, b)) == min(q, ka + kb - 1)

    def test_commutativity(self, rng):
        for _ in range(50):
            a = random_subset(rng, 11)
            b = random_subset(rng, 11)
            assert sumset(11, a, b) == sumset(11, b, a)


class TestCircleSumsetGrowth:
    def test_measure_lower_bound_for_interval_unions(self, rng):
        """mu(A + B) >= min(1, mu(A) + mu(B)) for closed interval unions."""
        for _ in range(200):
            a = random_interval_union(rng)
            b = random_interval_union(rng)
            grown = interval_sumset(a, b)
            floor = min(F(1), union_measure(a) + union_measure(b))
            assert union_measure(grown) >= floor, (a, b)

    def test_saturation_covers_the_circle(self):
        grown = interval_sumset([(F(0), F(1, 2))], [(F(1, 2), F(1))])
        assert union_measure(grown) == 1

    def test_degenerate_summand_translates(self, rng):
        for _ in range(50):
            a = random_interval_union(rng)
            shift = F(rng.randrange(64), 64)
            grown = interval_sumset(a, [(shift, shift)])
            assert union_measure(grown) == union_measure(a)

    def test_sublevel_sets_of_minimal_functions(self, rng, make_minimal_pwl):
        """Sublevel sumsets respect both the growth floor and the subadditive
        ceiling: A_alpha + A_beta sits inside the closure of A_{alpha+beta}."""
        for _ in range(4):
            fn = make_minimal_pwl(rng)
            assert subadditivity_slack(fn)[0] >= 0
            for _ in range(25):
                alpha = F(rng.randrange(0, 61), 120)
                beta = F(rng.randrange(0, 61), 120)
                a = sublevel_set(fn, alpha)
                b = sublevel_set(fn, beta)
                grown_measure = union_measure(interval_sumset(a, b))
                assert grown_measure >= min(
                    F(1), union_measure(a) + union_measure(b)
                )
                assert grown_measure <= sublevel_measure(fn, alpha + beta)

    def test_distribution_function_is_superadditive(self, rng, make_minimal_pwl):
        for _ in range(4):
            fn = make_minimal_pwl(rng)
            for _ in range(25):
                alpha = F(rng.randrange(0, 61), 120)
                beta = F(rng.randrange(0, 61), 120)
                lhs = sublevel_measure(fn, alpha) + sublevel_measure(fn, beta)
                assert sublevel_measure(fn, alpha + beta) >= min(F(1), lhs)


class TestAutomorphismEquivariance:
    def test_value_multiset_preserved(self, rng, make_minimal_finite):
        q = 11
        group = CyclicGroup(q)
        for _ in range(20):
            pi = make_minimal_finite(rng, q, rng.randrange(1, q))
            target = group.element(rng.randrange(1, q))
            moved = compose(pi, automorphism_sending(target, pi.b))
            assert moved.b == target
            assert sorted(moved.values) == sorted(pi.values)

    def test_scores_are_invariant(self, rng, make_minimal_finite):
        q = 7
        group = CyclicGroup(q)
        for _ in range(20):
            pi = make_minimal_finite(rng, q, rng.randrange(1, q))
            target = group.element(rng.randrange(1, q))
            moved = compose(pi, automorphism_sending(target, pi.b))
            assert moved.b == target
            assert volume_product(moved) == volume_product(pi)
            for p in (1, 2, 3):
                assert lp_norm(moved, p).power == lp_norm(pi, p).power

    def test_rearrangement_is_invariant(self, rng, make_minimal_finite):
        q = 13
        group = CyclicGroup(q)
        for _ in range(20):
            pi = make_minimal_finite(rng, q, rng.randrange(1, q))
            target = group.element(rng.randrange(1, q))
            moved = compose(pi, automorphism_sending(target, pi.b))
            assert moved.b == target
            assert rearrange_finite(moved) == rearrange_finite(pi)
