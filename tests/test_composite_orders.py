"""Where the prime hypothesis is needed: the minimality polytope at composite
orders.

The optimize layer refuses a composite order, but `build_polytope` and
`enumerate_vertices` need no primality test, so the polytope is enumerated
here directly.  The zero set of a minimal function is a subgroup (pi >= 0
and pi(x + y) <= pi(x) + pi(y)) that avoids b (pi(b) = 1); conversely gom on
the quotient by a subgroup H that avoids b pulls back to a minimal function
that vanishes on H.  So the least value product is 0 exactly when some
nontrivial proper subgroup avoids b: the subgroup of order q/d, for a
divisor 1 < d < q of q, holds b exactly when d divides b.  At the prime
powers, where every such subgroup holds b, the least product is gom(q, b)'s.
"""

import functools

import pytest

from groupcut import build_polytope, enumerate_vertices, gom, volume_product

COMPOSITE = [q for q in range(4, 17) if any(q % d == 0 for d in range(2, q))]


def avoided(q, b):
    """Some nontrivial proper subgroup of Z/qZ avoids b."""
    return any(q % d == 0 and b % d != 0 for d in range(2, q))


@functools.cache
def least_product(q, b):
    vertices = enumerate_vertices(build_polytope(q, b)).vertices
    return min(volume_product(v) for v in vertices)


@pytest.mark.parametrize("q", COMPOSITE)
def test_least_product_is_zero_exactly_when_a_subgroup_avoids_b(q):
    for b in range(1, q):
        assert (least_product(q, b) == 0) == avoided(q, b), (q, b)


def test_prime_powers_where_no_subgroup_avoids_b_reach_gom():
    assert COMPOSITE == [4, 6, 8, 9, 10, 12, 14, 15, 16]
    held = {(q, b) for q in COMPOSITE for b in range(1, q) if not avoided(q, b)}
    assert held == {(4, 2), (8, 4), (9, 3), (9, 6), (16, 8)}
    for q, b in held:
        assert least_product(q, b) == volume_product(gom(q, b)) > 0
