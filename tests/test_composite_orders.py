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

There the minimizers are counted against the images of gom(q, b) under the
units u with u b = b, x -> pi(u x): every image is a minimizer, and at
q = 8 and 16 there are minimizers that are not images.  Whether the images
are all the minimizers at every odd prime power is not claimed.
"""

import functools
import math

import pytest

from groupcut import (
    FiniteGroupFunction,
    build_polytope,
    enumerate_vertices,
    gom,
    volume_product,
)

COMPOSITE = [q for q in range(4, 17) if any(q % d == 0 for d in range(2, q))]


def avoided(q, b):
    """Some nontrivial proper subgroup of Z/qZ avoids b."""
    return any(q % d == 0 and b % d != 0 for d in range(2, q))


@functools.cache
def minimizers(q, b):
    """The least value product over the vertices at (q, b), and the set of
    vertices that attain it."""
    vertices = enumerate_vertices(build_polytope(q, b)).vertices
    products = [volume_product(v) for v in vertices]
    least = min(products)
    return least, {v for v, product in zip(vertices, products) if product == least}


def least_product(q, b):
    return minimizers(q, b)[0]


def unit_images(pi):
    """The distinct functions x -> pi(u x) over the units u of Z/qZ with
    u b = b, each at pi's own rhs b."""
    q, b, nums = pi.q, pi.b_residue, pi.numerators
    units = [u for u in range(1, q) if math.gcd(u, q) == 1 and u * b % q == b]
    return {
        FiniteGroupFunction(pi.group, pi.b, [nums[u * x % q] for x in range(q)], pi.denominator)
        for u in units
    }


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


@pytest.mark.parametrize(
    ("q", "b", "count", "images"),
    [(4, 2, 1, 1), (8, 4, 4, 2), (9, 3, 3, 3), (9, 6, 3, 3), (16, 8, 8, 4)],
)
def test_prime_power_minimizers_against_the_unit_images_of_gom(q, b, count, images):
    _least, found = minimizers(q, b)
    carried = unit_images(gom(q, b))
    assert (len(found), len(carried)) == (count, images)
    assert carried <= found
