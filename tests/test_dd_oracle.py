"""The double description against the adjacency scan it replaced.

`_enumerate_reduced` gives each new vertex the tight set it inherits from the
pair that made it, (mu & mw) | bit, and tests adjacency with incidence
bitsets ANDed over the pair's common tight rows.  The oracle below is the
earlier loop: every new point's tight set is recomputed by dot products with
every processed row (by the oracle's own `slack`, not the enumerator's),
and a pair is adjacent when no other current vertex mask
contains its common tight set.  The enumerator returns its points only; they
must be the oracle's once sorted, on prime and composite orders and on
canonical and non-canonical rhs.  A wrong inherited tight set would show
there: it admits a pair that is not adjacent, whose combination is no
vertex, or drops one that is, and with it a vertex.

Each vertex keeps one slot for its life, and a cut vertex's slot goes to a
later new vertex; the second test compares every row prefix's vertex set,
so that every reused slot is read back, and checks that no point comes
back twice.  `_canonical` is checked against `Fraction` reduction on
signed numerator vectors and on the empty one.

`_partners` finds the candidate pairs from the incidence bitsets alone; the
partner-screen test checks it, on the vertex set before every cutting row,
against the pair-by-pair count of common tight rows.  The last test checks
that the sparse-first row order `build_polytope` emits, the lexicographic order and
seeded shuffles all enumerate the same points.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from groupcut import build_polytope
from groupcut.polytope import _canonical, _enumerate_reduced, _partners


def slack(a, nums, rhs, den):
    """a . z - rhs at the point z = nums / den, scaled by den > 0."""
    total = -rhs * den
    for coeff, n in zip(a, nums):
        total += coeff * n
    return total


def oracle_enumerate(rows, d):
    if d == 0:
        mask = 0
        for idx, (_a, c) in enumerate(rows):
            if c > 0:
                return []
            if c == 0:
                mask |= 1 << idx
        return [(((), 1), mask)]

    def full_mask(nums, den, upto):
        mask = 0
        for idx in range(upto + 1):
            a, c = rows[idx]
            if slack(a, nums, c, den) == 0:
                mask |= 1 << idx
        return mask

    vertices = {}
    for code in range(1 << d):
        nums = tuple((code >> j) & 1 for j in range(d))
        vertices[(nums, 1)] = full_mask(nums, 1, 2 * d - 1)

    for idx in range(2 * d, len(rows)):
        a, c = rows[idx]
        bit = 1 << idx
        pos, zero, neg = [], [], []
        for v, mask in vertices.items():
            s = slack(a, v[0], c, v[1])
            if s > 0:
                pos.append((v, mask, s))
            elif s == 0:
                zero.append((v, mask))
            else:
                neg.append((v, mask, s))
        if not neg:
            for v, mask in zero:
                vertices[v] = mask | bit
            continue
        if not pos and not zero:
            return []
        masks = list(vertices.values())
        new_points = {}
        for u, mu, su in pos:
            for w, mw, sw in neg:
                common = mu & mw
                if common.bit_count() < d - 1:
                    continue
                if any(m != mu and m != mw and (common & m) == common for m in masks):
                    continue
                nums = [su * wn - sw * un for un, wn in zip(u[0], w[0])]
                point = _canonical(nums, su * w[1] - sw * u[1])
                if point not in new_points:
                    new_points[point] = full_mask(point[0], point[1], idx)
        survivors = {v: mask for v, mask, _s in pos}
        survivors.update((v, mask | bit) for v, mask in zero)
        survivors.update(new_points)
        vertices = survivors

    last = len(rows) - 1
    return [(v, full_mask(v[0], v[1], last)) for v in vertices]


@pytest.mark.parametrize(
    "q, b", [(9, 4), (11, 10), (13, 5), (13, 12), (15, 7), (16, 15), (17, 16)]
)
def test_double_description_matches_adjacency_scan(q, b):
    poly = build_polytope(q, b)
    rows = list(poly.box_rows) + list(poly.other_rows)
    got = sorted(_enumerate_reduced(rows, poly.dimension))
    expected = sorted(point for point, _mask in oracle_enumerate(rows, poly.dimension))
    assert len(expected) > 1
    assert got == expected


@pytest.mark.parametrize("q, b", [(9, 4), (11, 10), (13, 5), (13, 12)])
def test_every_row_prefix_matches_the_oracle_with_distinct_points(q, b):
    # a cut vertex's slot is reused by a later new vertex: every prefix's
    # vertex set, read back from the slots, must be the oracle's, each point once
    poly = build_polytope(q, b)
    rows = list(poly.box_rows) + list(poly.other_rows)
    d = poly.dimension
    for idx in range(2 * d, len(rows) + 1):
        got = _enumerate_reduced(rows[:idx], d)
        assert sorted(got) == sorted(point for point, _mask in oracle_enumerate(rows[:idx], d))
        assert len(set(got)) == len(got)


def test_canonical_form_is_fraction_reduction():
    rng = random.Random(7)
    cases = [([], 1), ([], 6)]
    for d in range(1, 6):
        for _ in range(40):
            den = rng.randint(1, 60) * rng.choice((1, 2, 6))
            cases.append(([rng.randint(-90, 90) * rng.choice((1, den)) for _ in range(d)], den))
    cases.append(([0, 0, 0], 8))
    for nums, den in cases:
        got_nums, got_den = _canonical(nums, den)
        fracs = [Fraction(n, den) for n in nums]
        expected_den = math.lcm(*(f.denominator for f in fracs))
        assert got_den == expected_den
        assert got_nums == tuple(int(f * expected_den) for f in fracs)


@pytest.mark.parametrize("q, b", [(13, 12), (13, 5), (17, 16), (17, 3)])
def test_partner_screen_keeps_exactly_the_pairs_with_d_minus_1_common_rows(q, b):
    poly = build_polytope(q, b)
    rows = list(poly.box_rows) + list(poly.other_rows)
    d = poly.dimension
    smaller_sides = set()
    most_tight = 0
    for idx in range(2 * d, len(rows)):
        # the oracle's vertex set before row idx, each mask its recomputed
        # tight set (the tests above check the enumerator's points against it)
        vertices = oracle_enumerate(rows[:idx], d)
        a, c = rows[idx]
        slacks = [slack(a, nums, c, den) for (nums, den), _mask in vertices]
        pos = [k for k, s in enumerate(slacks) if s > 0]
        neg = [k for k, s in enumerate(slacks) if s < 0]
        if not pos or not neg:
            continue
        smaller_sides.add("pos" if len(pos) <= len(neg) else "neg")
        masks = [mask for _point, mask in vertices]
        incidence = [0] * idx
        for k, mask in enumerate(masks):
            for r in range(idx):
                if mask >> r & 1:
                    incidence[r] |= 1 << k
        for outer, inner in ((pos, neg), (neg, pos)):
            inner_set = sum(1 << k for k in inner)
            for i in outer:
                most_tight = max(most_tight, masks[i].bit_count())
                expected = sum(
                    1 << k for k in inner if (masks[i] & masks[k]).bit_count() >= d - 1
                )
                assert _partners(masks[i], inner_set, incidence, d - 1) == expected
    assert smaller_sides == {"pos", "neg"}
    # degenerate outer vertices: up to d + 14 tight rows at (17, 3)
    assert most_tight >= 2 * d


@pytest.mark.parametrize("q, b", [(13, 12), (13, 5), (17, 16)])
def test_row_order_changes_no_vertex(q, b):
    # build_polytope lists the rows sparse first; the lexicographic order and
    # seeded shuffles must enumerate the same points
    poly = build_polytope(q, b)
    rows = list(poly.other_rows)
    assert rows == sorted(rows, key=lambda row: (sum(c != 0 for c in row[0]), row))
    orders = [rows, sorted(rows)]
    for seed in (1, 2, 3):
        shuffled = rows[:]
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    assert orders[0] != orders[1]
    box, d = list(poly.box_rows), poly.dimension
    point_sets = [
        sorted(_enumerate_reduced(box + order, d))
        for order in orders
    ]
    assert len(point_sets[0]) > 1
    assert all(points == point_sets[0] for points in point_sets)
