"""The vertex certificate of `enumerate_vertices` against direct oracles.

`_packed_slacks` computes every row's slack at every point at once, packed
one field per point, and `_tight_flags` reads from it the first point with a
negative slack and each row's tight flags.  Both must equal the direct
`sum(map(mul, a, nums)) - c * den` per (point, row), on seeded random rows
and points with negative numerators, numerators above the denominator,
slacks at the width bound and at 0, one point, no point and d = 0.

`_has_full_rank` must agree with `_int_rank(rows, d) == d`, where `_int_rank`
is the full fraction-free elimination the certificate used before: a rank
oracle that reads every row.  Injected bad points must raise for the first
one in the enumerator's order, with the certificate's two messages.
"""

from __future__ import annotations

import random
import re
from itertools import compress
from operator import mul

import pytest

from groupcut import ValidationFailure, build_polytope, enumerate_vertices
from groupcut import polytope
from groupcut.polytope import _has_full_rank, _packed_slacks, _tight_flags


def _int_rank(rows, d):
    """Rank of an integer matrix by fraction-free elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(d):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][col] != 0:
                f1, f2 = prow[col], mat[i][col]
                mat[i] = [f1 * a - f2 * b for a, b in zip(mat[i], prow)]
        rank += 1
        if rank == d:
            break
    return rank


def direct_slacks(rows, points):
    """slacks[v][r] for point v and row r."""
    return [[sum(map(mul, a, nums)) - c * den for a, c in rows] for nums, den in points]


def unpacked(width, packed, count):
    """The slacks held in the packed rows, as slacks[v][r]."""
    half = 1 << (width - 1)
    field = (1 << width) - 1
    return [[(row >> v * width & field) - half for row in packed] for v in range(count)]


def check_against_direct(rows, points):
    fields, packed = _packed_slacks(rows, points)
    width = fields.width
    expected = direct_slacks(rows, points)
    assert width % 8 == 0 and len(packed) == len(rows)
    assert all(row >= 0 for row in packed)
    assert unpacked(width, packed, len(points)) == expected
    # each row's fields fill no more than the points' fields
    assert all(row >> width * len(points) == 0 for row in packed)
    first_bad, flags = _tight_flags(rows, points)
    assert first_bad == next(
        (v for v, slacks in enumerate(expected) if min(slacks, default=0) < 0), len(points)
    )
    assert [list(row_flags) for row_flags in flags] == [
        [int(slacks[r] == 0) for slacks in expected] for r in range(len(rows))
    ]
    return expected


def random_case(rng, d, n_rows, n_points, scale):
    rows = []
    for _ in range(n_rows):
        a = tuple(rng.choice([0, 0, 0, 1, -1, 2, -2, rng.randint(-scale, scale)]) for _ in range(d))
        rows.append((a, rng.randint(-scale, scale)))
    points = []
    for _ in range(n_points):
        den = rng.randint(1, scale)
        # negative numerators and numerators above the denominator too
        nums = tuple(rng.randint(-2 * den, 2 * den) for _ in range(d))
        points.append((nums, den))
    return rows, points


@pytest.mark.parametrize("seed", range(12))
def test_packed_slacks_and_flags_match_the_direct_slacks(seed):
    rng = random.Random(seed)
    signs = set()
    for _ in range(40):
        d = rng.randint(0, 6)
        scale = rng.choice([1, 3, 40, 300, 10**6, 10**30])
        rows, points = random_case(rng, d, rng.randint(0, 12), rng.randint(1, 20), scale)
        if d and rows and rng.random() < 0.5:
            # rows through some of the points, so that tight flags occur
            for nums, den in points[:3]:
                a = rng.choice(rows)[0]
                rows.append((tuple(den * x for x in a), sum(map(mul, a, nums))))
        for slacks in check_against_direct(rows, points):
            signs.update((s > 0) - (s < 0) for s in slacks)
    assert signs == {-1, 0, 1}


def test_one_point_no_point_and_no_dimension():
    rng = random.Random(7)
    for d in (0, 1, 4):
        rows, points = random_case(rng, d, 6, 1, 9)
        check_against_direct(rows, points)
    # d = 0: rows are constants, kept (c <= 0) or violated (c > 0)
    rows = [((), -2), ((), 0), ((), 3)]
    assert check_against_direct(rows, [((), 1), ((), 5)]) == [[2, 0, -3], [10, 0, -15]]
    assert check_against_direct([], [((), 1)]) == [[]]
    # rows of reach 0 still leave room for the points' own fields
    assert check_against_direct([((0, 0), 0)], [((1000, -1000), 999)]) == [[0]]
    assert _tight_flags([], [((), 1)]) == (1, [])
    # no point at all
    assert _tight_flags([((1, 0), 0)], []) == (0, [b""])


@pytest.mark.parametrize("bound", [1, 127, 128, 255, 256, 2**15 - 1, 2**15, 10**40])
def test_slacks_at_the_width_bound(bound):
    # row z >= 0 has reach 1, so |slack| <= bound, the largest magnitude, and
    # -bound, 0 and +bound all occur; row z >= -1 has reach 2, and its slacks
    # reach 2 bound
    rows = [((1,), 0)]
    points = [((bound,), 1), ((0,), bound), ((-bound,), bound), ((-bound,), 1)]
    assert check_against_direct(rows, points) == [[bound], [0], [-bound], [-bound]]
    width = _packed_slacks(rows, points)[0].width
    assert 1 << (width - 1) > bound
    rows = [((1,), -1)]
    points = [((bound,), bound), ((-bound,), bound), ((0,), 1), ((-bound,), -bound)]
    assert check_against_direct(rows, points) == [[2 * bound], [0], [1], [-2 * bound]]
    assert _tight_flags(rows, points) == (3, [b"\0\1\0\0"])


def full_rank_reading(rows, d):
    """`_has_full_rank` on rows, and how many rows it read."""
    read = []

    def feed():
        for row in rows:
            read.append(row)
            yield row

    return _has_full_rank(feed(), d), len(read)


@pytest.mark.parametrize("seed", range(8))
def test_rank_test_matches_the_rank_oracle(seed):
    rng = random.Random(100 + seed)
    outcomes = set()
    for _ in range(150):
        d = rng.randint(1, 7)
        rows = [
            tuple(rng.choice([0, 0, 0, 1, -1, 2, -2, rng.randint(-9, 9)]) for _ in range(d))
            for _ in range(rng.randint(0, d + 4))
        ]
        kind = rng.randrange(4)
        if kind == 1 and rows:  # duplicate rows and zero rows
            rows += [rng.choice(rows), tuple([0] * d)]
        elif kind == 2 and len(rows) >= 2:  # a combination of two rows
            u, w = rng.sample(rows, 2)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append(tuple(s * x + t * y for x, y in zip(u, w)))
        elif kind == 3:  # rank deficient: every row zero on one column
            j = rng.randrange(d)
            rows = [row[:j] + (0,) + row[j + 1 :] for row in rows]
        rng.shuffle(rows)
        full = _int_rank(rows, d) == d
        got, read = full_rank_reading(rows, d)
        assert got is full, (rows, d)
        if full:
            # it stops at the first prefix of full rank
            assert read == next(k for k in range(d, len(rows) + 1) if _int_rank(rows[:k], d) == d)
        outcomes.add((full, kind))
    assert {full for full, _kind in outcomes} == {False, True}
    assert len(outcomes) >= 6


def test_rank_test_on_d_zero_and_on_no_rows():
    assert _has_full_rank([], 0) and _has_full_rank([()], 0)
    assert not _has_full_rank([], 3)
    assert not _has_full_rank([(0, 0, 0)] * 4, 3)


def test_the_certificate_agrees_with_the_direct_one_on_every_enumeration():
    # every vertex of every b at q <= 11, and (13, 12): the direct
    # per-vertex certificate passes wherever enumerate_vertices returns
    for q, b in [(q, b) for q in range(2, 12) for b in range(1, q)] + [(13, 12)]:
        poly = build_polytope(q, b)
        rows = list(poly.box_rows) + list(poly.other_rows)
        d = poly.dimension
        found = [point for point, _mask in polytope._enumerate_reduced(rows, d)]
        first_bad, flags = _tight_flags(rows, found)
        assert first_bad == len(found)
        stacked = b"".join(flags)
        for k, slacks in enumerate(direct_slacks(rows, found)):
            assert min(slacks, default=0) >= 0
            tight = [a for (a, _c), s in zip(rows, slacks) if s == 0]
            assert list(compress([a for a, _c in rows], stacked[k :: len(found)])) == tight
            assert _int_rank(tight, d) == d


VIOLATING = (((0, 0), 1), 0b101)  # tight on two box rows, but not minimal


def test_a_violating_point_of_low_rank_is_named_as_violating(monkeypatch):
    # z = (-1, 3) is outside the box and tight on no row at all
    enumerate_reduced = polytope._enumerate_reduced
    monkeypatch.setattr(
        polytope, "_enumerate_reduced", lambda rows, d: enumerate_reduced(rows, d) + [(((-1, 3), 1), 0b11)]
    )
    text = "point (-1, 3)/1 violates a row of the polytope"
    with pytest.raises(ValidationFailure, match=f"^{re.escape(text)}$"):
        enumerate_vertices(build_polytope(7, 6))


def midpoint(vertices):
    ((un, ud), _mask), ((wn, wd), _mask2) = vertices[:2]
    nums = [u * wd + w * ud for u, w in zip(un, wn)]
    return polytope._canonical(nums, 2 * ud * wd)


@pytest.mark.parametrize("violating_first", [True, False])
@pytest.mark.parametrize("at", [0, 2, "end"])
def test_the_first_bad_point_in_enumeration_order_raises(monkeypatch, violating_first, at):
    enumerate_reduced = polytope._enumerate_reduced

    def with_bad_points(rows, d):
        vertices = enumerate_reduced(rows, d)
        # the rank-deficient point carries a full-rank vertex's mask, and
        # the violating one a mask of rank 2: neither mask may be read
        deficient = (midpoint(vertices), vertices[0][1])
        bad = [VIOLATING, deficient] if violating_first else [deficient, VIOLATING]
        k = len(vertices) if at == "end" else at
        return vertices[:k] + bad + vertices[k:]

    poly = build_polytope(7, 6)
    monkeypatch.setattr(polytope, "_enumerate_reduced", with_bad_points)
    if violating_first:
        text = "point (0, 0)/1 violates a row of the polytope"
    else:
        (nums, den) = midpoint(enumerate_reduced(list(poly.box_rows) + list(poly.other_rows), 2))
        text = f"point {nums}/{den} has tight rank below the dimension 2"
    with pytest.raises(ValidationFailure, match=f"^{re.escape(text)}$"):
        enumerate_vertices(poly)


def test_the_certificate_reads_no_mask(monkeypatch):
    enumerate_reduced = polytope._enumerate_reduced
    expected = enumerate_vertices(build_polytope(11, 10)).points

    def with_wrong_masks(rows, d):
        return [(point, k % 3) for k, (point, _mask) in enumerate(enumerate_reduced(rows, d))]

    monkeypatch.setattr(polytope, "_enumerate_reduced", with_wrong_masks)
    assert enumerate_vertices(build_polytope(11, 10)).points == expected
