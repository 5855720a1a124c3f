"""The integer corner scan on the circle against a plain Fraction corner scan.

`_subadditivity_scan` scales the breakpoint coordinates and the one-sided
limits to integers over their common denominators and compares plain ints.
The oracle below is the exact `Fraction` scan it replaced: the same corners
(breakpoint pairs and difference-aligned pairs) in sorted order, each under
the same realizable limit patterns.  The minimum, the witness with its
pattern, and every violation with its order and exact amount must agree, and
so must `is_minimal_pwl`'s verdict.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from groupcut import (
    MODE_RHS,
    MODE_WRAP,
    MinimalityVerdict,
    PwlTorusFunction,
    Violation,
    build_polytope,
    enumerate_vertices,
    from_finite_function,
    gmi,
    is_minimal_pwl,
    is_nondecreasing,
    md2_torus,
    scaled_gmi,
    subadditivity_slack,
)
from groupcut import torus

RHS = (F(1, 2), F(1, 3), F(2, 5), F(3, 7), F(5, 12))
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 35)


@functools.lru_cache(maxsize=None)
def oracle_scan(fn):
    corners = set()
    for x in fn.breakpoints:
        for y in fn.breakpoints:
            corners.add((x, y))
            corners.add((x, (y - x) % 1))

    def triple(x):
        return fn.left_limit_at(x), fn.value_at(x), fn.right_limit_at(x)

    best, witness, violations = None, (), []
    for x0, y0 in sorted(corners):
        tx, ty, tz = triple(x0), triple(y0), triple((x0 + y0) % 1)
        worst_here = None
        for sx, sy, sz in torus._LIMIT_COMBOS:
            slack = tx[sx] + ty[sy] - tz[sz]
            if best is None or slack < best:
                best, witness = slack, (x0, y0, (sx, sy, sz))
            if slack < 0 and (worst_here is None or slack < worst_here):
                worst_here = slack
        if worst_here is not None:
            violations.append(((x0, y0), -worst_here))
    return best, witness, violations


def oracle_is_minimal_pwl(fn):
    violations = []
    for i, x in enumerate(fn.breakpoints):
        for v in (fn.left_limit_at(x), fn.point_values[i], fn.right_limit_at(x)):
            if v < 0:
                violations.append(Violation("negativity", (i,), -v))
                break
    if fn.value_at(0) != 0:
        violations.append(Violation("origin", (0,), abs(fn.value_at(0))))
    for corner, amount in oracle_scan(fn)[2]:
        violations.append(Violation("subadditivity", corner, amount))
    for witness, amount in torus._symmetry_scan(fn):
        violations.append(Violation("symmetry", witness, amount))
    return MinimalityVerdict(is_minimal=not violations, violations=tuple(violations))


def oracle_is_nondecreasing(fn):
    if any(s < 0 for s, _t in fn.pieces):
        return False
    for i, x in enumerate(fn.breakpoints):
        left, right = fn.left_limit_at(x), fn.right_limit_at(x)
        value = fn.point_values[i]
        if i > 0 and not left <= value <= right:
            return False
        if i == 0 and value > right:
            return False
    return True


def random_fraction(rng, lo=0, hi=2):
    den = rng.choice(DENOMINATORS)
    return F(rng.randint(lo * den, hi * den), den)


def random_function(rng):
    """Breakpoints and pieces with mixed denominators; point values that
    follow the left limit, the right limit, or neither (a jump); either
    symmetry mode."""
    n = rng.randint(1, 6)
    bps = sorted({F(0)} | {random_fraction(rng, 0, 1) % 1 for _ in range(n)})
    pieces = []
    for _ in bps:
        slope = random_fraction(rng, -3, 3) if rng.random() < 0.8 else F(0)
        pieces.append((slope, random_fraction(rng, -1, 2)))
    values = []
    for i, x in enumerate(bps):
        s, t = pieces[i - 1] if i else (F(0), pieces[-1][0] + pieces[-1][1])
        left, right = s * x + t, pieces[i][0] * x + pieces[i][1]
        values.append(rng.choice([left, right, random_fraction(rng, 0, 1)]))
    if rng.random() < 0.5:
        values[0] = F(0)
    shape = (tuple(bps), tuple(pieces), tuple(values))
    if rng.random() < 0.5:
        return PwlTorusFunction(*shape, mode=MODE_WRAP)
    return PwlTorusFunction(*shape, b=F(rng.randint(1, 11), 12), mode=MODE_RHS)


def corpus():
    functions = [gmi(b) for b in RHS] + [md2_torus(b) for b in RHS]
    functions += [scaled_gmi(b, k) for b in RHS for k in range(1, 6)]
    vertices = enumerate_vertices(build_polytope(13, 12)).vertices
    functions += [from_finite_function(v) for v in vertices]
    rng = random.Random(20240)
    functions += [random_function(rng) for _ in range(150)]
    return functions


CORPUS = corpus()


def test_corner_scan_matches_fraction_scan():
    violated = 0
    for fn in CORPUS:
        expected = oracle_scan(fn)
        got = torus._subadditivity_scan(fn)
        assert got == expected
        assert repr(got) == repr(expected)  # Fractions, not ints
        assert subadditivity_slack(fn) == expected[:2]
        violated += bool(expected[2])
    assert 0 < violated < len(CORPUS)


def test_is_minimal_pwl_matches_fraction_scan():
    kinds = Counter()
    for fn in CORPUS:
        expected = oracle_is_minimal_pwl(fn)
        got = is_minimal_pwl(fn)
        assert got == expected
        assert repr(got) == repr(expected)
        kinds.update(v.kind for v in expected.violations)
    assert {"negativity", "origin", "subadditivity", "symmetry"} <= set(kinds)
    assert sum(is_minimal_pwl(fn).is_minimal for fn in CORPUS) >= 40


def test_limits_table_matches_one_sided_limits():
    monotone = Counter()
    for fn in CORPUS:
        assert fn.limits() == tuple(
            (fn.left_limit_at(x), fn.point_values[i], fn.right_limit_at(x))
            for i, x in enumerate(fn.breakpoints)
        )
        expected = oracle_is_nondecreasing(fn)
        assert is_nondecreasing(fn) is expected
        monotone[expected] += 1
    assert monotone[True] > 0 and monotone[False] > 0


@pytest.mark.parametrize("k", [1, 3, 5])
def test_scaled_gmi_scan_is_tight(k):
    # gmi traversed k times is minimal: its least slack is exactly 0
    best, witness = subadditivity_slack(scaled_gmi(F(2, 5), k))
    assert best == 0 and type(best) is F
    assert all(type(c) is F for c in witness[:2])
