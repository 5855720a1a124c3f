"""The circle layer's integer scans and one-sweep profile against plain
Fraction oracles.

`_subadditivity_scan` scales the breakpoint coordinates and the one-sided
limits to integers over their common denominators and compares plain ints.
`oracle_scan` is the exact `Fraction` scan it replaced: the same corners
(breakpoint pairs and difference-aligned pairs) in sorted order, each under
the same realizable limit patterns.  The minimum, the witness with its
pattern, and every violation with its order and exact amount must agree, and
so must `is_minimal_pwl`'s verdict.  `is_minimal_pwl` screens on the packed
grid before it scans: the screen must be clean exactly when the scan finds
no violation, and the verdict must be the scan-only one.

`_symmetry_scan` evaluates pi(x) + pi(partner(x)) on integer coordinates;
`oracle_symmetry_scan` is the `Fraction` scan with `value_at` it replaced.
`sublevel_profile` reads the profile off one integer sweep over the levels;
`oracle_profile` fits each level interval through two exact sublevel
measures, as the profile was built before.  `rearrange_torus` and
`tilde_fn` read the inverse straight off the sweep's rows; `oracle_rearrange`
and `oracle_tilde` are the `Fraction` inversion of `oracle_profile` they
replaced, and `layer_cake_check` runs on `oracle_profile` patched in.  All
three must return what they return on the new code, failures included.

The oracles read `value_at`, `left_limit_at` and `right_limit_at`, which on
a breakpoint read the `limits()` table that one walk along the pieces
builds; `direct_limits` checks all four against their definition from the
pieces in `Fraction`s.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from collections import Counter
from fractions import Fraction as F
from operator import sub

import pytest

from groupcut import (
    MODE_RHS,
    MODE_WRAP,
    MinimalityVerdict,
    NotMinimal,
    PwlTorusFunction,
    ValidationFailure,
    Violation,
    build_polytope,
    enumerate_vertices,
    from_finite_function,
    gmi,
    identity_fn,
    is_minimal_pwl,
    is_nondecreasing,
    layer_cake_check,
    md2_torus,
    rearrange_torus,
    scaled_gmi,
    subadditivity_slack,
    sublevel_measure,
    sublevel_profile,
    tilde_fn,
)
from groupcut import experiments, riemann_experiment, torus

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
            violations.append(Violation("subadditivity", (x0, y0), -worst_here))
    return best, witness, violations


def oracle_symmetry_scan(fn):
    def partner(x):
        return (fn.b - x) % 1 if fn.mode == MODE_RHS else (-x) % 1

    special = {F(0)} | ({fn.b} if fn.mode == MODE_RHS else set())
    grid = set(fn.breakpoints) | special
    grid |= {partner(x) for x in grid}
    refined = sorted(grid)
    violations = []
    for r in refined:
        if fn.mode == MODE_WRAP and r == 0:
            continue
        gap = fn.value_at(r) + fn.value_at(partner(r)) - 1
        if gap != 0:
            violations.append(Violation("symmetry", (r,), abs(gap)))
    endpoints = refined + [F(1)]
    for u, v in zip(endpoints, endpoints[1:]):
        for t in (u + (v - u) / 3, u + 2 * (v - u) / 3):
            gap = fn.value_at(t) + fn.value_at(partner(t)) - 1
            if gap != 0:
                violations.append(Violation("symmetry", (t,), abs(gap)))
    return violations


def oracle_profile(fn):
    torus._assert_nonnegative(fn)
    levels = {F(0)}
    for i, (s, t) in enumerate(fn.pieces):
        u, v = fn.piece_domain(i)
        levels.add(s * u + t)
        levels.add(s * v + t)
    alphas = sorted(levels)
    pieces = []
    for a_lo, a_hi in zip(alphas, alphas[1:]):
        t1 = a_lo + (a_hi - a_lo) / 3
        t2 = a_lo + 2 * (a_hi - a_lo) / 3
        m1, m2 = sublevel_measure(fn, t1), sublevel_measure(fn, t2)
        slope = (m2 - m1) / (t2 - t1)
        intercept = m1 - slope * t1
        assert slope * a_lo + intercept == sublevel_measure(fn, a_lo)
        pieces.append((slope, intercept))
    assert sublevel_measure(fn, alphas[-1]) == 1
    return torus.SublevelProfile(alphas=tuple(alphas), pieces=tuple(pieces))


def oracle_rearrange(fn):
    """The generalized inverse of `oracle_profile`, swept in alpha: affine
    stretches invert to affine pieces, jumps to constants and plateaus to
    jumps (no segment); left continuous away from 0, and 0 at the origin."""
    profile = oracle_profile(fn)
    segments = []  # (x0, alpha0, slope)
    x_cur = profile.measure_at(0)
    if x_cur > 0:
        segments.append((F(0), F(0), F(0)))
    bounds = list(zip(profile.alphas, profile.alphas[1:]))
    for (a_lo, a_hi), (s, t) in zip(bounds, profile.pieces):
        left_val = s * a_lo + t
        if left_val < x_cur:
            raise ValidationFailure(
                f"sublevel profile decreases at level {a_lo}: {left_val} < {x_cur}"
            )
        if left_val > x_cur:
            segments.append((x_cur, a_lo, F(0)))
            x_cur = left_val
        if s > 0:
            segments.append((x_cur, a_lo, 1 / s))
            x_cur = s * a_hi + t
    if x_cur < 1:
        segments.append((x_cur, profile.alpha_max, F(0)))
    pieces = [(slope, alpha0 - slope * x0) for x0, alpha0, slope in segments]
    point_values = [F(0)] + [
        s * x0 + t for (s, t), (x0, _a, _s) in zip(pieces, segments[1:])
    ]
    return PwlTorusFunction(
        tuple(x0 for x0, _a, _s in segments),
        tuple(pieces),
        tuple(point_values),
        mode=MODE_WRAP,
    )


def oracle_tilde(fn):
    """The average of `oracle_rearrange` and its right limits, read back from
    the built function's `limits()`."""
    verdict = oracle_is_minimal_pwl(fn)
    if not verdict.is_minimal:
        raise NotMinimal(f"not minimal: {verdict.violations[0]}")
    h = oracle_rearrange(fn)
    point_values = [F(0)] + [(v + r) / 2 for _l, v, r in h.limits()[1:]]
    return PwlTorusFunction(
        h.breakpoints, h.pieces, tuple(point_values), mode=MODE_WRAP
    )


def oracle_is_minimal_pwl(fn):
    violations = []
    for i, x in enumerate(fn.breakpoints):
        for v in (fn.left_limit_at(x), fn.point_values[i], fn.right_limit_at(x)):
            if v < 0:
                violations.append(Violation("negativity", (i,), -v))
                break
    if fn.value_at(0) != 0:
        violations.append(Violation("origin", (0,), abs(fn.value_at(0))))
    violations += oracle_scan(fn)[2] + oracle_symmetry_scan(fn)
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


def with_point_values(rng, bps, pieces):
    """Point values that follow the left limit, the right limit, or neither
    (a jump); either symmetry mode."""
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


def random_function(rng):
    """Breakpoints and pieces with mixed denominators."""
    n = rng.randint(1, 6)
    bps = sorted({F(0)} | {random_fraction(rng, 0, 1) % 1 for _ in range(n)})
    pieces = []
    for _ in bps:
        slope = random_fraction(rng, -3, 3) if rng.random() < 0.8 else F(0)
        pieces.append((slope, random_fraction(rng, -1, 2)))
    return with_point_values(rng, bps, pieces)


def unit_function(rng):
    """Values within [0, 1]: pieces drawn by their end values, a third of
    them constant (zero included)."""
    n = rng.randint(1, 6)
    bps = sorted({F(0)} | {random_fraction(rng, 0, 1) % 1 for _ in range(n)})
    pieces = []
    for u, v in zip(bps, bps[1:] + [F(1)]):
        start = random_fraction(rng, 0, 1)
        end = start if rng.random() < 0.3 else random_fraction(rng, 0, 1)
        slope = (end - start) / (v - u)
        pieces.append((slope, start - slope * u))
    return with_point_values(rng, bps, pieces)


def step_functions():
    """A zero set of positive measure, a staircase with jumps, and two
    constant pieces at one level on either side of a ramp."""
    half, third = F(1, 2), F(1, 3)
    return [
        PwlTorusFunction((F(0), half), ((F(0), F(0)), (F(0), F(1))), b=half),
        PwlTorusFunction(
            (F(0), third, 2 * third),
            ((F(0), F(1, 4)), (F(0), F(3, 4)), (F(0), F(1, 4))),
            (F(0), F(1), F(1, 2)),
            b=third,
        ),
        PwlTorusFunction(
            (F(0), F(1, 4), F(3, 4)),
            ((F(0), half), (F(2), F(-1, 2)), (F(0), half)),
            mode=MODE_WRAP,
        ),
    ]


def corpus():
    functions = [gmi(b) for b in RHS] + [md2_torus(b) for b in RHS]
    functions += [scaled_gmi(b, k) for b in RHS for k in range(1, 6)]
    functions += [identity_fn()] + step_functions()
    vertices = enumerate_vertices(build_polytope(13, 12)).vertices
    functions += [from_finite_function(v) for v in vertices]
    rng = random.Random(20240)
    functions += [random_function(rng) for _ in range(150)]
    functions += [unit_function(rng) for _ in range(100)]
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


def test_symmetry_scan_matches_fraction_scan():
    violated = 0
    for fn in CORPUS:
        expected = oracle_symmetry_scan(fn)
        got = list(torus._symmetry_scan(fn))
        assert got == expected
        assert repr(got) == repr(expected)  # Fractions, not ints
        violated += bool(expected)
    assert 0 < violated < len(CORPUS)


def outcome(call, fn):
    """repr of the result, or the type and message of the exception."""
    try:
        return repr(call(fn))
    except Exception as exc:  # failures must agree too
        return f"{type(exc).__name__}: {exc}"


def test_sublevel_profile_matches_three_point_fit():
    profiled = 0
    for fn in CORPUS:
        expected = outcome(oracle_profile, fn)
        assert outcome(sublevel_profile, fn) == expected
        if not expected.startswith("ValueError"):
            got = sublevel_profile(fn)
            assert got.alphas == oracle_profile(fn).alphas
            assert got.pieces == oracle_profile(fn).pieces
            profiled += 1
    assert 100 < profiled < len(CORPUS)


def test_rearrangement_and_layer_cake_match_the_oracles(monkeypatch):
    calls = (rearrange_torus, tilde_fn, layer_cake_check)
    got = [[outcome(call, fn) for call in calls] for fn in CORPUS]
    monkeypatch.setattr(torus, "sublevel_profile", oracle_profile)
    oracles = (oracle_rearrange, oracle_tilde, layer_cake_check)
    expected = [[outcome(call, fn) for call in oracles] for fn in CORPUS]
    assert got == expected
    kinds = Counter(o.split(":")[0] if ": " in o else "ok" for row in got for o in row)
    assert kinds["ok"] > 200 and kinds["NotMinimal"] and kinds["ValueError"]
    assert any("inf" in row[2] for row in got)  # a zero set of positive measure


def test_rearrangement_reads_one_sweep_and_no_profile(monkeypatch):
    sweeps, asked = [], []
    sweep, limits = torus._sublevel_sweep, PwlTorusFunction.limits

    def refused(*args):
        raise AssertionError("the rearrangement reads the sweep's rows")

    def counted(calls, call):
        return lambda fn: calls.append(fn) or call(fn)

    monkeypatch.setattr(torus, "_sublevel_sweep", counted(sweeps, sweep))
    monkeypatch.setattr(PwlTorusFunction, "limits", counted(asked, limits))
    monkeypatch.setattr(torus, "sublevel_profile", refused)
    monkeypatch.setattr(torus.SublevelProfile, "measure_at", refused)
    minimal = [fn for fn in CORPUS if is_minimal_pwl(fn).is_minimal]
    for fn in minimal:
        for call in (rearrange_torus, tilde_fn):
            sweeps.clear()
            asked.clear()
            call(fn)
            # one sweep, and limits() only of the input, never of a result
            assert len(sweeps) == 1 and sweeps[0] is fn
            assert all(f is fn for f in asked)
    assert len(minimal) >= 40


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


# `limits()` is one `_walk_pieces` at the breakpoints, and `value_at`,
# `left_limit_at` and `right_limit_at` read its entry on a breakpoint and the
# piece off one.  Their oracle is the definition from the pieces in Fractions.


def direct_limits(fn, x):
    """(left limit, value, right limit) of fn at x in [0, 1): on breakpoint
    i, piece i-1 at x (the last piece at 1 when i = 0), the point value and
    piece i at x; off the breakpoints, the value of the piece three times."""
    i = bisect.bisect_right(fn.breakpoints, x) - 1
    s, t = fn.pieces[i]
    right = s * x + t
    if fn.breakpoints[i] != x:
        return right, right, right
    s_left, t_left = fn.pieces[i - 1]
    left = s_left * x + t_left if i else s_left + t_left
    return left, fn.point_values[i], right


def with_a_dropped_breakpoint(fn):
    """fn with a breakpoint added a third of the way into its first piece,
    where that piece continues unchanged, so that the canonical form drops
    it; and that point."""
    (s, t), (u, v) = fn.pieces[0], fn.piece_domain(0)
    x = u + (v - u) / 3
    padded = PwlTorusFunction(
        fn.breakpoints[:1] + (x,) + fn.breakpoints[1:],
        fn.pieces[:1] + fn.pieces,
        fn.point_values[:1] + (s * x + t,) + fn.point_values[1:],
        b=fn.b,
        mode=fn.mode,
    )
    return padded, x


def test_one_sided_limits_match_the_direct_definition():
    seen = Counter()
    for fn in CORPUS:
        assert fn.limits() == tuple(direct_limits(fn, x) for x in fn.breakpoints)
        padded, dropped = with_a_dropped_breakpoint(fn)
        assert padded == fn and padded.limits() == fn.limits()
        middles = [sum(fn.piece_domain(i)) / 2 for i in range(len(fn.pieces))]
        for x in (*fn.breakpoints, *middles, dropped):
            expected = direct_limits(fn, x)
            for g, at in ((fn, x), (fn, x - 1), (padded, x)):
                got = (g.left_limit_at(at), g.value_at(at), g.right_limit_at(at))
                assert got == expected and all(type(v) is F for v in got)
        seen[fn.mode] += 1
        seen["negative"] += min(map(min, fn.limits())) < 0
        seen["origin jump"] += fn.limits()[0][0] != fn.limits()[0][2]
        seen["mixed"] += len({x.denominator for x in fn.breakpoints[1:]}) > 1
    kinds = (MODE_RHS, MODE_WRAP, "negative", "origin jump", "mixed")
    assert all(seen[kind] for kind in kinds), seen


# `is_minimal_pwl` screens subadditivity on the packed grid p/dx and runs the
# corner scan only when the screen flags a row or does not run
# (dx > n min(n, 100)).
# The screen's verdict must be exactly "the scan finds no violation", and the
# verdict with the screen must be the scan-only verdict, repr for repr.


def grid_function(rng, n, dx):
    """n breakpoints on the grid p/dx, 1/dx among them so that dx is their
    lcm; slopes and intercepts with mixed denominators, negative values
    included; point values that follow a limit or jump, at the origin too;
    either symmetry mode."""
    bps = {F(0), F(1, dx)} if n > 1 else {F(0)}
    while len(bps) < n:
        bps.add(F(rng.randrange(dx), dx))
    bps = sorted(bps)
    pieces = []
    for _ in bps:
        slope = random_fraction(rng, -3, 3) if rng.random() < 0.7 else F(0)
        pieces.append((slope, random_fraction(rng, -1, 2)))
    values = []
    for i, x in enumerate(bps):
        s, t = pieces[i - 1] if i else (F(0), pieces[-1][0] + pieces[-1][1])
        left, right = s * x + t, pieces[i][0] * x + pieces[i][1]
        values.append(rng.choice([left, right, random_fraction(rng, -1, 2)]))
    if rng.random() < 0.3:
        values[0] = F(0)
    shape = (tuple(bps), tuple(pieces), tuple(values))
    if rng.random() < 0.5:
        return PwlTorusFunction(*shape, mode=MODE_WRAP)
    return PwlTorusFunction(*shape, b=F(rng.randint(1, 2 * dx - 1), 2 * dx), mode=MODE_RHS)


def nearly_subadditive(rng, n, dx, clean=False):
    """A grid function with every limit and point value in [1, 2] and 0 at
    the origin, which is subadditive, then, unless `clean`, one or two of its
    point values or piece ends moved into [-1/2, 3]: few violations, often
    under one pattern, some at extreme slacks."""
    fn = grid_function(rng, n, dx)
    bps, ends = list(fn.breakpoints), []
    for _ in bps:
        ends.append([F(1) + random_fraction(rng, 0, 1), F(1) + random_fraction(rng, 0, 1)])
    values = [F(0)] + [F(1) + random_fraction(rng, 0, 1) for _ in bps[1:]]
    for _ in range(0 if clean else rng.randint(1, 2)):
        moved = random_fraction(rng, 0, 3) - F(1, 2)
        i = rng.randrange(len(bps))
        if rng.random() < 0.5:
            values[i] = moved
        else:
            ends[i][rng.randrange(2)] = moved
    pieces = []
    for (u, v), (start, end) in zip(zip(bps, bps[1:] + [F(1)]), ends):
        slope = (end - start) / (v - u)
        pieces.append((slope, start - slope * u))
    return PwlTorusFunction(tuple(bps), tuple(pieces), tuple(values), fn.b, fn.mode)


def one_pattern_function():
    """Floors of 3/2 and 1 with 0 at the origin: subadditive but for one
    difference-aligned corner, (1/4, 3/8), where x = 1/4 drops to 1 on its
    right and x+y = 5/8 is a breakpoint with the point value 9/4.  There
    only the pattern (2,0,1) is negative: 1 + 1 - 9/4."""
    return PwlTorusFunction(
        (F(0), F(1, 4), F(5, 8)),
        ((F(0), F(3, 2)), (F(0), F(1)), (F(0), F(3, 2))),
        (F(0), F(3, 2), F(9, 4)),
        mode=MODE_WRAP,
    )


def negative_screen_columns(fn):
    """The screen's columns that hold a negative slack anywhere on the grid,
    in Fractions: every breakpoint x against every grid point y."""
    dx = math.lcm(*(x.denominator for x in fn.breakpoints))

    def sides(x):
        triple = (fn.left_limit_at(x), fn.value_at(x), fn.right_limit_at(x))
        return triple + (max(triple),)

    grid = [sides(F(p, dx)) for p in range(dx)]
    negative = set()
    for x in fn.breakpoints:
        p = x.numerator * (dx // x.denominator)
        for q in range(dx):
            tx, ty, tz = grid[p], grid[q], grid[(p + q) % dx]
            for a, b, c in torus._SCREEN_COLUMNS:
                if tx[a] + ty[b] - tz[c] < 0:
                    negative.add((a, b, c))
    return negative


def one_column_functions():
    """For each screen column, the first of a seeded run of nearly
    subadditive functions whose only negative slack on the grid is in that
    column: the screen flags it through that column alone."""
    rng = random.Random(1)
    found = {}
    for _ in range(2000):
        n = rng.randint(2, 4)
        fn = nearly_subadditive(rng, n, rng.randint(n, n * n))
        negative = negative_screen_columns(fn)
        if len(negative) == 1:
            found.setdefault(negative.pop(), fn)
        if len(found) == len(torus._SCREEN_COLUMNS):
            break
    return found


ONE_COLUMN = one_column_functions()


def grid_functions():
    rng = random.Random(20261019)
    functions = [one_pattern_function(), *ONE_COLUMN.values()]
    for n in range(1, 8):
        bound = n * n
        for dx in sorted({max(n, 2), n + 3, bound - 1, bound, bound + 1, bound + 7}):
            if dx >= n:
                functions += [grid_function(rng, n, dx) for _ in range(6)]
                functions += [nearly_subadditive(rng, n, dx) for _ in range(10)]
    # above 100 breakpoints the bound is 100 n, below n^2: clean functions on
    # both sides of it, the one above on a grid an n^2 bound would screen, and
    # a flagged one on the bound; each drawn again until its canonical form
    # keeps all n breakpoints, which a piece that continues unchanged drops,
    # and the flagged one also until the scan finds a violation in it
    n = 101

    def keeping_n(dx, clean):
        while True:
            fn = nearly_subadditive(rng, n, dx, clean)
            if len(fn.breakpoints) == n and (clean or torus._subadditivity_scan(fn)[2]):
                return fn

    for dx in (100 * n, 100 * n + 1):
        functions.append(keeping_n(dx, clean=True))
    functions.append(keeping_n(100 * n, clean=False))
    return functions


GRID_FUNCTIONS = grid_functions()


def screen_runs(fn):
    n = len(fn.breakpoints)
    return math.lcm(*(x.denominator for x in fn.breakpoints)) <= n * min(n, 100)


def test_the_101_breakpoint_functions_reach_both_sides_of_the_bound():
    on_bound, above, flagged = GRID_FUNCTIONS[-3:]
    assert [len(fn.breakpoints) for fn in (on_bound, above, flagged)] == [101] * 3
    assert screen_runs(on_bound) and screen_runs(flagged) and not screen_runs(above)
    assert torus._screen_is_clean(on_bound) and not torus._screen_is_clean(flagged)


def test_every_screen_column_alone_flags_a_function():
    assert set(ONE_COLUMN) == set(torus._SCREEN_COLUMNS)
    for column, fn in ONE_COLUMN.items():
        assert screen_runs(fn) and negative_screen_columns(fn) == {column}
        assert torus._subadditivity_scan(fn)[2]
        assert not torus._screen_is_clean(fn)
    # the scan's other two columns; the next test checks that no violation
    # hides in them alone
    assert {(2, 1, 2), (0, 1, 0)} == set(torus._COLUMNS) - set(torus._SCREEN_COLUMNS)


def oracle_slacks(fn):
    """(corner, pattern, slack) for every corner and pattern of the scan."""
    corners = {(x, y) for x in fn.breakpoints for y in fn.breakpoints}
    corners |= {(x, (y - x) % 1) for x in fn.breakpoints for y in fn.breakpoints}

    def triple(x):
        return fn.left_limit_at(x), fn.value_at(x), fn.right_limit_at(x)

    for x, y in sorted(corners):
        tx, ty, tz = triple(x), triple(y), triple((x + y) % 1)
        for pattern in torus._LIMIT_COMBOS:
            sx, sy, sz = pattern
            yield (x, y), pattern, tx[sx] + ty[sy] - tz[sz]


def test_the_one_pattern_violation_shows_under_one_pattern():
    fn = one_pattern_function()
    negative = [
        (corner, pattern)
        for corner, pattern, slack in oracle_slacks(fn)
        if slack < 0
    ]
    assert negative == [((F(1, 4), F(3, 8)), (2, 0, 1))]
    assert F(3, 8) not in fn.breakpoints and F(5, 8) in fn.breakpoints
    assert screen_runs(fn) and not torus._screen_is_clean(fn)
    assert negative_screen_columns(fn) == {(2, 0, 3)}


def test_screen_is_clean_exactly_when_the_scan_finds_nothing():
    seen = Counter()
    for fn in CORPUS + GRID_FUNCTIONS:
        runs, clean = screen_runs(fn), not torus._subadditivity_scan(fn)[2]
        assert torus._screen_is_clean(fn) is (runs and clean)
        seen[runs, clean] += 1
    # both sides of dx <= n min(n, 100), clean and flagged
    assert min(seen[runs, clean] for runs in (False, True) for clean in (False, True)) > 20
    # negative values, a jump at the origin, both symmetry modes
    for fn in GRID_FUNCTIONS:
        seen["negative"] += min(map(min, fn.limits())) < 0
        seen["origin jump"] += len(set(fn.limits()[0])) > 1
        seen[fn.mode] += 1
    assert min(seen["negative"], seen["origin jump"], seen[MODE_RHS], seen[MODE_WRAP]) > 50


def test_is_minimal_pwl_with_the_screen_is_the_scan_only_verdict(monkeypatch):
    functions = CORPUS + GRID_FUNCTIONS
    got = [repr(is_minimal_pwl(fn)) for fn in functions]
    monkeypatch.setattr(torus, "_screen_is_clean", lambda fn: False)
    assert got == [repr(is_minimal_pwl(fn)) for fn in functions]
    assert sum("subadditivity" in verdict for verdict in got) > 100


@pytest.mark.parametrize("k", [1, 3, 5])
def test_scaled_gmi_scan_is_tight(k):
    # gmi traversed k times is minimal: its least slack is exactly 0
    best, witness = subadditivity_slack(scaled_gmi(F(2, 5), k))
    assert best == 0 and type(best) is F
    assert all(type(c) is F for c in witness[:2])


# `_walk_pieces` takes a function's left limit, value and right limit on
# ascending integer points p / d in one walk along the pieces;
# `_subadditivity_scan` reads all three, `_symmetry_scan` and
# `riemann_experiment` sample the value.  Its oracle is `left_limit_at`,
# `value_at` and `right_limit_at` at each point.


def walk_triples(fn, n):
    """(left limit, value, right limit) of fn at x / n for 0 <= x < n,
    through the walk."""
    d = math.lcm(n, *(x.denominator for x in fn.breakpoints))
    scaled, w = torus._walk_pieces(fn, d, range(0, d, d // n))
    assert list(scaled) == list(range(0, d, d // n))
    return [tuple(F(v, w) for v in triple) for triple in scaled.values()]


def walk_samples(fn, n):
    """fn at x / n for 0 <= x < n, through the walk."""
    return [value for _left, value, _right in walk_triples(fn, n)]


def oracle_walk(fn, d, points):
    triples = {
        p: (fn.left_limit_at(F(p, d)), fn.value_at(F(p, d)), fn.right_limit_at(F(p, d)))
        for p in points
    }
    w = math.lcm(*(v.denominator for t in triples.values() for v in t))
    return {
        p: tuple(v.numerator * (w // v.denominator) for v in t)
        for p, t in triples.items()
    }, w


def jump_on_the_grid():
    """1/4 + x/4 below 1/2 and 1/2 + x/4 above, with point value 1/2 at 1/2,
    between the one-sided limits 3/8 and 5/8: nondecreasing and minimal in
    wrap mode, with jumps at the origin and at 1/2."""
    return PwlTorusFunction(
        (F(0), F(1, 2)),
        ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 2))),
        (F(0), F(1, 2)),
        mode=MODE_WRAP,
    )


def class_g_profiles():
    profiles = [identity_fn(), jump_on_the_grid()]
    profiles += [tilde_fn(gmi(b)) for b in RHS]
    profiles += [tilde_fn(scaled_gmi(b, 3)) for b in RHS]
    vertices = enumerate_vertices(build_polytope(13, 12)).vertices
    profiles += [tilde_fn(from_finite_function(v)) for v in vertices[::4]]
    return profiles


@pytest.mark.parametrize("n", [1, 2, 6, 12, 52, 1008])
def test_walk_matches_value_at_on_uniform_grids(n):
    for fn in class_g_profiles():
        assert walk_samples(fn, n) == [fn.value_at(F(x, n)) for x in range(n)]


def test_walk_takes_the_point_value_on_a_breakpoint():
    fn = jump_on_the_grid()
    assert is_minimal_pwl(fn).is_minimal and is_nondecreasing(fn)
    assert walk_samples(fn, 6) == [F(0), F(7, 24), F(1, 3), F(1, 2), F(2, 3), F(17, 24)]
    assert (fn.left_limit_at(F(1, 2)), fn.right_limit_at(F(1, 2))) == (F(3, 8), F(5, 8))


def test_walk_matches_value_at_on_the_corpus():
    for fn in CORPUS:
        for n in (3, 10, 36):
            assert walk_samples(fn, n) == [fn.value_at(F(x, n)) for x in range(n)]


def test_walk_limits_match_one_sided_limits_on_the_corpus():
    jumps = 0
    for fn in CORPUS:
        for n in (3, 10, 36):  # x = 0 is the origin
            got = [(left, right) for left, _value, right in walk_triples(fn, n)]
            expected = [
                (fn.left_limit_at(F(x, n)), fn.right_limit_at(F(x, n)))
                for x in range(n)
            ]
            assert got == expected
            jumps += sum(left != right for left, right in expected)
    assert jumps > 0


@pytest.mark.parametrize("q", [2, 3, 5, 53, 211])
def test_riemann_sample_matches_value_at(monkeypatch, q):
    profiles = class_g_profiles()
    got = [outcome(lambda h: riemann_experiment(h, q), h) for h in profiles]
    monkeypatch.setattr(experiments, "_walk_pieces", oracle_walk)
    expected = [outcome(lambda h: riemann_experiment(h, q), h) for h in profiles]
    assert got == expected
    # every profile is sampled, at odd q across the jump at 1/2 too
    assert sum(o.startswith("RiemannResult") for o in got) == len(profiles)


# `_spans` gives each piece's start value, end value and length as integers;
# `_piece_sublevels` (behind `sublevel_measure` and `sublevel_set`) and
# `lp_power_torus` read it, `integral_ln` reads the end values from
# `limits()`, and `ln_fraction` branches on integers.  Their oracles are the
# `Fraction` routines they replaced: each piece from its slope and intercept.


def oracle_assert_nonnegative(fn):
    for x, triple in zip(fn.breakpoints, fn.limits()):
        if min(triple) < 0:
            raise ValueError(f"function is negative near breakpoint {x}")


def oracle_piece_sublevels(fn, alpha):
    intervals = []
    for i, (s, t) in enumerate(fn.pieces):
        u, v = fn.piece_domain(i)
        if s == 0:
            if t <= alpha:
                intervals.append((u, v))
        elif s > 0:
            hi = min(v, (alpha - t) / s)
            if hi >= u:
                intervals.append((u, hi))
        else:
            lo = max(u, (alpha - t) / s)
            if lo <= v:
                intervals.append((lo, v))
    return intervals


def oracle_sublevel_measure(fn, alpha):
    return sum((hi - lo for lo, hi in oracle_piece_sublevels(fn, alpha)), F(0))


def oracle_sublevel_set(fn, alpha):
    intervals = oracle_piece_sublevels(fn, alpha)
    for x, value in zip(fn.breakpoints, fn.point_values):
        if value <= alpha:
            intervals.append((x, x))
    return torus._merge_intervals(intervals)


def oracle_lp_power(fn, p):
    oracle_assert_nonnegative(fn)
    total = F(0)
    for i, (s, t) in enumerate(fn.pieces):
        u, v = fn.piece_domain(i)
        if s == 0:
            total += (v - u) * t**p
        else:
            total += ((s * v + t) ** (p + 1) - (s * u + t) ** (p + 1)) / (s * (p + 1))
    return total


def oracle_ln(x):
    if x < 0:
        raise ValueError(f"logarithm of negative rational {x}")
    if x == 0:
        return float("-inf")
    if F(2, 3) < x < 2:
        return math.log1p(float(x - 1))
    return math.log(x.numerator) - math.log(x.denominator)


def oracle_integral_ln(fn):
    def term(w):
        return 0.0 if w == 0 else float(w) * (oracle_ln(w) - 1.0)

    oracle_assert_nonnegative(fn)
    total = 0.0
    for i, (s, t) in enumerate(fn.pieces):
        u, v = fn.piece_domain(i)
        if s == 0:
            if t == 0:
                return float("-inf")
            total += float(v - u) * oracle_ln(t)
        else:
            total += (term(s * v + t) - term(s * u + t)) / float(s)
    return total


def hex_outcome(call, fn):
    """float.hex of each float the call returns, or the exception."""
    try:
        got = call(fn)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(got, float):
        return got.hex()
    return tuple(value.hex() for value in (got.lhs, got.rhs, got.gap))


def probe_levels(fn):
    """Every limit and point value, the midpoints between them, and levels
    below, inside and above the range."""
    levels = sorted({v for triple in fn.limits() for v in triple} | {F(0), F(1, 3)})
    levels += [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    return levels + [F(-1, 2), levels[-1] + F(1, 5)]


def test_lp_power_matches_fraction_oracle():
    kinds = Counter()
    for fn in CORPUS:
        for p in range(1, 6):
            expected = outcome(lambda f: oracle_lp_power(f, p), fn)
            assert outcome(lambda f: torus.lp_power_torus(f, p), fn) == expected
            kinds[expected.split("(")[0]] += 1
    assert kinds["Fraction"] > 500
    assert kinds["ValueError: function is negative near breakpoint 0"]


def test_sublevel_measure_and_set_match_piece_clip():
    clipped = 0
    for fn in CORPUS:
        for alpha in probe_levels(fn):
            measure = sublevel_measure(fn, alpha)
            assert measure == oracle_sublevel_measure(fn, alpha)
            assert repr(measure) == repr(oracle_sublevel_measure(fn, alpha))
            assert torus.sublevel_set(fn, alpha) == oracle_sublevel_set(fn, alpha)
            clipped += 0 < measure < 1
    assert clipped > 1000


def test_integral_ln_matches_fraction_oracle():
    outcomes = Counter()
    for fn in CORPUS:
        expected = hex_outcome(oracle_integral_ln, fn)
        assert hex_outcome(torus.integral_ln, fn) == expected
        outcomes[expected.split(":")[0]] += 1
    assert outcomes["ValueError"] and outcomes["-inf"] and len(outcomes) > 50


def test_layer_cake_floats_match_the_oracles(monkeypatch):
    tildes = [tilde_fn(fn) for fn in CORPUS if is_minimal_pwl(fn).is_minimal]
    functions = CORPUS + tildes
    got = [hex_outcome(layer_cake_check, fn) for fn in functions]
    lns = [hex_outcome(torus.integral_ln, fn) for fn in functions]
    monkeypatch.setattr(torus, "sublevel_profile", oracle_profile)
    monkeypatch.setattr(torus, "integral_ln", oracle_integral_ln)
    monkeypatch.setattr(torus, "ln_fraction", oracle_ln)
    assert got == [hex_outcome(layer_cake_check, fn) for fn in functions]
    assert lns == [hex_outcome(oracle_integral_ln, fn) for fn in functions]
    assert sum(isinstance(row, tuple) for row in got) > 150


def ln_probes():
    big = 10**400
    around = []
    for n, d in ((2, 3), (1, 1), (2, 1)):
        for eps in (F(0), F(1, 10**30), F(1, 7 * big), F(1, 1000)):
            around += [F(n, d) + eps, F(n, d) - eps]
    huge = [
        F(big + 1, big),
        F(big - 1, big),
        F(3**900, 2**1400),
        F(2**1400, 3**900),
        F(1, 7**500),
        F(11**600, 1),
        F(2 * big + 1, 3 * big),
        F(2 * big - 1, big),
    ]
    return around + huge + [F(0), F(1, 2), F(5, 7), F(3, 2), F(7, 3), 2, 1]


def test_ln_fraction_matches_fraction_oracle():
    from groupcut.rationals import ln_fraction

    probes = ln_probes()
    assert all(ln_fraction(x).hex() == oracle_ln(F(x)).hex() for x in probes)
    # both branches and both edges are reached
    assert {F(2, 3), F(1), F(2)} <= set(probes) and len(probes) > 30
    for x in (F(-1, 2), F(-(10**500), 3)):
        with pytest.raises(ValueError) as got:
            ln_fraction(x)
        with pytest.raises(ValueError) as expected:
            oracle_ln(x)
        assert str(got.value) == str(expected.value)


def test_a_negative_point_value_alone_is_refused():
    # the limits are 1/2 everywhere; only the point value at 1/2 is negative
    half = F(1, 2)
    fn = PwlTorusFunction(
        (F(0), half), ((F(0), half), (F(0), half)), (F(0), F(-1, 4)), b=half
    )
    pairs = [
        (lambda f: torus.lp_power_torus(f, 2), lambda f: oracle_lp_power(f, 2)),
        (torus.integral_ln, oracle_integral_ln),
        (sublevel_profile, oracle_profile),
    ]
    expected = "ValueError: function is negative near breakpoint 1/2"
    for call, oracle in pairs:
        assert outcome(call, fn) == outcome(oracle, fn) == expected


# Each function's integer form (dx, the breakpoints over dx, w, and each
# piece's slope per 1/dx step, its intercept and each point value over w) is
# worked out once, when the function is constructed.  `_spans` is a formula
# over it; its oracle is the walk at the breakpoints that it replaced, with
# w as that walk took it and the limits from their definition.


def walk_denominator(fn, d):
    """w as the walk on the grid d took it before the integer form held it:
    the lcm of d L (L that of the piece coefficients' denominators) and the
    point values' denominators."""
    coefficients = math.lcm(*(c.denominator for piece in fn.pieces for c in piece))
    return math.lcm(d * coefficients, *(v.denominator for v in fn.point_values))


def oracle_spans(fn):
    dx = math.lcm(*(x.denominator for x in fn.breakpoints))
    xs = [x.numerator * (dx // x.denominator) for x in fn.breakpoints]
    w = walk_denominator(fn, dx)
    triples = [
        [v.numerator * (w // v.denominator) for v in direct_limits(fn, x)]
        for x in fn.breakpoints
    ]
    starts = [right for _left, _value, right in triples]
    ends = [left for left, _value, _right in triples[1:] + triples[:1]]
    return list(zip(starts, ends, map(sub, xs[1:] + [dx], xs))), dx, w


def test_spans_match_the_breakpoint_walk():
    seen = Counter()
    for fn in CORPUS + GRID_FUNCTIONS:
        assert torus._spans(fn) == oracle_spans(fn)
        seen[fn.mode] += 1
        seen["negative"] += min(map(min, fn.limits())) < 0
        seen["origin jump"] += fn.limits()[0][0] != fn.limits()[0][2]
        seen["mixed"] += len({x.denominator for x in fn.breakpoints[1:]}) > 1
    kinds = (MODE_RHS, MODE_WRAP, "negative", "origin jump", "mixed")
    assert all(seen[kind] for kind in kinds), seen


def a_seventh_at_a_jump():
    """2/5 on (0, 1/3), 1/2 on (1/3, 2/3) and 3/5 on (2/3, 1), with the point
    values 3/7 and 4/7 at the jumps: nondecreasing and minimal in wrap mode.
    The 7 divides neither dx = 3 nor a piece coefficient's denominator, so on
    a grid d = k dx with 7 | k the walk's k w is larger than the w it took
    before the integer form, lcm(d L, 7)."""
    third = F(1, 3)
    return PwlTorusFunction(
        (F(0), third, 2 * third),
        ((F(0), F(2, 5)), (F(0), F(1, 2)), (F(0), F(3, 5))),
        (F(0), F(3, 7), F(4, 7)),
        mode=MODE_WRAP,
    )


def a_seventh_off_symmetry():
    """A ramp of slope 1/2 from 1/4 on the halves, with point value 1/7 at
    1/2, in rhs mode at b = 1/2: neither symmetric nor subadditive."""
    half = F(1, 2)
    return PwlTorusFunction(
        (F(0), half), ((half, F(1, 4)), (half, F(1, 4))), (F(0), F(1, 7)), b=half
    )


def test_the_walk_on_a_finer_grid_matches_the_one_sided_limits():
    widened = 0
    for fn in (a_seventh_at_a_jump(), a_seventh_off_symmetry()):
        dx, w = fn._form.dx, fn._form.w
        for n in (1, 3, 6, 7, 14, 21, 42, 84):
            d = math.lcm(n, dx)
            scaled, walked_w = torus._walk_pieces(fn, d, range(d))
            assert walked_w == (d // dx) * w
            widened += walked_w > walk_denominator(fn, d)
            assert [tuple(F(v, walked_w) for v in t) for t in scaled.values()] == [
                (fn.left_limit_at(F(p, d)), fn.value_at(F(p, d)), fn.right_limit_at(F(p, d)))
                for p in range(d)
            ]
    assert widened >= 8


def test_a_seventh_at_a_jump_keeps_its_answers(monkeypatch):
    minimal, broken = a_seventh_at_a_jump(), a_seventh_off_symmetry()
    assert is_nondecreasing(minimal) and is_minimal_pwl(minimal).is_minimal
    for fn in (minimal, broken):
        assert list(torus._symmetry_scan(fn)) == oracle_symmetry_scan(fn)
        assert repr(is_minimal_pwl(fn)) == repr(oracle_is_minimal_pwl(fn))
    kinds = {v.kind for v in is_minimal_pwl(broken).violations}
    assert kinds == {"subadditivity", "symmetry"}
    # the sample at q = 43 lies on the grid 1/42, where k w = 14 * 210 is
    # larger than lcm(42 * 10, 7) = 420, and takes both point values
    assert walk_denominator(minimal, 42) == 420 < 14 * minimal._form.w
    orders = (5, 29, 43, 211)
    got = [outcome(lambda h: riemann_experiment(h, q), minimal) for q in orders]
    assert riemann_experiment(minimal, 43).product == F(19131876, 73015689849853515625)
    monkeypatch.setattr(experiments, "_walk_pieces", oracle_walk)
    assert got == [outcome(lambda h: riemann_experiment(h, q), minimal) for q in orders]
    assert all(o.startswith("RiemannResult") for o in got)


def test_the_integer_form_is_worked_out_once_per_function(monkeypatch):
    derived = []
    form = torus._integer_form
    monkeypatch.setattr(torus, "_integer_form", lambda fn: derived.append(fn) or form(fn))
    fn = a_seventh_at_a_jump()
    assert len(derived) == 1 and derived[0] is fn
    derived.clear()
    is_minimal_pwl(fn)
    tilde = tilde_fn(fn)
    torus.integral_ln(fn)
    torus.lp_power_torus(fn, 3)
    layer_cake_check(fn)
    riemann_experiment(fn, 43)
    # no walk or scan works the form out again: the one function built is
    # tilde_fn's result
    assert len(derived) == 1 and derived[0] is tilde


# `is_minimal_pwl` is the verdict of one lazy chain, `_violations`, whose
# scans build the `Violation`s themselves; `tilde_fn` reads its first one.


def test_tilde_fn_names_the_first_violation_of_the_chain(monkeypatch):
    failing = [(fn, is_minimal_pwl(fn)) for fn in CORPUS]
    failing = [(fn, verdict) for fn, verdict in failing if not verdict.is_minimal]
    for fn, verdict in failing:
        assert tuple(torus._violations(fn)) == verdict.violations
        assert outcome(tilde_fn, fn) == f"NotMinimal: not minimal: {verdict.violations[0]}"
    # a first violation before the scans is read without any of them
    early = [fn for fn, v in failing if v.violations[0].kind in ("negativity", "origin")]

    def refuse(fn):
        raise AssertionError("a scan ran after the first violation")

    for scan in ("_screen_is_clean", "_subadditivity_scan", "_symmetry_scan"):
        monkeypatch.setattr(torus, scan, refuse)
    for fn in early:
        with pytest.raises(NotMinimal):
            tilde_fn(fn)
    assert len(failing) > 100 and len(early) > 50
