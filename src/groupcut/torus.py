"""Piecewise-linear functions on the circle [0,1): construction, minimality
certification, rearrangement, and closed-form integrals.

A function is stored as breakpoints with one affine piece per half-open
interval and explicit point values at breakpoints, so jump discontinuities
are first-class: every check that cares about them works with one-sided
limits as well as point values.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import NotMinimal, NotNondecreasing, OutOfRange, ValidationFailure
from .finite_functions import FiniteGroupFunction, MinimalityVerdict, Violation
from .rationals import as_fraction, json_field, ln_fraction, nth_root_float

__all__ = [
    "PwlTorusFunction",
    "SublevelProfile",
    "LayerCakeReport",
    "MODE_RHS",
    "MODE_WRAP",
    "gmi",
    "scaled_gmi",
    "identity_fn",
    "md2_torus",
    "from_finite_function",
    "is_nondecreasing",
    "subadditivity_slack",
    "is_minimal_pwl",
    "sublevel_measure",
    "sublevel_set",
    "sublevel_profile",
    "rearrange_torus",
    "right_limit_fn",
    "tilde_fn",
    "integral_ln",
    "layer_cake_check",
    "lp_power_torus",
    "lp_norm_torus",
    "interval_sumset",
    "union_measure",
]

MODE_RHS = "rhs"  # symmetry partner of x is (b - x) mod 1
MODE_WRAP = "wrap"  # symmetry partner of x is (1 - x) mod 1, origin exempt

Piece = tuple[Fraction, Fraction]  # slope, intercept: value = slope*x + intercept


@dataclass(frozen=True)
class PwlTorusFunction:
    breakpoints: tuple[Fraction, ...]  # 0 = x_0 < x_1 < ... < 1
    pieces: tuple[Piece, ...]  # piece i lives on [x_i, x_{i+1}), last wraps to 1
    point_values: tuple[Fraction, ...] | None = None  # default: right limits
    b: Fraction | None = None  # rhs for MODE_RHS symmetry
    mode: str = MODE_RHS

    def __post_init__(self) -> None:
        bps = tuple(as_fraction(x) for x in self.breakpoints)
        pieces = tuple((as_fraction(s), as_fraction(t)) for s, t in self.pieces)
        if not bps or bps[0] != 0:
            raise ValueError("breakpoints must start at 0")
        if any(not 0 <= x < 1 for x in bps):
            raise ValueError("breakpoints must lie in [0, 1)")
        if any(u >= v for u, v in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != len(bps):
            raise ValueError(
                f"need one piece per breakpoint: {len(pieces)} != {len(bps)}"
            )
        if self.mode not in (MODE_RHS, MODE_WRAP):
            raise ValueError(f"unknown symmetry mode {self.mode!r}")
        if self.mode == MODE_RHS:
            if self.b is None:
                raise ValueError("rhs-symmetric functions need b")
            b = as_fraction(self.b)
            if not 0 < b < 1:
                raise ValueError(f"b must lie in (0, 1), got {b}")
            object.__setattr__(self, "b", b)
        else:
            object.__setattr__(self, "b", None)
        if self.point_values is None:
            pvs = tuple(s * x + t for x, (s, t) in zip(bps, pieces))
        else:
            pvs = tuple(as_fraction(v) for v in self.point_values)
            if len(pvs) != len(bps):
                raise ValueError("need one point value per breakpoint")
        # canonical form: drop breakpoints where the piece continues unchanged
        keep = [0]
        for i in range(1, len(bps)):
            s, t = pieces[i]
            if pieces[i - 1] == pieces[i] and pvs[i] == s * bps[i] + t:
                continue
            keep.append(i)
        object.__setattr__(self, "breakpoints", tuple(bps[i] for i in keep))
        object.__setattr__(self, "pieces", tuple(pieces[i] for i in keep))
        object.__setattr__(self, "point_values", tuple(pvs[i] for i in keep))

    def _piece_index(self, x: Fraction) -> int:
        return bisect.bisect_right(self.breakpoints, x) - 1

    def piece_domain(self, i: int) -> tuple[Fraction, Fraction]:
        hi = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else Fraction(1)
        return self.breakpoints[i], hi

    def value_at(self, x) -> Fraction:
        x = as_fraction(x) % 1
        i = self._piece_index(x)
        if self.breakpoints[i] == x:
            return self.point_values[i]
        s, t = self.pieces[i]
        return s * x + t

    def right_limit_at(self, x) -> Fraction:
        x = as_fraction(x) % 1
        s, t = self.pieces[self._piece_index(x)]
        return s * x + t

    def left_limit_at(self, x) -> Fraction:
        x = as_fraction(x) % 1
        if x == 0:
            s, t = self.pieces[-1]
            return s + t  # limit of the last piece at 1
        i = self._piece_index(x)
        if self.breakpoints[i] == x:
            i -= 1
        s, t = self.pieces[i]
        return s * x + t

    def limits(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """(left limit, value, right limit) at each breakpoint, by piece index:
        the left limit at x_i is piece i-1 at x_i (the last piece at 1 when
        i = 0), the right limit is piece i at x_i."""
        return self._limit_table

    # built on first use and kept outside the dataclass fields, so ==, hash
    # and repr do not see it
    @functools.cached_property
    def _limit_table(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        table = []
        for i, (x, value) in enumerate(zip(self.breakpoints, self.point_values)):
            s_left, t_left = self.pieces[i - 1]
            s, t = self.pieces[i]
            left = s_left * x + t_left if i else s_left + t_left
            table.append((left, value, s * x + t))
        return tuple(table)

    def to_dict(self) -> dict:
        return {
            "b": None if self.b is None else str(self.b),
            "mode": self.mode,
            "breakpoints": [str(x) for x in self.breakpoints],
            "pieces": [
                {"slope": str(s), "intercept": str(t)} for s, t in self.pieces
            ],
            "limits": [
                {"left": str(l), "at": str(v), "right": str(r)}
                for l, v, r in self.limits()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PwlTorusFunction":
        breakpoints = json_field(data, "breakpoints", list)
        pieces = json_field(data, "pieces", list)
        limits = json_field(data, "limits", list)
        fn = cls(
            breakpoints=tuple(breakpoints),
            pieces=tuple(
                (json_field(p, "slope"), json_field(p, "intercept")) for p in pieces
            ),
            point_values=tuple(json_field(e, "at") for e in limits),
            # b is coerced here: wrap mode drops it unread
            b=None if data.get("b") is None else as_fraction(data["b"]),
            mode=data.get("mode", MODE_RHS),
        )
        # each stored entry belongs to its own stored breakpoint, which the
        # canonical form may have dropped
        for x, entry in zip(breakpoints, limits):
            stored = (as_fraction(entry["left"]), as_fraction(entry["right"]))
            if stored != (fn.left_limit_at(x), fn.right_limit_at(x)):
                raise ValueError("stored one-sided limits disagree with pieces")
        return fn

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PwlTorusFunction":
        return cls.from_dict(json.loads(text))


def gmi(b) -> PwlTorusFunction:
    """The two-slope mixed-integer rounding profile with rhs b in (0, 1)."""
    return scaled_gmi(b, 1)


def scaled_gmi(b, k: int) -> PwlTorusFunction:
    """gmi(b) traversed k times around the circle: x -> gmi_b(k x mod 1)."""
    b = as_fraction(b)
    if not 0 < b < 1:
        raise OutOfRange(f"b must lie in (0, 1), got {b}")
    if k < 1:
        raise OutOfRange(f"k must be a positive integer, got {k}")
    breakpoints: list[Fraction] = []
    pieces: list[Piece] = []
    for j in range(k):
        breakpoints.append(Fraction(j, k))
        pieces.append((Fraction(k) / b, Fraction(-j) / b))
        breakpoints.append(Fraction(j, k) + b / k)
        pieces.append((-Fraction(k) / (1 - b), Fraction(1 + j) / (1 - b)))
    return PwlTorusFunction(
        breakpoints=tuple(breakpoints),
        pieces=tuple(pieces),
        b=b / k,
        mode=MODE_RHS,
    )


def identity_fn() -> PwlTorusFunction:
    """h(x) = x on [0, 1), symmetric in the wraparound sense."""
    return PwlTorusFunction(
        breakpoints=(Fraction(0),),
        pieces=((Fraction(1), Fraction(0)),),
        mode=MODE_WRAP,
    )


def md2_torus(b) -> PwlTorusFunction:
    """1/2 almost everywhere, 0 at the origin and 1 at b."""
    b = as_fraction(b)
    if not 0 < b < 1:
        raise OutOfRange(f"b must lie in (0, 1), got {b}")
    half = Fraction(1, 2)
    return PwlTorusFunction(
        breakpoints=(Fraction(0), b),
        pieces=((Fraction(0), half), (Fraction(0), half)),
        point_values=(Fraction(0), Fraction(1)),
        b=b,
        mode=MODE_RHS,
    )


def from_finite_function(fn: FiniteGroupFunction) -> PwlTorusFunction:
    """Interpolate node values at i/q linearly; minimality carries over exactly
    because the uniform grid is closed under addition mod 1."""
    q = fn.q
    vals = list(fn.values) + [fn.values[0]]
    breakpoints, pieces = [], []
    for i in range(q):
        slope = (vals[i + 1] - vals[i]) * q
        x = Fraction(i, q)
        breakpoints.append(x)
        pieces.append((slope, vals[i] - slope * x))
    return PwlTorusFunction(
        breakpoints=tuple(breakpoints),
        pieces=tuple(pieces),
        point_values=tuple(vals[:q]),
        b=Fraction(fn.b_residue, q),
        mode=MODE_RHS,
    )


def is_nondecreasing(fn: PwlTorusFunction) -> bool:
    """Nondecreasing on [0, 1) read linearly; no condition across the wrap."""
    if any(s < 0 for s, _t in fn.pieces):
        return False
    for i, (left, value, right) in enumerate(fn.limits()):
        if i > 0 and not left <= value <= right:
            return False
        if i == 0 and value > right:
            return False
    return True


_SIDE_LEFT, _SIDE_VALUE, _SIDE_RIGHT = 0, 1, 2
# realizable one-sided approach patterns for (x, y, x+y) at a grid corner
_LIMIT_COMBOS = (
    (1, 1, 1),
    (1, 2, 2), (1, 0, 0), (2, 1, 2), (0, 1, 0),
    (2, 2, 2), (0, 0, 0),
    (2, 0, 2), (2, 0, 0), (2, 0, 1),
    (0, 2, 2), (0, 2, 0), (0, 2, 1),
)


def _subadditivity_scan(
    fn: PwlTorusFunction,
) -> tuple[Fraction, tuple, list[tuple[tuple, Fraction]]]:
    """Minimum of the subadditivity slack over the whole torus square.

    The slack is affine on each cell cut out by the breakpoints in x, y and
    x+y, so its infimum over points *and* one-sided limits is attained at a
    cell corner (a breakpoint pair or a difference-aligned pair) under one of
    the realizable approach patterns.  Coordinates are scanned as integers
    over their common denominator dx, and `_walk_pieces` gives the left
    limit, value and right limit at every corner coordinate as integers over
    one common denominator w; both scalings are positive, so the corner
    order, the witness and the violations are those of the exact scan.
    """
    dx = math.lcm(*(x.denominator for x in fn.breakpoints))
    xs = [x.numerator * (dx // x.denominator) for x in fn.breakpoints]
    corners = {(x, y) for x in xs for y in xs}
    corners |= {(x, (y - x) % dx) for x in xs for y in xs}
    points = sorted({p for x, y in corners for p in (x, y, (x + y) % dx)})
    nums, w = _walk_pieces(fn, dx, points)

    best, witness = None, ()
    violations: list[tuple[tuple, Fraction]] = []
    for x, y in sorted(corners):
        tx, ty, tz = nums[x], nums[y], nums[(x + y) % dx]
        slacks = [tx[sx] + ty[sy] - tz[sz] for sx, sy, sz in _LIMIT_COMBOS]
        worst = min(slacks)
        if best is None or worst < best:
            best, witness = worst, (x, y, _LIMIT_COMBOS[slacks.index(worst)])
        if worst < 0:
            corner = (Fraction(x, dx), Fraction(y, dx))
            violations.append((corner, Fraction(-worst, w)))
    x, y, pattern = witness
    return Fraction(best, w), (Fraction(x, dx), Fraction(y, dx), pattern), violations


def subadditivity_slack(fn: PwlTorusFunction) -> tuple[Fraction, tuple]:
    """Exact infimum of pi(x) + pi(y) - pi(x+y), with a witness corner."""
    best, witness, _violations = _subadditivity_scan(fn)
    return best, witness


def _walk_pieces(
    fn: PwlTorusFunction, d: int, points: Iterable[int]
) -> tuple[dict[int, tuple[int, int, int]], int]:
    """{p: (left limit, value, right limit) of fn at p / d, times w} for the
    ascending integers p in [0, d), and w.

    d must be a multiple of every breakpoint denominator.  Over the common
    denominator w piece i is the integer affine map slopes[i] * p + offsets[i].
    Off a breakpoint all three entries are the value of the piece there; on
    breakpoint i they are piece i-1 (the last piece at d when i = 0), the
    point value and piece i, as in `limits()`.  So one walk along the pieces
    gives every entry as an integer.
    """
    xs = [x.numerator * (d // x.denominator) for x in fn.breakpoints]
    w = math.lcm(
        d * math.lcm(*(c.denominator for piece in fn.pieces for c in piece)),
        *(v.denominator for v in fn.point_values),
    )
    slopes = [s.numerator * (w // (s.denominator * d)) for s, _t in fn.pieces]
    offsets = [t.numerator * (w // t.denominator) for _s, t in fn.pieces]
    values = [v.numerator * (w // v.denominator) for v in fn.point_values]
    scaled: dict[int, tuple[int, int, int]] = {}
    i, last = 0, len(xs) - 1
    for p in points:
        while i < last and xs[i + 1] <= p:
            i += 1
        right = slopes[i] * p + offsets[i]
        if xs[i] != p:
            scaled[p] = (right, right, right)
        else:  # p is 0 only on breakpoint 0, whose left piece ends at d
            left = slopes[i - 1] * (p or d) + offsets[i - 1]
            scaled[p] = (left, values[i], right)
    return scaled, w


def _symmetry_scan(fn: PwlTorusFunction) -> list[tuple[tuple, Fraction]]:
    """Violations of pi(x) + pi(partner(x)) = 1 on the refined breakpoint grid
    plus two interior probes per refined cell (the sum is affine per cell).

    The partner of x is (b - x) mod 1, or (-x) mod 1 in wrap mode.  Over
    d = 3 lcm(breakpoint denominators, denominator of b) the grid and the
    probes at 1/3 and 2/3 of each cell are integers, and the reflection maps
    grid points to grid points and probes to probes, so each point's value
    is taken once, as an integer over a common denominator w, from the
    middle entry of one walk along the pieces.
    """
    rhs = fn.mode == MODE_RHS
    d = 3 * math.lcm(
        *(x.denominator for x in fn.breakpoints), fn.b.denominator if rhs else 1
    )
    xs = [x.numerator * (d // x.denominator) for x in fn.breakpoints]
    bd = fn.b.numerator * (d // fn.b.denominator) if rhs else 0
    grid = set(xs) | {0, bd}
    refined = sorted(grid | {(bd - p) % d for p in grid})
    ends = refined + [d]
    points = []
    for u, v in zip(ends, ends[1:]):
        third = (v - u) // 3
        points += (u, u + third, u + 2 * third)

    scaled, w = _walk_pieces(fn, d, points)

    # grid points first, then the probes; in wrap mode the origin pairs with
    # itself and is exempt
    probes = [p for k, p in enumerate(points) if k % 3]
    checked = (refined if rhs else refined[1:]) + probes
    violations: list[tuple[tuple, Fraction]] = []
    for p in checked:
        gap = scaled[p][1] + scaled[(bd - p) % d][1] - w
        if gap != 0:
            violations.append(((Fraction(p, d),), Fraction(abs(gap), w)))
    return violations


def is_minimal_pwl(fn: PwlTorusFunction) -> MinimalityVerdict:
    """Origin value, nonnegativity, subadditivity and symmetry, all exact.

    Witnesses are reported as breakpoint coordinates rather than residues.
    """
    violations: list[Violation] = []
    for i, triple in enumerate(fn.limits()):
        for v in triple:
            if v < 0:
                violations.append(Violation("negativity", (i,), -v))
                break
    if fn.value_at(0) != 0:
        violations.append(Violation("origin", (0,), abs(fn.value_at(0))))
    _best, _witness, sub_violations = _subadditivity_scan(fn)
    for (x0, y0), amount in sub_violations:
        violations.append(Violation("subadditivity", (x0, y0), amount))
    for witness, amount in _symmetry_scan(fn):
        violations.append(Violation("symmetry", witness, amount))
    return MinimalityVerdict(is_minimal=not violations, violations=tuple(violations))


def _piece_sublevels(
    fn: PwlTorusFunction, alpha: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Per piece, the closed interval of its domain where the piece is <= alpha
    (possibly one point); pieces wholly above alpha give none."""
    intervals: list[tuple[Fraction, Fraction]] = []
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


def sublevel_measure(fn: PwlTorusFunction, alpha) -> Fraction:
    """Exact Lebesgue measure of {x : pi(x) <= alpha}; point values carry none."""
    intervals = _piece_sublevels(fn, as_fraction(alpha))
    return sum((hi - lo for lo, hi in intervals), Fraction(0))


def sublevel_set(fn: PwlTorusFunction, alpha) -> tuple[tuple[Fraction, Fraction], ...]:
    """{pi <= alpha} realized as merged closed intervals in [0, 1].

    Piece contributions are taken with closed endpoints and breakpoints whose
    point value passes are added as degenerate intervals, so the realization
    can differ from the literal preimage on a null set.
    """
    alpha = as_fraction(alpha)
    intervals = _piece_sublevels(fn, alpha)
    for x, value in zip(fn.breakpoints, fn.point_values):
        if value <= alpha:
            intervals.append((x, x))
    return _merge_intervals(intervals)


def _merge_intervals(
    intervals: Iterable[tuple[Fraction, Fraction]],
) -> tuple[tuple[Fraction, Fraction], ...]:
    merged: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def union_measure(intervals: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    return sum((hi - lo for lo, hi in _merge_intervals(intervals)), Fraction(0))


def interval_sumset(
    a: Iterable[tuple[Fraction, Fraction]],
    b: Iterable[tuple[Fraction, Fraction]],
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Minkowski sum of two closed interval unions on the circle."""
    out: list[tuple[Fraction, Fraction]] = []
    b = list(b)
    for a_lo, a_hi in a:
        for b_lo, b_hi in b:
            lo, hi = a_lo + b_lo, a_hi + b_hi
            if hi - lo >= 1:
                return ((Fraction(0), Fraction(1)),)
            shift = lo - (lo % 1)
            lo, hi = lo - shift, hi - shift
            if hi <= 1:
                out.append((lo, hi))
            else:
                out.append((lo, Fraction(1)))
                out.append((Fraction(0), hi - 1))
    return _merge_intervals(out)


@dataclass(frozen=True)
class SublevelProfile:
    """alpha -> measure{pi <= alpha}: nondecreasing, right continuous, piecewise
    affine in alpha with jumps exactly at the values of constant pieces."""

    alphas: tuple[Fraction, ...]  # critical levels, strictly increasing, from 0
    pieces: tuple[Piece, ...]  # piece i on [alphas[i], alphas[i+1]); 1 beyond

    @property
    def alpha_max(self) -> Fraction:
        return self.alphas[-1]

    def measure_at(self, alpha) -> Fraction:
        alpha = as_fraction(alpha)
        if alpha < 0:
            return Fraction(0)
        if alpha >= self.alphas[-1]:
            return Fraction(1)
        i = bisect.bisect_right(self.alphas, alpha) - 1
        s, t = self.pieces[i]
        return s * alpha + t


def _assert_nonnegative(fn: PwlTorusFunction) -> None:
    for x, triple in zip(fn.breakpoints, fn.limits()):
        if min(triple) < 0:
            raise ValueError(f"function is negative near breakpoint {x}")


def sublevel_profile(fn: PwlTorusFunction) -> SublevelProfile:
    """Exact sublevel-measure profile of a nonnegative function, in one sweep.

    The levels are 0 and the end values of every piece.  A sloped piece adds
    measure at rate 1/|s| between its two end values; a constant piece adds
    its length at once, at its value.  Walking the sorted levels with the
    running measure m and rate r gives the profile piece (r, m - r a) at each
    level a.  At the top level the rate must be back to 0 and m exactly 1,
    and at the median level an independent `sublevel_measure` must agree
    with the sweep; otherwise `ValidationFailure`.
    """
    _assert_nonnegative(fn)
    limits = fn.limits()
    levels = {Fraction(0)}
    rate_change: dict[Fraction, Fraction] = {}
    jump: dict[Fraction, Fraction] = {}  # measure gained at once
    for i, (s, _t) in enumerate(fn.pieces):
        u, v = fn.piece_domain(i)
        start, end = limits[i][2], limits[(i + 1) % len(limits)][0]
        levels.add(start)
        levels.add(end)
        if s == 0:
            jump[start] = jump.get(start, 0) + (v - u)
        else:
            lo, hi = (start, end) if s > 0 else (end, start)
            r = 1 / abs(s)
            rate_change[lo] = rate_change.get(lo, 0) + r
            rate_change[hi] = rate_change.get(hi, 0) - r
    alphas = sorted(levels)
    pieces: list[Piece] = []
    measure = rate = Fraction(0)
    previous = alphas[0]
    for alpha in alphas:
        measure += rate * (alpha - previous) + jump.get(alpha, 0)
        rate += rate_change.get(alpha, 0)
        pieces.append((rate, measure - rate * alpha))
        previous = alpha
    pieces.pop()  # the top level starts no piece: the measure stays 1 beyond
    if rate != 0 or measure != 1:
        raise ValidationFailure(
            f"sublevel sweep ends at level {alphas[-1]} with rate {rate} and "
            f"measure {measure}, not 0 and 1"
        )
    profile = SublevelProfile(alphas=tuple(alphas), pieces=tuple(pieces))
    # at the top level every piece lies below, so a direct measure there
    # repeats the end check; the median level tests the sweep in between
    level = alphas[len(alphas) // 2]
    swept, direct = profile.measure_at(level), sublevel_measure(fn, level)
    if direct != swept:
        raise ValidationFailure(
            f"sublevel sweep reaches measure {swept} at level {level}, but "
            f"the measure there is {direct}"
        )
    return profile


def rearrange_torus(fn: PwlTorusFunction) -> PwlTorusFunction:
    """Nondecreasing equimeasurable rearrangement: the generalized inverse of
    the sublevel profile.  Left continuous away from 0; value 0 at the origin.
    """
    profile = sublevel_profile(fn)
    # sweep the profile in alpha, emitting a segment of the inverse whenever
    # the measure advances: affine stretches invert to affine pieces, jumps
    # invert to constants, plateaus invert to jumps (no segment)
    segments: list[tuple[Fraction, Fraction, Fraction, Fraction]] = []
    x_cur = profile.measure_at(0)
    if x_cur > 0:
        segments.append((Fraction(0), x_cur, Fraction(0), Fraction(0)))
    bounds = list(zip(profile.alphas, profile.alphas[1:]))
    for (a_lo, a_hi), (s, t) in zip(bounds, profile.pieces):
        left_val = s * a_lo + t
        if left_val < x_cur:
            raise ValidationFailure(
                f"sublevel profile decreases at level {a_lo}: {left_val} < {x_cur}"
            )
        if left_val > x_cur:
            segments.append((x_cur, left_val, a_lo, Fraction(0)))
            x_cur = left_val
        if s > 0:
            right_lim = s * a_hi + t
            segments.append((x_cur, right_lim, a_lo, 1 / s))
            x_cur = right_lim
    if x_cur < 1:
        segments.append((x_cur, Fraction(1), profile.alpha_max, Fraction(0)))

    breakpoints: list[Fraction] = []
    pieces: list[Piece] = []
    point_values: list[Fraction] = []
    for x0, _x1, alpha0, slope in segments:
        breakpoints.append(x0)
        pieces.append((slope, alpha0 - slope * x0))
        if not point_values:
            point_values.append(Fraction(0))
        else:
            prev_s, prev_t = pieces[-2]
            point_values.append(prev_s * x0 + prev_t)  # left continuity
    return PwlTorusFunction(
        breakpoints=tuple(breakpoints),
        pieces=tuple(pieces),
        point_values=tuple(point_values),
        mode=MODE_WRAP,
    )


def right_limit_fn(fn: PwlTorusFunction) -> PwlTorusFunction:
    """Right-continuous version of a nondecreasing function; same pieces."""
    if not is_nondecreasing(fn):
        raise NotNondecreasing("right-continuous version needs a nondecreasing input")
    # the default point values are the right limits
    return PwlTorusFunction(fn.breakpoints, fn.pieces, b=fn.b, mode=fn.mode)


def tilde_fn(fn: PwlTorusFunction) -> PwlTorusFunction:
    """Average the rearrangement with its right-continuous version.

    The result is nondecreasing, subadditive and wrap-symmetric away from the
    origin, and equals the rearrangement off the breakpoint set.  The origin
    keeps value 0 (a null-set normalization that preserves all integrals).
    """
    verdict = is_minimal_pwl(fn)
    if not verdict.is_minimal:
        raise NotMinimal(f"not minimal: {verdict.violations[0]}")
    h = rearrange_torus(fn)
    point_values = [Fraction(0)] + [(v + r) / 2 for _l, v, r in h.limits()[1:]]
    return PwlTorusFunction(
        breakpoints=h.breakpoints,
        pieces=h.pieces,
        point_values=tuple(point_values),
        mode=MODE_WRAP,
    )


def _ln_antiderivative_term(w: Fraction) -> float:
    """w * (ln w - 1), continued by its limit 0 at w = 0."""
    if w == 0:
        return 0.0
    return float(w) * (ln_fraction(w) - 1.0)


def integral_ln(fn: PwlTorusFunction) -> float:
    """Closed-form integral of ln(pi) over [0, 1); -inf if pi vanishes on a set
    of positive measure.  Endpoint zeros integrate properly (t ln t -> 0)."""
    _assert_nonnegative(fn)
    total = 0.0
    for i, (s, t) in enumerate(fn.pieces):
        u, v = fn.piece_domain(i)
        if s == 0:
            if t == 0:
                return float("-inf")
            total += float(v - u) * ln_fraction(t)
        else:
            total += (
                _ln_antiderivative_term(s * v + t)
                - _ln_antiderivative_term(s * u + t)
            ) / float(s)
    return total


@dataclass(frozen=True)
class LayerCakeReport:
    lhs: float  # integral of -ln(pi)
    rhs: float  # integral of measure{pi <= s} / s over (0, 1]
    gap: float


def layer_cake_check(fn: PwlTorusFunction) -> LayerCakeReport:
    """Compare -integral ln(pi) with the layer-cake form over the exact
    sublevel profile; the 1/s singularity integrates in closed form because
    the profile is piecewise affine with zero measure at level 0."""
    if any(max(triple) > 1 for triple in fn.limits()):
        raise ValueError("layer-cake comparison expects values within [0, 1]")
    lhs = -integral_ln(fn)
    profile = sublevel_profile(fn)
    rhs = 0.0
    diverged = False
    for (a_lo, a_hi), (s, t) in zip(
        zip(profile.alphas, profile.alphas[1:]), profile.pieces
    ):
        if a_lo == 0:
            if t != 0:
                diverged = True
                break
            rhs += float(s * a_hi)
        else:
            rhs += float(s) * float(a_hi - a_lo)
            if t != 0:
                rhs += float(t) * (ln_fraction(a_hi) - ln_fraction(a_lo))
    if diverged or profile.measure_at(0) > 0:
        rhs = float("inf")
    elif profile.alpha_max < 1:
        rhs += -ln_fraction(profile.alpha_max)
    if lhs == float("inf") and rhs == float("inf"):
        return LayerCakeReport(lhs=lhs, rhs=rhs, gap=0.0)
    return LayerCakeReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


def lp_power_torus(fn: PwlTorusFunction, p: int) -> Fraction:
    """Exact integral of pi^p over [0, 1) for a nonnegative function."""
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    _assert_nonnegative(fn)
    total = Fraction(0)
    for i, (s, t) in enumerate(fn.pieces):
        u, v = fn.piece_domain(i)
        if s == 0:
            total += (v - u) * t**p
        else:
            total += ((s * v + t) ** (p + 1) - (s * u + t) ** (p + 1)) / (
                s * (p + 1)
            )
    return total


def lp_norm_torus(fn: PwlTorusFunction, p: int) -> float:
    """(integral of pi^p)^(1/p) as a float, correctly rounded within 1 ulp."""
    return nth_root_float(lp_power_torus(fn, p), p)
