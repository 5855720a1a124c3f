"""Piecewise-linear functions on the circle [0,1): construction, minimality
certification, rearrangement, and integrals, each read off the integer
widths and end values of the pieces.

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
from operator import add, sub
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DimensionCap,
    NotMinimal,
    OutOfRange,
    ValidationFailure,
)
from .finite_functions import FiniteGroupFunction, MinimalityVerdict, Violation
from .rationals import (
    PackedFields,
    as_fraction,
    check_exponent,
    json_field,
    ln_ratio,
    nth_root_float,
)

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
    "tilde_fn",
    "integral_ln",
    "layer_cake_check",
    "lp_power_torus",
    "lp_norm_torus",
]

MODE_RHS = "rhs"  # symmetry partner of x is (b - x) mod 1
MODE_WRAP = "wrap"  # symmetry partner of x is (1 - x) mod 1, origin exempt

Piece = tuple[Fraction, Fraction]  # slope, intercept: value = slope*x + intercept


class _IntegerForm(NamedTuple):
    """A circle function as integers, worked out once by `_integer_form`."""

    dx: int  # the lcm of the breakpoint denominators
    xs: tuple[int, ...]  # the breakpoints over dx
    w: int  # lcm(dx L, point value denominators), L = lcm(piece coefficient denominators)
    slopes: tuple[int, ...]  # each piece's slope per 1/dx step, over w
    offsets: tuple[int, ...]  # each piece's intercept over w
    values: tuple[int, ...]  # the point values over w


def _integer_form(fn: PwlTorusFunction) -> _IntegerForm:
    dx = math.lcm(*(x.denominator for x in fn.breakpoints))
    coefficients = math.lcm(*(c.denominator for piece in fn.pieces for c in piece))
    w = math.lcm(dx * coefficients, *(v.denominator for v in fn.point_values))
    return _IntegerForm(
        dx,
        tuple(x.numerator * (dx // x.denominator) for x in fn.breakpoints),
        w,
        tuple(s.numerator * (w // (s.denominator * dx)) for s, _t in fn.pieces),
        tuple(t.numerator * (w // t.denominator) for _s, t in fn.pieces),
        tuple(v.numerator * (w // v.denominator) for v in fn.point_values),
    )


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
        # kept outside the dataclass fields, so ==, hash and repr do not see it
        object.__setattr__(self, "_form", _integer_form(self))

    def piece_domain(self, i: int) -> tuple[Fraction, Fraction]:
        hi = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else Fraction(1)
        return self.breakpoints[i], hi

    def value_at(self, x) -> Fraction:
        return self._limits_at(x)[1]

    def left_limit_at(self, x) -> Fraction:
        return self._limits_at(x)[0]

    def right_limit_at(self, x) -> Fraction:
        return self._limits_at(x)[2]

    def _limits_at(self, x) -> tuple[Fraction, Fraction, Fraction]:
        """(left limit, value, right limit) at x mod 1: the `limits()` entry
        on a breakpoint, and the value of the piece three times off one."""
        x = as_fraction(x) % 1
        i = bisect.bisect_right(self.breakpoints, x) - 1
        if self.breakpoints[i] == x:
            return self.limits()[i]
        s, t = self.pieces[i]
        value = s * x + t
        return value, value, value

    def limits(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """(left limit, value, right limit) at each breakpoint, by piece index,
        from one `_walk_pieces` at the breakpoints."""
        return self._limit_table

    # built on first use and, like the integer form, kept outside the fields
    @functools.cached_property
    def _limit_table(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        scaled, w = _walk_pieces(self, self._form.dx, self._form.xs)
        return tuple(tuple(Fraction(v, w) for v in t) for t in scaled.values())

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
            left, _value, right = fn._limits_at(x)
            if stored != (left, right):
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


# realizable one-sided approach patterns for (x, y, x+y) at a grid corner
_LIMIT_COMBOS = (
    (1, 1, 1),
    (1, 2, 2), (1, 0, 0), (2, 1, 2), (0, 1, 0),
    (2, 2, 2), (0, 0, 0),
    (2, 0, 2), (2, 0, 0), (2, 0, 1),
    (0, 2, 2), (0, 2, 0), (0, 2, 1),
)
# the 13 patterns folded into 9 slack columns: the three (2,0,.) patterns
# share Rx+Ly and the three (0,2,.) patterns share Lx+Ry, so each is taken
# once against the largest entry of x+y, side 3
_COLUMNS = (
    (1, 1, 1), (1, 2, 2), (1, 0, 0), (2, 1, 2), (0, 1, 0),
    (2, 2, 2), (0, 0, 0), (2, 0, 3), (0, 2, 3),
)
# the grid screen leaves out (2,1,2) and (0,1,0): on a breakpoint y each is
# (1,2,2) or (1,0,0) at the swapped corner (y, x), which row y holds, and off
# the breakpoints it is (2,2,2) or (0,0,0)
_SCREEN_COLUMNS = tuple(c for c in _COLUMNS if c not in ((2, 1, 2), (0, 1, 0)))

# Most breakpoints a circle function may have for a subadditivity check.
# The corner scan builds about 2n^2 corners; at n = 300, on a non-minimal
# function, where the grid screen flags a row and the full scan runs,
# is_minimal_pwl takes 0.4 s (152 violations) to 1.0 s (every corner
# violated); on a clean step function it takes 0.3-0.45 s where the screen
# runs on its largest grid, dx = 100n = 30,000 (nearly all of it the screen,
# with one- or two-byte fields), and about 0.85 s on the scan alone at
# dx = n^2, in one process on one pinned core of a shared Intel Xeon
# (Python 3.11).  Every function above it is refused before any walk.
MAX_BREAKPOINTS = 300


def _admit_breakpoints(fn: PwlTorusFunction) -> None:
    n = len(fn.breakpoints)
    if n > MAX_BREAKPOINTS:
        raise DimensionCap(
            f"{n} breakpoints exceed the corner-scan cap {MAX_BREAKPOINTS}"
        )


def _subadditivity_scan(fn: PwlTorusFunction) -> tuple[Fraction, tuple, list[Violation]]:
    """Minimum of the subadditivity slack over the whole torus square.

    The slack is affine on each cell cut out by the breakpoints in x, y and
    x+y, so its infimum over points *and* one-sided limits is attained at a
    cell corner (a breakpoint pair or a difference-aligned pair) under one of
    the realizable approach patterns.  Coordinates are scanned as integers
    over the integer form's dx, and `_walk_pieces` gives the left limit,
    value and right limit at every corner coordinate as integers over its w;
    both scalings are positive, so the corner order, the witness and the
    violations are those of the exact scan.

    The sorted corners are scanned column-wise: the 13 patterns fold into 9
    slack columns, because the three (2,0,.) patterns share Rx+Ly and the
    three (0,2,.) patterns share Lx+Ry, each against the largest entry of
    x+y.  The pattern of the witness is found once, at the winning corner.
    """
    dx, xs = fn._form.dx, fn._form.xs
    corners = {(x, y) for x in xs for y in xs}
    corners |= {(x, (y - x) % dx) for x in xs for y in xs}
    corners = sorted(corners)
    sums = [(x + y) % dx for x, y in corners]
    nums, w = _walk_pieces(fn, dx, sorted({*xs, *(y for _x, y in corners), *sums}))

    xsides = list(zip(*[nums[x] for x, _y in corners]))
    ysides = list(zip(*[nums[y] for _x, y in corners]))
    zsides = list(zip(*map(nums.__getitem__, sums)))
    zsides.append(list(map(max, *zsides)))
    columns = [
        map(sub, map(add, xsides[a], ysides[b]), zsides[c]) for a, b, c in _COLUMNS
    ]
    worst = list(map(min, *columns))

    best = min(worst)
    k = worst.index(best)
    x, y = corners[k]
    tx, ty, tz = nums[x], nums[y], nums[sums[k]]
    slacks = [tx[sx] + ty[sy] - tz[sz] for sx, sy, sz in _LIMIT_COMBOS]
    witness = (Fraction(x, dx), Fraction(y, dx), _LIMIT_COMBOS[slacks.index(best)])
    # each distinct coordinate and amount is one Fraction, shared by every
    # violation that holds it
    failing = [(corner, slack) for corner, slack in zip(corners, worst) if slack < 0]
    coordinates = {p for corner, _slack in failing for p in corner}
    points = {p: Fraction(p, dx) for p in coordinates}
    amounts = {s: Fraction(-s, w) for s in {slack for _corner, slack in failing}}
    violations = [
        Violation("subadditivity", (points[x], points[y]), amounts[slack])
        for (x, y), slack in failing
    ]
    return Fraction(best, w), witness, violations


def _screen_is_clean(fn: PwlTorusFunction) -> bool:
    """True when no corner of `_subadditivity_scan` holds a negative slack,
    found on the packed integer grid; False when a row holds one, or when
    the grid has more than n min(n, 100) points: there the screen does not
    run.  Its n rows of dx fields grow with the grid and the scan's 2n^2
    corners do not.  On clean step functions (one pinned Intel Xeon core,
    Python 3.11) the screen took 0.5-0.7 of the scan's time at dx = n^2 for
    n <= 100, but 0.9 at n = 150 and 200 and 1.2-1.6 at n = 300; at
    dx = 100n it took 0.4-0.7 for n = 150 to 300.

    Every corner (x, y) has x on a breakpoint and y and x+y on the grid p/dx.
    One walk gives the left limit, value and right limit at every grid
    point, over w; each of these three and their largest (side 3) is packed
    into one int, a field per point of a `PackedFields` layout, biased by M,
    the largest magnitude, so that every field is nonnegative.  Breakpoint
    row x takes its three limits as scalars, the y sides as packed, and the
    x+y sides from the doubled ints shifted by x fields and masked.  Each
    slack lies in [-3M, 3M], so one add and subtract gives a column's
    slacks, and a field's top bit is clear exactly when its slack is
    negative (the argument is on `PackedFields`).

    The screen is exact.  Off the corners every column of row x reads
    pi(x) + pi(y) - pi(x+y) for one limit of x, which is affine in y between
    two neighbouring corners of the row; so a negative one is negative at
    one of those corners under a (.,2,2) or (.,0,0) pattern, and each such
    pattern is one of the 7 screen columns or at least one of them.  At the
    corners the 7 columns miss no negative slack of the scan's 9.
    """
    n, dx = len(fn.breakpoints), fn._form.dx
    if dx > n * min(n, 100):
        return False
    nums, _w = _walk_pieces(fn, dx, range(dx))
    sides = list(zip(*nums.values()))
    sides.append(tuple(map(max, *sides)))
    bias = max(max(sides[3]), -min(map(min, sides[:3])))  # M
    fields = PackedFields(dx, 3 * bias)
    width, ones, tops, mask = fields.width, fields.ones, fields.tops, fields.mask
    packed = [fields.pack(side, bias) for side in sides]
    ysides = [side + tops for side in packed[:3]]
    doubled = [side | side << dx * width for side in packed]  # field k: k % dx
    for p in fn._form.xs:
        xsides = [a * ones for a in nums[p]]
        zsides = [(z >> p * width) & mask for z in doubled]
        row = tops
        for a, b, c in _SCREEN_COLUMNS:
            row &= ysides[b] + xsides[a] - zsides[c]
        if row != tops:
            return False
    return True


def subadditivity_slack(fn: PwlTorusFunction) -> tuple[Fraction, tuple]:
    """Exact infimum of pi(x) + pi(y) - pi(x+y), with a witness corner.  A
    function above MAX_BREAKPOINTS raises DimensionCap before any scan."""
    _admit_breakpoints(fn)
    return _subadditivity_scan(fn)[:2]


def _walk_pieces(
    fn: PwlTorusFunction, d: int, points: Iterable[int]
) -> tuple[dict[int, tuple[int, int, int]], int]:
    """{p: (left limit, value, right limit) of fn at p / d, times k w} for
    the ascending integers p in [0, d), and k w, where d = k dx.

    Over k w piece i of the integer form is the integer affine map
    slopes[i] p + k offsets[i] (a step of 1/d is a step of 1/dx over k w).
    Off a breakpoint all three entries are the value of the piece there; on
    breakpoint i they are piece i-1 (the last piece at d when i = 0), the
    point value and piece i.  So one walk along the pieces gives every entry
    as an integer; the walk at the breakpoints is `limits()`.
    """
    dx, xs, w, slopes, offsets, values = fn._form
    k = d // dx
    xs, offsets = [x * k for x in xs], [t * k for t in offsets]
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
            scaled[p] = (left, values[i] * k, right)
    return scaled, k * w


def _symmetry_scan(fn: PwlTorusFunction) -> Iterator[Violation]:
    """Violations of pi(x) + pi(partner(x)) = 1 on the refined breakpoint grid
    plus two interior probes per refined cell (the sum is affine per cell).

    The partner of x is (b - x) mod 1, or (-x) mod 1 in wrap mode.  Over
    d = 3 lcm(dx, denominator of b) the grid and the probes at 1/3 and 2/3
    of each cell are integers, and the reflection maps grid points to grid
    points and probes to probes, so each point's value is taken once, as an
    integer over a common denominator w, from the middle entry of one walk
    along the pieces.
    """
    rhs = fn.mode == MODE_RHS
    d = 3 * math.lcm(fn._form.dx, fn.b.denominator if rhs else 1)
    bd = fn.b.numerator * (d // fn.b.denominator) if rhs else 0
    grid = {x * (d // fn._form.dx) for x in fn._form.xs} | {0, bd}
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
    for p in checked:
        gap = scaled[p][1] + scaled[(bd - p) % d][1] - w
        if gap != 0:
            yield Violation("symmetry", (Fraction(p, d),), Fraction(abs(gap), w))


def _violations(fn: PwlTorusFunction) -> Iterator[Violation]:
    """Negativity, origin, subadditivity, then symmetry violations of fn, as
    one lazy chain.  A function above MAX_BREAKPOINTS raises DimensionCap
    before the first.  Subadditivity is screened on the packed grid first;
    only when the screen flags a row, or does not run, does the corner scan
    list the violations."""
    _admit_breakpoints(fn)
    for i, triple in enumerate(fn.limits()):
        negative = next((v for v in triple if v < 0), None)  # the first of the three
        if negative is not None:
            yield Violation("negativity", (i,), -negative)
    origin = fn.limits()[0][1]
    if origin != 0:
        yield Violation("origin", (0,), abs(origin))
    if not _screen_is_clean(fn):
        yield from _subadditivity_scan(fn)[2]
    yield from _symmetry_scan(fn)


def is_minimal_pwl(fn: PwlTorusFunction) -> MinimalityVerdict:
    """Origin value, nonnegativity, subadditivity and symmetry, all exact:
    the verdict of the whole `_violations` chain.

    Witnesses are reported as breakpoint coordinates rather than residues.
    A function above MAX_BREAKPOINTS raises DimensionCap before any scan.
    """
    violations = tuple(_violations(fn))
    return MinimalityVerdict(is_minimal=not violations, violations=violations)


def _spans(fn: PwlTorusFunction) -> tuple[list[tuple[int, int, int]], int, int]:
    """Per piece (start value, end value, length) as integers, and dx and w,
    read off the integer form with no walk: with slope s and intercept t over
    w, piece i runs from s x_i + t to s x_{i+1} + t, over x_{i+1} - x_i, the
    breakpoints x_i over dx and x_n = dx."""
    dx, xs, w, slopes, offsets, _values = fn._form
    pieces = zip(slopes, offsets, xs, xs[1:] + (dx,))
    return [(s * u + t, s * v + t, v - u) for s, t, u, v in pieces], dx, w


def _rise_lcm(spans: list[tuple[int, int, int]]) -> int:
    """M, the lcm of |end - start| over the sloped pieces (1 if none)."""
    return math.lcm(*(abs(end - start) for start, end, _n in spans if end != start))


def _piece_sublevels(
    fn: PwlTorusFunction, alpha: Fraction
) -> tuple[list[tuple[int, int]], int]:
    """Per piece, the closed interval of its domain where the piece is <= alpha
    (possibly one point), as a pair of integers over one denominator D, and
    D; pieces wholly above alpha give none.

    With alpha = a / d, the span table over dx and w, and M = `_rise_lcm`,
    D is dx d M, so a sloped piece crosses alpha at an integer: its left
    end plus length (a w - start d) M / (end - start)."""
    spans, dx, w = _spans(fn)
    rise_lcm = _rise_lcm(spans)
    d = alpha.denominator
    level, unit = alpha.numerator * w, d * rise_lcm
    intervals: list[tuple[int, int]] = []
    lo = 0
    for start, end, length in spans:
        hi = lo + length * unit
        if level >= max(start, end) * d:  # the whole piece, constant ones too
            intervals.append((lo, hi))
        elif end > start and level >= start * d:
            cross = length * (level - start * d) * (rise_lcm // (end - start))
            intervals.append((lo, lo + cross))
        elif end < start and level >= end * d:
            cross = length * (start * d - level) * (rise_lcm // (start - end))
            intervals.append((lo + cross, hi))
        lo = hi
    return intervals, dx * unit


def sublevel_measure(fn: PwlTorusFunction, alpha) -> Fraction:
    """Exact Lebesgue measure of {x : pi(x) <= alpha}; point values carry none."""
    intervals, den = _piece_sublevels(fn, as_fraction(alpha))
    return Fraction(sum(hi - lo for lo, hi in intervals), den)


def sublevel_set(fn: PwlTorusFunction, alpha) -> tuple[tuple[Fraction, Fraction], ...]:
    """{pi <= alpha} realized as merged closed intervals in [0, 1].

    Piece contributions are taken with closed endpoints and breakpoints whose
    point value passes are added as degenerate intervals, so the realization
    can differ from the literal preimage on a null set.
    """
    alpha = as_fraction(alpha)
    clipped, den = _piece_sublevels(fn, alpha)
    intervals = [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in clipped]
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
        if min(v.numerator for v in triple) < 0:
            raise ValueError(f"function is negative near breakpoint {x}")


def _sublevel_sweep(fn: PwlTorusFunction) -> tuple[list[tuple[int, ...]], int, int]:
    """Exact sublevel measures of a nonnegative function, in one sweep over
    integer levels: per level A (over w), the measure just below A, the
    measure at A and the rate just above A (each over den = dx M); and w, den.

    The levels are 0 and the end values of every piece, as integers over w
    from `_spans`.  With M the lcm of |end - start| over the sloped pieces, a
    piece of length l (over dx) adds measure in units of 1/(dx M): a sloped
    piece at the integer rate l M / |end - start| per level unit between its
    two end values, a constant piece l M at once, at its value.  At the top
    level the rate must be back to 0 and the measure exactly dx M, and at the
    median level an independent `sublevel_measure` must agree with the sweep;
    otherwise `ValidationFailure`.
    """
    _assert_nonnegative(fn)
    spans, dx, w = _spans(fn)
    rise_lcm = _rise_lcm(spans)
    levels = {0}
    rate_change: dict[int, int] = {}
    jump: dict[int, int] = {}  # measure gained at once
    for start, end, length in spans:
        levels.add(start)
        levels.add(end)
        if start == end:
            jump[start] = jump.get(start, 0) + length * rise_lcm
        else:
            lo, hi = (start, end) if start < end else (end, start)
            rate = length * (rise_lcm // (hi - lo))
            rate_change[lo] = rate_change.get(lo, 0) + rate
            rate_change[hi] = rate_change.get(hi, 0) - rate
    den = dx * rise_lcm
    rows: list[tuple[int, ...]] = []  # (level, below, at, rate above)
    measure = rate = previous = 0
    for level in sorted(levels):
        below = measure + rate * (level - previous)
        measure = below + jump.get(level, 0)
        rate += rate_change.get(level, 0)
        rows.append((level, below, measure, rate))
        previous = level
    if rate != 0 or measure != den:
        raise ValidationFailure(
            f"sublevel sweep ends at level {Fraction(previous, w)} with rate "
            f"{Fraction(rate * w, den)} and measure {Fraction(measure, den)}, "
            "not 0 and 1"
        )
    # at the top level every piece lies below, so a direct measure there
    # repeats the end check; the median level tests the sweep in between
    level, _below, at, _rate = rows[len(rows) // 2]
    alpha, swept = Fraction(level, w), Fraction(at, den)
    direct = sublevel_measure(fn, alpha)
    if direct != swept:
        raise ValidationFailure(
            f"sublevel sweep reaches measure {swept} at level {alpha}, but "
            f"the measure there is {direct}"
        )
    return rows, w, den


def sublevel_profile(fn: PwlTorusFunction) -> SublevelProfile:
    """Exact sublevel-measure profile of a nonnegative function: the rows of
    `_sublevel_sweep` as `Fraction`s.  Level A, with measure m at A and rate
    r above it, starts the piece (r w, m - r A) / den; the top level starts
    none, as the measure stays 1 beyond."""
    return _profile(*_sublevel_sweep(fn))


def _profile(rows: list[tuple[int, ...]], w: int, den: int) -> SublevelProfile:
    """The profile of the rows of one `_sublevel_sweep`, over w and den."""
    return SublevelProfile(
        alphas=tuple(Fraction(level, w) for level, *_measures in rows),
        pieces=tuple(
            (Fraction(rate * w, den), Fraction(at - rate * level, den))
            for level, _below, at, rate in rows[:-1]
        ),
    )


def _rearranged(fn: PwlTorusFunction) -> list[tuple]:
    """Per breakpoint of the nondecreasing rearrangement, the generalized
    inverse of the sublevel profile: its x, its piece, and its left and right
    limits, read off the rows of one `_sublevel_sweep`.

    A jump of the measure at level A becomes the constant A, a rate r above
    A the piece of slope den / (w r) that starts at A and rises to the next
    level, and a plateau a jump.  So a breakpoint's right limit is the level
    its piece starts at, and its left limit the level the piece before ends
    at.  A measure below one already reached raises `ValidationFailure`.
    """
    rows, w, den = _sublevel_sweep(fn)

    def start(x: int, slope: Fraction, level: int, top: int) -> tuple:
        x, alpha = Fraction(x, den), Fraction(level, w)
        return x, (slope, alpha - slope * x), Fraction(top, w), alpha

    starts = []
    reached = top = rising = 0  # measure reached, level there, rate before
    for level, below, at, rate in rows:
        if rising > 0:  # the piece rising from the level before ends here
            reached, top = below, level
        if min(below, at) < reached:
            raise ValidationFailure(
                f"sublevel profile decreases at level {Fraction(level, w)}: "
                f"{Fraction(min(below, at), den)} < {Fraction(reached, den)}"
            )
        if at > reached:
            starts.append(start(reached, Fraction(0), level, top))
            reached, top = at, level
        if rate > 0:
            starts.append(start(at, Fraction(den, w * rate), level, top))
        rising = rate
    return starts


def rearrange_torus(fn: PwlTorusFunction) -> PwlTorusFunction:
    """Nondecreasing equimeasurable rearrangement: the generalized inverse of
    the sublevel profile.  Left continuous away from 0; value 0 at the origin.
    """
    breakpoints, pieces, lefts, _rights = zip(*_rearranged(fn))
    return PwlTorusFunction(breakpoints, pieces, (0, *lefts[1:]), mode=MODE_WRAP)


def tilde_fn(fn: PwlTorusFunction) -> PwlTorusFunction:
    """Average the rearrangement with its right-continuous version.

    The result is nondecreasing, subadditive and wrap-symmetric away from the
    origin, and equals the rearrangement off the breakpoint set.  The origin
    keeps value 0 (a null-set normalization that preserves all integrals).
    """
    first = next(_violations(fn), None)
    if first is not None:
        raise NotMinimal(f"not minimal: {first}")
    breakpoints, pieces, lefts, rights = zip(*_rearranged(fn))
    averages = [(left + right) / 2 for left, right in zip(lefts[1:], rights[1:])]
    return PwlTorusFunction(breakpoints, pieces, (0, *averages), mode=MODE_WRAP)


def _log_mean_excess(low: int, high: int) -> float:
    """g(r) = -r ln r / (1 - r) at r = low / high, for ints 0 <= low <= high
    and high > 0, continued by its limits: 0 at r = 0, and 1 where 1 - r,
    formed as (high - low) / high, is below the least float."""
    if low == 0:
        return 0.0
    gap = (high - low) / high
    if gap == 0.0:
        return 1.0
    return -(low / high) * ln_ratio(low, high) / gap


def integral_ln(fn: PwlTorusFunction) -> float:
    """Integral of ln(pi) over [0, 1); -inf if pi vanishes on a set of
    positive measure.  Endpoint zeros integrate properly (t ln t -> 0).

    One route per piece, over the integer span table: a piece of length l
    (over dx) adds l / dx times the mean of ln over it.  At a constant
    value S (over w) that mean is ln(S / w); from m to M > m it is
    ln(M / w) - 1 + g(m / M), g as in `_log_mean_excess`.  Every float
    formed is a ratio of ints in [0, 1] or the log of a ratio of ints, so
    none overflows, and a nearly flat piece does not cancel."""
    _assert_nonnegative(fn)
    spans, dx, w = _spans(fn)
    total = 0.0
    for start, end, length in spans:
        low, high = sorted((start, end))
        mean = ln_ratio(high, w)
        if low != high:
            mean += _log_mean_excess(low, high) - 1.0
        total += length / dx * mean
    return total


@dataclass(frozen=True)
class LayerCakeReport:
    lhs: float  # integral of -ln(pi)
    rhs: float  # integral of measure{pi <= s} / s over (0, 1]
    gap: float


def layer_cake_check(fn: PwlTorusFunction) -> LayerCakeReport:
    """Compare -integral ln(pi) with the layer-cake form, the integral of
    measure{pi <= a} / a over (0, 1], read off the rows of one
    `_sublevel_sweep` (see `_layer_cake`)."""
    _assert_unit_values(fn)
    return _layer_cake(integral_ln(fn), *_sublevel_sweep(fn))


def _assert_unit_values(fn: PwlTorusFunction) -> None:
    if any(max(triple) > 1 for triple in fn.limits()):
        raise ValueError("layer-cake comparison expects values within [0, 1]")


def _layer_cake(
    log_integral: float, rows: list[tuple[int, ...]], w: int, den: int
) -> LayerCakeReport:
    """The layer-cake report of a function whose `integral_ln` is
    log_integral and whose `_sublevel_sweep` gave rows, w and den.

    The measure is affine between two consecutive levels a < a', from m at
    a to m + dm below a', so the stretch adds dm (1 - g(a / a')) +
    m ln(a' / a), g as in `_log_mean_excess`; from level 0 it adds dm, and a
    measure above 0 at level 0 makes the form diverge.  Above the top level
    the measure is 1 up to 1.  Levels are ints over w and measures ints over
    den, so every float is again a ratio of ints or the log of one."""
    lhs = -log_integral
    if rows[0][2] > 0:  # the measure at level 0
        rhs = float("inf")
    else:
        rhs = ln_ratio(w, rows[-1][0])
        for (a, _below, m, _rate), (b, below, *_rest) in zip(rows, rows[1:]):
            rhs += (below - m) / den * (1.0 - _log_mean_excess(a, b))
            if m:  # m is 0 at level 0, where ln(b / a) has no value
                rhs += m / den * ln_ratio(b, a)
    if lhs == float("inf") and rhs == float("inf"):
        return LayerCakeReport(lhs=lhs, rhs=rhs, gap=0.0)
    return LayerCakeReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


def lp_power_torus(fn: PwlTorusFunction, p: int) -> Fraction:
    """Exact integral of pi^p over [0, 1) for a nonnegative function.

    One integer sum over the span table (end values S, E over w, length l
    over dx): a sloped piece adds l (E^(p+1) - S^(p+1)) / (E - S), an exact
    division, and a constant piece (p+1) l S^p; the sum is over
    dx w^p (p+1).  p is checked by `check_exponent` before any arithmetic.
    """
    check_exponent(p)
    _assert_nonnegative(fn)
    spans, dx, w = _spans(fn)
    total = 0
    for start, end, length in spans:
        if start == end:
            total += (p + 1) * length * start**p
        else:
            total += length * ((end ** (p + 1) - start ** (p + 1)) // (end - start))
    return Fraction(total, dx * w**p * (p + 1))


def lp_norm_torus(fn: PwlTorusFunction, p: int) -> float:
    """(integral of pi^p)^(1/p) as a float, correctly rounded within 1 ulp."""
    return nth_root_float(lp_power_torus(fn, p), p)
