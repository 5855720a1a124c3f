"""The polytope of minimal functions on Z/qZ: exact H-representation, vertex
enumeration by double description, and volume optimization over its vertices."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul, sub
from typing import Iterable, Sequence

from .criteria import _value_product
from .errors import (
    DimensionCap,
    NotMinimal,
    NotNondecreasing,
    ValidationFailure,
    ZeroElement,
)
from .finite_functions import FiniteGroupFunction, _violations
from .group_core import CyclicGroup, require_prime
from .rationals import PackedFields

__all__ = [
    "MinimalFunctionPolytope",
    "VertexSet",
    "MinimizeResult",
    "Decomposition",
    "build_polytope",
    "enumerate_vertices",
    "minimize_volume",
    "gomory_decomposition",
]

IntRow = tuple[tuple[int, ...], int]  # coeffs . z >= rhs, integer, primitive

# Largest order whose vertex enumeration has been measured to finish:
# minimize_volume(23, 22) (7188 vertices) takes about 1.9 s (1.81-1.93 s over
# five fresh processes on an Intel Xeon core, Python 3.11, against 2.18-2.29 s
# in alternating runs when every cutting row rebuilt the incidence bitsets
# from the masks).  A slower shared core that took 3.6 s for it took 11 s
# with the rows inserted in lexicographic order, and at q = 29 a fraction of
# the polytope alone took ten minutes.
MAX_ORDER = 23


@dataclass(frozen=True)
class MinimalFunctionPolytope:
    """{pi >= 0 : pi(0)=0, subadditive, symmetric about b} over free coordinates.

    The symmetry equations pin pi(0), pi(b) and any halfway point and pair the
    remaining coordinates, so each residue's value is a constant or an affine
    expression in one free coordinate z_j.  Substituting these expressions
    into pi(x) + pi(y) >= pi(x+y) gives the one row system kept here, as
    primitive integer rows; pi >= 0 reduces to the box rows 0 <= z_j <= 1.
    """

    q: int
    b: int
    free: tuple[int, ...]  # residues serving as free coordinates, ascending
    # per residue (doubled const, j, sign): the value is const + sign * z_j,
    # and just const when sign is 0 (then j is 0 and unused); const is 0, 1/2
    # or 1, kept doubled as the integer 0, 1 or 2
    terms: tuple[tuple[int, int, int], ...]
    box_rows: tuple[IntRow, ...]  # 0 <= z_j <= 1, two rows per free coordinate
    # remaining reduced rows, deduplicated, sparse first: sorted by (number of
    # nonzero coefficients, row), the insertion order that keeps the double
    # description's intermediate vertex sets small (Fukuda & Prodon 1996)
    other_rows: tuple[IntRow, ...]

    @property
    def dimension(self) -> int:
        return len(self.free)


@dataclass(frozen=True)
class VertexSet:
    q: int
    b: int
    # each certified vertex as its value vector's integer numerators over
    # one denominator, in the enumerator's slot order; nothing depends on
    # that order (`.vertices` and `minimize_volume`'s argmin are sorted)
    points: tuple[tuple[tuple[int, ...], int], ...]

    def __len__(self) -> int:
        return len(self.points)

    @functools.cached_property
    def vertices(self) -> tuple[FiniteGroupFunction, ...]:
        """The vertices as functions, sorted by value vector, built on first
        access."""
        return tuple(_sorted_functions(self.q, self.b, self.points))


def _sorted_functions(q: int, b: int, points: Sequence) -> list[FiniteGroupFunction]:
    """Functions built from integer points, sorted by value vector: their
    numerators, scaled to one common denominator, compare as the values do."""
    group = CyclicGroup(q)
    rhs = group.element(b)
    fns = [FiniteGroupFunction(group, rhs, *point) for point in points]
    den = math.lcm(*(f.denominator for f in fns))
    return sorted(fns, key=lambda f: [den // f.denominator * n for n in f.numerators])


@dataclass(frozen=True)
class MinimizeResult:
    q: int
    b: int
    value: Fraction
    argmin: FiniteGroupFunction
    unique: bool
    n_vertices: int


@dataclass(frozen=True)
class Decomposition:
    """Split pi = lam * gom(q, q-1) + (1 - lam) * pi_tilde with both parts minimal."""

    lam: Fraction
    gamma: Fraction  # minimum subadditivity slack over wrap-around pairs
    pi_tilde: FiniteGroupFunction


def build_polytope(q: int, b: int) -> MinimalFunctionPolytope:
    """The minimal-function polytope in the free coordinates left by the
    symmetry substitution, as primitive integer rows."""
    b %= q
    if b == 0:
        raise ZeroElement("polytope needs a nonzero right-hand side")

    # symmetry substitution: pi(0)=0, pi(b)=1, halfway points 1/2, pairs z / 1-z,
    # per residue as (doubled const, j, sign)
    term_of: dict[int, tuple[int, int, int]] = {0: (0, 0, 0), b: (2, 0, 0)}
    free: list[int] = []
    for x in range(1, q):
        if x in term_of:
            continue
        partner = (b - x) % q
        if partner == x:
            term_of[x] = (1, 0, 0)
            continue
        term_of[x] = (0, len(free), 1)
        term_of[partner] = (2, len(free), -1)
        free.append(x)
    terms = [term_of[x] for x in range(q)]

    d = len(free)
    box_rows: list[IntRow] = []
    for j in range(d):
        unit = tuple(1 if i == j else 0 for i in range(d))
        box_rows.append((unit, 0))
        box_rows.append((tuple(-u for u in unit), -1))
    box_set = set(box_rows)

    # pi(x) + pi(y) - pi(x+y) >= 0, doubled, for every pair 1 <= x <= y < q
    other_rows: set[IntRow] = set()
    for x in range(1, q):
        for y in range(x, q):
            coeffs = [0] * d
            rhs = 0
            for residue, c in ((x, 1), (y, 1), ((x + y) % q, -1)):
                const, j, sign = terms[residue]
                rhs -= c * const
                if sign:
                    coeffs[j] += 2 * c * sign
            if not any(coeffs):
                if rhs > 0:
                    raise ValidationFailure(
                        f"inconsistent constant row: 0 >= {Fraction(rhs, 2)}"
                    )
                continue
            g = math.gcd(rhs, *coeffs)
            row = (tuple(c // g for c in coeffs), rhs // g)
            if row not in box_set:
                other_rows.add(row)

    return MinimalFunctionPolytope(
        q=q,
        b=b,
        free=tuple(free),
        terms=tuple(terms),
        box_rows=tuple(box_rows),
        other_rows=tuple(
            sorted(other_rows, key=lambda row: (sum(map(bool, row[0])), row))
        ),
    )


def _canonical(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    g = math.gcd(den, *nums)
    if g > 1:
        nums = [n // g for n in nums]
        den //= g
    return tuple(nums), den


def _has_full_rank(rows: Iterable[Sequence[int]], d: int) -> bool:
    """Whether the integer rows span all d dimensions.

    Fraction-free elimination keyed by pivot column: each kept row is zero
    before its pivot column, its first nonzero one.  A row, as it comes, is
    reduced by the kept row keyed by its own first nonzero column, which
    moves that column further right, until no kept row has its column or
    the row is zero; a nonzero row is then kept under that column.  The kept
    rows stay independent and span what the rows read so far span, so the
    test returns as soon as d of them are kept and reads no further row."""
    if d == 0:
        return True
    pivots: dict[int, Sequence[int]] = {}
    columns = range(d)
    for row in rows:
        col = next(compress(columns, row), None)
        while col in pivots:
            prow = pivots[col]
            p, f = prow[col], row[col]
            row = [p * x - f * y for x, y in zip(row, prow)]
            col = next(compress(columns, row), None)
        if col is not None:
            pivots[col] = row
            if len(pivots) == d:
                return True
    return False


def _packed_slacks(
    rows: Sequence[IntRow], points: Sequence[tuple[Sequence[int], int]]
) -> tuple[PackedFields, list[int]]:
    """Every row's slacks a . nums - c den at every point nums/den, and their
    layout: per row one int with a field per point of a `PackedFields`
    layout, point v in field v, holding its slack plus half.

    Each coordinate column of the points, and their denominators, is packed
    biased by B, the largest |numerator| or denominator, and the bias taken
    off again, so the int is exactly sum_v x_v 2^(v width) with negative x_v
    too.  A row's slacks are then one multiply-add per nonzero coefficient.
    Each slack lies in [-M, M] with M = B times the largest sum of
    |coefficients| and |rhs| of a row.  M, at least B, is the layout's
    bound, so the biased values fit their fields and the rows' fields hold
    no carry or borrow (the argument is on `PackedFields`)."""
    bound = max((abs(x) for nums, den in points for x in (den, *nums)), default=0)
    reach = max((sum(map(abs, a)) + abs(c) for a, c in rows), default=0)
    fields = PackedFields(len(points), max(reach, 1) * bound)
    unbias = bound * fields.ones
    coordinates = zip(*(nums for nums, _den in points))
    columns = [fields.pack(column, bound) - unbias for column in coordinates]
    dens = fields.pack((den for _nums, den in points), bound) - unbias
    base = fields.tops
    packed = []
    for a, c in rows:
        row = base - c * dens if c else base
        for coeff, column in zip(a, columns):
            if coeff:
                row += coeff * column
        packed.append(row)
    return fields, packed


def _tight_flags(
    rows: Sequence[IntRow], points: Sequence[tuple[Sequence[int], int]]
) -> tuple[int, list[bytes]]:
    """The index of the first point with a negative slack on some row (the
    number of points if none), and per row its tight flags, one byte per
    point, 1 where the slack is 0.

    From `_packed_slacks`, one AND with the field tops per row finds the
    points with a negative slack.  A field's low width-1 bits hold the slack
    when it is nonnegative and the slack plus 2^(width-1) >= 1 when it is
    negative, so they are zero exactly at a tight point, where adding
    2^(width-1) - 1 to them leaves the top bit clear.  The tight flags,
    shifted to the low bit of their fields, are the fields' low bytes."""
    fields, packed = _packed_slacks(rows, points)
    width, tops = fields.width, fields.tops
    low = tops - fields.ones
    negative = 0
    flags = []
    for row in packed:
        negative |= tops & ~row
        tight = tops & ~((row & low) + low)
        flags.append(fields.low_bytes(tight >> (width - 1)))
    if not negative:
        return fields.count, flags
    return ((negative & -negative).bit_length() - 1) // width, flags


def _partners(mask: int, others: int, incidence: list[int], need: int) -> int:
    """The vertices in the index bitset `others` that share at least `need`
    of the tight rows in `mask`, as an index bitset.

    With k rows in `mask`, a partner may miss at most m = k - need of them.
    within[j] holds the vertices that miss at most j of the rows seen so far;
    a row with incidence inc updates it as (within[j] & inc) | within[j - 1],
    from j = m down to 1, then within[0] &= inc.  The cost is O(k * m) big-int
    operations, whatever the number of vertices in `others`.
    """
    rows = []
    while mask:
        low = mask & -mask
        rows.append(incidence[low.bit_length() - 1])
        mask ^= low
    m = len(rows) - need
    if m < 0:
        return 0
    within = [others] * (m + 1)
    for inc in rows:
        for j in range(m, 0, -1):
            within[j] = (within[j] & inc) | within[j - 1]
        within[0] &= inc
    return within[m]


def _enumerate_reduced(rows: list[IntRow], d: int) -> list[tuple[tuple[int, ...], int]]:
    """Vertices of {z : rows} as homogeneous points (nums, den).

    Incremental double description starting from the unit box, which is always
    part of the row system here.  Inserting row idx cuts each edge between a
    vertex u strictly on its feasible side and a vertex w strictly on its
    infeasible side; the new vertex is a positive combination of u and w, so a
    processed row is tight there exactly when it is tight at both, and its mask
    is inherited as (mu & mw) | bit.  Two vertices are adjacent iff no third
    vertex is tight on their common tight set, which needs at least d - 1
    rows.  Both tests run on incidence bitsets (Fukuda & Prodon 1996).  For
    each vertex on the smaller of the two sides, `_partners` screens the
    other side down to the vertices sharing at least d - 1 of its tight rows,
    so no pair below that count is ever visited; a screened pair is adjacent
    iff ANDing the incidence bitsets over its common rows leaves only its own
    two bits.  The masks stay inside: only the points come back, and
    `enumerate_vertices` certifies each from the point.  With d = 0 the box
    is the one empty point, which each row keeps (c <= 0) or cuts away
    (c > 0).

    A vertex keeps one slot for its whole life: `points` and `masks` are
    indexed by slot, `points` holding None at a free slot, and the bitset
    `alive` holds the occupied slots.  incidence[r], for each processed row
    r, is the bitset of the alive slots tight on r; it is built once for the
    box and then kept up to date in place.  A cutting row clears the cut
    slots from every incidence bitset and sets its own bit in the masks of
    the zero-slack survivors.  Each new vertex takes the lowest free slot,
    or a slot appended past the end when none is free, and its slot bit goes
    into the incidence of each row in its inherited mask; the new row's
    incidence is the zero-slack survivors and the new vertices.  A row that
    cuts nothing only appends the set of its zero-slack slots.  The vertices
    come back in slot order.

    Rows are inserted in the order given.  `build_polytope` lists them
    sparse first, by number of nonzero coefficients: the insertion order
    decides how large the intermediate vertex sets grow (Fukuda & Prodon
    1996), and at q = 23 this order keeps the largest at 7360 vertices
    where the lexicographic order reaches 10968.
    """
    points: list[tuple[tuple[int, ...], int] | None] = []
    masks: list[int] = []
    for code in range(1 << d):
        nums = tuple((code >> j) & 1 for j in range(d))
        mask = 0
        for j in range(d):
            mask |= 1 << (2 * j + nums[j])  # rows 2j: z_j>=0, 2j+1: z_j<=1
        points.append((nums, 1))
        masks.append(mask)
    alive = (1 << len(points)) - 1
    incidence = [
        sum(1 << slot for slot, mask in enumerate(masks) if mask >> r & 1)
        for r in range(2 * d)
    ]

    need = d - 1
    for idx in range(2 * d, len(rows)):
        a, c = rows[idx]
        bit = 1 << idx
        slacks = [
            None if p is None else sum(map(mul, a, p[0])) - c * p[1] for p in points
        ]
        zero = [k for k, s in enumerate(slacks) if s == 0]
        zero_set = sum(1 << k for k in zero)
        for k in zero:
            masks[k] |= bit
        neg = [k for k, s in enumerate(slacks) if s is not None and s < 0]
        if not neg:
            incidence.append(zero_set)
            continue
        if len(neg) == alive.bit_count():
            return []
        pos = [k for k, s in enumerate(slacks) if s is not None and s > 0]
        neg_set = sum(1 << k for k in neg)
        if len(pos) <= len(neg):
            outer, inner_set = pos, neg_set
        else:
            outer, inner_set = neg, alive ^ neg_set ^ zero_set
        new_points: dict[tuple[tuple[int, ...], int], int] = {}
        for i in outer:
            mi = masks[i]
            rest = _partners(mi, inner_set, incidence, need)
            while rest:
                low = rest & -rest
                rest ^= low
                k = low.bit_length() - 1
                common = mi & masks[k]
                shared = alive  # the pair's own bits always survive the ANDs
                tight = common
                while tight:
                    row_bit = tight & -tight
                    shared &= incidence[row_bit.bit_length() - 1]
                    tight ^= row_bit
                if shared.bit_count() > 2:
                    continue
                iu, iw = (i, k) if slacks[i] > 0 else (k, i)
                (un, ud), su = points[iu], slacks[iu]
                (wn, wd), sw = points[iw], slacks[iw]
                nums = [su * w - sw * u for u, w in zip(un, wn)]
                new_points.setdefault(_canonical(nums, su * wd - sw * ud), common)

        keep = ~neg_set
        incidence = [inc & keep for inc in incidence]
        alive &= keep
        for k in neg:
            points[k] = None
        free = iter([k for k, p in enumerate(points) if p is None])
        new_row = zero_set
        for point, inherited in new_points.items():
            slot = next(free, len(points))
            if slot == len(points):
                points.append(None)
                masks.append(0)
            points[slot] = point
            masks[slot] = inherited | bit
            slot_bit = 1 << slot
            new_row |= slot_bit
            while inherited:
                low = inherited & -inherited
                incidence[low.bit_length() - 1] |= slot_bit
                inherited ^= low
        alive |= new_row
        incidence.append(new_row)

    return [p for p in points if p is not None]


def enumerate_vertices(polytope: MinimalFunctionPolytope) -> VertexSet:
    """All vertices of the polytope, each certified from the point alone.

    Every row's slack is recomputed at every returned point nums/den at once
    (`_tight_flags`), and the first point in the enumerator's order with a
    negative slack or with tight rows of rank below the dimension raises,
    naming the negative slack when it has both.  Each vertex is kept as
    integers: the value const + sign * z_j is (2 * const * den + 2 * sign *
    n_j) / (2 * den).
    """
    if polytope.q > MAX_ORDER:
        raise DimensionCap.order(polytope.q, "enumeration", MAX_ORDER)
    rows = list(polytope.box_rows) + list(polytope.other_rows)
    d = polytope.dimension
    found = _enumerate_reduced(rows, d)
    first_bad, flags = _tight_flags(rows, found)
    stacked = b"".join(flags)  # point k's flags over the rows: stacked[k::count]
    count = len(found)
    coeffs = [a for a, _c in rows]
    points = []
    for k, (nums, den) in enumerate(found):
        if k == first_bad:
            raise ValidationFailure(
                f"point {nums}/{den} violates a row of the polytope"
            )
        if not _has_full_rank(compress(coeffs, stacked[k::count]), d):
            raise ValidationFailure(
                f"point {nums}/{den} has tight rank below the dimension {d}"
            )
        values = tuple(
            const2 * den + 2 * sign * nums[j] if sign else const2 * den
            for const2, j, sign in polytope.terms
        )
        points.append((values, 2 * den))
    return VertexSet(q=polytope.q, b=polytope.b, points=tuple(points))


def _admit_order(q: int) -> None:
    """Refuse an order above MAX_ORDER, an O(1) test, and then one that is not
    prime, whose trial division grows with the square root of q."""
    if q > MAX_ORDER:
        raise DimensionCap.order(q, "enumeration", MAX_ORDER)
    require_prime(q)


def minimize_volume(q: int, b: int) -> MinimizeResult:
    """Minimize the value product over the minimal-function polytope.

    The objective is strictly log-concave on the positive part, so every
    minimizer is a vertex; the minimum is an exact rational comparison over
    the enumerated vertex set.  The order q must be prime, the case in which
    the minimizer is unique and an automorphic image of gom(q, q-1).
    """
    _admit_order(q)  # before the O(q^2) row system is built
    vertex_set = enumerate_vertices(build_polytope(q, b))
    # scored on the integer points; functions are built for the minimizers
    # alone, and the argmin is the first by value vector on a tie
    scores = [_value_product(values, den) for values, den in vertex_set.points]
    best = min(scores)
    tied = [point for point, score in zip(vertex_set.points, scores) if score == best]
    argmins = _sorted_functions(q, vertex_set.b, tied)
    return MinimizeResult(
        q=q,
        b=vertex_set.b,
        value=best,
        argmin=argmins[0],
        unique=len(argmins) == 1,
        n_vertices=len(vertex_set),
    )


def gomory_decomposition(pi: FiniteGroupFunction) -> Decomposition:
    """Write a nondecreasing minimal function as lam*gom + (1-lam)*pi_tilde.

    gamma is the least subadditivity slack over wrap-around pairs (x + y >= q);
    it is strictly positive for nondecreasing minimal functions, which leaves
    room to subtract a multiple of gom(q, q-1) and renormalize.  lam takes the
    largest admissible value min(gamma*(q-1)/q, min_x pi(x)/x).
    """
    q = pi.q
    require_prime(q)
    if pi.b_residue != q - 1:
        raise NotMinimal(f"decomposition expects rhs q-1={q - 1}, got {pi.b_residue}")
    nums, den = pi.numerators, pi.denominator
    first = next(_violations(nums, den, q - 1), None)
    if first is not None:
        raise NotMinimal(f"not minimal: {first}")
    if any(map(int.__gt__, nums, nums[1:])):
        raise NotNondecreasing("decomposition expects a nondecreasing function")

    # gamma over the wrap-around pairs x <= y, x + y >= q: row x's start at
    # y = max(x, q - x), and the pair (x, y) wraps to x + y - q; row 0 has none
    wrap_minima = []
    for x in range(1, q):
        y = max(x, q - x)
        wrap_minima.append(nums[x] + min(map(sub, nums[y:], nums[y + x - q : x])))
    gamma = Fraction(min(wrap_minima), den)
    # the least pi(x)/x is n / (den m), found by cross-multiplying
    n, m = nums[1], 1
    for x in range(2, q):
        if nums[x] * m < n * x:
            n, m = nums[x], x
    lam = min(gamma * Fraction(q - 1, q), Fraction(n, den * m))
    if lam >= 1:  # only the two-element group reaches this; any split works
        lam = Fraction(1, 2)
    # with lam = a/c, pi_tilde(x) = (pi(x) - lam x/(q-1)) / (1 - lam) has the
    # numerators nums[x] c (q-1) - a x den over den (q-1) (c-a)
    a, c = lam.numerator, lam.denominator
    tilde_nums = [v * c * (q - 1) - a * x * den for x, v in enumerate(nums)]
    tilde_den = den * (q - 1) * (c - a)
    # built first, so that a negative value raises ValueError before the scan
    pi_tilde = FiniteGroupFunction(pi.group, pi.b, tilde_nums, tilde_den)
    bad = next(_violations(pi_tilde.numerators, pi_tilde.denominator, q - 1), None)
    if bad is not None:
        raise ValidationFailure(f"split remainder unexpectedly not minimal: {bad}")
    return Decomposition(lam=lam, gamma=gamma, pi_tilde=pi_tilde)
