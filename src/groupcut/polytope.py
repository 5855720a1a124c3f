"""The polytope of minimal functions on Z/qZ: exact H-representation, vertex
enumeration by double description, and volume optimization over its vertices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .criteria import volume_product
from .errors import (
    DimensionCap,
    NotMinimal,
    NotNondecreasing,
    NotPrime,
    ValidationFailure,
    ZeroElement,
)
from .finite_functions import FiniteGroupFunction, _numerators, _rows, gom, is_minimal
from .group_core import is_prime

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

# Largest order whose vertex enumeration has been measured to finish: q = 23
# (7188 vertices) takes about 4 s in one process on an AMD EPYC core (Python
# 3.11), while at q = 29 a fraction of the polytope alone took ten minutes.
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
    # per residue (const, j, sign): the value is const + sign * z_j, and just
    # const when sign is 0 (then j is 0 and unused)
    expressions: tuple[tuple[Fraction, int, int], ...]
    box_rows: tuple[IntRow, ...]  # 0 <= z_j <= 1, two rows per free coordinate
    other_rows: tuple[IntRow, ...]  # remaining reduced rows, deduplicated

    @property
    def dimension(self) -> int:
        return len(self.free)

    def value_vector(self, z: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Full value vector for a point of the reduced coordinate space."""
        return tuple(
            const + z[j] if sign > 0 else const - z[j] if sign else const
            for const, j, sign in self.expressions
        )


@dataclass(frozen=True)
class VertexSet:
    q: int
    b: int
    vertices: tuple[FiniteGroupFunction, ...]  # sorted by value vector

    def __len__(self) -> int:
        return len(self.vertices)


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

    # symmetry substitution: pi(0)=0, pi(b)=1, halfway points 1/2, pairs z / 1-z.
    # Per residue (doubled const, j, sign), as in expressions but with the
    # constants 0, 1/2 and 1 doubled to the integers 0, 1 and 2.
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
        expressions=tuple((Fraction(c, 2), j, sign) for c, j, sign in terms),
        box_rows=tuple(box_rows),
        other_rows=tuple(sorted(other_rows)),
    )


def _dot(a: tuple[int, ...], nums: tuple[int, ...], rhs: int, den: int) -> int:
    """Sign-faithful slack of a >= rhs at the homogeneous point nums/den."""
    return sum(map(mul, a, nums)) - rhs * den


def _canonical(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    g = math.gcd(den, *(abs(n) for n in nums)) if nums else den
    if g > 1:
        nums = [n // g for n in nums]
        den //= g
    return tuple(nums), den


def _int_rank(rows: list[tuple[int, ...]], d: int) -> int:
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


def _enumerate_reduced(
    rows: list[IntRow], d: int
) -> list[tuple[tuple[tuple[int, ...], int], int]]:
    """Vertices of {z : rows} as (homogeneous point, tight-row bitmask).

    Incremental double description starting from the unit box, which is always
    part of the row system here.  Inserting row idx cuts each edge between a
    vertex u strictly on its feasible side and a vertex w strictly on its
    infeasible side; the new vertex is a positive combination of u and w, so a
    processed row is tight there exactly when it is tight at both, and its mask
    is inherited as (mu & mw) | bit.  Two vertices are adjacent iff no third
    vertex is tight on their common tight set, which needs at least d - 1
    rows.  Both tests run on incidence bitsets (Fukuda & Prodon 1996): per
    inserted row, one bitset of vertex indices for each processed row.  For
    each vertex on the smaller of the two sides, `_partners` screens the
    other side down to the vertices sharing at least d - 1 of its tight rows,
    so no pair below that count is ever visited; a screened pair is adjacent
    iff ANDing the incidence bitsets over its common rows leaves only its own
    two bits.  The returned masks are the inherited ones; `enumerate_vertices`
    does not rely on them.  With d = 0 the box is the one empty point, which
    each row keeps (c <= 0) or cuts away (c > 0).
    """
    vertices: list[tuple[tuple[tuple[int, ...], int], int]] = []
    for code in range(1 << d):
        nums = tuple((code >> j) & 1 for j in range(d))
        mask = 0
        for j in range(d):
            mask |= 1 << (2 * j + nums[j])  # rows 2j: z_j>=0, 2j+1: z_j<=1
        vertices.append(((nums, 1), mask))

    need = d - 1
    for idx in range(2 * d, len(rows)):
        a, c = rows[idx]
        bit = 1 << idx
        slacks = [_dot(a, v[0], c, v[1]) for v, _mask in vertices]
        survivors = [
            (v, mask | bit if s == 0 else mask)
            for (v, mask), s in zip(vertices, slacks)
            if s >= 0
        ]
        if len(survivors) == len(vertices):
            vertices = survivors
            continue
        if not survivors:
            return []
        # processed row -> bitset of vertex indices tight on it: the columns
        # of the mask matrix, read with the last vertex as the leading digit
        columns = zip(*(format(mask, f"0{idx}b") for _v, mask in reversed(vertices)))
        incidence = [int("".join(col), 2) for col in columns][::-1]
        pos = [k for k, s in enumerate(slacks) if s > 0]
        neg = [k for k, s in enumerate(slacks) if s < 0]
        outer, inner = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
        inner_set = sum(1 << k for k in inner)
        new_points: dict[tuple[tuple[int, ...], int], int] = {}
        for i in outer:
            mi = vertices[i][1]
            rest = _partners(mi, inner_set, incidence, need)
            while rest:
                low = rest & -rest
                rest ^= low
                k = low.bit_length() - 1
                common = mi & vertices[k][1]
                shared = -1  # the pair's own bits always survive the ANDs
                tight = common
                while tight:
                    row_bit = tight & -tight
                    shared &= incidence[row_bit.bit_length() - 1]
                    tight ^= row_bit
                if shared.bit_count() > 2:
                    continue
                iu, iw = (i, k) if slacks[i] > 0 else (k, i)
                (un, ud), su = vertices[iu][0], slacks[iu]
                (wn, wd), sw = vertices[iw][0], slacks[iw]
                nums = [su * w - sw * u for u, w in zip(un, wn)]
                new_points.setdefault(_canonical(nums, su * wd - sw * ud), common | bit)
        vertices = survivors + list(new_points.items())

    return vertices


def enumerate_vertices(polytope: MinimalFunctionPolytope) -> VertexSet:
    """All vertices of the polytope, each certified by a tight-row rank check.

    The certificate does not rest on the enumerator's inherited masks: the
    rows tight at each returned point are recomputed from the point, and
    they must have rank equal to the dimension.
    """
    if polytope.q > MAX_ORDER:
        raise DimensionCap(f"q={polytope.q} exceeds the enumeration cap {MAX_ORDER}")
    rows = list(polytope.box_rows) + list(polytope.other_rows)
    d = polytope.dimension
    functions = []
    for (nums, den), _mask in _enumerate_reduced(rows, d):
        tight = [a for a, c in rows if _dot(a, nums, c, den) == 0]
        if _int_rank(tight, d) != d:
            raise ValidationFailure(
                f"point {nums}/{den} has tight rank below the dimension {d}"
            )
        z = [Fraction(n, den) for n in nums]
        values = polytope.value_vector(z)
        functions.append(
            FiniteGroupFunction.from_values(polytope.q, polytope.b, values)
        )
    functions.sort(key=lambda f: f.values)
    return VertexSet(q=polytope.q, b=polytope.b, vertices=tuple(functions))


def _admit_order(q: int) -> None:
    """Refuse an order above MAX_ORDER, an O(1) test, and then a composite
    one, whose trial division grows with the square root of q."""
    if q > MAX_ORDER:
        raise DimensionCap(f"q={q} exceeds the enumeration cap {MAX_ORDER}")
    if not is_prime(q):
        raise NotPrime(f"q={q} is composite")


def minimize_volume(q: int, b: int) -> MinimizeResult:
    """Minimize the value product over the minimal-function polytope.

    The objective is strictly log-concave on the positive part, so every
    minimizer is a vertex; the minimum is an exact rational comparison over
    the enumerated vertex set.  The order q must be prime, the case in which
    the minimizer is unique and an automorphic image of gom(q, q-1).
    """
    _admit_order(q)  # before the O(q^2) row system is built
    vertex_set = enumerate_vertices(build_polytope(q, b))
    scored = [(volume_product(v), v) for v in vertex_set.vertices]
    best = min(score for score, _v in scored)
    argmins = [v for score, v in scored if score == best]
    return MinimizeResult(
        q=q,
        b=b % q,
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
    if not is_prime(q):
        raise NotPrime(f"q={q} is composite")
    if pi.b_residue != q - 1:
        raise NotMinimal(f"decomposition expects rhs q-1={q - 1}, got {pi.b_residue}")
    vals = pi.values
    # one walk over the pair rows screens subadditivity and finds gamma: row
    # x's wrap-around pairs are y = x + k with k >= q - 2x; row 0 has none.
    # On a failed screen, is_minimal names the first violation.
    nums, den = _numerators(vals)
    minimal = nums[0] == 0
    wrap_minima = []
    for x, row in _rows(nums):
        if min(row) < -nums[x]:
            minimal = False
            break
        if x:
            wrap_minima.append(nums[x] + min(row[max(0, q - 2 * x) :]))
    if not (minimal and all(n + m == den for n, m in zip(nums, reversed(nums)))):
        first = is_minimal(pi, early_exit=True).violations[0]
        raise NotMinimal(f"not minimal: {first}")
    if any(vals[x] > vals[x + 1] for x in range(q - 1)):
        raise NotNondecreasing("decomposition expects a nondecreasing function")

    gamma = Fraction(min(wrap_minima), den)
    lam = min([gamma * Fraction(q - 1, q)] + [vals[x] / x for x in range(1, q)])
    if lam >= 1:  # only the two-element group reaches this; any split works
        lam = Fraction(1, 2)
    g = gom(q, q - 1)
    tilde_values = tuple(
        (vals[x] - lam * g.values[x]) / (1 - lam) for x in range(q)
    )
    pi_tilde = FiniteGroupFunction.from_values(q, q - 1, tilde_values)
    tilde_verdict = is_minimal(pi_tilde, early_exit=True)
    if not tilde_verdict.is_minimal:
        raise ValidationFailure(
            f"split remainder unexpectedly not minimal: {tilde_verdict.violations[0]}"
        )
    return Decomposition(lam=lam, gamma=gamma, pi_tilde=pi_tilde)
