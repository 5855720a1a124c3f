"""Cut-generating functions on Z/qZ: constructions, minimality, rearrangement."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from operator import sub
from typing import Iterator, NamedTuple, Sequence

from .errors import DimensionCap, IdenticallyZero, NotSubadditive, ZeroElement
from .group_core import CyclicGroup, GroupElement, mod_inverse, require_prime
from .rationals import PackedFields, as_fraction, json_field

__all__ = [
    "FiniteGroupFunction",
    "Violation",
    "MinimalityVerdict",
    "gom",
    "md2",
    "dantzig",
    "is_minimal",
    "compose",
    "rearrange_finite",
]


class Violation(NamedTuple):
    """One failed minimality condition, with the exact amount by which it fails.

    A named tuple, so that a scan can build a row of them in C (see
    _subadditivity); it compares equal to the plain tuple of its fields."""

    kind: str  # origin | subadditivity | symmetry; circle functions add negativity
    witness: tuple[int, ...]
    amount: Fraction


@dataclass(frozen=True)
class MinimalityVerdict:
    is_minimal: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class FiniteGroupFunction:
    """Nonnegative rational values on Z/qZ with a designated right-hand side
    b != 0, held as integer numerators over their least common denominator
    (so equal values give equal functions); `values` is kept from
    `from_values`, or else built on first use."""

    group: CyclicGroup
    b: GroupElement
    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        q = self.group.q
        if self.b.group.q != q:
            raise ValueError("b belongs to a different group")
        if self.b.residue == 0:
            raise ZeroElement("right-hand side b must be nonzero")
        nums, den = self.numerators, self.denominator
        if len(nums) != q:
            raise ValueError(f"expected {q} values, got {len(nums)}")
        if den < 1 or min(nums) < 0:
            raise ValueError("function values must be nonnegative")
        g = math.gcd(den, *nums)
        object.__setattr__(self, "numerators", tuple(n // g for n in nums))
        object.__setattr__(self, "denominator", den // g)

    @classmethod
    def from_values(cls, q: int, b: int, values: Sequence) -> "FiniteGroupFunction":
        """The one way in from rationals: the one conversion of exact values
        to integer numerators over their least common denominator.  The
        coerced values are kept as the cached `values`, where
        `functools.cached_property` would have stored them."""
        group = CyclicGroup(q)
        rhs = group.element(b)
        if rhs.residue == 0:  # refused before any value is read
            raise ZeroElement("right-hand side b must be nonzero")
        vals = tuple(map(as_fraction, values))
        den = math.lcm(*(v.denominator for v in vals))
        fn = cls(group, rhs, [v.numerator * (den // v.denominator) for v in vals], den)
        fn.__dict__["values"] = vals
        return fn

    @functools.cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.numerators, repeat(self.denominator)))

    @property
    def q(self) -> int:
        return self.group.q

    @property
    def b_residue(self) -> int:
        return self.b.residue

    def __call__(self, x: int) -> Fraction:
        return self.values[x % self.q]

    def to_dict(self) -> dict:
        return {"q": self.q, "b": self.b_residue, "values": list(map(str, self.values))}

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteGroupFunction":
        """Read a decoded JSON object; an order above MAX_SCAN_ORDER raises
        DimensionCap before any value is coerced or scaled."""
        q = json_field(data, "q", int)
        b = json_field(data, "b", int)
        values = json_field(data, "values", list)
        if q > MAX_SCAN_ORDER:
            raise DimensionCap.order(q, "pair-scan", MAX_SCAN_ORDER)
        return cls.from_values(q, b, values)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FiniteGroupFunction":
        return cls.from_dict(json.loads(text))


def gom(q: int, b: int) -> FiniteGroupFunction:
    """The classic Gomory function: x/b up to b, then (q-x)/(q-b)."""
    b %= q
    if b == 0:
        raise ZeroElement("gom requires b != 0")
    values = [
        Fraction(x, b) if x <= b else Fraction(q - x, q - b) for x in range(q)
    ]
    return FiniteGroupFunction.from_values(q, b, values)


def md2(q: int, b: int) -> FiniteGroupFunction:
    """The half-everywhere function: 0 at the origin, 1 at b, 1/2 elsewhere."""
    b %= q
    if b == 0:
        raise ZeroElement("md2 requires b != 0")
    values = [Fraction(1, 2)] * q
    values[0] = Fraction(0)
    values[b] = Fraction(1)
    return FiniteGroupFunction.from_values(q, b, values)


def dantzig(q: int, b: int = 1) -> FiniteGroupFunction:
    """All-ones coefficients; valid but never minimal for q >= 2."""
    return FiniteGroupFunction.from_values(q, b, [Fraction(1)] * q)


# Largest order whose O(q^2) pair scan has been measured to finish: at
# q = 10007 riemann_experiment's scan of its sample takes 0.25-0.38 s and the
# whole call 0.3-0.5 s, for the identity and for tilde(gmi(1/3)) alike, in
# one process on a shared Intel Xeon core (Python 3.11).  Every order read
# from input is refused above it.
MAX_SCAN_ORDER = 10007


def _negative_rows(nums: Sequence[int]) -> Iterator[tuple[int, bytes]]:
    """The rows x, ascending, that hold a pair (x, y) with x <= y < q and
    nums[x] + nums[y] < nums[(x + y) % q], each with its flags: one byte per
    y in [x, q), 1 where that pair's slack is negative and 0 elsewhere.  The
    one pair scan behind every finite subadditivity check.  The numerators
    must be nonnegative, as a FiniteGroupFunction's are.

    The numerators are packed one per field of a `PackedFields` layout for
    slacks up to 2 max(nums) in magnitude, and row x is one shifted add and
    subtract, whose fields' top bits are clear exactly at its negative
    slacks (the argument is on `PackedFields`).  A clean row costs only that
    and the test of its top bits; the flags are read off a flagged row's
    cleared top bits.
    """
    q = len(nums)
    fields = PackedFields(q, 2 * max(nums))
    width, ones, tops, mask = fields.width, fields.ones, fields.tops, fields.mask
    packed = fields.pack(nums)
    wrapped = packed | packed << (q * width)  # field x + y is nums[(x + y) % q]
    for x in range(q):
        s = x * width
        top = tops >> s
        row = (packed >> s) + (nums[x] + fields.half) * (ones >> s)
        row -= (wrapped >> 2 * s) & (mask >> s)
        if row & top != top:
            yield x, fields.low_bytes((top & ~row) >> (width - 1))[: q - x]


def _subadditivity(nums: Sequence[int], den: int) -> Iterator[Iterator[Violation]]:
    """Per row x that holds a negative slack, the subadditivity violations of
    nums/den at the pairs (x, y), in y order.

    `_negative_rows` finds the rows and flags their failing pairs.  Only
    those pairs are picked out of the row's columns, by C-level compress, and
    their slacks, witnesses, amounts and Violations are built by C-level map
    and zip, so no pair takes a Python-level step.  Slacks repeat heavily, so
    each distinct amount is built as a Fraction once per call and shared by
    every pair that fails by it."""
    q = len(nums)
    wrapped = nums * 2  # wrapped[x + y] == nums[(x + y) % q]
    amounts: dict[int, Fraction] = {}
    for x, flags in _negative_rows(nums):
        sums = map(nums[x].__add__, compress(nums[x:], flags))
        slacks = list(map(sub, sums, compress(wrapped[2 * x : x + q], flags)))
        for slack in set(slacks).difference(amounts):
            amounts[slack] = Fraction(-slack, den)
        fields = zip(
            repeat("subadditivity"),
            zip(repeat(x), compress(range(x, q), flags)),
            map(amounts.__getitem__, slacks),
        )
        yield map(tuple.__new__, repeat(Violation), fields)


def _symmetry(nums: Sequence[int], den: int, b: int) -> Iterator[Violation]:
    """The symmetry violations of nums/den for the right-hand side b."""
    q = len(nums)
    for x in range(q):
        partner = (b - x) % q
        gap = nums[x] + nums[partner] - den
        if x <= partner and gap != 0:
            yield Violation("symmetry", (x,), Fraction(abs(gap), den))


def _violations(nums: Sequence[int], den: int, b: int) -> Iterator[Violation]:
    """Origin, then subadditivity, then symmetry violations of nums/den, as
    one lazy chain."""
    origin = [Violation("origin", (0,), Fraction(nums[0], den))] if nums[0] else []
    return chain(origin, chain.from_iterable(_subadditivity(nums, den)), _symmetry(nums, den, b))


def is_minimal(
    pi: FiniteGroupFunction,
    b: int | None = None,
    early_exit: bool = False,
) -> MinimalityVerdict:
    """Check origin value, subadditivity and symmetry exactly.

    All violations are reported with exact rational amounts unless
    ``early_exit`` asks for the first one only.  ``b`` overrides the
    function's stored right-hand side.
    """
    b_res = pi.b_residue if b is None else b % pi.q
    if b_res == 0:
        raise ZeroElement("minimality needs a nonzero right-hand side")
    found = _violations(pi.numerators, pi.denominator, b_res)
    violations = tuple(islice(found, 1) if early_exit else found)
    return MinimalityVerdict(is_minimal=not violations, violations=violations)


def compose(pi: FiniteGroupFunction, u: int) -> FiniteGroupFunction:
    """Precompose with the automorphism x -> u*x: result(x) = pi(u*x), with
    rhs u^-1 * b.  The unit u is read mod q; u = 0 mod q raises NotAUnit.

    If pi is minimal for its stored b, the result is minimal for the new rhs.
    """
    group = pi.group
    q = group.q
    require_prime(q)
    new_b = group.element(pi.b_residue * mod_inverse(u, q))
    nums = pi.numerators
    values = [nums[u * x % q] for x in range(q)]
    return FiniteGroupFunction(group, new_b, values, pi.denominator)


def rearrange_finite(pi: FiniteGroupFunction) -> FiniteGroupFunction:
    """Nondecreasing rearrangement of the value multiset, rhs moved to q-1.

    Well-defined for subadditive functions vanishing only at the origin on a
    prime-order group: sorting preserves subadditivity (a sumset-cardinality
    argument that needs q prime) and moves symmetry to the rhs q-1.
    """
    q = pi.q
    require_prime(q)
    nums, den = pi.numerators, pi.denominator
    if not any(nums):
        raise IdenticallyZero("cannot rearrange the zero function")
    if nums[0] != 0:
        raise ValueError("rearrangement requires value 0 at the origin")
    bad = next(chain.from_iterable(_subadditivity(nums, den)), None)
    if bad is not None:
        x, y = bad.witness
        raise NotSubadditive(f"pi({x}) + pi({y}) < pi({(x + y) % q}) by {bad.amount}")
    group = pi.group
    return FiniteGroupFunction(group, group.element(q - 1), sorted(nums), den)
