"""Cut-generating functions on Z/qZ: constructions, minimality, rearrangement."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from operator import sub
from typing import Iterator, Sequence

from .errors import DimensionCap, IdenticallyZero, NotPrime, NotSubadditive, ZeroElement
from .group_core import Automorphism, CyclicGroup, GroupElement, is_prime
from .rationals import as_fraction, json_field

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


@dataclass(frozen=True)
class Violation:
    """One failed minimality condition, with the exact amount by which it fails."""

    kind: str  # origin | subadditivity | symmetry; circle functions add negativity
    witness: tuple[int, ...]
    amount: Fraction


@dataclass(frozen=True)
class MinimalityVerdict:
    is_minimal: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class FiniteGroupFunction:
    """Nonnegative rational values on Z/qZ with a designated right-hand side b != 0."""

    group: CyclicGroup
    b: GroupElement
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        q = self.group.q
        if self.b.group.q != q:
            raise ValueError("b belongs to a different group")
        if self.b.residue == 0:
            raise ZeroElement("right-hand side b must be nonzero")
        vals = tuple(as_fraction(v) for v in self.values)
        if len(vals) != q:
            raise ValueError(f"expected {q} values, got {len(vals)}")
        if any(v < 0 for v in vals):
            raise ValueError("function values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, q: int, b: int, values: Sequence) -> "FiniteGroupFunction":
        group = CyclicGroup(q)
        return cls(group, group.element(b), values=tuple(values))

    @property
    def q(self) -> int:
        return self.group.q

    @property
    def b_residue(self) -> int:
        return self.b.residue

    def __call__(self, x: int) -> Fraction:
        return self.values[x % self.q]

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "b": self.b_residue,
            "values": [str(v) for v in self.values],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteGroupFunction":
        """Read a decoded JSON object; an order above MAX_SCAN_ORDER raises
        DimensionCap once the values are counted, before any pair scan."""
        fn = cls.from_values(
            json_field(data, "q", int),
            json_field(data, "b", int),
            json_field(data, "values", list),
        )
        if fn.q > MAX_SCAN_ORDER:
            raise DimensionCap(f"q={fn.q} exceeds the pair-scan cap {MAX_SCAN_ORDER}")
        return fn

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


def _numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# Largest order whose O(q^2) pair scan has been measured to finish: at
# q = 10007 riemann_experiment's scan of its sample takes 3.9 s for the
# identity and 4.2 s for tilde(gmi(1/3)), in one process on an Intel Xeon
# core (Python 3.11).  Every order read from input is refused above it.
MAX_SCAN_ORDER = 10007


def _rows(nums: list[int]) -> Iterator[tuple[int, list[int]]]:
    """(x, row) for 0 <= x < q, where row[k] = nums[y] - nums[(x + y) % q] at
    y = x + k for x <= y < q, so that nums[x] + row[k] is the slack of the
    pair (x, y): the one pair scan behind every finite subadditivity check.

    Each row is built by one C-level map, and only the row in hand is alive,
    never all q^2/2 slacks.
    """
    q = len(nums)
    wrapped = nums * 2  # wrapped[x + y] == nums[(x + y) % q]
    for x in range(q):
        yield x, list(map(sub, nums[x:], wrapped[2 * x : x + q]))


def _negative_slacks(nums: list[int]) -> Iterator[tuple[int, int, int]]:
    """(x, y, slack) for every pair x <= y with a negative slack, in (x, y)
    order.  One min tells whether a row holds any; in such a row a C-level
    compress picks out the negative entries, and only those reach Python."""
    q = len(nums)
    for x, row in _rows(nums):
        bound = -nums[x]  # the pair (x, y) is violated when row[y - x] < bound
        if min(row) < bound:
            for y in compress(range(x, q), map(bound.__gt__, row)):
                yield x, y, row[y - x] - bound


def _violations(nums: list[int], den: int, b: int) -> Iterator[Violation]:
    """Origin, then subadditivity, then symmetry violations of nums/den.

    Slacks repeat heavily, so each distinct subadditivity amount is built as
    a Fraction once per call and shared by every pair that fails by it."""
    q = len(nums)
    if nums[0] != 0:
        yield Violation("origin", (0,), Fraction(nums[0], den))
    amounts: dict[int, Fraction] = {}
    for x, y, slack in _negative_slacks(nums):
        amount = amounts.get(slack)
        if amount is None:
            amount = amounts[slack] = Fraction(-slack, den)
        yield Violation("subadditivity", (x, y), amount)
    for x in range(q):
        partner = (b - x) % q
        gap = nums[x] + nums[partner] - den
        if x <= partner and gap != 0:
            yield Violation("symmetry", (x,), Fraction(abs(gap), den))


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
    found = _violations(*_numerators(pi.values), b_res)
    violations = tuple(islice(found, 1) if early_exit else found)
    return MinimalityVerdict(is_minimal=not violations, violations=violations)


def compose(pi: FiniteGroupFunction, phi: Automorphism) -> FiniteGroupFunction:
    """Precompose with an automorphism: result(x) = pi(phi(x)), rhs = phi^{-1}(b).

    If pi is minimal for its stored b, the result is minimal for the new rhs.
    """
    group = pi.group
    if phi.group.q != group.q:
        raise ValueError("automorphism acts on a different group")
    if not is_prime(group.q):
        raise NotPrime(f"q={group.q} is composite")
    perm = phi.as_permutation()
    values = tuple(pi.values[perm[x]] for x in range(group.q))
    new_b = phi.inverse().apply(pi.b)
    return FiniteGroupFunction(group, new_b, values)


def rearrange_finite(pi: FiniteGroupFunction) -> FiniteGroupFunction:
    """Nondecreasing rearrangement of the value multiset, rhs moved to q-1.

    Well-defined for subadditive functions vanishing only at the origin on a
    prime-order group: sorting preserves subadditivity (a sumset-cardinality
    argument that needs q prime) and moves symmetry to the rhs q-1.
    """
    q = pi.q
    if not is_prime(q):
        raise NotPrime(f"q={q} is composite")
    if all(v == 0 for v in pi.values):
        raise IdenticallyZero("cannot rearrange the zero function")
    if pi.values[0] != 0:
        raise ValueError("rearrangement requires value 0 at the origin")
    nums, den = _numerators(pi.values)
    bad = next(_negative_slacks(nums), None)
    if bad is not None:
        x, y, slack = bad
        raise NotSubadditive(
            f"pi({x}) + pi({y}) < pi({(x + y) % q}) by {Fraction(-slack, den)}"
        )
    return FiniteGroupFunction.from_values(q, q - 1, sorted(pi.values))
