"""Exact arithmetic on the cyclic group Z/qZ: residues, automorphisms, sumsets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptySet, NotAUnit, NotPrime, ZeroElement

__all__ = [
    "CyclicGroup",
    "GroupElement",
    "Automorphism",
    "is_prime",
    "mod_inverse",
    "automorphism_sending",
    "sumset",
]


def is_prime(q: int) -> bool:
    """Deterministic trial division; group orders stay small enough for this."""
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class CyclicGroup:
    """The additive group of residues modulo q, q >= 2."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"group order must be an integer >= 2, got {self.q!r}")

    def element(self, residue: int) -> "GroupElement":
        return GroupElement(residue % self.q, self)


@dataclass(frozen=True)
class GroupElement:
    residue: int
    group: CyclicGroup

    def __post_init__(self) -> None:
        if not 0 <= self.residue < self.group.q:
            raise ValueError(
                f"residue {self.residue} outside [0, {self.group.q})"
            )


def mod_inverse(a: int, q: int) -> int:
    """Multiplicative inverse of a modulo q; requires gcd(a, q) = 1."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    a = a % q
    if math.gcd(a, q) != 1:
        raise NotAUnit(f"{a} is not a unit modulo {q}")
    return pow(a, -1, q)


@dataclass(frozen=True)
class Automorphism:
    """Multiplication by a unit residue; every automorphism of Z/qZ has this form."""

    multiplier: int
    group: CyclicGroup

    def __post_init__(self) -> None:
        m = self.multiplier
        if not 1 <= m < self.group.q:
            raise ValueError(f"multiplier {m} outside [1, {self.group.q})")
        if math.gcd(m, self.group.q) != 1:
            raise NotAUnit(f"{m} is not a unit modulo {self.group.q}")

    def apply(self, x: "GroupElement | int") -> GroupElement:
        r = x.residue if isinstance(x, GroupElement) else x
        return self.group.element(self.multiplier * r)

    def inverse(self) -> "Automorphism":
        return Automorphism(mod_inverse(self.multiplier, self.group.q), self.group)

    def as_permutation(self) -> tuple[int, ...]:
        q = self.group.q
        return tuple(self.multiplier * r % q for r in range(q))


def automorphism_sending(b: GroupElement, target: GroupElement) -> Automorphism:
    """The unique automorphism phi of a prime-order group with phi(b) = target."""
    if b.group.q != target.group.q:
        raise ValueError("b and target live in different groups")
    group = b.group
    if not is_prime(group.q):
        raise NotPrime(f"q={group.q} is composite; automorphism need not exist")
    if b.residue == 0 or target.residue == 0:
        raise ZeroElement("no automorphism moves 0 anywhere but 0")
    return Automorphism(target.residue * mod_inverse(b.residue, group.q) % group.q, group)


def sumset(group: CyclicGroup, a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    """Exact sumset {x + y mod q : x in A, y in B}, returned as sorted residues."""
    a_res = sorted({x % group.q for x in a})
    b_res = sorted({y % group.q for y in b})
    if not a_res or not b_res:
        raise EmptySet("sumset of an empty set is undefined")
    return tuple(sorted({(x + y) % group.q for x in a_res for y in b_res}))
