"""Exact arithmetic on the cyclic group Z/qZ: residues, units, primality.

Every automorphism of Z/qZ is multiplication by a unit u, so a unit int is
the whole of one: it sends x to u*x mod q."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotAUnit, NotPrime, ZeroElement

__all__ = [
    "CyclicGroup",
    "GroupElement",
    "is_prime",
    "require_prime",
    "mod_inverse",
    "automorphism_sending",
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


def require_prime(q: int) -> None:
    """Raise NotPrime unless q is prime: the one refusal of a composite order
    by every prime-only entry, each of which tests its caps first."""
    if not is_prime(q):
        raise NotPrime(f"q={q} is not prime")


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


def automorphism_sending(b: GroupElement, target: GroupElement) -> int:
    """The unit u = target * b^-1 mod q: multiplication by u is the unique
    automorphism of a prime-order group that sends b to target."""
    if b.group.q != target.group.q:
        raise ValueError("b and target live in different groups")
    group = b.group
    require_prime(group.q)
    if b.residue == 0 or target.residue == 0:
        raise ZeroElement("no automorphism moves 0 anywhere but 0")
    return target.residue * mod_inverse(b.residue, group.q) % group.q

