"""Strength scores for finite-group cut functions: norms, volumes, log means."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .finite_functions import FiniteGroupFunction
from .rationals import check_exponent, ln_fraction, nth_root_float

__all__ = [
    "INFINITE",
    "LpScore",
    "CriterionReport",
    "lp_norm",
    "volume_product",
    "simplex_volume",
    "log_geo_mean",
    "score_function",
]

INFINITE = float("inf")


@dataclass(frozen=True)
class LpScore:
    power: Fraction  # |pi|_p^p, exact
    root: float  # |pi|_p, correctly rounded within 1 ulp


@dataclass(frozen=True)
class CriterionReport:
    q: int
    b: int
    lp_norms: Mapping[int, LpScore]
    volume_product: Fraction
    simplex_volume: Fraction | float  # exact rational, or +inf when some pi(x) = 0
    log_geo_mean: float
    provenance: Mapping[str, str]

    def to_dict(self) -> dict:
        simplex = (
            "Infinite"
            if isinstance(self.simplex_volume, float)
            else str(self.simplex_volume)
        )
        return {
            "q": self.q,
            "b": self.b,
            "lp_norms": {
                str(p): {"power": str(s.power), "root": repr(s.root)}
                for p, s in sorted(self.lp_norms.items())
            },
            "volume_product": str(self.volume_product),
            "simplex_volume": simplex,
            "log_geo_mean": repr(self.log_geo_mean),
            "provenance": dict(self.provenance),
        }


def lp_norm(pi: FiniteGroupFunction, p: int) -> LpScore:
    """L_p norm under uniform measure: the exact p-th power as one integer sum
    over the values' common denominator, plus a float root.  p is checked by
    `check_exponent` before any arithmetic."""
    check_exponent(p)
    power = Fraction(sum(n**p for n in pi.numerators), pi.denominator**p * pi.q)
    return LpScore(power=power, root=nth_root_float(power, p))


def volume_product(pi: FiniteGroupFunction) -> Fraction:
    """Product of the values away from the origin, exact."""
    return _value_product(pi.numerators, pi.denominator)


def _value_product(nums: Sequence[int], den: int) -> Fraction:
    """The product of the values nums[x] / den over x != 0: the product of
    the integer numerators over den^(q-1), normalized once."""
    return Fraction(math.prod(nums[1:]), den ** (len(nums) - 1))


def simplex_volume(pi: FiniteGroupFunction) -> Fraction | float:
    """Volume of {y >= 0 : sum pi(x) y(x) <= 1}: prod 1/pi(x) / (q-1)!.

    Infinite (the cut region is unbounded in some coordinate) when any
    pi(x) = 0 for x != 0.
    """
    prod = volume_product(pi)
    if prod == 0:
        return INFINITE
    return Fraction(1, math.factorial(pi.q - 1)) / prod


def log_geo_mean(pi: FiniteGroupFunction) -> float:
    """Mean of ln pi(x) over x != 0; -inf when the product vanishes."""
    total = 0.0
    for v in pi.values[1:]:
        if v == 0:
            return float("-inf")
        total += ln_fraction(v)
    return total / (pi.q - 1)


def score_function(
    pi: FiniteGroupFunction, ps: tuple[int, ...] = (1, 2, 3)
) -> CriterionReport:
    """All strength criteria for one function, with method provenance."""
    return CriterionReport(
        q=pi.q,
        b=pi.b_residue,
        lp_norms={p: lp_norm(pi, p) for p in ps},
        volume_product=volume_product(pi),
        simplex_volume=simplex_volume(pi),
        log_geo_mean=log_geo_mean(pi),
        provenance={
            "lp_norms": "exact rational p-th power; integer-Newton root",
            "volume_product": "exact rational product",
            "simplex_volume": "exact rational product over (q-1)!",
            "log_geo_mean": "64-bit float logs of exact rationals",
        },
    )
