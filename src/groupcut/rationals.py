"""Exact-rational helpers: coercion, the one field reader behind the JSON
loaders, and logarithms and roots that respect big integers."""

from __future__ import annotations

import math
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and exact strings like ``'3/4'``; floats and
    booleans are rejected, and so is a string with a zero denominator."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


_JSON_KINDS = {int: "an integer {}", list: "a list of {}", str: "a string {}"}


def json_field(data, name: str, kind: type = object):
    """data[name] of a decoded JSON object, of JSON kind int (not a boolean),
    list or str, or of any kind by default; TypeError if data is not an
    object or the value is of another kind, KeyError if name is missing."""
    if not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, got {type(data).__name__}")
    value = data[name]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        expected = _JSON_KINDS[kind].format(name)
        raise TypeError(f"expected {expected}, got {type(value).__name__}")
    return value


def ln_fraction(x: Fraction) -> float:
    """Natural log of a nonnegative rational; exact-int logs avoid float overflow."""
    if x < 0:
        raise ValueError(f"logarithm of negative rational {x}")
    if x == 0:
        return float("-inf")
    # near 1 the two-log form cancels badly; log1p keeps absolute error ~1 ulp
    if Fraction(2, 3) < x < 2:
        return math.log1p(float(x - 1))
    return math.log(x.numerator) - math.log(x.denominator)


def iroot(n: int, p: int) -> int:
    """Floor p-th root of a nonnegative integer (Newton iteration, exact)."""
    if n < 0:
        raise ValueError("iroot of negative integer")
    if p < 1:
        raise ValueError("root index must be positive")
    if n == 0:
        return 0
    if p == 1:
        return n
    x = 1 << (-(-n.bit_length() // p))
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            return x
        x = y


def nth_root_float(x: Fraction, p: int) -> float:
    """p-th root of a nonnegative rational, within 1 ulp of correctly rounded.

    The value is scaled by a power of two so that the integer root carries
    at least 60 significant bits before the final float conversion.
    """
    if x < 0:
        raise ValueError("root of negative rational")
    if x == 0:
        return 0.0
    if p == 1:
        return float(x)
    num, den = x.numerator, x.denominator
    k = 64 + max(0, (den.bit_length() - num.bit_length()) // p + 2)
    while True:
        n = (num << (p * k)) // den
        if n.bit_length() >= 60 * p:
            break
        k += 16
    r = iroot(n, p)
    return math.ldexp(float(r), -k)
