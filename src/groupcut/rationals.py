"""Exact-rational helpers: coercion, the one field reader behind the JSON
loaders, the integer reader for command-line flags, the one L_p exponent
check, logarithms and roots that respect big integers, and the packed-field
layout behind the three big-int scans."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Iterable

from .errors import DimensionCap, OutOfRange

__all__ = ["as_fraction", "ln_fraction", "nth_root_float"]


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and exact strings like ``'3/4'``; floats and
    booleans are rejected, and so is a string with a zero denominator or an
    exponent.  Fraction('1e-N') builds 10^N with no int-to-string
    conversion, so the interpreter's digit limit would not bound it: at
    N = 10^7 that alone takes 13 s."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation in {value!r}: write the number out")
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


def strict_int(text: str) -> int:
    """An integer written as ASCII digits with an optional leading '-': the
    reader of every integer flag on the command line.  int() also reads
    '1_3', '+13', ' 13 ' and non-ASCII digits such as '١٣'; those raise
    ValueError here."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def ln_fraction(x: Fraction) -> float:
    """Natural log of a nonnegative rational: `ln_ratio` of its numerator and
    denominator."""
    return ln_ratio(x.numerator, x.denominator)


def ln_ratio(n: int, d: int) -> float:
    """Natural log of n / d for ints n >= 0 and d > 0; exact-int logs avoid
    float overflow."""
    if n < 0:
        raise ValueError(f"logarithm of negative rational {Fraction(n, d)}")
    if n == 0:
        return float("-inf")
    # near 1 (2/3 < n/d < 2) the two-log form cancels badly; log1p of the
    # correctly rounded (n - d) / d keeps absolute error ~1 ulp
    if 2 * d < 3 * n and n < 2 * d:
        return math.log1p((n - d) / d)
    return math.log(n) - math.log(d)


# Largest L_p exponent the exact p-th powers accept.  At p = 1000,
# `groupcut integrate --p 1000` takes 0.9 s on gom(10007, 10006), a finite
# file at MAX_SCAN_ORDER, and 0.015 s on gmi(1/2), in one process on an
# Intel Xeon core (Python 3.11); the time grows about as p^2 (p = 3000 took
# 3.5 s on the same finite file).
MAX_EXPONENT = 1000


def check_exponent(p) -> None:
    """Refuse an L_p exponent before any arithmetic: TypeError unless p is an
    int (a bool is not), ValueError below 1, DimensionCap above MAX_EXPONENT."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError(f"p must be an integer, got {type(p).__name__}")
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if p > MAX_EXPONENT:
        # p itself is not printed: str() of an int above 4300 digits raises
        raise DimensionCap(f"p exceeds the exponent cap {MAX_EXPONENT}")


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

    The value is scaled by 2^(p k) so that the integer root r carries at
    least 60 significant bits; r is cut to its top 64 bits, which a float
    conversion rounds to 53, and the cut is folded into the power of two.  A
    root that no float holds raises OutOfRange.
    """
    if x < 0:
        raise ValueError("root of negative rational")
    if x == 0:
        return 0.0
    if p == 1:
        root, exponent = x, 0
    else:
        num, den = x.numerator, x.denominator
        k = 64 + max(0, (den.bit_length() - num.bit_length()) // p + 2)
        while True:
            n = (num << (p * k)) // den
            if n.bit_length() >= 60 * p:
                break
            k += 16
        r = iroot(n, p)
        cut = max(0, r.bit_length() - 64)
        root, exponent = r >> cut, cut - k
    try:
        return math.ldexp(float(root), exponent)
    except OverflowError:
        raise OutOfRange(f"the root of index {p} is too large for a float") from None


class PackedFields:
    """`count` fields of `width` bits in one int, field i at bit i * width:
    the layout of the pair scan (`finite_functions._negative_rows`), the
    circle grid screen (`torus._screen_is_clean`) and the vertex certificate
    (`polytope._packed_slacks`).

    `width` is whole bytes, the fewest with half = 2^(width-1) > bound.  A
    scan adds and subtracts packed ints and multiples of `ones` (a 1 in
    every field) so that the result is exactly sum_i (s_i + half) 2^(i width)
    with every |s_i| <= bound.  Each s_i + half then lies in (0, 2^width),
    so field i holds it with no carry or borrow from its neighbours, and its
    top bit (`tops` has every one) is clear exactly when s_i < 0: a whole
    row of exact comparisons in a few big-int operations (SIMD within a
    register).  `mask` has every bit of every field."""

    __slots__ = ("count", "size", "width", "half", "ones", "tops", "mask")

    def __init__(self, count: int, bound: int) -> None:
        self.count = count
        self.size = bound.bit_length() // 8 + 1  # bytes per field
        self.width = 8 * self.size
        self.half = 1 << (self.width - 1)
        self.ones = int.from_bytes((b"\1" + bytes(self.size - 1)) * count, "little")
        self.tops = self.ones << (self.width - 1)
        self.mask = (self.ones << self.width) - self.ones

    def pack(self, values: Iterable[int], bias: int = 0) -> int:
        """sum_i (values[i] + bias) 2^(i width), each value + bias in
        [0, 2^width)."""
        if bias:
            values = map(bias.__add__, values)
        fields = map(int.to_bytes, values, repeat(self.size), repeat("little"))
        return int.from_bytes(b"".join(fields), "little")

    def low_bytes(self, packed: int) -> bytes:
        """The low byte of every field of a nonnegative packed int, one byte
        per field."""
        return packed.to_bytes(self.count * self.size, "little")[:: self.size]
