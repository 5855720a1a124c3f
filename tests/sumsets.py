"""Sumsets for the growth-property tests: residue sets on Z/qZ and closed
interval unions on the circle.  The package forms no sumset itself; these
state the Cauchy-Davenport bound and its measure analogue on the circle,
which the rearrangement results rest on, as checks on its sublevel sets."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Interval = tuple[Fraction, Fraction]
Intervals = Iterable[Interval]


def sumset(q: int, a: Iterable[int], b: Iterable[int]) -> set[int]:
    """{x + y mod q : x in a, y in b}."""
    b = list(b)
    return {(x + y) % q for x in a for y in b}


def merge_intervals(intervals: Intervals) -> tuple[Interval, ...]:
    merged: list[Interval] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def union_measure(intervals: Intervals) -> Fraction:
    return sum((hi - lo for lo, hi in merge_intervals(intervals)), Fraction(0))


def interval_sumset(a: Intervals, b: Intervals) -> tuple[Interval, ...]:
    """Minkowski sum of two closed interval unions on the circle."""
    out: list[Interval] = []
    b = list(b)
    for a_lo, a_hi in a:
        for b_lo, b_hi in b:
            lo, hi = a_lo + b_lo, a_hi + b_hi
            if hi - lo >= 1:
                return ((Fraction(0), Fraction(1)),)
            shift = lo - (lo % 1)
            lo, hi = lo - shift, hi - shift
            if hi <= 1:
                out.append((lo, hi))
            else:
                out.append((lo, Fraction(1)))
                out.append((Fraction(0), hi - 1))
    return merge_intervals(out)
