"""Shared fixtures: a session-wide vertex cache, random minimal functions,
and circle ramps whose values at 1/4 and 3/4 are set at will.

Random minimal finite functions are convex combinations of polytope vertices
(the defining constraints are affine equalities and inequalities, so convex
combinations stay minimal); random minimal circle functions are their uniform
grid interpolations, which keep minimality exactly because the grid is closed
under addition mod 1.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import groupcut as gc

SEED = 20260822


@pytest.fixture(scope="session")
def vertices_for():
    cache: dict[tuple[int, int], tuple] = {}

    def get(q: int, b: int):
        key = (q, b)
        if key not in cache:
            cache[key] = gc.enumerate_vertices(gc.build_polytope(q, b)).vertices
        return cache[key]

    return get


@pytest.fixture
def rng():
    return random.Random(SEED)


class UnreadableNumerators(gc.FiniteGroupFunction):
    """A stand-in for a finite function whose stored numerators, and so its
    values, raise when read: a check that must come before any arithmetic on
    the values is run against it."""

    @property
    def numerators(self):
        raise AssertionError("the numerators were read")

    @classmethod
    def of(cls, fn: gc.FiniteGroupFunction) -> "UnreadableNumerators":
        stand_in = object.__new__(cls)  # no constructor, so nothing is read
        stand_in.__dict__.update(vars(fn))
        return stand_in


@pytest.fixture
def unreadable_numerators():
    return UnreadableNumerators.of


def convex_combination(vertices, weights):
    total = sum(weights, Fraction(0))
    q = vertices[0].q
    values = [
        sum((w * v.values[x] for w, v in zip(weights, vertices)), Fraction(0)) / total
        for x in range(q)
    ]
    return gc.FiniteGroupFunction.from_values(q, vertices[0].b_residue, values)


@pytest.fixture(scope="session")
def make_minimal_finite(vertices_for):
    def make(rng: random.Random, q: int, b: int) -> gc.FiniteGroupFunction:
        verts = vertices_for(q, b)
        chosen = rng.sample(verts, rng.randint(1, min(3, len(verts))))
        weights = [Fraction(rng.randint(1, 9)) for _ in chosen]
        return convex_combination(chosen, weights)

    return make


@pytest.fixture(scope="session")
def make_minimal_pwl(make_minimal_finite):
    def make(rng: random.Random) -> gc.PwlTorusFunction:
        q = rng.choice((5, 7, 11))
        b = rng.randrange(1, q)
        return gc.from_finite_function(make_minimal_finite(rng, q, b))

    return make


def _ramps_through(low, high) -> gc.PwlTorusFunction:
    """0 at the origin, linear to low at 1/4, to high at 3/4 and to 1 at 1."""
    xs = (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1))
    ys = (Fraction(0), low, high, Fraction(1))
    slopes = [(b - a) / (v - u) for u, v, a, b in zip(xs, xs[1:], ys, ys[1:])]
    pieces = [(s, a - s * u) for s, u, a in zip(slopes, xs, ys)]
    return gc.PwlTorusFunction(xs[:3], tuple(pieces), mode=gc.MODE_WRAP)


@pytest.fixture
def ramps_through():
    """Circle functions with a value at 1/4 and at 3/4 set at will: a slope
    or a value that no float holds."""
    return _ramps_through
