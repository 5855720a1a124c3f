"""Shared fixtures: a session-wide vertex cache and random minimal functions.

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
