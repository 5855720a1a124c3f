"""The integer subadditivity scan against a plain Fraction pair scan.

`is_minimal`, `rearrange_finite` and `gomory_decomposition` share one scan
over integer numerators.  The oracle below scans the exact `Fraction` values
pair by pair, as the three functions once did on their own, and every
verdict, error message and gamma must agree with it exactly: same kinds,
witnesses, amounts and order.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from groupcut import (
    FiniteGroupFunction,
    MinimalityVerdict,
    NotSubadditive,
    Violation,
    gmi,
    gom,
    gomory_decomposition,
    is_minimal,
    md2,
    rearrange_finite,
    tilde_fn,
)

ORDERS = (2, 5, 9, 13, 31)
PRIMES = tuple(q for q in ORDERS if q != 9)
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 35)


def oracle_is_minimal(pi, b=None, early_exit=False):
    q = pi.q
    b_res = pi.b_residue if b is None else b % q
    vals = pi.values
    violations = []

    def record(kind, witness, amount):
        violations.append(Violation(kind, witness, amount))
        return early_exit

    done = False
    if vals[0] != 0:
        done = record("origin", (0,), abs(vals[0]))
    if not done:
        for x in range(q):
            for y in range(x, q):
                slack = vals[x] + vals[y] - vals[(x + y) % q]
                if slack < 0:
                    done = record("subadditivity", (x, y), -slack)
                    if done:
                        break
            if done:
                break
    if not done:
        for x in range(q):
            partner = (b_res - x) % q
            if x > partner:
                continue
            gap = vals[x] + vals[partner] - 1
            if gap != 0:
                if record("symmetry", (x,), abs(gap)):
                    break
    return MinimalityVerdict(is_minimal=not violations, violations=tuple(violations))


def oracle_subadditivity_error(pi):
    q = pi.q
    for x in range(q):
        for y in range(x, q):
            slack = pi.values[x] + pi.values[y] - pi.values[(x + y) % q]
            if slack < 0:
                return f"pi({x}) + pi({y}) < pi({(x + y) % q}) by {-slack}"
    return None


def oracle_gamma(pi):
    q, vals = pi.q, pi.values
    return min(
        vals[x] + vals[y] - vals[x + y - q]
        for x in range(1, q)
        for y in range(x, q)
        if x + y >= q
    )


def rhs_choices(q):
    return range(1, q) if q <= 13 else (1, 2, q // 2, q - 2, q - 1)


def random_fraction(rng, top=3):
    den = rng.choice(DENOMINATORS)
    return F(rng.randint(0, top * den), den)


def perturbed_minimal(rng, q, b):
    """A mix of gom and md2 (minimal at b) with a few values moved by small
    fractions of mixed denominators, and sometimes a nonzero origin."""
    lam = F(rng.randint(0, 7), 7)
    vals = [
        lam * g + (1 - lam) * m for g, m in zip(gom(q, b).values, md2(q, b).values)
    ]
    for x in rng.sample(range(q), rng.randint(0, min(3, q))):
        vals[x] = max(F(0), vals[x] + F(rng.randint(-2, 2), rng.choice(DENOMINATORS)))
    return FiniteGroupFunction.from_values(q, b, vals)


def random_function(rng, q, b):
    vals = [random_fraction(rng) for _ in range(q)]
    if rng.random() < 0.5:
        vals[0] = F(0)
    return FiniteGroupFunction.from_values(q, b, vals)


def nondecreasing_minimal(rng, q):
    """A mix of gom, md2 and a sampled tilde(gmi(a)), all nondecreasing and
    minimal at the rhs q-1."""
    profile = tilde_fn(gmi(F(rng.randint(1, 8), 9)))
    sampled = [
        profile.value_at(F(x, q - 1)) if x < q - 1 else F(1) for x in range(q)
    ]
    parts = (gom(q, q - 1).values, md2(q, q - 1).values, sampled)
    weights = [F(rng.randint(0, 6), rng.choice(DENOMINATORS)) for _ in parts]
    weights[0] += 1
    total = sum(weights)
    vals = [sum(w * p[x] for w, p in zip(weights, parts)) / total for x in range(q)]
    return FiniteGroupFunction.from_values(q, q - 1, vals)


def corpus(q, seed):
    rng = random.Random(seed * 1000 + q)
    functions = []
    for b in rhs_choices(q):
        for _ in range(6):
            functions.append(perturbed_minimal(rng, q, b))
            functions.append(random_function(rng, q, b))
    return functions


@pytest.mark.parametrize("q", ORDERS)
def test_is_minimal_matches_fraction_scan(q):
    kinds = Counter()
    functions = corpus(q, seed=1)
    for pi in functions:
        for b in (None, *rhs_choices(q)[:3]):
            expected = oracle_is_minimal(pi, b)
            assert is_minimal(pi, b) == expected
            assert is_minimal(pi, b, early_exit=True) == oracle_is_minimal(
                pi, b, early_exit=True
            )
            kinds.update(v.kind for v in expected.violations)
    # the corpus reaches every kind, and some functions are minimal
    assert {"origin", "subadditivity", "symmetry"} <= set(kinds)
    assert any(is_minimal(pi).is_minimal for pi in functions)


@pytest.mark.parametrize("q", PRIMES)
def test_rearrange_error_matches_fraction_scan(q):
    outcomes = Counter()
    for pi in corpus(q, seed=2):
        if pi.values[0] != 0 or not any(pi.values):
            continue
        expected = oracle_subadditivity_error(pi)
        if expected is None:
            assert rearrange_finite(pi).values == tuple(sorted(pi.values))
        else:
            with pytest.raises(NotSubadditive) as info:
                rearrange_finite(pi)
            assert str(info.value) == expected
        outcomes[expected is None] += 1
    assert outcomes[True] > 0 and (q == 2 or outcomes[False] > 0)


@pytest.mark.parametrize("q", PRIMES)
def test_gomory_gamma_matches_fraction_scan(q):
    rng = random.Random(3000 + q)
    for _ in range(12):
        pi = nondecreasing_minimal(rng, q)
        assert oracle_is_minimal(pi).is_minimal
        assert gomory_decomposition(pi).gamma == oracle_gamma(pi)
