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
from itertools import islice

import pytest

from groupcut import (
    FiniteGroupFunction,
    MinimalityVerdict,
    NotMinimal,
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
from groupcut.finite_functions import _negative_rows, _runs, _violations

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


def at_rhs(pi, b):
    """pi's values at the right-hand side b (pi itself for None), as
    `check --b` builds them."""
    if b is None:
        return pi
    return FiniteGroupFunction(pi.group, pi.group.element(b), pi.numerators, pi.denominator)


def first_of_the_chain(pi):
    """The verdict of the first element of pi's lazy violation chain alone."""
    found = tuple(islice(_violations(pi.numerators, pi.denominator, pi.b_residue), 1))
    return MinimalityVerdict(is_minimal=not found, violations=found)


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
            assert is_minimal(at_rhs(pi, b)) == expected
            assert first_of_the_chain(at_rhs(pi, b)) == oracle_is_minimal(
                pi, b, early_exit=True
            )
            kinds.update(v.kind for v in expected.violations)
    # the corpus reaches every kind, and some functions are minimal
    assert {"origin", "subadditivity", "symmetry"} <= set(kinds)
    assert any(is_minimal(pi).is_minimal for pi in functions)


@pytest.mark.parametrize("q", ORDERS)
def test_runs_flatten_to_the_violations(q):
    # every run is non-empty, holds as many last entries as amounts, and the
    # runs, flattened, are the violation chain and the ordered oracle
    shapes = Counter()
    for pi in corpus(q, seed=1):
        for b in (None, *rhs_choices(q)[:3]):
            fn = at_rhs(pi, b)
            args = fn.numerators, fn.denominator, fn.b_residue
            runs = list(_runs(*args))
            assert all(lasts for _kind, _prefix, lasts, _amounts in runs)
            assert all(len(lasts) == len(amounts) for _k, _p, lasts, amounts in runs)
            flat = tuple(
                Violation(kind, (*prefix, last), amount)
                for kind, prefix, lasts, amounts in runs
                for last, amount in zip(lasts, amounts)
            )
            assert flat == tuple(_violations(*args)) == oracle_is_minimal(pi, b).violations
            shapes.update((kind, len(prefix)) for kind, prefix, _lasts, _amounts in runs)
    # origin and symmetry runs have no prefix, a subadditivity run its row
    assert set(shapes) == {("origin", 0), ("subadditivity", 1), ("symmetry", 0)}


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


# The row kernel: a packed screen tells which rows hold a negative slack, and
# only those rows are built as lists and walked.  The cases
# below aim at its edges: the smallest groups, rows full of violations,
# slacks of exactly 0, violations confined to one diagonal or one column, and
# the boundary of gamma's wrap-around slice.


def assert_matches_oracle(pi):
    expected = oracle_is_minimal(pi)
    got = is_minimal(pi)
    assert got == expected
    assert repr(got) == repr(expected)  # Fraction amounts, not ints
    assert first_of_the_chain(pi) == oracle_is_minimal(pi, early_exit=True)
    return expected


def subadditivity_witnesses(verdict):
    return [v.witness for v in verdict.violations if v.kind == "subadditivity"]


def grid_functions(q, levels):
    """Every function on Z/qZ with values in levels, origin included."""
    functions = [[]]
    for _ in range(q):
        functions = [f + [v] for f in functions for v in levels]
    return functions


@pytest.mark.parametrize("q", [2, 3])
def test_smallest_groups_match_the_oracle(q):
    levels = (F(0), F(1, 3), F(1, 2), F(1), F(3, 2))
    outcomes = Counter()
    for values in grid_functions(q, levels):
        for b in range(1, q):
            pi = FiniteGroupFunction.from_values(q, b, values)
            expected = assert_matches_oracle(pi)
            outcomes[bool(subadditivity_witnesses(expected))] += 1
            if values[0] == 0 and any(values):
                message = oracle_subadditivity_error(pi)
                if message is None:
                    assert rearrange_finite(pi).values == tuple(sorted(values))
                else:
                    with pytest.raises(NotSubadditive) as info:
                        rearrange_finite(pi)
                    assert str(info.value) == message
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("q", [2, 3])
def test_smallest_groups_gamma(q):
    # row x's wrap-around pairs start at y = max(x, q - x): row 0 has none,
    # and rows x >= q/2 are wrap-around whole.  A slice one pair early
    # takes in a pair with x + y = q - 1, whose slack is 0 for a function
    # symmetric about q - 1; one pair late leaves row 1 empty
    rng = random.Random(4000 + q)
    for _ in range(20):
        pi = nondecreasing_minimal(rng, q)
        assert gomory_decomposition(pi).gamma == oracle_gamma(pi)


def test_gomory_screen_refuses_a_symmetric_function_that_is_not_subadditive():
    # nondecreasing, 0 at the origin and symmetric about q - 1, so only the
    # pair screen can refuse it: pi(1) + pi(2) < pi(3) and more
    for values in (
        [F(0), F(1, 10), F(1, 5), F(1, 2), F(4, 5), F(9, 10), F(1)],
        [F(0), F(1, 4), F(1, 4), F(1, 2), F(3, 4), F(3, 4), F(1)],
    ):
        pi = FiniteGroupFunction.from_values(7, 6, values)
        first = oracle_is_minimal(pi, early_exit=True).violations[0]
        assert first.kind == "subadditivity"
        with pytest.raises(NotMinimal) as info:
            gomory_decomposition(pi)
        assert str(info.value) == f"not minimal: {first}"


def dense_function(rng, q, den=100):
    """Random positive values with a zero origin, as in a dense `check` input:
    most rows hold several violations."""
    values = [F(0)] + [F(rng.randrange(1, den + 1), den) for _ in range(q - 1)]
    return FiniteGroupFunction.from_values(q, rng.randrange(1, q), values)


def test_dense_violations_match_in_order():
    rng = random.Random(53)
    for _ in range(8):
        pi = dense_function(rng, 53)
        expected = assert_matches_oracle(pi)
        witnesses = subadditivity_witnesses(expected)
        assert len(witnesses) > 53  # many rows, several per row
        assert witnesses == sorted(witnesses)
        with pytest.raises(NotSubadditive) as info:
            rearrange_finite(pi)
        assert str(info.value) == oracle_subadditivity_error(pi)


def test_the_chain_yields_the_first_violation_first():
    rng = random.Random(54)
    for _ in range(8):
        pi = dense_function(rng, 53)
        full = oracle_is_minimal(pi)
        first = first_of_the_chain(pi)
        assert first.violations == full.violations[:1]
        assert first == oracle_is_minimal(pi, early_exit=True)
    # with a nonzero origin the origin violation comes first
    values = list(dense_function(rng, 53).values)
    values[0] = F(1, 7)
    pi = FiniteGroupFunction.from_values(53, 1, values)
    first = first_of_the_chain(pi).violations
    assert [v.kind for v in first] == ["origin"]


def test_zero_slack_is_not_a_violation():
    # gom(q, q - 1) = x / (q - 1) is tight on every pair with x + y < q;
    # nudging one value down makes some slacks negative and leaves others
    # exactly 0, and only the negative ones may be reported
    for q in (5, 13, 31):
        tight = gom(q, q - 1)
        assert assert_matches_oracle(tight).is_minimal
        for z in (1, q // 2, q - 2):
            values = list(tight.values)
            values[z] -= F(1, 3 * (q - 1))
            pi = FiniteGroupFunction.from_values(q, q - 1, values)
            expected = assert_matches_oracle(pi)
            vals = pi.values
            for x, y in subadditivity_witnesses(expected):
                assert vals[x] + vals[y] < vals[(x + y) % q]
            zero = [
                (x, y)
                for x in range(q)
                for y in range(x, q)
                if vals[x] + vals[y] == vals[(x + y) % q]
            ]
            assert zero and not set(zero) & set(subadditivity_witnesses(expected))


def test_violations_only_on_the_diagonal():
    # value 1 away from the origin, except pi(x0) = 1/2 and pi(2 x0) = 5/4:
    # 2 pi(x0) < pi(2 x0) is the only failed pair
    q = 11
    for x0 in (1, 2, 4, 5, 7):
        values = [F(0)] + [F(1)] * (q - 1)
        values[x0], values[2 * x0 % q] = F(1, 2), F(5, 4)
        pi = FiniteGroupFunction.from_values(q, q - 1, values)
        expected = assert_matches_oracle(pi)
        assert subadditivity_witnesses(expected) == [(x0, x0)]
        assert expected.violations[0].amount == F(1, 4)


def test_violations_only_in_the_last_column():
    # value 1 away from the origin, except pi(q - 1) = 1/2 and pi(t) = 2 for
    # t in ts: pi(t + 1) + pi(q - 1) < pi(t) fails, and no other pair does
    q = 13
    ts = (1, 4, 7, 10)
    values = [F(0)] + [F(1)] * (q - 1)
    values[q - 1] = F(1, 2)
    for t in ts:
        values[t] = F(2)
    pi = FiniteGroupFunction.from_values(q, 3, values)
    expected = assert_matches_oracle(pi)
    assert subadditivity_witnesses(expected) == [(t + 1, q - 1) for t in ts]


def test_row_zero_with_a_nonzero_origin():
    # row 0's slacks are all pi(0) + pi(y) - pi(y) = pi(0) > 0: the origin is
    # reported once, then the violations of later rows in order
    rng = random.Random(55)
    for origin in (F(1, 100), F(1, 2), F(3)):
        values = list(dense_function(rng, 29).values)
        values[0] = origin
        pi = FiniteGroupFunction.from_values(29, 5, values)
        expected = assert_matches_oracle(pi)
        assert expected.violations[0] == Violation("origin", (0,), origin)
        witnesses = subadditivity_witnesses(expected)
        assert witnesses and all(x > 0 for x, _y in witnesses)


def tilde_gmi_sample(b, q):
    profile = tilde_fn(gmi(b))
    values = [profile.value_at(F(x, q - 1)) if x < q - 1 else F(1) for x in range(q)]
    return FiniteGroupFunction.from_values(q, q - 1, values)


@pytest.mark.parametrize("b", [F(1, 7), F(3, 5)])
def test_tilde_gmi_sample_at_q_211(b):
    q = 211
    pi = tilde_gmi_sample(b, q)
    assert assert_matches_oracle(pi).is_minimal
    assert rearrange_finite(pi).values == pi.values
    assert gomory_decomposition(pi).gamma == oracle_gamma(pi)
    # lift one value: the violations that appear still match, in order
    values = list(pi.values)
    values[q // 3] += F(1, 4)
    lifted = FiniteGroupFunction.from_values(q, q - 1, values)
    assert subadditivity_witnesses(assert_matches_oracle(lifted))
    with pytest.raises(NotSubadditive) as info:
        rearrange_finite(lifted)
    assert str(info.value) == oracle_subadditivity_error(lifted)


# The packed row screen itself: `_negative_rows` packs the numerators into
# one int, a fixed-width field per value, and flags a row when some field's
# top bit is clear, with one flag per pair (x, y), read off those cleared
# top bits.  Rows and flags against the definition on nonnegative integer vectors:
# the smallest groups, all-zero vectors, maxima at both sides of a field-width
# boundary (the width grows when 2 max(nums) reaches 2^(8B-1)), values near
# 10^30, slacks of exactly 0 and -1, and sorted and unsorted vectors.


def oracle_negative_rows(nums):
    """The flagged rows from the definition: (x, flags) with one flag per y in
    [x, q), 1 where nums[x] + nums[y] < nums[(x + y) % q]."""
    q = len(nums)
    rows = []
    for x in range(q):
        flags = bytes(nums[x] + nums[y] < nums[(x + y) % q] for y in range(x, q))
        if any(flags):
            rows.append((x, flags))
    return rows


def assert_rows_match(nums):
    """The scan's rows, each with its flags for every pair (x, y), against
    the definition; the flagged row indices are returned."""
    expected = oracle_negative_rows(nums)
    assert list(_negative_rows(nums)) == expected, nums
    return [x for x, _ in expected]


def random_vector(rng, q, top):
    """Values in [0, top] with top itself present, sometimes 0 at the origin,
    sometimes only the extremes 0 and top (slacks of 2 top and -top)."""
    if rng.random() < 0.3:
        nums = [rng.choice((0, top)) for _ in range(q)]
    else:
        nums = [rng.randint(0, top) for _ in range(q)]
    nums[rng.randrange(q)] = top
    if rng.random() < 0.5:
        nums[0] = 0
    if rng.random() < 0.3:
        nums.sort()
    return nums


@pytest.mark.parametrize("q", [2, 3])
def test_packed_rows_on_the_smallest_groups(q):
    outcomes = Counter()
    for nums in grid_functions(q, (0, 1, 2, 3, 5, 127, 128, 2**62, 2**62 + 1)):
        outcomes[bool(assert_rows_match(nums))] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("q", [2, 3, 7, 31])
def test_packed_rows_on_zero_vectors(q):
    assert assert_rows_match([0] * q) == []


@pytest.mark.parametrize("k", range(1, 72))
def test_packed_rows_at_field_width_boundaries(k):
    rng = random.Random(5000 + k)
    for top in (2**k - 1, 2**k):
        for _ in range(12):
            assert_rows_match(random_vector(rng, rng.randint(2, 23), top))


def test_packed_rows_near_10_to_the_30():
    # values within 5 of 0 or of 10^30: a row fails when two small values
    # sum below a large one, and a vector of large values alone passes
    rng = random.Random(5100)
    flagged = Counter()
    for _ in range(60):
        q = rng.randint(2, 29)
        share = rng.choice((0.0, 0.3, 0.7))
        nums = [
            rng.randint(0, 5) + (10**30 if rng.random() >= share else 0)
            for _ in range(q)
        ]
        nums[0] = 0
        if rng.random() < 0.5:
            nums.sort()
        flagged[bool(assert_rows_match(nums))] += 1
    assert flagged[True] > 0 and flagged[False] > 0


def test_packed_rows_on_random_vectors():
    rng = random.Random(5200)
    tops = (1, 2, 9, 100, 255, 256, 65535, 10**9, 2**40, 10**30 + 7)
    flagged = Counter()
    for _ in range(500):
        nums = random_vector(rng, rng.randint(2, 40), rng.choice(tops))
        flagged[bool(assert_rows_match(nums))] += 1
    assert flagged[True] > 50 and flagged[False] > 20


@pytest.mark.parametrize("q", [2, 5, 13, 31])
@pytest.mark.parametrize("scale", [1, 3, 2**31 - 1, 10**30])
def test_packed_rows_at_slack_zero_and_minus_one(q, scale):
    # scale * x is subadditive with slack exactly 0 on every pair x + y < q:
    # no row is flagged.  One value raised by 1 gives slack exactly -1 on the
    # pairs (x, z - x), 0 < x < z, and slack 1 or more on every other pair;
    # one lowered by 1 gives -1 on the pairs (x, z) and (z, y) below q
    line = [scale * x for x in range(q)]
    assert assert_rows_match(line) == []
    for z in range(1, q):
        raised = line.copy()
        raised[z] += 1
        assert assert_rows_match(raised) == list(range(1, z // 2 + 1))
        lowered = line.copy()
        lowered[z] -= 1
        assert_rows_match(lowered)
        # unsorted: the same values in reverse
        assert_rows_match(raised[::-1])
        assert_rows_match(lowered[::-1])
