"""Acceptance checks: each test exercises one advertised guarantee end to end
and prints a single ACCEPTANCE line with its verdict.

Run with `pytest -v` to get one PASS/FAIL line per criterion from pytest
itself; the printed ACCEPTANCE lines carry the measured numbers.
"""

import math
import time
from fractions import Fraction as F

from groupcut import (
    CyclicGroup,
    ExperimentConfig,
    automorphism_sending,
    compose,
    expected_min_product,
    gmi,
    gom,
    gomory_decomposition,
    identity_fn,
    integral_ln,
    is_minimal,
    is_minimal_pwl,
    is_nondecreasing,
    layer_cake_check,
    lp_norm,
    lp_norm_torus,
    md2,
    md2_torus,
    minimize_volume,
    mod_inverse,
    optimize_and_report,
    rearrange_finite,
    rearrange_torus,
    riemann_experiment,
    scaled_gmi,
    stirling_table,
    sublevel_measure,
    sublevel_set,
    tilde_fn,
)
from sumsets import interval_sumset, sumset, union_measure

ORDERS = (3, 5, 7, 11, 13)


def conclude(tag, problems, note=""):
    status = "PASS" if not problems else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {tag}: {status}{suffix}")
    assert not problems, problems[:5]


def random_vertex(rng, vertices_for, orders):
    q = rng.choice(orders)
    b = rng.randrange(1, q)
    vertices = vertices_for(q, b)
    return q, b, rng.choice(vertices)


def test_acceptance_01_exact_volume_minimum(vertices_for):
    """Every (q, b) optimum equals (q-1)!/(q-1)^(q-1), is unique, and maps to
    gom(q, q-1) under the rhs-aligning automorphism; everything under 60 s."""
    problems = []
    started = time.perf_counter()
    report = optimize_and_report(
        ExperimentConfig(prime_list=ORDERS, b_policy="all")
    )
    if len(report.rows) != sum(q - 1 for q in ORDERS):
        problems.append(f"expected one row per (q, b), got {len(report.rows)}")
    for row in report.rows:
        q, b = row.q, row.b
        if row.min_product != expected_min_product(q):
            problems.append(f"({q},{b}): min {row.min_product}")
        if row.unique is not True:
            problems.append(f"({q},{b}): uniqueness not flagged")
        group = CyclicGroup(q)
        u = automorphism_sending(group.element(b), group.element(q - 1))
        if compose(row.argmin, mod_inverse(u, q)) != gom(q, q - 1):
            problems.append(f"({q},{b}): argmin does not align with gom")
        if row.argmin != compose(gom(q, q - 1), u):
            problems.append(f"({q},{b}): gom does not pull back to the argmin")
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f} s")
    conclude("1 (exact volume minimum)", problems, f"{elapsed:.2f} s")


def test_acceptance_02_l1_floor(rng, vertices_for):
    """The plateau function has mass exactly 1/2; its higher p-th powers match
    the closed form; random vertices never fall below (1/2)^p."""
    problems = []
    for q in (3, 5, 7, 11):
        for b in {1, q - 1, q // 2}:
            if not 1 <= b < q:
                continue
            pi = md2(q, b)
            if lp_norm(pi, 1).power != F(1, 2):
                problems.append(f"md2({q},{b}) mass != 1/2")
            for p in (2, 3):
                closed = F(1, 2) ** p + (1 - 2 * F(1, 2) ** p) / q
                if lp_norm(pi, p).power != closed:
                    problems.append(f"md2({q},{b}) power {p} != {closed}")
    for _ in range(100):
        q, b, vertex = random_vertex(rng, vertices_for, (5, 7, 11, 13))
        for p in (1, 2, 3):
            if lp_norm(vertex, p).power < F(1, 2) ** p:
                problems.append(f"vertex of ({q},{b}) below the floor at p={p}")
    for b in (F(1, 4), F(1, 2), F(5, 7)):
        for p in (1, 2, 3):
            if abs(lp_norm_torus(md2_torus(b), p) - 0.5) > 1e-12:
                problems.append(f"torus plateau norm p={p} off at b={b}")
    conclude("2 (mass floor 1/2)", problems)


def test_acceptance_03_log_integral_floor(rng, make_minimal_pwl):
    """The log integral attains -1 on the named families and never goes below
    -1 on random minimal circle functions."""
    problems = []
    for b in (F(1, 10), F(1, 3), F(1, 2), F(2, 3), F(9, 10)):
        if abs(integral_ln(gmi(b)) + 1.0) > 1e-9:
            problems.append(f"gmi({b}) integral off -1")
    if abs(integral_ln(identity_fn()) + 1.0) > 1e-12:
        problems.append("identity integral off -1")
    for k in (2, 3, 5):
        if abs(integral_ln(scaled_gmi(F(1, 2), k)) + 1.0) > 1e-9:
            problems.append(f"scaled profile k={k} integral off -1")
    for i in range(50):
        fn = make_minimal_pwl(rng)
        value = integral_ln(fn)
        if not value >= -1.0 - 1e-9:
            problems.append(f"random function {i} fell below -1: {value}")
    conclude("3 (log integral floor -1)", problems)


def test_acceptance_04_finite_rearrangement(rng, vertices_for):
    """Sorting a vertex preserves its values, lands on a nondecreasing minimal
    function with rhs q-1, is idempotent, and sends every optimum to gom."""
    problems = []
    for i in range(200):
        q, b, vertex = random_vertex(rng, vertices_for, (5, 7, 11))
        out = rearrange_finite(vertex)
        vals = out.values
        if sorted(vals) != sorted(vertex.values):
            problems.append(f"{i}: multiset changed")
        if any(vals[x] > vals[x + 1] for x in range(q - 1)):
            problems.append(f"{i}: not nondecreasing")
        if any(
            vals[x] + vals[y] < vals[(x + y) % q]
            for x in range(q)
            for y in range(q)
        ):
            problems.append(f"{i}: subadditivity broken")
        if any(vals[x] + vals[(q - 1 - x) % q] != 1 for x in range(q)):
            problems.append(f"{i}: symmetry to q-1 broken")
        if rearrange_finite(out) != out:
            problems.append(f"{i}: not idempotent")
    for q in ORDERS:
        for b in range(1, q):
            argmin = minimize_volume(q, b).argmin
            if rearrange_finite(argmin) != gom(q, q - 1):
                problems.append(f"argmin of ({q},{b}) does not sort to gom")
    conclude("4 (finite rearrangement)", problems)


def test_acceptance_05_circle_rearrangement(rng, make_minimal_pwl):
    """Sorting the two-slope profile yields the identity exactly; sorting is
    equimeasurable; the averaged version is symmetric and subadditive and
    keeps the log integral."""
    problems = []
    for b in (F(1, 4), F(1, 2), F(3, 4)):
        if rearrange_torus(gmi(b)) != identity_fn():
            problems.append(f"gmi({b}) did not sort to the identity")
    fn = make_minimal_pwl(rng)
    h = rearrange_torus(fn)
    for _ in range(50):
        alpha = F(rng.randrange(0, 241), 240)
        if sublevel_measure(h, alpha) != sublevel_measure(fn, alpha):
            problems.append(f"equimeasurability broken at {alpha}")
    for i in range(50):
        fn = make_minimal_pwl(rng)
        t = tilde_fn(fn)
        verdict = is_minimal_pwl(t)
        bad = [v for v in verdict.violations if v.kind in ("symmetry", "subadditivity")]
        if bad:
            problems.append(f"{i}: averaged version violates {bad[0].kind}")
        if not is_nondecreasing(t):
            problems.append(f"{i}: averaged version not nondecreasing")
        if abs(integral_ln(fn) - integral_ln(t)) > 1e-9:
            problems.append(f"{i}: log integral moved")
    conclude("5 (circle rearrangement)", problems)


def test_acceptance_06_layer_cake(rng, make_minimal_pwl):
    """The log integral agrees with its sublevel layer-cake form."""
    problems = []
    named = [
        ("gmi(1/2)", gmi(F(1, 2))),
        ("identity", identity_fn()),
        ("plateau", md2_torus(F(1, 2))),
    ]
    for label, fn in named:
        gap = layer_cake_check(fn).gap
        if gap >= 1e-8:
            problems.append(f"{label}: gap {gap}")
    for i in range(20):
        gap = layer_cake_check(make_minimal_pwl(rng)).gap
        if gap >= 1e-8:
            problems.append(f"random {i}: gap {gap}")
    conclude("6 (layer cake identity)", problems)


def test_acceptance_07_limit_floor_table():
    """The exact floor's log mean approaches -1 from above as q grows, and
    every discretized identity profile clears the floor exactly."""
    problems = []
    rows = stirling_table([11, 101, 1009])
    gaps = [row.gap_to_minus_one for row in rows]
    if not gaps[0] > gaps[1] > gaps[2] > 0:
        problems.append(f"gaps not decreasing: {gaps}")
    if not gaps[2] < 0.01:
        problems.append(f"gap at 1009 is {gaps[2]}")
    for q in (5, 11, 101):
        result = riemann_experiment(identity_fn(), q)
        if result.product < result.product_bound:
            problems.append(f"q={q}: product below the exact floor")
    conclude("7 (limit floor table)", problems, f"gap at 1009 = {gaps[2]:.5f}")


def test_acceptance_07_discrete_mean_convergence_rate():
    """The identity ramp sampled at x/n, n = q - 1, is gom(q, q-1), so its value
    product is the exact floor n!/n^n. Stirling's formula with Robbins'
    remainder (Amer. Math. Monthly 62, 1955), n! = sqrt(2 pi n) (n/e)^n e^r_n
    with 1/(12n+1) < r_n < 1/(12n), then fixes its log mean's rate towards -1:
    mean + 1 = ln(2 pi n)/(2n) + r_n/n."""
    slack = 1e-12  # float rounding only; the interval is 6.9e-9 wide at q = 101
    problems = []
    notes = []
    for q in (11, 101):
        n = q - 1
        lead = math.log(2 * math.pi * n) / (2 * n)
        lo, hi = lead + 1 / (n * (12 * n + 1)), lead + 1 / (12 * n * n)
        result = riemann_experiment(identity_fn(), q)
        gap = result.discrete_mean + 1.0
        if not (0 < gap and lo - slack <= gap <= hi + slack):
            problems.append(f"q={q}: mean + 1 = {gap!r} outside [{lo!r}, {hi!r}]")
        if result.discrete_mean != result.lower_bound:
            problems.append(
                f"q={q}: identity mean {result.discrete_mean!r} does not attain "
                f"the floor {result.lower_bound!r}"
            )
        notes.append(f"q={q}: mean + 1 = {gap:.10f} in [{lo:.10f}, {hi:.10f}]")
    conclude("7 (discrete mean convergence rate)", problems, "; ".join(notes))


def test_acceptance_08_vertex_structure(vertices_for):
    """All vertices are minimal; gom is the unique nondecreasing vertex at
    rhs q-1; the split along gom fixes gom and cuts the half-function as
    frozen."""
    problems = []
    for q in ORDERS:
        for b in range(1, q):
            for vertex in vertices_for(q, b):
                if not is_minimal(vertex).is_minimal:
                    problems.append(f"non-minimal vertex at ({q},{b})")
    for q in ORDERS:
        monotone = [
            v
            for v in vertices_for(q, q - 1)
            if all(v.values[x] <= v.values[x + 1] for x in range(q - 1))
        ]
        if len(monotone) != 1 or monotone[0] != gom(q, q - 1):
            problems.append(f"q={q}: nondecreasing vertex is not gom alone")
        if gomory_decomposition(gom(q, q - 1)).pi_tilde != gom(q, q - 1):
            problems.append(f"q={q}: gom does not split to itself")
    split = gomory_decomposition(md2(5, 4))
    if split.lam != F(1, 6):
        problems.append(f"half-function lambda {split.lam}")
    if split.pi_tilde.values != (F(0), F(11, 20), F(1, 2), F(9, 20), F(1)):
        problems.append(f"half-function remainder {split.pi_tilde.values}")
    conclude("8 (vertex structure)", problems)


def test_acceptance_09_growth_properties(rng, vertices_for, make_minimal_pwl):
    """Sumsets grow by |A| + |B| - 1 on prime orders, sublevel sumsets respect
    the measure floor, and vertex sets are automorphism equivariant."""
    problems = []
    for q in (5, 7, 11, 13):
        for i in range(250):
            a = rng.sample(range(q), rng.randrange(1, q + 1))
            b = rng.sample(range(q), rng.randrange(1, q + 1))
            if len(sumset(q, a, b)) < min(q, len(a) + len(b) - 1):
                problems.append(f"q={q} pair {i}: sumset too small")
    for _ in range(4):
        fn = make_minimal_pwl(rng)
        for _ in range(25):
            alpha = F(rng.randrange(0, 61), 120)
            beta = F(rng.randrange(0, 61), 120)
            a = sublevel_set(fn, alpha)
            b = sublevel_set(fn, beta)
            floor = min(F(1), union_measure(a) + union_measure(b))
            if union_measure(interval_sumset(a, b)) < floor:
                problems.append(f"measure floor broken at ({alpha},{beta})")
    group = CyclicGroup(7)
    base = set(vertices_for(7, 6))
    for b in range(1, 7):
        u = automorphism_sending(group.element(b), group.element(6))
        if {compose(v, u) for v in base} != set(vertices_for(7, b)):
            problems.append(f"vertex sets of b={b} and b=6 do not correspond")
    conclude("9 (growth properties)", problems)
