"""The four benchmark workloads and their exact output oracles.

Each builder turns a seed into a fixed batch of operations.  An operation is
one top-level call into groupcut (or one CLI command) plus a check that
compares its output with a reference the benchmark derives from the paper's
three optimality facts, never from the program's own output:

* enum    -- optimize_and_report at the canonical rhs b = q-1 for
             q in {13, 17} and with b_policy="all" for q = 13.  Left out:
             q = 23, whose enumeration runs for more than 240 s, and the
             q = 19 row (about 4 s) and all b at q = 17 (about 14 s): the
             host's speed changes every few seconds, so a call that long
             mixes speeds in proportions that differ from run to run, and
             neither a median nor the reference kernel (run.Clock) cancels
             that.  All b at q = 13 already repeats one enumeration per rhs.
* certify -- is_minimal / rearrange_finite / gomory_decomposition on minimal
             functions with seeded weight and rhs at four primes spread
             over 101..307, plus riemann_experiment
             at q in {503, 1009}.
* circle  -- the circle-layer calls on scaled_gmi(b, k), k = 1..K, and on
             every canonical q = 13 vertex read as a circle function.
* cli     -- groupcut.cli.main(argv) for every subcommand, in process with
             stdout and stderr captured, checked by exit code, absence of a
             traceback, stored stdout digests (fixed inputs) or oracles
             (seeded inputs).  A subprocess per command would add process
             start and import, whose time drifts with the host by up to 25%
             where the reference kernel does not see it; that cost is
             measured by every workload's setup_s (a fresh interpreter
             imports groupcut) and by the trace's cli.import_s.

Builders import groupcut, so importing this module is part of set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import groupcut as gc

NAMES = ("enum", "certify", "circle", "cli")

# Vertex counts of the minimality polytope; the same for every rhs of one q.
ENUM_VERTICES = {13: 40, 17: 251}
ENUM_CASES = (("canonical", 13), ("canonical", 17), ("all", 13))
CERTIFY_PRIMES = (101, 307)
CERTIFY_FUNCTIONS = 4  # at primes evenly spread over that range
RIEMANN_ORDERS = (503, 1009)
CIRCLE_DENOMINATORS = (5, 7, 9)  # one seeded rhs b = n/d per denominator
CIRCLE_K = 12
# cli sizes are fixed and the seed draws only values, so every seed does the
# same work: the dense check relabels one fixed vector by a seeded unit of
# Z/503Z, which permutes its violations without changing their number
CLI_DECOMPOSE_Q = 29
CLI_MINIMAL_Q = 53
CLI_TILDE_K = 3
DENSE_Q = 503
# blend weights lam = n/12 in lowest terms, so the size of the exact
# arithmetic, and with it the work, is the same for every seed
LAM_NUMERATORS = (1, 5, 7, 11)


@dataclass
class Op:
    """One top-level call and the oracle for its output (None means correct).
    largest marks the batch's largest instance, or each of several that tie."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    largest: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    sizes: dict  # input sizes, recorded in every result file
    spec: list  # JSON-able description of the generated inputs
    warmup: Callable[[], None]
    probes: list[Op] = field(default_factory=list)  # known-defect inputs
    stats: dict = field(default_factory=lambda: {"stdout_bytes": 0})

    def input_digest(self) -> str:
        text = json.dumps(self.spec, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()


def build(name: str, seed: int, work_dir: str) -> Workload:
    rng = random.Random(seed)
    if name == "enum":
        return build_enum(rng)
    if name == "certify":
        return build_certify(rng)
    if name == "circle":
        return build_circle(rng)
    if name == "cli":
        return build_cli(rng, work_dir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- references


def min_product(q: int) -> Fraction:
    """Fact 2: the least value product over minimal functions of prime order q."""
    return Fraction(math.factorial(q - 1), (q - 1) ** (q - 1))


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if all(n % f for f in range(2, math.isqrt(n) + 1))]


def blend_values(q: int, lam: Fraction) -> list[Fraction]:
    """lam * gom(q, q-1) + (1 - lam) * md2(q, q-1), written out from the definitions."""
    values = [lam * Fraction(x, q - 1) + (1 - lam) / 2 for x in range(q)]
    values[0], values[q - 1] = Fraction(0), Fraction(1)
    return values


def finite_problems(values, q: int, b: int) -> str | None:
    """Minimality of a value vector on Z/qZ checked from the definition."""
    if values[0] != 0 or any(v < 0 for v in values):
        return "origin or negativity fails"
    for x in range(q):
        if values[x] + values[(b - x) % q] != 1:
            return f"symmetry fails at {x}"
    return None


def pwl_mass(fn) -> Fraction:
    """Exact integral of a piecewise-linear circle function over [0, 1)."""
    ends = list(fn.breakpoints[1:]) + [Fraction(1)]
    return sum(((s * (u + v) / 2 + t) * (v - u) for u, v, (s, t) in zip(fn.breakpoints, ends, fn.pieces)), Fraction(0))


def is_identity(fn) -> bool:
    """The identity ramp h(x) = x with wrap-around symmetry."""
    return (
        tuple(fn.breakpoints) == (0,)
        and tuple(fn.pieces) == ((1, 0),)
        and tuple(fn.point_values) == (0,)
        and fn.mode == "wrap"
    )


# ---------------------------------------------------------------------- enum


def check_report(q: int, policy: str, report) -> str | None:
    bs = list(range(1, q)) if policy == "all" else [q - 1]
    if not report.ok or [row.b for row in report.rows] != bs:
        return "report not ok or wrong rows"
    ramp = [Fraction(x, q - 1) for x in range(q)]
    for row in report.rows:
        if row.status != "OK" or row.unique is not True:
            return f"b={row.b}: status {row.status}, unique {row.unique}"
        if row.n_vertices != ENUM_VERTICES[q]:
            return f"b={row.b}: {row.n_vertices} vertices, expected {ENUM_VERTICES[q]}"
        if row.min_product != min_product(q):
            return f"b={row.b}: min product {row.min_product}"
        values = row.argmin.values
        if math.prod(values[1:]) != row.min_product or sorted(values) != ramp:
            return f"b={row.b}: argmin does not rearrange to gom(q, q-1)"
        if Fraction(sum(values), q) != Fraction(1, 2):
            return f"b={row.b}: argmin mass is not 1/2"
        problem = finite_problems(values, q, row.b)
        if problem:
            return f"b={row.b}: argmin {problem}"
    return None


def build_enum(rng: random.Random) -> Workload:
    cases = list(ENUM_CASES)
    rng.shuffle(cases)  # the seed fixes the order of the batch
    ops = [
        Op(
            name=f"optimize_and_report[{policy} q={q}]",
            call=lambda q=q, policy=policy: gc.optimize_and_report(
                gc.ExperimentConfig(prime_list=(q,), b_policy=policy)
            ),
            check=lambda out, q=q, policy=policy: check_report(q, policy, out),
            largest=(policy, q) == ("canonical", 17),
        )
        for policy, q in cases
    ]

    def warmup() -> None:
        gc.optimize_and_report(gc.ExperimentConfig(prime_list=(5, 7), b_policy="all"))

    sizes = {"cases": [f"{p} q={q}" for p, q in ENUM_CASES], "vertices": ENUM_VERTICES}
    return Workload("enum", ops, sizes, cases, warmup)


# ------------------------------------------------------------------- certify


def check_decomposition(q: int, target: list[Fraction], d) -> str | None:
    lam, tilde = d.lam, d.pi_tilde.values
    if not 0 < lam < 1 or d.pi_tilde.b_residue != q - 1:
        return f"lambda {lam} out of range"
    if any(lam * Fraction(x, q - 1) + (1 - lam) * tilde[x] != target[x] for x in range(q)):
        return "lam*gom + (1-lam)*pi_tilde does not recombine to pi0"
    return finite_problems(tilde, q, q - 1)


def check_riemann(q: int, r) -> str | None:
    bound = min_product(q)
    if r.q != q or r.product_bound != bound or r.product != bound:
        return f"product {r.product} is not the floor {bound}"
    if abs(r.integral + 1.0) > 1e-9 or r.discrete_mean < r.lower_bound - 1e-12:
        return f"integral {r.integral} or mean {r.discrete_mean} off"
    return None


def build_certify(rng: random.Random) -> Workload:
    primes = primes_between(*CERTIFY_PRIMES)
    step = (len(primes) - 1) / (CERTIFY_FUNCTIONS - 1)
    ops: list[Op] = []
    spec: list = []
    for i in range(CERTIFY_FUNCTIONS):
        q = primes[round(i * step)]
        lam = Fraction(rng.choice(LAM_NUMERATORS), 12)
        b = rng.randrange(1, q)
        target = blend_values(q, lam)
        pi0 = gc.FiniteGroupFunction.from_values(q, q - 1, target)
        group = pi0.group
        pi = gc.compose(pi0, gc.automorphism_sending(group.element(b), group.element(q - 1)))
        unit = (q - 1) * pow(b, -1, q) % q
        if pi.b_residue != b or any(pi.values[x] != target[unit * x % q] for x in range(q)):
            raise AssertionError(f"compose built the wrong input at q={q}")
        spec.append([q, str(lam), b])
        ops += [
            Op(
                f"is_minimal[q={q}]",
                lambda pi=pi: gc.is_minimal(pi),
                lambda v: None if v.is_minimal and not v.violations else "minimal input rejected",
            ),
            Op(
                f"rearrange_finite[q={q}]",
                lambda pi=pi: gc.rearrange_finite(pi),
                lambda out, target=target, q=q: None
                if list(out.values) == target and out.b_residue == q - 1
                else "rearrangement is not pi0",
            ),
            Op(
                f"gomory_decomposition[q={q}]",
                lambda pi0=pi0: gc.gomory_decomposition(pi0),
                lambda d, q=q, target=target: check_decomposition(q, target, d),
            ),
        ]
    gmi_b = Fraction(rng.randrange(1, 7), 7)
    spec.append(str(gmi_b))
    profiles = {"identity": gc.identity_fn(), f"tilde(gmi({gmi_b}))": gc.tilde_fn(gc.gmi(gmi_b))}
    if not is_identity(profiles[f"tilde(gmi({gmi_b}))"]):
        raise AssertionError("tilde_fn(gmi(b)) is not the identity ramp")
    for label, h in profiles.items():
        for q in RIEMANN_ORDERS:
            ops.append(
                Op(
                    f"riemann_experiment[{label} q={q}]",
                    lambda h=h, q=q: gc.riemann_experiment(h, q),
                    lambda r, q=q: check_riemann(q, r),
                    largest=q == RIEMANN_ORDERS[-1],  # tilde(gmi(b)) samples the identity too
                )
            )
    rng.shuffle(ops)

    def warmup() -> None:
        pi = gc.md2(11, 10)
        gc.is_minimal(pi)
        gc.rearrange_finite(pi)
        gc.gomory_decomposition(pi)
        gc.riemann_experiment(gc.identity_fn(), 11)

    sizes = {
        "functions": CERTIFY_FUNCTIONS,
        "orders": [s[0] for s in spec[:-1]],
        "riemann_orders": list(RIEMANN_ORDERS),
    }
    return Workload("certify", ops, sizes, spec, warmup)


# -------------------------------------------------------------------- circle


def circle_ops(label: str, h, gmi_family: bool, largest: bool) -> list[Op]:
    def check_tilde(out) -> str | None:
        if gmi_family:
            return None if is_identity(out) else "tilde is not the identity ramp"
        if out.mode != "wrap" or out.point_values[0] != 0 or any(s < 0 for s, _t in out.pieces):
            return "tilde is not nondecreasing"
        return None if pwl_mass(out) == Fraction(1, 2) else "tilde mass is not 1/2"

    def check_ln(value) -> str | None:
        ok = abs(value + 1.0) <= 1e-9 if gmi_family else value >= -1.0 - 1e-12
        return None if ok else f"integral of ln is {value}"

    return [
        Op(f"is_minimal_pwl[{label}]", lambda: gc.is_minimal_pwl(h), lambda v: None if v.is_minimal else "minimal input rejected"),
        Op(f"tilde_fn[{label}]", lambda: gc.tilde_fn(h), check_tilde, largest=largest),
        Op(f"integral_ln[{label}]", lambda: gc.integral_ln(h), check_ln),
        Op(f"lp_power_torus[{label}]", lambda: gc.lp_power_torus(h, 1), lambda m: None if m == Fraction(1, 2) else f"mass {m}"),
        Op(f"layer_cake_check[{label}]", lambda: gc.layer_cake_check(h), lambda r: None if r.gap < 1e-9 else f"gap {r.gap}"),
    ]


def build_circle(rng: random.Random) -> Workload:
    bs = [Fraction(rng.choice([n for n in range(1, d) if math.gcd(n, d) == 1]), d) for d in CIRCLE_DENOMINATORS]
    ops: list[Op] = []
    for b in bs:
        for k in range(1, CIRCLE_K + 1):
            h = gc.scaled_gmi(b, k)
            if pwl_mass(h) != Fraction(1, 2):
                raise AssertionError("scaled_gmi input has the wrong mass")
            ops += circle_ops(f"scaled_gmi({b}, {k})", h, True, k == CIRCLE_K)
    vertices = gc.enumerate_vertices(gc.build_polytope(13, 12)).vertices
    if len(vertices) != ENUM_VERTICES[13]:
        raise AssertionError("wrong q = 13 vertex count")
    for j, v in enumerate(vertices):
        ops += circle_ops(f"q13 vertex {j}", gc.from_finite_function(v), False, False)
    rng.shuffle(ops)

    def warmup() -> None:
        for op in circle_ops("warmup", gc.gmi(Fraction(1, 2)), True, False):
            op.call()

    sizes = {"rhs": [str(b) for b in bs], "k_max": CIRCLE_K, "q13_vertices": len(vertices)}
    return Workload("circle", ops, sizes, [str(b) for b in bs], warmup)


# ----------------------------------------------------------------------- cli

# sha256 of stdout for the CLI calls whose inputs do not depend on the seed;
# fixed inputs must give byte-identical output.
CLI_DIGESTS = {
    "optimize q=5": "d2df4c29ee8753d9eb80a467ec109290bbf899bd06af9cfe5c83d743908db696",
    "optimize q=7": "298e8eabe5a40014a52aecf918b4913519e85b6b242a58a9ce3679c25b58dc7f",
    "optimize q=11": "ca1d23c7d00182daa82959c470d48866dd84c33a5e73afcc78d150abe75e1250",
    "optimize q=13": "21a32e525fba973bf865815113582948f6bbbf9fc1ab64ff2783d3f34cbd3c20",
    "riemann q=101": "c1173f228a5c46ea20f12c952dd1e75228dc1d4ad317f0a2a45e37f6a4f5b294",
    "stirling": "f79684bf54dd3de100bedb5b9573bbdf44600a46c4c9210cf7b977386ae46117",
    "cutgen": "247f253e51640c3cbd85fc4f2b5688024303143532156696448f38502f46ece7",
}


@dataclass
class CliCall:
    """One CLI invocation: argv, the contract's exit code and a stdout oracle."""

    argv: list[str]
    rc: int
    verify: Callable[[str], str | None] | None = None
    digest: str | None = None


def python_env(src_dir: str) -> dict:
    """The caller's environment with src_dir first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_inprocess(argv: list[str]) -> tuple[int, bytes, bytes]:
    """main(argv) with captured streams; an escaping exception reads as the
    interpreter would report it: a traceback on stderr and exit code 1."""
    import groupcut.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue().encode(), err.getvalue().encode()


def check_cli(spec: CliCall, result, seen: dict, name: str, stats: dict) -> str | None:
    rc, stdout, stderr = result
    stats["stdout_bytes"] += len(stdout)
    if b"Traceback" in stderr:
        return "printed a traceback"
    if rc != spec.rc:
        return f"exit code {rc}, contract says {spec.rc}"
    digest = hashlib.sha256(stdout).hexdigest()
    if spec.digest is not None and digest != spec.digest:
        return "stdout digest changed"
    if seen.setdefault(name, digest) != digest:
        return "stdout differs between identical calls"
    return spec.verify(stdout.decode()) if spec.verify else None


def _write(work_dir: str, name: str, payload) -> str:
    path = os.path.join(work_dir, name)
    with open(path, "w") as handle:
        handle.write(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def verify_optimize(q: int, text: str) -> str | None:
    lines = text.splitlines()
    if len(lines) != 2:
        return "expected one optimize row"
    got = lines[1].split(",")
    expected = [str(q), str(q - 1), "OK", got[3], str(min_product(q)), "true"]
    return None if got == expected else "optimize row off"


def verify_decompose(q: int, target: list[Fraction], text: str) -> str | None:
    data = json.loads(text)
    lam = Fraction(data["lambda"])
    tilde = [Fraction(v) for v in data["pi_tilde"]]
    if any(lam * Fraction(x, q - 1) + (1 - lam) * tilde[x] != target[x] for x in range(q)):
        return "decomposition does not recombine"
    return None


def verify_integrate(text: str) -> str | None:
    data = json.loads(text)
    if abs(data["integral_ln"] + 1.0) > 1e-9 or data["layer_cake"]["gap"] >= 1e-9:
        return "integral of ln or layer-cake gap off"
    return None if abs(data["lp_norms"]["1"] - 0.5) <= 1e-12 else "L1 norm is not 1/2"


def verify_tilde(text: str) -> str | None:
    data = json.loads(text)
    ok = data["breakpoints"] == ["0"] and data["pieces"] == [{"slope": "1", "intercept": "0"}]
    return None if ok and data["mode"] == "wrap" else "tilde is not the identity ramp"


def dense_violations(q: int, b: int, nums: list[int], den: int) -> list:
    """Every violation of a value vector nums/den, found from the definition."""
    found = []
    for x in range(q):
        for y in range(x, q):
            slack = nums[x] + nums[y] - nums[(x + y) % q]
            if slack < 0:
                found.append(("subadditivity", (x, y), Fraction(-slack, den)))
    for x in range(q):
        partner = (b - x) % q
        gap = nums[x] + nums[partner] - den
        if x <= partner and gap:
            found.append(("symmetry", (x,), Fraction(abs(gap), den)))
    return sorted(found)


def verify_check(expected: Callable[[], list], text: str) -> str | None:
    data = json.loads(text)
    got = sorted(
        (v["kind"], tuple(int(w) for w in v["witness"]), Fraction(v["amount"])) for v in data["violations"]
    )
    if data["is_minimal"] != (not got) or got != expected():
        return "violations differ from the reference"
    return None


def build_cli(rng: random.Random, work_dir: str) -> Workload:
    calls: dict[str, CliCall] = {}
    for q in (5, 7, 11, 13):
        calls[f"optimize q={q}"] = CliCall(
            ["optimize", "--primes", str(q), "--format", "csv"], 0, lambda t, q=q: verify_optimize(q, t)
        )
    calls["riemann q=101"] = CliCall(
        ["experiment", "riemann", "--q", "101"],
        0,
        lambda t: None if json.loads(t)["product"] == str(min_product(101)) else "riemann product off",
    )
    stirling = (5, 7, 11, 13, 17, 19, 23)
    calls["stirling"] = CliCall(
        ["experiment", "stirling", "--primes", *map(str, stirling)],
        0,
        lambda t: None
        if [r["ratio"] for r in json.loads(t)["rows"]] == [str(min_product(q)) for q in stirling]
        else "stirling ratios off",
    )
    row = _write(work_dir, "row.json", {"rhs": "6/7", "columns": [{"name": f"s{j}", "frac": f"{j}/7"} for j in (1, 3, 5)]})
    gom7 = _write(work_dir, "gom7.json", gc.gom(7, 6).to_dict())
    calls["cutgen"] = CliCall(
        ["cutgen", "--row", row, "--function", gom7],
        0,
        lambda t: None
        if [c["coefficient"] for c in json.loads(t)["terms"]] == ["1/6", "1/2", "5/6"]
        else "cut coefficients off",
    )
    for name, call in calls.items():
        call.digest = CLI_DIGESTS[name]

    # seeded inputs, checked by oracles
    q = CLI_DECOMPOSE_Q
    target = blend_values(q, Fraction(rng.choice(LAM_NUMERATORS), 12))
    pi0 = _write(work_dir, "pi0.json", {"q": q, "b": q - 1, "values": [str(v) for v in target]})
    calls[f"decompose q={q}"] = CliCall(["decompose", pi0], 0, lambda t: verify_decompose(q, target, t))
    b = Fraction(rng.randrange(1, 9), 9)
    gmi_path = _write(work_dir, "gmi.json", gc.gmi(b).to_dict())
    calls[f"integrate gmi({b})"] = CliCall(["integrate", gmi_path, "--p", "1", "--p", "2", "--layer-cake"], 0, verify_integrate)
    k = CLI_TILDE_K
    scaled = _write(work_dir, "scaled.json", gc.scaled_gmi(b, k).to_dict())
    calls[f"rearrange --tilde scaled_gmi({b}, {k})"] = CliCall(["rearrange", scaled, "--tilde"], 0, verify_tilde)
    qm = CLI_MINIMAL_Q
    bm = rng.randrange(1, qm)
    minimal = gc.compose(
        gc.FiniteGroupFunction.from_values(qm, qm - 1, blend_values(qm, Fraction(rng.choice(LAM_NUMERATORS), 12))),
        gc.automorphism_sending(gc.CyclicGroup(qm).element(bm), gc.CyclicGroup(qm).element(qm - 1)),
    )
    minimal_path = _write(work_dir, "minimal.json", minimal.to_dict())
    calls[f"check minimal q={qm}"] = CliCall(["check", minimal_path], 0, lambda t: verify_check(lambda: [], t))
    den = 100
    fixed = random.Random(DENSE_Q)
    base = [0] + [fixed.randrange(1, den + 1) for _ in range(DENSE_Q - 1)]
    unit = rng.randrange(1, DENSE_Q)
    nums = [base[pow(unit, -1, DENSE_Q) * x % DENSE_Q] for x in range(DENSE_Q)]
    bd = unit * fixed.randrange(1, DENSE_Q) % DENSE_Q
    dense = _write(work_dir, "dense.json", {"q": DENSE_Q, "b": bd, "values": [str(Fraction(n, den)) for n in nums]})
    reference: list = []

    def expected_dense() -> list:
        if not reference:
            reference.append(dense_violations(DENSE_Q, bd, nums, den))
        return reference[0]

    calls[f"check dense q={DENSE_Q}"] = CliCall(["check", dense], 0, lambda t: verify_check(expected_dense, t))

    # bad input: the contract's exit code is 3
    broken = _write(work_dir, "broken.json", '{"q": 5, "b": 4, "values": [')
    no_b = _write(work_dir, "no_b.json", {"q": 5, "values": ["0", "1/4", "1/2", "3/4", "1"]})
    calls["bad json"] = CliCall(["check", broken], 3)
    calls["missing key"] = CliCall(["check", no_b], 3)
    calls["riemann composite q"] = CliCall(["experiment", "riemann", "--q", "100"], 3)
    calls["unknown profile"] = CliCall(["experiment", "riemann", "--q", "11", "--h", "bogus"], 3)
    calls["fixed b out of range"] = CliCall(["optimize", "--primes", "5", "--b-policy", "fixed", "--fixed-b", "9"], 3)

    # known defects: floats and booleans are not exact rationals, so the
    # contract asks for exit code 3
    floats = _write(work_dir, "floats.json", '{"q": 5, "b": 4, "values": [0, 0.25, 0.5, 0.75, 1]}')
    bools = _write(work_dir, "bools.json", '{"q": 5, "b": 4, "values": [0, true, true, true, true]}')
    defects = {"float values": CliCall(["check", floats], 3), "boolean values": CliCall(["check", bools], 3)}

    seen: dict = {}
    stats = {"stdout_bytes": 0}

    def as_op(name: str, spec: CliCall) -> Op:
        return Op(
            f"cli[{name}]",
            lambda: run_inprocess(spec.argv),
            lambda out: check_cli(spec, out, seen, name, stats),
            largest=name == f"check dense q={DENSE_Q}",
        )

    ops = [as_op(name, spec) for name, spec in calls.items()]
    rng.shuffle(ops)
    probes = [as_op(name, spec) for name, spec in defects.items()]

    def warmup() -> None:
        warm = calls["optimize q=5"]
        if run_inprocess(warm.argv)[0] != 0:
            raise RuntimeError("warm-up CLI call failed")

    sizes = {"calls": len(ops), "dense_q": DENSE_Q, "known_defect_probes": len(probes)}
    spec = [[name, call.argv[0]] for name, call in calls.items()] + [nums, bd]
    return Workload("cli", ops, sizes, spec, warmup, probes, stats)
