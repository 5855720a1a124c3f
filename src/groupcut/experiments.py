"""Experiment drivers: volume-optimality reports over ranges of group orders,
discretization experiments on the circle, Stirling-type limit tables, and
emission of cutting planes from simplex tableau rows.  Every driver returns
its result and writes no file; the CLI prints it."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .criteria import _value_product, volume_product
from .errors import (
    DimensionCap,
    GridMismatch,
    NotInClassG,
    OutOfRange,
    RhsMismatch,
    ValidationFailure,
)
from .finite_functions import (
    MAX_SCAN_ORDER,
    FiniteGroupFunction,
    _violations,
    compose,
    gom,
    is_minimal,
    rearrange_finite,
)
from .group_core import mod_inverse, require_prime
from .polytope import _admit_order, minimize_volume
from .rationals import as_fraction, json_field, ln_fraction
from .torus import (
    MODE_RHS,
    MODE_WRAP,
    PwlTorusFunction,
    _violations as _circle_violations,
    _walk_pieces,
    integral_ln,
    is_nondecreasing,
)

__all__ = [
    "ExperimentConfig",
    "TableauRow",
    "CutInequality",
    "emit_cut",
    "RiemannResult",
    "riemann_experiment",
    "StirlingRow",
    "stirling_table",
    "OptimizationRow",
    "Report",
    "optimize_and_report",
    "expected_min_product",
    "STATUS_OK",
    "STATUS_MISMATCH",
]

_B_POLICIES = ("all", "fixed", "canonical")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for a volume-optimality run: the orders, and which rhs b to
    report for each, b = q-1 (canonical), every b (all) or fixed_b (fixed).

    Every order in prime_list must be prime; optimize_and_report refuses a
    composite one before any enumeration starts.  fixed_b is read only under
    b_policy fixed, and refused under any other policy.
    """

    prime_list: tuple[int, ...] = ()
    b_policy: str = "canonical"
    fixed_b: int | None = None

    def __post_init__(self) -> None:
        if any(q < 2 for q in self.prime_list):
            raise ValueError("group orders must be at least 2")
        if self.b_policy not in _B_POLICIES:
            raise ValueError(f"b_policy must be one of {_B_POLICIES}")
        if self.b_policy == "fixed":
            if self.fixed_b is None or self.fixed_b < 1:
                raise ValueError("fixed b_policy needs fixed_b >= 1")
        elif self.fixed_b is not None:
            raise ValueError(f"fixed_b needs b_policy fixed, not {self.b_policy!r}")


@dataclass(frozen=True)
class TableauRow:
    """One simplex tableau row: fractional parts of the rhs and the nonbasic
    columns, each tagged with a variable name."""

    rhs: Fraction
    columns: tuple[tuple[str, Fraction], ...]

    def __post_init__(self) -> None:
        rhs = as_fraction(self.rhs)
        if not 0 < rhs < 1:
            raise OutOfRange(f"row rhs must have fractional part in (0, 1), got {rhs}")
        cols = tuple((str(n), as_fraction(f)) for n, f in self.columns)
        if any(not 0 <= f < 1 for _n, f in cols):
            raise OutOfRange("column fractional parts must lie in [0, 1)")
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "columns", cols)

    def to_dict(self) -> dict:
        return {
            "rhs": str(self.rhs),
            "columns": [{"name": n, "frac": str(f)} for n, f in self.columns],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableauRow":
        columns = json_field(data, "columns", list)
        return cls(
            rhs=json_field(data, "rhs"),
            columns=tuple(
                (json_field(col, "name", str), json_field(col, "frac"))
                for col in columns
            ),
        )


@dataclass(frozen=True)
class CutInequality:
    """sum coefficient_j * s_j >= 1 over the named nonbasic variables."""

    names: tuple[str, ...]
    coefficients: tuple[Fraction, ...]
    rhs: Fraction = Fraction(1)

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"name": n, "coefficient": str(c)}
                for n, c in zip(self.names, self.coefficients)
            ],
            "sense": ">=",
            "rhs": str(self.rhs),
        }

    def __str__(self) -> str:
        lhs = " + ".join(
            f"{c} {n}" for n, c in zip(self.names, self.coefficients)
        )
        return f"{lhs or '0'} >= {self.rhs}"


def emit_cut(
    row: TableauRow, fn: FiniteGroupFunction | PwlTorusFunction
) -> CutInequality:
    """Evaluate a cut-generating function on a tableau row's fractional parts.

    The function's rhs must match the row's, and a finite-group function can
    only score rows whose fractional parts sit on its 1/q grid.
    """
    if isinstance(fn, FiniteGroupFunction):
        q = fn.q
        if row.rhs != Fraction(fn.b_residue, q):
            raise RhsMismatch(
                f"row rhs {row.rhs} but the function cuts rhs {Fraction(fn.b_residue, q)}"
            )
        coeffs = []
        for name, frac in row.columns:
            if (frac * q).denominator != 1:
                raise GridMismatch(
                    f"column {name!r} at {frac} is not a multiple of 1/{q}"
                )
            coeffs.append(fn(int(frac * q)))
    else:
        if fn.mode != MODE_RHS or fn.b != row.rhs:
            raise RhsMismatch(
                f"row rhs {row.rhs} but the function cuts rhs {fn.b}"
            )
        coeffs = [fn.value_at(frac) for _name, frac in row.columns]
    return CutInequality(
        names=tuple(n for n, _f in row.columns), coefficients=tuple(coeffs)
    )


def expected_min_product(q: int) -> Fraction:
    """(q-1)! / (q-1)^(q-1): the least value product over minimal functions."""
    return Fraction(math.factorial(q - 1), (q - 1) ** (q - 1))


@dataclass(frozen=True)
class RiemannResult:
    """Discretization of a nondecreasing minimal circle function to order q."""

    q: int
    product: Fraction  # product of the discretized values over nonzero residues
    product_bound: Fraction  # (q-1)! / (q-1)^(q-1)
    discrete_mean: float  # ln(product) / (q-1); identity_fn() attains lower_bound
    lower_bound: float  # ln(product_bound) / (q-1)
    integral: float  # integral of ln over the circle, the q -> inf limit


def riemann_experiment(h: PwlTorusFunction, q: int) -> RiemannResult:
    """Sample h at x/(q-1), certify the sample is minimal on the order-q group
    with rhs q-1, and compare its log mean against the exact floor.

    Raises ValidationFailure if any certified identity fails: the discretized
    function must be minimal and its value product can be no smaller than
    (q-1)!/(q-1)^(q-1).  An order above MAX_SCAN_ORDER raises DimensionCap, an
    O(1) test made before the primality test and before any sampling.
    """
    if q > MAX_SCAN_ORDER:
        raise DimensionCap.order(q, "riemann", MAX_SCAN_ORDER)
    require_prime(q)
    if h.mode != MODE_WRAP:
        raise NotInClassG("expected wraparound symmetry (mode 'wrap')")
    if not is_nondecreasing(h):
        raise NotInClassG("expected a nondecreasing function")
    first = next(_circle_violations(h), None)
    if first is not None:
        raise NotInClassG(f"not minimal: {first}")
    # h at x/(q-1) for x < q-1 is h at x * (d // (q-1)) over d
    d = math.lcm(q - 1, *(x.denominator for x in h.breakpoints))
    # the sample is checked and scored as integers over w: h(1) = 1 is w
    scaled, w = _walk_pieces(h, d, range(0, d, d // (q - 1)))
    nums = [v for _left, v, _right in scaled.values()] + [w]
    first = next(_violations(nums, w, q - 1), None)
    if first is not None:
        raise ValidationFailure(f"discretized sample is not minimal: {first}")
    product = _value_product(nums, w)
    bound = expected_min_product(q)
    if product < bound:
        raise ValidationFailure(
            f"value product {product} fell below the exact floor {bound}"
        )
    discrete_mean = ln_fraction(product) / (q - 1)
    lower_bound = ln_fraction(bound) / (q - 1)
    return RiemannResult(
        q=q,
        product=product,
        product_bound=bound,
        discrete_mean=discrete_mean,
        lower_bound=lower_bound,
        integral=integral_ln(h),
    )


@dataclass(frozen=True)
class StirlingRow:
    q: int
    ratio: Fraction  # (q-1)! / (q-1)^(q-1)
    log_mean: float  # ln(ratio) / (q-1)
    gap_to_minus_one: float  # log_mean + 1 > 0; leading term ln(2 pi (q-1))/(2(q-1))


def stirling_table(primes: Sequence[int]) -> tuple[StirlingRow, ...]:
    """Exact floor ratios and their log means for ascending prime orders; an
    order above MAX_SCAN_ORDER raises DimensionCap before any primality test."""
    qs = sorted(set(primes))
    if qs and qs[-1] > MAX_SCAN_ORDER:
        raise DimensionCap.order(qs[-1], "stirling", MAX_SCAN_ORDER)
    for q in qs:
        require_prime(q)
    rows = []
    for q in qs:
        ratio = expected_min_product(q)
        log_mean = ln_fraction(ratio) / (q - 1)
        rows.append(
            StirlingRow(
                q=q, ratio=ratio, log_mean=log_mean, gap_to_minus_one=log_mean + 1.0
            )
        )
    return tuple(rows)


STATUS_OK = "OK"
STATUS_MISMATCH = "MISMATCH"


# the columns of `optimize --format csv`; the JSON report carries every field
CSV_COLUMNS = ("q", "b", "status", "n_vertices", "min_product", "unique")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


@dataclass(frozen=True)
class OptimizationRow:
    q: int
    b: int
    status: str
    n_vertices: int
    min_product: Fraction
    argmin: FiniteGroupFunction
    unique: bool
    # an order's one enumeration is timed in the first row of that order
    wall_time_ms: float

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "b": self.b,
            "status": self.status,
            "n_vertices": self.n_vertices,
            "min_product": str(self.min_product),
            "argmin": [str(v) for v in self.argmin.values],
            "unique": self.unique,
            "wall_time_ms": self.wall_time_ms,
        }

    def csv_cells(self) -> list[str]:
        """The CSV_COLUMNS fields as CSV text, booleans in lowercase."""
        return [_csv_cell(getattr(self, name)) for name in CSV_COLUMNS]


@dataclass(frozen=True)
class Report:
    rows: tuple[OptimizationRow, ...]
    ok: bool  # True when every row matched the predicted optimum

    def to_dict(self) -> dict:
        return {"ok": self.ok, "rows": [row.to_dict() for row in self.rows]}

    def write_csv(self, handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(row.csv_cells() for row in self.rows)


def _carried_rows(q: int, bs: Sequence[int]) -> list[OptimizationRow]:
    """Enumerate order q once, at rhs q-1, and carry the optimum to each b.

    The automorphism x -> u*x, u = (q-1) b^-1 mod q, maps the vertices for
    rhs b one to one onto those for rhs q-1 and keeps every value product, so
    the vertex count and uniqueness carry over.  Each carried argmin is still
    certified on its own: its product must be the floor, it must be minimal at
    b, and it must sort to gom(q, q-1).
    """
    started = time.perf_counter()
    base = minimize_volume(q, q - 1)
    floor = expected_min_product(q)
    shape = gom(q, q - 1)
    rows = []
    for b in bs:
        argmin = compose(base.argmin, (q - 1) * mod_inverse(b, q))
        product = volume_product(argmin)
        matches = (
            base.unique
            and product == floor
            and is_minimal(argmin).is_minimal
            and rearrange_finite(argmin) == shape
        )
        now = time.perf_counter()
        rows.append(
            OptimizationRow(
                q=q,
                b=b,
                status=STATUS_OK if matches else STATUS_MISMATCH,
                n_vertices=base.n_vertices,
                min_product=product,
                argmin=argmin,
                unique=base.unique,
                wall_time_ms=(now - started) * 1000.0,
            )
        )
        started = now
    return rows


def _tasks_for(config: ExperimentConfig) -> list[tuple[int, tuple[int, ...]]]:
    """(q, rhs values to report) in ascending q.

    Every order is admitted here, before any enumeration starts.
    """
    tasks = []
    for q in sorted(set(config.prime_list)):
        _admit_order(q)
        if config.b_policy == "all":
            tasks.append((q, tuple(range(1, q))))
        elif config.b_policy == "fixed":
            if not 1 <= config.fixed_b < q:
                raise OutOfRange(f"fixed_b={config.fixed_b} is outside 1..{q - 1}")
            tasks.append((q, (config.fixed_b,)))
        else:
            tasks.append((q, (q - 1,)))
    return tasks


def optimize_and_report(config: ExperimentConfig) -> Report:
    """Minimize the value product for every configured (q, b) and check each
    optimum against the predicted floor and shape.

    Each order is enumerated once, at rhs q-1, and its optimum is carried to
    every requested b by an automorphism.  An order above MAX_ORDER raises
    DimensionCap and a composite one NotPrime, before any order is
    enumerated.
    """
    rows = []
    for q, bs in _tasks_for(config):
        rows.extend(_carried_rows(q, bs))
    ok = all(row.status == STATUS_OK for row in rows)
    return Report(rows=tuple(rows), ok=ok)
