"""Command line interface.

Subcommands: check (minimality verdicts), rearrange (finite or circle),
optimize (vertex enumeration + volume minimization over configured orders),
integrate (log integral, L_p norms, layer-cake comparison), experiment
(riemann, stirling), cutgen (tableau row to cutting plane).

Exit codes: 0 success, 2 a certified identity failed its check, 3 bad input
(usage errors included, and an order above a subcommand's cap).

JSON output, on stdout and in files, is exactly json.dumps(payload, indent=2);
one writer builds it with the C string escaper instead of the stdlib's
pure-Python indenting encoder, so check stays cheap when it lists tens of
thousands of violations.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys

from .criteria import score_function
from .errors import GroupCutError, ValidationFailure
from .experiments import (
    ExperimentConfig,
    TableauRow,
    _indented_json,
    emit_cut,
    optimize_and_report,
    riemann_experiment,
    stirling_table,
)
from .finite_functions import FiniteGroupFunction, is_minimal, rearrange_finite
from .polytope import gomory_decomposition
from .rationals import as_fraction
from .torus import (
    PwlTorusFunction,
    gmi,
    identity_fn,
    integral_ln,
    is_minimal_pwl,
    layer_cake_check,
    lp_norm_torus,
    rearrange_torus,
    sublevel_profile,
    tilde_fn,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input, exit 3; argparse's own 2 is taken by a
    failed certified identity."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


# CPython 3.10.7+ refuses int <-> str conversions longer than
# sys.get_int_max_str_digits() digits.  main lifts that limit while a command
# computes and prints, so exact results of any length are printed, and _load
# parses input under the limit main was called with.  Interpreters without
# the limit skip both.  The limit is process-wide, so the caller's value is
# kept at module level too, only while main runs.
_input_digits = None


@contextlib.contextmanager
def _int_digits(limit):
    """Run the body with the int <-> str digit limit set to limit (0 lifts
    it; None leaves it as it is), then restore the previous limit."""
    if limit is None or not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield previous
    finally:
        sys.set_int_max_str_digits(previous)


def _load(from_dict, path: str):
    """Read a JSON file, or stdin for '-', into an object; nesting too deep
    to decode, or a value of the wrong JSON type, such as a float or a
    boolean where an exact rational belongs, is bad input."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    with _int_digits(_input_digits):
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ValueError(f"bad input in {path}: JSON nested too deeply") from exc
        try:
            return from_dict(data)
        except TypeError as exc:
            raise ValueError(f"bad input in {path}: {exc}") from exc


def _function_from_dict(data: dict) -> FiniteGroupFunction | PwlTorusFunction:
    if "values" in data:
        return FiniteGroupFunction.from_dict(data)
    if "pieces" in data:
        return PwlTorusFunction.from_dict(data)
    raise ValueError("expected a 'values' (finite) or 'pieces' (circle) object")


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "json":
        print(_indented_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _verdict_dict(verdict) -> dict:
    return {
        "is_minimal": verdict.is_minimal,
        "violations": [
            {
                "kind": v.kind,
                "witness": list(map(str, v.witness)),
                "amount": str(v.amount),
            }
            for v in verdict.violations
        ],
    }


def _cmd_check(args) -> int:
    fn = _load(_function_from_dict, args.path)
    if isinstance(fn, FiniteGroupFunction):
        verdict = is_minimal(fn, b=args.b)
    elif args.b is not None:
        raise ValueError("--b applies to finite functions only")
    else:
        verdict = is_minimal_pwl(fn)
    _emit(_verdict_dict(verdict), args)
    return 0


def _cmd_rearrange(args) -> int:
    fn = _load(_function_from_dict, args.path)
    if isinstance(fn, FiniteGroupFunction):
        if args.tilde:
            raise ValueError("--tilde applies to circle functions only")
        out = rearrange_finite(fn)
    else:
        out = tilde_fn(fn) if args.tilde else rearrange_torus(fn)
    text = _indented_json(out.to_dict())
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _config_from_args(args) -> ExperimentConfig:
    base = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    if args.b_policy not in (None, "fixed"):  # replaces the file's fixed_b too
        base = dataclasses.replace(base, b_policy=args.b_policy, fixed_b=None)
    overrides = {
        "prime_list": None if args.primes is None else tuple(args.primes),
        "b_policy": args.b_policy,
        "fixed_b": args.fixed_b,
        "output_csv": args.output_csv,
        "output_json": args.output_json,
    }
    return dataclasses.replace(
        base, **{key: value for key, value in overrides.items() if value is not None}
    )


def _cmd_optimize(args) -> int:
    config = _config_from_args(args)
    report = optimize_and_report(config)
    if args.format == "csv":
        report.write_csv(
            sys.stdout, ("q", "b", "status", "n_vertices", "min_product", "unique")
        )
    else:
        print(_indented_json(report.to_dict()))
    return 0 if report.ok else 2


def _cmd_integrate(args) -> int:
    fn = _load(_function_from_dict, args.path)
    ps = tuple(args.p) if args.p else (1, 2, 3)
    if isinstance(fn, FiniteGroupFunction):
        if args.layer_cake or args.sublevel_csv:
            raise ValueError(
                "--layer-cake and --sublevel-csv apply to circle functions only"
            )
        payload = score_function(fn, ps=ps).to_dict()
    else:
        payload = {
            "integral_ln": _json_float(integral_ln(fn)),
            "lp_norms": {str(p): _json_float(lp_norm_torus(fn, p)) for p in ps},
        }
        if args.layer_cake:
            report = layer_cake_check(fn)
            payload["layer_cake"] = {
                "lhs": _json_float(report.lhs),
                "rhs": _json_float(report.rhs),
                "gap": _json_float(report.gap),
            }
        if args.sublevel_csv:
            _write_sublevel_csv(fn, args.sublevel_csv)
            payload["sublevel_csv"] = args.sublevel_csv
    _emit(payload, args)
    return 0


def _json_float(value: float) -> float | str:
    """A finite float stays a JSON number; inf, -inf and nan, which JSON has
    no number for, become the strings "inf", "-inf" and "nan"."""
    return value if math.isfinite(value) else repr(value)


def _write_sublevel_csv(fn: PwlTorusFunction, path: str) -> None:
    """Plot data: level alpha against measure{pi <= alpha}, exact strings."""
    profile = sublevel_profile(fn)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["alpha", "measure"])
        samples = set(profile.alphas)
        samples.update(
            (lo + hi) / 2 for lo, hi in zip(profile.alphas, profile.alphas[1:])
        )
        for alpha in sorted(samples):
            writer.writerow([str(alpha), str(profile.measure_at(alpha))])


def _parse_h(spec_text: str) -> PwlTorusFunction:
    if spec_text == "identity":
        return identity_fn()
    if spec_text.startswith("gmi:"):
        b = as_fraction(spec_text[len("gmi:") :])
        return tilde_fn(gmi(b))
    if spec_text.startswith("file:"):
        return _load(PwlTorusFunction.from_dict, spec_text[len("file:") :])
    raise ValueError(
        f"unknown profile {spec_text!r}: use identity, gmi:<b>, or file:<path>"
    )


def _cmd_experiment(args) -> int:
    if args.kind == "riemann":
        if args.q is None:
            raise ValueError("riemann needs --q")
        result = riemann_experiment(_parse_h(args.h), args.q, tolerance=args.tolerance)
        _emit(
            {
                "q": result.q,
                "discrete_mean": result.discrete_mean,
                "lower_bound": result.lower_bound,
                "integral": result.integral,
                "product": str(result.product),
                "product_bound": str(result.product_bound),
            },
            args,
        )
        return 0
    rows = [
        {
            "q": row.q,
            "ratio": str(row.ratio),
            "log_mean": row.log_mean,
            "gap_to_minus_one": row.gap_to_minus_one,
        }
        for row in stirling_table(args.primes or [])
    ]
    if args.output_csv:
        with open(args.output_csv, "w", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=["q", "ratio", "log_mean", "gap_to_minus_one"]
            )
            writer.writeheader()
            writer.writerows(rows)
    _emit({"rows": rows}, args)
    return 0


def _cmd_cutgen(args) -> int:
    row = _load(TableauRow.from_dict, args.row)
    fn = _load(_function_from_dict, args.function)
    cut = emit_cut(row, fn)
    if args.format == "text":
        print(str(cut))
    else:
        print(_indented_json(cut.to_dict()))
    return 0


def _cmd_decompose(args) -> int:
    fn = _load(FiniteGroupFunction.from_dict, args.path)
    result = gomory_decomposition(fn)
    _emit(
        {
            "lambda": str(result.lam),
            "gamma": str(result.gamma),
            "pi_tilde": [str(v) for v in result.pi_tilde.values],
        },
        args,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groupcut",
        description="Exact construction, certification, rearrangement and "
        "scoring of cut-generating functions on cyclic groups and the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify minimality of a function JSON")
    p.add_argument("path", help="function JSON file, or - for stdin")
    p.add_argument(
        "--b", type=int, default=None, help="override the rhs residue (finite only)"
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rearrange", help="nondecreasing equimeasurable re-sorting")
    p.add_argument("path", help="function JSON file, or - for stdin")
    p.add_argument(
        "--tilde",
        action="store_true",
        help="average with the right-continuous version (circle only)",
    )
    p.add_argument("--output", "-o", default=None, help="write JSON here")
    p.set_defaults(func=_cmd_rearrange)

    p = sub.add_parser(
        "optimize", help="minimize the value product over all vertices per (q, b)"
    )
    p.add_argument("--primes", type=int, nargs="+", default=None)
    p.add_argument("--b-policy", choices=("all", "fixed", "canonical"), default=None)
    p.add_argument("--fixed-b", type=int, default=None)
    p.add_argument("--config", default=None, help="flat key = value settings file")
    p.add_argument("--output-csv", default=None)
    p.add_argument("--output-json", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "integrate", help="log integral, L_p norms, layer-cake comparison"
    )
    p.add_argument("path", help="function JSON file, or - for stdin")
    p.add_argument("--p", type=int, action="append", help="norm exponent, repeatable")
    p.add_argument(
        "--layer-cake",
        action="store_true",
        help="also compare against the sublevel-profile form (circle only)",
    )
    p.add_argument(
        "--sublevel-csv",
        default=None,
        help="write alpha vs measure plot data here (circle only)",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("experiment", help="limit experiments: riemann, stirling")
    p.add_argument("kind", choices=("riemann", "stirling"))
    p.add_argument("--q", type=int, default=None, help="group order (riemann)")
    p.add_argument(
        "--h",
        default="identity",
        help="profile to discretize: identity, gmi:<b>, or file:<path>",
    )
    p.add_argument("--primes", type=int, nargs="+", default=None)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--output-csv", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("cutgen", help="evaluate a function on a tableau row")
    p.add_argument("--row", required=True, help="tableau row JSON file, or -")
    p.add_argument("--function", required=True, help="function JSON file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_cutgen)

    p = sub.add_parser(
        "decompose", help="split a nondecreasing minimal function along gom"
    )
    p.add_argument("path", help="finite function JSON file, or - for stdin")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    global _input_digits
    parser = _build_parser()
    args = parser.parse_args(argv)
    with _int_digits(0) as caller_digits:
        _input_digits = caller_digits
        try:
            return args.func(args)
        except ValidationFailure as exc:
            print(f"validation failure: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: bad JSON input: {exc}", file=sys.stderr)
            return 3
        except KeyError as exc:
            print(f"error: missing key: {exc}", file=sys.stderr)
            return 3
        except (GroupCutError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        finally:
            _input_digits = None


if __name__ == "__main__":
    sys.exit(main())
