"""Command line interface.

Subcommands: check (minimality verdicts), rearrange (finite or circle),
optimize (vertex enumeration + volume minimization over the orders given),
integrate (log integral, L_p norms, layer-cake comparison), experiment
(riemann, stirling), cutgen (tableau row to cutting plane), decompose.
Settings come from flags only, and results go to stdout only; the one file
written is integrate --sublevel-csv's plot data, which stdout does not carry.

Exit codes: 0 success, 2 a certified identity failed its check, 3 bad input
(usage errors included, and an order above a subcommand's cap), 141
(128 + SIGPIPE) the reader of stdout closed its end before the output was
written, with nothing on stderr.

JSON output is json.dumps(payload, indent=2).  The one payload not built as
a dict is check's verdict: _render_check writes the same bytes block by block
off the lazy chain of runs, in both formats, each run's head formatted once
and each violation only its last witness entry and amount, so check stays
cheap, in bounded memory, when it lists millions of violations.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import json
import math
import os
import sys
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii

from .criteria import score_function
from .errors import GroupCutError, ValidationFailure
from .experiments import (
    _B_POLICIES,
    ExperimentConfig,
    TableauRow,
    emit_cut,
    optimize_and_report,
    riemann_experiment,
    stirling_table,
)
from .finite_functions import FiniteGroupFunction, _runs, rearrange_finite
from .polytope import gomory_decomposition
from .rationals import as_fraction, check_exponent, strict_int
from .torus import (
    PwlTorusFunction,
    SublevelProfile,
    _assert_unit_values,
    _layer_cake,
    _profile,
    _sublevel_sweep,
    _violations as _circle_violations,
    gmi,
    identity_fn,
    integral_ln,
    lp_norm_torus,
    rearrange_torus,
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


@contextlib.contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, then restore the
    caller's state: a command makes many short-lived objects and few
    cycles, and collections it triggers only cost time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


_BLOCK = 4096  # violations per write: check holds one block, and its text, at a time


def _blocks(runs):
    """The chain `runs` cut into blocks of _BLOCK violations each, the last
    one shorter: a run that crosses the end of a block is split there, so
    each block's text has the same size however the rows fall (blocks of
    whole runs moved the cli benchmark's peak RSS by up to 2.5 MiB)."""
    block, room = [], _BLOCK
    for kind, prefix, lasts, amounts in runs:
        while len(lasts) >= room:
            block.append((kind, prefix, lasts[:room], amounts[:room]))
            yield block
            lasts, amounts = lasts[room:], amounts[room:]
            block, room = [], _BLOCK
        if lasts:
            block.append((kind, prefix, lasts, amounts))
            room -= len(lasts)
    if block:
        yield block


def _render_check(runs, fmt: str) -> None:
    """Write the verdict of the lazy run chain `runs` to stdout as _emit
    would print the payload {"is_minimal": ..., "violations": [{"kind": ...,
    "witness": [...], "amount": ...}, ...]} with each witness entry and amount
    as its str: exactly json.dumps(payload, indent=2) for json, the
    `key: value` lines for text.  A run (kind, prefix, lasts, amounts), never
    empty, stands for the violations (kind, prefix + (last,), amount).

    The first block is pulled before any byte is written: it decides the flag,
    and a chain that refuses its input (a circle function above the
    breakpoint cap) raises there.  Then the opening, one join per block of
    `_blocks` and the closing are written, with no payload built.  A run's
    head, its kind and prefix entries, is filled once; per violation only
    the str of its last entry and the tail of its amount are added, in C.
    Each distinct amount of a block fills its tail once, keyed by object
    identity, which the block's runs keep alive: a key by value would run
    Fraction.__hash__, in Python, per violation.  The str of an int or a
    Fraction holds only digits, '-' and '/', so the witness entries need no
    escaping: the template quotes them."""
    blocks = _blocks(runs)
    block = next(blocks, [])
    if fmt == "json":
        quote, flag = encode_basestring_ascii, json.dumps(not block)
        page = '{\n  "is_minimal": %s,\n  "violations": %s\n}\n'
        separator, listing = ",\n", "[\n%s\n  ]"
        head = separator + '    {\n      "kind": %s,\n      "witness": [\n        "'
        joint, tail = '",\n        "', '"\n      ],\n      "amount": %s\n    }'
    else:
        quote, flag = repr, not block
        page = "is_minimal: %s\nviolations: %s\n"
        separator, listing = ", ", "[%s]"
        head = separator + "{'kind': %s, 'witness': ['"
        joint, tail = "', '", "'], 'amount': %s}"
    # an empty listing leaves no %s in the page: the opening is all of it
    opening, _, closing = (page % (flag, listing if block else "[]")).partition("%s")

    write, skip = sys.stdout.write, len(separator)
    write(opening)
    while block:
        tails: dict[int, str] = {}
        parts = []
        for kind, prefix, lasts, amounts in block:
            ids = list(map(id, amounts))
            missing = set(ids).difference(tails)
            if missing:
                distinct = dict(zip(ids, amounts))
                tails.update((key, tail % quote(str(distinct[key]))) for key in missing)
            start = head % quote(kind) + "".join([str(entry) + joint for entry in prefix])
            parts += chain.from_iterable(
                zip(repeat(start), map(str, lasts), map(tails.__getitem__, ids))
            )
        write("".join(parts)[skip:])
        block, skip = next(blocks, []), 0
    write(closing)


def _circle_runs(fn: PwlTorusFunction):
    """The circle violation chain as runs: each stretch of violations of one
    kind whose witnesses agree but for their last entry is one run."""
    violations = _circle_violations(fn)
    for (kind, prefix), group in groupby(violations, lambda v: (v.kind, v.witness[:-1])):
        group = list(group)
        yield kind, prefix, [v.witness[-1] for v in group], [v.amount for v in group]


def _cmd_check(args) -> int:
    fn = _load(_function_from_dict, args.path)
    if isinstance(fn, FiniteGroupFunction):
        if args.b is not None:
            fn = FiniteGroupFunction(
                fn.group, fn.group.element(args.b), fn.numerators, fn.denominator
            )
        runs = _runs(fn.numerators, fn.denominator, fn.b_residue)
    elif args.b is not None:
        raise ValueError("--b applies to finite functions only")
    else:
        runs = _circle_runs(fn)
    _render_check(runs, args.format)
    return 0


def _cmd_rearrange(args) -> int:
    fn = _load(_function_from_dict, args.path)
    if isinstance(fn, FiniteGroupFunction):
        if args.tilde:
            raise ValueError("--tilde applies to circle functions only")
        out = rearrange_finite(fn)
    else:
        out = tilde_fn(fn) if args.tilde else rearrange_torus(fn)
    print(json.dumps(out.to_dict(), indent=2))
    return 0


def _cmd_optimize(args) -> int:
    report = optimize_and_report(
        ExperimentConfig(
            prime_list=tuple(args.primes),
            b_policy=args.b_policy,
            fixed_b=args.fixed_b,
        )
    )
    if args.format == "csv":
        report.write_csv(sys.stdout)
    else:
        print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 2


def _cmd_integrate(args) -> int:
    fn = _load(_function_from_dict, args.path)
    ps = tuple(args.p) if args.p else (1, 2, 3)
    for p in ps:  # every exponent is refused before any arithmetic
        check_exponent(p)
    if isinstance(fn, FiniteGroupFunction):
        if args.layer_cake or args.sublevel_csv:
            raise ValueError(
                "--layer-cake and --sublevel-csv apply to circle functions only"
            )
        payload = score_function(fn, ps=ps).to_dict()
    else:
        log_integral = integral_ln(fn)
        payload = {
            "integral_ln": _json_float(log_integral),
            "lp_norms": {str(p): _json_float(lp_norm_torus(fn, p)) for p in ps},
        }
        sweep = None  # one sweep serves the layer cake and the plot
        if args.layer_cake:
            _assert_unit_values(fn)
            sweep = _sublevel_sweep(fn)
            report = _layer_cake(log_integral, *sweep)
            payload["layer_cake"] = {
                "lhs": _json_float(report.lhs),
                "rhs": _json_float(report.rhs),
                "gap": _json_float(report.gap),
            }
        if args.sublevel_csv:
            profile = _profile(*(sweep or _sublevel_sweep(fn)))
            _write_sublevel_csv(profile, args.sublevel_csv)
            payload["sublevel_csv"] = args.sublevel_csv
    _emit(payload, args)
    return 0


def _json_float(value: float) -> float | str:
    """A finite float stays a JSON number; inf, -inf and nan, which JSON has
    no number for, become the strings "inf", "-inf" and "nan"."""
    return value if math.isfinite(value) else repr(value)


def _write_sublevel_csv(profile: SublevelProfile, path: str) -> None:
    """Plot data: level alpha against measure{pi <= alpha}, exact strings."""
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


def _cmd_riemann(args) -> int:
    result = riemann_experiment(_parse_h(args.h), args.q)
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


def _cmd_stirling(args) -> int:
    rows = [
        {
            "q": row.q,
            "ratio": str(row.ratio),
            "log_mean": row.log_mean,
            "gap_to_minus_one": row.gap_to_minus_one,
        }
        for row in stirling_table(args.primes)
    ]
    _emit({"rows": rows}, args)
    return 0


def _cmd_cutgen(args) -> int:
    row = _load(TableauRow.from_dict, args.row)
    fn = _load(_function_from_dict, args.function)
    cut = emit_cut(row, fn)
    if args.format == "text":
        print(str(cut))
    else:
        print(json.dumps(cut.to_dict(), indent=2))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at first use: a parse reads the
    tree without changing it, so every main call can share it."""
    parser = _Parser(
        prog="groupcut",
        description="Exact construction, certification, rearrangement and "
        "scoring of cut-generating functions on cyclic groups and the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify minimality of a function JSON")
    p.add_argument("path", help="function JSON file, or - for stdin")
    p.add_argument(
        "--b",
        type=strict_int,
        default=None,
        help="override the rhs residue (finite only)",
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
    p.set_defaults(func=_cmd_rearrange)

    p = sub.add_parser(
        "optimize", help="minimize the value product over all vertices per (q, b)"
    )
    p.add_argument("--primes", type=strict_int, nargs="+", required=True)
    p.add_argument("--b-policy", choices=_B_POLICIES, default="canonical")
    p.add_argument("--fixed-b", type=strict_int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "integrate", help="log integral, L_p norms, layer-cake comparison"
    )
    p.add_argument("path", help="function JSON file, or - for stdin")
    p.add_argument(
        "--p", type=strict_int, action="append", help="norm exponent, repeatable"
    )
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
    kinds = p.add_subparsers(dest="kind", required=True)
    # a kind's flags are spelled in full: stirling would read riemann's --h
    # as an abbreviation of --help
    k = kinds.add_parser(
        "riemann", help="sample a circle profile on Z/qZ", allow_abbrev=False
    )
    k.add_argument("--q", type=strict_int, required=True, help="group order")
    k.add_argument(
        "--h",
        default="identity",
        help="profile to discretize: identity (the default), gmi:<b>, "
        "or file:<path>",
    )
    k.add_argument("--format", choices=("json", "text"), default="json")
    k.set_defaults(func=_cmd_riemann)
    k = kinds.add_parser(
        "stirling", help="exact floor ratios over prime orders", allow_abbrev=False
    )
    k.add_argument("--primes", type=strict_int, nargs="+", required=True)
    k.add_argument("--format", choices=("json", "text"), default="json")
    k.set_defaults(func=_cmd_stirling)

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


def _silence_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at os.devnull: its
    reader has gone, and the interpreter's final flush must print nothing."""
    try:
        fd = sys.stdout.fileno()
    except ValueError:  # io.UnsupportedOperation, or a closed stdout
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    global _input_digits
    args = _build_parser().parse_args(argv)
    with _int_digits(0) as caller_digits, _collector_paused():
        _input_digits = caller_digits
        try:
            code = args.func(args)
            sys.stdout.flush()  # a reader that has gone shows here, not at exit
            return code
        except BrokenPipeError:
            _silence_stdout()
            return 141
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
