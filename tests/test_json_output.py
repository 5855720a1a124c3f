"""Every JSON-emitting subcommand's stdout against its own stdlib round trip,
and check's one-pass verdict renderer against the payload it stands for, so
that the CLI prints exactly the bytes the stdlib encoder would."""

import json
import random
from fractions import Fraction as F

import pytest

from groupcut import (
    FiniteGroupFunction,
    MinimalityVerdict,
    PwlTorusFunction,
    Violation,
    gmi,
    gom,
    is_minimal,
    is_minimal_pwl,
    md2,
)
from groupcut.cli import _render_check, main


def assert_same(out: str, expected: str) -> None:
    """out == expected, reporting the first difference only: pytest's own diff
    of megabytes of output would not finish."""
    if out != expected:
        pairs = enumerate(zip(out, expected))
        at = next((i for i, (a, b) in pairs if a != b), min(len(out), len(expected)))
        near = slice(max(0, at - 80), at + 80)
        pytest.fail(f"first difference at {at}: {out[near]!r} != {expected[near]!r}")


def dense_check_input(q=503, den=100):
    """A seeded value vector on Z/503Z over denominator 100 with thousands of
    subadditivity violations."""
    rng = random.Random(q)
    nums = [0] + [rng.randrange(1, den + 1) for _ in range(q - 1)]
    values = [str(F(n, den)) for n in nums]
    return {"q": q, "b": rng.randrange(1, q), "values": values}


@pytest.fixture
def corpus(tmp_path):
    files = {
        "dense.json": json.dumps(dense_check_input()),
        "gom54.json": gom(5, 4).to_json(),
        "gmi_half.json": gmi(F(1, 2)).to_json(),
        "md2.json": md2(5, 4).to_json(),
        # negativity, origin, subadditivity and symmetry, Fraction witnesses
        "circle_bad.json": PwlTorusFunction(
            (F(0), F(1, 3), F(2, 3)),
            ((F(1), F(1, 7)), (F(-3), F(1, 2)), (F(2), F(-1))),
            b=F(2, 5),
        ).to_json(),
        "zero_set.json": PwlTorusFunction(
            (F(0), F(1, 2)), ((F(0), F(0)), (F(0), F(1))), b=F(1, 2)
        ).to_json(),
        "row.json": json.dumps(
            {
                "rhs": "1/2",
                "columns": [
                    {"name": "s1", "frac": "1/4"},
                    {"name": "s2", "frac": "3/4"},
                ],
            }
        ),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in files}


CALLS = {
    "check dense q=503": ["check", "dense.json"],
    "check minimal": ["check", "gom54.json"],
    "check circle": ["check", "gmi_half.json"],
    "optimize json": ["optimize", "--primes", "5", "7", "--format", "json"],
    "rearrange finite": ["rearrange", "md2.json"],
    "rearrange circle": ["rearrange", "gmi_half.json"],
    "rearrange tilde": ["rearrange", "gmi_half.json", "--tilde"],
    "integrate finite": ["integrate", "gom54.json"],
    "integrate layer cake": [
        "integrate", "gmi_half.json", "--p", "1", "--p", "2", "--layer-cake"
    ],
    "integrate zero set": ["integrate", "zero_set.json", "--layer-cake"],
    "decompose": ["decompose", "md2.json"],
    "cutgen": ["cutgen", "--row", "row.json", "--function", "gmi_half.json"],
    "riemann": ["experiment", "riemann", "--q", "11", "--h", "gmi:1/3"],
    "stirling": ["experiment", "stirling", "--primes", "5", "11"],
}


@pytest.mark.parametrize("argv", CALLS.values(), ids=CALLS.keys())
def test_stdout_is_the_stdlib_round_trip(capsys, corpus, argv):
    code = main([corpus.get(arg, arg) for arg in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert_same(out, json.dumps(json.loads(out), indent=2) + "\n")


def test_dense_check_reports_many_violations(capsys, corpus):
    main(["check", corpus["dense.json"]])
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert len(violations) > 10_000


def check_reference(verdict) -> dict:
    """check's payload, built field by field from the verdict."""
    return {
        "is_minimal": verdict.is_minimal,
        "violations": [
            {
                "kind": v.kind,
                "witness": [str(w) for w in v.witness],
                "amount": str(v.amount),
            }
            for v in verdict.violations
        ],
    }


CHECKS = {
    "dense q=503": ("dense.json", None),
    "dense q=503 --b 7": ("dense.json", 7),
    "minimal": ("gom54.json", None),
    "minimal --b 2": ("gom54.json", 2),
    "minimal --b -1": ("gom54.json", -1),
    "circle minimal": ("gmi_half.json", None),
    "circle, every kind": ("circle_bad.json", None),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", CHECKS)
def test_check_prints_its_reference_payload(capsys, corpus, name, fmt):
    """json is json.dumps(payload, indent=2); text is one `key: value` line
    per payload entry, the list printed as Python shows it."""
    path, b = CHECKS[name]
    with open(corpus[path]) as handle:
        data = json.load(handle)
    if "values" in data:
        verdict = is_minimal(FiniteGroupFunction.from_dict(data), b=b)
    else:
        verdict = is_minimal_pwl(PwlTorusFunction.from_dict(data))
    ref = check_reference(verdict)
    flags = [] if b is None else ["--b", str(b)]
    code = main(["check", corpus[path], *flags, "--format", fmt])
    out = capsys.readouterr().out
    if fmt == "json":
        expected = json.dumps(ref, indent=2) + "\n"
    else:
        expected = "".join(f"{key}: {value}\n" for key, value in ref.items())
    assert code == 0
    assert_same(out, expected)


def test_check_cases_cover_every_kind_and_an_empty_list(corpus):
    with open(corpus["circle_bad.json"]) as handle:
        found = is_minimal_pwl(PwlTorusFunction.from_dict(json.load(handle)))
    kinds = {v.kind for v in found.violations}
    assert kinds == {"negativity", "origin", "subadditivity", "symmetry"}
    assert any(w.denominator > 1 for v in found.violations for w in v.witness)
    with open(corpus["gom54.json"]) as handle:
        data = json.load(handle)
    assert not is_minimal(FiniteGroupFunction.from_dict(data)).violations


def random_verdict(rng, count):
    """A verdict of count violations that mixes the four kinds, witnesses of
    one and two entries, int and Fraction entries, and equal kinds and amounts
    held in distinct objects as well as shared ones."""
    kinds = ["origin", "subadditivity", "symmetry", "negativity"]
    shared = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
    violations = []
    for _ in range(count):
        kind = rng.choice(kinds)
        if rng.random() < 0.3:
            kind = "".join(kind)  # an equal kind in a distinct object
        entries = [
            rng.randrange(-50, 50)
            if rng.random() < 0.5
            else F(rng.randrange(-50, 50), rng.randint(1, 12))
            for _ in range(rng.choice((1, 2)))
        ]
        if rng.random() < 0.5:
            amount = rng.choice(shared)
        else:  # equal to a shared amount, or not, but always a new object
            amount = F(rng.randint(1, 9), rng.randint(1, 9))
        violations.append(Violation(kind, tuple(entries), amount))
    return MinimalityVerdict(is_minimal=not violations, violations=tuple(violations))


def test_random_verdicts_hold_equal_fields_in_distinct_objects():
    found = random_verdict(random.Random(9100), 200).violations
    for values in ([v.kind for v in found], [v.amount for v in found]):
        # more objects than distinct values: some equal values are distinct objects
        assert len({id(x) for x in values}) > len(set(values))
    assert {len(v.witness) for v in found} == {1, 2}
    assert {type(w) for v in found for w in v.witness} == {int, F}


@pytest.mark.parametrize("seed", range(40))
def test_render_matches_the_payload_on_random_verdicts(seed):
    """check's one-join renderer against json.dumps and the `key: value` text
    form, on seeded verdicts of no, one and many violations."""
    rng = random.Random(9000 + seed)
    count = (0, 1, rng.randint(2, 60))[seed % 3]
    verdict = random_verdict(rng, count)
    ref = check_reference(verdict)
    assert_same(_render_check(verdict, "json"), json.dumps(ref, indent=2))
    text = "\n".join(f"{key}: {value}" for key, value in ref.items())
    assert_same(_render_check(verdict, "text"), text)
