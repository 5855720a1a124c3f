"""Every JSON-emitting subcommand's stdout against its own stdlib round trip,
and check's block writer against the payload it stands for, so that the CLI
prints exactly the bytes the stdlib encoder would.  The writer's block size is
patched down to 1, 2 and 7 violations as well, so that every block boundary
is crossed."""

import json
import random
import sys
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
from groupcut import cli, finite_functions, torus
from groupcut.cli import main

BLOCKS = [1, 2, 7, cli._BLOCK]


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


def expected_page(verdict, fmt) -> str:
    """json is json.dumps(payload, indent=2); text is one `key: value` line
    per payload entry, the list printed as Python shows it."""
    ref = check_reference(verdict)
    if fmt == "json":
        return json.dumps(ref, indent=2) + "\n"
    return "".join(f"{key}: {value}\n" for key, value in ref.items())


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", CHECKS)
def test_check_prints_its_reference_payload(capsys, monkeypatch, corpus, name, fmt, block):
    path, b = CHECKS[name]
    with open(corpus[path]) as handle:
        data = json.load(handle)
    if "values" in data:
        fn = FiniteGroupFunction.from_dict(data)
        if b is not None:
            fn = FiniteGroupFunction(fn.group, fn.group.element(b), fn.numerators, fn.denominator)
        verdict = is_minimal(fn)
    else:
        verdict = is_minimal_pwl(PwlTorusFunction.from_dict(data))
    flags = [] if b is None else ["--b", str(b)]
    monkeypatch.setattr(cli, "_BLOCK", block)
    code = main(["check", corpus[path], *flags, "--format", fmt])
    assert code == 0
    assert_same(capsys.readouterr().out, expected_page(verdict, fmt))


@pytest.mark.parametrize("b", ["0", "5", "-10"])
def test_check_at_a_zero_rhs_exits_3_with_no_stdout(capsys, corpus, b):
    code = main(["check", corpus["gom54.json"], "--b", b])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: right-hand side b must be nonzero\n"


def test_check_reads_the_chain_and_no_verdict(capsys, monkeypatch, corpus):
    # check writes each chain as it comes: neither whole verdict is built
    spied = {"is_minimal": finite_functions.is_minimal, "is_minimal_pwl": torus.is_minimal_pwl}
    calls = []

    def spy(name):
        def called(*args):
            calls.append(name)
            return spied[name](*args)

        return called

    modules = [m for n, m in sys.modules.items() if n == "groupcut" or n.startswith("groupcut.")]
    for module in modules:
        for name, original in spied.items():
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, spy(name))
    for argv in (
        ["dense.json"],
        ["dense.json", "--b", "7", "--format", "text"],
        ["gom54.json"],
        ["gmi_half.json"],
        ["circle_bad.json", "--format", "text"],
    ):
        assert main(["check", corpus[argv[0]], *argv[1:]]) == 0
    capsys.readouterr()
    assert calls == []
    # the spies are in place: the library's own calls reach them
    finite_functions.is_minimal(gom(5, 4))
    torus.is_minimal_pwl(gmi(F(1, 2)))
    assert calls == ["is_minimal", "is_minimal_pwl"]


def test_check_cases_cover_every_kind_and_an_empty_list(corpus):
    with open(corpus["circle_bad.json"]) as handle:
        found = is_minimal_pwl(PwlTorusFunction.from_dict(json.load(handle)))
    kinds = {v.kind for v in found.violations}
    assert kinds == {"negativity", "origin", "subadditivity", "symmetry"}
    assert any(w.denominator > 1 for v in found.violations for w in v.witness)
    with open(corpus["gom54.json"]) as handle:
        data = json.load(handle)
    assert not is_minimal(FiniteGroupFunction.from_dict(data)).violations


def random_runs(rng, count):
    """Runs (kind, prefix, lasts, amounts) of count violations in all that
    mix the four kinds, empty and one-entry prefixes, runs longer than the small
    blocks, int and Fraction entries, and equal kinds and amounts held in
    distinct objects as well as shared ones."""
    kinds = ["origin", "subadditivity", "symmetry", "negativity"]
    shared = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]

    def entry():
        if rng.random() < 0.5:
            return rng.randrange(-50, 50)
        return F(rng.randrange(-50, 50), rng.randint(1, 12))

    def amount():
        if rng.random() < 0.5:
            return rng.choice(shared)
        # equal to a shared amount, or not, but always a new object
        return F(rng.randint(1, 9), rng.randint(1, 9))

    runs, left = [], count
    while left > 0:
        kind = rng.choice(kinds)
        if rng.random() < 0.3:
            kind = "".join(kind)  # an equal kind in a distinct object
        length = min(left, rng.randint(1, 20))
        prefix = tuple(entry() for _ in range(rng.choice((0, 1))))
        runs.append(
            (kind, prefix, [entry() for _ in range(length)], [amount() for _ in range(length)])
        )
        left -= length
    return runs


def flattened(runs):
    """The verdict the runs stand for."""
    violations = tuple(
        Violation(kind, (*prefix, last), amount)
        for kind, prefix, lasts, amounts in runs
        for last, amount in zip(lasts, amounts)
    )
    return MinimalityVerdict(is_minimal=not violations, violations=violations)


def test_random_runs_hold_equal_fields_in_distinct_objects():
    runs = random_runs(random.Random(9100), 200)
    found = flattened(runs).violations
    assert len(found) == 200
    for values in ([v.kind for v in found], [v.amount for v in found]):
        # more objects than distinct values: some equal values are distinct objects
        assert len({id(x) for x in values}) > len(set(values))
    assert {len(prefix) for _kind, prefix, _lasts, _amounts in runs} == {0, 1}
    assert max(len(lasts) for _kind, _prefix, lasts, _amounts in runs) > max(BLOCKS[:-1])
    assert {type(w) for v in found for w in v.witness} == {int, F}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("seed", range(40))
def test_render_matches_the_payload_on_random_verdicts(
    capsys, monkeypatch, corpus, seed, block
):
    """check's block writer against json.dumps and the `key: value` text
    form, on seeded run chains of no, one and many violations, through main:
    the finite run chain check reads is replaced by the seeded runs.  Every
    eighth seed adds a run longer than the full block."""
    rng = random.Random(9000 + seed)
    count = (0, 1, rng.randint(2, 60))[seed % 3]
    runs = random_runs(rng, count)
    if seed % 8 == 7:
        long = random_runs(rng, 1)[0]
        length = cli._BLOCK + rng.randint(1, 9)
        runs.insert(rng.randint(0, len(runs)), (*long[:2], long[2] * length, long[3] * length))
    verdict = flattened(runs)
    monkeypatch.setattr(cli, "_BLOCK", block)
    monkeypatch.setattr(cli, "_runs", lambda *args: iter(runs))
    for fmt in ("json", "text"):
        assert main(["check", corpus["gom54.json"], "--format", fmt]) == 0
        assert_same(capsys.readouterr().out, expected_page(verdict, fmt))


def test_check_builds_no_violation_on_a_finite_file(capsys, monkeypatch, corpus):
    # check writes the runs of the finite chain: the run expander, which
    # builds the Violations of a run, is never called
    pages = {}
    for fmt in ("json", "text"):
        assert main(["check", corpus["dense.json"], "--format", fmt]) == 0
        pages[fmt] = capsys.readouterr().out

    def refuse(run):
        raise AssertionError("a Violation was built")

    monkeypatch.setattr(finite_functions, "_expand", refuse)
    with pytest.raises(AssertionError, match="a Violation was built"):
        list(finite_functions._violations([0, 2, 1], 1, 1))
    for fmt in ("json", "text"):
        assert main(["check", corpus["dense.json"], "--format", fmt]) == 0
        assert_same(capsys.readouterr().out, pages[fmt])
