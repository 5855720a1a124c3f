"""Tests of the benchmark itself: seeded inputs repeat, and wrong answers are
counted as failures.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import run

sys.path.insert(0, run.SRC)

import groupcut as gc  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def digest(name: str, seed: int, tmp_path) -> str:
    work_dir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    work_dir.mkdir()
    return workloads.build(name, seed, str(work_dir)).input_digest()


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.NAMES:
        assert digest(name, 11, tmp_path) == digest(name, 11, tmp_path)


def test_other_seed_other_inputs(tmp_path):
    for name in ("certify", "circle", "cli"):
        assert digest(name, 1, tmp_path) != digest(name, 2, tmp_path)


def canonical_report(q: int):
    return gc.optimize_and_report(gc.ExperimentConfig(prime_list=(q,)))


def test_enum_oracle_accepts_the_true_optimum():
    assert workloads.check_report(13, "canonical", canonical_report(13)) is None


def test_perturbed_argmin_raises_fail_ratio():
    report = canonical_report(13)
    row = report.rows[0]
    values = list(row.argmin.values)
    values[1], values[2] = values[2], values[1]  # same multiset, broken symmetry
    bad_row = dataclasses.replace(row, argmin=gc.FiniteGroupFunction.from_values(13, 12, values))
    bad = dataclasses.replace(report, rows=(bad_row,))
    ops = [
        workloads.Op("good", lambda: report, lambda out: workloads.check_report(13, "canonical", out)),
        workloads.Op("bad", lambda: bad, lambda out: workloads.check_report(13, "canonical", out)),
    ]
    failures: list[str] = []
    assert len(run.run_batch(ops, failures)) == 2
    assert len(failures) == 1 and failures[0].startswith("bad:")


def test_exception_counts_as_failure_and_run_goes_on():
    def boom():
        raise ValueError("no")

    ops = [workloads.Op("boom", boom, lambda out: None), workloads.Op("ok", lambda: 1, lambda out: None)]
    failures: list[str] = []
    assert len(run.run_batch(ops, failures)) == 2 and failures == ["boom: raised ValueError: no"]


def test_cli_check_counts_digest_exit_code_and_traceback():
    spec = workloads.CliCall(["stirling"], 0, digest=workloads.hashlib.sha256(b"out").hexdigest())
    stats = {"stdout_bytes": 0}
    assert workloads.check_cli(spec, (0, b"out", b""), {}, "a", stats) is None
    assert workloads.check_cli(spec, (0, b"changed", b""), {}, "a", stats) == "stdout digest changed"
    assert "exit code" in workloads.check_cli(spec, (3, b"out", b""), {}, "a", stats)
    assert workloads.check_cli(spec, (1, b"", b"Traceback (most recent"), {}, "a", stats) == "printed a traceback"
    seen: dict = {}
    free = workloads.CliCall(["x"], 0)
    assert workloads.check_cli(free, (0, b"one", b""), seen, "b", stats) is None
    assert workloads.check_cli(free, (0, b"two", b""), seen, "b", stats) == "stdout differs between identical calls"


def test_dense_reference_matches_check_output(tmp_path):
    nums = [0, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    fn = gc.FiniteGroupFunction.from_values(11, 4, [Fraction(n, 10) for n in nums])
    rc, out, _err = workloads.run_inprocess(["check", _dump(fn, tmp_path)])
    assert rc == 0
    expected = workloads.dense_violations(11, 4, nums, 10)
    assert expected and workloads.verify_check(lambda: expected, out.decode()) is None
    assert workloads.verify_check(lambda: expected[1:], out.decode()) is not None


def _dump(fn, tmp_path) -> str:
    path = tmp_path / "fn.json"
    path.write_text(fn.to_json())
    return str(path)


def test_tracer_rebinds_importers_and_restores():
    import groupcut.experiments as experiments
    import groupcut.polytope as polytope

    original = experiments.minimize_volume
    with tracer.Tracer() as recorder:
        assert experiments.minimize_volume is not original
        gc.optimize_and_report(gc.ExperimentConfig(prime_list=(7,)))
    assert experiments.minimize_volume is original and polytope.minimize_volume is original
    table = recorder.summary()
    assert table["experiments.optimize_and_report"]["calls"] == 1
    assert table["polytope.minimize_volume"]["calls"] == 1
    assert table["polytope.enumerate_vertices"]["calls"] == 1
    assert table["group_core.is_prime"]["calls"] >= 1
    root = recorder.spans[0]
    assert all(span.request == root.span_id for span in recorder.spans)
    assert abs(sum(row["self_s"] for row in table.values()) - (root.end - root.start)) < 1e-6
    counts = recorder.counts()
    assert counts["polytope.enumerate_vertices.vertices"] == 4
    assert counts["polytope.enumerate_vertices.useful_ratio"] == 1.0


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))
    assert run.percentile(values, 0.5) == 5.5 and abs(run.percentile(values, 0.9) - 9.1) < 1e-12
    assert run.percentile([3.0], 0.9) == 3.0


def test_clock_scales_by_the_bursts_near_a_call():
    clock = run.Clock()
    clock.ends = [0.0, 1.0, 2.0, 5.0, 20.0]
    clock.kernel_s = [2 * run.K_NOMINAL, 5 * run.K_NOMINAL, 2 * run.K_NOMINAL, run.K_NOMINAL, 9 * run.K_NOMINAL]
    # the bursts at 0..5 s are near the call and say the host ran at half
    # speed; their median ignores the hiccup at 1 s, the burst at 20 s is far
    assert abs(clock.scale(3.0, 4.0) - 0.5 ** run.SPEED_EXPONENT) < 1e-12
    timed = run.run_batch([workloads.Op("ok", lambda: 1, lambda out: None)], [], run.Clock())
    (_op, wall, ref), = timed
    assert wall > 0 and ref > 0
