"""groupcut benchmark: one command, four workloads, every answer checked.

Run from the repository root (stdlib only, Python 3.10+):

    python3 perfbench/run.py --workload enum --seed 1 --seconds 25 --trace 0

Workloads: enum, certify, circle, cli (see workloads.py).  The run sets up
the seeded inputs, then repeats the workload's fixed batch in one process
(a closed loop, no threads) and starts another batch only while it still
fits in --seconds; there is always at least one batch.  Every call starts
from a collected heap and runs with the cyclic garbage collector off, as
timeit does, so that where a collection happens to fall does not move a
call's time.

--trace 0 reports the end-to-end metrics, measured with tracing off:
solve_s, largest_case_s, call_p50_ms, call_p90_ms, setup_s, peak_rss_mib.
Their times are in reference seconds (see Clock): a shared host's speed
changes by up to 1.7x every few seconds, so each wall time is rescaled by
the speed of a fixed stdlib-only kernel timed in bursts between calls.  The
wall times are printed beside them and kept in the result file.
--trace 1 alternates plain and traced batches and reports per-layer calls,
self time, exceptions and work counts, the CLI import time and the tracing
overhead.  Both print a readable report followed, as the last line, by
{"correct", "attempted", "failed", "metrics"}, and write the same data,
stamped with seed, Python, nproc, platform and git commit, to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 9  # fresh interpreters timed per run; setup_s is their median
IMPORT_SAMPLES = 5
K_NOMINAL = 0.006  # s: the reference kernel's time at the reference speed
CAL_EVERY = 0.5  # s of wall time at most between two calibration bursts
CAL_SAMPLES = 9  # kernel calls per burst; the burst keeps their median
CAL_WINDOW = 5.0  # s: a call is scaled by the bursts that end this close to it
# When the host's speed changes, the program's calls follow only part of the
# change the kernel sees: on a 2-vCPU Xeon VM, when the kernel slowed 1.55-1.70x
# the calls slowed 1.22-1.35x (double description) and 1.43-1.54x (finite
# scans, circle functions), i.e. by the kernel's factor to a power of about 2/3.
SPEED_EXPONENT = 2 / 3


def percentile(values: list[float], p: float) -> float:
    """Percentile interpolated between the two nearest ranks."""
    ordered = sorted(values)
    position = p * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


@contextlib.contextmanager
def collected_heap():
    """Collect, then keep the cyclic collector off for the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def reference_kernel() -> int:
    """Fixed exact-arithmetic work of the kind the program does: a
    subadditivity scan of a Fraction vector on Z/61Z, stdlib only."""
    q = 61
    values = [Fraction(x, q - 1) for x in range(q)]
    below = 0
    for x in range(q):
        vx = values[x]
        for y in range(x, q):
            if vx + values[y] < values[(x + y) % q]:
                below += 1
    return below


class Clock:
    """Wall time rescaled to a fixed reference speed.

    A burst of reference_kernel calls is timed whenever CAL_EVERY seconds
    have passed since the last one, between calls and never inside one.  A
    call's reference time is its wall time times (K_NOMINAL / k) **
    SPEED_EXPONENT, where k is the median kernel time of the bursts that end
    within CAL_WINDOW seconds of it, so a change of the host's speed that
    lasts longer than a call mostly cancels out, while a hiccup that slows
    one short burst does not move the scale.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter at the end of each burst
        self.kernel_s: list[float] = []  # median kernel time of each burst

    def due(self) -> bool:
        return not self.ends or time.perf_counter() - self.ends[-1] > CAL_EVERY

    def calibrate(self) -> None:
        samples = []
        with collected_heap():
            for _ in range(CAL_SAMPLES):
                started = time.perf_counter()
                reference_kernel()
                samples.append(time.perf_counter() - started)
        self.ends.append(time.perf_counter())
        self.kernel_s.append(statistics.median(samples))

    def scale(self, start: float, end: float) -> float:
        """Reference seconds of the span from start to end; needs a burst near it."""
        low = bisect.bisect_left(self.ends, start - CAL_WINDOW)
        high = bisect.bisect_right(self.ends, end + CAL_WINDOW)
        kernel = statistics.median(self.kernel_s[low:high])
        return (end - start) * (K_NOMINAL / kernel) ** SPEED_EXPONENT


def run_batch(ops, failures: list[str], clock: Clock | None = None) -> list[tuple[object, float, float]]:
    """Call every op once; checks run outside the timed region.  Returns
    (op, wall seconds, reference seconds) per call; without a clock the
    two times are the same."""
    spans = []
    for op in ops:
        if clock is not None and clock.due():
            clock.calibrate()
        with collected_heap():
            started = time.perf_counter()
            try:
                out, error = op.call(), None
            except Exception as exc:  # a failed operation is counted, the run goes on
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            ended = time.perf_counter()
        spans.append((op, started, ended))
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(f"{op.name}: {error}")
    if clock is not None:
        clock.calibrate()
    return [(op, e - s, clock.scale(s, e) if clock else e - s) for op, s, e in spans]


def repeat(seconds: float, step) -> None:
    """Call step() until another call would overrun the budget (at least once)."""
    started, walls = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return


def setup_seconds(workload: str, seed: int, clock: Clock) -> tuple[list[float], list[float]]:
    """Set-up time in fresh interpreters, one at a time, in wall and in
    reference seconds (a calibration burst before and after every sample)."""
    wall, ref = [], []
    for _ in range(SETUP_SAMPLES):
        clock.calibrate()
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        ended = time.perf_counter()
        clock.calibrate()
        elapsed = json.loads(done.stdout.splitlines()[-1])["setup_s"]
        wall.append(elapsed)
        ref.append(elapsed * clock.scale(started, ended) / (ended - started))
    return wall, ref


def import_seconds() -> float:
    """Time to import groupcut.cli in a fresh interpreter, minus a bare start."""
    import workloads

    env, bare, full = workloads.python_env(SRC), [], []
    for _ in range(IMPORT_SAMPLES):
        for code, into in (("pass", bare), ("import groupcut.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            into.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def measure(workload, seconds: float, seed: int) -> tuple[dict, int, list[str], dict]:
    failures: list[str] = []
    clock = Clock()
    per_op: list[list[float]] = [[] for _ in workload.ops]  # reference seconds
    wall_per_op: list[list[float]] = [[] for _ in workload.ops]
    largest, wall_largest = [], []

    def step() -> None:
        for i, (op, wall, ref) in enumerate(run_batch(workload.ops, failures, clock)):
            per_op[i].append(ref)
            wall_per_op[i].append(wall)
            if op.largest:
                largest.append(ref)
                wall_largest.append(wall)

    repeat(seconds, step)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    known_defects = {}
    for probe in workload.probes:
        found: list[str] = []
        run_batch([probe], found)
        known_defects[probe.name] = found[0].split(": ", 1)[1] if found else "passes"
    wall_setups, setups = setup_seconds(workload.name, seed, clock)
    # each call's median over the run's repetitions; the batch is their sum
    typical = [statistics.median(v) for v in per_op]
    wall_typical = [statistics.median(v) for v in wall_per_op]
    metrics = {
        "solve_s": (sum(typical), "s"),
        "largest_case_s": (statistics.median(largest), "s"),
        "call_p50_ms": (1000 * percentile(typical, 0.5), "ms"),
        "call_p90_ms": (1000 * percentile(typical, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    attempted = sum(len(v) for v in per_op)
    notes = {
        "batches": len(per_op[0]),
        "calls": len(per_op),
        "wall": {
            "solve_s": sum(wall_typical),
            "largest_case_s": statistics.median(wall_largest),
            "call_p50_ms": 1000 * percentile(wall_typical, 0.5),
            "call_p90_ms": 1000 * percentile(wall_typical, 0.9),
            "setup_s": statistics.median(wall_setups),
        },
        "kernel_ms": {
            "bursts": len(clock.kernel_s),
            "median": 1000 * statistics.median(clock.kernel_s),
            "min": 1000 * min(clock.kernel_s),
            "max": 1000 * max(clock.kernel_s),
        },
        "setup_samples": setups,
        "fail_ratio": len(failures) / attempted,
        "known_defects": known_defects,
    }
    return metrics, attempted, failures, notes


def measure_traced(workload, seconds: float) -> tuple[dict, int, list[str], dict]:
    import tracer

    failures: list[str] = []
    plain, traced = [], []
    attempted = stdout_bytes = 0
    recorder = tracer.Tracer()

    def step() -> None:
        nonlocal attempted, stdout_bytes
        untraced = run_batch(workload.ops, failures)
        plain.append(sum(wall for _op, wall, _ref in untraced))
        before = workload.stats["stdout_bytes"]
        with recorder:
            traced_batch = run_batch(workload.ops, failures)
        stdout_bytes += workload.stats["stdout_bytes"] - before
        traced.append(sum(wall for _op, wall, _ref in traced_batch))
        attempted += len(untraced) + len(traced_batch)

    repeat(seconds, step)
    n = len(traced)
    table = recorder.summary()
    traced_total = sum(traced)
    metrics = {}
    for name, row in table.items():
        metrics[f"{name}.calls"] = (row["calls"] / n, "count")
        metrics[f"{name}.raised"] = (row["raised"] / n, "count")
        metrics[f"{name}.self_pct"] = (100 * row["self_s"] / traced_total, "%")
    for name, value in recorder.counts().items():
        unit = "ratio" if name.endswith("useful_ratio") else "count"
        metrics[name] = (value if unit == "ratio" else value / n, unit)
    metrics["cli.stdout_bytes"] = (stdout_bytes / n, "bytes")
    metrics["cli.import_s"] = (import_seconds(), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    notes = {
        "batches": n,
        "plain_solve_s": plain,
        "traced_solve_s": traced,
        "per_function": {name: dict(row, self_s=row["self_s"] / n) for name, row in table.items()},
        "fail_ratio": len(failures) / attempted,
    }
    return metrics, attempted, failures, notes


def print_report(stamp: dict, workload, metrics: dict, notes: dict, failures: list[str]) -> None:
    print(" ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"inputs: {json.dumps(workload.sizes)} digest={workload.input_digest()[:16]}")
    print(f"batches: {notes['batches']}")
    for name, (value, unit) in metrics.items():
        if name.endswith((".calls", ".raised", ".self_pct")):
            continue
        extra = f"  (over {notes['calls']} calls)" if name.startswith("call_p") else ""
        wall = notes.get("wall", {}).get(name)
        extra += f"  (wall {wall:.6f})" if wall is not None else ""
        print(f"  {name:<44} {value:>14.6f} {unit}{extra}")
    if "per_function" in notes:
        print(f"  {'function':<44} {'calls':>8} {'self_s':>12} {'self_%':>8} {'raised':>6}")
        for name, row in notes["per_function"].items():
            pct = metrics[f"{name}.self_pct"][0]
            print(f"  {name:<44} {row['calls']:>8} {row['self_s']:>12.6f} {pct:>8.2f} {row['raised']:>6}")
    if "kernel_ms" in notes:
        k = notes["kernel_ms"]
        print(f"  reference kernel: {k['bursts']} bursts, median {k['median']:.3f} ms (range {k['min']:.3f}..{k['max']:.3f}), nominal {1000 * K_NOMINAL:.3f} ms")
    print(f"  {'fail_ratio':<44} {notes['fail_ratio']:>14.6f} ratio")
    for name, outcome in notes.get("known_defects", {}).items():
        print(f"  known defect {name}: {outcome}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")


def setup_only(args) -> int:
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    work_dir = os.path.join(BENCH_DIR, "work", f"setup-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workloads.build(args.workload, args.seed, work_dir).warmup()
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("enum", "certify", "circle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupcut", "__init__.py")):
        print(f"error: no groupcut sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    # Each CPU of a shared host changes speed on its own, so the calibration
    # bursts only describe calls that run on the same CPU: pin this process
    # and the interpreters it starts to one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_only:
        return setup_only(args)
    sys.path.insert(0, SRC)
    import workloads

    work_dir = os.path.join(BENCH_DIR, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, work_dir)
        workload.warmup()
        gc.collect()
        gc.freeze()  # the inputs and the benchmark's own objects are never scanned again
        if args.trace:
            metrics, attempted, failures, notes = measure_traced(workload, args.seconds)
        else:
            metrics, attempted, failures, notes = measure(workload, args.seconds, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }
    print_report(stamp, workload, metrics, notes, failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(
            dict(stamp, sizes=workload.sizes, input_digest=workload.input_digest(), notes=notes, failures=failures, **result),
            handle,
            indent=2,
            default=str,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
