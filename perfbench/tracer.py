"""Outside-in tracing of groupcut's public functions.

The tracer rebinds each listed function in every groupcut module namespace
that holds it (``experiments.minimize_volume``, ``polytope.is_minimal``, the
package re-exports, ...), so nothing under ``src/`` is edited.  Spans stay in
memory with a request id (the root span of the call tree) and a parent link;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

TARGETS = {
    "polytope": ("build_polytope", "enumerate_vertices", "minimize_volume", "gomory_decomposition"),
    "finite_functions": ("is_minimal", "rearrange_finite", "compose", "FiniteGroupFunction.from_values"),
    "group_core": ("is_prime",),
    "criteria": ("volume_product",),
    "rationals": ("ln_fraction",),
    "torus": (
        "is_minimal_pwl",
        "tilde_fn",
        "rearrange_torus",
        "sublevel_profile",
        "integral_ln",
        "layer_cake_check",
        "lp_power_torus",
    ),
    "experiments": ("optimize_and_report", "riemann_experiment"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns)

# exact work counts read from the wrapped functions' returns
WORK = {
    "polytope.build_polytope": ("rows", lambda p: len(p.box_rows) + len(p.other_rows)),
    "polytope.enumerate_vertices": ("vertices", len),
    "finite_functions.is_minimal": ("violations", lambda v: len(v.violations)),
    "torus.is_minimal_pwl": ("violations", lambda v: len(v.violations)),
}
WORK_NAMES = tuple(f"{fn}.{count}" for fn, (count, _f) in WORK.items()) + (
    "polytope.enumerate_vertices.useful_ratio",
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    raised: bool = False


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.summary()``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.work: dict[str, int] = {}
        self.enumerated_q: list[int] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = len(self.spans)
            span = Span(
                span_id,
                None if parent is None else parent.span_id,
                span_id if parent is None else parent.request,
                name,
                time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.work[key] = self.work.get(key, 0) + counter[1](result)
            if name == "polytope.enumerate_vertices":
                self.enumerated_q.append(result.q)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        namespaces = [m for n, m in sys.modules.items() if n == "groupcut" or n.startswith("groupcut.")]
        for module_name, fns in TARGETS.items():
            module = importlib.import_module(f"groupcut.{module_name}")
            for fn_name in fns:
                name = f"{module_name}.{fn_name}"
                if "." in fn_name:  # a classmethod: rebind it on its class
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._rebind(cls, attr, original, classmethod(self._wrap(name, original.__func__)))
                    continue
                original = getattr(module, fn_name)
                traced = self._wrap(name, original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._rebind(namespace, key, original, traced)
        return self

    def _rebind(self, owner, key: str, original, replacement) -> None:
        setattr(owner, key, replacement)
        self._restore.append((owner, key, original))

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, self_s and raised per function, over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table = {name: {"calls": 0, "self_s": 0.0, "raised": 0} for name in FUNCTIONS}
        for span in self.spans:
            row = table[span.name]
            row["calls"] += 1
            row["self_s"] += span.end - span.start - child_time[span.span_id]
            row["raised"] += span.raised
        return table

    def counts(self) -> dict[str, float]:
        """The work counts, plus distinct enumerated orders per enumeration call."""
        out = {name: 0 for name in WORK_NAMES}
        out.update(self.work)
        calls = len(self.enumerated_q)
        out["polytope.enumerate_vertices.useful_ratio"] = len(set(self.enumerated_q)) / calls if calls else 0.0
        return out
