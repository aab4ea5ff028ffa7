"""In-memory spans around the library's public functions, and the per-layer
metrics derived from them.

`instrument` rebinds each traced function, in every `signed_influence`
module that refers to it, to a wrapper that records a span.  Calls the
library makes between its own modules (pipeline -> sfg, centrality ->
dynamics, specfile -> graph, ...) are therefore recorded with their real
nesting, and nothing under `src/` has to know about tracing.  A function
that a later version of the library drops or renames loses its span and
its time shows up as its caller's self time or as `trace.unattributed_s`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from signed_influence.errors import ComplexityCapExceededError

# module -> public functions recorded as spans named "<module>.<function>"
TRACED = {
    "graph": ("build_network", "classify"),
    "dynamics": ("build_matrices", "classify_convergence", "sink_spectrum",
                 "steady_state", "simulate"),
    "sfg": ("build_full_sfg", "reduce_sfg", "mason_influence", "solve_gain",
            "individual_influence"),
    "centrality": ("absolute_centrality", "perturb_initial", "flip_edge_signs"),
    "specfile": ("load_spec", "build_report", "dump_report"),
    "pipeline": ("run_analysis",),
}
# every unit-eigenpair computation counts towards one layer, whoever asks for it
SPAN_NAME = {"dynamics.sink_spectrum": "dynamics.sink_spectra"}
# counts read off a traced call's return value
COUNTS = {
    "dynamics.simulate": lambda log: {"iters": log.iterations},
    "sfg.reduce_sfg": lambda g: {"branches": len(g.branches), "sources": len(g.sources)},
    "specfile.dump_report": lambda text: {"bytes": len(text.encode())},
}
ROOT_SPAN = "op"


def _span_name(module: str, name: str) -> str:
    full = f"{module}.{name}"
    return SPAN_NAME.get(full, full)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    status: str = "ok"  # "ok", "capped" (complexity cap) or "error"
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans of one single-threaded benchmark process, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, status: str) -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].status = status
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op = op_id
        idx = self._open(ROOT_SPAN)
        status = "error"
        try:
            yield
            status = "ok"
        finally:
            self._close(idx, status)

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            status = "error"
            try:
                result = fn(*args, **kwargs)
                status = "ok"
            except ComplexityCapExceededError:
                status = "capped"
                raise
            finally:
                self._close(idx, status)
            if count is not None:
                self.spans[idx].counts = count(result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "status": s.status, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every reference to a traced function through `tracer`."""
    wrappers = {}
    for module, names in TRACED.items():
        mod = importlib.import_module(f"signed_influence.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            if fn is not None:  # a later library version may have dropped it
                wrappers[id(fn)] = tracer.wrap(_span_name(module, name), fn)
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "signed_influence"
                               or mod_name.startswith("signed_influence.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Self time per span name and the derived per-layer figures, per op."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    mason_done = 0
    mason_wasted = 0.0
    root_wall = 0.0
    for idx, s in enumerate(spans):
        self_s[s.name] += (s.end - s.start) - child_time[idx]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
        if s.name == ROOT_SPAN:
            root_wall += s.end - s.start
        elif s.name == "sfg.mason_influence":
            if s.status == "ok":
                mason_done += 1
            elif s.status == "capped":
                mason_wasted += s.end - s.start
    mason_attempts = calls["sfg.mason_influence"]

    per_op = {
        f"{span}.self_s": self_s[span]
        for span in (_span_name(module, name) for module, names in TRACED.items() for name in names)
    }
    per_op.update({
        "graph.classify.calls": calls["graph.classify"],
        "dynamics.simulate.iters": counts["dynamics.simulate.iters"],
        "sfg.reduced_branches": counts["sfg.reduce_sfg.branches"],
        "sfg.sources": counts["sfg.reduce_sfg.sources"],
        "sfg.mason_influence.calls": mason_attempts,
        "sfg.mason_wasted_s": mason_wasted,
        "specfile.report_bytes": counts["specfile.dump_report.bytes"],
        "trace.unattributed_s": self_s[ROOT_SPAN],
    })
    metrics = {name: value / ops for name, value in per_op.items()}
    # ratios are per attempt, not per op; 0 attempts reads as 0 (see .calls)
    metrics["sfg.mason_completed_ratio"] = mason_done / mason_attempts if mason_attempts else 0.0
    metrics["trace.attributed_ratio"] = 1.0 - self_s[ROOT_SPAN] / root_wall if root_wall else 0.0
    return metrics
