"""Span tracing of lpcube's public functions, applied from outside the package.

``Tracer.install`` wraps each function in TARGETS and rebinds every name in
every loaded ``lpcube`` module that refers to the original, since several
modules import ``geodesic`` and friends by name.  Spans are kept in memory as
``[name, start, end, parent, op, count]`` lists and written out at the end.
A layer's self time is its span durations minus the parts covered by their
direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name).  Several functions may share a span
# name; optimize_breakpoints is named per call (coarse when max_sweeps is set).
TARGETS = (
    ("lpcube.complexes", "load", "complexes.load"),
    ("lpcube.complexes", "CubeComplex.hull_restriction", "complexes.hull"),
    ("lpcube.complexes", "CubeComplex.all_cubes", "complexes.cubes"),
    ("lpcube.complexes", "CubeComplex.maximal_cubes", "complexes.cubes"),
    ("lpcube.geometry", "distance_lower_bound", "geometry.lower_bound"),
    ("lpcube.solver", "geodesic", "solver.geodesic"),
    ("lpcube.solver", "enumerate_galleries", "solver.enumerate"),
    ("lpcube.solver", "optimize_breakpoints", "solver.full_opt"),
    ("lpcube.solver", "path_sup_distance", "solver.uniqueness"),
    ("lpcube.solver", "PiecewisePath.evaluate", "solver.evaluate"),
    ("lpcube.solver", "check_zero_tension", "solver.check"),
    ("lpcube.solver", "check_no_shortcut", "solver.check"),
    ("lpcube.solver", "check_local_geodesic", "solver.check"),
    ("lpcube.decomposition", "canonical_decomposition", "decomposition.canonical"),
    ("lpcube.decomposition", "distance_formula", "decomposition.formula"),
    ("lpcube.oracle", "build_net", "oracle.build_net"),
    # oracle_distance's self time is the shortest-path search over the net
    ("lpcube.oracle", "oracle_distance", "oracle.dijkstra"),
    ("lpcube.analysis", "midpoint_convexity_suite", "analysis.driver"),
    ("lpcube.analysis", "busemann_suite", "analysis.driver"),
    ("lpcube.analysis", "uniform_convexity_suite", "analysis.driver"),
    ("lpcube.analysis", "uniform_smoothness_suite", "analysis.driver"),
    ("lpcube.analysis", "bolicity_b1_suite", "analysis.driver"),
    ("lpcube.analysis", "bolicity_b2_suite", "analysis.driver"),
    ("lpcube.analysis", "p_sweep", "analysis.driver"),
    ("lpcube.cli", "main", "cli.main"),
)
COARSE_OPT = "solver.coarse_opt"

NAME, START, END, PARENT, OP, COUNT = range(6)


def _count_of(span_name: str, result) -> int:
    """Work counted at the boundary: galleries enumerated, net nodes built."""
    if span_name == "solver.enumerate":
        return len(result)
    if span_name == "oracle.build_net":
        return result.n_nodes
    return 0


class TraceMismatch(RuntimeError):
    """The traced run saw other span counts than the workload guarantees."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple] = []      # (owner, name, original, wrapper)

    # -- patching -------------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        coarse = fn.__name__ == "optimize_breakpoints"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = COARSE_OPT if coarse and kwargs.get("max_sweeps") is not None else span_name
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[COUNT] = _count_of(name, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced name; the bindings are found on the first call."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._bindings):
            setattr(owner, name, original)

    def _find_bindings(self) -> list[tuple]:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "lpcube" or n.startswith("lpcube."))]
        bindings = []
        for module_name, path, span_name in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name)
            if outer:       # a method: rebinding it on its class reaches every caller
                bindings.append((owner, attr, original, wrapper))
                continue
            bindings += [(module, name, original, wrapper)
                         for module in modules for name, value in vars(module).items()
                         if value is original]
        return bindings

    # -- analysis -------------------------------------------------------------

    def counts_per_op(self, name: str) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[NAME] == name:
                out[span[OP]] += 1
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "op", "count"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time covered by direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        out[span[NAME]] += span[END] - span[START] - child[i]
    return dict(out)


def totals(spans: list[list]) -> tuple[dict[str, int], dict[str, int]]:
    """Per span name: number of spans, and the sum of their counts."""
    calls: dict[str, int] = defaultdict(int)
    counted: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span[NAME]] += 1
        counted[span[NAME]] += span[COUNT]
    return dict(calls), dict(counted)


def root_time(spans: list[list]) -> float:
    """Time inside top-level spans, which never overlap in one thread."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def full_opts_inside_geodesic(spans: list[list]) -> int:
    return sum(1 for s in spans
               if s[NAME] == "solver.full_opt" and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == "solver.geodesic")
