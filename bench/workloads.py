"""The three workloads: their operations, how to run one, and its answer check.

Each workload is a fixed population of operations drawn once from a fixed
seed; the benchmark seed sets the order in which one pass runs them (seed 0
keeps the population order).  Drawing a new population per seed was tried
and rejected: single operations are so heavy-tailed (a Busemann sample on
grid222 takes 30 ms to 1.6 s, a wedge oracle 1 s to 13 s for one shape) that
throughput then varied by 40-60% between seeds, which says nothing about the
program.  A run is a whole number of passes, so every run measures the same
work.  Operations reach the library through module attributes
(``solver.geodesic``, never a name imported from it), so that the tracer's
patched bindings are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from lpcube import analysis, cli, complexes, decomposition, fixtures, oracle, solver
from lpcube.complexes import CubeComplex, Point, cube_intersection

P_VALUES = (1.5, 2.0, 3.0)
LENGTH_TOL = 1e-9       # lengths, margins and sweep rows against the reference
RESIDUAL_TOL = 1e-8     # local-condition residuals; distance_formula vs geodesic
ORACLE_GAP = 0.05       # the oracle may exceed the solver length by at most this


@dataclass
class Inputs:
    """One pass of operations in seed order, plus data the checks need."""

    ops: list
    data: dict = field(default_factory=dict)


def run_order(seed: int, n: int) -> list[int]:
    """Population indices in the order a pass runs them."""
    if seed == 0:
        return list(range(n))
    return [int(i) for i in np.random.default_rng([0x0DE4, seed]).permutation(n)]


def _problem_vs_reference(values: list[float], expected: Optional[list[float]]) -> Optional[str]:
    if expected is None:
        return None
    if len(values) != len(expected):
        return f"{len(values)} values, reference has {len(expected)}"
    for got, want in zip(values, expected):
        if not abs(got - want) <= LENGTH_TOL:
            return f"value {got!r} differs from reference {want!r}"
    return None


# -- suite-grid222 ------------------------------------------------------------

# Per p, three midpoint samples to two Busemann samples: the 600:400 ratio of
# criterion 7.
SUITE_MIX = tuple((kind, p) for p in P_VALUES
                  for kind in ("midpoint", "midpoint", "midpoint", "busemann", "busemann"))
GEODESICS_PER_SAMPLE = {"midpoint": 4, "busemann": 13}


@dataclass(frozen=True)
class SuiteOp:
    index: int
    kind: str
    p: float
    sample_seed: int


class SuiteGrid222:
    """Criterion-7 style suite samples on a freshly built grid(2,2,2)."""

    name = "suite-grid222"
    mix_copies = 4

    def generate(self, seed: int, workdir: Path) -> Inputs:
        rng = np.random.default_rng(0x5717E)
        population = [(kind, p, int(rng.integers(1 << 31)))
                      for _ in range(self.mix_copies) for kind, p in SUITE_MIX]
        return Inputs([SuiteOp(i, *population[i]) for i in run_order(seed, len(population))])

    def fresh(self, inputs: Inputs) -> CubeComplex:
        return complexes.grid(2, 2, 2)

    def run(self, cx: CubeComplex, op: SuiteOp):
        if op.kind == "midpoint":
            report = analysis.midpoint_convexity_suite(cx, op.p, 1, op.sample_seed)
        else:
            report = analysis.busemann_suite(cx, op.p, 1, op.sample_seed)
        return report.violations, report.worst_margin

    def reference_values(self, op: SuiteOp, result) -> list[float]:
        return [result[1]]

    def check(self, inputs: Inputs, op: SuiteOp, result, expected) -> Optional[str]:
        violations, margin = result
        if violations:
            return f"{violations} violation(s), worst margin {margin!r}"
        return _problem_vs_reference([margin], expected)

    def expected_spans(self, op: SuiteOp) -> dict[str, int]:
        return {"analysis.driver": 1, "solver.geodesic": GEODESICS_PER_SAMPLE[op.kind]}

    def cleanup(self, inputs: Inputs) -> None:
        pass


# -- cli-requests -------------------------------------------------------------

# Requests of each verb per fixture in one copy of the mix.  The oracle is
# rarer because a grid222 oracle request costs about 20 solves on average, and
# wedge-certify measures it; decompose needs a fixture with vertex wedges.
CLI_VERBS = {"distance": 4, "geodesic": 4, "check": 4, "sweep-p": 4, "oracle": 1}
DECOMPOSE_FIXTURES = ("corner_complex", "grid222")
DECOMPOSE_COUNT = 4
CLI_ORACLE_EPS = 0.05
# The sweep stops at p = 5: at the commit this benchmark was written against,
# some solves raise for larger p (long_rectangle from p = 7 with NoConvergence;
# corner_complex and grid222 from p ~ 14.8 with ZeroDivisionError,
# OverflowError or UniquenessViolation).
SWEEP_GRID = "log:1.01:5:8"
SWEEP_POINTS = 8
VERTEX_SHARE = 1 / 3    # chance that an endpoint is a vertex literal


@dataclass(frozen=True)
class CliOp:
    index: int
    verb: str
    fixture: str
    argv: tuple[str, ...]
    x: Point
    y: Point
    p: Optional[float]


def _wedge_pairs(cx: CubeComplex) -> list[tuple]:
    """(C, C', v) for maximal cubes C, C' that meet exactly in the vertex v."""
    out = []
    for a, b in itertools.combinations(cx.maximal_cubes(), 2):
        face = cube_intersection(a, b)
        if face is not None and face.mask == 0:
            out.append((a, b, face.corner))
    return out


def _interior_point(cube, rng: np.random.Generator) -> Point:
    coords = {h: float(rng.uniform(0.02, 0.98))
              for h in range(cube.mask.bit_length()) if cube.mask >> h & 1}
    return Point.make(cube.corner, coords)


def _endpoint(cx: CubeComplex, rng: np.random.Generator) -> Point:
    if rng.random() < VERTEX_SHARE:
        return Point.make(cx.vertex_order[int(rng.integers(len(cx.vertex_order)))])
    cubes = cx.maximal_cubes()
    return _interior_point(cubes[int(rng.integers(len(cubes)))], rng)


def _point_literal(cx: CubeComplex, pt: Point) -> str:
    coords = ",".join(f"{cx.hyperplanes[h]}={t!r}" for h, t in pt.coords)
    return f"{cx.vertex_index[pt.base]}:{coords}"


class CliRequests:
    """In-process ``lpcube.cli.main`` requests on the bundled fixture files."""

    name = "cli-requests"
    mix_copies = 4

    @staticmethod
    def mix() -> list[tuple[str, str]]:
        mix = [(f, verb) for f in fixtures.NAMES
               for verb, count in CLI_VERBS.items() for _ in range(count)]
        return mix + [(f, "decompose") for f in DECOMPOSE_FIXTURES for _ in range(DECOMPOSE_COUNT)]

    def generate(self, seed: int, workdir: Path) -> Inputs:
        workdir.mkdir(parents=True, exist_ok=True)
        paths, cxs = {}, {}
        for name in fixtures.NAMES:
            text = fixtures.fixture_text(name)
            path = workdir / f"{name}.json"
            path.write_text(text)
            paths[name] = str(path)
            cxs[name] = complexes.load(text)
        rng = np.random.default_rng(0xC11)
        population = [self._request(i, verb, fixture, cxs[fixture], paths[fixture], rng)
                      for i, (fixture, verb) in enumerate(self.mix() * self.mix_copies)]
        return Inputs([population[i] for i in run_order(seed, len(population))],
                      {"complexes": cxs, "workdir": workdir})

    @staticmethod
    def _request(index: int, verb: str, fixture: str, cx: CubeComplex, path: str,
                 rng: np.random.Generator) -> CliOp:
        extra: list[str] = []
        if verb == "decompose":
            pairs = _wedge_pairs(cx)
            c, c2, v = pairs[int(rng.integers(len(pairs)))]
            x, y = _interior_point(c, rng), _interior_point(c2, rng)
            extra = ["--vertex", str(cx.vertex_index[v])]
        else:
            x = _endpoint(cx, rng)
            y = _endpoint(cx, rng)
            while y == x:
                y = _endpoint(cx, rng)
        p = None
        if verb == "sweep-p":
            extra = ["--grid", SWEEP_GRID, "--functional", "length"]
        else:
            p = P_VALUES[int(rng.integers(len(P_VALUES)))]
            extra += ["--p", repr(p)]
        if verb == "oracle":
            extra += ["--eps", repr(CLI_ORACLE_EPS)]
        argv = (verb, path, "--json", "--from", _point_literal(cx, x),
                "--to", _point_literal(cx, y), *extra)
        return CliOp(index, verb, fixture, argv, x, y, p)

    def fresh(self, inputs: Inputs) -> None:
        return None

    def run(self, state, op: CliOp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as e:     # argparse rejected the request
                code = e.code
        return code, out.getvalue()

    @staticmethod
    def _values(op: CliOp, obj: dict) -> list[float]:
        if op.verb == "distance":
            return [obj["distance"]]
        if op.verb in ("geodesic", "check"):
            return [obj["length"]]
        if op.verb == "oracle":
            return [obj["solver"]]
        if op.verb == "decompose":
            return [obj["distance_formula"]]
        return [row[1] for row in obj["rows"]]

    def reference_values(self, op: CliOp, result) -> list[float]:
        return self._values(op, json.loads(result[1]))

    def check(self, inputs: Inputs, op: CliOp, result, expected) -> Optional[str]:
        code, text = result
        if code != 0:
            return f"exit code {code}: {text[:200]!r}"
        try:
            obj = json.loads(text)
            values = self._values(op, obj)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return f"unreadable output ({e!r}): {text[:200]!r}"
        problem = self._check_answer(inputs.data["complexes"][op.fixture], op, obj, values)
        return problem or _problem_vs_reference(values, expected)

    @staticmethod
    def _check_answer(cx: CubeComplex, op: CliOp, obj: dict, values: list[float]) -> Optional[str]:
        if op.verb == "sweep-p":
            if len(values) != SWEEP_POINTS:
                return f"sweep has {len(values)} rows"
            # every path's lp length is non-increasing in p, so the distance is too
            if any(b > a + LENGTH_TOL for a, b in zip(values, values[1:])):
                return f"sweep lengths increase with p: {values}"
            return None
        if op.verb == "check":
            if not obj["ok"] or not obj["worst_residual"] <= RESIDUAL_TOL:
                return f"local conditions fail, worst residual {obj['worst_residual']!r}"
            return None
        if op.verb == "oracle":
            gap = obj["oracle"] - obj["solver"]
            if not -LENGTH_TOL <= gap <= ORACLE_GAP:
                return f"oracle {obj['oracle']!r} vs solver {obj['solver']!r}"
            return None
        if op.verb == "geodesic":
            breaks = tuple(complexes.point_from_obj(cx, b) for b in obj["breaks"])
            path = solver.PiecewisePath(cx, op.p, breaks)
        else:
            path = solver.geodesic(cx, op.x, op.y, op.p)
        if path.breaks[0] != op.x or path.breaks[-1] != op.y:
            return "path endpoints differ from the request"
        report = solver.check_local_geodesic(cx, path, RESIDUAL_TOL)
        if not report.all_ok:
            return f"returned path fails the local conditions ({report.worst_residual!r})"
        tol = RESIDUAL_TOL if op.verb == "decompose" else LENGTH_TOL
        if not abs(values[0] - path.length) <= tol:
            return f"{values[0]!r} differs from the certified length {path.length!r}"
        return None

    def expected_spans(self, op: CliOp) -> dict[str, int]:
        return {"cli.main": 1,
                "solver.geodesic": SWEEP_POINTS if op.verb == "sweep-p" else 1}

    def cleanup(self, inputs: Inputs) -> None:
        shutil.rmtree(inputs.data["workdir"], ignore_errors=True)


# -- wedge-certify ------------------------------------------------------------

WEDGE_COUNT = 100
WEDGE_ORACLE_EPS = 0.02


@dataclass(frozen=True)
class WedgeOp:
    index: int          # the instance number
    labels: tuple[str, ...]
    vertices: frozenset
    x: Point
    v: int
    y: Point
    p: float


def wedge_instance(index: int) -> WedgeOp:
    """Seeded staircase wedge: the same draws as the test suite's
    ``build_wedge_instance(index)``, with p cycling through P_VALUES."""
    rng = np.random.default_rng([555, index])
    dc = int(rng.integers(1, 4))
    dcp = int(rng.integers(1, 4))
    k = int(rng.integers(1, min(dc, dcp) + 1))
    labels = [f"a{i}" for i in range(dc)] + [f"b{i}" for i in range(dcp)]
    a_idx = list(range(dc))
    b_idx = list(range(dc, dc + dcp))
    rng.shuffle(a_idx)
    rng.shuffle(b_idx)

    def split(idx, parts):
        if parts == 1:
            return [list(idx)]
        cuts = sorted(rng.choice(np.arange(1, len(idx)), size=parts - 1, replace=False))
        out, prev = [], 0
        for c in list(cuts) + [len(idx)]:
            out.append(list(idx[prev:c]))
            prev = c
        return out

    a_parts = split(a_idx, k)
    b_parts = split(b_idx, k)
    verts = set()
    for j in range(k + 1):
        m = 0
        for part in b_parts[:j] + a_parts[j:]:
            for h in part:
                m |= 1 << h
        sub = m
        while True:
            verts.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    x = Point.make(0, {h: float(rng.uniform(0.1, 0.95)) for h in range(dc)})
    y = Point.make(0, {h: float(rng.uniform(0.1, 0.95)) for h in range(dc, dc + dcp)})
    return WedgeOp(index, tuple(labels), frozenset(verts), x, 0, y,
                   P_VALUES[index % len(P_VALUES)])


class WedgeCertify:
    """The 100 staircase wedges of criteria 3, 4, 5 and 10, certified end to end."""

    name = "wedge-certify"

    def generate(self, seed: int, workdir: Path) -> Inputs:
        return Inputs([wedge_instance(i) for i in run_order(seed, WEDGE_COUNT)])

    def fresh(self, inputs: Inputs) -> dict[int, CubeComplex]:
        return {op.index: CubeComplex(op.labels, op.vertices, validate=True)
                for op in inputs.ops}

    def run(self, state: dict[int, CubeComplex], op: WedgeOp):
        cx = state[op.index]
        path = solver.geodesic(cx, op.x, op.y, op.p)
        report = solver.check_local_geodesic(cx, path, RESIDUAL_TOL)
        dec = decomposition.canonical_decomposition(cx, op.x, op.v, op.y, op.p)
        formula = decomposition.distance_formula(cx, op.x, op.v, op.y, dec, op.p)
        upper = oracle.oracle_distance(cx, op.x, op.y, op.p, WEDGE_ORACLE_EPS)
        return path.length, report.all_ok, report.worst_residual, formula, upper

    def reference_values(self, op: WedgeOp, result) -> list[float]:
        return [result[0]]

    def check(self, inputs: Inputs, op: WedgeOp, result, expected) -> Optional[str]:
        length, local_ok, residual, formula, upper = result
        if not local_ok or not residual <= RESIDUAL_TOL:
            return f"local conditions fail, worst residual {residual!r}"
        if not abs(formula - length) <= RESIDUAL_TOL:
            return f"distance_formula {formula!r} vs geodesic {length!r}"
        if not -LENGTH_TOL <= upper - length <= ORACLE_GAP:
            return f"oracle {upper!r} vs solver {length!r}"
        return _problem_vs_reference([length], expected)

    def expected_spans(self, op: WedgeOp) -> dict[str, int]:
        # the direct solve plus the one inside canonical_decomposition
        return {"solver.geodesic": 2}

    def cleanup(self, inputs: Inputs) -> None:
        pass


WORKLOADS: dict[str, Any] = {w.name: w for w in (SuiteGrid222(), CliRequests(), WedgeCertify())}
