"""Sampled verification suites for the metric inequalities, p-sweeps, and the
two closed-form worked examples (rank-4 lattice minimizer, decagon angle).

Each suite is a sampler and a margin.  The sampler draws named points from an
rng (rejection sampling included); the margin evaluates the inequality's slack
on those points, negative when it fails.  One driver runs a suite: sample i
draws from the substream default_rng([seed, i]) regardless of evaluation
order, and the first strictly worst sample is serialized as the witness.
``replay_witness`` calls the same margin on the deserialized points, so a
replay reproduces the run's margin exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .complexes import CubeComplex, Point, bit_indices, point_from_ambient
from .complexes import point_from_obj, point_to_obj
from .errors import InsufficientDiameter, LpCubeError, PreconditionViolated
from .geometry import check_p, distance_lower_bound, lp_norm
from .solver import PiecewisePath, distance, geodesic
from .solver import bicombing as _bicombing

SUITE_TOL = 1e-8
MAX_REJECTS = 20_000
SAMPLE_INSET = 0.02     # sample_point keeps its coordinates this far from 0 and 1


@dataclass
class CheckReport:
    """Outcome of one sampled inequality suite."""

    suite: str
    samples: int
    violations: int
    worst_margin: float
    witness: Optional[dict]
    constants_used: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "samples": self.samples,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "constants_used": self.constants_used,
        }


def default_convexity_constant(p: float) -> float:
    """k = 1/2^p for p >= 2; a conservative documented default below 2."""
    return 0.5 ** p if p >= 2.0 else (p - 1.0) / 8.0


def default_smoothness_constant(p: float) -> float:
    if p < 2.0:
        raise PreconditionViolated("the smoothness constant (p-1)^2/4 requires p >= 2")
    return (p - 1.0) ** 2 / 4.0


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, index])


def sample_point(complex: CubeComplex, rng: np.random.Generator) -> Point:
    """Uniform point of a uniformly chosen maximal cube (interior, clamped)."""
    cubes = complex.maximal_cubes()
    ref = cubes[int(rng.integers(len(cubes)))]
    coords = {}
    for i in bit_indices(ref.mask):
        coords[i] = float(rng.uniform(SAMPLE_INSET, 1.0 - SAMPLE_INSET))
    return Point.make(ref.corner, coords)


def _check_constants(p: float, n_samples: int, *, r: float = None, R: float = None,
                     delta: float = None, k: float = None, C: float = None) -> None:
    """Reject a suite's arguments before any sampling or derived constant."""
    check_p(p, smooth=True)
    if n_samples < 1:
        raise PreconditionViolated(f"need at least one sample, got {n_samples}")
    if r is not None and not r > 0:
        raise PreconditionViolated(f"r must be positive, got {r}")
    if delta is not None and not delta > 0:
        raise PreconditionViolated(f"delta must be positive, got {delta}")
    if k is not None and not 0 < k < 1:
        raise PreconditionViolated(f"k must lie in (0, 1), got {k}")
    if C is not None and not C > 0:
        raise PreconditionViolated(f"C must be positive, got {C}")
    if R is not None and not R >= 2 * r:
        raise PreconditionViolated(f"R must be at least 2r = {2 * r}, got {R}")


def _drive(complex: CubeComplex, name: str, sample: Callable, margin: Callable,
           n_samples: int, c: dict, witness_keys: Sequence[str]) -> CheckReport:
    """Run one suite and keep the first strictly worst sample as the witness.

    ``c`` is the report's constants_used, with "tol" and "seed".
    ``sample(complex, rng, c)`` returns the named points and
    ``margin(complex, c, **points)`` their margin, or for Busemann a (margin,
    extra witness entries) pair.  The witness holds the suite name, the
    constants named by ``witness_keys``, the sample index and the points.
    """
    violations, worst, witness = 0, math.inf, None
    for i in range(n_samples):
        points = sample(complex, _rng(c["seed"], i), c)
        value = margin(complex, c, **points)
        value, extra = value if isinstance(value, tuple) else (value, {})
        if value < -c["tol"]:
            violations += 1
        if value < worst:
            worst = value
            witness = {"suite": name, **{key: c[key] for key in witness_keys}, "index": i,
                       **extra, **{key: point_to_obj(complex, pt) for key, pt in points.items()}}
    return CheckReport(name, n_samples, violations, worst if worst != math.inf else 0.0,
                       witness, c)


def _uniform_points(*names: str) -> Callable:
    """Sampler drawing each named point with sample_point, in order."""
    return lambda complex, rng, c: {key: sample_point(complex, rng) for key in names}


# -- convexity-style suites ----------------------------------------------------


def _midpoint_margin(complex: CubeComplex, c: dict, x: Point, y: Point,
                     y2: Point) -> float:
    p = c["p"]
    m1 = _bicombing(complex, x, y, 0.5, p)
    m2 = _bicombing(complex, x, y2, 0.5, p)
    return c["scale"] * (0.5 * distance(complex, y, y2, p) - distance(complex, m1, m2, p))


def midpoint_convexity_suite(complex: CubeComplex, p: float, n_samples: int,
                             seed: int, scale: float = 1.0) -> CheckReport:
    """d(mid(x,y), mid(x,y')) <= d(y,y')/2 on sampled triples."""
    _check_constants(p, n_samples)
    return _drive(complex, "midpoint", _uniform_points("x", "y", "y2"), _midpoint_margin,
                  n_samples, {"p": p, "tol": SUITE_TOL, "scale": scale, "seed": seed},
                  ("p", "scale"))


def _busemann_margin(complex: CubeComplex, c: dict, x: Point, y: Point, x2: Point,
                     y2: Point) -> tuple[float, dict]:
    """The worst margin over c["t_values"], with the t that attains it."""
    p = c["p"]
    s1 = geodesic(complex, x, y, p)
    s2 = geodesic(complex, x2, y2, p)
    dx = distance(complex, x, x2, p)
    dy = distance(complex, y, y2, p)
    worst, worst_t = math.inf, None
    for t in c["t_values"]:
        bound = (1 - t) * dx + t * dy
        m = c["scale"] * (bound - distance(complex, s1.evaluate(t), s2.evaluate(t), p))
        if m < worst:
            worst, worst_t = m, t
    return worst, {"t": worst_t}


def busemann_suite(complex: CubeComplex, p: float, n_samples: int, seed: int,
                   scale: float = 1.0) -> CheckReport:
    """d(s1(t), s2(t)) <= (1-t) d(x,x') + t d(y,y') on sampled quadruples,
    at t = 0.1, 0.2, ..., 0.9."""
    _check_constants(p, n_samples)
    return _drive(complex, "busemann", _uniform_points("x", "y", "x2", "y2"),
                  _busemann_margin, n_samples,
                  {"p": p, "tol": SUITE_TOL, "scale": scale, "seed": seed,
                   "t_values": [i / 10 for i in range(1, 10)]}, ("p", "scale"))


def _uniform_convexity_margin(complex: CubeComplex, c: dict, x: Point, y: Point,
                              z: Point) -> float:
    p, q = c["p"], c["q"]
    m = _bicombing(complex, y, z, 0.5, p)
    return c["scale"] ** q * (0.5 * distance(complex, x, y, p) ** q
                              + 0.5 * distance(complex, x, z, p) ** q
                              - c["k"] * distance(complex, y, z, p) ** q
                              - distance(complex, x, m, p) ** q)


def uniform_convexity_suite(complex: CubeComplex, p: float, k: Optional[float],
                            n_samples: int, seed: int, scale: float = 1.0) -> CheckReport:
    """d(x,m)^q <= d(x,y)^q/2 + d(x,z)^q/2 - k d(y,z)^q, m the y-z midpoint.

    The inequality exponent is q = max(p, 2): lp norms are power-type-p
    uniformly convex only for p >= 2 and power-type-2 below (no constant
    makes the p-power form true for p < 2, as the modulus is quadratic).
    """
    if k is None:
        k = default_convexity_constant(p)
    _check_constants(p, n_samples, k=k)
    return _drive(complex, "uniform_convexity", _uniform_points("x", "y", "z"),
                  _uniform_convexity_margin, n_samples,
                  {"p": p, "k": k, "q": max(p, 2.0), "tol": SUITE_TOL, "scale": scale,
                   "seed": seed}, ("p", "k", "q", "scale"))


# -- smoothness / bolicity suites ----------------------------------------------


def _diameter_lower_bound(complex: CubeComplex, p: float) -> float:
    """True distance between the most separated vertex pair (by crossing count)."""
    verts = sorted(complex.vertices)
    best_pair = None
    best_count = -1
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            crossings = bin(u ^ w).count("1")
            if crossings > best_count:
                best_count = crossings
                best_pair = (u, w)
    if best_pair is None:
        return 0.0
    return distance(complex, Point.make(best_pair[0]), Point.make(best_pair[1]), p)


def _nearby_point(complex: CubeComplex, rng: np.random.Generator, center: Point,
                  radius: float, p: float) -> Point:
    """A point within lp distance radius of center, inside one of its cubes."""
    cubes = [c for c in complex.maximal_cubes()
             if c.contains_cube(center.minimal_cube())]
    ref = cubes[int(rng.integers(len(cubes)))]
    n = len(complex.hyperplanes)
    vec = center.ambient(n).copy()
    free = bit_indices(ref.mask)
    delta = rng.uniform(-1.0, 1.0, size=len(free))
    nrm = lp_norm(delta, p)
    if nrm > 0:
        delta *= rng.uniform(0.0, radius * 0.99) / nrm
    for j, i in enumerate(free):
        vec[i] = min(max(vec[i] + delta[j], 0.0), 1.0)
    return point_from_ambient(vec, ref)


def _smoothness_sample(complex: CubeComplex, rng: np.random.Generator,
                       c: dict) -> dict:
    """A pair y, z at distance at least R and x within r of y."""
    p = c["p"]
    for _ in range(MAX_REJECTS):
        y = sample_point(complex, rng)
        z = sample_point(complex, rng)
        if distance_lower_bound(complex, y, z, p) >= c["R"]:
            return {"x": _nearby_point(complex, rng, y, c["r"], p), "y": y, "z": z}
    raise InsufficientDiameter("could not sample a pair at distance R")


def _smoothness_margin(complex: CubeComplex, c: dict, x: Point, y: Point,
                       z: Point) -> float:
    p = c["p"]
    allowance = c["C"] * c["r"] * c["r"] / c["R"]
    m = _bicombing(complex, y, z, 0.5, p)
    return (distance(complex, x, z, p) - 0.5 * distance(complex, y, z, p)
            + allowance - distance(complex, x, m, p))


def uniform_smoothness_suite(complex: CubeComplex, p: float, C: Optional[float],
                             r: float, R: float, n_samples: int, seed: int) -> CheckReport:
    """d(x, mid(y,z)) <= d(x,z) - d(y,z)/2 + C r^2 / R over stretched triples."""
    _check_constants(p, n_samples, r=r, R=R)
    if C is None:
        C = default_smoothness_constant(p)
    if _diameter_lower_bound(complex, p) < R:
        raise InsufficientDiameter(f"complex cannot realize d(y,z) >= {R}")
    return _drive(complex, "uniform_smoothness", _smoothness_sample, _smoothness_margin,
                  n_samples, {"p": p, "C": C, "r": r, "R": R, "tol": SUITE_TOL, "seed": seed},
                  ("p", "C", "r", "R"))


def b1_witness_radius(delta: float, r: float, C: float) -> float:
    """The four-point scale R = max(2 C r^2 / delta, 2r)."""
    return max(2.0 * C * r * r / delta, 2.0 * r)


def _b1_sample(complex: CubeComplex, rng: np.random.Generator, c: dict) -> dict:
    """a, b at distance at least R + 2r and a2, b2 within r of them, with every
    cross pair at distance at least R."""
    p, r, R = c["p"], c["r"], c["R"]
    for _ in range(MAX_REJECTS):
        a = sample_point(complex, rng)
        b = sample_point(complex, rng)
        if distance_lower_bound(complex, a, b, p) < R + 2 * r:
            continue
        a2 = _nearby_point(complex, rng, a, r, p)
        b2 = _nearby_point(complex, rng, b, r, p)
        if all(distance_lower_bound(complex, u, w, p) >= R
               for u, w in ((a, b), (a2, b2), (a, b2), (a2, b))):
            return {"a": a, "b": b, "a2": a2, "b2": b2}
    raise InsufficientDiameter("could not sample a B1 quadruple at scale R")


def _b1_margin(complex: CubeComplex, c: dict, a: Point, b: Point, a2: Point,
               b2: Point) -> float:
    p = c["p"]
    excess = (distance(complex, a, b, p) + distance(complex, a2, b2, p)
              - distance(complex, a, b2, p) - distance(complex, a2, b, p))
    return c["delta"] - excess


def bolicity_b1_suite(complex: CubeComplex, p: float, delta: float, r: float,
                      n_samples: int, seed: int, C: Optional[float] = None) -> CheckReport:
    """Four-point excess d(a,b)+d(a',b')-d(a,b')-d(a',b) <= delta at scale R."""
    _check_constants(p, n_samples, r=r, delta=delta)
    if C is None:
        C = default_smoothness_constant(p)
    R = b1_witness_radius(delta, r, C)
    if _diameter_lower_bound(complex, p) < R:
        raise InsufficientDiameter(f"complex cannot realize the scale R = {R}")
    return _drive(complex, "bolicity_b1", _b1_sample, _b1_margin, n_samples,
                  {"p": p, "delta": delta, "r": r, "R": R, "C": C, "tol": SUITE_TOL,
                   "seed": seed}, ("p", "delta", "r", "R"))


def b2_threshold(k: float, C: float, p: float) -> float:
    """Smallest admissible N with (1-k)^(1/p) < 1 - C/N, nudged up to be safe."""
    if not 0 < k < 1:
        raise ValueError("k must lie in (0, 1)")
    n_min = C / (1.0 - (1.0 - k) ** (1.0 / p))
    return float(math.floor(n_min) + 1)


def _b2_sample(complex: CubeComplex, rng: np.random.Generator, c: dict) -> dict:
    """y, z farther apart than N and x within N of both."""
    p, N = c["p"], c["N"]
    for _ in range(MAX_REJECTS):
        y = sample_point(complex, rng)
        z = sample_point(complex, rng)
        if distance_lower_bound(complex, y, z, p) <= N:
            continue
        x = sample_point(complex, rng)
        if distance_lower_bound(complex, x, y, p) > N or \
           distance_lower_bound(complex, x, z, p) > N:
            continue
        if distance(complex, x, y, p) <= N and distance(complex, x, z, p) <= N:
            return {"x": x, "y": y, "z": z}
    raise InsufficientDiameter("could not sample a B2 triple around N")


def _b2_margin(complex: CubeComplex, c: dict, x: Point, y: Point, z: Point) -> float:
    m = _bicombing(complex, y, z, 0.5, c["p"])
    return (c["N"] - c["C"]) - distance(complex, x, m, c["p"])


def bolicity_b2_suite(complex: CubeComplex, p: float, k: Optional[float],
                      C: float, n_samples: int, seed: int) -> CheckReport:
    """d(x, mid(y,z)) < N - C whenever d(x,y), d(x,z) <= N < d(y,z)."""
    if k is None:
        k = default_convexity_constant(p)
    _check_constants(p, n_samples, k=k, C=C)
    N = b2_threshold(k, C, max(p, 2.0))  # exponent of the convexity type in use
    if _diameter_lower_bound(complex, p) <= N:
        raise InsufficientDiameter(f"complex diameter does not exceed N = {N}")
    return _drive(complex, "bolicity_b2", _b2_sample, _b2_margin, n_samples,
                  {"p": p, "k": k, "C": C, "N": N, "tol": SUITE_TOL, "seed": seed},
                  ("p", "k", "C", "N"))


_MARGINS = {
    "midpoint": _midpoint_margin,
    "busemann": _busemann_margin,
    "uniform_convexity": _uniform_convexity_margin,
    "uniform_smoothness": _smoothness_margin,
    "bolicity_b1": _b1_margin,
    "bolicity_b2": _b2_margin,
}


def replay_witness(complex: CubeComplex, witness: dict) -> float:
    """Recompute a witness's margin from its serialization, with the suite's margin."""
    suite = witness["suite"]
    if suite not in _MARGINS:
        raise ValueError(f"unknown suite {suite!r}")
    c = dict(witness, t_values=[witness["t"]]) if suite == "busemann" else witness
    points = {key: point_from_obj(complex, obj) for key, obj in witness.items()
              if isinstance(obj, dict)}
    value = _MARGINS[suite](complex, c, **points)
    return value[0] if isinstance(value, tuple) else value


# -- p sweeps and limiting bicombings -------------------------------------------


@dataclass
class SweepTable:
    rows: list[tuple[float, float]]
    max_gap: float

    def to_obj(self) -> dict:
        return {"rows": self.rows, "max_adjacent_gap": self.max_gap}


def p_sweep(complex: CubeComplex, x: Point, y: Point,
            functional: Callable[[PiecewisePath], float],
            p_grid: Sequence[float]) -> SweepTable:
    """Evaluate a path functional along a sorted grid of exponents.

    The limiting paths at p = 1 and p = infinity are reached by running the
    grid toward 1.001-ish and 64-ish values rather than solving the endpoint
    metrics, whose geodesics are not unique.
    """
    grid = list(p_grid)
    if any(q2 <= q1 for q1, q2 in zip(grid, grid[1:])):
        raise ValueError("p grid must be strictly increasing")
    if grid and (grid[0] <= 1.0 or math.isinf(grid[-1])):
        raise ValueError("p grid must lie in (1, inf)")
    rows = []
    for q in grid:
        rows.append((q, float(functional(geodesic(complex, x, y, q)))))
    gap = 0.0
    for (_, v1), (_, v2) in zip(rows, rows[1:]):
        gap = max(gap, abs(v2 - v1))
    return SweepTable(rows, gap)


def break_coordinate_functional(complex: CubeComplex, label: Optional[str] = None) -> Callable:
    """Functional reading the first interior break's coordinate on a hyperplane;
    without a label, on the hyperplane of the edge that break lies on."""
    if label is not None and label not in complex.label_index:
        raise LpCubeError(f"unknown hyperplane {label!r}")
    idx = None if label is None else complex.label_index[label]

    def read(path: PiecewisePath) -> float:
        if len(path.breaks) < 3:
            raise LpCubeError("geodesic has no interior break point")
        b = path.breaks[1]
        if idx is not None:
            return dict(b.coords).get(idx, float(b.base >> idx & 1))
        if len(b.coords) != 1:
            raise LpCubeError(
                "first break is not on an edge; use break0:<label> to pick a hyperplane")
        return b.coords[0][1]

    return read


def geometric_grid(lo: float, hi: float, count: int) -> list[float]:
    if not 1.0 < lo < hi:
        raise ValueError("need 1 < lo < hi")
    if count < 2:
        raise ValueError("need at least two grid points")
    # geometric in (p - 1), so the grid accumulates toward the p -> 1 end
    a, b = lo - 1.0, hi - 1.0
    return [1.0 + a * (b / a) ** (i / (count - 1)) for i in range(count)]


# -- closed-form example checks --------------------------------------------------


def _golden_min(fn: Callable[[float], float], lo: float, hi: float,
                iters: int = 90) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def rank4_lattice_check(p: float) -> tuple[float, float, float, float]:
    """Numeric minimizer of the two-triangle detour length versus closed form.

    Minimizes ((1-x)^p + y^p + 2 x^p)^(1/p) + ((1-x)^p + (1-y)^p + 2 x^p)^(1/p)
    over the unit square by nested golden section; the exact minimizer is
    y = 1/2, x = (1 + 2^(1/(p-1)))^(-1).  Both target values lie strictly
    inside (0,1), so the bracketed search is exact.
    """
    p = check_p(p, smooth=True)

    def F(x: float, y: float) -> float:
        common = (1 - x) ** p + 2 * x ** p
        return ((common + y ** p) ** (1 / p)
                + (common + (1 - y) ** p) ** (1 / p))

    def inner(x: float) -> float:
        return _golden_min(lambda y: F(x, y), 0.0, 1.0)

    x_num = _golden_min(lambda x: F(x, inner(x)), 0.0, 1.0)
    y_num = inner(x_num)
    x_closed = 1.0 / (1.0 + 2.0 ** (1.0 / (p - 1.0)))
    residual = max(abs(x_num - x_closed), abs(y_num - 0.5))
    return x_num, y_num, x_closed, residual


def decagon_angle_check(n: int) -> tuple[float, float, bool]:
    """Apex angle arccos(n / sqrt(n (n+1))) against the 2 pi / 10 threshold."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    angle = math.acos(n / math.sqrt(n * (n + 1.0)))
    threshold = 2.0 * math.pi / 10.0
    return angle, threshold, angle < threshold
