"""Exact lp geodesics by gallery enumeration plus convex break-point optimization.

A gallery is a face-sharing sequence of maximal cubes of the median hull of the
endpoints, with every hyperplane's presence interval contiguous (a hyperplane
that has been dropped is never picked up again, so no hyperplane can be crossed
twice).  For a fixed gallery the break points live on the consecutive
intersection faces, and the total lp length is a convex function of them; the
geodesic is the minimum over galleries, which all agree when optimal because
the metric is uniquely geodesic for p in (1, inf).

Per gallery, one projected Newton method moves all break points at once.  Its
step solves the zero-tension equations, whose Jacobian is block-tridiagonal
(each segment couples the two breaks at its ends); where that step does not
shorten the path, a Levenberg-Marquardt step on the length Hessian is taken.
Both systems are assembled from per-segment blocks, only on the free break
coordinates that move, and solved by Gaussian elimination.  The whole solve
path, from the start chains to the certificate, runs on lists of floats and
measures with ``lp_norm``, the one norm: a chain has a few breaks of a few
coordinates, where numpy calls would cost more than the arithmetic.  The
coordinate rule of the chain solve: a segment is measured on its support, the
free axes of the faces at its two ends and the fixed axes on which its ends
differ.  Its displacement is an exact zero on every other axis, so every sum,
max and fsum over the support equals the one over all n axes, and the chain
solve shares ``lp_norm``'s arithmetic by calling its kernel directly, as does
the local check on the axes it reads.  A
gallery's layout (faces, face boxes and free axes) is derived once per
complex, as is the undominated part of each gallery list, and both are kept
in the complex's solver cache.
A coordinate on a side of its face box whose gradient points out is held
there; a backtracking search projects every step into the face boxes and
takes the first trial that shortens the path.  The length has a kink where
two consecutive breaks coincide: the ends of a segment shorter than SHORT of
the path are merged by dropping the cube between them, and the merge is kept
only if a subgradient test at the merged break shows that pulling them apart
cannot shorten the path; otherwise they are split along the descent direction
the test yields.

Every chain starts on the l1 crossing schedule (``_schedule``,
``_start_chain``).  On a product of trees that is the lp geodesic for every
p (see below); on other hulls it is only a start, which a chain solve takes
nudged off the sides of the faces (``_nudge``).  Before a
chain is solved from a known chain, that chain is tried as it is
(``_at_rest``): with its tension below the solve's stopping gate, it is
accepted as a solved path would be, and nothing is solved.

The product rule: on a product X_1 x ... x X_k, d_p is the lp norm of the
factor distances, and the geodesic runs each factor's geodesic at constant
speed (Bridson and Haefliger I.5.3 for p = 2; the proof carries over).  The
factors of a hull are the classes of its hyperplanes under "does not cross"
(Caprace and Sageev, Rank rigidity for CAT(0) cube complexes, GAFA 2011),
and a factor is a tree when no two of its hyperplanes cross
(``CubeComplex.factors()``).  A tree's geodesic is its l1 path, so when
every factor of the hull of x and y is a tree, the schedule is the lp
geodesic for every p, and geodesic() returns its path (``_tree_path``)
after ``check_local_geodesic`` passes it, with no gallery search.  Every
other hull is searched whole.

geodesic() searches the galleries for a certified path, in one fixed order:
by the length of their start chain, except that a gallery G comes after all
others when the list also holds G' = G with one cube E inserted between
consecutive cubes C, C' where E contains C n C': a break on C n C' lies on
C n E and on E n C', so every chain of G is a chain of G' of the same length,
and G' is never longer.  The first candidate's start chain is tried as it
is; if it does not certify, each gallery in the order is solved in full,
from the breaks of a few Newton steps on its start chain; that screen stops
at the first segment short enough to merge and leaves the merge to the full
solve.  A converged path that passes ``check_local_geodesic`` (zero tension
and no shortcut) is a local geodesic, hence by Busemann convexity the
geodesic, and ends the search.  A lone gallery is solved and its converged
path returned unchecked.  If no path certifies, ``_select`` takes the
shortest converged one, and tied galleries must agree.  The certified path
keeps its report, so the caller's own check of it is a lookup.  The complex
remembers the last answer, report included, so the same query again (as a
vertex-wedge decomposition makes after a caller's own solve) returns a new
path built from it.  The same x and y at another p (as a p-sweep asks) are
continued from it: the remembered breaks are tried at the new p as they
are, then the remembered gallery is solved at the new p from them, and the
first of these paths that the search would accept from that gallery
(converged, and certified unless the gallery is the only one) is returned;
otherwise the search runs as above.  So an answer can depend on the query
before it, within the solve's tolerances: both answers are certified (or
both the converged path of a lone gallery).  On a product of trees it does
not: every query returns the schedule's path.

The tolerances are fixed module constants, not options: a certified path is
the geodesic whatever the solve's stopping rule, so no caller has a reason to
set them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .complexes import (
    SNAP_TOL,
    CubeComplex,
    CubeRef,
    Point,
    bit_indices,
    cube_intersection,
    point_from_ambient,
    point_to_obj,
)
from .errors import (
    DisjointCubes,
    NoCommonCube,
    NoConvergence,
    ScaleExceeded,
    UniquenessViolation,
)
from .geometry import _lp_abs, check_p, distance_lower_bound, lp_norm

GALLERY_CAP = 100_000       # galleries enumerated per pair before ScaleExceeded
MERGE_TOL = 1e-12           # the split test's null-segment and box-side slack
LENGTH_TOL = 1e-9           # length tolerance
RESIDUAL_TOL = 1e-8         # local-condition residual tolerance
UNIQUENESS_SUP = 1e-6       # sup-distance under which tied optima must agree
SUP_SAMPLES = 33            # same-time samples per path_sup_distance


@dataclass(frozen=True)
class Gallery:
    """Face-sharing cube sequence from x's minimal cube to y's."""

    cubes: tuple[CubeRef, ...]

    def faces(self) -> tuple[CubeRef, ...]:
        return tuple(_faces(self.cubes))


def _faces(cubes: Sequence[CubeRef]) -> list[CubeRef]:
    """The intersections of consecutive cubes."""
    faces = [cube_intersection(a, b) for a, b in zip(cubes, cubes[1:])]
    if None in faces:
        raise DisjointCubes("consecutive gallery cubes do not intersect")
    return faces


@dataclass(frozen=True)
class PiecewisePath:
    """Piecewise affine constant-speed path; breaks[0] = x, breaks[-1] = y.

    Frozen, so what derives from the fields is computed once and kept on
    the path: the ambient breaks, the segment lengths, the length and the
    certificate ``check_local_geodesic`` gave.  None of these takes part in
    == or hash.
    """

    complex: CubeComplex
    p: float
    breaks: tuple[Point, ...]
    gallery: Optional[Gallery] = None
    converged: bool = True
    # the ambient breaks: derived on first use, or kept by ``_tree_path``
    _pts: Optional[list[list[float]]] = field(default=None, init=False, repr=False,
                                              compare=False)
    _nus: Optional[list[float]] = field(default=None, init=False, repr=False, compare=False)
    _length: Optional[float] = field(default=None, init=False, repr=False, compare=False)
    # (tol, report) of the last check_local_geodesic on the path's own complex
    _report: Optional[tuple[float, "ConditionReport"]] = field(
        default=None, init=False, repr=False, compare=False)

    def _keep(self, name: str, value):
        """Store a derived value on the frozen path; returns the value."""
        object.__setattr__(self, name, value)
        return value

    def _points(self) -> list[list[float]]:
        """The ambient breaks as lists of floats."""
        if self._pts is None:
            n = len(self.complex.hyperplanes)
            return self._keep("_pts", [_ambient(b, n) for b in self.breaks])
        return self._pts

    def _lengths(self) -> list[float]:
        if self._nus is None:
            return self._keep("_nus", _segments(self._points(), self.p)[0])
        return self._nus

    def ambient_breaks(self) -> np.ndarray:
        return np.array(self._points())

    def segment_lengths(self) -> np.ndarray:
        return np.array(self._lengths())

    @property
    def length(self) -> float:
        if self._length is None:
            # numpy's pairwise order, which replayed suite margins are pinned to
            return self._keep("_length", float(np.add.reduce(self._lengths())))
        return self._length

    def evaluate(self, t: float) -> Point:
        """Point at arclength t * length along the path."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        pts = self._points()
        segs = self._lengths()
        total = self.length
        if total == 0.0:
            return self.breaks[0]
        target = t * total
        acc = 0.0
        for i, s in enumerate(segs):
            if target <= acc + s or i == len(segs) - 1:
                lam = 0.0 if s == 0.0 else (target - acc) / s
                lam = min(max(lam, 0.0), 1.0)
                vec = [(1 - lam) * a + lam * b for a, b in zip(pts[i], pts[i + 1])]
                cube = self.complex.minimal_cube_pair(self.breaks[i], self.breaks[i + 1])
                return point_from_ambient(vec, cube)
            acc += s
        return self.breaks[-1]

    def to_obj(self) -> dict:
        return {"p": self.p, "length": self.length,
                "breaks": [point_to_obj(self.complex, b) for b in self.breaks]}


@dataclass(frozen=True)
class ConditionReport:
    """Result of the local-geodesic condition checks at the interior breaks."""

    zero_tension_ok: tuple[bool, ...] = ()
    no_shortcut_ok: tuple[bool, ...] = ()
    worst_residual: float = 0.0

    @property
    def all_ok(self) -> bool:
        return all(self.zero_tension_ok) and all(self.no_shortcut_ok)


# -- gallery enumeration ------------------------------------------------------


def enumerate_galleries(complex: CubeComplex, x: Point, y: Point) -> list[Gallery]:
    """All galleries between the minimal cubes of x and y, sorted.

    Walks the maximal cubes of the median hull, pruning any step that would
    re-enter a dropped hyperplane.  That rule alone keeps every walk simple:
    a step between maximal cubes drops one of the first cube's hyperplanes
    (if it dropped none, the first cube would lie inside the second), so no
    cube can come back.  Simple walks from distinct start cubes are
    distinct, so no gallery repeats.
    """
    mx, my = x.minimal_cube(), y.minimal_cube()
    key = ("galleries", mx, my)
    cached = complex._solver_cache.get(key)
    if cached is not None:     # kept once x and y passed check_point: no check again
        return cached
    complex.check_point(x)
    complex.check_point(y)
    maximal = sorted(complex._hull_of((x, y)).maximal_cubes())
    starts = [c for c in maximal if c.contains_cube(mx)]
    ends = {c for c in maximal if c.contains_cube(my)}
    inter: dict[CubeRef, list[CubeRef]] = {}
    for a in maximal:
        inter[a] = [b for b in maximal if b != a and cube_intersection(a, b) is not None]
    out: list[tuple[CubeRef, ...]] = []

    def extend(pathlist: list[CubeRef], dropped: int) -> None:
        cur = pathlist[-1]
        if cur in ends:
            out.append(tuple(pathlist))
            if len(out) > GALLERY_CAP:
                raise ScaleExceeded(f"more than {GALLERY_CAP} galleries")
            return
        for nxt in inter[cur]:
            if nxt.mask & dropped:
                continue
            pathlist.append(nxt)
            extend(pathlist, dropped | (cur.mask & ~nxt.mask))
            pathlist.pop()

    for s in starts:
        extend([s], 0)
    if not out:
        raise ScaleExceeded(
            f"no gallery found between {x} and {y}: starts={starts}, ends={sorted(ends)}")
    galleries = [Gallery(seq) for seq in sorted(out)]
    complex._solver_cache[key] = galleries
    return galleries


# -- per-gallery optimization -------------------------------------------------

# Breaks are heading into a coincidence when a segment between them gets
# shorter than SHORT of the path.
SHORT = 1e-2
NEWTON_CAP = 200    # Newton iterations per chain solve


def _face_boxes(faces: Sequence[CubeRef], n: int) -> tuple[list[list[float]], list[list[int]]]:
    """Per face: its side on each fixed axis (0 on the free ones), and its free axes."""
    return ([[(0.0, 1.0)[f.corner >> i & 1] for i in range(n)] for f in faces],
            [[i for i in range(n) if f.mask >> i & 1] for f in faces])


def _layout(complex: CubeComplex, cubes: tuple[CubeRef, ...]
            ) -> tuple[list[CubeRef], list[list[float]], list[list[int]]]:
    """The faces of a cube sequence and their boxes (``_face_boxes``).

    Derived once per complex and kept in its solver cache, next to the
    gallery lists; the entry holds CubeRefs and lists, never the complex.
    """
    key = ("layout", cubes)
    layout = complex._solver_cache.get(key)
    if layout is None:
        faces = _faces(cubes)
        layout = complex._solver_cache[key] = (
            faces, *_face_boxes(faces, len(complex.hyperplanes)))
    return layout


def _ambient(point: Point, n: int) -> list[float]:
    """``point.ambient(n)`` as a list of floats."""
    vec = [0.0] * n
    for i in bit_indices(point.base):
        vec[i] = 1.0
    for h, t in point.coords:
        vec[h] = float(t)
    return vec


def _segments(pts: Sequence[Sequence[float]], p: float) -> tuple[list[float], list[list[float]]]:
    """Lengths of the segments of a polyline given as lists of floats, and
    their displacements."""
    p = check_p(p)
    diffs = [[t - s for s, t in zip(a, b)] for a, b in zip(pts, pts[1:])]
    return [_lp_abs(list(map(abs, d)), p) for d in diffs], diffs


def _units(nus: list[float], diffs: list[list[float]]) -> list[list[float]]:
    """Each displacement over its length (zero on null segments)."""
    return [[t / nu for t in d] if nu > 0.0 else [0.0] * len(d) for nu, d in zip(nus, diffs)]


def _phi(unit: list[float], p: float) -> list[float]:
    """Gradient of the lp norm from displacement over length: s |u|^(p-1)."""
    return unit if p == 2.0 else [math.copysign(abs(t) ** (p - 1.0), t) for t in unit]


def _supports(chain: list[list[float]], axes: list[list[int]]) -> list[list[int]]:
    """Per segment of the chain, the axes it can move on: the free axes of
    the breaks at its ends (``axes``; the chain's ends have none) and the
    fixed axes on which its two ends differ.  On every other axis its
    displacement is an exact zero for as long as only free axes move."""
    k = len(axes)
    out = []
    for s, (a, b) in enumerate(zip(chain, chain[1:])):
        free = set(axes[s - 1] if s else ()).union(axes[s] if s < k else ())
        out.append(sorted(free.union([i for i, (t, u) in enumerate(zip(a, b)) if t != u])))
    return out


def _tension(jumps: list[list[tuple[int, int]]], unit: list[list[float]]) -> float:
    """Worst zero-tension residual of the breaks: per break j, the l2 norm of
    the jump of displacement over length across it, on its free axes, whose
    places in the supports of segments j and j+1 are the pairs ``jumps[j]``."""
    worst = 0.0
    for j, pairs in enumerate(jumps):
        before, after = unit[j], unit[j + 1]
        d = [before[a] - after[b] for a, b in pairs]
        worst = max(worst, math.sqrt(sum([t * t for t in d])))
    return worst


def _chain_system(ends: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]],
                  unit: list[list[float]], phi: list[list[float]], inv: list[float],
                  curv: Optional[list[list[float]]]) -> list[list[float]]:
    """Matrix over the moving break coordinates from the per-segment blocks
    (I - u g^T)/|d|_p, each row scaled by ``curv`` at its place if given.

    ``ends[s]`` lists the (row, place in segment s's support) of the moving
    coordinates at the start of segment s and at its end.  A segment's block
    is the derivative with respect to its end point; a break's diagonal block
    is the sum of its two segments' blocks (set by the segment that ends
    there, then added to by the one that starts there), and the breaks at the
    two ends of a segment couple through minus its block.
    """
    m = sum([len(end) for _, end in ends])
    out = [[0.0] * m for _ in range(m)]
    for s, (start, end) in enumerate(ends):
        u, g, w = unit[s], phi[s], inv[s]
        c = None if curv is None else curv[s]
        for r, a in end:
            row, ua, ca = out[r], u[a], 1.0 if c is None else c[a]
            for q, b in end:
                row[q] = ca * (((1.0 if a == b else 0.0) - ua * g[b]) * w)
            for q, b in start:
                row[q] = -(ca * (((1.0 if a == b else 0.0) - ua * g[b]) * w))
        for r, a in start:
            row, ua, ca = out[r], u[a], 1.0 if c is None else c[a]
            for q, b in start:
                row[q] += ca * (((1.0 if a == b else 0.0) - ua * g[b]) * w)
            for q, b in end:
                row[q] = -(ca * (((1.0 if a == b else 0.0) - ua * g[b]) * w))
    return out


def _eliminate(a: list[list[float]], b: list[float]) -> Optional[list[float]]:
    """Solution x of a x = b by Gaussian elimination with partial pivoting,
    overwriting ``a`` and ``b``; None if a pivot is zero (``a`` is singular)."""
    m = len(b)
    for c in range(m):
        r, best = c, abs(a[c][c])
        for i in range(c + 1, m):
            t = abs(a[i][c])
            if t > best:
                r, best = i, t
        pivot = a[r][c]
        if pivot == 0.0:
            return None
        a[c], a[r], b[c], b[r] = a[r], a[c], b[r], b[c]
        top, bc = a[c], b[c]
        for i in range(c + 1, m):
            row = a[i]
            f = row[c] / pivot
            if f != 0.0:
                for cc in range(c + 1, m):
                    row[cc] -= f * top[cc]
                b[i] -= f * bc
    x = [0.0] * m
    for c in range(m - 1, -1, -1):
        row = a[c]
        x[c] = (b[c] - sum([row[cc] * x[cc] for cc in range(c + 1, m)])) / row[c]
    return x


def _newton_chain(chain: list[list[float]], axes: list[list[int]], p: float, max_iter: int,
                  mergeable: list[bool]) -> tuple[bool, Optional[int]]:
    """Projected Newton on the free break coordinates of ``chain`` (in place);
    break j moves on the axes ``axes[j]``.

    Stationarity of the length is zero tension: at each break the segment
    directions u = d/|d|_p agree on the face's free coordinates (the length
    gradient s |u|^(p-1) is a monotone function of u).  The step is Newton's
    for that system, whose Jacobian has the well-conditioned segment blocks
    (I - u g^T)/|d|_p with g = s |u|^(p-1); the length Hessian has the same
    blocks scaled by (p-1) |u|^(p-2), which is what makes a plain Newton step
    on the length crawl for large p.  Where the tension step does not descend,
    a Levenberg-Marquardt step on the Hessian is taken instead, its damping
    grown by cut-back steps and shrunk by full ones.  Both systems are built
    only on the moving free coordinates (``_chain_system``) and solved by
    ``_eliminate``; a singular one counts as a failed step.  Each segment is
    measured on its support (``_supports``), with ``lp_norm``'s kernel: the
    axes it leaves out hold exact zeros, so every sum and norm comes out as
    on all n axes.  A coordinate is held where it sits on a side of its face
    box with the length gradient pointing out.
    A backtracking search projects each step into the face boxes and takes
    the first trial that shortens the path (or, where the length is flat to
    rounding, lowers the tension).  The length has a kink where consecutive
    breaks coincide: once a ``mergeable`` segment is shorter than SHORT of
    the path, its index is handed back, so that the caller can try merging
    the breaks at its ends.  The solve stops once the tension residual is
    below a tenth of RESIDUAL_TOL.  Returns (converged, segment or None).
    """
    coords = [(j, i) for j, row in enumerate(axes) for i in row]
    if not coords:
        return True, None
    gate = RESIDUAL_TOL / 10
    support = _supports(chain, axes)
    # each break coordinate's break and places in the segments before and after it
    places = [(j, support[j].index(i), support[j + 1].index(i)) for j, i in coords]
    jumps = [[(a, b) for k, a, b in places if k == j] for j in range(len(axes))]
    # (chain point, axis) of each break coordinate, and each segment's ends and support
    cells = [(chain[j + 1], i) for j, i in coords]
    segments = list(zip(chain, chain[1:], support))

    def put(values: list[float]) -> None:
        for (row, i), t in zip(cells, values):
            row[i] = t

    def measure() -> tuple[list[float], list[list[float]]]:
        diffs = [[b[i] - a[i] for i in sup] for a, b, sup in segments]
        return [_lp_abs(list(map(abs, d)), p) for d in diffs], diffs

    nu, diffs = measure()
    unit = _units(nu, diffs)
    res = _tension(jumps, unit)
    damp = 0.0
    for _ in range(max_iter):
        length = sum(nu)
        short = [s for s, (a, m) in enumerate(zip(nu, mergeable)) if m and a < SHORT * length]
        if short:
            return False, short[0]
        if res <= gate:
            return True, None
        v = [row[i] for row, i in cells]
        phi = [_phi(u, p) for u in unit]
        grad = [phi[j][a] - phi[j + 1][b] for j, a, b in places]
        moving = [c for c, (t, g) in enumerate(zip(v, grad))
                  if not (t == 0.0 and g > 0.0 or t == 1.0 and g < 0.0)]
        inv = [1.0 / a if a > 0.0 else 0.0 for a in nu]
        ends: list[tuple[list, list]] = [([], []) for _ in nu]
        for r, c in enumerate(moving):
            j, a, b = places[c]
            ends[j][1].append((r, a))
            ends[j + 1][0].append((r, b))
        g_in = [grad[c] for c in moving]
        s_in = None
        if damp == 0.0:
            s_in = _eliminate(_chain_system(ends, unit, phi, inv, None),
                              [unit[j + 1][b] - unit[j][a]
                               for j, a, b in [places[c] for c in moving]])
            if s_in is not None and not (all(map(math.isfinite, s_in))
                                         and sum([g * t for g, t in zip(g_in, s_in)]) < 0.0):
                s_in = None
        if s_in is None:
            curv = [[(p - 1.0) * max(abs(t), 1e-12) ** (p - 2.0) for t in u] for u in unit]
            hess = _chain_system(ends, unit, phi, inv, curv)
            hess = [[0.5 * (h + hc) for h, hc in zip(row, col)]
                    for row, col in zip(hess, zip(*hess))]
            scale = max([abs(hess[r][r]) for r in range(len(moving))] + [1e-12])
            for r in range(len(moving)):
                hess[r][r] += (damp + 1e-12) * scale
            s_in = _eliminate(hess, [-g for g in g_in])
            if s_in is None:
                s_in = [-g / scale for g in g_in]
        step = [0.0] * len(coords)
        for c, t in zip(moving, s_in):
            step[c] = t
        alpha = 1.0
        for _ in range(50):
            put([min(max(a + alpha * t, 0.0), 1.0) for a, t in zip(v, step)])
            nu_t, diffs = measure()
            gain = length - sum(nu_t)
            if gain > 0.0 or (abs(gain) <= 4e-16 * length
                              and _tension(jumps, _units(nu_t, diffs)) < res):
                break
            alpha *= 0.5
        else:
            put(v)
            return res <= RESIDUAL_TOL, None
        # a full step that was accepted earns trust; a cut-back step loses it
        damp = (0.0 if damp < 1e-3 else 0.25 * damp) if alpha == 1.0 else max(4.0 * damp, 1e-2)
        nu, unit = nu_t, _units(nu_t, diffs)
        res = _tension(jumps, unit)
    return res <= gate, None


def _schedule(hull: CubeComplex, xa: list[float],
              ya: list[float]) -> dict[int, tuple[float, float]]:
    """The l1 crossing schedule from xa to ya in their hull (``_hull_of``):
    per hyperplane h with xa[h] != ya[h], the times (start, end) in [0, 1]
    during which coordinate h moves, linearly, from xa[h] to ya[h].

    In the hull, a separating hyperplane j that does not cross h is crossed
    before h when no vertex lies on y's side of h and x's side of j, and
    after h in the mirror case.  With a and b the l1 lengths |xa[j] - ya[j]|
    summed over the j before and after h, and d h's own, h moves during
    [a, a + d] / (a + d + b).  In a product of trees, a + d + b is the l1
    length of h's tree, so every coordinate runs its tree's geodesic at
    constant speed: the schedule is the lp geodesic for every p (Bridson
    and Haefliger I.5.3 for p = 2; the proof carries over).  Which
    pairs of sides the hull misses is read from its ``side_sets``, kept on
    the hull: two sides are missing together when their bitsets share no
    vertex.
    """
    full = (1 << len(hull.vertices)) - 1
    # per moving coordinate: (h, the hull vertices on x's side of h, those on
    # y's side, its l1 length)
    moves = [(h, full ^ one, one, t - s) if s < t else (h, one, full ^ one, s - t)
             for h, (s, t, one) in enumerate(zip(xa, ya, hull.side_sets())) if s != t]
    out = {}
    for h, x_side, y_side, d in moves:
        before = after = 0.0
        for j, x_j, y_j, d_j in moves:
            if j == h:
                continue
            if not y_side & x_j:
                before += d_j
            elif not x_side & y_j:
                after += d_j
        total = before + d + after
        out[h] = (before / total, (before + d) / total)
    return out


def _start_chain(xa: list[float], ya: list[float],
                 layout: tuple[list[CubeRef], list[list[float]], list[list[int]]],
                 schedule: dict[int, tuple[float, float]]) -> list[list[float]]:
    """The start chain x, breaks, y through a ``_layout``, on the ``_schedule``.

    The break on each face sits at the schedule's time in the middle of
    [the last end of a fixed axis at y's value, the first start of one at
    x's value], never earlier than the break before it; its free
    coordinates are the schedule's at that time.  Where the schedule is the
    geodesic and the gallery holds it, so is the chain, exactly; a chain
    solve starts from it after a ``_nudge``.
    """
    faces, template, axes = layout
    chain = [xa] + [side[:] for side in template] + [ya]
    lam = 0.0
    for face, row, free in zip(faces, chain[1:], axes):
        lo, hi = 0.0, 1.0
        for h, (start, end) in schedule.items():
            if not face.mask >> h & 1:
                if row[h] == ya[h]:
                    lo = max(lo, end)
                elif row[h] == xa[h]:
                    hi = min(hi, start)
        lam = max(lam, 0.5 * (lo + hi))
        for i in free:
            t = xa[i]
            if i in schedule:
                start, end = schedule[i]
                t += (ya[i] - t) * min(max((lam - start) / (end - start), 0.0), 1.0)
            row[i] = t
    return chain


def _nudge(chain: list[list[float]], axes: list[list[int]]) -> list[list[float]]:
    """Move the free coordinates (``axes``) of the breaks of ``chain`` 1e-3
    off the sides of their faces, in place, so that no segment of a chain
    solve starts on a kink; returns the chain."""
    for row, free in zip(chain[1:], axes):
        for i in free:
            row[i] = min(max(row[i], 1e-3), 1.0 - 1e-3)
    return chain


def _seeded_chain(xa: list[float], ya: list[float],
                  layout: tuple[list[CubeRef], list[list[float]], list[list[int]]],
                  seed: Sequence[Sequence[float]]) -> list[list[float]]:
    """The chain x, breaks, y through a ``_layout`` with the free coordinates
    of the breaks (new lists) taken from ``seed``, one vector per face, and
    kept exactly (they may sit on a side on purpose)."""
    _, template, axes = layout
    chain = [xa] + [side[:] for side in template] + [ya]
    for row, free, v in zip(chain[1:], axes, seed):
        for i in free:
            row[i] = min(max(float(v[i]), 0.0), 1.0)
    return chain


def _split_direction(chain: list[list[float]], m: int, face_a: Optional[CubeRef],
                     face_b: Optional[CubeRef], p: float):
    """Directions that pull merged break m apart into two shorter-path breaks.

    Break m stands for two coincident breaks on face_a and face_b (None for
    an endpoint).  The pair is optimal iff some u in the dual unit ball
    (|u|_q <= 1, the subgradients of the null segment between them) balances
    each break on its own face: a - u against face_a's sides and u + c
    against face_b's, with a and c the gradients of the segments into and
    out of break m.  Per coordinate that confines u to an interval, so the
    least such u is a clip of 0.  Returns None if |u|_q <= 1; otherwise the
    displacement e = s |u|^(q-1) between the breaks, each coordinate given to
    the break whose side binds, is a descent direction: (move of the face_a
    break, move of the face_b break).
    """
    z = chain[m]
    nu, diffs = _segments(chain, p)
    unit = _units(nu, diffs)
    live = [s for s, t in enumerate(nu) if t >= MERGE_TOL]
    into, out = [s for s in live if s < m], [s for s in live if s >= m]
    a = _phi(unit[into[-1]], p) if into else [0.0] * len(z)
    b = _phi(unit[out[0]], p) if out else [0.0] * len(z)      # b = -c

    def moves(face: Optional[CubeRef]) -> tuple[list[bool], list[bool]]:
        """Per coordinate: whether the break on ``face`` can move up, and down."""
        free = [face is not None and face.mask >> h & 1 == 1 for h in range(len(z))]
        return ([f and t < 1.0 - MERGE_TOL for f, t in zip(free, z)],
                [f and t > MERGE_TOL for f, t in zip(free, z)])

    (up_a, down_a), (up_b, down_b) = moves(face_a), moves(face_b)
    # the face_a break balances a - u: u = a inside, u <= a on side 0, u >= a
    # on side 1; the face_b break balances u - b: u = b inside, u >= b on
    # side 0, u <= b on side 1
    u = []
    for s, t, ua, da, ub, db in zip(a, b, up_a, down_a, up_b, down_b):
        hi = min(s if ua else math.inf, t if db else math.inf)
        lo = max(s if da else -math.inf, t if ub else -math.inf)
        u.append(min(max(0.0, lo), max(lo, hi)))
    q = p / (p - 1.0)
    if lp_norm(u, q) <= 1.0 + RESIDUAL_TOL:
        return None
    e = _phi(u, q)
    top = max(map(abs, e))
    move_a, move_b = [0.0] * len(z), [0.0] * len(z)
    for h, t in enumerate(e):
        t /= top
        # moving the face_a break by -e or the face_b break by +e; each must
        # stay in its box, and the cheaper of the two gradient terms wins
        ok_a, ok_b = (down_a[h], up_b[h]) if t > 0.0 else (up_a[h], down_b[h])
        if ok_a and (not ok_b or a[h] * t > b[h] * t):
            move_a[h] = -t
        elif ok_b:
            move_b[h] = t
    return move_a, move_b


def _split(chain: list[list[float]], s: int, split, p: float) -> list[list[float]]:
    """Move chain points s and s+1 apart along ``split``, as far as pays.

    The length is convex along the ray, so the step is the best of a halving
    sequence: halve while the length keeps falling.
    """
    best, best_len = chain, sum(_segments(chain, p)[0])
    step = 0.5
    for _ in range(50):
        trial = chain[:]
        for r, move in ((s, split[0]), (s + 1, split[1])):
            trial[r] = [min(max(t + step * d, 0.0), 1.0) for t, d in zip(chain[r], move)]
        length = sum(_segments(trial, p)[0])
        if length < best_len:
            best, best_len = trial, length
        elif best is not chain:
            break
        step *= 0.5
    return best


def _solve(complex: CubeComplex, cubes: tuple[CubeRef, ...], chain: list[list[float]],
           p: float, max_sweeps: Optional[int]
           ) -> tuple[tuple[CubeRef, ...], list[CubeRef], list[list[float]], bool]:
    """The chain solve of ``optimize_breakpoints`` through ``cubes`` from
    ``chain`` (solved in place), with coalescing breaks merged where that
    does not lengthen the path: (the cubes kept, their faces, the chain,
    converged).  A screen (``max_sweeps`` set) merges nothing: it stops at
    the first short segment and hands its chain on as it is."""
    faces, template, axes = _layout(complex, cubes)
    xa, ya = chain[0], chain[-1]
    k = len(faces)
    # interior breaks can always be pinned together; an end segment only
    # collapses if its endpoint lies on the adjacent face
    mergeable = [k > 0] * (k + 1)
    for s, end in ((0, xa), (k, ya)):
        j = min(s, k - 1)
        if k and any(end[i] != side for i, side in enumerate(template[j])
                     if not faces[j].mask >> i & 1):
            mergeable[s] = False
    while True:
        converged, s = _newton_chain(chain, axes, p,
                                     NEWTON_CAP if max_sweeps is None else max_sweeps,
                                     mergeable)
        if s is None or max_sweeps is not None:
            return cubes, faces, chain, converged
        # the ends of segment s are coalescing: solve with cube s dropped,
        # which pins them together on their shared face, and keep that
        # unless pulling them apart shortens the path
        pts = chain[1:-1]
        drop = min(s, k - 1)
        kept_cubes = cubes[:s] + cubes[s + 1:]
        merged = _solve(complex, kept_cubes,
                        _seeded_chain(xa, ya, _layout(complex, kept_cubes),
                                      pts[:drop] + pts[drop + 1:]), p, max_sweeps)
        # place every break of this gallery on the merged path: break i
        # sits where the path leaves the last kept cube up to cube i
        kept = list(itertools.accumulate((c in merged[0] for c in cubes), initial=0))
        full = [merged[2][i][:] for i in kept]
        m = kept[min(s, k - 1) + 1]
        split = _split_direction(merged[2], m, faces[s - 1] if s > 0 else None,
                                 faces[s] if s < k else None, p)
        if split is None:
            return merged
        mergeable[s] = False
        chain = _split(full, s, split, p)


def _cold_chain(complex: CubeComplex, x: Point, y: Point, xa: list[float], ya: list[float],
                layout: tuple[list[CubeRef], list[list[float]], list[list[int]]]
                ) -> list[list[float]]:
    """The ``_start_chain`` through one gallery's ``_layout``, on its own
    ``_schedule``."""
    # breaks on vertices (a vertex wedge's lone gallery) have nothing to place
    schedule = _schedule(complex._hull_of((x, y)), xa, ya) if any(layout[2]) else {}
    return _start_chain(xa, ya, layout, schedule)


def optimize_breakpoints(complex: CubeComplex, gallery: Gallery, x: Point, y: Point,
                         p: float, *, max_sweeps: Optional[int] = None,
                         init: Optional[Sequence[Sequence[float]]] = None) -> PiecewisePath:
    """Shortest piecewise affine path through the gallery's faces.

    ``max_sweeps`` caps the Newton iterations (used for coarse screening of
    candidate galleries); by default iteration runs until the tension
    residual is below a tenth of RESIDUAL_TOL.
    ``init`` warm-starts the break points with ambient coordinate vectors,
    one per face; without it (or with another number of them) the chain
    starts on the l1 crossing schedule (``_start_chain``), nudged off the
    sides of the faces (``_nudge``).
    Breaks that coincide at the optimum come back merged, with the cube
    between them dropped from the path (not from ``gallery``).
    """
    p = check_p(p, smooth=True)
    n = len(complex.hyperplanes)
    xa, ya = _ambient(x, n), _ambient(y, n)
    cubes = tuple(gallery.cubes)
    layout = _layout(complex, cubes)
    if init is not None and len(init) == len(layout[0]):
        chain = _seeded_chain(xa, ya, layout, init)
    else:
        chain = _nudge(_cold_chain(complex, x, y, xa, ya, layout), layout[2])
    _, faces, chain, converged = _solve(complex, cubes, chain, p, max_sweeps)
    breaks = (x, *[point_from_ambient(vec, face) for vec, face in zip(chain[1:-1], faces)], y)
    return PiecewisePath(complex, p, breaks, gallery, converged)


# -- the geodesic -------------------------------------------------------------


def _undominated(galleries: Sequence[Gallery]) -> list[Gallery]:
    """The galleries of the list that no other gallery of the list dominates.

    G' dominates G when it is G with one cube E inserted between consecutive
    cubes C, C' of G, where E contains the face C n C'; G' is never longer
    (see the module docstring).  A dominator is one cube longer, so every
    dominated gallery has an undominated dominator in the list.
    """
    listed = {g.cubes for g in galleries}
    dominated = set()
    for g in galleries:
        cubes = g.cubes
        for j in range(1, len(cubes) - 1):
            shorter = cubes[:j] + cubes[j + 1:]
            if shorter in listed:
                if cubes[j].contains_cube(cube_intersection(cubes[j - 1], cubes[j + 1])):
                    dominated.add(shorter)
    return [g for g in galleries if g.cubes not in dominated]


EVENT_TOL = 1e-14   # schedule times closer than this are one event


def _tree_path(complex: CubeComplex, hull: CubeComplex, x: Point, y: Point,
               p: float) -> Optional[PiecewisePath]:
    """The path of the l1 crossing schedule from x to y, the lp geodesic on
    their hull when its ``factors()`` are all trees (see the module
    docstring), if ``check_local_geodesic`` passes it (the report is kept);
    else None.

    Between two of the schedule's start and end times every coordinate
    moves linearly, so the breaks are the schedule's points at those times.
    Times within EVENT_TOL of each other are one event (walls crossed at
    once, whose times rounding set apart).  It sits at the middle of its
    times, where ``_start_chain`` puts a break between one wall's end and
    the next one's start, and a coordinate that starts or ends there takes
    its end value exactly.  Each break's Point is written straight from its
    vector, snapped as ``point_from_ambient`` snaps it, and the path keeps
    those vectors.  A break equal to the one before is written once.
    """
    n = len(complex.hyperplanes)
    xa, ya = _ambient(x, n), _ambient(y, n)
    schedule = _schedule(hull, xa, ya)
    times = sorted({0.0, 1.0, *itertools.chain.from_iterable(schedule.values())})
    # the runs of times that are one event, and each time's run; the runs
    # at 0 and 1 are x and y
    runs, event = [[0.0]], {0.0: 0}
    for t in times[1:]:
        if t - runs[-1][-1] > EVENT_TOL:
            runs.append([])
        runs[-1].append(t)
        event[t] = len(runs) - 1
    breaks, pts = [x], [xa]
    for k, run in enumerate(runs[1:-1], 1):
        lam = 0.5 * (run[0] + run[-1])
        vec = xa[:]
        for h, (start, end) in schedule.items():
            if event[end] <= k:
                vec[h] = ya[h]
            elif event[start] < k:
                vec[h] += (ya[h] - vec[h]) * ((lam - start) / (end - start))
        base, coords = 0, []
        for h, t in enumerate(vec):
            if SNAP_TOL < t < 1.0 - SNAP_TOL:
                coords.append((h, t))
            elif t > 0.5:
                vec[h], base = 1.0, base | 1 << h
            else:
                vec[h] = 0.0
        point = Point(base, tuple(coords))
        # a break that snapped onto the one before is written once
        if point != breaks[-1]:
            breaks.append(point)
            pts.append(vec)
    if y != breaks[-1]:
        breaks.append(y)
        pts.append(ya)
    path = PiecewisePath(complex, p, tuple(breaks))
    path._keep("_pts", pts)
    return path if check_local_geodesic(complex, path).all_ok else None


def geodesic(complex: CubeComplex, x: Point, y: Point, p: float) -> PiecewisePath:
    """The unique lp geodesic from x to y, as a constant-speed piecewise path.

    When x and y share no cube and every product factor of their hull is
    a tree (``CubeComplex.factors()``), the answer is the path of the l1
    crossing schedule (``_tree_path``), which is the geodesic for every p: no
    gallery is enumerated, and the path has none.  If it fails
    ``check_local_geodesic``, the steps below run as on any other hull.
    A path the search certified keeps its ``check_local_geodesic`` report,
    as a schedule path does, so a caller's own check of it is a lookup; a
    lone gallery's solved or continued path is checked only when a caller
    asks.  The complex remembers the last answer: the same x, y and p
    again (p compared after ``check_p``, so 2 and 2.0 match) return a new
    path with the remembered breaks, gallery, converged flag and kept
    report, without a solve.  The same x and y at another p first try the
    remembered breaks at p as they are, then solve the remembered gallery at
    p from them (``_continue``; a schedule path has no gallery, and is not
    continued), and the search runs only if neither path is one it would
    accept; so the answer can depend on the query before it, within the
    solve's tolerances, except on a product of trees, where both are the
    schedule.  The record holds those fields, not the path: a
    path holds its complex, and the cycle would leave every dropped complex
    to the cyclic collector (a report holds no complex).  A solve that
    raises leaves no record.
    """
    p = check_p(p, smooth=True)
    query = (x, y, p)
    last = complex._solver_cache.get("last geodesic")
    if last is not None and last[0] == query:    # x and y were checked when it was solved
        path = PiecewisePath(complex, p, *last[1:4])
        path._keep("_report", last[4])
        return path
    complex.check_point(x)
    complex.check_point(y)
    path = None
    if complex.minimal_cube_pair(x, y) is None:
        hull = complex._hull_of((x, y))
        if all(tree for _, tree in hull.factors()):
            path = _tree_path(complex, hull, x, y, p)
    # a remembered path of two breaks lies in one cube, and a schedule path
    # has no gallery: nothing to continue
    if (path is None and last is not None and last[0][:2] == (x, y) and len(last[1]) > 2
            and last[2] is not None):
        path = _continue(complex, x, y, p, last)
    if path is None:
        path = _search(complex, x, y, p)
    complex._solver_cache["last geodesic"] = (query, path.breaks, path.gallery, path.converged,
                                              path._report)
    return path


def _at_rest(complex: CubeComplex, gallery: Gallery, x: Point, y: Point, p: float,
             chain: list[list[float]]) -> Optional[PiecewisePath]:
    """The path of ``chain`` (x, a break on each face of ``gallery``, y) as
    it is, if a chain solve would stop on it at once, else None: its tension
    on the faces' free axes, on the floats, is at most a tenth of
    RESIDUAL_TOL, the gate at which ``_newton_chain`` stops.  The caller
    accepts it as it accepts a solved path.  A break repeated on consecutive
    faces (two walls crossed at once) is written once, on the face of the
    cubes on either side, as a merged solve writes it.  A gallery whose
    faces have no free coordinate is left to the solve, which returns its
    chain at once."""
    if not any(_layout(complex, gallery.cubes)[2]):
        return None
    live = [s for s, (a, b) in enumerate(zip(chain, chain[1:])) if a != b]
    pts = [chain[0]] + [chain[s + 1] for s in live]
    faces, _, axes = _layout(complex, tuple(gallery.cubes[s] for s in live))
    if _tension([[(i, i) for i in row] for row in axes],
                _units(*_segments(pts, p))) > RESIDUAL_TOL / 10:
        return None
    return PiecewisePath(complex, p, (x, *[point_from_ambient(vec, face)
                                          for vec, face in zip(pts[1:-1], faces)], y), gallery)


def _continue(complex: CubeComplex, x: Point, y: Point, p: float,
              last: tuple) -> Optional[PiecewisePath]:
    """The remembered breaks at p as they are, if the solve would stop on
    them (``_at_rest``); else the remembered gallery solved at p from them.
    Either path is returned only if ``_search`` would accept it from that
    gallery: converged, and certified unless the gallery is the only one.
    A remembered path with merged breaks has fewer breaks than the gallery
    has faces; its gallery's chain starts cold, and that start is what is
    tried as it is."""
    n = len(complex.hyperplanes)
    xa, ya = _ambient(x, n), _ambient(y, n)
    gallery = last[2]
    layout = _layout(complex, gallery.cubes)
    init = [_ambient(b, n) for b in last[1][1:-1]]
    lone = len(enumerate_galleries(complex, x, y)) == 1
    path = _at_rest(complex, gallery, x, y, p,
                    _seeded_chain(xa, ya, layout, init) if len(init) == len(layout[0])
                    else _cold_chain(complex, x, y, xa, ya, layout))
    if path is not None and (lone or check_local_geodesic(complex, path).all_ok):
        return path
    path = optimize_breakpoints(complex, gallery, x, y, p, init=init)
    if path.converged and (lone or check_local_geodesic(complex, path).all_ok):
        return path
    return None


def _search(complex: CubeComplex, x: Point, y: Point, p: float) -> PiecewisePath:
    """The geodesic's gallery search, on checked inputs."""
    pair = complex.minimal_cube_pair(x, y)
    if pair is not None:
        return PiecewisePath(complex, p, (x, y), Gallery((pair,)))
    galleries = enumerate_galleries(complex, x, y)
    if len(galleries) == 1:
        return _select([optimize_breakpoints(complex, galleries[0], x, y, p)])
    n = len(complex.hyperplanes)
    xa, ya = _ambient(x, n), _ambient(y, n)
    key = ("undominated", x.minimal_cube(), y.minimal_cube())
    undominated = complex._solver_cache.get(key)
    if undominated is None:
        undominated = complex._solver_cache[key] = _undominated(galleries)
    # the order and the screens take the chains nudged, as a chain solve starts
    schedule = _schedule(complex._hull_of((x, y)), xa, ya)
    start = {}
    for g in undominated:
        layout = _layout(complex, g.cubes)
        start[g] = _nudge(_start_chain(xa, ya, layout, schedule), layout[2])[1:-1]
    order = sorted(start, key=lambda g: (sum(_segments([xa, *start[g], ya], p)[0]), g.cubes))
    # the first candidate's start chain as it is: dropping this try changes no
    # answer of tools/answers.py, but it spares the full solves when it certifies
    path = _at_rest(complex, order[0], x, y, p,
                    _start_chain(xa, ya, _layout(complex, order[0].cubes), schedule))
    if path is not None and check_local_geodesic(complex, path).all_ok:
        return path
    # dominated galleries come last, for when no other path certifies: at
    # large p a dominator's chain solve can stall where theirs does not
    order += [g for g in galleries if g not in start]
    # its value decides nothing; the call keeps bench/test_bench.py's lower_bound span
    distance_lower_bound(complex, x, y, p)
    results: list[PiecewisePath] = []
    for g in order:
        # the full solve starts from the screen's breaks, not from the start
        # chain, and that start decides the answer's last bits and, at large
        # p, whether the solve converges and certifies
        rough = optimize_breakpoints(complex, g, x, y, p, max_sweeps=3, init=start.get(g))
        path = optimize_breakpoints(complex, g, x, y, p, init=rough._points()[1:-1])
        results.append(path)
        # a local geodesic is the geodesic (see the module docstring)
        if path.converged and check_local_geodesic(complex, path).all_ok:
            return path
    return _select(results)


def _select(results: list[PiecewisePath]) -> PiecewisePath:
    """The shortest converged path, for a lone gallery or when none certified.

    Ties go to the lexicographically smallest gallery encoding.  Raises if no
    converged path lies within 10 LENGTH_TOL of the shortest solved one, or
    if a converged path tied with the chosen one disagrees with it.
    """
    results = sorted(results, key=lambda pa: (pa.length, pa.gallery.cubes))
    converged = [pa for pa in results if pa.converged]
    if not converged or converged[0].length > results[0].length + 10 * LENGTH_TOL:
        shortest = results[0]
        raise NoConvergence("no gallery optimization converged", residual=max(
            _tension_residuals(shortest, _interior_data(shortest.complex, shortest)),
            default=0.0))
    best = converged[0]
    # tie window well below LENGTH_TOL: per-gallery optima are accurate to
    # ~1e-12, and distinct galleries routinely have genuinely different optima
    # separated by less than LENGTH_TOL when the valley between routes is flat
    for path in converged[1:]:
        if path.length <= best.length + LENGTH_TOL / 100:
            sup = path_sup_distance(path, best)
            if sup > UNIQUENESS_SUP:
                raise UniquenessViolation(
                    f"two optimal galleries disagree: lengths {path.length} vs {best.length}, "
                    f"sup distance {sup}")
    return best


def path_sup_distance(a: PiecewisePath, b: PiecewisePath) -> float:
    """Sup of the ambient lp distance between same-time points of two paths,
    sampled at SUP_SAMPLES + 1 evenly spaced times."""
    n = len(a.complex.hyperplanes)
    worst = 0.0
    for i in range(SUP_SAMPLES + 1):
        t = i / SUP_SAMPLES
        pa = a.evaluate(t).ambient(n)
        pb = b.evaluate(t).ambient(n)
        worst = max(worst, lp_norm(pa - pb, a.p))
    return worst


def bicombing(complex: CubeComplex, x: Point, y: Point, t: float, p: float) -> Point:
    """sigma_p(x, y, t): the point at parameter t along the unique geodesic."""
    return geodesic(complex, x, y, p).evaluate(t)


def distance(complex: CubeComplex, x: Point, y: Point, p: float) -> float:
    return geodesic(complex, x, y, p).length


# -- local geodesic conditions -------------------------------------------------


def _interior_data(complex: CubeComplex, path: PiecewisePath):
    """Per interior break of the path's distinct consecutive breaks (a run of
    equal breaks counts once): (index i of its run's first break, index j of
    the next run's first break, prev cube, next cube, shared cube D).  Break
    i - 1 ends the run before and break j - 1 ends this one, so segments
    i - 1 and j - 1 are the break's two segments.  Each segment's minimal
    cube is taken once: a break's next cube is the following break's prev."""
    breaks = path.breaks
    runs = [i for i in range(1, len(breaks)) if breaks[i] != breaks[i - 1]]
    if len(runs) < 2:
        return []
    cubes = [complex.minimal_cube_pair(breaks[i - 1], breaks[i]) for i in runs]
    if None in cubes:
        raise NoCommonCube("path breaks do not share cubes")
    return [(i, j, c_prev, c_next, cube_intersection(c_prev, c_next))
            for i, j, c_prev, c_next in zip(runs, runs[1:], cubes, cubes[1:])]


def _tension_residuals(path: PiecewisePath, data) -> list[float]:
    """Zero-tension residual at each interior break (0 on a vertex D), read
    on D's free axes only."""
    pts = path._points()
    segs = path._lengths()
    out = []
    for i, j, c_prev, c_next, d in data:
        a, b, c, s, t = pts[i - 1], pts[i], pts[j], segs[i - 1], segs[j - 1]
        out.append(_lp_abs([abs((a[h] - b[h]) / s + (c[h] - b[h]) / t)
                            for h in bit_indices(d.mask)], 2.0))
    return out


def check_zero_tension(complex: CubeComplex, path: PiecewisePath,
                       tol: float = RESIDUAL_TOL) -> ConditionReport:
    """Balance of normalized displacement projections on each shared face."""
    check_p(path.p, smooth=True)
    res = _tension_residuals(path, _interior_data(complex, path))
    return ConditionReport(zero_tension_ok=tuple(r <= tol for r in res),
                           worst_residual=max(res, default=0.0))


def _submask_norm(norms: dict[int, float], u: Sequence[float], v: Sequence[float],
                  mask: int, p: float) -> float:
    """lp norm of u - v on the axes of ``mask``, kept in ``norms`` by mask.

    It is ``lp_norm`` of that sub-vector to the last bit: on one axis
    |u_h - v_h| itself, which is what ``_lp_abs`` returns for one entry."""
    value = norms.get(mask)
    if value is None:
        axes = bit_indices(mask)
        value = norms[mask] = (abs(u[axes[0]] - v[axes[0]]) if len(axes) == 1 else
                               _lp_abs([abs(u[h] - v[h]) for h in axes], p))
    return value


def _nonempty_submasks(mask: int) -> list[int]:
    """The nonempty submasks of ``mask`` as a list (``CubeRef.corners``, a
    generator, costs more per break on the one-axis masks the check sees)."""
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


def _no_shortcut_margins(complex: CubeComplex, path: PiecewisePath, data) -> list[float]:
    """Least no-shortcut margin at each interior break.

    At a break whose previous/next minimal cubes C, C' share the cube D, the
    margin of a bipartition C = D x A1 x A2, C' = D x B1 x B2 is
    |dx|_A1 |dy|_B2 - |dx|_A2 |dy|_B1, taken over the bipartitions whose
    corner cube D x B1 x A2 is a cube of the complex.  A negative margin means
    the path can be shortened through that corner cube.  With A2 or B1 empty
    the corner is a face of C or C' and the margin is >= 0, and A2 empty,
    B1 = C' - D gives exactly 0, so those bipartitions are not read and the
    least margin starts at 0.0.  Only the axes outside D are read, and only
    the factor norms of the corners that are cubes.
    """
    p = path.p
    pts = path._points()
    out = []
    for i, j, c_prev, c_next, d in data:
        ea = c_prev.mask & ~d.mask
        eb = c_next.mask & ~d.mask
        x, v, y = pts[i - 1], pts[i], pts[j]
        nx: dict[int, float] = {0: 0.0}
        ny: dict[int, float] = {0: 0.0}
        worst = 0.0
        for a2 in _nonempty_submasks(ea):
            for b1 in _nonempty_submasks(eb):
                corner_mask = d.mask | b1 | a2
                if complex.is_cube(CubeRef(d.corner & ~corner_mask, corner_mask)):
                    worst = min(worst, _submask_norm(nx, x, v, ea & ~a2, p)
                                * _submask_norm(ny, y, v, eb & ~b1, p)
                                - _submask_norm(nx, x, v, a2, p) * _submask_norm(ny, y, v, b1, p))
        out.append(worst)
    return out


def check_no_shortcut(complex: CubeComplex, path: PiecewisePath,
                      tol: float = RESIDUAL_TOL) -> ConditionReport:
    """Cross-multiplied ratio inequality over factor bipartitions with a corner cube.

    At each interior break with previous/next minimal cubes C, C' sharing the
    cube D, checks |dx|_A1 * |dy|_B2 >= |dx|_A2 * |dy|_B1 - tol for every
    bipartition C = D x A1 x A2, C' = D x B1 x B2 such that D x B1 x A2 is a
    cube of the complex.
    """
    check_p(path.p, smooth=True)
    margins = _no_shortcut_margins(complex, path, _interior_data(complex, path))
    return ConditionReport(no_shortcut_ok=tuple(m >= -tol for m in margins),
                           worst_residual=max([0.0] + [-m for m in margins]))


def check_local_geodesic(complex: CubeComplex, path: PiecewisePath,
                         tol: float = RESIDUAL_TOL) -> ConditionReport:
    """Both checks above, on one pass over the interior breaks.

    Each segment's minimal cube is taken once.  A break's tension is read
    on the free axes of D only, its margins on the axes of C and C' outside
    D only, and no bipartition whose corner is a face of C or C' is read.
    A report on the path's own complex is kept on the path with its tol, and
    asked again with the same tol it is returned as it is: the path is
    frozen, so the report cannot go stale.  A path that ``geodesic()``
    certified, or remembered, already holds the report at RESIDUAL_TOL.
    """
    kept = path._report
    if kept is not None and kept[0] == tol and complex is path.complex:
        return kept[1]
    check_p(path.p, smooth=True)
    data = _interior_data(complex, path)
    res = _tension_residuals(path, data)
    margins = _no_shortcut_margins(complex, path, data)
    report = ConditionReport(zero_tension_ok=tuple(r <= tol for r in res),
                             no_shortcut_ok=tuple(m >= -tol for m in margins),
                             worst_residual=max(max(res, default=0.0),
                                                max([0.0] + [-m for m in margins])))
    if complex is path.complex:
        path._keep("_report", (tol, report))
    return report
