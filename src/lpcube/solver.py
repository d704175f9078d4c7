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
Both systems are assembled only on the free break coordinates that move and
solved by Gaussian elimination.  The whole solve path, from the start chains
to the certificate, runs on lists of floats and measures with ``lp_norm``, the
one norm: a chain has a few breaks of a few coordinates, where numpy calls
would cost more than the arithmetic.
A backtracking search on the length projects every step into the face boxes,
whose sides form the active set.  The length has a kink where two consecutive
breaks coincide: breaks that coalesce are merged by dropping the cube between
them, and the merge is kept only if a subgradient test at the merged break
shows that pulling them apart cannot shorten the path; otherwise they are split
along the descent direction the test yields.

geodesic() searches the galleries for a certified path.  It takes them in
order of the length of their start chain, except that a gallery G comes after
all others when the list also holds G' = G with one cube E inserted between
consecutive cubes C, C' where E contains C n C': a break on C n C' lies on
C n E and on E n C', so every chain of G is a chain of G' of the same length,
and G' is never longer.  Once a path is solved, a gallery whose face bound
exceeds the shortest path solved so far is skipped; the bound is taken only
then, so a search that certifies its first candidate measures no face.  Each
other gallery is solved in full, from the breaks of a few Newton steps on its
start chain.  A solved path that passes the zero-tension and no-shortcut
conditions is a local geodesic, hence by Busemann convexity the geodesic, and
ends the search.  A path that fails no-shortcut is shortened through its most
violated corner cube, so the next gallery tried is the first one that
contains that cube.  If no path certifies, ``_select`` takes the shortest
converged one, and tied galleries must agree.

The tolerances are fixed module constants, not options: a certified path is
the geodesic whatever the solve's stopping rule, so no caller has a reason to
set them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .complexes import (
    CubeComplex,
    CubeRef,
    Point,
    cube_intersection,
    point_from_ambient,
)
from .errors import (
    DisjointCubes,
    NoCommonCube,
    NoConvergence,
    ScaleExceeded,
    UniquenessViolation,
)
from .geometry import check_p, distance_lower_bound, lp_norm

GALLERY_CAP = 100_000       # galleries enumerated per pair before ScaleExceeded
MERGE_TOL = 1e-12           # segments shorter than this are collapsed
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


@dataclass
class PiecewisePath:
    """Piecewise affine constant-speed path; breaks[0] = x, breaks[-1] = y."""

    complex: CubeComplex
    p: float
    breaks: tuple[Point, ...]
    gallery: Optional[Gallery] = None
    converged: bool = True
    _pts: Optional[list[list[float]]] = field(default=None, init=False, repr=False)
    _nus: Optional[list[float]] = field(default=None, init=False, repr=False)

    def _points(self) -> list[list[float]]:
        """The ambient breaks as lists of floats."""
        if self._pts is None:
            n = len(self.complex.hyperplanes)
            self._pts = [b.ambient(n).tolist() for b in self.breaks]
        return self._pts

    def _lengths(self) -> list[float]:
        if self._nus is None:
            self._nus = _segments(self._points(), self.p)[0]
        return self._nus

    def ambient_breaks(self) -> np.ndarray:
        return np.array(self._points())

    def segment_lengths(self) -> np.ndarray:
        return np.array(self._lengths())

    @property
    def length(self) -> float:
        # numpy's pairwise order, which replayed suite margins are pinned to
        return float(np.add.reduce(self._lengths()))

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

    def canonical(self) -> "PiecewisePath":
        """Drop zero-length segments (coincident consecutive breaks); the path
        itself, with its measured segments, if it has none."""
        segs = self._lengths()
        if all(s > MERGE_TOL for s in segs):
            return self
        pts = list(self.breaks)
        keep = [pts[0]]
        for i, s in enumerate(segs):
            if s > MERGE_TOL:
                keep.append(pts[i + 1])
        if len(keep) == 1:
            keep.append(pts[-1])
        if keep[-1] != pts[-1]:
            keep[-1] = pts[-1]
        return PiecewisePath(self.complex, self.p, tuple(keep), self.gallery,
                             self.converged)

    def to_obj(self) -> dict:
        cx = self.complex
        return {
            "p": self.p,
            "length": self.length,
            "breaks": [
                {
                    "vertex": cx.vertex_index[b.base],
                    "coords": {cx.hyperplanes[h]: t for h, t in b.coords},
                }
                for b in self.breaks
            ],
        }


@dataclass
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

    Enumerates simple paths through the maximal cubes of the median hull,
    pruning any step that would re-enter a dropped hyperplane; simple paths
    from distinct start cubes are distinct, so none repeats.
    """
    complex.check_point(x)
    complex.check_point(y)
    mx, my = x.minimal_cube(), y.minimal_cube()
    key = ("galleries", mx, my)
    cached = complex._solver_cache.get(key)
    if cached is not None:
        return cached
    maximal = sorted(complex.hull_restriction([x, y]).maximal_cubes())
    starts = [c for c in maximal if c.contains_cube(mx)]
    ends = {c for c in maximal if c.contains_cube(my)}
    inter: dict[CubeRef, list[CubeRef]] = {}
    for a in maximal:
        inter[a] = [b for b in maximal if b != a and cube_intersection(a, b) is not None]
    out: list[tuple[CubeRef, ...]] = []

    def extend(pathlist: list[CubeRef], dropped: int, visited: set[CubeRef]) -> None:
        cur = pathlist[-1]
        if cur in ends:
            out.append(tuple(pathlist))
            if len(out) > GALLERY_CAP:
                raise ScaleExceeded(f"more than {GALLERY_CAP} galleries")
            return
        for nxt in inter[cur]:
            if nxt in visited or nxt.mask & dropped:
                continue
            pathlist.append(nxt)
            visited.add(nxt)
            extend(pathlist, dropped | (cur.mask & ~nxt.mask), visited)
            visited.remove(nxt)
            pathlist.pop()

    for s in starts:
        extend([s], 0, {s})
    if not out:
        raise ScaleExceeded(
            f"no gallery found between {x} and {y}: starts={starts}, ends={sorted(ends)}")
    galleries = [Gallery(seq) for seq in sorted(out)]
    complex._solver_cache[key] = galleries
    return galleries


# -- per-gallery optimization -------------------------------------------------

# Breaks are heading into a coincidence when a segment between them gets
# shorter than SHORT of the path or a step shrinks it below COLLAPSE of itself.
SHORT = 1e-2
COLLAPSE = 0.1
NEWTON_CAP = 200    # Newton iterations per chain solve


def _face_boxes(faces: Sequence[CubeRef], n: int) -> tuple[list[list[float]], list[list[int]]]:
    """Per face: its side on each fixed axis (0 on the free ones), and its free axes."""
    return ([[float(f.corner >> i & 1) for i in range(n)] for f in faces],
            [[i for i in range(n) if f.mask >> i & 1] for f in faces])


def _segments(pts: Sequence[Sequence[float]], p: float) -> tuple[list[float], list[list[float]]]:
    """Lengths of the segments of a polyline given as lists of floats, and
    their displacements."""
    diffs = [[t - s for s, t in zip(a, b)] for a, b in zip(pts, pts[1:])]
    return [lp_norm(d, p) for d in diffs], diffs


def _units(nus: list[float], diffs: list[list[float]]) -> list[list[float]]:
    """Each displacement over its length (zero on null segments)."""
    return [[t / nu for t in d] if nu > 0.0 else [0.0] * len(d) for nu, d in zip(nus, diffs)]


def _phi(unit: list[float], p: float) -> list[float]:
    """Gradient of the lp norm from displacement over length: s |u|^(p-1)."""
    return unit if p == 2.0 else [math.copysign(abs(t) ** (p - 1.0), t) for t in unit]


def _tension(pts: list[list[float]], axes: list[list[int]], nu: list[float],
             unit: list[list[float]]) -> float:
    """Worst zero-tension residual of the breaks, with the box bounds projected.

    Per free coordinate (``axes[j]`` of break j) the residual is the jump of
    displacement over length across the break; it has the sign of the length
    gradient, so a coordinate on a face side counts only while the gradient
    points back into the face.  Breaks next to a segment shorter than
    MERGE_TOL are left to the merge step.
    """
    worst = 0.0
    for j, free in enumerate(axes):
        if nu[j] < MERGE_TOL or nu[j + 1] < MERGE_TOL:
            continue
        z, before, after = pts[j + 1], unit[j], unit[j + 1]
        acc = 0.0
        for i in free:
            t = before[i] - after[i]
            if z[i] <= MERGE_TOL:
                t = min(t, 0.0)
            elif z[i] >= 1.0 - MERGE_TOL:
                t = max(t, 0.0)
            acc += t * t
        worst = max(worst, math.sqrt(acc))
    return worst


def _chain_matrix(rows: list[tuple[int, int]],
                  entry: Callable[[int, int, int], float]) -> list[list[float]]:
    """Matrix over the break coordinates ``rows`` (break, axis) from the
    per-segment blocks ``entry(s, a, b)``.

    Segment s runs from chain point s to s+1 and its block is the derivative
    with respect to its end point; break j sits between segments j and j+1,
    so its diagonal block is the sum of theirs, and it couples to break j+1
    through minus the block of segment j+1.
    """
    return [[entry(j, a, b) + entry(j + 1, a, b) if k == j
             else -entry(max(j, k), a, b) if abs(k - j) == 1 else 0.0
             for k, b in rows] for j, a in rows]


def _eliminate(a: list[list[float]], b: list[float]) -> Optional[list[float]]:
    """Solution x of a x = b by Gaussian elimination with partial pivoting,
    overwriting ``a`` and ``b``; None if a pivot is zero (``a`` is singular)."""
    m = len(b)
    for c in range(m):
        r = max(range(c, m), key=lambda i: abs(a[i][c]))
        pivot = a[r][c]
        if pivot == 0.0:
            return None
        a[c], a[r], b[c], b[r] = a[r], a[c], b[r], b[c]
        for i in range(c + 1, m):
            f = a[i][c] / pivot
            if f != 0.0:
                row = a[i]
                for cc in range(c + 1, m):
                    row[cc] -= f * a[c][cc]
                b[i] -= f * b[c]
    x = [0.0] * m
    for c in range(m - 1, -1, -1):
        x[c] = (b[c] - sum([a[c][cc] * x[cc] for cc in range(c + 1, m)])) / a[c][c]
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
    only on the moving free coordinates (those not held on a face side by the
    active set) and solved by ``_eliminate``; a singular one counts as a
    failed step.  A backtracking search on the length projects each step
    into the face boxes; the box sides form the active set (a coordinate on
    a side whose gradient points out stays).  The length has a kink where
    consecutive breaks coincide.  A step that shrinks a segment below
    COLLAPSE of its length is refused; if the segment is ``mergeable``, its
    index is handed back instead, as it is once the segment is shorter than
    SHORT of the path, so that the caller can try merging the breaks at its
    ends.  The solve stops once the tension residual is below a tenth of
    RESIDUAL_TOL.  Returns (converged, segment or None).
    """
    coords = [(j, i) for j, row in enumerate(axes) for i in row]
    if not coords:
        return True, None
    gate = RESIDUAL_TOL / 10

    def put(values: list[float]) -> None:
        for (j, i), t in zip(coords, values):
            chain[j + 1][i] = t

    nu, diffs = _segments(chain, p)
    unit = _units(nu, diffs)
    res = _tension(chain, axes, nu, unit)
    damp = 0.0
    for _ in range(max_iter):
        length = sum(nu)
        short = [s for s, (a, m) in enumerate(zip(nu, mergeable)) if m and a < SHORT * length]
        if short:
            return False, short[0]
        if res <= gate:
            return True, None
        v = [chain[j + 1][i] for j, i in coords]
        phi = [_phi(u, p) for u in unit]
        grad = [phi[j][i] - phi[j + 1][i] for j, i in coords]
        eps = min(1e-6, max([abs(t - min(max(t - g, 0.0), 1.0)) for t, g in zip(v, grad)]))
        low = [t <= eps and g > 0.0 for t, g in zip(v, grad)]
        high = [t >= 1.0 - eps and g < 0.0 for t, g in zip(v, grad)]
        moving = [c for c in range(len(coords)) if not (low[c] or high[c])]
        rows = [coords[c] for c in moving]
        inv = [1.0 / a if a > 0.0 else 0.0 for a in nu]

        def blk(s: int, a: int, b: int) -> float:
            return ((1.0 if a == b else 0.0) - unit[s][a] * phi[s][b]) * inv[s]

        g_in = [grad[c] for c in moving]
        s_in = None
        if damp == 0.0:
            s_in = _eliminate(_chain_matrix(rows, blk),
                              [unit[j + 1][i] - unit[j][i] for j, i in rows])
            if s_in is not None and not (all(map(math.isfinite, s_in))
                                         and sum([g * t for g, t in zip(g_in, s_in)]) < 0.0):
                s_in = None
        if s_in is None:
            curv = [[(p - 1.0) * max(abs(t), 1e-12) ** (p - 2.0) for t in u] for u in unit]
            hess = _chain_matrix(rows, lambda s, a, b: curv[s][a] * blk(s, a, b))
            hess = [[0.5 * (h + hc) for h, hc in zip(row, col)]
                    for row, col in zip(hess, zip(*hess))]
            scale = max([abs(hess[r][r]) for r in range(len(rows))] + [1e-12])
            for r in range(len(rows)):
                hess[r][r] += (damp + 1e-12) * scale
            s_in = _eliminate(hess, [-g for g in g_in])
            if s_in is None:
                s_in = [-g / scale for g in g_in]
        step = [0.0] * len(coords)
        for c, t in zip(moving, s_in):
            step[c] = t
        base = [0.0 if lo else 1.0 if hi else t for t, lo, hi in zip(v, low, high)]
        alpha = 1.0
        for _ in range(50):
            trial = [min(max(b + alpha * t, 0.0), 1.0) for b, t in zip(base, step)]
            put(trial)
            nu_t, diffs = _segments(chain, p)
            shrunk = [a < COLLAPSE * b for a, b in zip(nu_t, nu)]
            if any(shrunk):
                hit = [s for s, (sh, m) in enumerate(zip(shrunk, mergeable)) if sh and m]
                if hit:
                    put(v)
                    return False, hit[0]
            else:
                gain = length - sum(nu_t)
                if gain > 0.0 and gain >= -1e-4 * sum([g * (t - a) for g, t, a
                                                       in zip(grad, trial, v)]):
                    break
                if (abs(gain) <= 4e-16 * length
                        and _tension(chain, axes, nu_t, _units(nu_t, diffs)) < res):
                    break
            alpha *= 0.5
        else:
            put(v)
            return res <= RESIDUAL_TOL, None
        # a full step that was accepted earns trust; a cut-back step loses it
        damp = (0.0 if damp < 1e-3 else 0.25 * damp) if alpha == 1.0 else max(4.0 * damp, 1e-2)
        nu, unit = nu_t, _units(nu_t, diffs)
        res = _tension(chain, axes, nu, unit)
    return res <= gate, None


def _start_chain(xa: list[float], ya: list[float], cubes: Sequence[CubeRef], n: int,
                 init: Optional[Sequence[Sequence[float]]]
                 ) -> tuple[list[CubeRef], list[list[float]], list[list[int]], list[list[float]]]:
    """The faces of a cube sequence, their boxes (``_face_boxes``) and the
    start chain x, breaks, y with the breaks (new lists) placed in the boxes."""
    faces = _faces(cubes)
    template, axes = _face_boxes(faces, n)
    k = len(faces)
    chain = [xa] + [side[:] for side in template] + [ya]
    if init is not None and len(init) == k:
        # warm starts are kept exactly (they may sit on a side on purpose)
        for row, free, v in zip(chain[1:], axes, init):
            for i in free:
                row[i] = min(max(float(v[i]), 0.0), 1.0)
        return faces, template, axes, chain
    # start on the straight ambient segment at the time it crosses the walls
    # each face fixes, a nudge off the sides so no segment starts on a kink;
    # exact for flat configurations
    crossing = [(i, s, e - s) for i, (s, e) in enumerate(zip(xa, ya))
                if abs(e - s) >= 1e-12]
    lam = 0.0
    for j, (face, row, free) in enumerate(zip(faces, chain[1:], axes)):
        times = [min(max(t, 0.0), 1.0)
                 for t in [(row[i] - s) / d for i, s, d in crossing if not face.mask >> i & 1]
                 if -0.2 <= t <= 1.2]
        lam = max(sum(times) / len(times) if times else (j + 1) / (k + 1), lam)
        for i in free:
            row[i] = min(max((1 - lam) * xa[i] + lam * ya[i], 1e-3), 1.0 - 1e-3)
    return faces, template, axes, chain


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


def optimize_breakpoints(complex: CubeComplex, gallery: Gallery, x: Point, y: Point,
                         p: float, *, max_sweeps: Optional[int] = None,
                         init: Optional[Sequence[Sequence[float]]] = None) -> PiecewisePath:
    """Shortest piecewise affine path through the gallery's faces.

    ``max_sweeps`` caps the Newton iterations (used for coarse screening of
    candidate galleries); by default iteration runs until the tension
    residual is below a tenth of RESIDUAL_TOL.
    ``init`` warm-starts the break points with ambient coordinate vectors.
    Breaks that coincide at the optimum come back merged, with the cube
    between them dropped from the path (not from ``gallery``).
    """
    p = check_p(p, smooth=True)
    n = len(complex.hyperplanes)
    xa, ya = x.ambient(n).tolist(), y.ambient(n).tolist()

    def solve(cubes: list[CubeRef], seed):
        faces, template, axes, chain = _start_chain(xa, ya, cubes, n, seed)
        k = len(faces)
        # interior breaks can always be pinned together; an end segment only
        # collapses if its endpoint lies on the adjacent face
        mergeable = [max_sweeps is None and k > 0] * (k + 1)
        for s, end in ((0, xa), (k, ya)):
            j = min(s, k - 1)
            if k and any(end[i] != side for i, side in enumerate(template[j])
                         if not faces[j].mask >> i & 1):
                mergeable[s] = False
        while True:
            converged, s = _newton_chain(chain, axes, p,
                                         NEWTON_CAP if max_sweeps is None else max_sweeps,
                                         mergeable)
            if s is None:
                return cubes, faces, chain, converged
            # the ends of segment s are coalescing: solve with cube s dropped,
            # which pins them together on their shared face, and keep that
            # unless pulling them apart shortens the path
            pts = chain[1:-1]
            drop = min(s, k - 1)
            merged = solve(cubes[:s] + cubes[s + 1:], pts[:drop] + pts[drop + 1:])
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

    cubes, faces, chain, converged = solve(list(gallery.cubes), init)
    breaks = (x, *[point_from_ambient(vec, face) for vec, face in zip(chain[1:-1], faces)], y)
    return PiecewisePath(complex, p, breaks, gallery, converged).canonical()


# -- the geodesic -------------------------------------------------------------


def _face_bound(face: CubeRef, xa: list[float], ya: list[float], p: float,
                l1_factor: float) -> float:
    """A lower bound on the length of the paths from xa to ya through the face.

    Such a path is at least as long as the lp distances of its ends to the
    face, and, as in ``distance_lower_bound``, as their l1 distances over
    ``l1_factor`` = d_max^(1 - 1/p).  The ends lie in [0, 1]^n, so a distance
    to a face comes from the face's fixed axes alone.
    """
    gx, gy = ([0.0 if face.mask >> i & 1 else abs(t - (face.corner >> i & 1))
               for i, t in enumerate(end)] for end in (xa, ya))
    return max(lp_norm(gx, p) + lp_norm(gy, p), (sum(gx) + sum(gy)) / l1_factor)


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


def geodesic(complex: CubeComplex, x: Point, y: Point, p: float) -> PiecewisePath:
    """The unique lp geodesic from x to y, as a constant-speed piecewise path."""
    p = check_p(p, smooth=True)
    complex.check_point(x)
    complex.check_point(y)
    pair = complex.minimal_cube_pair(x, y)
    if pair is not None:
        return PiecewisePath(complex, p, (x, y), Gallery((pair,)))
    galleries = enumerate_galleries(complex, x, y)
    if len(galleries) == 1:
        return _select([optimize_breakpoints(complex, galleries[0], x, y, p)])
    n = len(complex.hyperplanes)
    xa, ya = x.ambient(n).tolist(), y.ambient(n).tolist()
    # the screen starts from the chain built for the ordering
    start = {g: _start_chain(xa, ya, g.cubes, n, None)[3][1:-1]
             for g in _undominated(galleries)}
    untried = sorted(start, key=lambda g: (sum(_segments([xa, *start[g], ya], p)[0]), g.cubes))
    # dominated galleries come last, for when no other path certifies: at
    # large p a dominator's chain solve can stall where theirs does not
    untried += [g for g in galleries if g not in start]
    # a gallery is pruned at its face bound once a path is solved; each face is
    # measured at most once, on first use.  lb0 never exceeds a solved length;
    # kept for bench/test_bench.py's geometry.lower_bound span
    lb0 = distance_lower_bound(complex, x, y, p)
    dmax = max((q.dim for q in complex.maximal_cubes()), default=1)
    l1_factor = max(dmax, 1) ** (1.0 - 1.0 / p)
    face_bounds: dict[CubeRef, float] = {}
    # a certified path ends the search; one that fails no-shortcut can be
    # shortened through its most violated corner cube, which picks the next
    # candidate (see the module docstring)
    results: list[PiecewisePath] = []
    upper = math.inf
    corner = None
    while untried:
        g = untried[0]
        if corner is not None:
            g = next((h for h in untried if any(c.contains_cube(corner) for c in h.cubes)), g)
        untried.remove(g)
        if upper < math.inf:
            faces = g.faces()
            for f in faces:
                if f not in face_bounds:
                    face_bounds[f] = _face_bound(f, xa, ya, p, l1_factor)
            if max([lb0] + [face_bounds[f] for f in faces]) > upper + UNIQUENESS_SUP:
                continue
        # the screen only seeds the full solve; kept for bench/test_bench.py's coarse_opt span
        rough = optimize_breakpoints(complex, g, x, y, p, max_sweeps=3, init=start.get(g))
        path = optimize_breakpoints(complex, g, x, y, p, init=rough._points()[1:-1])
        results.append(path)
        upper = min(upper, path.length)
        corner = None
        if path.converged:
            data = _interior_data(complex, path)
            if max(_tension_residuals(path, data), default=0.0) <= RESIDUAL_TOL:
                least, corner = min(_no_shortcut_margins(complex, path, data),
                                    key=lambda m: m[0], default=(0.0, None))
                if least >= -RESIDUAL_TOL:
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
    """Per interior break: (index, prev cube, next cube, shared cube D)."""
    breaks = path.breaks
    out = []
    for i in range(1, len(breaks) - 1):
        c_prev = complex.minimal_cube_pair(breaks[i - 1], breaks[i])
        c_next = complex.minimal_cube_pair(breaks[i], breaks[i + 1])
        if c_prev is None or c_next is None:
            raise NoCommonCube("path breaks do not share cubes")
        d = cube_intersection(c_prev, c_next)
        out.append((i, c_prev, c_next, d))
    return out


def _tension_residuals(path: PiecewisePath, data) -> list[float]:
    """Zero-tension residual at each interior break (0 where it is vacuous)."""
    pts = path._points()
    segs = path._lengths()
    out = []
    for i, c_prev, c_next, d in data:
        idx = [b for b in range(len(pts[i])) if d.mask >> b & 1]
        if not idx or segs[i - 1] == 0.0 or segs[i] == 0.0:
            out.append(0.0)
            continue
        out.append(lp_norm([(pts[i - 1][b] - pts[i][b]) / segs[i - 1]
                            + (pts[i + 1][b] - pts[i][b]) / segs[i] for b in idx], 2.0))
    return out


def check_zero_tension(complex: CubeComplex, path: PiecewisePath,
                       tol: float = RESIDUAL_TOL) -> ConditionReport:
    """Balance of normalized displacement projections on each shared face."""
    check_p(path.p, smooth=True)
    res = _tension_residuals(path, _interior_data(complex, path))
    return ConditionReport(zero_tension_ok=tuple(r <= tol for r in res),
                           worst_residual=max(res, default=0.0))


def _submask_norms(vec: Sequence[float], mask: int, p: float) -> dict[int, float]:
    """lp norm of ``vec`` restricted to each submask of ``mask``."""
    parts: dict[int, list[float]] = {0: []}
    for b, t in enumerate(vec):
        if mask >> b & 1:
            parts.update({s | 1 << b: a + [t] for s, a in list(parts.items())})
    return {s: lp_norm(a, p) for s, a in parts.items()}


def _no_shortcut_margins(complex: CubeComplex, path: PiecewisePath,
                         data) -> list[tuple[float, CubeRef]]:
    """Least no-shortcut margin at each interior break, with its corner cube.

    At a break whose previous/next minimal cubes C, C' share the cube D, the
    margin of a bipartition C = D x A1 x A2, C' = D x B1 x B2 is
    |dx|_A1 |dy|_B2 - |dx|_A2 |dy|_B1, taken over the bipartitions whose
    corner cube D x B1 x A2 is a cube of the complex.  A negative margin means
    the path can be shortened through that corner cube.
    """
    p = path.p
    pts = path._points()
    out = []
    for i, c_prev, c_next, d in data:
        ea = c_prev.mask & ~d.mask
        eb = c_next.mask & ~d.mask
        nx = _submask_norms([s - t for s, t in zip(pts[i - 1], pts[i])], ea, p)
        ny = _submask_norms([s - t for s, t in zip(pts[i + 1], pts[i])], eb, p)
        worst = (math.inf, d)
        for a2, na2 in nx.items():
            na1 = nx[ea & ~a2]
            for b1, nb1 in ny.items():
                corner_mask = d.mask | b1 | a2
                corner = CubeRef(d.corner & ~corner_mask, corner_mask)
                if not complex.is_cube(corner):
                    continue
                margin = na1 * ny[eb & ~b1] - na2 * nb1
                if margin < worst[0]:
                    worst = (margin, corner)
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
    margins = [m for m, _ in _no_shortcut_margins(complex, path, _interior_data(complex, path))]
    return ConditionReport(no_shortcut_ok=tuple(m >= -tol for m in margins),
                           worst_residual=max([0.0] + [-m for m in margins]))


def check_local_geodesic(complex: CubeComplex, path: PiecewisePath,
                         tol: float = RESIDUAL_TOL) -> ConditionReport:
    """Both checks above, on one pass over the interior breaks."""
    check_p(path.p, smooth=True)
    data = _interior_data(complex, path)
    res = _tension_residuals(path, data)
    margins = [m for m, _ in _no_shortcut_margins(complex, path, data)]
    return ConditionReport(zero_tension_ok=tuple(r <= tol for r in res),
                           no_shortcut_ok=tuple(m >= -tol for m in margins),
                           worst_residual=max(max(res, default=0.0),
                                              max([0.0] + [-m for m in margins])))
