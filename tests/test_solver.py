import dataclasses
import gc
import math
import weakref
from typing import Callable, Optional

import numpy as np
import pytest

from lpcube import analysis as an
from lpcube import complexes as cc
from lpcube import fixtures
from lpcube import solver as sv
from lpcube.analysis import sample_point
from lpcube.complexes import CubeRef, Point
from lpcube.errors import (DisjointCubes, LpCubeError, NoCommonCube, NoConvergence,
                           ScaleExceeded, UniquenessViolation)
from lpcube.solver import RESIDUAL_TOL, SHORT, _phi, _segments, _units

from conftest import build_wedge_instance


def scb_break_root(p):
    """Independent oracle for the square/3-cube break point: bisection on the
    balance equation z/(z^p+1)^(1/p) = (1-z)/((1-z)^p+2)^(1/p)."""
    f = lambda z: z / (z ** p + 1) ** (1 / p) - (1 - z) / (((1 - z) ** p + 2) ** (1 / p))
    lo, hi = 1e-12, 1 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


SCB_X = Point.make(0b0010)    # far corner of the square page
SCB_Y = Point.make(0b1101)    # far corner of the 3-cube

# a grid222 gallery whose optimum at p = 1.5 has two breaks 0.0054 apart
COALESCE_X = Point(16, ((0, 0.25378496355503777), (2, 0.054271318428617044),
                        (5, 0.5829353996813581)))
COALESCE_Y = Point(5, ((1, 0.8582492854957865), (3, 0.8581070091172366),
                       (4, 0.4674530074787165)))
COALESCE_CUBES = (CubeRef(16, 37), CubeRef(17, 38), CubeRef(1, 22), CubeRef(5, 26))


def box_clamp_distance(point_vec, cube, n, p):
    """lp distance from an ambient point to a cube, via per-coordinate
    clamping: the reference for the solver's face bounds."""
    gaps = [0.0] * n
    for i in range(n):
        bit = 1 << i
        if cube.mask & bit:
            lo, hi = 0.0, 1.0
        else:
            lo = hi = 1.0 if cube.corner & bit else 0.0
        t = float(point_vec[i])
        if t < lo:
            gaps[i] = lo - t
        elif t > hi:
            gaps[i] = t - hi
    return sv.lp_norm(gaps, p)


def brute_dominated(galleries):
    """(G, G') cube tuples with G' = G plus one cube E inserted between
    consecutive cubes C, C' of G, E containing the face C n C'."""
    out = []
    for g in galleries:
        for h in galleries:
            a, b = g.cubes, h.cubes
            if len(b) != len(a) + 1:
                continue
            for j in range(1, len(a)):
                if (b[:j] == a[:j] and b[j + 1:] == a[j:]
                        and b[j].contains_cube(cc.cube_intersection(a[j - 1], a[j]))):
                    out.append((a, b))
    return out


def staircase(k: int) -> cc.CubeComplex:
    """The vertices (i, j) of grid(k,k,0) with i + j <= k: an irreducible
    complex (the x hyperplanes are nested, so are the y ones, and x_k does
    not cross y_1) whose hulls hold many galleries."""
    g = cc.grid(k, k, 0)
    low = (1 << k) - 1
    steps = lambda v: bin(v & low).count("1") + bin(v >> k).count("1")
    return cc.CubeComplex(g.hyperplanes, [v for v in g.vertices if steps(v) <= k])


def tree_product(seed: int, sizes: tuple[int, int] = (7, 7)) -> cc.CubeComplex:
    """The product of two random trees of the given edge counts: each new
    vertex hangs from a random earlier one, so the trees branch.  A vertex
    of a tree is the set of its edges on the way from the root; a vertex of
    the product is the pair, one tree's hyperplanes above the other's."""
    rng = np.random.default_rng([96, seed])
    trees = []
    for k in sizes:
        masks = [0]
        for i in range(k):
            masks.append(masks[int(rng.integers(i + 1))] | 1 << i)
        trees.append(masks)
    labels = [f"s{i}" for i in range(sizes[0])] + [f"t{i}" for i in range(sizes[1])]
    return cc.CubeComplex(labels, [u | v << sizes[0] for u in trees[0] for v in trees[1]])


def grid_coordinates(cx: cc.CubeComplex) -> Callable[[Point], np.ndarray]:
    """A point of a grid in [0, n1] x [0, n2] x [0, n3]: per axis, the sum of
    the ambient coordinates of that axis's hyperplanes."""
    n = len(cx.hyperplanes)
    axes = [[h for h, label in enumerate(cx.hyperplanes) if label[0] == a] for a in "xyz"]

    def box(point: Point) -> np.ndarray:
        vec = point.ambient(n)
        return np.array([vec[ax].sum() for ax in axes])

    return box


# -- the dense reference kernel ------------------------------------------------
# A dense chain solve: every block entry through a closure, every segment
# measured on all n axes.  The solver's support kernel must reproduce it
# float for float.

def _tension(axes: list[list[int]], unit: list[list[float]]) -> float:
    """Worst zero-tension residual of the breaks: per break j, the l2 norm of
    the jump of displacement over length across it, on its free axes
    ``axes[j]``."""
    worst = 0.0
    for free, before, after in zip(axes, unit, unit[1:]):
        jumps = [before[i] - after[i] for i in free]
        worst = max(worst, math.sqrt(sum([t * t for t in jumps])))
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
    only on the moving free coordinates and solved by ``_eliminate``; a
    singular one counts as a failed step.  A coordinate is held where it
    sits on a side of its face box with the length gradient pointing out.
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

    def put(values: list[float]) -> None:
        for (j, i), t in zip(coords, values):
            chain[j + 1][i] = t

    nu, diffs = _segments(chain, p)
    unit = _units(nu, diffs)
    res = _tension(axes, unit)
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
        moving = [c for c, (t, g) in enumerate(zip(v, grad))
                  if not (t == 0.0 and g > 0.0 or t == 1.0 and g < 0.0)]
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
        alpha = 1.0
        for _ in range(50):
            put([min(max(a + alpha * t, 0.0), 1.0) for a, t in zip(v, step)])
            nu_t, diffs = _segments(chain, p)
            gain = length - sum(nu_t)
            if gain > 0.0 or (abs(gain) <= 4e-16 * length
                              and _tension(axes, _units(nu_t, diffs)) < res):
                break
            alpha *= 0.5
        else:
            put(v)
            return res <= RESIDUAL_TOL, None
        # a full step that was accepted earns trust; a cut-back step loses it
        damp = (0.0 if damp < 1e-3 else 0.25 * damp) if alpha == 1.0 else max(4.0 * damp, 1e-2)
        nu, unit = nu_t, _units(nu_t, diffs)
        res = _tension(axes, unit)
    return res <= gate, None


class TestEnumerateGalleries:
    def test_single_cube(self, square):
        x = Point.make(0, {0: 0.2, 1: 0.3})
        y = Point.make(0, {0: 0.9, 1: 0.8})
        gals = sv.enumerate_galleries(square, x, y)
        assert len(gals) == 1
        assert gals[0].cubes == (CubeRef(0, 3),)

    def test_two_squares_at_vertex(self, corner):
        # no corner cube exists between pages of a vertex wedge
        book = cc.load(cc.dump(cc.corner_complex()))
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        sub = cc.CubeComplex(
            ["a1", "a2", "b1", "b2"],
            [0, 1, 2, 3, 4, 8, 12],  # drop the corner square's far vertex
        )
        gals = sv.enumerate_galleries(sub, x, y)
        assert len(gals) == 1
        assert len(gals[0].cubes) == 2

    def test_corner_complex_routes(self, corner):
        # both combinatorial routes: directly through v, and via the corner
        # square (the enumeration convention yields exactly these two)
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        gals = sv.enumerate_galleries(corner, x, y)
        keys = {tuple(len(g.cubes) for _ in [0]) + (len(g.cubes),) for g in gals}
        assert len(gals) == 2
        assert sorted(len(g.cubes) for g in gals) == [2, 3]

    def test_gallery_invariants(self, grid222, corner, scb):
        rng = np.random.default_rng(17)
        pairs = [(cx, sample_point(cx, rng), sample_point(cx, rng))
                 for cx in (grid222, corner, scb) for _ in range(10)]
        g333 = cc.grid(3, 3, 3)
        pairs.append((g333, Point.make(0), Point.make(max(g333.vertices))))
        for cx, x, y in pairs:
            for g in sv.enumerate_galleries(cx, x, y):
                assert g.cubes[0].contains_cube(x.minimal_cube())
                assert g.cubes[-1].contains_cube(y.minimal_cube())
                # the dropped-hyperplane rule alone keeps every walk simple
                assert len(set(g.cubes)) == len(g.cubes)
                seen_then_dropped = 0
                prev = None
                for q in g.cubes:
                    if prev is not None:
                        assert sv.cube_intersection(prev, q) is not None
                        assert not q.mask & seen_then_dropped
                        seen_then_dropped |= prev.mask & ~q.mask
                    prev = q

    def test_grid333_corner_to_corner_count(self):
        # simple paths from distinct start cubes never repeat, so every
        # enumerated gallery is distinct without a dedup pass
        g = cc.grid(3, 3, 3)
        gals = sv.enumerate_galleries(g, Point.make(0), Point.make(max(g.vertices)))
        assert len(gals) == len(set(gals)) == 409
        assert gals == sorted(gals, key=lambda gal: gal.cubes)

    def test_disjoint_cubes_are_a_domain_error(self, square):
        # opposite corners of the square share no face
        g = sv.Gallery((CubeRef(0, 0), CubeRef(3, 0)))
        with pytest.raises(DisjointCubes):
            g.faces()
        with pytest.raises(DisjointCubes):
            sv.optimize_breakpoints(square, g, Point.make(0), Point.make(3), 2.0)

    def test_cap(self, grid222, monkeypatch):
        x = Point.make(0, {0: 0.5, 2: 0.5, 4: 0.5})
        y = Point.make(0b010101, {1: 0.5, 3: 0.5, 5: 0.5})
        monkeypatch.setattr(sv, "GALLERY_CAP", 3)
        with pytest.raises(ScaleExceeded):
            sv.enumerate_galleries(cc.grid(2, 2, 2), x, y)


class TestOptimizeBreakpoints:
    def test_single_cube_affine(self, square):
        x = Point.make(0, {0: 0.1, 1: 0.1})
        y = Point.make(0, {0: 0.8, 1: 0.9})
        g = sv.Gallery((CubeRef(0, 3),))
        path = sv.optimize_breakpoints(square, g, x, y, 2.0)
        assert len(path.breaks) == 2
        assert abs(path.length - math.hypot(0.7, 0.8)) < 1e-12

    def test_forced_concatenation_through_vertex(self, corner):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        g = sv.Gallery((CubeRef(0, 0b0011), CubeRef(0, 0b1100)))
        path = sv.optimize_breakpoints(corner, g, x, y, 2.0)
        assert len(path.breaks) == 3
        assert path.breaks[1] == Point.make(0)
        expected = 2 * math.hypot(0.5, 0.5)
        assert abs(path.length - expected) < 1e-10

    def test_coalescing_breaks_are_split_when_that_shortens(self, grid222):
        # at p = 1.5 the optimum through this gallery keeps two breaks 0.0054
        # apart; pinning them together (dropping the cube between them) is
        # 1.3e-6 longer and fails the no-shortcut condition
        x, y, cubes = COALESCE_X, COALESCE_Y, COALESCE_CUBES
        path = sv.optimize_breakpoints(grid222, sv.Gallery(cubes), x, y, 1.5)
        pinned = sv.optimize_breakpoints(grid222, sv.Gallery(cubes[:2] + cubes[3:]),
                                         x, y, 1.5)
        assert len(path.breaks) == 5
        assert path.length < pinned.length - 1e-6
        assert sv.check_local_geodesic(grid222, path, tol=1e-8).all_ok
        assert not sv.check_local_geodesic(grid222, pinned, tol=1e-8).all_ok

    def test_length_is_the_sum_the_solve_minimized(self, grid222):
        # the reported length is the sum of the chain solve's own segment
        # norms at the path's breaks, to the last bit
        n = len(grid222.hyperplanes)
        paths = [sv.optimize_breakpoints(grid222, sv.Gallery(COALESCE_CUBES),
                                         COALESCE_X, COALESCE_Y, 1.5)]
        rng = np.random.default_rng(91)
        for i in range(20):
            x, y = sample_point(grid222, rng), sample_point(grid222, rng)
            paths.append(sv.geodesic(grid222, x, y, (1.5, 2.0, 3.0)[i % 3]))
        assert len({len(path.breaks) for path in paths}) >= 3
        for path in paths:
            nus = sv._segments([b.ambient(n).tolist() for b in path.breaks], path.p)[0]
            assert path.length == sum(nus)
            assert path.segment_lengths().tolist() == nus

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
    def test_square_cube_book_break(self, scb, p):
        path = sv.geodesic(scb, SCB_X, SCB_Y, p)
        assert len(path.breaks) == 3
        z = dict(path.breaks[1].coords)[0]
        assert abs(z - scb_break_root(p)) < 1e-9

    def test_closed_form_at_p2(self, scb):
        path = sv.geodesic(scb, SCB_X, SCB_Y, 2.0)
        z = dict(path.breaks[1].coords)[0]
        assert abs(z - 1 / (1 + math.sqrt(2))) < 1e-12


def null_segment_chain(grid222):
    """The chain and axes of ``test_null_segment``: the pinned COALESCE
    optimum with break 2 doubled (segment 2 null) and break 1 moved to the
    middle of its face."""
    cubes = COALESCE_CUBES
    pinned = sv.optimize_breakpoints(grid222, sv.Gallery(cubes[:2] + cubes[3:]),
                                     COALESCE_X, COALESCE_Y, 1.5)
    _, axes = sv._face_boxes(sv.Gallery(cubes).faces(), 6)
    pts = pinned.ambient_breaks().tolist()
    chain = [pts[0], pts[1], pts[2], pts[2][:], pts[3]]
    for i in axes[0]:
        chain[1][i] = 0.5
    return chain, axes


def recorded_chain_solves(monkeypatch):
    """The inputs (chain, axes, p, max_iter, mergeable) of every chain solve
    that geodesics on four complexes at five exponents make.  Each pair is
    swept over the exponents on one complex, so from the second exponent on
    most chains start from the answer at the one before.  The complexes are
    irreducible: on a product of trees the start chain is the answer, and
    no chain is solved."""
    calls = []
    solve = sv._newton_chain

    def recording(chain, axes, p, max_iter, mergeable):
        calls.append(([row[:] for row in chain], axes, p, max_iter, mergeable[:]))
        return solve(chain, axes, p, max_iter, mergeable)

    monkeypatch.setattr(sv, "_newton_chain", recording)
    for cx in (staircase(5), cc.corner_complex(), cc.square_cube_book(), staircase(6)):
        for i in range(17):
            rng = np.random.default_rng([93, i])
            x, y = sample_point(cx, rng), sample_point(cx, rng)
            for p in (1.5, 2.0, 3.0, 16.0, 64.0):
                try:
                    sv.geodesic(cx, x, y, p)
                except LpCubeError:
                    pass
    monkeypatch.undo()
    return calls


class TestNewtonChain:
    def test_support_kernel_matches_the_dense_reference(self, grid222, monkeypatch):
        # every segment measured on its support, every system built from
        # per-segment blocks, and still the dense kernel's chain to the bit
        calls = recorded_chain_solves(monkeypatch)
        assert len(calls) >= 300
        chain, axes = null_segment_chain(grid222)
        calls += [(chain, axes, 1.5, sv.NEWTON_CAP, [False, False, m, False])
                  for m in (True, False)]
        held = 0
        for chain, axes, p, max_iter, mergeable in calls:
            got, want = [row[:] for row in chain], [row[:] for row in chain]
            assert (sv._newton_chain(got, axes, p, max_iter, mergeable)
                    == _newton_chain(want, axes, p, max_iter, mergeable))
            assert [list(map(float.hex, row)) for row in got] == \
                [list(map(float.hex, row)) for row in want]
            held += any(got[j + 1][i] in (0.0, 1.0) for j, row in enumerate(axes) for i in row)
        # some solves end with a coordinate held on a side of its face box
        assert held > 0

    def test_singular_tension_system_takes_the_lm_step(self, monkeypatch):
        # refuse every tension system (the Jacobian is not symmetric at
        # p = 3): each step falls back to the Levenberg-Marquardt system on
        # the symmetrized length Hessian, which reaches the same geodesic.
        # corner_complex is no product of trees, so its chain starts off the
        # geodesic; want is solved on another instance, which the solve of
        # got cannot remember
        corner = cc.corner_complex()
        rng = np.random.default_rng([77, 2])
        x, y = sample_point(corner, rng), sample_point(corner, rng)
        want = sv.geodesic(cc.corner_complex(), x, y, 3.0)
        eliminate = sv._eliminate
        systems = {"tension": 0, "hessian": 0}

        def singular_unless_symmetric(a, b):
            if all(a[r][c] == a[c][r] for r in range(len(a)) for c in range(r)):
                systems["hessian"] += 1
                return eliminate(a, b)
            systems["tension"] += 1
            return None

        monkeypatch.setattr(sv, "_eliminate", singular_unless_symmetric)
        got = sv.geodesic(corner, x, y, 3.0)
        assert systems["tension"] > 0 and systems["hessian"] > 0
        assert abs(got.length - want.length) <= 1e-10
        assert sv.check_local_geodesic(corner, got, tol=1e-8).all_ok

    @pytest.mark.parametrize("mergeable", [True, False])
    def test_null_segment(self, grid222, mergeable):
        # breaks 1 and 2 start coincident, as a merge hands them to the split:
        # segment 2 has length 0, no direction and no block in the Newton
        # systems.  Mergeable, it is handed back untouched; otherwise the
        # solve pulls the breaks apart to the optimum of the full gallery
        full = sv.optimize_breakpoints(grid222, sv.Gallery(COALESCE_CUBES),
                                       COALESCE_X, COALESCE_Y, 1.5)
        chain, axes = null_segment_chain(grid222)
        start = [row[:] for row in chain]
        out = sv._newton_chain(chain, axes, 1.5, sv.NEWTON_CAP, [False, False, mergeable, False])
        nu = sv._segments(chain, 1.5)[0]
        if mergeable:
            assert out == (False, 2)
            assert chain == start
        else:
            assert out == (True, None)
            assert nu[2] > 1e-3
            assert abs(sum(nu) - full.length) <= 1e-10


class TestGeodesic:
    def test_affine_in_one_cube(self, cube3):
        rng = np.random.default_rng(40)
        for p in (1.5, 2.0, 3.0):
            x = sample_point(cube3, rng)
            y = sample_point(cube3, rng)
            path = sv.geodesic(cube3, x, y, p)
            assert len(path.breaks) == 2
            n = 3
            direct = sv.lp_norm(x.ambient(n) - y.ambient(n), p)
            assert abs(path.length - direct) < 1e-12

    def test_corner_outer_diagonal(self, corner):
        # outer corners of C and C': straight unfolded segment through v
        x = Point.make(0b0011)
        y = Point.make(0b1100)
        path = sv.geodesic(corner, x, y, 2.0)
        assert abs(path.length - 2 * math.sqrt(2)) < 1e-12
        mid = path.evaluate(0.5)
        assert mid == Point.make(0)

    def test_grid_diagonal_against_oracle(self, grid222):
        from lpcube import oracle as orc
        x = Point.make(0, {0: 0.5, 2: 0.5, 4: 0.5})
        y = Point.make(0b010101, {1: 0.5, 3: 0.5, 5: 0.5})
        path = sv.geodesic(grid222, x, y, 2.0)
        upper = orc.oracle_distance(grid222, x, y, 2.0, 0.05)
        assert upper >= path.length - 1e-9
        assert abs(upper - path.length) <= 0.05

    def test_same_point(self, square):
        x = Point.make(0, {0: 0.4, 1: 0.6})
        path = sv.geodesic(square, x, x, 2.0)
        assert path.length == 0.0
        assert path.evaluate(0.7) == x

    def test_large_p_sample_pair(self, corner):
        # at p = 16 the powers |u|^(p-2) of small displacement coordinates
        # underflow; the solve still certifies and meets the oracle
        from lpcube import oracle as orc
        rng = np.random.default_rng([5, 7])
        x = an.sample_point(corner, rng)
        y = an.sample_point(corner, rng)
        path = sv.geodesic(corner, x, y, 16.0)
        assert sv.check_local_geodesic(corner, path, tol=1e-8).all_ok
        upper = orc.oracle_distance(corner, x, y, 16.0, 0.05)
        assert path.length - 1e-9 <= upper <= path.length + 0.05

    def test_large_p_near_tie_returns_the_certified_path(self, grid222):
        # at p = 16 two galleries' optima lie 2e-12 apart, inside the tie
        # window, and only the shorter passes no-shortcut; comparing the two
        # raised UniquenessViolation, the certificate picks the geodesic
        rng = np.random.default_rng([9, 8])
        x = an.sample_point(grid222, rng)
        y = an.sample_point(grid222, rng)
        path = sv.geodesic(grid222, x, y, 16.0)
        assert path.length == pytest.approx(1.12942158698474, abs=1e-13)
        assert sv.check_local_geodesic(grid222, path, tol=1e-8).all_ok

    def test_first_certified_candidate_ends_the_search(self, solve_log):
        # corner to corner of grid(2,2,2): 13 galleries, all optimal.  Solving
        # every candidate took 13 full chain solves; the first one certified,
        # and now its start chain, the l1 crossing schedule, certifies as it
        # is.  Corner to corner of the staircase, no product: 22 galleries,
        # and the first one solved certifies.  A fresh complex per p, so
        # that no remembered answer stands in for the search
        x, y = Point.make(0), Point.make(0b111111)
        corners = Point.make(0b11111), Point.make(0b11111 << 5)
        for p in (1.5, 2.0, 3.0):
            grid222 = cc.grid(2, 2, 2)
            assert len(sv.enumerate_galleries(grid222, x, y)) == 13
            solve_log.calls.clear()
            path = sv.geodesic(grid222, x, y, p)
            assert path.length == pytest.approx(2 * 3 ** (1 / p), abs=1e-12)
            assert path._report[1].all_ok
            assert solve_log.counts() == {"full": 0, "screen": 0}
            # the three middle walls are crossed at once, at the centre
            # vertex: its break, repeated on three faces, is written once
            assert path.breaks == (x, Point.make(0b010101), y)
            stairs = staircase(5)
            assert len(sv.enumerate_galleries(stairs, *corners)) == 22
            solve_log.calls.clear()
            path = sv.geodesic(stairs, *corners, p)
            assert path._report[1].all_ok
            assert solve_log.counts() == {"full": 1, "screen": 1}

    def test_dominated_galleries_are_never_longer(self, corner, scb, grid222):
        # G' dominates G when it is G with one cube inserted between two
        # consecutive cubes that contains their shared face; G' is never longer
        rng = np.random.default_rng(15)
        pairs = 0
        for cx in (corner, scb, grid222):
            for _ in range(8):
                x, y = sample_point(cx, rng), sample_point(cx, rng)
                if cx.minimal_cube_pair(x, y) is not None:
                    continue
                galleries = sv.enumerate_galleries(cx, x, y)
                dominated = brute_dominated(galleries)
                assert {g.cubes for g in sv._undominated(galleries)} == \
                    {g.cubes for g in galleries} - {g for g, _ in dominated}
                for p in (1.5, 2.0, 3.0):
                    for g, h in dominated:
                        pairs += 1
                        short = sv.optimize_breakpoints(cx, sv.Gallery(g), x, y, p)
                        long = sv.optimize_breakpoints(cx, sv.Gallery(h), x, y, p)
                        assert long.length <= short.length + 1e-12, (g, h, p)
        assert pairs >= 30

    def test_dominated_galleries_are_never_solved(self, solve_log):
        # they come after every other gallery, and at these p a path certifies
        # before the search gets to them.  A fresh complex per p, each pair
        # after another one, so that every solve is a search
        rng = np.random.default_rng(16)
        seen = 0
        for make in (cc.corner_complex, cc.square_cube_book, lambda: cc.grid(2, 2, 2)):
            cx, pairs = make(), []
            for _ in range(20):
                x, y = sample_point(cx, rng), sample_point(cx, rng)
                if cx.minimal_cube_pair(x, y) is not None:
                    continue
                dominated = {g for g, _ in brute_dominated(sv.enumerate_galleries(cx, x, y))}
                seen += len(dominated)
                pairs.append((x, y, dominated))
            for p in (1.5, 2.0, 3.0):
                cx = make()
                for x, y, dominated in pairs:
                    solve_log.calls.clear()
                    sv.geodesic(cx, x, y, p)
                    assert not dominated & {g.cubes for _, g in solve_log.calls}
        assert seen >= 20

    def test_dominated_gallery_is_tried_when_nothing_else_certifies(self):
        # at p = 64 the chain solve through the edge square stalls (converged
        # False, at the same length); the two-square gallery it dominates
        # certifies.  A new complex, which remembers no answer
        corner = cc.corner_complex()
        rng = np.random.default_rng([77, 142])
        x, y = sample_point(corner, rng), sample_point(corner, rng)
        galleries = sv.enumerate_galleries(corner, x, y)
        assert [len(g.cubes) for g in sv._undominated(galleries)] == [3]
        path = sv.geodesic(corner, x, y, 64.0)
        assert len(path.gallery.cubes) == 2
        assert sv.check_local_geodesic(corner, path, tol=1e-8).all_ok

    def test_solved_galleries_follow_the_fixed_order(self, solve_log):
        # one order: the undominated galleries by start-chain length, then
        # the dominated ones; no prune fires at these pairs and p, so the
        # solved galleries are a prefix of it.  In grid(3,3,3) [78, 15] the
        # first path failed no-shortcut, and the next one solved had to be
        # the second candidate, not the first gallery through the violated
        # corner cube.  The chains now start on the l1 crossing schedule,
        # exact on products of trees, and the first candidate's start chain
        # certifies there with no solve; the staircase, no product, still
        # solves several.  A fresh complex per pair and p, which remembers
        # no answer
        grid333 = cc.grid(3, 3, 3)
        rng = np.random.default_rng([78, 15])
        pairs = [(lambda: cc.grid(3, 3, 3), sample_point(grid333, rng),
                  sample_point(grid333, rng))]
        shared = np.random.default_rng(17)
        for make, rng in ((cc.corner_complex, shared), (cc.square_cube_book, shared),
                          (lambda: cc.grid(2, 2, 2), shared),
                          (lambda: staircase(5), np.random.default_rng(97))):
            cx = make()
            for _ in range(20):
                x, y = sample_point(cx, rng), sample_point(cx, rng)
                if (cx.minimal_cube_pair(x, y) is None
                        and len(sv.enumerate_galleries(cx, x, y)) > 1):
                    pairs.append((make, x, y))
        assert len(pairs) >= 15
        several = 0
        for make, x, y in pairs:
            for p in (1.5, 2.0, 3.0):
                cx = make()
                galleries = sv.enumerate_galleries(cx, x, y)
                dominated = {g for g, _ in brute_dominated(galleries)}
                n = len(cx.hyperplanes)
                xa, ya = x.ambient(n).tolist(), y.ambient(n).tolist()
                schedule = sv._schedule(cx, x, y, xa, ya)
                first = sorted((g.cubes for g in galleries if g.cubes not in dominated),
                               key=lambda c: (sum(sv._segments(sv._nudge(
                                   sv._start_chain(xa, ya, sv._layout(cx, c), schedule),
                                   sv._layout(cx, c)[2]), p)[0]), c))
                order = first + [g.cubes for g in galleries if g.cubes in dominated]
                solve_log.calls.clear()
                sv.geodesic(cx, x, y, p)
                solved = [g.cubes for kind, g in solve_log.calls if kind == "full"]
                assert solved == order[:len(solved)], (x, y, p)
                several += len(solved) > 1
        assert several >= 3

    def test_full_solves_per_multi_gallery_geodesic(self, solve_log):
        # the candidate with the shortest start chain is mostly the one that
        # certifies, over the 60 pairs of each of these seeds (each reads 1.0
        # on the l1 crossing schedule; from the straight ambient start they
        # read 1.01 to 1.17, and the bound held only on all 300).  A fresh
        # complex per seed and p, each pair after another one, so that every
        # solve is a search
        grid222 = cc.grid(2, 2, 2)
        multi = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pairs = []
            for _ in range(60):
                x, y = sample_point(grid222, rng), sample_point(grid222, rng)
                if (grid222.minimal_cube_pair(x, y) is None
                        and len(sv.enumerate_galleries(grid222, x, y)) > 1):
                    pairs.append((x, y))
            solve_log.calls.clear()
            for p in (1.5, 2.0, 3.0):
                cx = cc.grid(2, 2, 2)
                for x, y in pairs:
                    sv.geodesic(cx, x, y, p)
            multi += 3 * len(pairs)
            assert solve_log.counts()["full"] <= 1.10 * 3 * len(pairs), seed
        assert multi >= 300

    def test_face_bounds_match_box_clamping(self, grid222):
        # the pruning bounds equal, to the last bit, the per-face,
        # per-coordinate box clamping and l1 sums they are computed from
        rng = np.random.default_rng(61)
        n = len(grid222.hyperplanes)
        multi = 0
        for _ in range(12):
            x = sample_point(grid222, rng)
            y = sample_point(grid222, rng)
            xa, ya = x.ambient(n), y.ambient(n)
            galleries = sv.enumerate_galleries(grid222, x, y)
            multi += len(galleries) > 1
            for p in (1.5, 2.0, 3.0):
                l1_factor = 3 ** (1 - 1 / p)
                for f in {f for g in galleries for f in g.faces()}:
                    lp, l1 = [], []
                    for vec in (xa, ya):
                        lp.append(box_clamp_distance(vec, f, n, p))
                        l1.append(0.0)
                        for i in range(n):
                            if not f.mask >> i & 1:
                                l1[-1] += abs(vec[i] - float(f.corner >> i & 1))
                    want = max(lp[0] + lp[1], (l1[0] + l1[1]) / l1_factor)
                    assert sv._face_bound(f, xa.tolist(), ya.tolist(), p, l1_factor) == want
        assert multi >= 3

    def test_no_face_bound_before_a_path_is_solved(self, monkeypatch):
        # the prune needs a solved length, so a search that certifies its
        # first candidate measures no face: corner to corner, 13 galleries,
        # on a fresh complex per p, so that each geodesic() is a search
        measured = []
        bound = sv._face_bound
        monkeypatch.setattr(sv, "_face_bound", lambda f, *args: measured.append(f) or bound(f, *args))
        x, y = Point.make(0), Point.make(0b111111)
        for p in (1.5, 2.0, 3.0):
            grid222 = cc.grid(2, 2, 2)
            assert len(sv.enumerate_galleries(grid222, x, y)) == 13
            sv.geodesic(grid222, x, y, p)
        assert measured == []

    def test_layouts_are_derived_once_per_complex(self, monkeypatch):
        # a second search on the same pair, at another exponent, derives no
        # face; the cached layouts hold CubeRefs and lists, never the complex
        cx = cc.grid(2, 2, 2)
        x, y = Point.make(0), Point.make(max(cx.vertices))
        derived = []
        faces = sv._faces
        monkeypatch.setattr(sv, "_faces", lambda cubes: derived.append(cubes) or faces(cubes))
        sv.geodesic(cx, x, y, 2.0)
        assert len(derived) == len(set(derived)) > 1
        # forget the answer, which would start the solve at p = 3 from it
        del cx._solver_cache["last geodesic"]
        sv.geodesic(cx, x, y, 3.0)
        assert len(derived) == len(set(derived))
        layouts = [v for k, v in cx._solver_cache.items() if k[0] == "layout"]
        assert {k[1] for k in cx._solver_cache if k[0] == "layout"} == set(derived)
        for faces, template, axes in layouts:
            assert all(type(f) is CubeRef for f in faces)
            assert all(type(t) is float for row in template for t in row)
            assert all(type(i) is int for row in axes for i in row)

    def test_hyperplane_discipline(self, grid222, corner):
        # the chosen gallery never re-enters a dropped hyperplane
        rng = np.random.default_rng(50)
        for cx in (grid222, corner):
            for _ in range(15):
                x = sample_point(cx, rng)
                y = sample_point(cx, rng)
                path = sv.geodesic(cx, x, y, 2.0)
                dropped = 0
                prev = None
                for q in path.gallery.cubes:
                    if prev is not None:
                        assert not q.mask & dropped
                        dropped |= prev.mask & ~q.mask
                    prev = q


class TestLastAnswer:
    """geodesic() remembers the last answer per complex."""

    X = Point.make(0, {0: 0.3, 1: 0.9})
    Y = Point.make(0, {2: 0.8, 3: 0.7})

    def test_a_repeat_is_a_new_path_with_the_same_answer(self, solve_log):
        cx = cc.corner_complex()
        first = sv.geodesic(cx, self.X, self.Y, 2.0)
        assert solve_log.counts()["full"] > 0
        solve_log.calls.clear()
        again = sv.geodesic(cx, self.X, self.Y, 2.0)
        assert solve_log.calls == []
        assert again is not first
        assert (again.breaks, again.gallery, again.converged) == \
            (first.breaks, first.gallery, first.converged)
        assert again.length == first.length

    def test_only_the_same_query_on_the_same_complex_is_remembered(self, solve_log):
        # a staircase pair whose geodesic moves with p: on corner_complex,
        # X to Y runs straight through the unfolded squares at every p, so
        # the answer at p = 2 certifies at p = 3 and no chain is solved
        rng = np.random.default_rng([77, 1])
        cx = staircase(3)
        x0, y0 = sample_point(cx, rng), sample_point(cx, rng)
        sv.geodesic(cx, x0, y0, 2.0)
        solve_log.calls.clear()
        assert sv.geodesic(cx, x0, y0, 2).p == 2.0
        assert solve_log.calls == []
        for other, x, y, p in ((cx, x0, y0, 3.0), (cx, y0, x0, 3.0),
                               (staircase(3), y0, x0, 3.0)):
            solve_log.calls.clear()
            sv.geodesic(other, x, y, p)
            assert solve_log.counts()["full"] > 0, (x, y, p)

    def test_a_raised_solve_leaves_no_record(self, solve_log, monkeypatch):
        cx = cc.corner_complex()
        cap = sv.GALLERY_CAP
        monkeypatch.setattr(sv, "GALLERY_CAP", 0)
        with pytest.raises(ScaleExceeded):
            sv.geodesic(cx, self.X, self.Y, 2.0)
        monkeypatch.setattr(sv, "GALLERY_CAP", cap)
        sv.geodesic(cx, self.X, self.Y, 2.0)
        assert solve_log.counts()["full"] > 0

    @staticmethod
    def _dropped_complex_is_freed(y, whole):
        enabled = gc.isenabled()
        gc.disable()
        try:
            cx = cc.corner_complex()
            path = sv.geodesic(cx, TestLastAnswer.X, y, 2.0)
            assert (cx.hull_restriction([TestLastAnswer.X, y]) is cx) == whole
            assert sv.check_local_geodesic(cx, path).all_ok
            gone = weakref.ref(cx)
            del cx, path
            assert gone() is None
        finally:
            if enabled:
                gc.enable()

    def test_a_dropped_complex_needs_no_cyclic_collection(self):
        # the record holds a path's fields and its report, not the path,
        # whose complex would close a cycle: complex -> record -> path ->
        # complex; nor does the hull cache hold the complex when the hull
        # is the whole complex, as it is from X to Y
        self._dropped_complex_is_freed(self.Y, whole=True)

    def test_a_complex_dropped_after_a_sub_hull_needs_no_cyclic_collection(self):
        self._dropped_complex_is_freed(Point.make(0, {0: 0.5}), whole=False)


class TestContinuation:
    """A new p for the remembered endpoints starts from the remembered answer."""

    # the exponents of tools/answers.py's [77, i] cases
    ANSWER_SET_PS = (1.01, 1.05, 1.5, 2.0, 3.0, 8.0, 12.0, 16.0, 32.0, 64.0)

    def test_corner_to_corner_is_one_chain_solve(self, solve_log):
        # the staircase's 22 galleries: from the second exponent on, the
        # remembered gallery is solved once, without a screen, and
        # certifies.  grid(2,2,2)'s 13: its remembered breaks are the
        # geodesic at every p and certify as they are, with no solve
        stairs, grid222 = staircase(5), cc.grid(2, 2, 2)
        corners = Point.make(0b11111), Point.make(0b11111 << 5)
        x, y = Point.make(0), Point.make(0b111111)
        for p in (1.5, 2.0, 3.0):
            solve_log.calls.clear()
            path = sv.geodesic(stairs, *corners, p)
            assert sv.check_local_geodesic(stairs, path).all_ok
            if p != 1.5:
                assert solve_log.counts() == {"full": 1, "screen": 0}
            solve_log.calls.clear()
            path = sv.geodesic(grid222, x, y, p)
            assert path.length == pytest.approx(2 * 3 ** (1 / p), abs=1e-12)
            assert path._report[1].all_ok
            assert solve_log.calls == []

    @pytest.mark.parametrize("make, i, before, p", [
        # corner_complex, two galleries: the continued chain does not converge
        (cc.corner_complex, 142, 32.0, 64.0),
        # staircase(4), six galleries: it converges, and fails no-shortcut.
        # corner_complex [77, 43] did so until the remembered breaks were
        # tried as they are: they are the geodesic at p = 32 too
        (lambda: staircase(4), 43, 16.0, 32.0),
    ], ids=["142-32.0-64.0", "43-16.0-32.0"])
    def test_an_uncertified_continuation_falls_back_to_the_search(self, solve_log, make, i,
                                                                     before, p):
        # the continued path through the remembered gallery is given up,
        # and the search returns the answer of a complex that remembers
        # nothing
        rng = np.random.default_rng([77, i])
        cx = make()
        x, y = sample_point(cx, rng), sample_point(cx, rng)
        remembered = sv.geodesic(cx, x, y, before).gallery
        solve_log.calls.clear()
        path = sv.geodesic(cx, x, y, p)
        assert solve_log.calls[0] == ("full", remembered)
        assert solve_log.counts()["screen"] > 0
        cold = sv.geodesic(make(), x, y, p)
        assert (path.breaks, path.gallery, path.converged) == \
            (cold.breaks, cold.gallery, cold.converged)

    def test_grid_sweeps_certify_the_straight_segment(self):
        # grid(2,2,2) is the product of three paths of two edges, so its lp
        # geodesic is the straight segment in [0, 2]^3, of length the lp norm
        # of the per-axis l1 distances.  Each pair swept over the answer
        # set's exponents on one complex certifies at every p
        cx = cc.grid(2, 2, 2)
        box = grid_coordinates(cx)
        for i in range(20):
            rng = np.random.default_rng([77, i])
            x, y = sample_point(cx, rng), sample_point(cx, rng)
            bx, by = box(x), box(y)
            for p in self.ANSWER_SET_PS:
                path = sv.geodesic(cx, x, y, p)
                assert sv.check_local_geodesic(cx, path).all_ok, (i, p)
                want = sv.lp_norm(np.abs(by - bx), p)
                assert abs(path.length - want) <= 1e-12 * want, (i, p)
                off = max(np.abs(box(path.evaluate(k / 64)) - (bx + k / 64 * (by - bx))).max()
                          for k in range(65))
                assert off <= 1e-8, (i, p)


class TestStartChain:
    """Chains start on the l1 crossing schedule, the geodesic of a product of trees."""

    PS = (1.01, 2.0, 8.0, 12.0, 16.0, 64.0)

    def test_the_schedule_on_a_tree_is_the_l1_arclength(self):
        # a tree is one factor, so every hyperplane between x and y is
        # crossed in turn: at time t the schedule's point is a point of the
        # tree at l1 distance t d from x and (1 - t) d from y, d = |x - y|_1
        rng = np.random.default_rng(41)
        cx = cc.tree([(f"v{int(rng.integers(i))}", f"v{i}") for i in range(1, 16)])
        n = len(cx.hyperplanes)
        for _ in range(40):
            x, y = sample_point(cx, rng), sample_point(cx, rng)
            xa, ya = x.ambient(n).tolist(), y.ambient(n).tolist()
            schedule = sv._schedule(cx, x, y, xa, ya)
            assert set(schedule) == {h for h in range(n) if xa[h] != ya[h]}
            d = sum(abs(t - s) for s, t in zip(xa, ya))
            for start, end in schedule.values():
                assert 0.0 <= start <= end <= 1.0
            for k in range(33):
                t = k / 32
                z = list(xa)
                for h, (start, end) in schedule.items():
                    f = min(max((t - start) / (end - start), 0.0), 1.0)
                    z[h] = (1.0 - f) * xa[h] + f * ya[h]
                inside = [h for h, u in enumerate(z) if 0.0 < u < 1.0]
                base = sum(1 << h for h, u in enumerate(z) if u == 1.0)
                assert len(inside) <= 1 and base in cx.vertices
                assert all(base | 1 << h in cx.vertices for h in inside)
                assert abs(sum(abs(u - s) for s, u in zip(xa, z)) - t * d) <= 1e-12 * d
                assert abs(sum(abs(u - s) for s, u in zip(z, ya)) - (1 - t) * d) <= 1e-12 * d

    @pytest.mark.parametrize("make", [
        lambda: cc.grid(2, 2, 2), lambda: cc.grid(12, 1, 0), lambda: cc.grid(3, 3, 3),
        lambda: cc.grid(4, 4, 0),
    ], ids=["grid222", "long_rectangle", "grid333", "grid440"])
    def test_cold_solves_on_a_grid_are_the_product_geodesic(self, make):
        # a grid is the product of the paths of its axes, so its lp geodesic
        # runs each axis's l1 geodesic at constant speed: the straight
        # segment in grid coordinates, of length the lp norm of the per-axis
        # l1 distances.  Each cold solve on a new complex, which remembers
        # no answer, so the search starts cold; then the same pairs swept
        # over the exponents on one complex, each solve continued from the
        # answer at the exponent before (certified, and up to 4.4e-7 off
        # the segment, while the remembered breaks were solved again)
        drawn, ladder = make(), make()
        box = grid_coordinates(drawn)
        for i in range(40):
            rng = np.random.default_rng([77, i])
            x, y = sample_point(drawn, rng), sample_point(drawn, rng)
            bx, by = box(x), box(y)
            for p, cx in [(p, make()) for p in self.PS] + [(p, ladder) for p in self.PS]:
                path = sv.geodesic(cx, x, y, p)
                assert sv.check_local_geodesic(cx, path).all_ok, (i, p)
                want = sv.lp_norm(np.abs(by - bx), p)
                assert abs(path.length - want) <= 1e-12 * want, (i, p)
                off = max(np.abs(box(path.evaluate(k / 64)) - (bx + k / 64 * (by - bx))).max()
                          for k in range(65))
                assert off <= 1e-12, (i, p)

    def test_products_of_two_trees_solve_no_chain(self, monkeypatch):
        # a product of two trees has d_p = |(d_1, d_2)|_p, with d_i the l1
        # distance in tree i, and its geodesic runs each tree's at constant
        # speed: the start chain is that geodesic and certifies as it is,
        # cold (a new complex per solve) and in a p ladder on one complex
        solves = []
        newton = sv._newton_chain
        monkeypatch.setattr(sv, "_newton_chain", lambda *a: solves.append(a) or newton(*a))
        multi = 0
        for seed in range(3):
            drawn, ladder = tree_product(seed), tree_product(seed)
            n, cut = len(drawn.hyperplanes), 7
            rng = np.random.default_rng([77, seed])
            for _ in range(20):
                x, y = sample_point(drawn, rng), sample_point(drawn, rng)
                xa, ya = x.ambient(n), y.ambient(n)
                d = [np.abs(xa - ya)[part].sum() for part in (slice(0, cut), slice(cut, n))]
                multi += len(sv.enumerate_galleries(drawn, x, y)) > 1
                for p, cx in ([(p, tree_product(seed)) for p in (1.01, 2.0, 8.0, 16.0, 64.0)]
                              + [(p, ladder) for p in (1.01, 2.0, 8.0, 16.0, 64.0)]):
                    path = sv.geodesic(cx, x, y, p)
                    assert sv.check_local_geodesic(cx, path).all_ok, (seed, x, y, p)
                    want = sv.lp_norm(d, p)
                    assert abs(path.length - want) <= 1e-12 * want, (seed, x, y, p)
                    # at time t each tree's part lies t d_i from x's, along its l1 geodesic
                    for k in range(9):
                        z = path.evaluate(k / 8).ambient(n)
                        for di, part in zip(d, (slice(0, cut), slice(cut, n))):
                            assert abs(np.abs(z - xa)[part].sum() - k / 8 * di) <= 1e-12 * want
                            assert abs(np.abs(ya - z)[part].sum() - (1 - k / 8) * di) \
                                <= 1e-12 * want
        assert solves == []
        assert multi >= 20


class TestKeptReport:
    """A certified path keeps its check_local_geodesic report."""

    def test_the_kept_report_is_a_fresh_recomputation(self):
        # random pairs on five fixtures: the report a path keeps, from the
        # search or from the remembered answer, equals the one a new path
        # with the same breaks computes
        rng = np.random.default_rng(25)
        kept = 0
        for name in SWEEP_FIXTURES:
            cx = fixtures.load_fixture(name)
            for _ in range(8):
                x, y = sample_point(cx, rng), sample_point(cx, rng)
                for p in (1.5, 2.0, 3.0, 16.0):
                    try:
                        paths = [sv.geodesic(cx, x, y, p), sv.geodesic(cx, x, y, p)]
                    except LpCubeError:
                        continue
                    fresh = sv.check_local_geodesic(cx, sv.PiecewisePath(cx, p, paths[0].breaks))
                    kept += paths[0]._report is not None
                    for path in paths:
                        assert sv.check_local_geodesic(cx, path) == fresh, (name, x, y, p)
        assert kept > 20

    def test_the_report_is_kept_per_complex_and_tol(self, monkeypatch):
        cx = cc.corner_complex()
        path = sv.geodesic(cx, TestLastAnswer.X, TestLastAnswer.Y, 2.0)
        assert path._report is not None
        checked = []
        data = sv._interior_data
        monkeypatch.setattr(sv, "_interior_data", lambda *a: checked.append(a) or data(*a))
        report = sv.check_local_geodesic(cx, path)
        assert checked == [] and report.all_ok
        # another tol is computed, and then kept in its place
        loose = sv.check_local_geodesic(cx, path, tol=1e-6)
        assert len(checked) == 1 and path._report == (1e-6, loose)
        # an equal complex that is not the path's own is computed, and not kept
        assert sv.check_local_geodesic(cc.corner_complex(), path, tol=1e-6) == loose
        assert len(checked) == 2 and path._report == (1e-6, loose)

    def test_a_lone_gallery_is_checked_only_when_asked(self, monkeypatch):
        checked = []
        check = sv.check_local_geodesic
        monkeypatch.setattr(sv, "check_local_geodesic",
                            lambda *a, **k: checked.append(a) or check(*a, **k))
        cx = cc.square_cube_book()
        path = sv.geodesic(cx, SCB_X, SCB_Y, 2.0)
        assert len(sv.enumerate_galleries(cx, SCB_X, SCB_Y)) == 1
        assert checked == [] and path._report is None


SWEEP_FIXTURES = ("corner_complex", "square_cube_book", "grid222", "long_rectangle",
                  "hypercube3")
PINNED_P = (1.01, 1.5, 2.0, 3.0, 12.0)
# geodesic() lengths of the pairs drawn by TestSweeps._pinned_pairs, in draw
# order, p cycling through PINNED_P, as the numpy chain solve of commit
# f9c1118 returned them
PINNED_LENGTHS = {
    "corner_complex": (
        2.0687389839408934, 2.1923139365083504, 0.9560265560166341, 1.1711681381473062,
        1.3212689692648527, 2.236785886426848, 1.8596961143094952, 0.32017101917319224,
        1.65673135110961, 1.876520139181799, 1.9169461141542063, 1.6955903491609168,
        1.0830710974874516, 1.9080707252324245, 1.1380435945374494),
    "square_cube_book": (
        1.113085145786853, 1.196611072147702, 1.4933631373384375, 1.0595236056427302,
        1.8852986557488225, 2.488361071117664, 1.400003481630902, 1.1390890412255286,
        0.8711963506312337, 1.1735061192516987, 2.6115566732863744, 1.910396470729576,
        1.8413147658042708, 1.4498834783003463, 1.3217798898188367),
    "grid222": (
        4.397786280258665, 2.1503358678847873, 1.807374022895389, 1.300384267374731,
        1.2006825375399646, 4.912745776113986, 2.41399587192459, 1.767390159983545,
        1.5936057725129946, 1.513239185492849, 0.8960116163752458, 2.570207099261806,
        0.9834967904580412, 1.847860120523423, 1.4486202229644312),
    "long_rectangle": (
        5.581521436905413, 7.032381611891186, 3.5904597255496338, 2.4361452451898926,
        1.9381900768850553, 9.620443395760542, 6.189253296755865, 6.102665343739418,
        8.790917966744397, 11.27225557485462, 3.471972136786578, 7.978657696528774,
        10.278928054967853, 3.443979760429495, 7.5108685390377365),
    "hypercube3": (
        1.8453100196249035, 0.43909403952040643, 0.1063334162843694, 1.048688320060956,
        0.9385265091509779, 0.1616203511602212, 1.4171745295111677, 0.7911447350126116,
        0.2848538990478005, 0.612909639058326, 1.1925628460701183, 0.911373994079848,
        1.240038121003153, 1.1461232407167976, 0.6988068362471204),
}


def _square_path(square, *pts, converged=True, cubes=(CubeRef(0, 0b11),)):
    """Path through the points of the unit square at p = 2, under a gallery
    whose cubes only rank it."""
    breaks = tuple(Point.make(0, {i: t for i, t in enumerate(pt) if t}) for pt in pts)
    return sv.PiecewisePath(square, 2.0, breaks, sv.Gallery(cubes), converged)


class TestSelect:
    """The fallback rule: the shortest converged path, unless it is more than
    10 LENGTH_TOL above the shortest solved one."""

    BENT = ((0, 0), (0.25, 0.25), (0.5, 0))     # tension residual sqrt(2)
    BENT_LEN = 2 * math.hypot(0.25, 0.25)

    @pytest.mark.parametrize("paths, picked", [
        # (end point, converged, vertex ranking the gallery) per path
        # a converged path tied with a shorter unconverged one
        ([((0.5, 0), False, 0), ((0.5 + 5e-10, 0), True, 0)], 1),
        # a converged path 5e-9 above the unconverged shortest
        ([((0.5, 0), False, 0), ((0.5 + 5e-9, 0), True, 0), ((0.6, 0), True, 0)], 1),
        # equal lengths: the smaller gallery cubes win
        ([((0.5, 0), True, 2), ((0.5, 0), True, 1), ((0.7, 0), False, 0)], 1),
        # converged paths more than LENGTH_TOL / 100 apart need not agree
        ([((0.5, 0), True, 0), ((0, 0.5 + 2e-11), True, 1)], 0),
    ])
    def test_picks_the_shortest_converged_path(self, square, paths, picked):
        built = [_square_path(square, (0, 0), end, converged=ok, cubes=(CubeRef(v, 0),))
                 for end, ok, v in paths]
        assert sv._select(built) is built[picked]

    @pytest.mark.parametrize("above", [2e-8, None])
    def test_no_close_converged_path_raises(self, square, above):
        bent = _square_path(square, *self.BENT, converged=False)
        paths = [bent, _square_path(square, (0, 0), (0.9, 0), converged=False)]
        if above is not None:
            paths.append(_square_path(square, (0, 0), (self.BENT_LEN + above, 0)))
        with pytest.raises(NoConvergence) as err:
            sv._select(paths)
        # the residual is the shortest solved path's, not its length
        assert err.value.residual == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_disagreeing_tied_paths_raise(self, square):
        paths = [_square_path(square, (0, 0), (0.5, 0)),
                 _square_path(square, (0, 0), (0, 0.5 + 1e-12), cubes=(CubeRef(1, 0),))]
        with pytest.raises(UniquenessViolation, match="sup distance"):
            sv._select(paths)

    def test_no_convergence_reports_a_tension_residual(self):
        # a new complex, which remembers no answer
        corner = cc.corner_complex()
        rng = np.random.default_rng([77, 100])
        x, y = sample_point(corner, rng), sample_point(corner, rng)
        with pytest.raises(NoConvergence) as err:
            sv.geodesic(corner, x, y, 128.0)
        # its length is 1.05; the tension residual of its path is 1.84e-2
        assert err.value.residual == pytest.approx(1.84e-2, rel=0.01)


class TestSweeps:
    @staticmethod
    def _pinned_pairs(cx, j):
        # fixed-seed pairs that share no cube (every pair on the one-cube
        # hypercube), every third endpoint a vertex
        rng = np.random.default_rng([93, j])
        verts = sorted(cx.vertices)
        single = len(cx.maximal_cubes()) == 1
        drawn = kept = 0
        while kept < 3 * len(PINNED_P):
            x, y = (Point.make(verts[int(rng.integers(len(verts)))]) if (2 * drawn + e) % 3 == 0
                    else sample_point(cx, rng) for e in range(2))
            drawn += 1
            if single or cx.minimal_cube_pair(x, y) is None:
                yield x, y, PINNED_P[kept % len(PINNED_P)]
                kept += 1

    @pytest.mark.parametrize("j, name", enumerate(SWEEP_FIXTURES))
    def test_lengths_match_pinned_values(self, j, name):
        cx = fixtures.load_fixture(name)
        for (x, y, p), want in zip(self._pinned_pairs(cx, j), PINNED_LENGTHS[name],
                                   strict=True):
            path = sv.geodesic(cx, x, y, p)
            assert abs(path.length - want) <= 1e-12, (x, y, p, path.length)
            assert sv.check_local_geodesic(cx, path, tol=1e-8).all_ok, (x, y, p)

    @pytest.mark.parametrize("name", SWEEP_FIXTURES)
    def test_large_p_sample(self, name):
        # the first 20 pairs of the large-p sweep: all certify at p = 12; at
        # p = 16 all certify on the products of trees, whose start chains
        # are the geodesic, and elsewhere some may come back uncertified or
        # raise, but only typed errors
        cx = fixtures.load_fixture(name)
        for i in range(20):
            rng = np.random.default_rng([77, i])
            x, y = sample_point(cx, rng), sample_point(cx, rng)
            path = sv.geodesic(cx, x, y, 12.0)
            assert sv.check_local_geodesic(cx, path, tol=1e-8).all_ok, (i, x, y)
            try:
                path = sv.geodesic(cx, x, y, 16.0)
            except LpCubeError:
                assert name not in ("grid222", "long_rectangle", "hypercube3")
                continue
            if name in ("grid222", "long_rectangle", "hypercube3"):
                assert sv.check_local_geodesic(cx, path, tol=1e-8).all_ok, (i, x, y)


class TestFrozenPath:
    def test_the_length_is_reduced_once(self, square, monkeypatch):
        reduced = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            class add:
                @staticmethod
                def reduce(a):
                    reduced.append(a)
                    return np.add.reduce(a)

        monkeypatch.setattr(sv, "np", CountingNumpy())
        path = _square_path(square, (0.1, 0.1), (0.5, 0.25), (0.9, 0.9))
        first = path.length
        assert path.length == first == float(np.add.reduce(path._lengths()))
        assert len(reduced) == 1

    def test_fields_cannot_be_assigned(self, square):
        path = _square_path(square, (0.1, 0.1), (0.9, 0.9))
        for name, value in (("breaks", ()), ("converged", False), ("p", 3.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(path, name, value)
        report = sv.check_local_geodesic(square, path)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.worst_residual = 1.0

    def test_the_kept_values_take_no_part_in_eq_and_hash(self, square):
        a, b = (_square_path(square, (0.1, 0.1), (0.5, 0.25), (0.9, 0.9)) for _ in range(2))
        a.length, sv.check_local_geodesic(square, a)
        assert a._report is not None and b._report is None
        assert a == b and hash(a) == hash(b)


class TestEvaluate:
    def test_endpoints(self, scb):
        path = sv.geodesic(scb, SCB_X, SCB_Y, 2.0)
        assert path.evaluate(0.0) == SCB_X
        assert path.evaluate(1.0) == SCB_Y

    def test_affine_midpoint(self, square):
        x = Point.make(0, {0: 0.2, 1: 0.2})
        y = Point.make(0, {0: 0.6, 1: 0.8})
        mid = sv.geodesic(square, x, y, 2.0).evaluate(0.5)
        assert np.allclose(mid.ambient(2), [0.4, 0.5])

    def test_symmetric_two_segment_midpoint(self, corner):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        path = sv.geodesic(corner, x, y, 3.0)
        assert path.evaluate(0.5) == Point.make(0)

    def test_constant_speed(self, scb):
        path = sv.geodesic(scb, SCB_X, SCB_Y, 2.0)
        n = 4
        segs = path.segment_lengths()
        total = segs.sum()
        # the break point sits exactly at its arclength fraction
        t_break = segs[0] / total
        assert path.evaluate(float(t_break)) == path.breaks[1]
        # within a segment the parametrization is affine at speed = total
        for t1, t2 in ((0.0, 0.3), (0.05, 0.25)):
            a = path.evaluate(t1).ambient(n)
            b = path.evaluate(t2).ambient(n)
            assert abs(sv.lp_norm(b - a, 2.0) - (t2 - t1) * total) < 1e-9
        # and the speed bound holds across the bend
        a = path.evaluate(0.3).ambient(n)
        b = path.evaluate(0.7).ambient(n)
        assert sv.lp_norm(b - a, 2.0) <= 0.4 * total + 1e-9


class TestBicombing:
    def test_fixed_point(self, square):
        x = Point.make(0, {0: 0.3, 1: 0.3})
        assert sv.bicombing(square, x, x, 0.37, 2.0) == x

    def test_symmetric_vertex_midpoint(self, corner):
        x = Point.make(0b0011)
        y = Point.make(0b1100)
        assert sv.bicombing(corner, x, y, 0.5, 2.0) == Point.make(0)

    def test_reversibility(self, grid222, corner):
        rng = np.random.default_rng(60)
        n6 = len(grid222.hyperplanes)
        for cx in (corner, grid222):
            n = len(cx.hyperplanes)
            for _ in range(8):
                x = sample_point(cx, rng)
                y = sample_point(cx, rng)
                for t in (0.25, 0.5, 0.8):
                    a = sv.bicombing(cx, x, y, t, 2.0)
                    b = sv.bicombing(cx, y, x, 1.0 - t, 2.0)
                    assert sv.lp_norm(a.ambient(n) - b.ambient(n), 2.0) < 1e-7


class TestZeroTension:
    def test_symmetric_break(self, book2):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {0: 0.5, 2: 0.5})
        path = sv.geodesic(book2, x, y, 2.0)
        rep = sv.check_zero_tension(book2, path)
        assert all(rep.zero_tension_ok)
        assert rep.worst_residual < 1e-12

    def test_vertex_inтersection_vacuous(self, corner):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        path = sv.geodesic(corner, x, y, 2.0)
        rep = sv.check_zero_tension(corner, path)
        assert all(rep.zero_tension_ok)
        assert rep.worst_residual == 0.0

    def test_scb_residual(self, scb):
        path = sv.geodesic(scb, SCB_X, SCB_Y, 2.0)
        rep = sv.check_zero_tension(scb, path)
        assert rep.worst_residual <= 1e-9

    def test_perturbed_break_fails(self, scb):
        path = sv.geodesic(scb, SCB_X, SCB_Y, 2.0)
        z = dict(path.breaks[1].coords)[0]
        bad = sv.PiecewisePath(scb, 2.0, (
            path.breaks[0],
            Point.make(0, {0: z + 0.05}),
            path.breaks[2],
        ))
        rep = sv.check_zero_tension(scb, bad)
        assert not all(rep.zero_tension_ok)
        assert rep.worst_residual > 1e-3


class TestNoShortcut:
    def test_vacuous_without_corner_cube(self, book2):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {0: 0.5, 2: 0.5})
        path = sv.geodesic(book2, x, y, 2.0)
        rep = sv.check_no_shortcut(book2, path)
        assert all(rep.no_shortcut_ok)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_normalized_unit_criterion(self, corner, p):
        # at unit distances the through-v path is locally geodesic iff
        # |x-v|_{A2}^p + |y-v|_{B1}^p <= 1, where A2 = a2-axis, B1 = b1-axis
        def unit_pair(ax2, by1):
            ax1 = (1 - ax2 ** p) ** (1 / p)
            by2 = (1 - by1 ** p) ** (1 / p)
            x = Point.make(0, {0: ax1, 1: ax2})
            y = Point.make(0, {2: by1, 3: by2})
            return x, y

        for ax2, by1 in ((0.55, 0.55), (0.95, 0.95), (0.4, 0.6), (0.9, 0.7)):
            x, y = unit_pair(ax2, by1)
            through_v = sv.PiecewisePath(corner, p, (x, Point.make(0), y))
            rep = sv.check_no_shortcut(corner, through_v, tol=1e-12)
            should_pass = ax2 ** p + by1 ** p <= 1.0
            assert all(rep.no_shortcut_ok) == should_pass, (ax2, by1)

    @pytest.mark.parametrize("p", [1.05, 2.0, 3.0, 64.0])
    def test_submask_norms_match_lp_norm(self, p):
        # the margins take each factor norm with lp_norm itself, so it is
        # lp_norm on the sub-vector to the last bit
        rng = np.random.default_rng(71)
        for _ in range(20):
            vec = rng.uniform(-1.0, 1.0, size=6) * 10.0 ** rng.integers(-8, 1, size=6)
            mask = int(rng.integers(64))
            norms = sv._submask_norms(vec.tolist(), mask, p)
            assert len(norms) == 2 ** bin(mask).count("1")
            for sub, value in norms.items():
                assert not sub & ~mask
                idx = [b for b in range(6) if sub >> b & 1]
                assert value == (sv.lp_norm(vec[idx], p) if idx else 0.0)

    def test_breaks_without_a_common_cube_raise(self, corner):
        # the middle break and y lie in no common cube of the corner complex
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        path = sv.PiecewisePath(corner, 2.0, (x, Point.make(0, {0: 0.5}), y))
        with pytest.raises(NoCommonCube, match="do not share cubes"):
            sv.check_local_geodesic(corner, path)

    def test_solver_outputs_pass(self, corner, grid222, scb):
        rng = np.random.default_rng(70)
        count = 0
        for cx in (corner, grid222, scb):
            for _ in range(34):
                x = sample_point(cx, rng)
                y = sample_point(cx, rng)
                p = float(rng.choice([1.5, 2.0, 3.0]))
                path = sv.geodesic(cx, x, y, p)
                # both local conditions: a break pair merged although pulling
                # it apart shortens the path fails one of them at that break
                rep = sv.check_local_geodesic(cx, path, tol=1e-8)
                assert rep.all_ok, (cx.hyperplanes, x, y, p, rep.worst_residual)
                count += 1
        assert count >= 100

    def test_a_repeated_break_counts_once(self):
        # breaks repeated in a row leave null segments; the checks run on the
        # distinct breaks, where this path, 9.2% longer than the geodesic,
        # has a shortcut at vertex 75
        g = cc.grid(3, 3, 3)
        v75, mid = Point(75), Point(219, ((2, 0.5),))
        ends = (Point(0), Point(1, ((3, 0.5), (6, 0.5))))
        path = sv.PiecewisePath(g, 3.0, (*ends, v75, v75, v75, mid, mid, Point(511)))
        distinct = sv.PiecewisePath(g, 3.0, (*ends, v75, mid, Point(511)))
        assert path.length == pytest.approx(4.7257162806901185, rel=1e-15)
        assert sv.distance(g, Point(0), Point(511), 3.0) < path.length / 1.09
        rep = sv.check_local_geodesic(g, path)
        assert not rep.all_ok
        assert rep.worst_residual == pytest.approx(0.945, abs=1e-3)
        assert rep == sv.check_local_geodesic(g, distinct)
        assert sv.check_zero_tension(g, path) == sv.check_zero_tension(g, distinct)
        assert sv.check_no_shortcut(g, path) == sv.check_no_shortcut(g, distinct)


class TestUniquenessAndLocality:
    def test_projection_law(self, book2):
        # in the split D x Y, projections of the geodesic are geodesics
        from lpcube import solver
        sq1 = book2.cube(0, ["spine", "page1"])
        sq2 = book2.cube(0, ["spine", "page2"])
        d, ysub = book2.split_hull(sq1, sq2)
        rng = np.random.default_rng(80)
        for p in (1.5, 2.0, 3.0):
            x = sample_point(book2, rng)
            y = sample_point(book2, rng)
            path = sv.geodesic(book2, x, y, p)
            # Y-projection: polyline through the projected breaks
            ybreaks = [ysub.project_point(b) for b in path.breaks]
            proj_len = 0.0
            ny = len(ysub.complex.hyperplanes)
            for a, b in zip(ybreaks, ybreaks[1:]):
                proj_len += sv.lp_norm(a.ambient(ny) - b.ambient(ny), p)
            d_proj = sv.distance(ysub.complex, ybreaks[0], ybreaks[-1], p)
            assert abs(proj_len - d_proj) < 1e-8

    def test_three_cube_restarts_agree(self, scb):
        # strict convexity: random restarts converge to one optimum
        rng = np.random.default_rng(90)
        for p in (1.5, 2.0, 3.0):
            x = sample_point(scb, rng)
            y = sample_point(scb, rng)
            ref = sv.geodesic(scb, x, y, p)
            gallery = ref.gallery
            lengths = []
            for trial in range(10):
                init = []
                for a, b in zip(gallery.cubes, gallery.cubes[1:]):
                    n = len(scb.hyperplanes)
                    vec = np.zeros(n)
                    face = sv.cube_intersection(a, b)
                    for i in range(n):
                        if face.mask >> i & 1:
                            vec[i] = rng.uniform(0.01, 0.99)
                        elif face.corner >> i & 1:
                            vec[i] = 1.0
                    init.append(vec)
                path = sv.optimize_breakpoints(scb, gallery, x, y, p, init=init)
                lengths.append(path.length)
                assert sv.path_sup_distance(path, ref) < 1e-7
            assert max(lengths) - min(lengths) < 1e-9

    @staticmethod
    def _pairs():
        # fixed-seed pairs joined by more than one gallery on every fixture
        # that has them, a third of the endpoints vertices
        fixtures = (cc.hypercube(2), cc.hypercube(3), cc.corner_complex(),
                    cc.square_cube_book(), cc.grid(2, 2, 2), cc.grid(12, 1, 0),
                    cc.book_of_squares(2))
        for j, cx in enumerate(fixtures):
            rng = np.random.default_rng([91, j])
            verts = sorted(cx.vertices)
            kept = 0
            for _ in range(400):
                x, y = (Point.make(verts[int(rng.integers(len(verts)))])
                        if rng.random() < 1 / 3 else sample_point(cx, rng)
                        for _ in range(2))
                if cx.minimal_cube_pair(x, y) is None and \
                        len(sv.enumerate_galleries(cx, x, y)) > 1:
                    yield cx, x, y, (1.5, 2.0, 3.0)[kept % 3]
                    kept += 1
                    if kept == 24:
                        break

    def test_optimal_galleries_agree(self):
        # the search stops at the first certified path, so compare it here
        # with the optimum of every gallery: it is the least, and every
        # gallery tied with it is the same path
        pairs = 0
        for cx, x, y, p in self._pairs():
            path = sv.geodesic(cx, x, y, p)
            assert sv.check_local_geodesic(cx, path, tol=1e-8).all_ok, (x, y, p)
            solved = [sv.optimize_breakpoints(cx, g, x, y, p)
                      for g in sv.enumerate_galleries(cx, x, y)]
            least = min(s.length for s in solved)
            assert abs(path.length - least) <= 1e-12, (x, y, p)
            for s in solved:
                if s.converged and s.length <= least + 1e-11:
                    assert sv.path_sup_distance(s, path) <= sv.UNIQUENESS_SUP, (x, y, p)
            pairs += 1
        assert pairs >= 30

    def test_uncertified_search_returns_the_same_length(self, monkeypatch, solve_log):
        # with every no-shortcut margin failing, no candidate certifies and the
        # search falls back to ranking every gallery it could not prune; the
        # face-bound prune skips some of them
        certified = {(x, y, p): sv.geodesic(cx, x, y, p).length for cx, x, y, p in self._pairs()}
        margins = sv._no_shortcut_margins
        monkeypatch.setattr(sv, "_no_shortcut_margins", lambda cx, path, data: [
            m - 1.0 for m in margins(cx, path, data)])
        solve_log.calls.clear()
        galleries = 0
        for cx, x, y, p in self._pairs():
            length = sv.geodesic(cx, x, y, p).length
            assert abs(length - certified[x, y, p]) <= 1e-12, (x, y, p)
            galleries += len(sv.enumerate_galleries(cx, x, y))
        assert solve_log.counts()["full"] < galleries

    def test_fault_injection_longer_or_fails(self, grid222):
        rng = np.random.default_rng(92)
        hits = 0
        for _ in range(10):
            x = sample_point(grid222, rng)
            y = sample_point(grid222, rng)
            path = sv.geodesic(grid222, x, y, 2.0)
            if len(path.breaks) < 3:
                continue
            hits += 1
            breaks = list(path.breaks)
            b = breaks[1]
            face = grid222.minimal_cube_pair(breaks[0], b)
            coords = dict(b.coords)
            moved = False
            for h in list(coords):
                t = coords[h] + 0.05
                if t < 1.0:
                    coords[h] = t
                    moved = True
                    break
            if not moved:
                continue
            breaks[1] = Point.make(b.base, coords)
            bad = sv.PiecewisePath(grid222, 2.0, tuple(breaks))
            zt = sv.check_zero_tension(grid222, bad)
            ns = sv.check_no_shortcut(grid222, bad)
            rep = sv.check_local_geodesic(grid222, bad)
            assert (rep.zero_tension_ok, rep.no_shortcut_ok, rep.worst_residual) == (
                zt.zero_tension_ok, ns.no_shortcut_ok, max(zt.worst_residual, ns.worst_residual))
            failed = not (all(zt.zero_tension_ok) and all(ns.no_shortcut_ok))
            longer = bad.length > path.length + 1e-6
            assert failed or longer
        assert hits >= 3


class TestCompleteness:
    """Paths built to satisfy both local conditions coincide with geodesic()."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_square_cube_book(self, scb, p):
        z = scb_break_root(p)
        built = sv.PiecewisePath(scb, p, (SCB_X, Point.make(0, {0: z}), SCB_Y))
        rep = sv.check_local_geodesic(scb, built, tol=1e-9)
        assert rep.all_ok
        solved = sv.geodesic(scb, SCB_X, SCB_Y, p)
        assert sv.path_sup_distance(built, solved) < 1e-6

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_corner_complex_two_breaks(self, corner, p):
        # independent construction: solve the two balance equations for the
        # corner-square route by nested bisection, then compare to the solver
        xa = np.array([0.3, 0.9, 0.0, 0.0])
        ya = np.array([0.0, 0.0, 0.8, 0.7])

        def d(u, v):
            return float(np.abs(u - v).__pow__(p).sum() ** (1 / p))

        def z1_of(s):
            return np.array([0.0, s, 0.0, 0.0])

        def z2_of(u):
            return np.array([0.0, 0.0, u, 0.0])

        def solve_s(u):
            # (x - z1)_{a2}/d(x,z1) + (z2 - z1)_{a2}/d(z1,z2) = 0
            z2 = z2_of(u)

            def f(s):
                z1 = z1_of(s)
                return (xa[1] - s) / d(xa, z1) + (0.0 - s) / d(z1, z2)

            lo, hi = 1e-9, xa[1]
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if f(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        def resid_u(u):
            s = solve_s(u)
            z1, z2 = z1_of(s), z2_of(u)
            return (0.0 - u) / d(z1, z2) + (ya[2] - u) / d(ya, z2)

        lo, hi = 1e-9, ya[2]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if resid_u(mid) > 0:
                lo = mid
            else:
                hi = mid
        u = 0.5 * (lo + hi)
        s = solve_s(u)
        built = sv.PiecewisePath(corner, p, (
            Point.make(0, {0: 0.3, 1: 0.9}),
            Point.make(0, {1: s}),
            Point.make(0, {2: u}),
            Point.make(0, {2: 0.8, 3: 0.7}),
        ))
        rep = sv.check_local_geodesic(corner, built, tol=1e-7)
        assert rep.all_ok
        solved = sv.geodesic(corner, Point.make(0, {0: 0.3, 1: 0.9}),
                             Point.make(0, {2: 0.8, 3: 0.7}), p)
        assert sv.path_sup_distance(built, solved) < 1e-6


class TestSerialization:
    def test_round_trip(self, scb):
        path = sv.geodesic(scb, SCB_X, SCB_Y, 2.0)
        obj = path.to_obj()
        pts = [cc.point_from_obj(scb, b) for b in obj["breaks"]]
        again = sv.PiecewisePath(scb, obj["p"], tuple(pts))
        for a, b in zip(again.breaks, again.breaks[1:]):
            assert scb.minimal_cube_pair(a, b) is not None
        assert abs(again.length - obj["length"]) < 1e-12
