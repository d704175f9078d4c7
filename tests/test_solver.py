import math

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
from lpcube.geometry import box_clamp_distance

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

    def test_gallery_invariants(self, grid222):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = sample_point(grid222, rng)
            y = sample_point(grid222, rng)
            for g in sv.enumerate_galleries(grid222, x, y):
                assert g.cubes[0].contains_cube(x.minimal_cube())
                assert g.cubes[-1].contains_cube(y.minimal_cube())
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


class TestNewtonChain:
    def test_singular_tension_system_takes_the_lm_step(self, grid222, monkeypatch):
        # refuse every tension system (the Jacobian is not symmetric at
        # p = 3): each step falls back to the Levenberg-Marquardt system on
        # the symmetrized length Hessian, which reaches the same geodesic
        rng = np.random.default_rng([77, 1])
        x, y = sample_point(grid222, rng), sample_point(grid222, rng)
        want = sv.geodesic(grid222, x, y, 3.0)
        eliminate = sv._eliminate
        systems = {"tension": 0, "hessian": 0}

        def singular_unless_symmetric(a, b):
            if all(a[r][c] == a[c][r] for r in range(len(a)) for c in range(r)):
                systems["hessian"] += 1
                return eliminate(a, b)
            systems["tension"] += 1
            return None

        monkeypatch.setattr(sv, "_eliminate", singular_unless_symmetric)
        got = sv.geodesic(grid222, x, y, 3.0)
        assert systems["tension"] > 0 and systems["hessian"] > 0
        assert abs(got.length - want.length) <= 1e-10
        assert sv.check_local_geodesic(grid222, got, tol=1e-8).all_ok

    @pytest.mark.parametrize("mergeable", [True, False])
    def test_null_segment(self, grid222, mergeable):
        # breaks 1 and 2 start coincident, as a merge hands them to the split:
        # segment 2 has length 0, no direction and no block in the Newton
        # systems.  Mergeable, it is handed back untouched; otherwise the
        # solve pulls the breaks apart to the optimum of the full gallery
        cubes = COALESCE_CUBES
        full = sv.optimize_breakpoints(grid222, sv.Gallery(cubes), COALESCE_X, COALESCE_Y, 1.5)
        pinned = sv.optimize_breakpoints(grid222, sv.Gallery(cubes[:2] + cubes[3:]),
                                         COALESCE_X, COALESCE_Y, 1.5)
        _, axes = sv._face_boxes(sv.Gallery(cubes).faces(), 6)
        pts = pinned.ambient_breaks().tolist()
        chain = [pts[0], pts[1], pts[2], pts[2][:], pts[3]]
        for i in axes[0]:
            chain[1][i] = 0.5
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

    def test_first_certified_candidate_ends_the_search(self, grid222, solve_log):
        # corner to corner of grid(2,2,2): 13 galleries, all optimal.  Solving
        # every candidate took 13 full chain solves; the first one certifies.
        x, y = Point.make(0), Point.make(0b111111)
        assert len(sv.enumerate_galleries(grid222, x, y)) == 13
        for p in (1.5, 2.0, 3.0):
            solve_log.calls.clear()
            path = sv.geodesic(grid222, x, y, p)
            assert path.length == pytest.approx(2 * 3 ** (1 / p), abs=1e-12)
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

    def test_dominated_galleries_are_never_solved(self, corner, scb, grid222, solve_log):
        # they come after every other gallery, and at these p a path certifies
        # before the search gets to them
        rng = np.random.default_rng(16)
        seen = 0
        for cx in (corner, scb, grid222):
            for _ in range(20):
                x, y = sample_point(cx, rng), sample_point(cx, rng)
                if cx.minimal_cube_pair(x, y) is not None:
                    continue
                dominated = {g for g, _ in brute_dominated(sv.enumerate_galleries(cx, x, y))}
                seen += len(dominated)
                for p in (1.5, 2.0, 3.0):
                    solve_log.calls.clear()
                    sv.geodesic(cx, x, y, p)
                    assert not dominated & {g.cubes for _, g in solve_log.calls}
        assert seen >= 20

    def test_dominated_gallery_is_tried_when_nothing_else_certifies(self, corner):
        # at p = 64 the chain solve through the edge square stalls (converged
        # False, at the same length); the two-square gallery it dominates
        # certifies
        rng = np.random.default_rng([77, 42])
        x, y = sample_point(corner, rng), sample_point(corner, rng)
        galleries = sv.enumerate_galleries(corner, x, y)
        assert [len(g.cubes) for g in sv._undominated(galleries)] == [3]
        path = sv.geodesic(corner, x, y, 64.0)
        assert len(path.gallery.cubes) == 2
        assert sv.check_local_geodesic(corner, path, tol=1e-8).all_ok

    def test_full_solves_per_multi_gallery_geodesic(self, grid222, solve_log):
        # the candidate with the shortest start chain is mostly the one that
        # certifies; the ratio depends on the pairs (1.01 to 1.17 over 60
        # pairs from each of these seeds), so the bound is on all 300
        multi = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for _ in range(60):
                x, y = sample_point(grid222, rng), sample_point(grid222, rng)
                if (grid222.minimal_cube_pair(x, y) is not None
                        or len(sv.enumerate_galleries(grid222, x, y)) == 1):
                    continue
                for p in (1.5, 2.0, 3.0):
                    sv.geodesic(grid222, x, y, p)
                    multi += 1
        assert multi >= 300
        assert solve_log.counts()["full"] <= 1.10 * multi

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

    def test_no_face_bound_before_a_path_is_solved(self, grid222, monkeypatch):
        # the prune needs a solved length, so a search that certifies its
        # first candidate measures no face: corner to corner, 13 galleries
        measured = []
        bound = sv._face_bound
        monkeypatch.setattr(sv, "_face_bound", lambda f, *args: measured.append(f) or bound(f, *args))
        x, y = Point.make(0), Point.make(0b111111)
        assert len(sv.enumerate_galleries(grid222, x, y)) == 13
        for p in (1.5, 2.0, 3.0):
            sv.geodesic(grid222, x, y, p)
        assert measured == []

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

    def test_no_convergence_reports_a_tension_residual(self, grid222):
        rng = np.random.default_rng([77, 2])
        x, y = sample_point(grid222, rng), sample_point(grid222, rng)
        with pytest.raises(NoConvergence) as err:
            sv.geodesic(grid222, x, y, 64.0)
        # its length is 1.62; the tension residual of its path is 1.04e-4
        assert err.value.residual == pytest.approx(1.04e-4, rel=0.01)


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
        # p = 16 some come back uncertified or raise, but only typed errors
        cx = fixtures.load_fixture(name)
        for i in range(20):
            rng = np.random.default_rng([77, i])
            x, y = sample_point(cx, rng), sample_point(cx, rng)
            path = sv.geodesic(cx, x, y, 12.0)
            assert sv.check_local_geodesic(cx, path, tol=1e-8).all_ok, (i, x, y)
            try:
                sv.geodesic(cx, x, y, 16.0)
            except LpCubeError:
                pass


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
            (m - 1.0, c) for m, c in margins(cx, path, data)])
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
