import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcube import complexes as cc
from lpcube import geometry as geo
from lpcube.complexes import Point
from lpcube.errors import NoCommonCube


class TestLpNorm:
    def test_345(self):
        assert geo.lp_norm([3.0, 4.0], 2) == 5.0

    def test_cube_root_of_two(self):
        assert abs(geo.lp_norm([1.0, 1.0], 3) - 2 ** (1 / 3)) < 1e-15

    def test_ones_vector(self):
        for n in (1, 4, 9):
            for p in (1.0, 1.5, 2.0, 7.0):
                assert abs(geo.lp_norm([1.0] * n, p) - n ** (1 / p)) < 1e-12

    def test_max_norm_is_exact(self):
        v = [0.3, -0.9, 0.5]
        assert geo.lp_norm(v, math.inf) == 0.9

    def test_empty(self):
        assert geo.lp_norm([], 2) == 0.0

    def test_large_p_stability(self):
        v = [1e-8, 2e-8]
        assert abs(geo.lp_norm(v, 64) - 2e-8 * (1 + 0.5 ** 64) ** (1 / 64)) < 1e-20

    def test_norm_axioms_sampled(self):
        rng = np.random.default_rng(21)
        for p in (1.0, 1.5, 2.0, 3.0, 17.0):
            for _ in range(50):
                u = rng.uniform(-2, 2, 5)
                v = rng.uniform(-2, 2, 5)
                lam = float(rng.uniform(-3, 3))
                nu, nv = geo.lp_norm(u, p), geo.lp_norm(v, p)
                assert geo.lp_norm(u + v, p) <= nu + nv + 1e-12
                assert abs(geo.lp_norm(lam * u, p) - abs(lam) * nu) < 1e-12
                assert nu >= 0
                if nu == 0:
                    assert not u.any()

    def test_monotone_in_p(self):
        rng = np.random.default_rng(22)
        ps = [1.0, 1.3, 2.0, 3.5, 8.0, 40.0, math.inf]
        for _ in range(40):
            v = rng.uniform(-1, 1, 6)
            values = [geo.lp_norm(v, p) for p in ps]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            geo.lp_norm([1.0], 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 64.0, math.inf])
    @pytest.mark.parametrize("v", [[1.0, math.nan], [math.nan, 1.0], [0.0, math.nan],
                                   [math.inf, math.nan], [math.nan]])
    def test_nan_propagates(self, v, p):
        # Python's max drops a NaN that does not come first
        assert math.isnan(geo.lp_norm(v, p))
        assert math.isnan(geo.lp_norm(np.array(v), p))

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(v=st.integers(0, 400).flatmap(lambda n: st.lists(
               st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300)),
               min_size=n, max_size=n)),
           p=st.one_of(st.floats(1.01, 64.0), st.just(2.0), st.just(math.inf)),
           scale=st.floats(1e-3, 1e3))
    def test_matches_50_digit_reference(self, v, p, scale):
        with mpmath.workdps(50):
            a = [abs(mpmath.mpf(t)) for t in v]
            if p == math.inf:
                want = float(max(a, default=0))
            else:
                want = float(mpmath.fsum(t ** p for t in a) ** (1 / mpmath.mpf(p)))
        got = geo.lp_norm(v, p)
        assert abs(got - want) <= 1e-14 * want
        # homogeneous: scaling the entries scales the norm
        assert abs(geo.lp_norm([scale * t for t in v], p) - scale * got) <= 2e-14 * scale * got


class TestCubeDistance:
    def test_square_diagonal(self, square):
        for p in (1.5, 2.0, 4.0):
            d = geo.cube_distance(square, Point.make(0), Point.make(3), p)
            assert abs(d - 2 ** (1 / p)) < 1e-15

    def test_same_point(self, square):
        p = Point.make(0, {0: 0.3, 1: 0.7})
        assert geo.cube_distance(square, p, p, 2) == 0.0

    def test_unfolded_rectangle(self, book2):
        # far endpoints of the two pages, measured through the flat 2x1 strip
        x = Point.make(0b010)   # page1 end, off the spine
        y = Point.make(0b101)   # page2 end, spine side 1
        # they do not share a cube: cube_distance must refuse
        with pytest.raises(NoCommonCube):
            geo.cube_distance(book2, x, y, 2)
        # but the straight within-page distance matches the product law
        from lpcube import solver as sv
        d = sv.distance(book2, x, y, 2.0)
        assert abs(d - math.sqrt(5)) < 1e-9

    def test_no_common_cube(self, corner):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        with pytest.raises(NoCommonCube):
            geo.cube_distance(corner, x, y, 2)


class TestDistanceLowerBound:
    def test_tree_bound_is_the_l1_distance(self):
        # d_max = 1: a path moves one coordinate at a time, so on a tree the
        # l1 bound is the distance itself, at every p and at p = inf
        from lpcube import solver as sv
        from lpcube.analysis import sample_point
        cx = cc.tree([("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")])
        rng = np.random.default_rng(7)
        n = len(cx.hyperplanes)
        for _ in range(10):
            x, y = sample_point(cx, rng), sample_point(cx, rng)
            l1 = float(np.abs(x.ambient(n) - y.ambient(n)).sum())
            assert geo.distance_lower_bound(cx, x, y, math.inf) == l1
            for p in (1.5, 2.0, 4.0):
                assert geo.distance_lower_bound(cx, x, y, p) == l1
                assert abs(sv.distance(cx, x, y, p) - l1) < 1e-9

    def test_max_norm_bound_divides_l1_by_d_max(self, grid222):
        # corner to corner of the 2x2x2 grid: |x - y|_inf = 1 but |x - y|_1 = 6,
        # and a path in 3-cubes moves at most 3 coordinates per unit of
        # max-norm length; 2 is the max-norm distance (the diagonal of
        # [0, 2]^3), so no lp length is below it
        from lpcube import solver as sv
        x, y = Point.make(0), Point.make(0b111111)
        assert geo.distance_lower_bound(grid222, x, y, math.inf) == 2.0
        assert sv.distance(grid222, x, y, 8.0) >= 2.0


class TestFactorComponent:
    def test_full_support(self, square):
        x = Point.make(0, {0: 0.2, 1: 0.8})
        z = Point.make(0, {0: 0.5, 1: 0.5})
        diff = geo.factor_component(square, x, z, ["h1", "h2"])
        assert np.allclose(diff, [-0.3, 0.3])

    def test_empty_factor(self, square):
        x = Point.make(0, {0: 0.2, 1: 0.8})
        z = Point.make(0, {0: 0.5, 1: 0.5})
        diff = geo.factor_component(square, x, z, [])
        assert diff.size == 0
        assert geo.lp_norm(diff, 2) == 0.0

    def test_single_hyperplane(self, square):
        x = Point.make(0, {0: 0.2, 1: 0.8})
        z = Point.make(0, {0: 0.5, 1: 0.5})
        diff = geo.factor_component(square, x, z, ["h1"])
        assert np.allclose(diff, [-0.3])

    def test_factor_outside_common_cube(self, corner):
        x = Point.make(0, {0: 0.5})
        z = Point.make(0)
        with pytest.raises(NoCommonCube):
            geo.factor_component(corner, x, z, ["b1"])


class TestPowerMap:
    def test_identity_at_p2(self, cube3):
        x = Point.make(0, {0: 0.3, 1: 0.6, 2: 0.9})
        assert geo.power_map(cube3, x, 0, 2.0) == x

    def test_power_law_value(self, cube3):
        x = Point.make(0, {0: 0.25})
        for p in (1.5, 3.0, 4.0):
            y = geo.power_map(cube3, x, 0, p)
            assert dict(y.coords)[0] == 0.25 ** (p / 2)

    def test_vertex_point_fixed_for_all_p(self, cube3):
        # side coordinates (relative 0 or 1) are fixed points of t -> t^(p/2)
        x = Point.make(0b101)
        for p in (1.5, 2.0, 4.0):
            assert geo.power_map(cube3, x, 0b101, p) == x

    def test_quarter_to_sixteenth(self, cube3):
        x = Point.make(0, {0: 0.25})
        y = geo.power_map(cube3, x, 0, 4.0)
        assert abs(dict(y.coords)[0] - 0.0625) < 1e-15

    def test_relative_to_far_vertex(self, square):
        # measuring from v = (1,1): coordinates flip before and after
        x = Point.make(0, {0: 0.25, 1: 0.5})
        v = 3
        y = geo.power_map(square, x, v, 4.0)
        got = dict(y.coords)
        assert abs((1 - got[0]) - 0.75 ** 2) < 1e-15
        assert abs((1 - got[1]) - 0.5 ** 2) < 1e-15

    def test_factor_norm_identity(self, cube3):
        # |x' - v|^2 restricted to any factor equals |x - v|^p on that factor
        rng = np.random.default_rng(31)
        n = 3
        for p in (1.5, 2.0, 3.0, 4.0):
            for _ in range(25):
                coords = {i: float(rng.uniform(0.05, 0.95)) for i in range(n)}
                x = Point.make(0, coords)
                v = int(rng.integers(8))
                y = geo.power_map(cube3, x, v, p)
                xa = x.ambient(n)
                ya = y.ambient(n)
                va = Point.make(v).ambient(n)
                for mask in range(8):
                    idx = [i for i in range(n) if mask >> i & 1]
                    if not idx:
                        continue
                    l2sq = geo.lp_norm(ya[idx] - va[idx], 2) ** 2
                    lpp = geo.lp_norm(xa[idx] - va[idx], p) ** p
                    assert abs(l2sq - lpp) < 1e-12

    def test_requires_vertex_of_minimal_cube(self, corner):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        with pytest.raises(ValueError):
            geo.power_map(corner, x, 0b0100, 2.0)
