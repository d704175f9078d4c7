import math

import numpy as np
import pytest

from lpcube import complexes as cc
from lpcube import decomposition as dc
from lpcube import solver as sv
from lpcube.complexes import CubeComplex, Point
from lpcube.errors import NotVertexIntersection, PreconditionViolated
from lpcube.geometry import power_map

from conftest import build_wedge_instance


def corner_points(use_corner_square):
    # ratio chain a1/b1 < a2/b2 steers the geodesic through the corner square
    if use_corner_square:
        return Point.make(0, {0: 0.3, 1: 0.9}), Point.make(0, {2: 0.8, 3: 0.7})
    return Point.make(0, {0: 0.9, 1: 0.3}), Point.make(0, {2: 0.8, 3: 0.7})


class TestCanonicalDecomposition:
    def test_vertex_wedge_is_trivial(self, book2):
        # two pages meeting only along the spine: glue two squares at a vertex
        wedge = CubeComplex(["a1", "a2", "b1", "b2"],
                            [0, 1, 2, 3, 4, 8, 12])
        x = Point.make(0, {0: 0.4, 1: 0.6})
        y = Point.make(0, {2: 0.5, 3: 0.9})
        dec = dc.canonical_decomposition(wedge, x, 0, y, 2.0)
        assert dec.k == 1
        assert dec.a_factors == (0b0011,)
        assert dec.b_factors == (0b1100,)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_corner_square_route_k2(self, corner, p):
        x, y = corner_points(use_corner_square=True)
        dec = dc.canonical_decomposition(corner, x, 0, y, p)
        assert dec.k == 2
        assert dec.a_factors == (0b0001, 0b0010)   # a1 then a2
        assert dec.b_factors == (0b0100, 0b1000)   # b1 then b2
        assert dec.ratios[0] < dec.ratios[1]

    def test_through_v_route_k1(self, corner):
        x, y = corner_points(use_corner_square=False)
        dec = dc.canonical_decomposition(corner, x, 0, y, 2.0)
        assert dec.k == 1

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_ratios_closer_than_merge_tol_are_one_factor(self, corner, p):
        # the ratios a1/b1 = 0.5 and a2/b2 = 0.5 + gap: the geodesic crosses
        # the corner square either way, and its two steps are one factor
        # when gap is below MERGE_TOL (1e-7), two when it is above
        x = Point.make(0, {0: 0.2, 1: 0.3})
        for gap, a_factors, b_factors in ((6e-8, (0b0011,), (0b1100,)),
                                          (2e-7, (0b0001, 0b0010), (0b0100, 0b1000))):
            y = Point.make(0, {2: 0.4, 3: 0.3 / (0.5 + gap)})
            assert len(sv.geodesic(corner, x, y, p).breaks) == 4
            dec = dc.canonical_decomposition(corner, x, 0, y, p)
            assert (dec.a_factors, dec.b_factors) == (a_factors, b_factors)

    def test_ratios_strictly_increase(self):
        for seed in range(40):
            cx, x, v, y, _ = build_wedge_instance(seed)
            dec = dc.canonical_decomposition(cx, x, v, y, 2.0)
            for r1, r2 in zip(dec.ratios, dec.ratios[1:]):
                assert r2 > r1

    def test_label_permutation_invariance(self, corner):
        x, y = corner_points(use_corner_square=True)
        dec = dc.canonical_decomposition(corner, x, 0, y, 2.0)
        # rebuild the complex with permuted hyperplane order: b2,a1,b1,a2
        perm = [3, 0, 2, 1]  # new index -> old index
        old_to_new = {o: nw for nw, o in enumerate(perm)}
        labels = [corner.hyperplanes[o] for o in perm]

        def remap_mask(m):
            out = 0
            for o in range(4):
                if m >> o & 1:
                    out |= 1 << old_to_new[o]
            return out

        cx2 = CubeComplex(labels, [remap_mask(v) for v in corner.vertices])
        x2 = Point.make(0, {old_to_new[h]: t for h, t in x.coords})
        y2 = Point.make(0, {old_to_new[h]: t for h, t in y.coords})
        dec2 = dc.canonical_decomposition(cx2, x2, 0, y2, 2.0)
        assert dec2.k == dec.k
        assert [remap_mask(m) for m in dec.a_factors] == list(dec2.a_factors)
        assert [remap_mask(m) for m in dec.b_factors] == list(dec2.b_factors)
        assert np.allclose(dec.ratios, dec2.ratios)

    def test_after_geodesic_it_solves_nothing(self, solve_log):
        # the chains are read off the geodesic the complex remembers, and
        # they are those of a complex that has to solve it
        for seed in range(10):
            cx, x, v, y, _ = build_wedge_instance(seed)
            fresh = build_wedge_instance(seed)[0]
            for p in (1.5, 2.0, 3.0):
                solve_log.calls.clear()
                sv.geodesic(cx, x, y, p)
                assert solve_log.counts()["full"] > 0
                solve_log.calls.clear()
                dec = dc.canonical_decomposition(cx, x, v, y, p)
                assert solve_log.calls == []
                assert dec == dc.canonical_decomposition(fresh, x, v, y, p)

    def test_not_vertex_intersection(self, book2):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {0: 0.4, 2: 0.5})
        with pytest.raises(NotVertexIntersection):
            dc.canonical_decomposition(book2, x, 0, y, 2.0)

    def test_both_degenerate_rejected(self, corner):
        with pytest.raises(PreconditionViolated):
            dc.canonical_decomposition(corner, Point.make(0), 0, Point.make(0), 2.0)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_power_map_reduction(self, p):
        # decompositions at p equal the p=2 decompositions of power-mapped points
        for seed in range(25):
            cx, x, v, y, _ = build_wedge_instance(seed)
            dec_p = dc.canonical_decomposition(cx, x, v, y, p)
            x2 = power_map(cx, x, v, p)
            y2 = power_map(cx, y, v, p)
            dec_2 = dc.canonical_decomposition(cx, x2, v, y2, 2.0)
            assert dec_p.a_factors == dec_2.a_factors
            assert dec_p.b_factors == dec_2.b_factors


class TestDistanceFormula:
    def test_vertex_wedge_sum(self):
        wedge = CubeComplex(["a1", "a2", "b1", "b2"],
                            [0, 1, 2, 3, 4, 8, 12])
        x = Point.make(0, {0: 0.4, 1: 0.6})
        y = Point.make(0, {2: 0.5, 3: 0.9})
        for p in (1.5, 2.0, 3.0):
            dec = dc.canonical_decomposition(wedge, x, 0, y, p)
            d = dc.distance_formula(wedge, x, 0, y, dec, p)
            nx = (0.4 ** p + 0.6 ** p) ** (1 / p)
            ny = (0.5 ** p + 0.9 ** p) ** (1 / p)
            assert abs(d - (nx + ny)) < 1e-12

    def test_x_equals_v(self, corner):
        y = Point.make(0, {2: 0.8, 3: 0.7})
        dec = dc.canonical_decomposition(corner, Point.make(0), 0, y, 2.0)
        d = dc.distance_formula(corner, Point.make(0), 0, y, dec, 2.0)
        assert abs(d - math.hypot(0.8, 0.7)) < 1e-12

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_solver_on_corner(self, corner, p):
        x, y = corner_points(use_corner_square=True)
        dec = dc.canonical_decomposition(corner, x, 0, y, p)
        d = dc.distance_formula(corner, x, 0, y, dec, p)
        assert abs(d - sv.distance(corner, x, y, p)) < 1e-8

    def test_matches_solver_on_random_wedges(self):
        rng = np.random.default_rng(123)
        for seed in range(30):
            cx, x, v, y, _ = build_wedge_instance(seed)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            dec = dc.canonical_decomposition(cx, x, v, y, p)
            d = dc.distance_formula(cx, x, v, y, dec, p)
            assert abs(d - sv.distance(cx, x, y, p)) < 1e-8


class TestWedgeProductEmbedding:
    def test_k1_is_plain_wedge(self, corner):
        x, y = corner_points(use_corner_square=False)
        dec = dc.canonical_decomposition(corner, x, 0, y, 2.0)
        q = dc.wedge_product_embedding(corner, dec)
        # single wedge of two squares at a vertex: 4 + 4 - 1 vertices
        assert len(q.vertices) == 7

    def test_k2_unit_factors(self, corner):
        x, y = corner_points(use_corner_square=True)
        dec = dc.canonical_decomposition(corner, x, 0, y, 2.0)
        q = dc.wedge_product_embedding(corner, dec)
        # product of two edge-wedges: 3 x 3 vertices
        assert len(q.vertices) == 9

    def test_embedded_distance_matches_formula(self):
        rng = np.random.default_rng(11)
        for seed in range(15):
            cx, x, v, y, _ = build_wedge_instance(seed)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            dec = dc.canonical_decomposition(cx, x, v, y, p)
            q = dc.wedge_product_embedding(cx, dec)
            xq = dc.embed_in_wedge_product(cx, dec, q, x)
            yq = dc.embed_in_wedge_product(cx, dec, q, y)
            dq = sv.distance(q, xq, yq, p)
            df = dc.distance_formula(cx, x, v, y, dec, p)
            assert abs(dq - df) < 1e-9


class TestAmGm:
    def test_worked_example(self):
        # 1/2 < 3/4, combined sqrt(10)/sqrt(20) ~ 0.7071 < 0.75
        assert dc.amgm_check(1, 2, 3, 4, 2.0)
        combined = math.sqrt(10) / math.sqrt(20)
        assert combined < 0.75

    def test_equal_ratio_boundary(self):
        # premise fails (not strictly <): vacuously true; combined equals c/d
        assert dc.amgm_check(1, 2, 2, 4, 2.0)
        for p in (1.5, 2.0, 3.0):
            combined = (1 ** p + 2 ** p) ** (1 / p) / (2 ** p + 4 ** p) ** (1 / p)
            assert abs(combined - 0.5) < 1e-12

    def test_property_random(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            a, b, cval, d = rng.uniform(0.01, 10.0, 4)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            assert dc.amgm_check(float(a), float(b), float(cval), float(d), p)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dc.amgm_check(0.0, 1, 1, 1, 2.0)
