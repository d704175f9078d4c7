import heapq
import math

import numpy as np
import pytest

from lpcube import complexes as cc
from lpcube import oracle as orc
from lpcube import solver as sv
from lpcube.analysis import sample_point
from lpcube.complexes import Point

from conftest import build_wedge_instance


def textbook_distance(net: orc.NetGraph, p: float) -> float:
    """Plain Dijkstra with heapq and no potential over the explicit arc list:
    an arc joins every pair of nodes that share a maximal cube."""
    arcs: list[list[tuple[float, int]]] = [[] for _ in range(net.n_nodes)]
    for idxs in net.members:
        pts = net.coords[idxs]
        weights = (np.abs(pts[:, None, :] - pts[None, :, :]) ** p).sum(axis=2) ** (1 / p)
        for i, row in zip(idxs.tolist(), weights.tolist()):
            arcs[i] += [(w, j) for w, j in zip(row, idxs.tolist()) if j != i]
    dist = [math.inf] * net.n_nodes
    dist[net.source] = 0.0
    heap = [(0.0, net.source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for w, v in arcs[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist[net.target]


class TestDyadicStep:
    def test_mapping(self):
        assert orc.dyadic_step(0.5) == 0.5
        assert orc.dyadic_step(0.3) == 0.25
        assert orc.dyadic_step(0.05) == 0.03125
        assert orc.dyadic_step(0.02) == 0.015625

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            orc.dyadic_step(0.0)


class TestOracleDistance:
    def test_single_cube_exact(self, cube3):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = sample_point(cube3, rng)
            y = sample_point(cube3, rng)
            for p in (1.5, 2.0):
                d = orc.oracle_distance(cube3, x, y, p, 0.5)
                exact = sv.distance(cube3, x, y, p)
                assert abs(d - exact) < 1e-12

    def test_two_squares_at_vertex(self):
        wedge = cc.CubeComplex(["a1", "a2", "b1", "b2"], [0, 1, 2, 3, 4, 8, 12])
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        for p in (1.5, 2.0):
            d = orc.oracle_distance(wedge, x, y, p, 0.05)
            forced = 2 * (2 * 0.5 ** p) ** (1 / p)
            assert abs(d - forced) <= 0.05

    def test_upper_bound_property(self, corner, grid222):
        rng = np.random.default_rng(2)
        for cx in (corner, grid222):
            for _ in range(6):
                x = sample_point(cx, rng)
                y = sample_point(cx, rng)
                upper = orc.oracle_distance(cx, x, y, 2.0, 0.1)
                exact = sv.distance(cx, x, y, 2.0)
                assert upper >= exact - 1e-9

    def test_monotone_refinement(self, corner):
        rng = np.random.default_rng(3)
        for _ in range(4):
            x = sample_point(corner, rng)
            y = sample_point(corner, rng)
            vals = [orc.oracle_distance(corner, x, y, 2.0, eps)
                    for eps in (0.5, 0.25, 0.125, 0.0625)]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-12

    def test_matches_textbook_dijkstra(self, cube3, corner, grid222, scb):
        cases = []
        rng = np.random.default_rng(6)
        for cx in (cube3, corner, grid222, scb):
            cases += [(cx, sample_point(cx, rng), sample_point(cx, rng)) for _ in range(3)]
        for seed in range(10):
            cx, x, _, y, _ = build_wedge_instance(seed)
            cases.append((cx, x, y))
        for cx, x, y in cases:
            for eps in (0.5, 0.25):
                net = orc.build_net(cx, x, y, eps)
                for p in (1.5, 2.0, 3.0):
                    want = textbook_distance(net, p)
                    assert orc.oracle_distance(cx, x, y, p, eps) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed, p, value", [(31, 2.0, 1.531312844731218),
                                                (89, 3.0, 2.0779522766871152)])
    def test_fine_net_values(self, seed, p, value):
        # two of the largest criterion-4 nets (8,451 and 4,291 nodes)
        cx, x, _, y, _ = build_wedge_instance(seed)
        assert orc.oracle_distance(cx, x, y, p, 0.02) == pytest.approx(value, abs=1e-12)

    def test_wedge_instances_close(self):
        for seed in (0, 3, 7):
            cx, x, v, y, _ = build_wedge_instance(seed)
            d = orc.oracle_distance(cx, x, y, 2.0, 0.05)
            exact = sv.distance(cx, x, y, 2.0)
            assert d >= exact - 1e-9
            assert abs(d - exact) <= 0.05


class TestCertify:
    def test_single_cube_any_eps(self, cube3):
        x = Point.make(0, {0: 0.2, 1: 0.2, 2: 0.2})
        y = Point.make(0, {0: 0.9, 1: 0.8, 2: 0.7})
        assert orc.oracle_certify(cube3, x, y, 2.0, 0.5)

    def test_corner_instances(self, corner):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = sample_point(corner, rng)
            y = sample_point(corner, rng)
            assert orc.oracle_certify(corner, x, y, 2.0, 0.05)

    def test_corrupted_path_fails(self, corner):
        # fault injection: a path reported 0.2 longer must not certify
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        path = sv.geodesic(corner, x, y, 2.0)
        detour = Point.make(0, {1: 0.932, 2: 0.921})  # off-route corner point
        stretched = sv.PiecewisePath(corner, 2.0, (x, detour, y))
        assert stretched.length > path.length + 0.2
        assert not orc.certify_path(corner, stretched, 0.05)
