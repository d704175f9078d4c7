"""Acceptance criteria, one test per criterion, each printing a PASS line.

The random vertex-wedge instances used by criteria 3, 4, 5 and 10 are the 100
seeded staircase wedges from conftest.build_wedge_instance, with p cycling
through {1.5, 2, 3}.
"""

import math
import time

import numpy as np
import pytest

from lpcube import analysis as an
from lpcube import complexes as cc
from lpcube import decomposition as dc
from lpcube import oracle as orc
from lpcube import solver as sv
from lpcube.analysis import sample_point
from lpcube.complexes import Point
from lpcube.geometry import power_map

from conftest import build_wedge_instance

P_CYCLE = (1.5, 2.0, 3.0)


@pytest.fixture(scope="module")
def wedge_instances():
    out = []
    for seed in range(100):
        cx, x, v, y, _ = build_wedge_instance(seed)
        assert len(cx.vertices) <= 64
        assert max(q.dim for q in cx.maximal_cubes()) <= 4
        p = P_CYCLE[seed % 3]
        out.append((seed, cx, x, v, y, p))
    return out


@pytest.fixture(scope="module")
def wedge_geodesics(wedge_instances):
    return [(seed, cx, x, v, y, p, sv.geodesic(cx, x, y, p))
            for seed, cx, x, v, y, p in wedge_instances]


def test_criterion_01_rank4_lattice():
    start = time.perf_counter()
    for p in (1.5, 2.0, 3.0, 8.0):
        x_num, y_num, x_closed, residual = an.rank4_lattice_check(p)
        assert abs(y_num - 0.5) <= 1e-6, (p, y_num)
        assert abs(x_num - (1 + 2 ** (1 / (p - 1))) ** -1) <= 1e-6, (p, x_num)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    x2 = an.rank4_lattice_check(2.0)[2]
    assert x2 == 1 / 3
    print(f"\nACCEPTANCE 1 PASS: rank-4 lattice minimizer matches closed form "
          f"for p in {{1.5,2,3,8}} within 1e-6 ({elapsed:.2f}s)")


def test_criterion_02_p_sweep_limits(scb):
    x, y = Point.make(0b0010), Point.make(0b1101)
    fn = an.break_coordinate_functional(scb, "d")
    start = time.perf_counter()
    z_low = fn(sv.geodesic(scb, x, y, 1.001))
    z_high = fn(sv.geodesic(scb, x, y, 64.0))
    z_two = fn(sv.geodesic(scb, x, y, 2.0))
    assert abs(z_low - 1 / 3) <= 0.01, z_low
    assert abs(z_high - 0.5) <= 0.01, z_high
    assert abs(z_two - 1 / (1 + math.sqrt(2))) <= 1e-6, z_two
    table = an.p_sweep(scb, x, y, fn, an.geometric_grid(1.01, 64.0, 50))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert table.max_gap < 0.05
    print(f"\nACCEPTANCE 2 PASS: break point z(1.001)={z_low:.5f}~1/3, "
          f"z(64)={z_high:.5f}~1/2, z(2)=1/(1+sqrt2) to 1e-6; 50-point sweep in "
          f"{elapsed:.1f}s, max gap {table.max_gap:.4f}")


def test_criterion_03_distance_formula(wedge_geodesics):
    start = time.perf_counter()
    worst = 0.0
    for seed, cx, x, v, y, p, path in wedge_geodesics:
        dec = dc.canonical_decomposition(cx, x, v, y, p)
        d_formula = dc.distance_formula(cx, x, v, y, dec, p)
        gap = abs(d_formula - path.length)
        worst = max(worst, gap)
        assert gap <= 1e-8, (seed, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 3 PASS: |distance_formula - geodesic| <= 1e-8 on 100 "
          f"wedge instances (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_04_oracle_agreement(wedge_geodesics):
    start = time.perf_counter()
    worst = 0.0
    for seed, cx, x, v, y, p, path in wedge_geodesics:
        upper = orc.oracle_distance(cx, x, y, p, 0.02)
        assert upper >= path.length - 1e-9, (seed, upper, path.length)
        gap = abs(upper - path.length)
        worst = max(worst, gap)
        assert gap <= 0.05, (seed, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 4 PASS: epsilon-net oracle within 0.05 of solver and "
          f"never below it on 100 instances (worst gap {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_05_local_condition_soundness(wedge_geodesics):
    rng = np.random.default_rng(2024)
    checked = faulted = 0
    for seed, cx, x, v, y, p, path in wedge_geodesics:
        zt = sv.check_zero_tension(cx, path, tol=1e-8)
        ns = sv.check_no_shortcut(cx, path, tol=1e-8)
        assert all(zt.zero_tension_ok), seed
        assert all(ns.no_shortcut_ok), seed
        checked += 1
        if len(path.breaks) < 3:
            continue
        breaks = list(path.breaks)
        b = breaks[1]
        coords = dict(b.coords)
        for h in sorted(coords):
            moved = coords[h] + 0.05 if coords[h] + 0.05 < 1 else coords[h] - 0.05
            if 0 < moved < 1:
                coords[h] = moved
                break
        else:
            continue
        bad = sv.PiecewisePath(cx, p, tuple(
            [breaks[0], Point.make(b.base, coords)] + breaks[2:]))
        zt2 = sv.check_zero_tension(cx, bad, tol=1e-8)
        ns2 = sv.check_no_shortcut(cx, bad, tol=1e-8)
        fails = not (all(zt2.zero_tension_ok) and all(ns2.no_shortcut_ok))
        longer = bad.length > path.length + 1e-6
        assert fails or longer, seed
        faulted += 1
    # wedges whose geodesic runs exactly through v have a 0-dimensional break
    # face and admit no in-face perturbation; grid instances always do
    assert faulted >= 10
    g = cc.grid(2, 2, 2)
    for trial in range(40):
        trng = np.random.default_rng([77, trial])
        x = sample_point(g, trng)
        y = sample_point(g, trng)
        path = sv.geodesic(g, x, y, 2.0)
        if len(path.breaks) < 3 or not path.breaks[1].coords:
            continue
        b = path.breaks[1]
        coords = dict(b.coords)
        h = sorted(coords)[0]
        coords[h] = coords[h] + 0.05 if coords[h] + 0.05 < 1 else coords[h] - 0.05
        bad = sv.PiecewisePath(g, 2.0, tuple(
            [path.breaks[0], Point.make(b.base, coords)] + list(path.breaks[2:])))
        zt2 = sv.check_zero_tension(g, bad, tol=1e-8)
        ns2 = sv.check_no_shortcut(g, bad, tol=1e-8)
        fails = not (all(zt2.zero_tension_ok) and all(ns2.no_shortcut_ok))
        assert fails or bad.length > path.length + 1e-6, trial
        faulted += 1
    assert faulted >= 30
    print(f"\nACCEPTANCE 5 PASS: all {checked} solver geodesics pass both local "
          f"conditions at 1e-8; {faulted} fault-injected paths fail or lengthen")


def test_criterion_06_uniqueness(scb, corner, grid222, book2, cube3, rect):
    # (a) every solve passes both local conditions, which certify the unique
    # geodesic; test_solver's test_optimal_galleries_agree compares it with
    # the optimum of every gallery
    rng = np.random.default_rng(4096)
    solves = 0
    for cx in (scb, corner, grid222, book2, cube3, rect):
        for _ in range(12):
            x = sample_point(cx, rng)
            y = sample_point(cx, rng)
            path = sv.geodesic(cx, x, y, float(rng.choice(P_CYCLE)))
            assert sv.check_local_geodesic(cx, path, tol=1e-8).all_ok
            solves += 1
    # (b) three-cube configurations: restarts converge to one optimum
    rng = np.random.default_rng(512)
    for p in P_CYCLE:
        x = sample_point(scb, rng)
        y = sample_point(scb, rng)
        ref = sv.geodesic(scb, x, y, p)
        n = len(scb.hyperplanes)
        for _ in range(10):
            init = []
            for a, b in zip(ref.gallery.cubes, ref.gallery.cubes[1:]):
                face = sv.cube_intersection(a, b)
                vec = np.zeros(n)
                for i in range(n):
                    if face.mask >> i & 1:
                        vec[i] = rng.uniform(0.01, 0.99)
                    elif face.corner >> i & 1:
                        vec[i] = 1.0
                init.append(vec)
            path = sv.optimize_breakpoints(scb, ref.gallery, x, y, p, init=init)
            assert sv.path_sup_distance(path, ref) < 1e-7
    print(f"\nACCEPTANCE 6 PASS: {solves} solves over all fixtures certified by "
          f"the local conditions; three-cube restarts converge within 1e-7")


@pytest.mark.parametrize("fixture_name", ["corner", "grid222"])
def test_criterion_07_busemann_suites(fixture_name, corner, grid222):
    # 1000 sampled configurations per fixture per p: 600 midpoint triples plus
    # 400 busemann quadruples (each checked on a 9-point t grid)
    cx = {"corner": corner, "grid222": grid222}[fixture_name]
    start = time.perf_counter()
    for p in P_CYCLE:
        rep = an.midpoint_convexity_suite(cx, p, 600, seed=1000 + int(p * 10))
        assert rep.violations == 0, (fixture_name, p, rep.worst_margin)
        rep2 = an.busemann_suite(cx, p, 400, seed=2000 + int(p * 10))
        assert rep2.violations == 0, (fixture_name, p, rep2.worst_margin)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 7 PASS [{fixture_name}]: 600 midpoint triples + 400 "
          f"busemann quadruples x 9 t-values per p in {{1.5,2,3}}, zero "
          f"violations at 1e-8 ({elapsed:.0f}s)")


def test_criterion_08a_uniform_convexity(cube3, corner):
    for p in (2.0, 3.0, 4.0):
        for cx in (cube3, corner):
            rep = an.uniform_convexity_suite(cx, p, None, 1000, seed=int(p))
            assert rep.constants_used["k"] == 0.5 ** p
            assert rep.violations == 0, (p, rep.worst_margin)
    # collinear equality at p=2, k=1/4 on a path graph
    t3 = cc.tree([("a", "b"), ("b", "c")])
    m = sv.bicombing(t3, Point.make(0), Point.make(3), 0.5, 2.0)
    slack = (0.5 * sv.distance(t3, Point.make(1), Point.make(0), 2.0) ** 2
             + 0.5 * sv.distance(t3, Point.make(1), Point.make(3), 2.0) ** 2
             - 0.25 * sv.distance(t3, Point.make(0), Point.make(3), 2.0) ** 2
             - sv.distance(t3, Point.make(1), m, 2.0) ** 2)
    assert abs(slack) <= 1e-9
    print("\nACCEPTANCE 8a PASS: k=1/2^p convexity (p in {2,3,4}) holds over "
          "1000 samples per fixture; collinear equality realized at p=2, k=1/4")


def test_criterion_08b_uniform_smoothness_as_stated(rect):
    """KNOWN RED at p=2: the constant C=(p-1)^2/4 is falsified inside the flat
    long-rectangle fixture (x=(10,0), y=(10,1), z=(6,1) has excess
    sqrt(5)-sqrt(17)+2 ~ 0.113 > 1/16); see the smoothness-constant tests in
    test_analysis.py for the deterministic counterexample and the constant the
    derivation actually supports (C = p-1), which passes comfortably.
    """
    failures = []
    for p in (2.0, 3.0):
        rep = an.uniform_smoothness_suite(rect, p, None, r=1.0, R=4.0,
                                          n_samples=1000, seed=77 + int(p))
        assert rep.constants_used["C"] == (p - 1) ** 2 / 4
        if rep.violations:
            failures.append((p, rep.violations, rep.worst_margin))
    if failures:
        print(f"\nACCEPTANCE 8b FAIL (spec defect): smoothness with C=(p-1)^2/4 "
              f"violated: {failures}")
    else:
        print("\nACCEPTANCE 8b PASS: smoothness with C=(p-1)^2/4, p in {2,3}")
    assert not failures, (
        "uniform smoothness with C=(p-1)^2/4 is violated; the constant is a "
        "defect — see tests/test_analysis.py::TestSmoothnessConstant and the "
        "decisions ledger")


def test_criterion_09_bolicity_witnesses(rect):
    rep1 = an.bolicity_b1_suite(rect, 2.0, delta=0.1, r=1.0, n_samples=500, seed=31)
    assert rep1.constants_used["R"] == 5.0
    assert rep1.violations == 0, rep1.worst_margin
    rep2 = an.bolicity_b2_suite(rect, 2.0, None, 1.0, n_samples=500, seed=32)
    assert rep2.constants_used["N"] == 8.0
    assert rep2.violations == 0, rep2.worst_margin
    print("\nACCEPTANCE 9 PASS: B1 with R=5 (delta=0.1, r=1, p=2) and B2 with "
          "N=8 give zero violations over 500 samples each on the long rectangle")


def test_criterion_10_power_map_reduction(wedge_instances):
    mismatches = 0
    for seed, cx, x, v, y, _ in wedge_instances:
        for p in (1.5, 3.0, 4.0):
            dec_p = dc.canonical_decomposition(cx, x, v, y, p)
            dec_2 = dc.canonical_decomposition(
                cx, power_map(cx, x, v, p), v, power_map(cx, y, v, p), 2.0)
            if (dec_p.a_factors, dec_p.b_factors) != (dec_2.a_factors, dec_2.b_factors):
                mismatches += 1
    assert mismatches == 0
    print("\nACCEPTANCE 10 PASS: decompositions at p in {1.5,3,4} equal the p=2 "
          "decompositions of power-mapped points on all 100 instances")


def test_criterion_11_decagon_angle():
    angle1, threshold, passes1 = an.decagon_angle_check(1)
    angle2, _, passes2 = an.decagon_angle_check(2)
    assert not passes1
    assert passes2
    assert abs(angle2 - 0.61548) < 1e-5
    assert abs(threshold - 0.62832) < 1e-5
    print(f"\nACCEPTANCE 11 PASS: n=1 angle {angle1:.5f} fails, n=2 angle "
          f"{angle2:.5f} < {threshold:.5f} passes")
