import math

import numpy as np
import pytest

from lpcube import analysis as an
from lpcube import complexes as cc
from lpcube import solver as sv
from lpcube.complexes import Point
from lpcube.errors import InsufficientDiameter, ParseError


class TestMidpointSuite:
    def test_degenerate_equality(self, square):
        # y = y' gives slack exactly 0
        x = Point.make(0, {0: 0.2, 1: 0.3})
        y = Point.make(0, {0: 0.8, 1: 0.9})
        m1 = sv.bicombing(square, x, y, 0.5, 2.0)
        assert sv.distance(square, m1, m1, 2.0) == 0.0

    def test_single_cube_exact(self, cube3):
        rep = an.midpoint_convexity_suite(cube3, 2.0, 150, seed=5)
        assert rep.violations == 0
        assert rep.worst_margin > -1e-12

    def test_corner_complex_p3_thousand(self, corner):
        rep = an.midpoint_convexity_suite(corner, 3.0, 1000, seed=17)
        assert rep.violations == 0

    def test_deterministic_and_replayable(self, corner):
        r1 = an.midpoint_convexity_suite(corner, 2.0, 60, seed=9)
        r2 = an.midpoint_convexity_suite(corner, 2.0, 60, seed=9)
        assert r1.worst_margin == r2.worst_margin
        assert r1.witness == r2.witness
        replayed = an.replay_witness(corner, r1.witness)
        assert abs(replayed - r1.worst_margin) < 1e-12

    def test_scale_invariance(self, corner):
        r1 = an.midpoint_convexity_suite(corner, 2.0, 60, seed=9, scale=1.0)
        r3 = an.midpoint_convexity_suite(corner, 2.0, 60, seed=9, scale=3.0)
        assert r1.violations == r3.violations
        assert abs(r3.worst_margin - 3.0 * r1.worst_margin) < 1e-9


class TestBusemannSuite:
    def test_degenerate_quadruple(self, square):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {0: 0.9, 1: 0.9})
        s = sv.geodesic(square, x, y, 2.0)
        for t in (0.25, 0.5):
            assert sv.distance(square, s.evaluate(t), s.evaluate(t), 2.0) == 0.0

    def test_grid_quadruples(self, grid222):
        rep = an.busemann_suite(grid222, 2.0, 40, seed=3)
        assert rep.violations == 0

    def test_corner_15(self, corner):
        rep = an.busemann_suite(corner, 1.5, 80, seed=4)
        assert rep.violations == 0


class TestUniformConvexity:
    def test_y_equals_z_reduces_to_equality(self, square):
        x = Point.make(0, {0: 0.1, 1: 0.1})
        y = Point.make(0, {0: 0.9, 1: 0.7})
        p, k = 2.0, 0.25
        lhs = sv.distance(square, x, y, p) ** p
        rhs = 0.5 * lhs + 0.5 * lhs - k * 0.0
        assert abs(lhs - rhs) < 1e-12

    def test_line_equality_case(self):
        # path a-b-c with x the middle vertex, y and z the ends: p=2, k=1/4
        # realizes equality: 0 = 1/2 + 1/2 - (1/4) 2^2
        t = cc.tree([("a", "b"), ("b", "c")])
        x = Point.make(1)      # middle vertex
        y = Point.make(0)
        z = Point.make(3)
        p, k = 2.0, 0.25
        m = sv.bicombing(t, y, z, 0.5, p)
        slack = (0.5 * sv.distance(t, x, y, p) ** p
                 + 0.5 * sv.distance(t, x, z, p) ** p
                 - k * sv.distance(t, y, z, p) ** p
                 - sv.distance(t, x, m, p) ** p)
        assert abs(slack) < 1e-9

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_hypercube3(self, cube3, p):
        rep = an.uniform_convexity_suite(cube3, p, None, 300, seed=8)
        assert rep.constants_used["k"] == 0.5 ** p
        assert rep.violations == 0

    def test_small_p_default_documented(self, square):
        rep = an.uniform_convexity_suite(square, 1.5, None, 50, seed=2)
        assert rep.constants_used["k"] == (1.5 - 1.0) / 8.0
        assert rep.violations == 0


class TestUniformSmoothness:
    def test_x_equals_y_trivial(self, rect):
        # with x = y the inequality is the triangle bound plus slack
        y = Point.make(0, {0: 0.5, 12: 0.5})
        z = Point.make(0b111111111111 | 0, {11: 0.5, 12: 0.5})
        p, C = 2.0, 0.25
        m = sv.bicombing(rect, y, z, 0.5, p)
        lhs = sv.distance(rect, y, m, p)
        rhs = sv.distance(rect, y, z, p) - 0.5 * sv.distance(rect, y, z, p)
        assert lhs <= rhs + 0.5 * sv.distance(rect, y, z, p) + 1e-9

    def test_collinear_tree_equality_up_to_slack(self):
        # on a long path graph, collinear x,y,z: slack is exactly C r^2 / R
        t = cc.tree([(f"n{i}", f"n{i+1}") for i in range(8)])
        x = Point.make(0)
        y = Point.make(1)          # distance 1 from x
        z = Point.make(sum(1 << i for i in range(8)))  # far end of the path
        p, C, r, R = 2.0, 0.25, 1.0, 4.0
        m = sv.bicombing(t, y, z, 0.5, p)
        slack = (sv.distance(t, x, z, p) - 0.5 * sv.distance(t, y, z, p)
                 + C * r * r / R - sv.distance(t, x, m, p))
        assert abs(slack - C * r * r / R) < 1e-9

    def test_long_rectangle(self, rect):
        rep = an.uniform_smoothness_suite(rect, 2.0, None, r=1.0, R=4.0,
                                          n_samples=120, seed=21)
        assert rep.constants_used["C"] == 0.25
        assert rep.violations == 0

    def test_insufficient_diameter(self, square):
        with pytest.raises(InsufficientDiameter):
            an.uniform_smoothness_suite(square, 2.0, None, r=1.0, R=4.0,
                                        n_samples=5, seed=1)


class TestSmoothnessConstant:
    """The aggressive default C=(p-1)^2/4 admits flat counterexamples; the
    supported constant C = p-1 (from the two-point inequality, K^2 = p-1, and
    R - r >= R/2) holds.  Pinned deterministically so sampler luck is moot."""

    def test_flat_counterexample_at_quarter(self, rect):
        # geometric (10,0), (10,1), (6,1) in the flat strip: r=1, R=4
        x = Point.make(sum(1 << i for i in range(10)))
        y = Point.make(sum(1 << i for i in range(10)) | (1 << 12))
        z = Point.make(sum(1 << i for i in range(6)) | (1 << 12))
        p = 2.0
        assert abs(sv.distance(rect, x, y, p) - 1.0) < 1e-12
        assert abs(sv.distance(rect, y, z, p) - 4.0) < 1e-12
        m = sv.bicombing(rect, y, z, 0.5, p)
        excess = (sv.distance(rect, x, m, p) - sv.distance(rect, x, z, p)
                  + 0.5 * sv.distance(rect, y, z, p))
        exact = math.sqrt(5) - math.sqrt(17) + 2.0
        assert abs(excess - exact) < 1e-9
        assert excess > 0.25 * 1.0 / 4.0          # violates C = 1/4
        assert excess <= (p - 1.0) * 1.0 / 4.0    # satisfied by C = p-1

    def test_supported_constant_clean(self, rect):
        for p in (2.0, 3.0):
            rep = an.uniform_smoothness_suite(rect, p, p - 1.0, r=1.0, R=4.0,
                                              n_samples=200, seed=79)
            assert rep.violations == 0, (p, rep.worst_margin)


class TestBolicity:
    def test_b1_witness_radius_paper_values(self):
        # delta=0.1, r=1, p=2 -> C=1/4 and R = max(5, 2) = 5
        assert an.b1_witness_radius(0.1, 1.0, 0.25) == 5.0

    def test_b1_degenerate_zero_excess(self, rect):
        a = Point.make(0, {0: 0.5, 12: 0.5})
        b = Point.make(sum(1 << i for i in range(12)), {11: 0.5, 12: 0.5})
        p = 2.0
        excess = (sv.distance(rect, a, b, p) + sv.distance(rect, a, b, p)
                  - sv.distance(rect, a, b, p) - sv.distance(rect, a, b, p))
        assert excess == 0.0

    def test_b1_long_rectangle(self, rect):
        rep = an.bolicity_b1_suite(rect, 2.0, delta=0.1, r=1.0,
                                   n_samples=60, seed=33)
        assert rep.constants_used["R"] == 5.0
        assert rep.violations == 0

    def test_b2_threshold_paper_example(self):
        # p=2, k=1/4, C=1: N_min = 1/(1 - sqrt(3)/2) ~ 7.46, so N = 8
        assert an.b2_threshold(0.25, 1.0, 2.0) == 8.0
        n_min = 1.0 / (1.0 - math.sqrt(0.75))
        assert 7.4 < n_min < 7.5

    def test_b2_degenerate(self, rect):
        # y = z makes d(x,y) <= N give the bound trivially
        x = Point.make(0, {0: 0.5, 12: 0.5})
        y = Point.make(0b11, {2: 0.5, 12: 0.5})
        m = sv.bicombing(rect, y, y, 0.5, 2.0)
        assert m == y
        assert sv.distance(rect, x, m, 2.0) == sv.distance(rect, x, y, 2.0)

    def test_b2_long_rectangle(self, rect):
        rep = an.bolicity_b2_suite(rect, 2.0, None, 1.0, n_samples=60, seed=34)
        assert rep.constants_used["N"] == 8.0
        assert rep.violations == 0
        assert abs(an.replay_witness(rect, rep.witness) - rep.worst_margin) < 1e-12

    def test_b2_insufficient_diameter(self, square):
        with pytest.raises(InsufficientDiameter):
            an.bolicity_b2_suite(square, 2.0, None, 1.0, n_samples=5, seed=1)


REPLAY_CASES = [
    # (fixture, suite call, pinned witness index, pinned worst margin)
    ("corner", lambda cx: an.midpoint_convexity_suite(cx, 2.0, 20, seed=9),
     19, -1.27675647831893e-15),
    ("corner", lambda cx: an.busemann_suite(cx, 2.0, 10, seed=3),
     2, 0.0029765610535416043),
    ("corner", lambda cx: an.uniform_convexity_suite(cx, 3.0, None, 20, seed=8),
     3, 0.004028564300836757),
    ("rect", lambda cx: an.uniform_smoothness_suite(cx, 2.0, None, r=1.0, R=4.0,
                                                    n_samples=10, seed=21),
     4, 0.0529188000158296),
    ("rect", lambda cx: an.bolicity_b1_suite(cx, 2.0, delta=0.1, r=1.0,
                                             n_samples=10, seed=31),
     7, 0.0670863785143613),
    ("rect", lambda cx: an.bolicity_b2_suite(cx, 2.0, None, 1.0, n_samples=10, seed=32),
     2, 5.3734031148012615),
]


@pytest.mark.parametrize("fixture, run, index, margin", REPLAY_CASES,
                         ids=["midpoint", "busemann", "uniform_convexity",
                              "uniform_smoothness", "bolicity_b1", "bolicity_b2"])
def test_replay_matches_run_exactly(request, fixture, run, index, margin):
    cx = request.getfixturevalue(fixture)
    rep = run(cx)
    assert rep.witness["index"] == index
    assert rep.worst_margin == margin
    assert an.replay_witness(cx, rep.witness) == rep.worst_margin


@pytest.mark.parametrize("fixture, run, index, margin", REPLAY_CASES,
                         ids=["midpoint", "busemann", "uniform_convexity",
                              "uniform_smoothness", "bolicity_b1", "bolicity_b2"])
def test_replay_of_a_witness_without_a_point_is_a_parse_error(request, fixture, run,
                                                              index, margin):
    cx = request.getfixturevalue(fixture)
    witness = run(cx).witness
    points = [key for key, obj in witness.items() if isinstance(obj, dict)]
    assert len(points) >= 3
    for key in points:
        with pytest.raises(ParseError, match=key):
            an.replay_witness(cx, {k: v for k, v in witness.items() if k != key})


@pytest.mark.parametrize("fixture, run, index, margin", REPLAY_CASES,
                         ids=["midpoint", "busemann", "uniform_convexity",
                              "uniform_smoothness", "bolicity_b1", "bolicity_b2"])
def test_replay_of_a_witness_without_a_constant_is_a_parse_error(request, fixture, run,
                                                                 index, margin):
    cx = request.getfixturevalue(fixture)
    witness = run(cx).witness
    constants = [key for key, obj in witness.items()
                 if key not in ("suite", "index") and not isinstance(obj, dict)]
    assert "p" in constants
    for key in constants:
        with pytest.raises(ParseError, match=f"lacks the constants {key}$"):
            an.replay_witness(cx, {k: v for k, v in witness.items() if k != key})


def test_replay_of_a_witness_without_a_suite_is_a_parse_error(corner):
    witness = an.midpoint_convexity_suite(corner, 2.0, 2, seed=9).witness
    with pytest.raises(ParseError, match="no known suite: None"):
        an.replay_witness(corner, {k: v for k, v in witness.items() if k != "suite"})


def test_replay_of_a_witness_of_an_unknown_suite_is_a_parse_error(corner):
    witness = an.midpoint_convexity_suite(corner, 2.0, 2, seed=9).witness
    with pytest.raises(ParseError, match="no known suite: 'median'"):
        an.replay_witness(corner, dict(witness, suite="median"))


class TestPSweep:
    def test_constant_functional(self, scb):
        x, y = Point.make(0b0010), Point.make(0b1101)
        table = an.p_sweep(scb, x, y, lambda path: 1.0, [1.5, 2.0, 3.0])
        assert [v for _, v in table.rows] == [1.0, 1.0, 1.0]
        assert table.max_gap == 0.0

    def test_break_coordinate_limits(self, scb):
        x, y = Point.make(0b0010), Point.make(0b1101)
        fn = an.break_coordinate_functional(scb, "d")
        table = an.p_sweep(scb, x, y, fn, an.geometric_grid(1.01, 64.0, 50))
        first = table.rows[0][1]
        last = table.rows[-1][1]
        assert abs(first - 1 / 3) < 0.01
        assert abs(last - 0.5) < 0.01
        assert table.max_gap < 0.05

    def test_grid_must_increase(self, scb):
        x, y = Point.make(0b0010), Point.make(0b1101)
        with pytest.raises(ValueError):
            an.p_sweep(scb, x, y, lambda path: 1.0, [2.0, 1.5])


class TestClosedFormChecks:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
    def test_rank4_lattice(self, p):
        xn, yn, xc, residual = an.rank4_lattice_check(p)
        assert residual <= 1e-6
        assert abs(yn - 0.5) <= 1e-6
        assert abs(xn - 1.0 / (1.0 + 2.0 ** (1.0 / (p - 1.0)))) <= 1e-6

    def test_rank4_p2_exact_third(self):
        xn, yn, xc, _ = an.rank4_lattice_check(2.0)
        assert abs(xc - 1 / 3) < 1e-15

    def test_decagon_n1_fails(self):
        angle, threshold, passes = an.decagon_angle_check(1)
        assert abs(angle - math.pi / 4) < 1e-12
        assert not passes

    def test_decagon_n2_passes(self):
        angle, threshold, passes = an.decagon_angle_check(2)
        assert abs(angle - 0.6154797086703871) < 1e-12
        assert abs(threshold - 0.6283185307179586) < 1e-12
        assert passes

    def test_decagon_limit(self):
        angle, _, _ = an.decagon_angle_check(10_000)
        assert angle < 0.01
