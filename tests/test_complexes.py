import dataclasses
import itertools
import json
import pickle

import numpy as np
import pytest

from lpcube import complexes as cc
from lpcube import fixtures
from lpcube.analysis import sample_point
from lpcube.complexes import (CubeComplex, CubeRef, Point, _enumerate_cubes, _separating,
                              bit_indices, cube_intersection, median_of)
from lpcube.errors import Disconnected, NotMedian, ParseError, ScaleExceeded
from lpcube.geometry import distance_lower_bound, lp_norm

from conftest import build_wedge_instance, corner_times_path, tree_product


def reference_median_witness(vertices):
    """Median closure by trying every triple: the first (u, v, w, missing
    median) in sorted order, or None if the set is median-closed."""
    verts = sorted(vertices)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            for w in verts:
                m = median_of(u, v, w)
                if m not in vertices:
                    return u, v, w, m
    return None


def is_connected(vertices):
    seen, stack = set(), [min(vertices)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack += [w for w in vertices if bin(v ^ w).count("1") == 1]
    return seen == set(vertices)


def assert_valid_witness(vertices, labels, witness):
    """u, v and w are vertices and missing_median is their median, which is not."""
    u, v, w, m = (sum(s << labels.index(h) for h, s in witness[key].items())
                  for key in ("u", "v", "w", "missing_median"))
    assert {u, v, w} <= vertices
    assert m == median_of(u, v, w) and m not in vertices


def median_closure(vertices):
    closed = set(vertices)
    while True:
        new = {median_of(u, v, w) for u, v, w in itertools.combinations(sorted(closed), 3)}
        if new <= closed:
            return closed
        closed |= new


def random_tree_edges(n_vertices):
    """Edge i joins v{rng.integers(i)} to v{i}: a random tree rooted at v0."""
    rng = np.random.default_rng(5)
    return [(f"v{int(rng.integers(i))}", f"v{i}") for i in range(1, n_vertices)]


def brute_interval_hull(vertices, seeds):
    """Oracle: closure under bitwise intervals, iterated to a fixpoint."""
    hull = set(seeds)
    changed = True
    while changed:
        changed = False
        for u, v in itertools.combinations(sorted(hull), 2):
            lo, hi = u & v, u | v
            for z in vertices:
                if z not in hull and not (lo & ~z) and not (z & ~hi):
                    hull.add(z)
                    changed = True
    return frozenset(hull)


def reference_enumerate_cubes(vertices: frozenset[int]) -> tuple[tuple[CubeRef, ...],
                                                               tuple[CubeRef, ...]]:
    """Every cube, bottom-up, and the maximal ones in the same order.

    A cube one dimension up grows from two faces on either side of a
    hyperplane that separates vertices, once per hyperplane it spans, so
    the faces it is grown from are all the cubes it contains one dimension
    down: a cube no cube grows from is maximal.
    """
    bits = [1 << i for i in bit_indices(_separating(vertices))]
    current = {CubeRef(v, 0) for v in vertices}
    out = list(current)
    faces = set()
    while current:
        grown = set()
        for ref in current:
            for bit in bits:
                if ref.mask & bit or ref.corner & bit:
                    continue
                twin = CubeRef(ref.corner | bit, ref.mask)
                if twin in current:
                    grown.add(CubeRef(ref.corner, ref.mask | bit))
                    faces.update((ref, twin))
        out.extend(grown)
        current = grown
    return tuple(out), tuple(ref for ref in out if ref not in faces)


def random_q5_subsets(count):
    """Nonempty vertex subsets of the 5-cube.  Every other one varies only
    the low bits and holds the bits above them at a random constant, so that
    constant bits lie above every separating bit."""
    rng = np.random.default_rng(25)
    for i in range(count):
        if i % 2:
            free = int(rng.integers(1, 32))
            constant = int(rng.integers(32)) & ~free
        else:
            low = int(rng.integers(1, 5))
            free = (1 << low) - 1
            constant = int(rng.integers(1, 1 << (5 - low))) << low
        subs = [s for s in range(32) if not s & ~free]
        picked = {constant | s for s in subs if rng.random() < 0.6}
        yield frozenset(picked or {constant})


def doc(labels, masks):
    return json.dumps({
        "hyperplanes": labels,
        "vertices": [{h: (m >> i) & 1 for i, h in enumerate(labels)} for m in masks],
    })


class TestLoad:
    def test_unit_square(self):
        cx = cc.load(doc(["h1", "h2"], [0, 1, 2, 3]))
        assert len(cx.hyperplanes) == 2
        assert len(cx.vertices) == 4

    def test_l_shape_is_valid(self):
        # {00, 01, 10}: majority of any triple is again listed, by brute force
        masks = [0, 1, 2]
        assert reference_median_witness(set(masks)) is None
        cx = cc.load(doc(["h1", "h2"], masks))
        assert len(cx.vertices) == 3

    def test_not_median_witness(self):
        # the 6-cycle in the 3-cube is connected but not median-closed
        masks = [0b000, 0b001, 0b011, 0b111, 0b110, 0b100]
        assert reference_median_witness(set(masks)) is not None
        with pytest.raises(NotMedian) as ei:
            cc.load(doc(["h1", "h2", "h3"], masks))
        w = ei.value.witness
        assert "missing_median" in w

    def test_disconnected_witness(self):
        with pytest.raises(Disconnected):
            cc.load(doc(["h1", "h2"], [0, 3]))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            cc.load("{not json")
        with pytest.raises(ParseError):
            cc.load(doc(["h1", "h1"], [0]))
        with pytest.raises(ParseError):
            cc.load(json.dumps({"hyperplanes": ["h1"], "vertices": [{"h2": 0}]}))
        with pytest.raises(ParseError):
            cc.load(json.dumps({"hyperplanes": ["h1"]}))

    @pytest.mark.parametrize("side", [True, False, 0.0, 1.0, "1", None])
    def test_a_side_that_is_not_the_integer_0_or_1_is_a_parse_error(self, side):
        text = json.dumps({"hyperplanes": ["h1"], "vertices": [{"h1": 0}, {"h1": side}]})
        with pytest.raises(ParseError, match="must be 0 or 1"):
            cc.load(text)

    def test_bytes_that_are_not_utf8_are_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            cc.load(b'\xff{"a":1}')

    def test_dump_round_trip(self, corner):
        again = cc.load(cc.dump(corner))
        assert again.vertices == corner.vertices
        assert again.hyperplanes == corner.hyperplanes


class TestMedianCheck:
    def assert_matches_reference(self, vertices, n_bits):
        """Building the complex raises Disconnected on a disconnected set, and
        on any other set raises NotMedian, with a valid witness, exactly when
        the triple search finds one.  Returns whether the set is median."""
        verts = frozenset(vertices)
        want = reference_median_witness(verts)
        labels = [f"h{i}" for i in range(n_bits)]
        if not is_connected(verts):
            with pytest.raises(Disconnected):
                CubeComplex(labels, verts)
        elif want is None:
            CubeComplex(labels, verts)
        else:
            with pytest.raises(NotMedian) as ei:
                CubeComplex(labels, verts)
            assert_valid_witness(verts, labels, ei.value.witness)
        return want is None

    def test_every_subset_of_the_3_cube(self):
        verdicts = [self.assert_matches_reference([v for v in range(8) if s >> v & 1], 3)
                    for s in range(1, 256)]
        assert verdicts.count(False) > 0 and verdicts.count(True) > 0

    def test_random_sets_up_to_6_bits(self):
        # random subsets are mostly not median; median closures of a few random
        # vertices are median, and one flipped member often breaks them
        rng = np.random.default_rng(11)
        verdicts = []
        for trial in range(2400):
            n_bits = int(rng.integers(1, 7))
            draw = lambda k: {int(v) for v in rng.integers(0, 1 << n_bits, size=k)}
            if trial % 3 == 0:
                verts = draw(int(rng.integers(1, 13)))
            else:
                verts = median_closure(draw(int(rng.integers(1, 5))))
                if trial % 3 == 2:
                    verts ^= draw(1)
            if verts:
                verdicts.append(self.assert_matches_reference(verts, n_bits))
        assert len(verdicts) >= 2000
        assert min(verdicts.count(False), verdicts.count(True)) > 400

    def test_random_tree_400_builds_with_the_check(self):
        for n in (400, 2000):
            assert len(cc.tree(random_tree_edges(n)).vertices) == n

    def test_generators_above_600_vertices_run_the_check(self, monkeypatch):
        calls = []
        check = cc.missing_square
        monkeypatch.setattr(cc, "missing_square", lambda *a: calls.append(a) or check(*a))
        g = cc.grid(12, 12, 12)
        assert len(g.vertices) == 2197 and len(calls) == 1
        hole = g.vertex_order[6 * 169 + 6 * 13 + 6]    # (6, 6, 6)
        with pytest.raises(NotMedian) as ei:
            CubeComplex(g.hyperplanes, g.vertices - {hole})
        assert_valid_witness(g.vertices - {hole}, list(g.hyperplanes), ei.value.witness)
        assert len(calls) == 2

    def test_random_tree_plus_one_vertex_is_not_median(self):
        # x lies two edges below a; flipping the edge above a puts x across it,
        # so the median of x', a's parent and x's parent is missing
        edges = random_tree_edges(400)
        parent = [None] + [int(a[1:]) for a, _ in edges]
        mask = [0]
        for i in range(1, len(parent)):
            mask.append(mask[parent[i]] | 1 << (i - 1))
        x = next(i for i in range(len(mask)) if bin(mask[i]).count("1") >= 3)
        a = parent[parent[x]]
        t = cc.tree(edges)
        extra = mask[x] ^ 1 << (a - 1)
        assert extra not in t.vertices
        with pytest.raises(NotMedian) as ei:
            CubeComplex(t.hyperplanes, t.vertices | {extra})
        missing = ei.value.witness["missing_median"]
        assert sum(s << t.label_index[h] for h, s in missing.items()) not in t.vertices


class TestMedian:
    def test_degenerate(self, square):
        assert square.median(0, 0, 3) == 0

    def test_square_majority(self, square):
        # (00, 01, 10) -> 00
        assert square.median(0, 1, 2) == 0

    def test_path_graph(self):
        t = cc.tree([("a", "b"), ("b", "c")])
        a, b, c = 0, 1, 3
        assert t.vertices == {a, b, c}
        assert t.median(a, b, c) == b

    def test_symmetry_and_idempotence(self, grid222):
        rng = np.random.default_rng(3)
        verts = sorted(grid222.vertices)
        for _ in range(200):
            u, v, w = (verts[int(rng.integers(len(verts)))] for _ in range(3))
            m = grid222.median(u, v, w)
            assert m == grid222.median(w, u, v) == grid222.median(v, w, u)
            assert grid222.median(u, u, v) == u
            assert m in grid222.vertices


class TestCubes:
    def test_minimal_cube_vertex(self, square):
        p = Point.make(0)
        assert p.minimal_cube() == CubeRef(0, 0)

    def test_minimal_cube_interior(self, square):
        p = Point.make(0, {0: 0.5, 1: 0.25})
        assert p.minimal_cube() == CubeRef(0, 3)

    def test_edge_point_of_cube3(self, cube3):
        p = Point.make(0, {1: 0.5})
        assert p.minimal_cube() == CubeRef(0, 2)
        assert cube3.is_cube(p.minimal_cube())

    def test_minimal_cube_pair_brute(self, corner, grid222):
        # oracle: scan all cubes for the support-minimal one containing both
        for cx in (corner, grid222):
            rng = np.random.default_rng(11)
            cubes = cx.all_cubes()
            for _ in range(60):
                x = sample_point(cx, rng)
                y = sample_point(cx, rng)
                got = cx.minimal_cube_pair(x, y)
                containing = [q for q in cubes
                              if q.contains_cube(x.minimal_cube())
                              and q.contains_cube(y.minimal_cube())]
                if not containing:
                    assert got is None
                else:
                    best = min(containing, key=lambda q: (q.dim, q.corner))
                    assert got == best

    def test_pair_absent_across_wedge(self, corner):
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        assert corner.minimal_cube_pair(x, y) is None

    def test_pair_vertex_with_cube(self, cube3):
        y = Point.make(0, {0: 0.3, 1: 0.3, 2: 0.3})
        x = Point.make(7)
        assert cube3.minimal_cube_pair(x, y) == CubeRef(0, 7)

    def test_every_cube_is_induced_subhypercube(self, grid222):
        for q in grid222.all_cubes():
            for corner_v in q.corners():
                assert corner_v in grid222.vertices

    def test_enumeration_matches_the_reference_in_order(self):
        # the same cubes in the same order, all and maximal: that order is
        # what sample_point and the tools' endpoints draw from
        complexes = [fixtures.load_fixture(name) for name in fixtures.NAMES]
        complexes += [cc.grid(3, 3, 3), cc.hypercube(4)]
        complexes += [build_wedge_instance(i)[0] for i in range(100)]
        for cx in complexes:
            want_all, want_maximal = reference_enumerate_cubes(cx.vertices)
            assert cx.all_cubes() == want_all
            assert cx.maximal_cubes() == want_maximal

    def test_enumeration_on_q5_subsets_matches_the_reference(self):
        # any vertex set, median or not, connected or not, and among them
        # sets whose constant bits lie above every separating bit
        subsets = list(random_q5_subsets(320))
        assert sum(max(s).bit_length() > _separating(s).bit_length() for s in subsets) > 100
        for vertices in subsets:
            assert _enumerate_cubes(vertices) == reference_enumerate_cubes(vertices), \
                sorted(vertices)

    def test_dimension_is_found_once(self, monkeypatch):
        # the largest maximal cube; the lower bound reads it without a rescan
        for cx, dim in ((cc.corner_complex(), 2), (cc.square_cube_book(), 3),
                        (cc.grid(6, 6, 0), 2), (cc.hypercube(4), 4)):
            assert cx.dimension == dim == max(q.dim for q in cx.maximal_cubes())
            monkeypatch.setattr(CubeComplex, "maximal_cubes", lambda self: pytest.fail())
            assert cx.dimension == dim
            assert distance_lower_bound(cx, Point.make(0), Point.make(max(cx.vertices)), 2.0) > 0
            monkeypatch.undo()


class TestHulls:
    def test_single_point(self, corner):
        p = Point.make(0, {0: 0.5, 1: 0.5})
        hull = corner.hull_restriction([p])
        assert len(hull.vertices) == 4

    def test_square_from_corners(self, square):
        hull = square.hull_restriction([Point.make(0), Point.make(3)])
        assert len(hull.vertices) == 4

    def test_diagonal_cubes_full_grid(self, grid222):
        x = Point.make(0, {0: 0.5, 2: 0.5, 4: 0.5})
        y = Point.make(0b010101, {1: 0.5, 3: 0.5, 5: 0.5})
        hull = grid222.hull_restriction([x, y])
        assert len(hull.vertices) == 27

    def test_against_interval_closure_oracle(self, corner, grid222, scb):
        rng = np.random.default_rng(5)
        for cx in (corner, grid222, scb):
            for _ in range(12):
                x = sample_point(cx, rng)
                y = sample_point(cx, rng)
                seeds = set(x.minimal_cube().corners()) | set(y.minimal_cube().corners())
                expected = brute_interval_hull(cx.vertices, seeds)
                got = cx.convex_hull_vertices(seeds)
                assert got == expected

    def test_closure_operator(self, grid222):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pts = [sample_point(grid222, rng) for _ in range(2)]
            sub = grid222.hull_restriction(pts)
            seeds1 = set()
            for p in pts:
                seeds1 |= set(p.minimal_cube().corners())
            h1 = grid222.convex_hull_vertices(seeds1)
            # idempotent: hull of the hull is the hull
            assert grid222.convex_hull_vertices(h1) == h1
            # extensive
            assert seeds1 <= h1
            # monotone: adding a seed point can only grow the hull
            extra = sample_point(grid222, rng)
            seeds2 = seeds1 | set(extra.minimal_cube().corners())
            assert h1 <= grid222.convex_hull_vertices(seeds2)

    def test_hull_keeps_the_parent_hyperplanes(self, corner, grid222, scb):
        # the hull is a complex on the parent's own hyperplanes, so the points'
        # cubes are cubes of the hull as they are
        rng = np.random.default_rng(14)
        for cx in (corner, grid222, scb):
            for _ in range(10):
                pts = [sample_point(cx, rng) for _ in range(2)]
                hull = cx.hull_restriction(pts)
                seeds = set()
                for p in pts:
                    seeds |= set(p.minimal_cube().corners())
                assert isinstance(hull, CubeComplex)
                assert hull.hyperplanes == cx.hyperplanes
                assert hull.vertices == cx.convex_hull_vertices(seeds)
                assert all(hull.is_cube(p.minimal_cube()) for p in pts)

    def test_hull_cache_key_is_the_corner_set_interval(self):
        # the key taken from the minimal cubes' base corners and corner | mask
        # is the AND and the OR of their corner sets, on points of every
        # dimension from vertices to maximal cubes
        rng = np.random.default_rng(18)
        for name in fixtures.NAMES:
            cx = fixtures.load_fixture(name)
            for _ in range(12):
                pts = []
                for _ in range(int(rng.integers(1, 4))):
                    p = sample_point(cx, rng)
                    pts.append(Point.make(p.base, [c for c in p.coords if rng.random() < 0.6]))
                seeds = set().union(*(p.minimal_cube().corners() for p in pts))
                cx._hull_cache.clear()
                hull = cx.hull_restriction(pts)
                lo = hi = next(iter(seeds))
                for s in seeds:
                    lo, hi = lo & s, hi | s
                assert list(cx._hull_cache) == [(lo, hi)]
                assert hull.vertices == cx.convex_hull_vertices(seeds)


    def test_a_whole_hull_is_the_complex_itself(self, corner):
        # the hull of every vertex shares the complex's cubes and caches;
        # the cache keeps None for it, not the complex
        for i in range(100):
            cx, x, _, y, _ = build_wedge_instance(i)
            assert cx.hull_restriction([x, y]) is cx
            assert list(cx._hull_cache.values()) == [None]
        x, y = Point.make(0b0011), Point.make(0b1100)    # the L's far corners
        assert corner.hull_restriction([x, y]) is corner
        assert corner.hull_restriction([y, Point.make(0, {0: 0.5, 1: 0.5})]) is corner

    def test_a_strict_sub_hull_is_a_complex_of_its_own(self, corner, grid222):
        # on the parent's hyperplanes, and the same object on a second call
        for cx, pts in ((corner, [Point.make(0), Point.make(0b1100)]),
                        (grid222, [Point.make(0, {0: 0.5}), Point.make(0b010100)])):
            hull = cx.hull_restriction(pts)
            assert hull is not cx and hull is cx.hull_restriction(pts)
            assert hull.hyperplanes == cx.hyperplanes
            assert hull.vertices < cx.vertices


def cube_centre(cube: CubeRef) -> Point:
    return Point.make(cube.corner, {h: 0.5 for h in bit_indices(cube.mask)})


class TestSplitHull:
    """The hull of two cubes splits into the product factors of
    ``CubeComplex.factors()``, each built by ``factor``."""

    def test_shared_edge(self, book2):
        # two pages share the spine: the spine times the wedge of two edges
        spine = book2.cube(0, ["spine"])
        sq1 = book2.cube(0, ["spine", "page1"])
        sq2 = book2.cube(0, ["spine", "page2"])
        assert cube_intersection(sq1, sq2) == spine
        hull = book2.hull_restriction([cube_centre(sq1), cube_centre(sq2)])
        assert hull.factors() == ((spine.mask, True), (0b110, True))
        wedge = hull.factor(0b110).complex
        assert len(wedge.vertices) == 3
        assert len(wedge.hyperplanes) == 2

    def test_shared_vertex(self, corner):
        # two squares share a vertex: one irreducible factor, the corner
        c1 = corner.cube(0, ["a1", "a2"])
        c2 = corner.cube(0, ["b1", "b2"])
        assert cube_intersection(c1, c2).mask == 0
        hull = corner.hull_restriction([cube_centre(c1), cube_centre(c2)])
        assert hull.factors() == ((0b1111, False),)
        assert len(hull.factor(0b1111).complex.vertices) == 8

    def test_two_cubes_sharing_square(self):
        # the shared square's two hyperplanes are factors, and so is the x path
        g = cc.grid(2, 1, 1)
        cb1 = g.cube(0, ["x1", "y1", "z1"])
        cb2 = g.cube(1, ["x2", "y1", "z1"])
        d = cube_intersection(cb1, cb2)
        assert d.dim == 2
        hull = g.hull_restriction([cube_centre(cb1), cube_centre(cb2)])
        assert hull.factors() == ((0b0011, True), (0b0100, True), (0b1000, True))
        assert d.mask == 0b1100
        xpath = hull.factor(0b0011).complex
        assert len(xpath.hyperplanes) == 2
        assert len(xpath.vertices) == 3

    def test_product_law(self, book2):
        # d_p(x, y) is the lp norm of the factors' d_p of the projections: on
        # book2 up to p = 64, and on four complexes with one irreducible
        # factor or none
        from lpcube import solver as sv
        subjects = [(book2, (1.5, 2.0, 3.0, 64.0))] + [
            (cx, (1.5, 2.0, 3.0)) for cx in (cc.square_cube_book(), corner_times_path(),
                                             cc.grid(2, 1, 1), tree_product(1, (5, 4)))]
        rng = np.random.default_rng(9)
        for cx, ps in subjects:
            factors = [cx.factor(mask) for mask, _ in cx.factors()]
            for p in ps:
                for _ in range(8):
                    a = sample_point(cx, rng)
                    b = sample_point(cx, rng)
                    total = sv.distance(cx, a, b, p)
                    parts = [sv.distance(f.complex, f.project_point(a), f.project_point(b), p)
                             for f in factors]
                    assert abs(total - lp_norm(parts, p)) < 1e-9


class TestGenerators:
    def test_hypercube_counts(self):
        h = cc.hypercube(3)
        assert len(h.vertices) == 8
        assert len(h.hyperplanes) == 3

    def test_book_counts(self, book2):
        assert len(book2.vertices) == 6
        assert len(book2.maximal_cubes()) == 2

    def test_corner_counts(self, corner):
        assert len(corner.vertices) == 8
        assert len(corner.hyperplanes) == 4
        assert sorted(q.dim for q in corner.maximal_cubes()) == [2, 2, 2]
        # explicit construction validated by load()
        cc.load(cc.dump(corner))

    def test_square_cube_book_counts(self, scb):
        assert len(scb.vertices) == 10
        assert sorted(q.dim for q in scb.maximal_cubes()) == [2, 3]

    def test_grid_counts(self, grid222):
        assert len(grid222.vertices) == 27
        assert len(grid222.maximal_cubes()) == 8

    def test_tree(self):
        t = cc.tree([("a", "b"), ("b", "c"), ("b", "d")])
        assert len(t.vertices) == 4
        assert all(q.dim <= 1 for q in t.maximal_cubes())

    def test_maximal_cubes_match_the_definition(self):
        # maximal: no cube one dimension larger contains it; kept in all_cubes order
        built = [fixtures.load_fixture(name) for name in fixtures.NAMES] + [
            cc.grid(3, 3, 3), cc.grid(12, 1, 0), cc.hypercube(5), cc.book_of_squares(5),
            cc.tree([("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")])]
        for cx in built:
            cubes = cx.all_cubes()
            want = tuple(q for q in cubes
                         if not any(c.dim == q.dim + 1 and c.contains_cube(q) for c in cubes))
            assert cx.maximal_cubes() == want

    def test_bundled_fixtures_are_their_generators_dumped(self):
        # the vertex order fixes the CLI's vertex indices
        makers = {"square": lambda: cc.hypercube(2), "hypercube3": lambda: cc.hypercube(3),
                  "book_of_squares2": lambda: cc.book_of_squares(2),
                  "corner_complex": cc.corner_complex, "square_cube_book": cc.square_cube_book,
                  "grid222": lambda: cc.grid(2, 2, 2), "long_rectangle": lambda: cc.grid(12, 1, 0)}
        assert set(makers) == set(fixtures.NAMES)
        for name, make in makers.items():
            assert fixtures.fixture_text(name) == cc.dump(make()) + "\n", name

    def test_scale_cap(self):
        with pytest.raises(ScaleExceeded):
            cc.hypercube(20)
        with pytest.raises(ScaleExceeded):
            cc.grid(100, 100, 0)


class TestPoints:
    def test_canonical_rejects_side_values(self):
        with pytest.raises(ValueError):
            Point.make(0, {0: 0.0})
        with pytest.raises(ValueError):
            Point.make(0, {0: 1.0})

    def test_rebase_flips_coordinate(self):
        p = Point.make(1, {0: 0.25})
        assert p.base == 0
        assert dict(p.coords)[0] == 0.75

    def test_ambient_round_trip(self, scb):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = sample_point(scb, rng)
            vec = p.ambient(len(scb.hyperplanes))
            back = cc.point_from_ambient(vec, p.minimal_cube())
            assert back == p

    @staticmethod
    def reference_point_from_ambient(vec, cube):
        """``point_from_ambient`` built through ``Point.make``: the reference
        that its direct construction of the canonical Point is pinned to."""
        base = cube.corner
        coords = {}
        for i in range(len(vec)):
            bit = 1 << i
            if not cube.mask & bit:
                if vec[i] > 0.5:
                    base |= bit
                continue
            t = float(vec[i])
            if t <= cc.SNAP_TOL:
                continue
            if t >= 1.0 - cc.SNAP_TOL:
                base |= bit
                continue
            coords[i] = t
        return Point.make(base, coords)

    def test_point_from_ambient_matches_the_point_make_reference(self):
        # random vectors in random cubes of the seven fixtures and grid(3,3,3),
        # free values drawn among the snap bands and the sides as well as
        # inside, fixed values on both sides of 0.5, as lists and as arrays
        rng = np.random.default_rng(33)
        tol = cc.SNAP_TOL
        free_values = [0.0, 1.0, 0.5 * tol, tol, 1.0 - tol, 1.0 - 0.5 * tol,
                       2.0 * tol, 1.0 - 2.0 * tol, -0.0, 1e-300]
        fixed_values = [0.0, 1.0, 0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), 0.25, 0.75]
        complexes = [fixtures.load_fixture(name) for name in fixtures.NAMES] + [cc.grid(3, 3, 3)]
        snapped = kept = 0
        for cx in complexes:
            cubes = cx.all_cubes()
            n = len(cx.hyperplanes)
            for _ in range(60):
                cube = cubes[int(rng.integers(len(cubes)))]
                vec = [float(free_values[int(rng.integers(len(free_values)))])
                       if cube.mask >> i & 1 and rng.random() < 0.5 else
                       float(rng.random()) if cube.mask >> i & 1 else
                       float(fixed_values[int(rng.integers(len(fixed_values)))])
                       for i in range(n)]
                for given in (vec, np.array(vec)):
                    new = cc.point_from_ambient(given, cube)
                    old = self.reference_point_from_ambient(given, cube)
                    assert new == old and repr(new) == repr(old), (cube, vec)
                    assert [(h, t.hex()) for h, t in new.coords] == \
                        [(h, t.hex()) for h, t in old.coords]
                    assert all(type(t) is float for _, t in new.coords)
                snapped += sum(cube.mask >> i & 1 and 0.0 < t <= tol for i, t in enumerate(vec))
                kept += len(new.coords)
        assert snapped > 50 and kept > 200

    @pytest.mark.parametrize("vec", [[float("nan"), 0.5], np.array([0.25, float("nan")])])
    def test_point_from_ambient_rejects_nan_on_a_free_axis(self, vec):
        cube = CubeRef(0, 0b11)
        with pytest.raises(ValueError):
            self.reference_point_from_ambient(vec, cube)
        with pytest.raises(ValueError):
            cc.point_from_ambient(vec, cube)
        # on a fixed axis a NaN is not > 0.5, in both: the side stays 0
        fixed = CubeRef(0, 0b01)
        assert cc.point_from_ambient([0.5, float("nan")], fixed) == \
            self.reference_point_from_ambient([0.5, float("nan")], fixed) == Point(0, ((0, 0.5),))

    @pytest.mark.parametrize("obj", [
        {"vertex": -1},
        {"vertex": 99},
        {"vertex": 0, "coords": {"zz": 0.5}},
        {"vertex": 0, "coords": {"a1": "half"}},
        {"vertex": 0, "coords": {"a1": None}},
        {},
        {"vertex": True},
        {"vertex": 0, "coords": [1, 2]},
        {"vertex": 0, "coords": {"a1": 1.5}},
        {"vertex": 0, "coords": {"a1": 0.5, "b1": 0.5}},   # a1 x b1 is no square
    ])
    def test_point_from_obj_rejects_bad_input(self, corner, obj):
        with pytest.raises(ParseError):
            cc.point_from_obj(corner, obj)

    def test_point_obj_round_trip(self, corner):
        rng = np.random.default_rng(13)
        points = [Point.make(v) for v in corner.vertex_order]
        points += [sample_point(corner, rng) for _ in range(20)]
        for p in points:
            assert cc.point_from_obj(corner, cc.point_to_obj(corner, p)) == p

    def test_the_coord_mask_is_kept_outside_the_fields(self):
        # read once and kept in the instance dict: no field, and no part in
        # ==, hash, repr, pickling or the canonical form
        read, fresh = (Point.make(0b101, {0: 0.75, 3: 0.25}) for _ in range(2))
        assert "coord_mask" not in vars(read)
        assert read.coord_mask == 0b1001 and vars(read)["coord_mask"] == 0b1001
        assert [f.name for f in dataclasses.fields(Point)] == ["base", "coords"]
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert read == Point(0b100, ((0, 0.25), (3, 0.25)))
        assert read.minimal_cube() == fresh.minimal_cube() == CubeRef(0b100, 0b1001)
        for point in (read, fresh):
            back = pickle.loads(pickle.dumps(point))
            assert back == point and hash(back) == hash(point) and repr(back) == repr(point)
            assert back.coord_mask == 0b1001
        assert "coord_mask" not in vars(pickle.loads(pickle.dumps(Point(0b100, ((0, 0.5),)))))
