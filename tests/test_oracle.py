import functools
import heapq
import itertools
import math
import operator
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcube import complexes as cc
from lpcube import oracle as orc
from lpcube import solver as sv
from lpcube.analysis import sample_point
from lpcube.complexes import Point, bit_indices, cube_intersection
from lpcube.errors import ScaleExceeded
from lpcube.fixtures import NAMES, load_fixture

from conftest import build_wedge_instance

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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


def reference_build_net(complex, x, y, eps):
    """The dict builder ``orc.build_net`` replaced, verbatim but for the module
    prefixes and the result: one node per first-seen coordinate tuple on the
    spanned axes, faces in set order and each face's grid in
    ``itertools.product`` order, then the endpoints; a dict of the fields."""
    n = len(complex.hyperplanes)
    k = orc._step_exponent(eps)
    step = 2.0 ** -k
    per_axis = (1 << k) + 1             # grid values per face axis, an exact int
    maximal = sorted(complex.hull_restriction([x, y]).maximal_cubes())
    spanned = functools.reduce(operator.or_, (q.mask for q in maximal))
    axes = bit_indices(spanned)
    faces = set()
    for i, a in enumerate(maximal):
        for b in maximal[i + 1:]:
            f = cube_intersection(a, b)
            if f is not None:
                faces.add(f)
    # the hull is constant on the axes no maximal cube spans, so a node is
    # keyed by its coordinates on the spanned ``axes``; index in first-seen order
    node_index: dict[tuple, int] = {}

    def add_node(vec: tuple) -> int:
        idx = node_index.setdefault(vec, len(node_index))
        if idx >= orc.NODE_CAP:
            raise ScaleExceeded(f"epsilon net exceeds {orc.NODE_CAP} nodes")
        return idx

    widest = max((f.dim for f in faces), default=0)
    if widest and per_axis ** widest > orc.NODE_CAP:
        raise ScaleExceeded("face grid alone exceeds the node cap")
    grid = [t * step for t in range(per_axis)] if widest else []
    for f in faces:
        vec = [float(f.corner >> i & 1) for i in axes]
        free = [j for j, i in enumerate(axes) if f.mask >> i & 1]
        for point in itertools.product(grid, repeat=len(free)):
            for j, t in zip(free, point):
                vec[j] = t
            add_node(tuple(vec))
    xa = x.ambient(n)
    source = add_node(tuple(xa[axes].tolist()))
    target = add_node(tuple(y.ambient(n)[axes].tolist()))
    mat = np.tile(xa, (len(node_index), 1))     # the constant axes as at x
    mat[:, axes] = list(node_index)
    # the distinct values, sorted; np.unique would import numpy.ma (about 1 MB)
    values = np.sort(mat, axis=None)
    values = values[np.append(True, values[1:] != values[:-1])]
    codes = values.searchsorted(mat)    # exact: every coordinate is in values
    axis_codes = codes.T.copy()         # axis-major, for the cubes' blocks
    masks, members, frees, blocks = [], [], [], []
    for q in maximal:
        mask = np.ones(len(mat), dtype=bool)
        for i in bit_indices(spanned & ~q.mask):
            want = 1.0 if q.corner >> i & 1 else 0.0
            mask &= mat[:, i] == want
        idxs = np.nonzero(mask)[0]
        free = bit_indices(q.mask)
        masks.append(mask)
        members.append(idxs)
        frees.append(free)
        blocks.append(axis_codes.take(free, 0).take(idxs, 1))
    return dict(coords=mat, values=values, codes=codes, masks=masks, members=members,
                free=frees, blocks=blocks, source=source, target=target, step=step)


def assert_same_net(net: orc.NetGraph, ref: dict) -> None:
    # the net lives on the spanned axes, the union of the cubes' free axes:
    # project the reference there, renumber its free axes by position and
    # recode its values
    axes = sorted(set().union(*ref["free"]))
    pos = {i: j for j, i in enumerate(axes)}
    coords = ref["coords"][:, axes]
    values = np.unique(coords)
    codes = values.searchsorted(coords)
    free = [[pos[i] for i in f] for f in ref["free"]]
    blocks = [codes.T.take(f, 0).take(idxs, 1) for f, idxs in zip(free, ref["members"])]
    ref = {**ref, "coords": coords, "values": values, "codes": codes, "free": free,
           "blocks": blocks}
    for name in ("coords", "values", "codes"):
        got, want = getattr(net, name), ref[name]
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for name in ("masks", "members", "blocks"):
        got, want = getattr(net, name), ref[name]
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("free", "source", "target"):
        assert getattr(net, name) == ref[name], name


def reference_hyperplane_weights(net: orc.NetGraph, p: float) -> list[float]:
    """``orc._hyperplane_weights`` before the net carried its fill order:
    dicts keyed by hyperplane and a sort per search."""
    x, y = net.coords[net.source].tolist(), net.coords[net.target].tolist()
    cubes_of: dict[int, list[int]] = {}
    for ci, free in enumerate(net.free):
        for a in free:
            cubes_of.setdefault(a, []).append(ci)
    gap = {a: abs(x[a] - y[a]) for a in sorted(cubes_of)}
    power = {a: g ** p for a, g in gap.items()}
    cq = dict.fromkeys(gap, 1.0)
    for free in net.free:
        total = sum([power[a] for a in free])
        for a in free:
            cq[a] = min(cq[a], power[a] / total if total > 0.0 else 0.0)
    load = [sum([cq[a] for a in free]) for free in net.free]
    for a in sorted(gap, key=gap.__getitem__, reverse=True):
        room = max(0.0, min([1.0 - load[ci] + cq[a] for ci in cubes_of[a]]))
        for ci in cubes_of[a]:
            load[ci] += room - cq[a]
        cq[a] = room
    weights = [0.0] * len(x)
    for a, w in cq.items():
        weights[a] = (1.0 - 1e-12) * w ** (1.0 - 1.0 / p)
    return weights


class TestDyadicStep:
    def test_mapping(self):
        assert orc.dyadic_step(0.5) == 0.5
        assert orc.dyadic_step(0.3) == 0.25
        assert orc.dyadic_step(0.05) == 0.03125
        assert orc.dyadic_step(0.02) == 0.015625

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            orc.dyadic_step(0.0)

    @pytest.mark.parametrize("eps", [0.0, 1.5])
    def test_oracle_rejects_bad_eps_in_one_cube(self, cube3, eps):
        x = Point.make(0, {0: 0.2, 1: 0.2, 2: 0.2})
        y = Point.make(0, {0: 0.9, 1: 0.8, 2: 0.7})
        with pytest.raises(ValueError):
            orc.oracle_distance(cube3, x, y, 2.0, eps)


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
        # endpoint coordinates on the dyadic grid, so they share codes with face nodes
        cases.append((grid222, Point.make(0, {0: 0.5, 2: 0.5, 4: 0.5}),
                      Point.make(0b010101, {1: 0.5, 3: 0.5, 5: 0.5})))
        for cx, x, y in cases:
            for eps in (0.5, 0.25):
                net = orc.build_net(cx, x, y, eps)
                for p in (1.05, 1.5, 2.0, 3.0, 8.0):
                    want = textbook_distance(net, p)
                    assert orc.oracle_distance(cx, x, y, p, eps) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed, p, value", [
        (39, 1.5, 2.1361535163689886),     # 4,291 nodes
        (46, 2.0, 1.0209286702835003),
        (89, 3.0, 2.0779522766871152),
        (96, 1.5, 2.63334692781514),       # 8,451 nodes
        (31, 2.0, 1.531312844731218),
        (78, 1.5, 1.6623937517531513),     # 12,547 nodes
        (70, 2.0, 1.8805977588187317),
        (29, 3.0, 1.3393734286084478),
    ])
    def test_fine_net_values(self, seed, p, value):
        # the largest criterion-4 net shapes at eps = 0.02, pinned bit for bit
        cx, x, _, y, _ = build_wedge_instance(seed)
        assert orc.oracle_distance(cx, x, y, p, 0.02) == value

    @pytest.mark.parametrize("p, value", [(1.5, 2.080083823051904),
                                          (2.0, 1.7320508075688772),
                                          (3.0, 1.4422495703074083)])
    def test_grid_diagonal_values(self, grid222, p, value):
        # demo 06's diagonal: endpoints on the dyadic grid, 12,483 net nodes
        x = Point.make(0, {0: 0.5, 2: 0.5, 4: 0.5})
        y = Point.make(0b010101, {1: 0.5, 3: 0.5, 5: 0.5})
        assert orc.oracle_distance(grid222, x, y, p, 0.05) == value

    @pytest.mark.parametrize("fixture, seed, values", [
        # nodes on the centre vertex and edges lie in up to 8 cubes (12,483 nodes)
        ("grid222", 19, (2.53286092406496, 2.120789721554107, 1.7856868793101421)),
        ("grid222", 25, (2.1175813252146036, 1.7664455965250447, 1.4760115414342467)),
        # up to 4 cubes (4,259 nodes)
        ("grid222", 2, (2.301555899869264, 1.9459567272633969, 1.6679737722501355)),
        # the origin lies in all 3 squares
        ("corner", 1, (1.573137368982485, 1.4200012909470374, 1.290889793492506)),
        # two maximal cubes: the face nodes are the whole cut
        ("scb", 0, (1.8233274793399192, 1.7509835276064396, 1.7087551053302326)),
        ("book2", 0, (1.8586547270977731, 1.732685523061231, 1.6538515744317819)),
    ])
    def test_multi_cube_net_values(self, request, fixture, seed, values):
        # pinned bit for bit on nets where a node's arrival cube shares a face
        # with the other cubes it relaxes
        cx = request.getfixturevalue(fixture)
        rng = np.random.default_rng([91, seed])
        x, y = sample_point(cx, rng), sample_point(cx, rng)
        for p, value in zip((1.5, 2.0, 3.0), values):
            assert orc.oracle_distance(cx, x, y, p, 0.05) == value

    def test_wedge_instances_close(self):
        for seed in (0, 3, 7):
            cx, x, v, y, _ = build_wedge_instance(seed)
            d = orc.oracle_distance(cx, x, y, 2.0, 0.05)
            exact = sv.distance(cx, x, y, 2.0)
            assert d >= exact - 1e-9
            assert abs(d - exact) <= 0.05


cached_fixture = functools.cache(load_fixture)   # load and validate each once


class TestPotential:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=st.one_of(st.integers(0, 99), st.sampled_from(NAMES)),
           vertex=st.tuples(st.booleans(), st.booleans()), seed=st.integers(0, 2 ** 16),
           eps=st.sampled_from([0.5, 0.25]), p=st.floats(1.05, 8.0))
    def test_consistent_lower_bound(self, case, vertex, seed, eps, p):
        rng = np.random.default_rng([93, seed])
        if isinstance(case, int):
            cx, x, _, y, _ = build_wedge_instance(case)
        else:
            cx = cached_fixture(case)
            verts = sorted(cx.vertices)
            x, y = (Point.make(verts[rng.integers(len(verts))]) if at else sample_point(cx, rng)
                    for at in vertex)
        net = orc.build_net(cx, x, y, eps)
        q = p / (p - 1.0)
        weights = orc._hyperplane_weights(net, p)
        for free in net.free:
            assert math.fsum([weights[a] ** q for a in free]) <= 1.0
        h = orc._potential(net, p)
        assert h[net.target] == 0.0
        for idxs in net.members:
            u, v = rng.choice(idxs, size=(2, 50))
            w = orc._norms((net.coords[u] - net.coords[v]).T, p)
            assert (h[u] <= w + h[v] + 4 * np.spacing(np.maximum(h[u], w + h[v]))).all()
        assert h[net.source] <= textbook_distance(net, p)

    def test_weights_match_the_per_search_sort(self, corner, grid222):
        # the fill order comes from build_net; the weights stay bit-identical,
        # also on the last two, where endpoint gaps tie and filling the tied
        # hyperplanes in another order gives other weights
        cases = [(cx, x, y) for cx, x, _, y, _ in map(build_wedge_instance, range(100))]
        cases += [(corner, Point.make(0, {2: 0.25, 3: 0.25}), Point.make(0, {0: 0.5, 1: 0.75})),
                  (grid222, Point.make(0, {0: 0.5, 4: 0.5}), Point.make(0b111111))]
        for cx, x, y in cases:
            net = orc.build_net(cx, x, y, 0.25)
            for p in (1.05, 1.5, 2.0, 3.0, 8.0):
                assert orc._hyperplane_weights(net, p) == reference_hyperplane_weights(net, p)


class TestBuildNet:
    @pytest.mark.parametrize("seed, n_nodes", [(29, 12547), (31, 8451)])
    def test_node_counts(self, seed, n_nodes):
        cx, x, _, y, _ = build_wedge_instance(seed)
        net = orc.build_net(cx, x, y, 0.02)
        assert net.n_nodes == n_nodes
        assert (net.values[net.codes] == net.coords).all()
        assert np.array_equal(net.values, np.unique(net.coords))
        assert (net.source, net.target) == (n_nodes - 2, n_nodes - 1)

    def test_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma, about 1 MB of resident memory a process
        script = ("import sys; from lpcube import complexes as cc, oracle; "
                  "oracle.build_net(cc.corner_complex(), cc.Point.make(0, {0: 0.5, 1: 0.5}), "
                  "cc.Point.make(0, {2: 0.5, 3: 0.5}), 0.1); print('numpy.ma' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_node_cap(self, monkeypatch):
        cx, x, _, y, _ = build_wedge_instance(31)
        monkeypatch.setattr(orc, "NODE_CAP", 8451)
        assert orc.build_net(cx, x, y, 0.02).n_nodes == 8451
        monkeypatch.setattr(orc, "NODE_CAP", 8450)
        with pytest.raises(ScaleExceeded, match="exceeds 8450 nodes"):
            orc.build_net(cx, x, y, 0.02)

    def test_faces_past_the_cap_are_merged_in_batches(self, monkeypatch):
        # wedge 78's faces hold 12,806 grid points for 12,547 nodes at eps
        # 0.02; with the cap at the node count they come two faces a batch
        cx, x, _, y, _ = build_wedge_instance(78)
        monkeypatch.setattr(orc, "NODE_CAP", 12547)
        assert_same_net(orc.build_net(cx, x, y, 0.02), reference_build_net(cx, x, y, 0.02))
        monkeypatch.setattr(orc, "NODE_CAP", 12546)
        with pytest.raises(ScaleExceeded, match="exceeds 12546 nodes"):
            orc.build_net(cx, x, y, 0.02)

    def test_face_grid_precheck(self, monkeypatch):
        # one face axis already holds 65 grid values at eps = 0.02
        cx, x, _, y, _ = build_wedge_instance(31)
        monkeypatch.setattr(orc, "NODE_CAP", 64)
        with pytest.raises(ScaleExceeded, match="face grid alone"):
            orc.build_net(cx, x, y, 0.02)

    def test_vertex_faces_build_no_grid(self):
        # wedge 0's two cubes meet only at the origin, so its net is the origin
        # and the endpoints at any eps, and no face grid is laid out
        cx, x, _, y, _ = build_wedge_instance(0)
        assert orc.build_net(cx, x, y, 2.0 ** -40).n_nodes == 3
        assert orc.oracle_distance(cx, x, y, 2.0, 2.0 ** -40) == 0.8881926742146802

    def test_fine_face_grid_is_refused_before_it_is_built(self):
        cx, x, _, y, _ = build_wedge_instance(31)
        with pytest.raises(ScaleExceeded, match="face grid alone"):
            orc.build_net(cx, x, y, 1e-9)

    @pytest.mark.parametrize("case", ["wedge31", "grid_diagonal"])
    def test_masks_and_cut_lists(self, grid222, case):
        if case == "wedge31":
            cx, x, _, y, _ = build_wedge_instance(31)
            net = orc.build_net(cx, x, y, 0.02)
        else:   # demo 06's diagonal
            x = Point.make(0, {0: 0.5, 2: 0.5, 4: 0.5})
            y = Point.make(0b010101, {1: 0.5, 3: 0.5, 5: 0.5})
            net = orc.build_net(grid222, x, y, 0.25)
        cubes = range(len(net.members))
        for ci in cubes:
            assert np.array_equal(np.nonzero(net.masks[ci])[0], net.members[ci])
        member_sets = [set(idxs.tolist()) for idxs in net.members]
        for u in range(net.n_nodes):
            assert net.cubes_at(u) == [ci for ci in cubes if u in member_sets[ci]]
        for c in cubes:
            for a in cubes:
                idxs, block = net.cuts[c, a]
                assert idxs.tolist() == np.setdiff1d(net.members[c], net.members[a]).tolist()
                assert np.array_equal(block, net.codes[idxs][:, net.free[c]].T)

    def test_equal_nodes_are_shared(self, corner, grid222):
        # three squares at the origin: faces a2, b1 and the origin itself share
        # the origin node (3 + 2 + 0 face nodes), and an endpoint equal to an
        # existing node reuses it
        x = Point.make(0, {0: 0.5, 1: 0.5})
        y = Point.make(0, {2: 0.5, 3: 0.5})
        assert orc.build_net(corner, x, y, 0.5).n_nodes == 7
        same = orc.build_net(corner, x, x, 0.5)
        assert same.n_nodes == 1 and same.source == same.target == 0
        # endpoints on grid nodes: the node of face a2 at 0.5 above (its own
        # hull is squares a2b1 and b1b2), a vertex of grid222 at eps 0.25, and
        # x == y on that a2 node.  An endpoint lies in one maximal cube of its
        # own hull, so on no face, and each net equals the dict builder's,
        # which would key an endpoint on a face to the face node
        on_a2 = Point.make(0, {1: 0.5})
        cases = [(corner, on_a2, y, 0.5, 5),
                 (grid222, Point.make(0), Point.make(0b010101, {1: 0.5, 3: 0.5, 5: 0.5}), 0.25, 219),
                 (corner, on_a2, on_a2, 0.5, 1)]
        for cx, u, v, eps, n_nodes in cases:
            net = orc.build_net(cx, u, v, eps)
            assert_same_net(net, reference_build_net(cx, u, v, eps))
            assert net.n_nodes == n_nodes
            assert len(net.cubes_at(net.source)) == len(net.cubes_at(net.target)) == 1
        assert net.source == net.target == 0

    @pytest.mark.parametrize("eps, total", [(0.05, 24876), (0.02, 94508)])
    def test_wedge_nets_match_the_dict_builder(self, eps, total):
        # 94,508 is the oracle.net_nodes of one wedge-certify pass
        n_nodes = 0
        for seed in range(100):
            cx, x, _, y, _ = build_wedge_instance(seed)
            net = orc.build_net(cx, x, y, eps)
            assert_same_net(net, reference_build_net(cx, x, y, eps))
            n_nodes += net.n_nodes
        assert n_nodes == total

    @pytest.mark.parametrize("name", NAMES)
    def test_fixture_nets_match_the_dict_builder(self, name):
        cx = cached_fixture(name)
        verts = sorted(cx.vertices)
        rng = np.random.default_rng([17, NAMES.index(name)])
        for _ in range(20):
            x, y = (Point.make(verts[rng.integers(len(verts))]) if rng.random() < 0.3
                    else sample_point(cx, rng) for _ in range(2))
            assert_same_net(orc.build_net(cx, x, y, 0.05), reference_build_net(cx, x, y, 0.05))

    @pytest.mark.parametrize("name", NAMES)
    def test_dyadic_endpoints_lie_on_no_face(self, name):
        # endpoints with grid coordinates, equal one time in ten: were one on
        # a face, the dict builder would key it to the face node
        cx = cached_fixture(name)
        cubes = cx.all_cubes()
        rng = np.random.default_rng([19, NAMES.index(name)])

        def grid_point():
            q = cubes[rng.integers(len(cubes))]
            return Point.make(q.corner, {h: float(rng.choice([0.25, 0.5, 0.75]))
                                         for h in bit_indices(q.mask)})

        for _ in range(40):
            x = grid_point()
            y = x if rng.random() < 0.1 else grid_point()
            net = orc.build_net(cx, x, y, 0.25)
            assert_same_net(net, reference_build_net(cx, x, y, 0.25))
            assert len(net.cubes_at(net.source)) == len(net.cubes_at(net.target)) == 1


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
