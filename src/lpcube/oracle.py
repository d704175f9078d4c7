"""Independent brute-force distance oracle: epsilon-net graph shortest path.

Within a cube, geodesic segments are exact lp norms, so net nodes are only
needed where a path can switch cubes: on the pairwise intersection faces of
the hull's maximal cubes.  Nodes are laid on a dyadic grid (largest power of
two step below the requested epsilon) so refinement nets nest, which makes
the oracle value monotone under halving.

The graph is never materialized: an arc joins every node pair sharing a
maximal cube, and the search relaxes all cube-mates of a popped node in one
vectorized pass per cube.  Each cube keeps its members' coordinates on its
free axes only, axis-major, because its fixed axes agree across its members
and add nothing to a distance.  Every net coordinate is a grid value or an
endpoint coordinate, so the net stores each coordinate as a code into the
short sorted array of its distinct values, and the search looks up
|a - b|^p in one lazily filled row of powers per code instead of raising
every member's differences to the p-th power again.  A popped node is not
relaxed into the cube through which its distance was set (the triangle
inequality makes that pass useless, see ``_dijkstra``), and the queue is a
dense key array searched with ``argmin``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import CubeComplex, Point, cube_intersection
from .errors import ScaleExceeded
from .geometry import check_p, lp_norm
from .solver import LENGTH_TOL, PiecewisePath, geodesic

NODE_CAP = 200_000      # net nodes before ScaleExceeded
CALIBRATION_C = 2.0     # fixture-calibrated slack per break point and step


def dyadic_step(eps: float) -> float:
    """Largest power of two that is <= eps (and <= 1/2)."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    k = max(1, math.ceil(-math.log2(eps) - 1e-12))
    return 2.0 ** -k


@dataclass
class NetGraph:
    """Sampled net on the hull's internal faces plus the two endpoints.

    Each node coordinate is also stored as a code: ``values[codes] == coords``,
    where ``values`` holds the distinct coordinates (the grid values and the
    endpoints' coordinates), sorted.  Per maximal cube: its member node
    indices, its free axes, and the members' codes on those axes as one
    axis-major block (free axes x members).
    """

    coords: np.ndarray                 # node ambient coordinates, hull frame
    values: np.ndarray                 # the distinct coordinates, sorted
    codes: np.ndarray                  # per node and axis: index into values
    members: list[np.ndarray]          # per maximal cube: node indices inside it
    free: list[list[int]]              # per maximal cube: its free axes
    blocks: list[np.ndarray]           # per maximal cube: codes[members][:, free].T
    node_cubes: list[list[int]]        # per node: the maximal cubes containing it
    source: int
    target: int
    step: float

    @property
    def n_nodes(self) -> int:
        return len(self.coords)


def build_net(complex: CubeComplex, x: Point, y: Point, eps: float) -> NetGraph:
    sub = complex.hull_restriction([x, y])
    hull = sub.complex
    n = len(hull.hyperplanes)
    hx = sub.to_sub_point(x)
    hy = sub.to_sub_point(y)
    step = dyadic_step(eps)
    per_axis = int(round(1.0 / step)) + 1
    maximal = sorted(hull.maximal_cubes())
    faces = set()
    for i, a in enumerate(maximal):
        for b in maximal[i + 1:]:
            f = cube_intersection(a, b)
            if f is not None:
                faces.add(f)
    node_index: dict[tuple, int] = {}   # node coordinates -> index, in first-seen order

    def add_node(vec: tuple) -> int:
        idx = node_index.setdefault(vec, len(node_index))
        if idx >= NODE_CAP:
            raise ScaleExceeded(f"epsilon net exceeds {NODE_CAP} nodes")
        return idx

    grid = [t * step for t in range(per_axis)]
    for f in faces:
        free = [i for i in range(n) if f.mask >> i & 1]
        if per_axis ** len(free) > NODE_CAP:
            raise ScaleExceeded("face grid alone exceeds the node cap")
        vec = [1.0 if not f.mask >> i & 1 and f.corner >> i & 1 else 0.0 for i in range(n)]
        for point in itertools.product(grid, repeat=len(free)):
            for i, t in zip(free, point):
                vec[i] = t
            add_node(tuple(vec))
    source = add_node(tuple(hx.ambient(n).tolist()))
    target = add_node(tuple(hy.ambient(n).tolist()))
    mat = np.array(list(node_index))
    values = np.unique(mat)
    codes = values.searchsorted(mat)    # exact: every coordinate is in values
    members, frees, blocks = [], [], []
    node_cubes: list[list[int]] = [[] for _ in range(len(mat))]
    for ci, q in enumerate(maximal):
        fixed = [i for i in range(n) if not q.mask >> i & 1]
        mask = np.ones(len(mat), dtype=bool)
        for i in fixed:
            want = 1.0 if q.corner >> i & 1 else 0.0
            mask &= mat[:, i] == want
        idxs = np.nonzero(mask)[0]
        free = [i for i in range(n) if q.mask >> i & 1]
        members.append(idxs)
        frees.append(free)
        blocks.append(codes.T.take(free, 0).take(idxs, 1))
        for i in idxs.tolist():
            node_cubes[i].append(ci)
    return NetGraph(mat, values, codes, members, frees, blocks, node_cubes,
                    source, target, step)


def _norms(diffs: np.ndarray, p: float) -> np.ndarray:
    """lp norms of the columns of an axis-major block of differences (the A*
    potential)."""
    diffs = np.abs(diffs)
    if p == 2.0:
        return np.sqrt((diffs * diffs).sum(axis=0))
    return (diffs ** p).sum(axis=0) ** (1.0 / p)


class _PowerRows(dict):
    """Lazily filled rows of powers: ``rows[c][e] == |values[e] - values[c]|^p``."""

    def __init__(self, values: np.ndarray, p: float):
        super().__init__()
        self.values = values
        self.p = p

    def __missing__(self, c: int) -> np.ndarray:
        dv = np.abs(self.values - self.values[c])
        row = self[c] = dv * dv if self.p == 2.0 else dv ** self.p
        return row


def _dijkstra(net: NetGraph, p: float) -> float:
    """Shortest path with an A* potential (ambient distance to the target).

    The potential is a lower bound on the remaining path length and satisfies
    the triangle inequality against the arc weights, so the result is exact.

    Popping u relaxes every cube C containing u except the one through which
    dist[u] was last set.  If that was C, from w, then w relaxed all of C when
    it was popped, so for every v in C
        dist[v] <= dist[w] + |w - v|_p <= dist[w] + |w - u|_p + |u - v|_p
                 = dist[u] + |u - v|_p,
    and relaxing C from u cannot improve anything.  Face nodes lie in about two
    cubes, so this halves the relaxations.  Each relaxation works on C's
    free-axis code block: for each free axis a, in axis order, it adds the
    power row of u's code on a, taken at the members' codes on a, and then
    takes one root per member.  Each term is the same float |v_a - u_a| raised
    by the same ufunc as a direct evaluation, and the terms are summed in the
    same order, so every arc weight is bit-identical to ``_norms`` on the
    difference block; the fixed axes would only add exact zeros.  The queue is
    the array ``key`` (dist + potential for reached, unpopped nodes, inf
    otherwise) and a pop is its ``argmin``; that O(nodes) scan costs less than
    the relaxation that follows it.
    """
    coords = net.coords
    target = net.target
    potential = _norms((coords - coords[target]).T, p)
    rows = _PowerRows(net.values, p)
    dist = np.full(net.n_nodes, np.inf)
    key = np.full(net.n_nodes, np.inf)
    via = np.full(net.n_nodes, -1)
    dist[net.source] = 0.0
    key[net.source] = potential[net.source]
    while True:
        u = int(key.argmin())
        if u == target or key[u] == np.inf:
            return float(dist[target])
        d, at = dist[u], net.codes[u].tolist()
        key[u] = np.inf
        dist[u] = -np.inf       # settled: no candidate is below it any more
        arrived = int(via[u])
        for ci in net.node_cubes[u]:
            if ci == arrived:
                continue
            idxs = net.members[ci]
            free, block = net.free[ci], net.blocks[ci]
            acc = rows[at[free[0]]].take(block[0])
            for j in range(1, len(free)):
                acc += rows[at[free[j]]].take(block[j])
            cand = d + (np.sqrt(acc) if p == 2.0 else acc ** (1.0 / p))
            better = cand < dist[idxs]
            if better.any():
                upd = idxs[better]
                cand = cand[better]
                dist[upd] = cand
                key[upd] = cand + potential[upd]
                via[upd] = ci


def oracle_distance(complex: CubeComplex, x: Point, y: Point, p: float,
                    eps: float = 0.05) -> float:
    """Shortest-path value through the epsilon net: an upper bound on d(x, y)."""
    p = check_p(p, smooth=True)
    dyadic_step(eps)        # reject a bad eps even where the net is not needed
    pair = complex.minimal_cube_pair(x, y)
    if pair is not None:
        n = len(complex.hyperplanes)
        return lp_norm(x.ambient(n) - y.ambient(n), p)
    net = build_net(complex, x, y, eps)
    return _dijkstra(net, p)


def oracle_certify(complex: CubeComplex, x: Point, y: Point, p: float,
                   eps: float = 0.05) -> bool:
    """Check the solver against the net: closeness plus the upper-bound law."""
    path = geodesic(complex, x, y, p)
    return certify_path(complex, path, eps)


def certify_path(complex: CubeComplex, path: PiecewisePath, eps: float = 0.05) -> bool:
    x, y = path.breaks[0], path.breaks[-1]
    return upper_bound_agrees(path, oracle_distance(complex, x, y, path.p, eps), eps)


def upper_bound_agrees(path: PiecewisePath, upper: float, eps: float) -> bool:
    """The net's value ``upper`` is not below the path's length and lies within
    the calibrated net-quantization allowance above it: CALIBRATION_C net
    steps per segment of the path."""
    if upper < path.length - LENGTH_TOL:
        return False
    segments = len(path.breaks) - 1
    return abs(upper - path.length) <= CALIBRATION_C * segments * dyadic_step(eps)
