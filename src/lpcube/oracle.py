"""Independent brute-force distance oracle: epsilon-net graph shortest path.

Within a cube, geodesic segments are exact lp norms, so net nodes are only
needed where a path can switch cubes: on the pairwise intersection faces of
the hull's maximal cubes.  Nodes are laid on a dyadic grid (largest power of
two step below the requested epsilon) so refinement nets nest, which makes
the oracle value monotone under halving.

The graph is never materialized: an arc joins every node pair sharing a cube,
and Dijkstra relaxes all cube-mates of a popped node in one vectorized pass.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .complexes import CubeComplex, Point, cube_intersection
from .errors import ScaleExceeded
from .geometry import check_p, lp_norm
from .solver import DEFAULT_TOL, PiecewisePath, geodesic

NODE_CAP = 200_000
CALIBRATION_C = 2.0   # fixture-calibrated slack per break point and step


def dyadic_step(eps: float) -> float:
    """Largest power of two that is <= eps (and <= 1/2)."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    k = max(1, math.ceil(-math.log2(eps) - 1e-12))
    return 2.0 ** -k


@dataclass
class NetGraph:
    """Sampled net on the hull's internal faces plus the two endpoints."""

    coords: np.ndarray                 # node ambient coordinates, hull frame
    members: list[np.ndarray]          # per maximal cube: node indices inside it
    source: int
    target: int
    step: float

    @property
    def n_nodes(self) -> int:
        return len(self.coords)


def build_net(complex: CubeComplex, x: Point, y: Point, eps: float,
              node_cap: int = NODE_CAP) -> NetGraph:
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
    node_index: dict[tuple, int] = {}
    coords: list[np.ndarray] = []

    def add_node(vec: np.ndarray) -> int:
        key = tuple(vec.tolist())
        found = node_index.get(key)
        if found is not None:
            return found
        idx = len(coords)
        if idx >= node_cap:
            raise ScaleExceeded(f"epsilon net exceeds {node_cap} nodes")
        node_index[key] = idx
        coords.append(vec)
        return idx

    for f in faces:
        free = [i for i in range(n) if f.mask >> i & 1]
        if per_axis ** len(free) > node_cap:
            raise ScaleExceeded("face grid alone exceeds the node cap")
        base = np.zeros(n)
        for i in range(n):
            if not f.mask >> i & 1 and f.corner >> i & 1:
                base[i] = 1.0
        grid = [0.0] * len(free)
        idxs = list(range(per_axis))

        def rec(d: int) -> None:
            if d == len(free):
                vec = base.copy()
                for j, i in enumerate(free):
                    vec[i] = grid[j]
                add_node(vec)
                return
            for t in idxs:
                grid[d] = t * step
                rec(d + 1)

        rec(0)
    source = add_node(hx.ambient(n))
    target = add_node(hy.ambient(n))
    mat = np.array(coords)
    members = []
    for q in maximal:
        fixed = [i for i in range(n) if not q.mask >> i & 1]
        mask = np.ones(len(mat), dtype=bool)
        for i in fixed:
            want = 1.0 if q.corner >> i & 1 else 0.0
            mask &= mat[:, i] == want
        members.append(np.nonzero(mask)[0])
    return NetGraph(mat, members, source, target, step)


def _dijkstra(net: NetGraph, p: float) -> float:
    """Shortest path with an A* potential (ambient distance to the target).

    The potential is a lower bound on the remaining path length and satisfies
    the triangle inequality against the arc weights, so the result is exact.
    """
    n = net.n_nodes
    coords = net.coords

    def norms(diffs: np.ndarray) -> np.ndarray:
        diffs = np.abs(diffs)
        if p == 2.0:
            return np.sqrt((diffs * diffs).sum(axis=1))
        return (diffs ** p).sum(axis=1) ** (1.0 / p)

    potential = norms(coords - coords[net.target])
    dist = np.full(n, np.inf)
    dist[net.source] = 0.0
    node_cubes: list[list[int]] = [[] for _ in range(n)]
    for ci, idxs in enumerate(net.members):
        for i in idxs:
            node_cubes[i].append(ci)
    done = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(float(potential[net.source]), net.source)]
    while heap:
        f, u = heapq.heappop(heap)
        if done[u] or f > dist[u] + potential[u] + 1e-15:
            continue
        if u == net.target:
            return float(dist[u])
        done[u] = True
        d = dist[u]
        for ci in node_cubes[u]:
            idxs = net.members[ci]
            cand = d + norms(coords[idxs] - coords[u])
            better = cand < dist[idxs]
            if better.any():
                upd = idxs[better]
                dist[upd] = cand[better]
                fs = cand[better] + potential[upd]
                for i, fv in zip(upd, fs):
                    if not done[i]:
                        heapq.heappush(heap, (float(fv), int(i)))
    return float(dist[net.target])


def oracle_distance(complex: CubeComplex, x: Point, y: Point, p: float,
                    eps: float = 0.05) -> float:
    """Shortest-path value through the epsilon net: an upper bound on d(x, y)."""
    p = check_p(p, smooth=True)
    pair = complex.minimal_cube_pair(x, y)
    if pair is not None:
        n = len(complex.hyperplanes)
        return lp_norm(x.ambient(n) - y.ambient(n), p)
    net = build_net(complex, x, y, eps)
    return _dijkstra(net, p)


def certification_bound(path: PiecewisePath, eps: float) -> float:
    """Calibrated net-quantization allowance for a solved geodesic."""
    interior = max(len(path.breaks) - 2, 0)
    return CALIBRATION_C * (interior + 1) * dyadic_step(eps)


def oracle_certify(complex: CubeComplex, x: Point, y: Point, p: float,
                   eps: float = 0.05, tol: float = DEFAULT_TOL) -> bool:
    """Check the solver against the net: closeness plus the upper-bound law."""
    path = geodesic(complex, x, y, p, tol)
    return certify_path(complex, path, eps)


def certify_path(complex: CubeComplex, path: PiecewisePath, eps: float = 0.05) -> bool:
    x, y = path.breaks[0], path.breaks[-1]
    upper = oracle_distance(complex, x, y, path.p, eps)
    if upper < path.length - 1e-9:
        return False
    return abs(upper - path.length) <= certification_bound(path, eps)
