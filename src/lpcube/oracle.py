"""Independent brute-force distance oracle: epsilon-net graph shortest path.

Within a cube, geodesic segments are exact lp norms, so net nodes are only
needed where a path can switch cubes: on the pairwise intersection faces of
the maximal cubes of the endpoints' median hull.  The hull is a complex on
the complex's own hyperplanes and is constant on the axes none of its cubes
spans, where no distance changes, so the net lives on the spanned axes
alone: a node's coordinates, a cube's free axes and the A* weights all
count axes among the spanned hyperplanes, in hyperplane order.
Nodes are laid on a dyadic grid (largest power of two step below the
requested epsilon) so refinement nets nest, which makes the oracle value
monotone under halving.

The net is built in numpy from integer grid indices: each face gives one
block of nodes over the spanned axes, its free axes in ``itertools.product``
order from ``np.indices``, and index t stands for the grid value t * step,
exact because the step is a power of two.  The blocks are concatenated in
face order, and a stable ``np.lexsort`` (a radix sort on these small
integers) keeps the first occurrence of each node that several faces share,
so nodes come in first-seen order.  ``np.unique`` would do the same but
imports ``numpy.ma``, about 1 MB of resident memory per process.  The
endpoints come last and share no node with a face: the hyperplanes that the
hull's cubes through x span beyond x's minimal cube all separate a corner c
of it from one corner of y's, so their edges at c pairwise span squares and
(flag condition) together span one cube of the hull, which holds every cube
through x; x lies in one maximal cube, while a face is the meet of two.
Only y == x shares a node.  Codes come from a lookup table over the grid
indices, and from the values themselves for the endpoints.

The graph is never materialized: an arc joins every node pair sharing a
maximal cube, and the search relaxes the cube-mates of a popped node in one
vectorized pass per cube.  Each cube keeps its members' coordinates on its
free axes only, axis-major, because its fixed axes agree across its members
and add nothing to a distance.  Every net coordinate is a grid value or an
endpoint coordinate, so the net stores each coordinate as a code into the
short sorted array of its distinct values, and the search looks up
|a - b|^p in one lazily filled row of powers per code instead of raising
every member's differences to the p-th power again.  A popped node relaxes
no member of the cube through which its distance was set, in that cube or
in any other: the node that set it has already brought them as close, and
by the triangle inequality a second pass cannot improve any of them (see
``_dijkstra``).  Each cube therefore keeps its membership mask, and the
search reads, per cube and arrival cube, a lazily cut list of the members
outside the arrival cube.  On the largest wedge nets this skips more than
half of the member candidates.  The queue is a dense key array searched
with ``argmin``.

The search is A* with the potential max(|v - t|_p, sum_a c_a |v_a - t_a|)
toward the target t, one weight c_a per spanned hyperplane, chosen once per
search so that every maximal cube's weights lie in the dual l^q unit ball.
By Hoelder the weighted sum is then a lower bound on lp length inside each
cube, and the potential drops by no more than an arc's weight, so the value
is the same as a plain Dijkstra's for any such weights; the weights only
decide how much of the net is searched (see ``_dijkstra``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .complexes import CubeComplex, Point, bit_indices, cube_intersection
from .errors import ScaleExceeded
from .geometry import check_p, lp_norm
from .solver import LENGTH_TOL, PiecewisePath, geodesic

NODE_CAP = 200_000      # net nodes before ScaleExceeded
CALIBRATION_C = 2.0     # fixture-calibrated slack per break point and step


def _step_exponent(eps: float) -> int:
    """The k of the dyadic step 2^-k for ``eps``."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    return max(1, math.ceil(-math.log2(eps) - 1e-12))


def dyadic_step(eps: float) -> float:
    """Largest power of two that is <= eps (and <= 1/2)."""
    return 2.0 ** -_step_exponent(eps)


class _CutLists(dict):
    """Lazily cut relaxation lists: ``cuts[c, a]`` is (members of cube c that
    are not members of cube a, their codes on c's free axes)."""

    def __init__(self, masks: list[np.ndarray], members: list[np.ndarray],
                 blocks: list[np.ndarray]):
        super().__init__()
        self.masks, self.members, self.blocks = masks, members, blocks

    def __missing__(self, key: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        c, a = key
        idxs = self.members[c]
        keep = np.nonzero(~self.masks[a].take(idxs))[0]
        cut = self[key] = (idxs.take(keep), self.blocks[c].take(keep, 1))
        return cut


@dataclass
class NetGraph:
    """Sampled net on the hull's internal faces plus the two endpoints.

    Every axis is one of the hull's spanned hyperplanes, in hyperplane order.
    Each node coordinate is also stored as a code: ``values[codes] == coords``,
    where ``values`` holds the distinct coordinates (the grid values and the
    endpoints' coordinates), sorted.  Per maximal cube: its membership mask
    over the nodes, its member node indices, its free axes, and the members'
    codes on those axes as one axis-major block (free axes x members).
    ``cuts[c, a]`` is the same pair (indices, block) for the members of cube
    c outside cube a, built on first use.  ``fill`` is what the A* weights
    need that does not depend on p.
    """

    coords: np.ndarray                 # per node and spanned axis: its coordinate
    values: np.ndarray                 # the distinct coordinates, sorted
    codes: np.ndarray                  # per node and axis: index into values
    masks: list[np.ndarray]            # per maximal cube: True on its members
    members: list[np.ndarray]          # per maximal cube: node indices inside it
    free: list[list[int]]              # per maximal cube: its free spanned axes
    blocks: list[np.ndarray]           # per maximal cube: codes[members][:, free].T
    source: int
    target: int
    # the spanned axes as (a, |x_a - y_a|, the cubes with a free), in order
    # of decreasing endpoint gap, ties by a: the weights' fill order
    fill: list[tuple[int, float, list[int]]]
    cuts: _CutLists = field(init=False, repr=False)

    def __post_init__(self):
        self.cuts = _CutLists(self.masks, self.members, self.blocks)

    @property
    def n_nodes(self) -> int:
        return len(self.coords)

    def cubes_at(self, node: int) -> list[int]:
        """The maximal cubes containing ``node``."""
        return [ci for ci, mask in enumerate(self.masks) if mask[node]]


def _face_nodes(faces: list, axes: list[int], top: int) -> np.ndarray:
    """The grid nodes of ``faces`` as grid indices on ``axes``, axis-major:
    one block of columns per face, in order, each face's free axes in
    ``itertools.product`` order (the last one fastest)."""
    sizes = [(top + 1) ** f.dim for f in faces]
    grid = np.array([[top * (f.corner >> i & 1) for f in faces] for i in axes],
                    np.min_scalar_type(top)).reshape(len(axes), len(faces))
    grid = grid.repeat(sizes, 1)
    start = 0
    for f, size in zip(faces, sizes):
        if f.dim:
            free = [j for j, i in enumerate(axes) if f.mask >> i & 1]
            block = np.indices((top + 1,) * f.dim, grid.dtype).reshape(f.dim, -1)
            grid[free, start:start + size] = block
        start += size
    return grid


def _first_seen(grid: np.ndarray) -> np.ndarray:
    """The columns of ``grid`` equal to no earlier column, in order."""
    order = np.lexsort(grid)    # stable, and a radix sort on small ints
    ranked = grid.take(order, 1)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(0)
    return grid.take(np.sort(order[first]), 1)


def build_net(complex: CubeComplex, x: Point, y: Point, eps: float) -> NetGraph:
    n = len(complex.hyperplanes)
    k = _step_exponent(eps)
    maximal = sorted(complex.hull_restriction([x, y]).maximal_cubes())
    spanned = functools.reduce(operator.or_, (q.mask for q in maximal))
    axes = bit_indices(spanned)
    faces = set()
    for i, a in enumerate(maximal):
        for b in maximal[i + 1:]:
            f = cube_intersection(a, b)
            if f is not None:
                faces.add(f)
    faces = list(faces)
    widest = max((f.dim for f in faces), default=0)
    if widest and ((1 << k) + 1) ** widest > NODE_CAP:
        raise ScaleExceeded("face grid alone exceeds the node cap")
    # face nodes as grid indices on the spanned axes: t stands for t / top,
    # on the dyadic grid, or on the corners 0 and 1 where every face is a vertex
    top = 1 << k if widest else 1
    # faces in batches of at most NODE_CAP nodes (a face has no more, see
    # above), so that no more than twice that await a dedupe
    batch = NODE_CAP // (top + 1) ** widest
    grid = None
    for lo in range(0, max(len(faces), 1), batch):
        block = _face_nodes(faces[lo:lo + batch], axes, top)
        grid = block if grid is None else np.concatenate([grid, block], axis=1)
        if len(faces) > 1:
            grid = _first_seen(grid)
        if grid.shape[1] > NODE_CAP:
            raise ScaleExceeded(f"epsilon net exceeds {NODE_CAP} nodes")
    count = grid.shape[1]
    # the endpoints come last; neither lies on a face (see the module
    # docstring), so only y == x shares a node
    xs, ys = x.ambient(n)[axes].tolist(), y.ambient(n)[axes].tolist()
    ends = [xs] if xs == ys else [xs, ys]
    source, target = count, count + len(ends) - 1
    n_nodes = count + len(ends)
    if n_nodes > NODE_CAP:
        raise ScaleExceeded(f"epsilon net exceeds {NODE_CAP} nodes")
    # the distinct coordinates, without np.unique (it imports numpy.ma): the
    # grid values that occur and the endpoints'
    grid_values = [t / top for t in range(top + 1)]
    if widest:
        seen = grid_values
    else:       # vertex faces: only the corner values that occur
        seen = {float(f.corner >> i & 1) for f in faces for i in axes}
    values = np.array(sorted({*seen, *xs, *ys}))
    code = {v: c for c, v in enumerate(values.tolist())}
    # codes, axis-major: a face node's by its grid index, an endpoint's by value
    axis_codes = np.concatenate([
        np.array([code.get(v, -1) for v in grid_values]).take(grid),
        np.array([[code[v] for v in vec] for vec in ends], np.intp).reshape(len(ends), len(axes)).T,
    ], axis=1)
    # a cube's members equal its corner on each of its fixed axes
    at_corner = axis_codes == code.get(0.0, -1), axis_codes == code.get(1.0, -1)
    masks, members, frees, blocks = [], [], [], []
    pos = {i: j for j, i in enumerate(axes)}
    cubes_of: list[list[int]] = [[] for _ in axes]
    for ci, q in enumerate(maximal):
        mask = np.ones(n_nodes, dtype=bool)
        for i in bit_indices(spanned & ~q.mask):
            mask &= at_corner[q.corner >> i & 1][pos[i]]
        idxs = mask.nonzero()[0]
        free = [pos[i] for i in bit_indices(q.mask)]
        for j in free:
            cubes_of[j].append(ci)
        masks.append(mask)
        members.append(idxs)
        frees.append(free)
        blocks.append(axis_codes.take(free, 0).take(idxs, 1))
    gap = [abs(a - b) for a, b in zip(xs, ys)]
    fill = [(j, gap[j], cubes_of[j])
            for j in sorted(range(len(axes)), key=gap.__getitem__, reverse=True)]
    codes = axis_codes.T.copy()
    return NetGraph(values.take(codes), values, codes, masks, members, frees, blocks,
                    source, target, fill)


def _norms(diffs: np.ndarray, p: float) -> np.ndarray:
    """lp norms of the columns of an axis-major block of differences."""
    diffs = np.abs(diffs)
    return (diffs ** p).sum(axis=0) ** (1.0 / p)


def _hyperplane_weights(net: NetGraph, p: float) -> list[float]:
    """One weight c_a >= 0 per spanned axis a, with sum c_a^q <= 1 over the
    free axes of every maximal cube (q = p / (p - 1)).

    With delta the gap between the endpoints, c_a starts at the least, over
    the cubes C containing a, of C's Hoelder equality vector
    delta_a^(p-1) / |delta_C|_p^(p-1), whose q-th power is
    delta_a^p / |delta_C|_p^p; the least keeps every cube within its bound.
    One pass in order of decreasing delta_a (``net.fill``, ties by a) then
    raises c_a^q to the least slack left in a cube containing a, and a last
    shrink by a factor 1 - 1e-12 keeps rounding from pushing a cube over its
    bound.
    """
    n = net.coords.shape[1]
    power = [0.0] * n
    for a, gap, _ in net.fill:
        power[a] = gap ** p
    cq = [1.0] * n
    for free in net.free:
        total = sum([power[a] for a in free])
        for a in free:
            cq[a] = min(cq[a], power[a] / total if total > 0.0 else 0.0)
    load = [sum([cq[a] for a in free]) for free in net.free]
    weights = [0.0] * n
    for a, _, cubes in net.fill:
        room = max(0.0, min([1.0 - load[ci] + cq[a] for ci in cubes]))
        for ci in cubes:
            load[ci] += room - cq[a]
        cq[a] = room
        weights[a] = (1.0 - 1e-12) * room ** (1.0 - 1.0 / p)
    return weights


def _potential(net: NetGraph, p: float) -> np.ndarray:
    """The A* potential of every node: max(|v - t|_p, sum_a c_a |v_a - t_a|)
    with t the target and c the ``_hyperplane_weights``."""
    diffs = np.abs((net.coords - net.coords[net.target]).T)
    return np.maximum(_norms(diffs, p), np.dot(_hyperplane_weights(net, p), diffs))


class _PowerRows(dict):
    """Lazily filled rows of powers: ``rows[c][e] == |values[e] - values[c]|^p``."""

    def __init__(self, values: np.ndarray, p: float):
        super().__init__()
        self.values = values
        self.p = p

    def __missing__(self, c: int) -> np.ndarray:
        dv = np.abs(self.values - self.values[c])
        row = self[c] = dv ** self.p
        return row


def _dijkstra(net: NetGraph, p: float) -> float:
    """Shortest path with the A* potential of ``_potential``.

    Every sum runs over the hull's spanned axes, the net's only axes; the
    others are constant on the hull and add nothing to a distance.  The
    potential is h(v) = max(|v - t|_p, sum_a c_a |v_a - t_a|), t the
    target, with sum_{a in C} c_a^q <= 1 on the free axes of every maximal
    cube C.  It is consistent: an arc u-v lies in some C, where u and v agree
    on C's fixed axes, so by Hoelder
        sum_a c_a |u_a - t_a| - sum_a c_a |v_a - t_a|
            <= sum_{a in C} c_a |u_a - v_a| <= |c_C|_q |u - v|_p <= |u - v|_p,
    and the lp term drops by at most |u - v|_p by the triangle
    inequality.  A consistent potential that is 0 at the target leaves the
    value exact, so the weights change only which nodes are popped, not the
    value returned.

    Popping u relaxes every cube C containing u, but only on the members of C
    outside the cube A through which dist[u] was last set, which keeps this
    invariant: once u is popped, dist[v] <= dist[u] + |u - v|_p for every
    cube-mate v of u.  The source relaxes every member.  Any other u got
    dist[u] = dist[w] + |w - u|_p from some w through A, and w keeps the
    invariant, so for every v in A
        dist[v] <= dist[w] + |w - v|_p <= dist[w] + |w - u|_p + |u - v|_p
                 = dist[u] + |u - v|_p,
    and relaxing v from u cannot improve anything.  C = A drops out whole,
    and in any other C the members of the face A & C drop out.  The
    inequality holds for the exact weights; the rounded ones can break it by
    an ulp when w, u and v are collinear, so a skipped candidate can lie an
    ulp below dist[v].  The value returned is still the length of a net path,
    so still an upper bound.

    Each relaxation works on the cut list's code block: for each free axis a
    of C, in axis order, it adds the power row of u's code on a, taken at the
    members' codes on a, and then takes one root per member.  Each term is the
    same float |v_a - u_a| raised by the same ufunc as a direct evaluation,
    and the terms are summed in the same order, so every arc weight is
    bit-identical to ``_norms`` on the difference block; C's fixed axes would
    only add exact zeros.  The queue is the array ``key`` (dist + potential
    for reached, unpopped nodes, inf otherwise) and a pop is its ``argmin``;
    that O(nodes) scan costs less than the relaxation that follows it.
    """
    target = net.target
    potential = _potential(net, p)
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
        for ci in net.cubes_at(u):
            if ci == arrived:
                continue
            if arrived < 0:
                idxs, block = net.members[ci], net.blocks[ci]
            else:
                idxs, block = net.cuts[ci, arrived]
            free = net.free[ci]
            acc = rows[at[free[0]]].take(block[0])
            for j in range(1, len(free)):
                acc += rows[at[free[j]]].take(block[j])
            cand = d + acc ** (1.0 / p)
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
