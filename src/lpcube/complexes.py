"""Finite CAT(0) cube complexes as median-closed vertex sets in a hypercube.

A complex is stored as a set of sign vectors over a global list of named
hyperplanes; vertex v is an int whose bit i gives the side of hyperplane i.
This makes the median operation a three-way bit majority, cube membership a
submask sweep, and hulls exact set computations.

Points carry a base vertex plus fractional coordinates along the hyperplanes
of their minimal cube.  The canonical form puts the base on side 0 of every
fractional hyperplane and forbids coordinate values 0 and 1, so equality of
points is exact float equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    Disconnected,
    NotMedian,
    ParseError,
    ScaleExceeded,
)

SCALE_CAP = 10_000   # vertex cap for generators
SNAP_TOL = 1e-12     # coordinates closer than this to 0/1 snap onto the face


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def median_of(u: int, v: int, w: int) -> int:
    """Coordinatewise majority of three sign vectors."""
    return (u & v) | (u & w) | (v & w)


def side_sets(vertices: Sequence[int], n_bits: int) -> list[int]:
    """Per hyperplane i, the positions in ``vertices`` of those on side 1 of
    i, as a bitset: one transposition of the vertices' bit rows."""
    nbytes = (n_bits + 7) // 8
    rows = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in vertices),
                         np.uint8).reshape(len(vertices), nbytes)
    sides = np.packbits(np.unpackbits(rows, axis=1, count=n_bits, bitorder="little").T,
                        axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in sides]


def crosses(a: int, b: int, full: int) -> bool:
    """Whether two hyperplanes, given by their ``side_sets`` over the
    vertices ``full``, cross: all four pairs of their sides occur, as in
    ``missing_square``."""
    return bool(a & b and a & ~b and ~a & b and full & ~(a | b))


def missing_square(edges: Mapping[int, int],
                   ones: Sequence[int]) -> Optional[tuple[int, int, int, int]]:
    """Local median check of a connected vertex set, given as each vertex's
    mask of edge hyperplanes, and per hyperplane the ``side_sets`` of the
    vertices in the order of ``edges``.  Hyperplanes i != j cross when all
    four pairs of their sides occur; the set is median exactly when at every
    vertex u, two edges on crossing hyperplanes i and j span a square
    (u ^ e_i ^ e_j is a vertex).  Returns None, or (u ^ e_i, u ^ e_j, w,
    u ^ e_i ^ e_j) for some w on the far side of both from u: the median of
    the first three is the last.  That gives necessity.  Sufficiency: (1) shortest paths in the set cross no
    hyperplane twice.  At an innermost repeat of i, let j be the hyperplane of
    the edge right after the first i-crossing.  The path shows all four side
    pairs of i and j, and their square moves the i-crossing one edge later;
    repeated, the two i-crossings meet and cancel.  (2) Say m = median(x, y, z)
    is missing.  Take u nearest m, and w nearest u among the vertices on m's
    side of some hyperplane k separating u from m.  On a geodesic from u to w
    the edge before the last crosses an h that does not separate u from m; h
    and k cross, as by majority one of x, y, z has m's sides of both.  Their
    square at the end of that edge lies on m's side of k and nearer u than w
    (with a one-edge geodesic, w is nearer m than u is).  At u, an edge whose
    far side misses those of the edges before it crosses none of them."""
    order = list(edges)
    full = (1 << len(order)) - 1
    far = [(s, full ^ s) for s in ones]    # far[i][b]: the positions on side 1 - b of i
    for u, mask in edges.items():
        union, seen = 0, []
        for i in bit_indices(mask):
            f = far[i][u >> i & 1]
            if f & union:
                for j, g in seen:
                    corner = u ^ 1 << i ^ 1 << j
                    if corner not in edges and f & g:
                        w = order[(f & g).bit_length() - 1]
                        return u ^ 1 << j, u ^ 1 << i, w, corner
            union |= f
            seen.append((i, f))
    return None


class CubeRef(NamedTuple):
    """A cube of the complex: the corner with all support bits 0, plus the support mask."""

    corner: int
    mask: int

    @property
    def dim(self) -> int:
        return bin(self.mask).count("1")

    def corners(self) -> Iterable[int]:
        sub = self.mask
        while True:
            yield self.corner | sub
            if sub == 0:
                return
            sub = (sub - 1) & self.mask

    def contains_cube(self, other: "CubeRef") -> bool:
        if other.mask & ~self.mask:
            return False
        return (other.corner & ~self.mask) == (self.corner & ~self.mask)


def cube_intersection(a: CubeRef, b: CubeRef) -> Optional[CubeRef]:
    """Intersection of two cubes as a cube, or None if they are disjoint."""
    outside = ~(a.mask | b.mask)
    if (a.corner ^ b.corner) & outside:
        return None
    mask = a.mask & b.mask
    # bits on a.mask\b.mask come from b's fixed side, bits on b.mask\a.mask from a's
    corner = (a.corner & outside) | (b.corner & (a.mask & ~mask)) | (
        a.corner & (b.mask & ~mask)
    )
    return CubeRef(corner & ~mask, mask)


class _kept:
    """A value found on first read and kept in the instance dict under the
    method's name, where later reads find it before this non-data
    descriptor; unlike ``cached_property`` it takes no lock."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.fn(obj))


@dataclass(frozen=True)
class Point:
    """Location in a complex: base vertex plus fractional hyperplane coordinates.

    ``coords`` maps hyperplane index -> value in the open interval (0, 1),
    measured on the global orientation (side 0 toward side 1).  The base vertex
    always sits on side 0 of every fractional hyperplane.
    """

    base: int
    coords: tuple[tuple[int, float], ...] = ()

    @staticmethod
    def make(base: int, coords: Mapping[int, float] | Iterable[tuple[int, float]] = ()) -> "Point":
        items = dict(coords)
        canon = {}
        for h, t in items.items():
            t = float(t)
            if not 0.0 < t < 1.0:
                raise ValueError(f"coordinate for hyperplane {h} must lie in (0,1), got {t}")
            bit = 1 << h
            if base & bit:
                base ^= bit
                t = 1.0 - t
            canon[h] = t
        return Point(base, tuple(sorted(canon.items())))

    @_kept
    def coord_mask(self) -> int:
        """The hyperplanes of the coordinates, as a mask; found on first use
        and kept in the instance dict, outside the fields, so it takes no
        part in ==, hash, repr or the canonical form."""
        m = 0
        for h, _ in self.coords:
            m |= 1 << h
        return m

    def minimal_cube(self) -> CubeRef:
        return CubeRef(self.base, self.coord_mask)

    def ambient(self, n_hyperplanes: int) -> np.ndarray:
        vec = np.zeros(n_hyperplanes)
        for i in bit_indices(self.base):
            vec[i] = 1.0
        for h, t in self.coords:
            vec[h] = t
        return vec


def point_from_ambient(vec: Sequence[float], cube: CubeRef) -> Point:
    """Reconstruct the canonical Point for an ambient coordinate vector.

    The vector must describe a location inside ``cube``; values within
    SNAP_TOL of an integer side are snapped onto it, which re-bases the point.
    ``cube`` must be canonical (``corner & mask == 0``, as every CubeRef the
    package builds is), so the coordinates kept are canonical as they come,
    without ``Point.make``; a NaN on a free axis raises ValueError, as there.
    """
    base = cube.corner
    coords = []
    for i in range(len(vec)):
        bit = 1 << i
        if not cube.mask & bit:
            if vec[i] > 0.5:
                base |= bit
            continue
        t = float(vec[i])
        if t <= SNAP_TOL:
            continue
        if t >= 1.0 - SNAP_TOL:
            base |= bit
            continue
        if t != t:
            raise ValueError(f"coordinate for hyperplane {i} must lie in (0,1), got {t}")
        coords.append((i, t))
    return Point(base, tuple(coords))


class CubeComplex:
    """Validated finite CAT(0) cube complex.

    Immutable after construction; all queries are pure.  Cube lookups and hull
    computations are memoized on the instance (safe under the GIL: cache writes
    are idempotent, so observable behavior is single-threaded-equivalent).
    """

    def __init__(self, hyperplanes: Sequence[str], vertices: Iterable[int], *,
                 vertex_order: Optional[Sequence[int]] = None, validate: bool = True):
        self.hyperplanes: tuple[str, ...] = tuple(hyperplanes)
        if len(set(self.hyperplanes)) != len(self.hyperplanes):
            raise ParseError("duplicate hyperplane labels")
        self.vertices: frozenset[int] = frozenset(vertices)
        self.vertex_order: tuple[int, ...] = tuple(vertex_order) if vertex_order is not None \
            else tuple(sorted(self.vertices))
        self.label_index = {h: i for i, h in enumerate(self.hyperplanes)}
        self.vertex_index = {v: i for i, v in enumerate(self.vertex_order)}
        self._cube_cache: dict[CubeRef, bool] = {}
        self._hull_cache: dict[tuple, Optional["CubeComplex"]] = {}
        self._solver_cache: dict = {}
        self._all_cubes: Optional[tuple[CubeRef, ...]] = None
        self._maximal_cubes: Optional[tuple[CubeRef, ...]] = None
        self._dimension: Optional[int] = None
        self._sides: Optional[list[int]] = None
        self._factors: Optional[tuple[tuple[int, bool], ...]] = None
        if validate:
            self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        if not self.vertices:
            raise ParseError("vertex set is empty")
        n_bits = len(self.hyperplanes)
        if any(v >> n_bits for v in self.vertices):
            raise ParseError("vertex assigns a side to an unknown hyperplane")
        edges = self._check_connected()
        self._sides = side_sets(list(edges), n_bits)
        witness = missing_square(edges, self._sides)
        if witness is not None:
            raise NotMedian("vertex set is not median-closed", witness=dict(zip(
                ("u", "v", "w", "missing_median"), map(self.vertex_sides, witness))))

    def _check_connected(self) -> dict[int, int]:
        """Depth-first search of the vertex graph; each vertex's edge hyperplanes."""
        verts = self.vertices
        start = next(iter(verts))
        edges = {start: 0}
        stack = [start]
        bits = [1 << i for i in range(len(self.hyperplanes))]
        while stack:
            v = stack.pop()
            for bit in bits:
                w = v ^ bit
                if w in verts:
                    edges[v] |= bit
                    if w not in edges:
                        edges[w] = 0
                        stack.append(w)
        if len(edges) != len(verts):
            raise Disconnected(
                f"vertex graph has {len(verts) - len(edges)} vertices unreachable "
                f"from vertex {start:b}",
                component=[self.vertex_sides(v) for v in sorted(edges)],
            )
        return edges

    # -- vertex helpers -----------------------------------------------------

    def vertex_sides(self, v: int) -> dict[str, int]:
        return {h: (v >> i) & 1 for i, h in enumerate(self.hyperplanes)}

    def median(self, u: int, v: int, w: int) -> int:
        for x in (u, v, w):
            if x not in self.vertices:
                raise ValueError(f"{x:b} is not a vertex of the complex")
        return median_of(u, v, w)

    # -- cubes --------------------------------------------------------------

    def is_cube(self, ref: CubeRef) -> bool:
        if ref.corner & ref.mask:
            ref = CubeRef(ref.corner & ~ref.mask, ref.mask)
        cached = self._cube_cache.get(ref)
        if cached is not None:
            return cached
        ok = all(c in self.vertices for c in ref.corners())
        self._cube_cache[ref] = ok
        return ok

    def cube(self, base: int, support: Iterable[int | str]) -> CubeRef:
        mask = 0
        for h in support:
            mask |= 1 << (self.label_index[h] if isinstance(h, str) else h)
        ref = CubeRef(base & ~mask, mask)
        if not self.is_cube(ref):
            raise ValueError("not a cube of the complex")
        return ref

    def side_sets(self) -> list[int]:
        """Per hyperplane, the vertices on its side 1 as a bitset over one
        fixed order of the vertices: the one validation searched them in,
        else ``vertex_order``.  Found on first use."""
        if self._sides is None:
            self._sides = side_sets(self.vertex_order, len(self.hyperplanes))
        return self._sides

    def check_point(self, p: Point) -> Point:
        ref = p.minimal_cube()
        if not self.is_cube(ref):
            raise ValueError("point's minimal cube is not a cube of the complex")
        return p

    def all_cubes(self) -> tuple[CubeRef, ...]:
        """Every cube of the complex, enumerated bottom-up.  Desk scale only."""
        if self._all_cubes is not None:
            return self._all_cubes
        self._all_cubes, self._maximal_cubes = _enumerate_cubes(self.vertices)
        for ref in self._all_cubes:
            self._cube_cache[ref] = True
        return self._all_cubes

    def maximal_cubes(self) -> tuple[CubeRef, ...]:
        """The cubes that are no face of a larger cube, in ``all_cubes`` order.

        That order is the iteration order of the sets ``_enumerate_cubes``
        builds, and callers depend on it: ``analysis.sample_point`` draws a
        cube by its index here, and so do the endpoints of
        ``tools/answers.py`` and the bench's request population.  Callers
        that need an order independent of it sort the cubes."""
        if self._maximal_cubes is None:
            self.all_cubes()
        return self._maximal_cubes

    @property
    def dimension(self) -> int:
        """The largest dimension of a cube, found on first use."""
        if self._dimension is None:
            self._dimension = max((q.dim for q in self.maximal_cubes()), default=1)
        return self._dimension

    def minimal_cube_pair(self, x: Point, y: Point) -> Optional[CubeRef]:
        """Smallest cube containing both points, or None."""
        mask = x.coord_mask | y.coord_mask
        mask |= (x.base ^ y.base) & ~mask
        ref = CubeRef(x.base & ~mask, mask)
        return ref if self.is_cube(ref) else None

    # -- hulls --------------------------------------------------------------

    def convex_hull_vertices(self, seeds: Iterable[int]) -> frozenset[int]:
        """Vertices of the median hull (smallest convex vertex set) of the seeds.

        Convex subsets of a median graph are exactly the intersections of
        hyperplane halfspaces, so the hull is the set of vertices lying bitwise
        between the AND and the OR of the seeds.  Geodesics between points of
        the hull stay inside it, which plain median-closure would not give.
        """
        lo = hi = None
        for s in seeds:
            if s not in self.vertices:
                raise ValueError("hull seed is not a vertex")
            lo = s if lo is None else lo & s
            hi = s if hi is None else hi | s
        if lo is None:
            raise ValueError("empty seed set")
        return frozenset(v for v in self.vertices if not (lo & ~v) and not (v & ~hi))

    def hull_restriction(self, points: Sequence[Point]) -> "CubeComplex":
        """The median hull of the points' minimal cubes, on this complex's own
        hyperplanes (those the hull does not cross keep their constant side),
        so that its cubes and points are the complex's; memoized per hull.

        A hull that holds every vertex is the complex itself, so the two
        share one cube enumeration and one solver cache.  The cache keeps
        None for it, not the complex, which would close a reference cycle.

        The hull is fixed by the AND and the OR of the cubes' corners, which
        are the AND of the cubes' base corners and the OR of corner | mask, so
        the corners themselves are listed only on a cache miss."""
        for p in points:
            self.check_point(p)
        return self._hull_of(points)

    def _hull_of(self, points: Sequence[Point]) -> "CubeComplex":
        """``hull_restriction`` of points already checked."""
        lo, hi = -1, 0
        for p in points:
            cube = p.minimal_cube()
            lo &= cube.corner
            hi |= cube.corner | cube.mask
        key = (lo, hi)
        if key not in self._hull_cache:
            seeds = {v for p in points for v in p.minimal_cube().corners()}
            vertices = self.convex_hull_vertices(seeds)
            self._hull_cache[key] = None if len(vertices) == len(self.vertices) else \
                CubeComplex(self.hyperplanes, vertices, validate=False)
        return self._hull_cache[key] or self

    def factors(self) -> tuple[tuple[int, bool], ...]:
        """One (mask, is_tree) pair per product factor: the classes of the
        spanned hyperplanes under "does not cross" (see ``solver``), by lowest
        hyperplane, found on first use.  From the highest down, each heads a
        class taking in those with a member it does not cross; as members of
        two classes cross, the class is a tree (no two members cross) if it
        took in at most one, a tree, and crosses none of that one's members."""
        if self._factors is None:
            full = (1 << len(self.vertices)) - 1
            classes = []    # per class: mask, tree flag, members' side sets
            for i, a in reversed(list(enumerate(self.side_sets()))):
                if 0 < a < full:    # a hyperplane that separates some vertices
                    head = [1 << i, True, [a]]
                    rest = [head]
                    for c in classes:
                        crossed = 0
                        for b in c[2]:
                            crossed += crosses(a, b, full)
                        if crossed == len(c[2]):
                            rest.append(c)
                            continue
                        head[1] = head[0] == 1 << i and c[1] and not crossed
                        head[0] |= c[0]
                        head[2] += c[2]
                    classes = rest
            self._factors = tuple((mask, tree) for mask, tree, _ in classes)
        return self._factors

    def factor(self, mask: int) -> "SubComplex":
        """The factor on the hyperplanes of ``mask``, a mask of ``factors()``."""
        kept = tuple(bit_indices(mask))
        return SubComplex(CubeComplex([self.hyperplanes[i] for i in kept],
                                      {pick_bits(v, kept) for v in self.vertices},
                                      validate=False), kept)

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        return (f"CubeComplex({len(self.hyperplanes)} hyperplanes, "
                f"{len(self.vertices)} vertices)")


def _enumerate_cubes(vertices: frozenset[int]) -> tuple[tuple[CubeRef, ...],
                                                      tuple[CubeRef, ...]]:
    """Every cube, bottom-up, and the maximal ones in the same order.

    A cube one dimension up grows from two faces on either side of a
    hyperplane that separates vertices, once per hyperplane it spans, so
    the faces it is grown from are all the cubes it contains one dimension
    down: a cube no cube grows from is maximal.  Twins are looked up by the
    integer key corner | mask << width, where width is the bit length of the
    largest vertex, so every corner fits below the mask; each dimension's
    CubeRefs go into a set in the order they are first grown, which fixes
    the order of the result.
    """
    width = max(vertices).bit_length()
    separating = _separating(vertices)
    current = {CubeRef(v, 0) for v in vertices}
    out = list(current)
    keys = set(vertices)
    faces = set()
    while current:
        grown, grown_keys = set(), set()
        for corner, mask in current:
            key = corner | mask << width
            free = separating & ~(corner | mask)
            while free:
                bit = free & -free
                free ^= bit
                if key | bit in keys:
                    faces.add(key)
                    faces.add(key | bit)
                    up = key | bit << width
                    if up not in grown_keys:
                        grown_keys.add(up)
                        grown.add(CubeRef(corner, mask | bit))
        out.extend(grown)
        current, keys = grown, grown_keys
    return tuple(out), tuple(ref for ref in out if ref.corner | ref.mask << width not in faces)


def _separating(vertices: Iterable[int]) -> int:
    """Mask of the hyperplanes that separate some two of the vertices."""
    vertices = iter(vertices)
    some = next(vertices)
    mask = 0
    for v in vertices:
        mask |= v ^ some
    return mask


def pick_bits(v: int, kept: Sequence[int]) -> int:
    """The bits of ``v`` at the positions ``kept``, packed in that order."""
    out = 0
    for j, i in enumerate(kept):
        if v >> i & 1:
            out |= 1 << j
    return out


@dataclass(frozen=True)
class SubComplex:
    """A product factor as ``CubeComplex.factor`` builds it: a complex on
    the parent hyperplanes ``kept`` (sub hyperplane index -> parent index)."""

    complex: CubeComplex
    kept: tuple[int, ...]

    def project_point(self, p: Point) -> Point:
        """Project onto the kept hyperplanes, discarding the others' coordinates."""
        pos = {i: j for j, i in enumerate(self.kept)}
        coords = {pos[h]: t for h, t in p.coords if h in pos}
        return Point.make(pick_bits(p.base, self.kept), coords)


# -- document loading -------------------------------------------------------


def load(document) -> CubeComplex:
    """Parse and validate a complex description: nonempty, connected, and
    median-closed by the local rule of ``missing_square``: one O(n |V|) edge
    search serves both checks, then each pair of edges at a vertex is tested.
    Accepts a JSON text, bytes, or an already-decoded mapping with keys
    "hyperplanes" (list of labels) and "vertices" (list of label->side maps).
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except ValueError as e:     # also bytes that are not UTF-8, -16 or -32
            raise ParseError(f"invalid JSON: {e}") from None
    elif isinstance(document, Mapping):
        doc = document
    else:
        raise ParseError(f"unsupported document type {type(document).__name__}")
    if not isinstance(doc, Mapping):
        raise ParseError("top-level document must be an object")
    try:
        labels = doc["hyperplanes"]
        raw_vertices = doc["vertices"]
    except KeyError as e:
        raise ParseError(f"missing key {e}") from None
    if not isinstance(labels, list) or not all(isinstance(h, str) for h in labels):
        raise ParseError('"hyperplanes" must be a list of strings')
    if not isinstance(raw_vertices, list):
        raise ParseError('"vertices" must be a list')
    index = {h: i for i, h in enumerate(labels)}
    if len(index) != len(labels):
        raise ParseError("duplicate hyperplane labels")
    masks = []
    for k, entry in enumerate(raw_vertices):
        if not isinstance(entry, Mapping) or set(entry) != set(labels):
            raise ParseError(f"vertex {k} must assign exactly the declared hyperplanes")
        v = 0
        for h, s in entry.items():
            if type(s) is not int or s not in (0, 1):
                raise ParseError(f"vertex {k}: side of {h} must be 0 or 1")
            if s:
                v |= 1 << index[h]
        masks.append(v)
    if len(set(masks)) != len(masks):
        raise ParseError("duplicate vertices")
    return CubeComplex(labels, masks, vertex_order=masks, validate=True)


def point_to_obj(complex: CubeComplex, p: Point) -> dict:
    return {
        "vertex": complex.vertex_index[p.base],
        "coords": {complex.hyperplanes[h]: t for h, t in p.coords},
    }


def point_from_obj(complex: CubeComplex, obj: Mapping) -> Point:
    """Inverse of ``point_to_obj``; ParseError on any object that does not
    name a point of the complex."""
    index = obj.get("vertex") if isinstance(obj, Mapping) else None
    if type(index) is not int or not 0 <= index < len(complex.vertex_order):
        raise ParseError(f"vertex index {index!r} is not in [0, {len(complex.vertex_order)})")
    raw = obj.get("coords", {})
    if not isinstance(raw, Mapping):
        raise ParseError(f"coords must be an object, got {raw!r}")
    coords = {}
    for h, t in raw.items():
        if h not in complex.label_index:
            raise ParseError(f"unknown hyperplane {h!r}")
        coords[complex.label_index[h]] = t
    try:    # a coordinate that is no number, outside (0, 1) or off the complex's cubes
        return complex.check_point(Point.make(complex.vertex_order[index], coords))
    except (TypeError, ValueError) as e:
        raise ParseError(f"coordinates {dict(raw)!r}: {e}") from None


def dump(complex: CubeComplex) -> str:
    """Serialize a complex back to the document format."""
    return json.dumps(
        {
            "hyperplanes": list(complex.hyperplanes),
            "vertices": [complex.vertex_sides(v) for v in complex.vertex_order],
        },
        indent=1,
    )


# -- generators -------------------------------------------------------------


def _finish(labels: Sequence[str], vertices: Iterable[int],
            order: Optional[Sequence[int]] = None) -> CubeComplex:
    vertices = list(vertices)
    if len(vertices) > SCALE_CAP:
        raise ScaleExceeded(f"{len(vertices)} vertices exceeds the desk-scale cap {SCALE_CAP}")
    return CubeComplex(labels, vertices, vertex_order=order or sorted(vertices))


def hypercube(n: int) -> CubeComplex:
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if 2 ** max(n, 0) > SCALE_CAP:
        raise ScaleExceeded(f"hypercube({n}) exceeds the desk-scale cap")
    labels = [f"h{i + 1}" for i in range(n)]
    return _finish(labels, range(1 << n))


def tree(edges: Sequence[tuple[str, str]]) -> CubeComplex:
    """Tree complex from an edge list; every edge is its own hyperplane."""
    if not edges:
        raise ValueError("edge list is empty")
    adj: dict[str, list[tuple[str, int]]] = {}
    for i, (a, b) in enumerate(edges):
        adj.setdefault(a, []).append((b, i))
        adj.setdefault(b, []).append((a, i))
    if len(adj) != len(edges) + 1:
        raise ParseError("edge list does not describe a tree")
    root = edges[0][0]
    masks = {root: 0}
    stack = [root]
    while stack:
        u = stack.pop()
        for w, i in adj[u]:
            if w not in masks:
                masks[w] = masks[u] | (1 << i)
                stack.append(w)
    if len(masks) != len(adj):
        raise ParseError("edge list is not connected")
    labels = [f"{a}-{b}" for a, b in edges]
    return _finish(labels, masks.values())


def book_of_squares(k: int) -> CubeComplex:
    """k unit squares sharing one common edge."""
    if k < 1:
        raise ValueError("need at least one page")
    labels = ["spine"] + [f"page{i + 1}" for i in range(k)]
    vertices = [0, 1]  # the shared edge (spine hyperplane = bit 0)
    for i in range(k):
        page = 1 << (i + 1)
        vertices += [page, page | 1]
    return _finish(labels, vertices)


def corner_complex() -> CubeComplex:
    """Three unit squares around one vertex (an L of squares), 4 hyperplanes."""
    labels = ["a1", "a2", "b1", "b2"]
    a1, a2, b1, b2 = 1, 2, 4, 8
    vertices = [0, a1, a2, a1 | a2, b1, a2 | b1, b2, b1 | b2]
    return _finish(labels, vertices)


def square_cube_book() -> CubeComplex:
    """One square and one 3-cube glued along an edge."""
    labels = ["d", "a", "b1", "b2"]
    d, a, b1, b2 = 1, 2, 4, 8
    vertices = {0, d, a, a | d}
    for s in range(8):
        v = (d if s & 1 else 0) | (b1 if s & 2 else 0) | (b2 if s & 4 else 0)
        vertices.add(v)
    return _finish(labels, sorted(vertices))


def grid(n1: int, n2: int, n3: int) -> CubeComplex:
    """Axis-aligned box [0,n1]x[0,n2]x[0,n3] of unit cubes (axes of size 0 collapse)."""
    dims = (n1, n2, n3)
    if any(n < 0 for n in dims):
        raise ValueError("grid sizes must be nonnegative")
    count = (n1 + 1) * (n2 + 1) * (n3 + 1)
    if count > SCALE_CAP:
        raise ScaleExceeded(f"grid{dims} has {count} vertices, beyond the desk-scale cap")
    labels = []
    offsets = []
    for axis, n in enumerate(dims):
        offsets.append(len(labels))
        labels += [f"{'xyz'[axis]}{i + 1}" for i in range(n)]
    vertices = []
    order = []
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            for k in range(n3 + 1):
                v = 0
                for axis, val in enumerate((i, j, k)):
                    for step in range(val):
                        v |= 1 << (offsets[axis] + step)
                vertices.append(v)
                order.append(v)
    return _finish(labels, vertices, order=order)
