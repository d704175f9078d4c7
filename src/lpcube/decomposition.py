"""Canonical maximal factor decompositions and the closed-form distance law.

For x in a cube C and y in a cube C' with C and C' meeting exactly at a vertex
v, the unique geodesic from x to y determines ordered partitions
C = A_1 x ... x A_k and C' = B_1 x ... x B_k with strictly increasing factor
norm ratios |x-v|_{A_j} / |y-v|_{B_j}, every intermediate corner cube
B_1 x ... x B_j x A_{j+1} x ... x A_k present in the complex, and the distance
equal to the lp norm of the componentwise sums of factor norms.

Factors are allowed to be empty at the ends of the chain (ratio 0 first, inf
last): that is what happens when the geodesic leaves C, or enters C',
through a higher-dimensional cube rather than across v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .complexes import CubeComplex, CubeRef, Point, bit_indices, pick_bits
from .errors import (
    DecompositionMismatch,
    NotVertexIntersection,
    PreconditionViolated,
)
from .geometry import check_p, lp_norm
from .solver import geodesic

MERGE_TOL = 1e-7        # adjacent factors whose ratios differ by less are merged


@dataclass(frozen=True)
class Decomposition:
    """Ordered factor supports for C and C' plus their norm ratios."""

    a_factors: tuple[int, ...]       # hyperplane masks partitioning supp(C)
    b_factors: tuple[int, ...]       # hyperplane masks partitioning supp(C')
    ratios: tuple[float, ...]
    v: int                           # the wedge vertex
    c_mask: int
    cprime_mask: int

    @property
    def k(self) -> int:
        return len(self.a_factors)

    def corner_cube(self, j: int) -> CubeRef:
        """B_1 x ... x B_j x A_{j+1} x ... x A_k, based at the wedge vertex."""
        mask = 0
        for i in range(j):
            mask |= self.b_factors[i]
        for i in range(j, self.k):
            mask |= self.a_factors[i]
        return CubeRef(self.v & ~mask, mask)

    def to_obj(self, complex: CubeComplex) -> dict:
        names = lambda mask: [complex.hyperplanes[i] for i in bit_indices(mask)]
        return {
            "k": self.k,
            "A": [names(m) for m in self.a_factors],
            "B": [names(m) for m in self.b_factors],
            "ratios": list(self.ratios),
        }


def _rel_norm(vec: np.ndarray, mask: int, p: float) -> float:
    idx = [i for i in range(len(vec)) if mask >> i & 1]
    if not idx:
        return 0.0
    return lp_norm(vec[idx], p)


def _wedge_cubes(complex: CubeComplex, x: Point, v: int, y: Point) -> tuple[CubeRef, CubeRef]:
    vp = Point.make(v)
    complex.check_point(x)
    complex.check_point(y)
    if v not in complex.vertices:
        raise ValueError("v is not a vertex")
    c = complex.minimal_cube_pair(x, vp)
    cp = complex.minimal_cube_pair(y, vp)
    if c is None or cp is None:
        raise PreconditionViolated("x and v (and y and v) must share a cube")
    if c.mask & cp.mask or (c.corner & ~cp.mask) != (cp.corner & ~c.mask):
        raise NotVertexIntersection(
            "the minimal cubes of {x,v} and {y,v} must intersect exactly in v")
    return c, cp


def canonical_decomposition(complex: CubeComplex, x: Point, v: int, y: Point,
                            p: float) -> Decomposition:
    """The unique maximal factor chains, extracted from the solved geodesic.

    The geodesic's consecutive minimal cubes, with C prepended and C'
    appended, drop some of C's hyperplanes and pick up some of C''s at each
    step; the dropped sets are the A factors and the gained sets the B
    factors.  Steps whose norm ratios agree within MERGE_TOL are merged,
    which is what maximality of the factors means.

    Inputs where {x,v} or {y,v} span more than the stated minimal cubes are
    handled by restricting to those minimal cubes first.

    The geodesic comes from ``geodesic()``, which returns the answer the
    complex remembers when it was the last query there, so a decomposition
    right after ``geodesic(complex, x, y, p)`` solves nothing.  The record
    holds the path's fields, not the path, which would hold the complex in
    a cycle.
    """
    p = check_p(p, smooth=True)
    c, cp = _wedge_cubes(complex, x, v, y)
    n = len(complex.hyperplanes)
    if c.mask == 0 and cp.mask == 0:
        raise PreconditionViolated("x and y both coincide with v")
    dx = x.ambient(n) - Point.make(v).ambient(n)
    dy = y.ambient(n) - Point.make(v).ambient(n)
    if c.mask == 0 or cp.mask == 0:
        # one endpoint sits at v: single trivial factor
        ratio = 0.0 if c.mask == 0 else math.inf
        return Decomposition((c.mask,), (cp.mask,), (ratio,), v, c.mask, cp.mask)

    path = geodesic(complex, x, y, p)
    chain: list[int] = [c.mask]
    breaks = path.breaks
    for i in range(len(breaks) - 1):
        seg = complex.minimal_cube_pair(breaks[i], breaks[i + 1])
        if seg is None:
            raise DecompositionMismatch("geodesic breaks do not share cubes")
        if seg.mask != chain[-1]:
            chain.append(seg.mask)
    if chain[-1] != cp.mask:
        chain.append(cp.mask)

    a_parts: list[int] = []
    b_parts: list[int] = []
    for prev, nxt in zip(chain, chain[1:]):
        a_parts.append(prev & ~nxt)
        b_parts.append(nxt & ~prev & cp.mask)
    covered_a = 0
    covered_b = 0
    for m in a_parts:
        covered_a |= m
    for m in b_parts:
        covered_b |= m
    if covered_a != c.mask or covered_b != cp.mask:
        raise DecompositionMismatch("geodesic chain does not partition the wedge supports")

    def ratio_of(am: int, bm: int) -> float:
        na = _rel_norm(dx, am, p)
        nb = _rel_norm(dy, bm, p)
        if bm == 0 or nb == 0.0:
            return math.inf
        return na / nb

    ratios = [ratio_of(a, b) for a, b in zip(a_parts, b_parts)]
    # merge adjacent factors whose ratios are not separated (maximality)
    i = 0
    while i + 1 < len(a_parts):
        r0, r1 = ratios[i], ratios[i + 1]
        gap = 0.0 if r0 == r1 else r1 - r0
        if gap < MERGE_TOL:
            a_parts[i] |= a_parts.pop(i + 1)
            b_parts[i] |= b_parts.pop(i + 1)
            ratios.pop(i + 1)
            ratios[i] = ratio_of(a_parts[i], b_parts[i])
            if i > 0:
                i -= 1
        else:
            i += 1

    dec = Decomposition(tuple(a_parts), tuple(b_parts), tuple(ratios),
                        v, c.mask, cp.mask)
    for j in range(1, dec.k):
        if not complex.is_cube(dec.corner_cube(j)):
            raise DecompositionMismatch(
                f"corner cube {j} of the extracted decomposition is missing")
    return dec


def distance_formula(complex: CubeComplex, x: Point, v: int, y: Point,
                     dec: Decomposition, p: float) -> float:
    """lp norm of the vector of summed factor norms |x-v|_{A_j} + |y-v|_{B_j}."""
    p = check_p(p, smooth=True)
    c, cp = _wedge_cubes(complex, x, v, y)
    if dec.v != v or dec.c_mask != c.mask or dec.cprime_mask != cp.mask:
        raise DecompositionMismatch("decomposition does not belong to this configuration")
    n = len(complex.hyperplanes)
    dx = x.ambient(n) - Point.make(v).ambient(n)
    dy = y.ambient(n) - Point.make(v).ambient(n)
    entries = [
        _rel_norm(dx, am, p) + _rel_norm(dy, bm, p)
        for am, bm in zip(dec.a_factors, dec.b_factors)
    ]
    return lp_norm(entries, p)


def wedge_product_embedding(complex: CubeComplex, dec: Decomposition) -> CubeComplex:
    """The product of factor wedges Q = prod_j (A_j wedge B_j at v).

    The hull of C u C' embeds in Q with the same hyperplane labels, and the
    distance of the embedded endpoints in Q equals the distance formula.
    """
    support = dec.c_mask | dec.cprime_mask
    idx = bit_indices(support)
    labels = [complex.hyperplanes[i] for i in idx]
    v_bits = pick_bits(dec.v, idx)
    factor_choices = []
    for am, bm in zip(dec.a_factors, dec.b_factors):
        choices = set()
        for m in (am, bm):
            cm = pick_bits(m, idx)
            sub = cm
            while True:
                choices.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & cm
        factor_choices.append(sorted(choices))
    vertices = set()

    def build(j: int, acc: int) -> None:
        if j == len(factor_choices):
            vertices.add(v_bits ^ acc)
            return
        for m in factor_choices[j]:
            build(j + 1, acc | m)

    build(0, 0)
    return CubeComplex(labels, vertices, validate=True)


def embed_in_wedge_product(complex: CubeComplex, dec: Decomposition,
                           q: CubeComplex, pt: Point) -> Point:
    """Map a point of C u C' into the wedge product with matching coordinates.

    The wedge product keeps the parent's hyperplane labels and orientations,
    so the image has the same displacement from v's image on every hyperplane.
    """
    n = len(complex.hyperplanes)
    vec = pt.ambient(n)
    base = 0
    coords = {}
    for j, label in enumerate(q.hyperplanes):
        i = complex.label_index[label]
        val = float(vec[i])
        if val >= 1.0:
            base |= 1 << j
        elif val > 0.0:
            coords[j] = val
    return Point.make(base, coords)


def amgm_check(a: float, b: float, c: float, d: float, p: float) -> bool:
    """Whether a/b < c/d implies the p-combined ratio stays below c/d.

    The inequality behind merging factors: combining two factors whose ratios
    are ordered produces a ratio strictly between them, so merged chains stay
    monotone.  The decomposition does not call it; it is a check for tests.
    Vacuously true when the premise fails.
    """
    p = check_p(p, finite=True)
    if not all(t > 0 for t in (a, b, c, d)):
        raise ValueError("inputs must be positive")
    if not a / b < c / d:
        return True
    combined = (a ** p + c ** p) ** (1 / p) / (b ** p + d ** p) ** (1 / p)
    return combined < c / d
