"""lp norm primitives and within-cube metric operations.

All reals are double precision.  ``lp_norm`` is the package's one lp norm,
computed on plain floats: the vectors it sees have a few coordinates, where
numpy calls cost more than the arithmetic.  p = inf is computed as an exact
max norm, never as a large-p approximation; large finite p is only ever used
on purpose by the sweep operations.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

import numpy as np

from .complexes import CubeComplex, Point
from .errors import NoCommonCube

INF = math.inf
PValue = Union[int, float]


def check_p(p: PValue, *, finite: bool = False, smooth: bool = False) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    if smooth and not 1.0 < p < INF:
        raise ValueError(f"operation requires p in (1, inf), got {p}")
    if finite and p == INF:
        raise ValueError("operation requires finite p")
    return p


def lp_norm(v: Iterable[float], p: PValue) -> float:
    """(sum |v_i|^p)^(1/p); max norm at p = inf; NaN if an entry is NaN.

    The entries are scaled by the largest before the powers are summed (at
    p = 2 only where the squares could under- or overflow), and the sum is
    correctly rounded (``math.fsum``).  An ndarray is read as a list.  p is
    checked once here; the absolute values go to the kernel ``_lp_abs``, which
    the solver's chain solve and polyline lengths call directly.
    """
    p = check_p(p)
    return _lp_abs(list(map(abs, v.tolist() if isinstance(v, np.ndarray) else v)), p)


def _lp_abs(a: list[float], p: float) -> float:
    """``lp_norm``'s kernel: the norm of the absolute values ``a`` at a checked p."""
    m = max(a, default=0.0)
    if p == INF or not 0.0 < m < INF:
        # max drops a NaN unless it comes first; the sum keeps it
        return math.nan if math.isnan(sum(a)) else m
    if p == 2.0 and 1e-150 < m < 1e150:
        return math.sqrt(math.fsum([t * t for t in a]))
    return m * math.fsum([(t / m) ** p for t in a]) ** (1.0 / p)


def cube_distance(complex: CubeComplex, x: Point, y: Point, p: PValue) -> float:
    """lp distance between two points sharing a cube."""
    if complex.minimal_cube_pair(x, y) is None:
        raise NoCommonCube("points do not share a cube")
    n = len(complex.hyperplanes)
    return lp_norm(x.ambient(n) - y.ambient(n), p)


def factor_component(complex: CubeComplex, x: Point, z: Point,
                     factor: Iterable[int | str]) -> np.ndarray:
    """Sub-vector of the coordinate difference indexed by the factor's hyperplanes."""
    pair = complex.minimal_cube_pair(x, z)
    if pair is None:
        raise NoCommonCube("points do not share a cube")
    idx = sorted(complex.label_index[h] if isinstance(h, str) else int(h) for h in factor)
    mask = 0
    for i in idx:
        mask |= 1 << i
    if mask & ~pair.mask:
        raise NoCommonCube("factor is not contained in the common cube's support")
    n = len(complex.hyperplanes)
    diff = x.ambient(n) - z.ambient(n)
    return diff[idx]


def power_map(complex: CubeComplex, x: Point, v: int, p: PValue) -> Point:
    """Coordinatewise t -> t^(p/2) relative to the vertex v as origin.

    Maps an lp configuration to the l2 configuration with the same factor
    structure: the squared l2 factor norms of the image equal the p-th power
    lp factor norms of the source.
    """
    p = check_p(p, finite=True)
    cube = x.minimal_cube()
    if not complex.is_cube(cube):
        raise ValueError("point is not valid in this complex")
    if (v & ~cube.mask) != cube.corner:
        raise ValueError("v must be a vertex of the point's minimal cube")
    exponent = p / 2.0
    coords = {}
    for h, t in x.coords:
        rel = 1.0 - t if v >> h & 1 else t
        rel = rel ** exponent
        coords[h] = 1.0 - rel if v >> h & 1 else rel
    return Point.make(x.base, coords)


def distance_lower_bound(complex: CubeComplex, x: Point, y: Point, p: PValue) -> float:
    """Cheap admissible lower bound on the lp path distance.

    Any path must change each hyperplane coordinate by at least its net
    difference, giving the ambient lp bound; and per unit of lp length the
    total coordinate movement is at most d_max^(1 - 1/p) where d_max is the
    largest cube dimension, giving an l1-based bound that is much stronger
    across long complexes.
    """
    p = check_p(p)
    n = len(complex.hyperplanes)
    diff = np.abs(x.ambient(n) - y.ambient(n))
    lp = lp_norm(diff, p)
    return max(lp, float(diff.sum()) / max(complex.dimension, 1) ** (1.0 - 1.0 / p))

