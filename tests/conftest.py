import numpy as np
import pytest

from lpcube import complexes as cc
from lpcube import solver as sv
from lpcube.complexes import CubeComplex, Point


@pytest.fixture(scope="session")
def square():
    return cc.hypercube(2)


@pytest.fixture(scope="session")
def cube3():
    return cc.hypercube(3)


@pytest.fixture(scope="session")
def corner():
    return cc.corner_complex()


@pytest.fixture(scope="session")
def scb():
    return cc.square_cube_book()


@pytest.fixture(scope="session")
def grid222():
    return cc.grid(2, 2, 2)


@pytest.fixture(scope="session")
def rect():
    return cc.grid(12, 1, 0)


@pytest.fixture(scope="session")
def book2():
    return cc.book_of_squares(2)


def tree_product(seed: int, sizes: tuple[int, int] = (7, 7)) -> cc.CubeComplex:
    """The product of two random trees of the given edge counts: each new
    vertex hangs from a random earlier one, so the trees branch.  A vertex
    of a tree is the set of its edges on the way from the root; a vertex of
    the product is the pair, one tree's hyperplanes above the other's."""
    rng = np.random.default_rng([96, seed])
    trees = []
    for k in sizes:
        masks = [0]
        for i in range(k):
            masks.append(masks[int(rng.integers(i + 1))] | 1 << i)
        trees.append(masks)
    labels = [f"s{i}" for i in range(sizes[0])] + [f"t{i}" for i in range(sizes[1])]
    return cc.CubeComplex(labels, [u | v << sizes[0] for u in trees[0] for v in trees[1]])


def corner_times_path() -> cc.CubeComplex:
    """corner_complex times a path of two edges: irreducible times a tree."""
    corner = cc.corner_complex()
    labels = list(corner.hyperplanes) + ["p0", "p1"]
    return cc.CubeComplex(labels, [u | v << 4 for u in corner.vertices for v in (0, 1, 3)])


class SolveLog:
    """The ``optimize_breakpoints`` calls made through ``lpcube.solver``, as
    ("screen" or "full", gallery) pairs; a screen is a call with ``max_sweeps``."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, object]] = []

    def counts(self) -> dict[str, int]:
        kinds = [kind for kind, _ in self.calls]
        return {"full": kinds.count("full"), "screen": kinds.count("screen")}


@pytest.fixture
def solve_log(monkeypatch):
    log = SolveLog()
    solve = sv.optimize_breakpoints

    def logged(complex, gallery, *args, **kwargs):
        log.calls.append(("screen" if kwargs.get("max_sweeps") is not None else "full",
                          gallery))
        return solve(complex, gallery, *args, **kwargs)

    monkeypatch.setattr(sv, "optimize_breakpoints", logged)
    return log


def build_wedge_instance(seed: int):
    """Seeded random staircase wedge: (complex, x, v=0, y, k_built).

    C and C' meet exactly at the origin vertex; the full chain of corner
    cubes between them is present, so generic endpoints have a k-factor
    canonical decomposition.
    """
    rng = np.random.default_rng([555, seed])
    dc = int(rng.integers(1, 4))
    dcp = int(rng.integers(1, 4))
    k = int(rng.integers(1, min(dc, dcp) + 1))
    labels = [f"a{i}" for i in range(dc)] + [f"b{i}" for i in range(dcp)]
    a_idx = list(range(dc))
    b_idx = list(range(dc, dc + dcp))
    rng.shuffle(a_idx)
    rng.shuffle(b_idx)

    def split(idx, parts):
        if parts == 1:
            return [list(idx)]
        cuts = sorted(rng.choice(np.arange(1, len(idx)), size=parts - 1, replace=False))
        out, prev = [], 0
        for c in list(cuts) + [len(idx)]:
            out.append(list(idx[prev:c]))
            prev = c
        return out

    A = split(a_idx, k)
    B = split(b_idx, k)
    masks = []
    for j in range(k + 1):
        m = 0
        for i in range(j):
            for h in B[i]:
                m |= 1 << h
        for i in range(j, k):
            for h in A[i]:
                m |= 1 << h
        masks.append(m)
    verts = set()
    for m in masks:
        sub = m
        while True:
            verts.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    cx = CubeComplex(labels, verts, validate=True)
    x = Point.make(0, {h: float(rng.uniform(0.1, 0.95)) for h in range(dc)})
    y = Point.make(0, {h: float(rng.uniform(0.1, 0.95)) for h in range(dc, dc + dcp)})
    return cx, x, 0, y, k
