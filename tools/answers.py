"""Dump the solver's answers on a fixed case set, and compare two dumps.

    python3 tools/answers.py dump OUT.json
    python3 tools/answers.py compare A.json B.json

``dump`` runs ``geodesic`` on 16,726 cases and writes, per case, the length
and break reprs, the converged flag and the ``check_local_geodesic`` verdict
and worst residual, computed afresh on a new path with the returned breaks,
or the type and message of the domain error raised.
The cases:

- 200 ``default_rng([77, i])`` pairs (two ``sample_point`` draws) on each
  of corner_complex, square_cube_book, grid(2,2,2), grid(12,1,0) and
  hypercube(3), at p in {1.01, 1.05, 1.5, 2, 3, 8, 12, 16, 32, 64}, in
  that order on one complex per fixture, so that from the second exponent
  on a pair's solve starts from its answer at the one before;
- the same pairs on corner_complex, grid(2,2,2), grid(12,1,0), grid(3,3,3)
  and ``tree_product()`` at p in {12, 64}, each on a new complex, which
  remembers no answer: the search from a cold start on an irreducible hull,
  and on four products of trees the l1 crossing schedule, which is their
  geodesic and is taken without a gallery search;
- 60 ``default_rng([78, i])`` pairs on grid(3,3,3) at p in {2, 32};
- corner to corner on grid(3,3,3) and on grid(5,5,5) (one complex each) at
  p in {1.5, 2, 3}; grid(5,5,5) has more galleries than ``GALLERY_CAP``;
- 100 ``default_rng([92, i])`` pairs of ``endpoint`` draws on grid(6,6,0),
  at p in {1.5, 2, 3, 16}: 12 hyperplanes, and squares whose hulls hold
  several galleries, so each segment moves on a few of many axes;
- 150 ``default_rng([91, i])`` pairs on each of the seven bundled fixtures,
  at p in {1.5, 2, 3, 16}, each endpoint (``endpoint``) a vertex, a point
  of any cube or a point of a maximal cube, as CLI requests give them.

It then runs ``geodesic``, ``canonical_decomposition`` and
``distance_formula``, in that order and on the same complex, on 600 vertex
wedges, and writes the factor masks, the ratio reprs and the formula repr,
or the error: for each pair of maximal cubes of corner_complex and
grid(2,2,2) that meet in exactly one vertex (one and four pairs), 40
``default_rng([79, i])`` draws of an interior point of each cube, at p in
{1.5, 2, 3}.

Last it builds a complex on the hyperplanes h1..h4 from each of the 65,535
nonempty subsets of the 4-cube's vertices and writes the verdict: "ok",
"Disconnected" or "NotMedian" (the type of the error raised), where a
``NotMedian`` whose witness is not a missing median of three vertices is
written as "NotMedian with an invalid witness".  The witness itself is not
written, so the verdicts of two median checks can be compared.

``compare`` lists the cases whose answers differ (or that only one dump
has) on stdout and exits 1 if there are any.  On stderr it sums up each
dump (certified, uncertified and typed-error answers) and the largest
relative length change between cases that both dumps answer.  Then, per
exponent, it counts the cases whose verdict (certified, uncertified, typed
error) changes, by transition, and gives the largest relative length change
between cases that both dumps certify.  A change
that claims to keep every answer runs ``dump`` in a checkout of its parent
and in its own and ``compare``s the two; each dump solves with the ``src``
next to the script.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lpcube import complexes as cc
from lpcube import fixtures
from lpcube.analysis import sample_point
from lpcube.complexes import CubeComplex, Point, bit_indices, cube_intersection, median_of
from lpcube.decomposition import canonical_decomposition, distance_formula
from lpcube.errors import LpCubeError, NotMedian
from lpcube.solver import PiecewisePath, check_local_geodesic, geodesic

SWEEP_PS = (1.01, 1.05, 1.5, 2.0, 3.0, 8.0, 12.0, 16.0, 32.0, 64.0)
COLD_PS = (12.0, 64.0)


def cases():
    """(name, complex, x, y, p) for every case, in a fixed order."""
    for name, cx in (("corner_complex", cc.corner_complex()),
                     ("square_cube_book", cc.square_cube_book()),
                     ("grid222", cc.grid(2, 2, 2)),
                     ("grid(12,1,0)", cc.grid(12, 1, 0)),
                     ("hypercube3", cc.hypercube(3))):
        for i in range(200):
            rng = np.random.default_rng([77, i])
            x, y = sample_point(cx, rng), sample_point(cx, rng)
            for p in SWEEP_PS:
                yield f"{name} [77, {i}] p={p}", cx, x, y, p
    for name, make in (("corner_complex", cc.corner_complex),
                       ("grid222", lambda: cc.grid(2, 2, 2)),
                       ("grid(12,1,0)", lambda: cc.grid(12, 1, 0)),
                       ("grid333", lambda: cc.grid(3, 3, 3)),
                       ("trees(7,7)", tree_product)):
        cx = make()
        for i in range(200):
            rng = np.random.default_rng([77, i])
            x, y = sample_point(cx, rng), sample_point(cx, rng)
            for p in COLD_PS:
                yield f"{name} cold [77, {i}] p={p}", make(), x, y, p
    cx = cc.grid(3, 3, 3)
    for i in range(60):
        rng = np.random.default_rng([78, i])
        x, y = sample_point(cx, rng), sample_point(cx, rng)
        for p in (2.0, 32.0):
            yield f"grid333 [78, {i}] p={p}", cx, x, y, p
    for name, cx in (("grid333", cx), ("grid555", cc.grid(5, 5, 5))):
        for p in (1.5, 2.0, 3.0):
            corners = Point.make(0), Point.make(max(cx.vertices))
            yield f"{name} corner to corner p={p}", cx, *corners, p
    cx = cc.grid(6, 6, 0)
    for i in range(100):
        rng = np.random.default_rng([92, i])
        x, y = endpoint(cx, rng), endpoint(cx, rng)
        for p in (1.5, 2.0, 3.0, 16.0):
            yield f"grid(6,6,0) [92, {i}] p={p}", cx, x, y, p
    for name in fixtures.NAMES:
        cx = fixtures.load_fixture(name)
        for i in range(150):
            rng = np.random.default_rng([91, i])
            x, y = endpoint(cx, rng), endpoint(cx, rng)
            for p in (1.5, 2.0, 3.0, 16.0):
                yield f"{name} [91, {i}] p={p}", cx, x, y, p


def tree_product() -> CubeComplex:
    """The product of two random trees of 7 edges each, from a fixed seed:
    each new vertex hangs from a random earlier one.  A tree vertex is the
    set of its edges on the way from the root, and the second tree's
    hyperplanes come after the first's."""
    rng = np.random.default_rng([96, 0])
    trees = []
    for _ in range(2):
        masks = [0]
        for i in range(7):
            masks.append(masks[int(rng.integers(i + 1))] | 1 << i)
        trees.append(masks)
    labels = [f"s{i}" for i in range(7)] + [f"t{i}" for i in range(7)]
    return CubeComplex(labels, [u | v << 7 for u in trees[0] for v in trees[1]])


def endpoint(cx, rng) -> Point:
    """A vertex, a point of a cube or a point of a maximal cube, each with
    chance 1/3; a point's coordinates are drawn from [0.02, 0.98]."""
    u = rng.random()
    if u < 1 / 3:
        return Point.make(cx.vertex_order[int(rng.integers(len(cx.vertex_order)))])
    cubes = cx.all_cubes() if u < 2 / 3 else cx.maximal_cubes()
    c = cubes[int(rng.integers(len(cubes)))]
    return Point.make(c.corner, {h: float(rng.uniform(0.02, 0.98)) for h in bit_indices(c.mask)})


def answer(cx, x, y, p) -> dict:
    try:
        path = geodesic(cx, x, y, p)
    except LpCubeError as err:
        return {"error": type(err).__name__, "message": str(err)}
    # a fresh path, so the verdict is recomputed, not the report the search kept
    rep = check_local_geodesic(cx, PiecewisePath(cx, path.p, path.breaks))
    return {"length": repr(path.length), "breaks": [repr(b) for b in path.breaks],
            "converged": path.converged, "certified": rep.all_ok,
            "worst_residual": repr(rep.worst_residual)}


def wedge_cases():
    """(name, complex, x, v, y, p) for every vertex-wedge case, in a fixed order."""
    for name, cx in (("corner_complex", cc.corner_complex()), ("grid222", cc.grid(2, 2, 2))):
        for c, d in itertools.combinations(sorted(cx.maximal_cubes()), 2):
            v = cube_intersection(c, d)
            if v is None or v.mask:
                continue
            for i in range(40):
                rng = np.random.default_rng([79, i])
                x, y = (Point.make(q.corner, {h: float(rng.uniform(0.05, 0.95))
                                              for h in bit_indices(q.mask)})
                        for q in (c, d))
                for p in (1.5, 2.0, 3.0):
                    yield f"{name} wedge {c}|{d} [79, {i}] p={p}", cx, x, v.corner, y, p


def wedge_answer(cx, x, v, y, p) -> dict:
    try:
        geodesic(cx, x, y, p)
        dec = canonical_decomposition(cx, x, v, y, p)
        formula = distance_formula(cx, x, v, y, dec, p)
    except LpCubeError as err:
        return {"error": type(err).__name__, "message": str(err)}
    return {"a_factors": list(dec.a_factors), "b_factors": list(dec.b_factors),
            "ratios": [repr(r) for r in dec.ratios], "formula": repr(formula)}


def validation_cases():
    """(name, vertex set) for every nonempty subset of the 4-cube's vertices."""
    for s in range(1, 1 << 16):
        yield f"Q4 subset {s:#06x}", frozenset(v for v in range(16) if s >> v & 1)


def validation_answer(vertices) -> str:
    labels = ["h1", "h2", "h3", "h4"]
    try:
        CubeComplex(labels, vertices)
    except NotMedian as err:
        u, v, w, m = (sum(s << labels.index(h) for h, s in err.witness[key].items())
                      for key in ("u", "v", "w", "missing_median"))
        if {u, v, w} <= vertices and m not in vertices and m == median_of(u, v, w):
            return "NotMedian"
        return "NotMedian with an invalid witness"
    except LpCubeError as err:
        return type(err).__name__
    return "ok"


def dump(out: str) -> int:
    answers = {name: answer(cx, x, y, p) for name, cx, x, y, p in cases()}
    answers.update((name, wedge_answer(*case)) for name, *case in wedge_cases())
    answers.update((name, validation_answer(v)) for name, v in validation_cases())
    with open(out, "w") as f:
        json.dump(answers, f, indent=0)
    errors = sum(isinstance(a, dict) and "error" in a for a in answers.values())
    print(f"{len(answers)} cases, {errors} errors", file=sys.stderr)
    return 0


def verdict(a) -> str | None:
    """The verdict of a solver answer: "certified", "uncertified" or "typed
    errors"; None for an answer without one (a Q4 verdict, a wedge's factors)."""
    if not isinstance(a, dict):
        return None
    if "error" in a:
        return "typed errors"
    if "certified" in a:
        return "certified" if a["certified"] else "uncertified"
    return None


def tally(answers: dict) -> str:
    """Certified, uncertified and typed-error answers of a dump."""
    kinds = collections.Counter(filter(None, map(verdict, answers.values())))
    return ", ".join(f"{kinds[k]} {k}" for k in ("certified", "uncertified", "typed errors"))


def transitions(left: dict, right: dict) -> list[str]:
    """Per exponent, the verdict changes between cases both dumps have, as
    lines "p=16.0: 1 certified -> typed errors, ..." in order of p."""
    moves: dict[float, collections.Counter] = collections.defaultdict(collections.Counter)
    for name in left.keys() & right.keys():
        a, b = verdict(left[name]), verdict(right[name])
        if a is not None and b is not None and a != b:
            moves[float(name.rsplit("p=", 1)[1])][f"{a} -> {b}"] += 1
    return [f"p={p}: " + ", ".join(f"{k} {t}" for t, k in sorted(moves[p].items()))
            for p in sorted(moves)]


def largest_length_change(left: dict, right: dict,
                          certified: bool = False) -> tuple[float, str]:
    """The largest relative length change between cases both dumps answer
    (with ``certified``, both certify), relative to the larger length, and
    its case ("" if none changed)."""
    worst, where = 0.0, ""
    for name in sorted(left.keys() & right.keys()):
        a, b = left[name], right[name]
        if certified and not verdict(a) == verdict(b) == "certified":
            continue
        if isinstance(a, dict) and isinstance(b, dict) and "length" in a and "length" in b:
            la, lb = float(a["length"]), float(b["length"])
            change = abs(lb - la) / max(abs(la), abs(lb)) if la != lb else 0.0
            if change > worst:
                worst, where = change, name
    return worst, where


def compare(a: str, b: str) -> int:
    with open(a) as f:
        left = json.load(f)
    with open(b) as f:
        right = json.load(f)
    differ = [name for name in {**left, **right} if left.get(name) != right.get(name)]
    for name in differ:
        print(f"{name}:\n  {left.get(name)}\n  {right.get(name)}")
    for path, answers in ((a, left), (b, right)):
        print(f"{path}: {tally(answers)}", file=sys.stderr)
    change, where = largest_length_change(left, right)
    print(f"largest relative length change: {change:.3g}" + (f" ({where})" if where else ""),
          file=sys.stderr)
    print(f"{len(differ)} of {len(left.keys() | right.keys())} cases differ", file=sys.stderr)
    moves = transitions(left, right)
    print("verdict transitions:" + ("" if moves else " none"), file=sys.stderr)
    for line in moves:
        print(f"  {line}", file=sys.stderr)
    change, where = largest_length_change(left, right, certified=True)
    print(f"largest relative length change, both certified: {change:.3g}"
          + (f" ({where})" if where else ""), file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump").add_argument("out")
    cp = sub.add_parser("compare")
    cp.add_argument("a")
    cp.add_argument("b")
    args = ap.parse_args(argv)
    return dump(args.out) if args.cmd == "dump" else compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
