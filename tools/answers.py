"""Dump the solver's answers on a fixed case set, and compare two dumps.

    python3 tools/answers.py dump OUT.json
    python3 tools/answers.py compare A.json B.json

``dump`` runs ``geodesic`` on 8,123 cases and writes, per case, the length
and break reprs, the converged flag and the ``check_local_geodesic`` verdict
and worst residual, or the type and message of the domain error raised.
The cases:

- 200 ``default_rng([77, i])`` pairs (two ``sample_point`` draws) on each
  of corner_complex, square_cube_book, grid(2,2,2), grid(12,1,0) and
  hypercube(3), at p in {1.01, 1.05, 1.5, 2, 3, 16, 32, 64};
- 60 ``default_rng([78, i])`` pairs on grid(3,3,3) at p in {2, 32};
- corner to corner on grid(3,3,3) at p in {1.5, 2, 3}.

``compare`` lists the cases whose answers differ (or that only one dump
has) and exits 1 if there are any.  A change that claims to keep every
answer runs ``dump`` in a checkout of its parent and in its own and
``compare``s the two; each dump solves with the ``src`` next to the script.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lpcube import complexes as cc
from lpcube.analysis import sample_point
from lpcube.complexes import Point
from lpcube.errors import LpCubeError
from lpcube.solver import check_local_geodesic, geodesic

SWEEP_PS = (1.01, 1.05, 1.5, 2.0, 3.0, 16.0, 32.0, 64.0)


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
    cx = cc.grid(3, 3, 3)
    for i in range(60):
        rng = np.random.default_rng([78, i])
        x, y = sample_point(cx, rng), sample_point(cx, rng)
        for p in (2.0, 32.0):
            yield f"grid333 [78, {i}] p={p}", cx, x, y, p
    for p in (1.5, 2.0, 3.0):
        yield f"grid333 corner to corner p={p}", cx, Point.make(0), Point.make(max(cx.vertices)), p


def answer(cx, x, y, p) -> dict:
    try:
        path = geodesic(cx, x, y, p)
    except LpCubeError as err:
        return {"error": type(err).__name__, "message": str(err)}
    rep = check_local_geodesic(cx, path)
    return {"length": repr(path.length), "breaks": [repr(b) for b in path.breaks],
            "converged": path.converged, "certified": rep.all_ok,
            "worst_residual": repr(rep.worst_residual)}


def dump(out: str) -> int:
    answers = {name: answer(cx, x, y, p) for name, cx, x, y, p in cases()}
    with open(out, "w") as f:
        json.dump(answers, f, indent=0)
    errors = sum("error" in a for a in answers.values())
    print(f"{len(answers)} cases, {errors} errors", file=sys.stderr)
    return 0


def compare(a: str, b: str) -> int:
    with open(a) as f:
        left = json.load(f)
    with open(b) as f:
        right = json.load(f)
    differ = [name for name in {**left, **right} if left.get(name) != right.get(name)]
    for name in differ:
        print(f"{name}:\n  {left.get(name)}\n  {right.get(name)}")
    print(f"{len(differ)} of {len(left.keys() | right.keys())} cases differ", file=sys.stderr)
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
