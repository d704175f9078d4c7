"""Command-line front-end.

Verbs: validate, distance, geodesic, decompose, check, sweep-p, oracle,
suite, examples.  Exit codes: 0 success, 1 domain error (machine-readable
error object on stdout), 2 usage error.  All randomized commands take --seed
and are reproducible.  The tolerances are the library's fixed constants
(``solver.LENGTH_TOL``, ``solver.RESIDUAL_TOL``, ``decomposition.MERGE_TOL``,
``analysis.SUITE_TOL``); no flag sets them.  The argument parser is built
once per process, so the ``cmd_*`` functions are bound at the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import pathlib
import sys

from . import analysis, decomposition, fixtures, oracle, solver
from .complexes import CubeComplex, Point, load
from .errors import LpCubeError

SUITE_NAMES = ("midpoint", "busemann", "uniform-convexity", "uniform-smoothness",
               "bolicity-b1", "bolicity-b2")


def _vertex(complex: CubeComplex, index: int) -> int:
    """Vertex at ``index`` in the complex's vertex list; a negative index does
    not count from the end."""
    if not 0 <= index < len(complex.vertex_order):
        raise LpCubeError(f"vertex index {index} out of range: the complex has "
                          f"{len(complex.vertex_order)} vertices")
    return complex.vertex_order[index]


def _parse_point(complex: CubeComplex, text: str) -> Point:
    """Point literal: 'vertexIndex:h1=0.25,h2=0.7' (coordinates optional)."""
    head, _, tail = text.partition(":")
    try:
        idx = int(head)
    except ValueError:
        raise LpCubeError(f"bad vertex index in point literal {text!r}") from None
    base = _vertex(complex, idx)
    coords = {}
    if tail.strip():
        for part in tail.split(","):
            label, _, val = part.partition("=")
            if label not in complex.label_index:
                raise LpCubeError(f"unknown hyperplane {label!r} in point literal")
            if complex.label_index[label] in coords:
                raise LpCubeError(f"hyperplane {label!r} repeated in point literal {text!r}")
            try:
                coords[complex.label_index[label]] = float(val)
            except ValueError:
                raise LpCubeError(f"bad coordinate value in point literal {text!r}") from None
    try:
        return complex.check_point(Point.make(base, coords))
    except ValueError as e:
        raise LpCubeError(str(e)) from None


def _parse_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise LpCubeError(f"bad p value {text!r}") from None
    if p == math.inf:   # also a literal too large for a float, such as 1e400
        raise LpCubeError("p = inf is not supported by this command; sweep toward it instead")
    if not p > 1.0:     # also nan
        raise LpCubeError("p must be a real number > 1")
    return p


def _parse_grid(text: str) -> list[float]:
    if text.startswith("log:"):
        try:
            _, lo, hi, count = text.split(":")
            grid = analysis.geometric_grid(float(lo), float(hi), int(count))
        except ValueError:
            raise LpCubeError(f"bad grid spec {text!r}; want log:LO:HI:COUNT") from None
    else:
        try:
            grid = [float(t) for t in text.split(",")]
        except ValueError:
            raise LpCubeError(f"bad grid spec {text!r}") from None
    if not all(1.0 < q < math.inf for q in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise LpCubeError(f"bad grid {text!r}: the exponents must increase strictly "
                          "and lie in (1, inf)")
    return grid


def _load_file(path: str) -> CubeComplex:
    try:
        data = pathlib.Path(path).read_bytes()
    except OSError as e:
        raise LpCubeError(f"cannot read {path}: {e}") from None
    return load(data)


def _emit(args, obj: dict, human: str) -> None:
    if args.json:
        print(json.dumps(obj, indent=1, sort_keys=True))
    else:
        print(human)


def cmd_validate(args) -> int:
    cx = _load_file(args.file)
    _emit(args, {"hyperplanes": len(cx.hyperplanes), "vertices": len(cx.vertices),
                 "maximal_cubes": len(cx.maximal_cubes()), "valid": True},
          f"valid complex: {len(cx.hyperplanes)} hyperplanes, {len(cx.vertices)} "
          f"vertices, {len(cx.maximal_cubes())} maximal cubes")
    return 0


def cmd_distance(args) -> int:
    cx = _load_file(args.file)
    p = _parse_p(args.p)
    x = _parse_point(cx, getattr(args, "from"))
    y = _parse_point(cx, args.to)
    d = solver.distance(cx, x, y, p)
    _emit(args, {"p": p, "distance": d}, f"{d:.10f}")
    return 0


def cmd_geodesic(args) -> int:
    cx = _load_file(args.file)
    p = _parse_p(args.p)
    x = _parse_point(cx, getattr(args, "from"))
    y = _parse_point(cx, args.to)
    path = solver.geodesic(cx, x, y, p)
    obj = path.to_obj()
    lines = [f"length {path.length:.10f}  ({len(path.breaks)} break points)"]
    for b in obj["breaks"]:
        coords = ", ".join(f"{k}={v:.8f}" for k, v in sorted(b["coords"].items()))
        lines.append(f"  vertex {b['vertex']}" + (f": {coords}" if coords else ""))
    _emit(args, obj, "\n".join(lines))
    return 0


def cmd_decompose(args) -> int:
    cx = _load_file(args.file)
    p = _parse_p(args.p)
    x = _parse_point(cx, getattr(args, "from"))
    y = _parse_point(cx, args.to)
    v = _vertex(cx, args.vertex)
    dec = decomposition.canonical_decomposition(cx, x, v, y, p)
    d = decomposition.distance_formula(cx, x, v, y, dec, p)
    obj = dec.to_obj(cx)
    obj["distance_formula"] = d
    lines = [f"k = {obj['k']}, distance = {d:.10f}"]
    for j in range(obj["k"]):
        lines.append(f"  A{j + 1}={obj['A'][j]}  B{j + 1}={obj['B'][j]}  "
                     f"ratio={obj['ratios'][j]:.8g}")
    _emit(args, obj, "\n".join(lines))
    return 0


def cmd_check(args) -> int:
    cx = _load_file(args.file)
    p = _parse_p(args.p)
    x = _parse_point(cx, getattr(args, "from"))
    y = _parse_point(cx, args.to)
    path = solver.geodesic(cx, x, y, p)
    rep = solver.check_local_geodesic(cx, path)
    obj = {
        "length": path.length,
        "zero_tension_ok": list(rep.zero_tension_ok),
        "no_shortcut_ok": list(rep.no_shortcut_ok),
        "worst_residual": rep.worst_residual,
        "ok": rep.all_ok,
    }
    _emit(args, obj,
          f"length {path.length:.10f}; zero-tension {'ok' if all(rep.zero_tension_ok) else 'FAIL'}, "
          f"no-shortcut {'ok' if all(rep.no_shortcut_ok) else 'FAIL'}, "
          f"worst residual {rep.worst_residual:.3e}")
    return 0


def cmd_sweep_p(args) -> int:
    cx = _load_file(args.file)
    x = _parse_point(cx, getattr(args, "from"))
    y = _parse_point(cx, args.to)
    grid = _parse_grid(args.grid)
    name = args.functional
    if name == "length":
        fn = lambda path: path.length
    elif name == "break0" or name.startswith("break0:"):
        label = name[len("break0:"):] if ":" in name else None
        fn = analysis.break_coordinate_functional(cx, label)
    else:
        raise LpCubeError(f"unknown functional {name!r}; use length, break0, or break0:<label>")
    table = analysis.p_sweep(cx, x, y, fn, grid)
    if args.json:
        print(json.dumps(table.to_obj(), indent=1))
    else:
        for q, val in table.rows:
            print(f"{q:.6f}\t{val:.10f}")
        print(f"# max adjacent gap: {table.max_gap:.6f}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    cx = _load_file(args.file)
    p = _parse_p(args.p)
    if not 0 < args.eps <= 1:
        raise LpCubeError(f"eps must lie in (0, 1], got {args.eps}")
    x = _parse_point(cx, getattr(args, "from"))
    y = _parse_point(cx, args.to)
    path = solver.geodesic(cx, x, y, p)
    upper = oracle.oracle_distance(cx, x, y, p, args.eps)
    certified = oracle.upper_bound_agrees(path, upper, args.eps)
    obj = {"p": p, "eps": args.eps, "oracle": upper, "solver": path.length,
           "gap": upper - path.length, "certified": certified}
    _emit(args, obj,
          f"oracle {upper:.8f}  solver {path.length:.8f}  gap {upper - path.length:+.2e}  "
          f"certified {certified}")
    return 0


def cmd_suite(args) -> int:
    cx = _load_file(args.file)
    p = _parse_p(args.p)
    name = args.name
    if name == "midpoint":
        rep = analysis.midpoint_convexity_suite(cx, p, args.samples, args.seed)
    elif name == "busemann":
        rep = analysis.busemann_suite(cx, p, args.samples, args.seed)
    elif name == "uniform-convexity":
        rep = analysis.uniform_convexity_suite(cx, p, args.k, args.samples, args.seed)
    elif name == "uniform-smoothness":
        rep = analysis.uniform_smoothness_suite(cx, p, args.C, args.r, args.R,
                                                args.samples, args.seed)
    elif name == "bolicity-b1":
        rep = analysis.bolicity_b1_suite(cx, p, args.delta, args.r, args.samples,
                                         args.seed, C=args.C)
    elif name == "bolicity-b2":
        rep = analysis.bolicity_b2_suite(cx, p, args.k, args.C if args.C is not None
                                         else 1.0, args.samples, args.seed)
    else:
        raise LpCubeError(f"unknown suite {name!r}")
    _emit(args, rep.to_obj(),
          f"{rep.suite}: {rep.samples} samples, {rep.violations} violations, "
          f"worst margin {rep.worst_margin:.3e}")
    return 0 if rep.ok else 1


def cmd_examples(args) -> int:
    rows = []
    for name in fixtures.NAMES:
        cx = fixtures.load_fixture(name)
        rows.append({"name": name, "hyperplanes": len(cx.hyperplanes),
                     "vertices": len(cx.vertices)})
        if args.write_dir:
            target = pathlib.Path(args.write_dir)
            try:
                target.mkdir(parents=True, exist_ok=True)
                (target / f"{name}.json").write_text(fixtures.fixture_text(name))
            except OSError as e:
                raise LpCubeError(f"cannot write {target}: {e}") from None
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        for r in rows:
            print(f"{r['name']:20s} {r['hyperplanes']:3d} hyperplanes  "
                  f"{r['vertices']:4d} vertices")
        if args.write_dir:
            print(f"written to {args.write_dir}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpcube",
        description="lp geodesics, distances, factor decompositions and "
                    "convexity suites on finite CAT(0) cube complexes")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(sp, points=True, needs_p=True):
        sp.add_argument("file", help="complex description file")
        sp.add_argument("--json", action="store_true")
        if needs_p:
            sp.add_argument("--p", required=True, help="exponent, a real > 1")
        if points:
            sp.add_argument("--from", required=True, metavar="POINT",
                            help="point literal vertexIndex:h1=0.25,h2=0.7")
            sp.add_argument("--to", required=True, metavar="POINT")

    sp = sub.add_parser("validate", help="parse and validate a complex")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("distance", help="lp distance between two points")
    common(sp)
    sp.set_defaults(fn=cmd_distance)

    sp = sub.add_parser("geodesic", help="solve and print the geodesic")
    common(sp)
    sp.set_defaults(fn=cmd_geodesic)

    sp = sub.add_parser("decompose", help="canonical factor decomposition at a wedge vertex")
    common(sp)
    sp.add_argument("--vertex", type=int, required=True,
                    help="wedge vertex index into the complex's vertex list")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("check", help="run the local-geodesic condition checks")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("sweep-p", help="sweep a path functional over a p grid")
    common(sp, needs_p=False)
    sp.add_argument("--functional", default="break0")
    sp.add_argument("--grid", required=True, help="log:LO:HI:COUNT or comma list")
    sp.set_defaults(fn=cmd_sweep_p)

    sp = sub.add_parser("oracle", help="epsilon-net upper bound and certification")
    common(sp)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("suite", help="run a sampled inequality suite")
    common(sp, points=False)
    sp.add_argument("--name", required=True, choices=SUITE_NAMES)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--k", type=float, default=None)
    sp.add_argument("--C", type=float, default=None)
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--R", type=float, default=4.0)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("examples", help="list or export the bundled fixtures")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--write-dir", default=None)
    sp.set_defaults(fn=cmd_examples)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LpCubeError as e:
        print(json.dumps({"error": e.payload()}, indent=1, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
