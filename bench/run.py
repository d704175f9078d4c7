"""lpcube benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from ``src/``.
With ``--trace 0`` one closed-loop caller runs passes over the workload's
operations until at least S seconds of operation time have passed, sampling
the cheaper operations more often, scales every sample to a reference
machine speed (``speed.py``), takes each operation's median sample, checks
every answer outside the timed region and prints the end-to-end metrics.  With ``--trace 1`` it runs one pass untraced and one traced, and
prints the per-layer metrics from the spans.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Scratch files (fixture copies, span dumps) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("suite-grid222", "cli-requests", "wedge-certify")
SETUP_SAMPLES = 5       # this process plus four fresh interpreters
SETUP_PROBES = 7        # speed probe runs after each set-up
OP_BUDGET_S = 1.0       # an op is sampled again until its samples add up to this
MIN_SAMPLES = 5         # ... and at least this often, unless they already do
EXIT_NO_SOURCE = 2
EXIT_TRACE_MISMATCH = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print it (used for the set-up median)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(name: str, seed: int):
    """Import the library, generate the inputs and build the program state;
    the time it took is scaled by the speed probe, taken right after."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    wl = workloads.WORKLOADS[name]
    inputs = wl.generate(seed, OUT / f"{name}-{os.getpid()}")
    state = wl.fresh(inputs)
    elapsed = time.perf_counter() - start
    probes = speed.Probes()
    for _ in range(SETUP_PROBES):
        probes.take()
    return wl, inputs, state, elapsed * speed.REFERENCE_PROBE_S / stats.median(probes.took)


def probe_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_op(wl, state, op) -> tuple[float, float, tuple]:
    """(start, end, (op, result, error)) for one call; a failure is recorded, not raised."""
    error = result = None
    start = time.perf_counter()
    try:
        result = wl.run(state, op)
    except Exception as e:      # a failed op is counted and the loop goes on
        error = "".join(traceback.format_exception_only(type(e), e)).strip()
    return start, time.perf_counter(), (op, result, error)


def due(samples: list[float], elapsed: float, seconds: float) -> bool:
    """Whether an op gets another sample: every op gets one; an op whose
    samples add up to less than OP_BUDGET_S is sampled again while the run
    lasts, and up to MIN_SAMPLES times after it."""
    if not samples:
        return True
    if sum(samples) >= OP_BUDGET_S:
        return False
    return elapsed < seconds or len(samples) < MIN_SAMPLES


def measure(wl, inputs, state, seconds: float):
    """Closed loop over passes until at least `seconds` of op time.

    Returns {op index: its latencies} scaled and unscaled, the (op, result,
    error) triples and the speed probes.
    Every pass runs, in seed order, the ops still due (see `due`); each pass
    after the first starts from a freshly built state, built outside the
    timing.  The speed probe runs throughout; its time inside an op is taken
    out of the op's.
    """
    taken: dict[int, list[float]] = {op.index: [] for op in inputs.ops}
    timed: list[tuple] = []         # (op index, start, end)
    outcomes: list[tuple] = []
    elapsed = 0.0
    with speed.Probes() as probes:
        while True:
            ops = [op for op in inputs.ops if due(taken[op.index], elapsed, seconds)]
            if not ops:
                break
            if outcomes:
                state = wl.fresh(inputs)
            for op in ops:
                if not due(taken[op.index], elapsed, seconds):
                    continue
                start, end, outcome = timed_op(wl, state, op)
                took = end - start - probes.inside(start, end)
                taken[op.index].append(took)
                timed.append((op.index, start, end))
                outcomes.append(outcome)
                elapsed += took
    scaled: dict[int, list[float]] = {index: [] for index in taken}
    for index, start, end in timed:
        scaled[index].append(probes.scaled(start, end))
    return scaled, taken, outcomes, probes


def verify(wl, inputs, outcomes, reference: dict) -> tuple[int, int, list[str]]:
    """(failed ops, ops compared with a reference answer, first problems)."""
    verdicts: dict[int, tuple] = {}
    failed = compared = 0
    problems: list[str] = []
    table = reference.get(wl.name, [])
    for op, result, error in outcomes:
        expected = table[op.index] if op.index < len(table) else None
        if error is not None:
            problem = f"raised {error}"
        elif op.index in verdicts:
            earlier, earlier_problem = verdicts[op.index]
            problem = earlier_problem if result == earlier else \
                "answer differs from an earlier run of the same op"
        else:
            problem = wl.check(inputs, op, result, expected)
            verdicts[op.index] = (result, problem)
        compared += expected is not None
        if problem:
            failed += 1
            if len(problems) < 5:
                problems.append(f"op {op.index} ({op!r:.160}): {problem}")
    return failed, compared, problems


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "lpcube").rglob("*.py")))


def end_to_end(args) -> tuple[dict, int, int]:
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    wl, inputs, state, own_setup = setup(args.workload, args.seed)
    setups.append(own_setup)
    try:
        scaled, raw, outcomes, probes = measure(wl, inputs, state, args.seconds)
        failed, compared, problems = verify(wl, inputs, outcomes, load_reference())
    finally:
        wl.cleanup(inputs)
    n, n_ops = len(outcomes), len(inputs.ops)
    op_times = [stats.median(times) for times in scaled.values()]
    raw_times = [stats.median(times) for times in raw.values()]
    counts = sorted(len(times) for times in raw.values())
    q, tail, beyond = stats.tail_percentile(op_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": metric(n_ops / sum(op_times), "1/s"),
        "op_ms_p50": metric(stats.median(op_times) * 1e3, "ms"),
        "op_ms_tail": metric(tail * 1e3, "ms"),
        "setup_s": metric(stats.median(setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    print(f"{wl.name} seed {args.seed}: {n} calls of {n_ops} ops in "
          f"{sum(map(sum, raw.values())):.3f} s of op time, one closed-loop caller; "
          f"{counts[0]} to {counts[-1]} samples per op (median {stats.median(counts):g}); "
          f"an op's time is the median of its samples")
    print(f"  speed probe: {len(probes.took)} runs, median {stats.median(probes.took) * 1e3:.4f} ms "
          f"(reference {speed.REFERENCE_PROBE_S * 1e3:g} ms); times below are scaled to the "
          f"reference speed; unscaled: {n_ops / sum(raw_times):.6g} ops/s, "
          f"p50 {stats.median(raw_times) * 1e3:.6g} ms")
    print(f"  answers: {failed} failed of {n} "
          f"({compared} compared with reference answers); failed_frac {failed / n:g}")
    for line in problems:
        print(f"  FAILED {line}")
    print(f"  op_ms_tail is p{q:g} of {n_ops} ops, {beyond} beyond it")
    print(f"  setup_s is the median of {SETUP_SAMPLES}: "
          + " ".join(f"{s:.4f}" for s in sorted(setups)))
    for name, m in metrics.items():
        print(f"  {name:14s} {m['value']:.6g} {m['unit']}")
    return metrics, n, failed


def per_layer(args) -> tuple[dict, int, int]:
    wl, inputs, plain_state, _ = setup(args.workload, args.seed)
    traced_state = wl.fresh(inputs)
    tracer = spans.Tracer()
    plain, plain_out, traced, traced_out = [], [], [], []
    try:
        # One pass untraced and one traced, interleaved op by op on two states
        # (alternating which goes first), so a slow spell of the machine hits
        # both alike.
        for i, op in enumerate(inputs.ops):
            tracer.op = i
            for traced_turn in (i % 2 == 1, i % 2 == 0):
                if traced_turn:
                    tracer.install()
                try:
                    start, end, outcome = timed_op(
                        wl, traced_state if traced_turn else plain_state, op)
                finally:
                    if traced_turn:
                        tracer.uninstall()
                (traced if traced_turn else plain).append(end - start)
                (traced_out if traced_turn else plain_out).append(outcome)
        reference = load_reference()
        failed_plain, _, problems = verify(wl, inputs, plain_out, reference)
        failed_traced, _, more = verify(wl, inputs, traced_out, reference)
    finally:
        wl.cleanup(inputs)
    for name in {n for op, _, _ in traced_out for n in wl.expected_spans(op)}:
        seen = tracer.counts_per_op(name)
        for i, (op, _, _) in enumerate(traced_out):
            want = wl.expected_spans(op).get(name, 0)
            if seen.get(i, 0) != want:
                raise spans.TraceMismatch(
                    f"op {i} ({op!r:.160}): {seen.get(i, 0)} {name} spans, expected {want}")

    all_spans = tracer.spans
    selfs = spans.self_times(all_spans)
    calls, counted = spans.totals(all_spans)
    solves = calls.get("solver.geodesic", 0)
    galleries = counted.get("solver.enumerate", 0)
    full_inside = spans.full_opts_inside_geodesic(all_spans)
    op_time = sum(traced)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def self_s(name: str) -> dict:
        return metric(selfs.get(name, 0.0), "s")

    metrics = {
        "solver.full_opt.self_s": self_s("solver.full_opt"),
        "solver.coarse_opt.self_s": self_s("solver.coarse_opt"),
        "solver.full_opt.per_solve": metric(ratio(calls.get("solver.full_opt", 0), solves), "per_solve"),
        "solver.coarse_opt.per_solve": metric(ratio(calls.get("solver.coarse_opt", 0), solves), "per_solve"),
        "solver.galleries_per_solve": metric(ratio(galleries, solves), "per_solve"),
        "solver.prune_ratio": metric(1.0 - full_inside / galleries if galleries else 0.0, "frac"),
        "solver.solves_per_op": metric(ratio(solves, len(traced)), "per_op"),
        "solver.enumerate.self_s": self_s("solver.enumerate"),
        "complexes.hull.self_s": self_s("complexes.hull"),
        "complexes.cubes.self_s": self_s("complexes.cubes"),
        "complexes.load.self_s": self_s("complexes.load"),
        "geometry.lower_bound.self_s": self_s("geometry.lower_bound"),
        "geometry.lower_bound.calls": metric(calls.get("geometry.lower_bound", 0), "count"),
        "solver.uniqueness.self_s": self_s("solver.uniqueness"),
        "solver.evaluate.self_s": self_s("solver.evaluate"),
        "solver.geodesic.self_s": self_s("solver.geodesic"),
        "solver.check.self_s": self_s("solver.check"),
        "decomposition.canonical.self_s": self_s("decomposition.canonical"),
        "decomposition.formula.self_s": self_s("decomposition.formula"),
        "oracle.build_net.self_s": self_s("oracle.build_net"),
        "oracle.dijkstra.self_s": self_s("oracle.dijkstra"),
        "oracle.net_nodes": metric(counted.get("oracle.build_net", 0), "count"),
        "analysis.driver.self_s": self_s("analysis.driver"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_frac": metric(op_time / sum(plain) - 1.0, "frac"),
        "trace.coverage_frac": metric(ratio(spans.root_time(all_spans), op_time), "frac"),
        "src.lines": metric(src_lines(), "lines"),
    }
    dump = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    layers = {name: {"self_s": selfs[name], "calls": calls[name], "counted": counted[name]}
              for name in sorted(selfs)}
    tracer.write(dump, {"workload": wl.name, "seed": args.seed, "ops": len(traced),
                        "op_time_s": op_time, "layers": layers})
    print(f"{wl.name} seed {args.seed}: {len(traced)} ops traced in {op_time:.3f} s "
          f"({sum(plain):.3f} s untraced), {len(all_spans)} spans written to {dump}")
    print(f"  answers: {failed_plain + failed_traced} failed of {2 * len(traced)}")
    for line in problems + more:
        print(f"  FAILED {line}")
    print(f"  {'layer':26s} {'self_s':>10s} {'share':>7s} {'calls':>8s}")
    for name in sorted(selfs, key=selfs.get, reverse=True):
        print(f"  {name:26s} {selfs[name]:10.4f} {selfs[name] / op_time:7.1%} {calls[name]:8d}")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    return metrics, 2 * len(traced), failed_plain + failed_traced


def declared_metrics(trace: int) -> list[str]:
    """Metric names BENCHMARK.json promises for this mode, checked for form."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in config["per_layer" if trace else "end_to_end"]]
    bad = [n for n in names if not stats.is_metric_name(n)]
    if bad:
        raise ValueError(f"malformed metric names in BENCHMARK.json: {bad}")
    return names


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lpcube" / "__init__.py").is_file():
        print(f"no lpcube sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return EXIT_NO_SOURCE
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")     # one thread, before numpy loads
    if args.setup_probe:
        wl, inputs, _, elapsed = setup(args.workload, args.seed)
        wl.cleanup(inputs)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    declared = declared_metrics(args.trace)
    try:
        metrics, attempted, failed = (per_layer if args.trace else end_to_end)(args)
    except spans.TraceMismatch as e:
        print(f"trace mismatch: {e}", file=sys.stderr)
        return EXIT_TRACE_MISMATCH
    if sorted(metrics) != sorted(declared):
        raise ValueError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
