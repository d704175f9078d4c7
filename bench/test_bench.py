"""Tests of the benchmark's own arithmetic and input generation.

Run with ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import speed
import stats
import workloads
from lpcube import analysis, complexes, decomposition, oracle, solver

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# -- the tail percentile rule ---------------------------------------------------

@pytest.mark.parametrize("n, q, beyond", [
    (19, 50.0, 9),      # nothing has ten beyond it: fall back to the median
    (20, 50.0, 10),
    (40, 75.0, 10),
    (99, 75.0, 24),     # p90 would leave only nine beyond
    (100, 90.0, 10),
    (199, 90.0, 19),
    (200, 95.0, 10),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, q, beyond):
    latencies = [float(i) for i in range(n, 0, -1)]      # order must not matter
    got_q, value, got_beyond = stats.tail_percentile(latencies)
    assert (got_q, got_beyond) == (q, beyond)
    assert sum(v > value for v in latencies) == got_beyond


def test_nearest_rank():
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == (2.0, 2)
    assert stats.nearest_rank([5.0], 99.9) == (5.0, 0)


# -- self-time arithmetic -------------------------------------------------------

def _span(name, start, end, parent, op=0, count=0):
    return [name, start, end, parent, op, count]


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0, count=7),
        _span("a", 20.0, 21.0, -1, op=1),
    ]
    self_s = spans.self_times(trace)
    assert self_s == pytest.approx({"a": 10 - 3 - 4 + 1, "b": 3 - 1 + 4, "c": 1})
    assert sum(self_s.values()) == pytest.approx(spans.root_time(trace)) == 11.0
    calls, counted = spans.totals(trace)
    assert calls == {"a": 2, "b": 2, "c": 1}
    assert counted["b"] == 7


def test_tracer_patches_every_binding_and_restores_it():
    originals = (solver.geodesic, analysis.geodesic, decomposition.geodesic,
                 oracle.geodesic, solver.distance_lower_bound)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (analysis, decomposition, oracle):
            assert module.geodesic is solver.geodesic is not originals[0]
        assert analysis.distance_lower_bound is solver.distance_lower_bound
        cx = complexes.corner_complex()
        x = complexes.Point.make(0, {0: 0.3, 1: 0.9})
        y = complexes.Point.make(0, {2: 0.8, 3: 0.7})
        tracer.op = 0
        analysis.distance(cx, x, y, 2.0)       # solver.distance, imported by name
    finally:
        tracer.uninstall()
    assert (solver.geodesic, analysis.geodesic, decomposition.geodesic,
            oracle.geodesic, solver.distance_lower_bound) == originals
    assert tracer.counts_per_op("solver.geodesic") == {0: 1}
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"solver.enumerate", "solver.full_opt", "solver.coarse_opt",
            "geometry.lower_bound"} <= names
    roots = [s for s in tracer.spans if s[spans.PARENT] < 0]
    assert [s[spans.NAME] for s in roots] == ["solver.geodesic"]


# -- sampling and the speed scale ----------------------------------------------

def test_cheap_ops_are_sampled_more_often():
    budget, least = run.OP_BUDGET_S, run.MIN_SAMPLES
    assert run.due([], elapsed=1e9, seconds=1.0)                # every op runs once
    assert not run.due([budget], elapsed=0.0, seconds=1.0)      # a costly op once only
    assert run.due([0.001] * (least + 3), elapsed=0.5, seconds=1.0)
    assert run.due([0.001] * (least - 1), elapsed=2.0, seconds=1.0)
    assert not run.due([0.001] * least, elapsed=2.0, seconds=1.0)


def _probes(points):
    probes = speed.Probes()
    for at, took in points:
        probes.at.append(at)
        probes.took.append(took)
    return probes


def test_times_are_scaled_by_the_probes_around_them():
    ref = speed.REFERENCE_PROBE_S
    # the machine runs at half speed for 10 s, then at the reference speed
    probes = _probes([(t / 10, ref * (2 if t < 100 else 1)) for t in range(200)])
    # eleven probes fall inside [2, 3]; their time is not the op's
    assert probes.inside(2.0, 3.0) == pytest.approx(11 * 2 * ref)
    assert probes.scaled(2.0, 3.0) == pytest.approx((1.0 - 22 * ref) / 2)
    assert probes.scaled(15.02, 15.08) == pytest.approx(0.06)
    # far from any probe, the nearest MIN_PROBES decide
    assert probes.local(100.0, 101.0) == ref
    sparse = _probes([(0.0, ref), (50.0, 3 * ref), (51.0, 3 * ref), (52.0, 3 * ref)])
    assert speed.MIN_PROBES == 3
    assert sparse.scaled(20.0, 23.0) == pytest.approx(1.0)


# -- seeded inputs --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    first, again, other = (wl.generate(seed, tmp_path) for seed in (3, 3, 4))
    assert first.ops == again.ops
    assert first.ops != other.ops
    # another seed runs the same population in another order
    by_index = lambda inputs: sorted(inputs.ops, key=lambda op: op.index)
    assert by_index(first) == by_index(other)
    assert [op.index for op in by_index(first)] == list(range(len(first.ops)))
    wl.cleanup(first)


def test_wedges_reproduce_the_test_suite_instances():
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        pytest.skip("test suite not present")
    spec = importlib.util.spec_from_file_location("wedge_conftest", path)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    inputs = workloads.WORKLOADS["wedge-certify"].generate(0, ROOT)
    assert [op.index for op in inputs.ops] == list(range(workloads.WEDGE_COUNT))
    for op in inputs.ops:
        cx, x, v, y, _ = conftest.build_wedge_instance(op.index)
        assert (cx.hyperplanes, cx.vertices, x, v, y) == (op.labels, op.vertices, op.x, op.v, op.y)


# -- names and the contract -----------------------------------------------------

def test_metric_name_grammar():
    for good in ("ops_per_s", "solver.full_opt.self_s", "trace.overhead_frac", "3d-x"):
        assert stats.is_metric_name(good)
    for bad in ("", "_lead", ".lead", "has space", "slash/name", "x" * 65, "ünï"):
        assert not stats.is_metric_name(bad)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    names += [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert all(stats.is_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in config["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "suite-grid222",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
