"""tools/answers.py: compare on small hand-written dumps, and its case sets."""

import collections
import importlib.util
import json
import pathlib

import pytest

from lpcube import complexes as cc
from lpcube import solver as sv
from lpcube.complexes import Point
from lpcube.solver import enumerate_galleries

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("answers", ROOT / "tools" / "answers.py")
answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers)

DUMP = {
    "grid222 [77, 0] p=2.0": {"length": "1.25", "breaks": ["a", "b"], "converged": True,
                              "certified": True, "worst_residual": "0.0"},
    "grid222 [77, 1] p=64.0": {"error": "NoConvergence", "message": "no gallery converged"},
}


def _compare(tmp_path, left, right):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(left))
    b.write_text(json.dumps(right))
    return answers.main(["compare", str(a), str(b)])


def test_equal_dumps_exit_0(tmp_path, capsys):
    assert _compare(tmp_path, DUMP, json.loads(json.dumps(DUMP))) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert "0 of 2 cases differ" in err
    assert err.count(": 1 certified, 0 uncertified, 1 typed errors\n") == 2
    assert "largest relative length change: 0\n" in err
    assert err.splitlines()[4:] == ["verdict transitions: none",
                                    "largest relative length change, both certified: 0"]


def test_summary_counts_each_dump_and_the_largest_length_change(tmp_path, capsys):
    changed = json.loads(json.dumps(DUMP))
    changed["grid222 [77, 0] p=2.0"].update(length="1.5", certified=False)
    changed["grid222 [77, 1] p=64.0"] = {"length": "9.0", "breaks": [], "converged": True,
                                          "certified": True, "worst_residual": "0.0"}
    assert _compare(tmp_path, DUMP, changed) == 1
    _, err = capsys.readouterr()
    lines = err.splitlines()
    assert lines[0].endswith("a.json: 1 certified, 0 uncertified, 1 typed errors")
    assert lines[1].endswith("b.json: 1 certified, 1 uncertified, 0 typed errors")
    # relative to the larger length, between cases both dumps answer
    assert lines[2] == "largest relative length change: 0.167 (grid222 [77, 0] p=2.0)"
    assert lines[3] == "2 of 2 cases differ"


def test_one_changed_field_exits_1_and_names_the_case(tmp_path, capsys):
    changed = json.loads(json.dumps(DUMP))
    changed["grid222 [77, 0] p=2.0"]["worst_residual"] = "1e-17"
    assert _compare(tmp_path, DUMP, changed) == 1
    out, err = capsys.readouterr()
    assert "grid222 [77, 0] p=2.0:" in out
    assert "grid222 [77, 1]" not in out
    assert "1 of 2 cases differ" in err


def test_summary_lists_verdict_transitions_and_the_certified_length_change(tmp_path, capsys):
    left = {**json.loads(json.dumps(DUMP)),
            "grid222 [77, 2] p=64.0": {"length": "2.0", "breaks": [], "converged": True,
                                       "certified": True, "worst_residual": "0.0"},
            "grid222 wedge [79, 0] p=2.0": {"error": "NoConvergence", "message": "m"},
            "Q4 subset 0x0001": "ok"}
    right = json.loads(json.dumps(left))
    right["grid222 [77, 0] p=2.0"]["length"] = "1.2500000000000002"
    right["grid222 [77, 1] p=64.0"] = {"length": "9.0", "breaks": [], "converged": True,
                                        "certified": True, "worst_residual": "0.0"}
    right["grid222 [77, 2] p=64.0"].update(length="1.0", certified=False)
    right["grid222 wedge [79, 0] p=2.0"] = {"formula": "1.0"}
    right["Q4 subset 0x0001"] = "NotMedian"
    assert _compare(tmp_path, left, right) == 1
    _, err = capsys.readouterr()
    lines = err.splitlines()
    assert lines[2] == "largest relative length change: 0.5 (grid222 [77, 2] p=64.0)"
    assert lines[3] == "5 of 5 cases differ"
    # a wedge's factors and a Q4 verdict carry no solver verdict
    assert lines[4:] == [
        "verdict transitions:",
        "  p=64.0: 1 certified -> uncertified, 1 typed errors -> certified",
        "largest relative length change, both certified: 1.78e-16 (grid222 [77, 0] p=2.0)"]


@pytest.mark.parametrize("extra_on_left", [True, False])
def test_a_case_in_one_dump_only_differs(tmp_path, capsys, extra_on_left):
    more = {**DUMP, "grid333 corner to corner p=2.0": {"length": "3.4641016151377544"}}
    left, right = (more, DUMP) if extra_on_left else (DUMP, more)
    assert _compare(tmp_path, left, right) == 1
    out, err = capsys.readouterr()
    assert "grid333 corner to corner p=2.0:" in out
    assert "grid222" not in out
    assert "1 of 3 cases differ" in err


def test_an_answer_certifies_a_fresh_path(monkeypatch):
    # the verdict is recomputed on a new path with the returned breaks, so
    # the answer set does not rest on the report the search kept
    reports = []
    check = answers.check_local_geodesic
    monkeypatch.setattr(answers, "check_local_geodesic",
                        lambda cx, path: reports.append(path._report) or check(cx, path))
    cx = cc.corner_complex()
    x, y = Point.make(0, {0: 0.3, 1: 0.9}), Point.make(0, {2: 0.8, 3: 0.7})
    got = answers.answer(cx, x, y, 2.0)
    assert reports == [None] and got["certified"]
    assert sv.geodesic(cx, x, y, 2.0)._report is not None


def test_wedge_cases_are_vertex_wedges_with_a_formula():
    cases = list(answers.wedge_cases())
    assert len(cases) == len({name for name, *_ in cases}) == 600
    name, cx, x, v, y, p = cases[0]
    assert cx.minimal_cube_pair(x, y) is None
    got = answers.wedge_answer(cx, x, v, y, p)
    assert abs(float(got["formula"]) - answers.geodesic(cx, x, y, p).length) <= 1e-8


def test_endpoint_cases_mix_vertices_cube_points_and_maximal_cube_points():
    cases = [case for case in answers.cases() if "[91, " in case[0]]
    assert len(cases) == len({name for name, *_ in cases}) == 4_200
    kinds = collections.Counter()
    for name, cx, x, y, p in cases:
        if p == 2.0:
            maximal = set(cx.maximal_cubes())
            kinds.update("vertex" if not pt.coords else
                         "maximal" if pt.minimal_cube() in maximal else "cube" for pt in (x, y))
    # a third each by draw; a cube of all_cubes() may be a vertex or maximal
    assert kinds == {"vertex": 1_017, "maximal": 711, "cube": 372}


def test_grid_cases_span_few_of_many_hyperplanes():
    # squares on 12 hyperplanes: a segment moves on at most 2 of them, and
    # most pairs search several galleries
    cases = [case for case in answers.cases() if "[92, " in case[0]]
    assert len(cases) == len({name for name, *_ in cases}) == 400
    kinds = collections.Counter()
    for name, cx, x, y, p in cases:
        assert (len(cx.hyperplanes), cx.dimension) == (12, 2)
        if p == 2.0:
            kinds["one cube" if cx.minimal_cube_pair(x, y) is not None else
                  "one gallery" if len(enumerate_galleries(cx, x, y)) == 1 else
                  "several"] += 1
    assert kinds == {"one cube": 9, "one gallery": 36, "several": 55}


def test_validation_cases_are_the_nonempty_subsets_of_the_4_cube():
    cases = list(answers.validation_cases())
    assert len(cases) == len({name for name, _ in cases}) == 65_535
    tally = collections.Counter(answers.validation_answer(v) for _, v in cases)
    assert tally == {"ok": 2_873, "NotMedian": 34_420, "Disconnected": 28_242}


def test_cold_cases_solve_on_complexes_that_remember_nothing():
    # continuation starts a ladder's solves from the answer before; these
    # cases each get a new complex, so the search runs from a cold start
    cases = [case for case in answers.cases() if " cold [77, " in case[0]]
    names = {name for name, *_ in cases}
    assert len(cases) == len(names) == len({id(cx) for _, cx, *_ in cases}) == 2_720
    assert "grid222 cold [77, 172] p=12.0" in names
    assert {name.split(" cold")[0] for name in names} == {
        "corner_complex", "grid222", "grid(12,1,0)", "grid333", "trees(7,7)",
        *answers.IRREDUCIBLE}


def test_irreducible_cases_search_no_product_of_trees():
    # the 60 [77, i] pairs on each complex, cold at four exponents and in a
    # ladder of ten on one complex per product; each complex has a factor
    # that is no tree, so no whole-complex hull is answered from the schedule
    cases = [case for case in answers.cases() if case[0].startswith(tuple(answers.IRREDUCIBLE))]
    assert len(cases) == len({name for name, *_ in cases}) == 3 * 60 * (4 + 10)
    for name, make in answers.IRREDUCIBLE.items():
        assert not all(tree for _, tree in make().factors()), name
        ladder = {id(cx) for case, cx, *_ in cases
                  if case.startswith(name) and " cold " not in case}
        assert len(ladder) == 1, name
    assert {len(make().hyperplanes) for make in answers.IRREDUCIBLE.values()} == {10, 6, 11}
    # the path of each "x path" product is a tree factor
    for name, path in (("corner x path(2)", 0b11 << 4), ("staircase(4) x path(3)", 0b111 << 8)):
        assert (path, True) in answers.IRREDUCIBLE[name]().factors(), name


def test_corner_to_corner_cases_and_the_solver_case_count():
    cases = [case for case in answers.cases() if "corner to corner" in case[0]]
    assert [name for name, *_ in cases] == [f"{grid} corner to corner p={p}"
                                            for grid in ("grid333", "grid555")
                                            for p in (1.5, 2.0, 3.0)]
    assert {len(cx.hyperplanes) for name, cx, *_ in cases if "grid555" in name} == {15}
    assert sum(1 for _ in answers.cases()) == 19_246
