"""tools/answers.py compare on small hand-written dumps."""

import importlib.util
import json
import pathlib

import pytest

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


def test_one_changed_field_exits_1_and_names_the_case(tmp_path, capsys):
    changed = json.loads(json.dumps(DUMP))
    changed["grid222 [77, 0] p=2.0"]["worst_residual"] = "1e-17"
    assert _compare(tmp_path, DUMP, changed) == 1
    out, err = capsys.readouterr()
    assert "grid222 [77, 0] p=2.0:" in out
    assert "grid222 [77, 1]" not in out
    assert "1 of 2 cases differ" in err


@pytest.mark.parametrize("extra_on_left", [True, False])
def test_a_case_in_one_dump_only_differs(tmp_path, capsys, extra_on_left):
    more = {**DUMP, "grid333 corner to corner p=2.0": {"length": "3.4641016151377544"}}
    left, right = (more, DUMP) if extra_on_left else (DUMP, more)
    assert _compare(tmp_path, left, right) == 1
    out, err = capsys.readouterr()
    assert "grid333 corner to corner p=2.0:" in out
    assert "grid222" not in out
    assert "1 of 3 cases differ" in err
