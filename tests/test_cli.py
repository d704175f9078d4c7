import json
import math

import pytest

from lpcube import analysis as an
from lpcube import cli
from lpcube import complexes as cc
from lpcube import oracle as orc
from lpcube import solver as sv
from lpcube.complexes import point_from_obj
from lpcube.errors import NoConvergence


# the 6-cycle in the 3-cube: connected but not median-closed
NOT_MEDIAN_DOC = json.dumps({
    "hyperplanes": ["h1", "h2", "h3"],
    "vertices": [
        {"h1": s >> 0 & 1, "h2": s >> 1 & 1, "h3": s >> 2 & 1}
        for s in (0b000, 0b001, 0b011, 0b111, 0b110, 0b100)
    ],
})


@pytest.fixture()
def fx_dir(tmp_path):
    assert cli.main(["examples", "--write-dir", str(tmp_path)]) == 0
    return tmp_path


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestBasics:
    def test_validate(self, fx_dir, capsys):
        code, out = run(capsys, ["validate", str(fx_dir / "square.json")])
        assert code == 0
        assert "valid complex" in out

    def test_distance_square_diagonal(self, fx_dir, capsys):
        code, out = run(capsys, ["distance", "--p", "2", "--from", "0:",
                                 "--to", "3:", str(fx_dir / "square.json")])
        assert code == 0
        assert abs(float(out.strip()) - math.sqrt(2)) < 1e-9

    def test_examples_listing(self, capsys):
        code, out = run(capsys, ["examples", "--json"])
        assert code == 0
        names = [r["name"] for r in json.loads(out)]
        assert "square_cube_book" in names and "long_rectangle" in names

    def test_usage_error_exit_2(self, fx_dir):
        with pytest.raises(SystemExit) as ei:
            cli.main(["distance", str(fx_dir / "square.json")])
        assert ei.value.code == 2

    def test_domain_error_exit_1(self, fx_dir, capsys):
        code, out = run(capsys, ["distance", "--p", "0.5", "--from", "0:",
                                 "--to", "3:", str(fx_dir / "square.json")])
        assert code == 1
        assert json.loads(out)["error"]["type"]

    def test_not_median_error_payload(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(NOT_MEDIAN_DOC)
        code, out = run(capsys, ["validate", str(bad)])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "NotMedian"
        assert "witness" in err

    def test_unwritable_write_dir_is_a_domain_error(self, tmp_path, capsys):
        # the directory would lie under a regular file
        (tmp_path / "plain").write_text("")
        code, out = run(capsys, ["examples", "--write-dir", str(tmp_path / "plain" / "sub")])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "LpCubeError"
        assert error["message"].startswith("cannot write")

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff{"a":1}')
        code, out = run(capsys, ["validate", str(bad)])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_disconnected_error_payload(self, tmp_path, capsys):
        # two opposite corners of a square: vertex 00 reaches only itself
        doc = tmp_path / "two.json"
        doc.write_text(json.dumps({"hyperplanes": ["h1", "h2"],
                                   "vertices": [{"h1": 0, "h2": 0}, {"h1": 1, "h2": 1}]}))
        code, out = run(capsys, ["validate", str(doc)])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "Disconnected"
        assert error["component"] == [{"h1": 0, "h2": 0}]

    def test_no_convergence_error_payload(self, fx_dir, capsys, monkeypatch):
        def stalls(*args):
            raise NoConvergence("no gallery optimization converged", residual=0.25)

        monkeypatch.setattr(sv, "distance", stalls)
        code, out = run(capsys, ["distance", "--p", "2", "--from", "0:", "--to", "3:",
                                 str(fx_dir / "square.json")])
        assert code == 1
        error = json.loads(out)["error"]
        assert error == {"type": "NoConvergence", "message": "no gallery optimization converged",
                         "residual": 0.25}


class TestParserReuse:
    """One parser serves every call in a process; no call leaks into the next."""

    CALLS = [
        ["validate", "square.json"],
        ["distance", "--p", "2", "--from", "0:", "--to", "3:", "square.json"],
        ["distance", "--p", "2", "--json", "--from", "0:", "--to", "3:", "square.json"],
        ["distance", "--p", "3", "--from", "0:", "--to", "3:", "square.json"],
        ["geodesic", "--p", "2", "--json", "--from", "2:", "--to", "9:", "square_cube_book.json"],
        ["decompose", "--p", "2", "--from", "0:a1=0.3,a2=0.9", "--to", "0:b1=0.8,b2=0.7",
         "--vertex", "0", "corner_complex.json"],
        ["check", "--p", "2", "--json", "--from", "0:", "--to", "7:", "hypercube3.json"],
        ["sweep-p", "--functional", "length", "--grid", "1.5,2", "--from", "0:",
         "--to", "7:", "hypercube3.json"],
        ["oracle", "--p", "2", "--eps", "0.1", "--json", "--from", "0:a1=0.5",
         "--to", "0:b1=0.5", "corner_complex.json"],
        ["oracle", "--p", "2", "--json", "--from", "0:a1=0.5", "--to", "0:b1=0.5",
         "corner_complex.json"],
        ["distance", "--p", "2", "square.json"],
        ["suite", "--name", "midpoint", "--p", "2", "--samples", "5", "--seed", "3",
         "--json", "corner_complex.json"],
        ["suite", "--name", "midpoint", "--p", "2", "--samples", "5", "--seed", "3",
         "corner_complex.json"],
        ["examples"],
        ["examples", "--json"],
        ["validate", "--json", "square.json"],
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_each_call_matches_a_fresh_parser(self, fx_dir, capsys):
        calls = [[str(fx_dir / a) if a.endswith(".json") else a for a in argv]
                 for argv in self.CALLS]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        assert [code for code, _, _ in fresh].count(2) == 1   # the usage error
        cli.build_parser.cache_clear()
        for argv, want in zip(calls, fresh):
            assert self.call(capsys, argv) == want, argv

    @pytest.mark.parametrize("argv", [["--help"], ["distance", "--help"]])
    def test_help_reads_the_width_when_printed(self, capsys, monkeypatch, argv):
        texts = {}
        for columns in ("60", "120", "60"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = self.call(capsys, argv)
            assert code == 0
            texts.setdefault(columns, out)
            assert texts[columns] == out
        assert texts["60"] != texts["120"]
        cli.build_parser.cache_clear()
        assert self.call(capsys, argv)[1] == texts["60"]

    def test_every_request_validates_its_file(self, tmp_path, capsys):
        # a cached parser must not bring a cache of loaded complexes with it
        doc = tmp_path / "cx.json"
        doc.write_text(cc.dump(cc.hypercube(3)))
        assert self.call(capsys, ["validate", str(doc)])[0] == 0
        doc.write_text(NOT_MEDIAN_DOC)
        code, out, _ = self.call(capsys, ["validate", str(doc)])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotMedian"


class TestBadArguments:
    DECOMPOSE = ["decompose", "--p", "2", "--from", "0:a1=0.3,a2=0.9", "--to", "0:b1=0.8,b2=0.7"]

    @pytest.mark.parametrize("argv", [
        ["sweep-p", "--functional", "length", "--grid", "3,2", "--from", "0:", "--to", "3:"],
        ["sweep-p", "--functional", "length", "--grid", "0.5,2", "--from", "0:", "--to", "3:"],
        ["sweep-p", "--functional", "length", "--grid", "2,nan", "--from", "0:", "--to", "3:"],
        ["sweep-p", "--functional", "length", "--grid", "log:1.5:1e400:3", "--from", "0:", "--to", "3:"],
        ["distance", "--p", "nan", "--from", "0:", "--to", "3:"],
        ["distance", "--p", "1e400", "--from", "0:", "--to", "3:"],
        DECOMPOSE + ["--vertex", "99"],
        DECOMPOSE + ["--vertex", "-1"],
        ["distance", "--p", "2", "--from", "-1", "--to", "0"],
        ["distance", "--p", "2", "--from", "0", "--to", "99:"],
        ["distance", "--p", "2", "--from", "0:a1=0.2,a1=0.9", "--to", "3:"],
    ], ids=["grid-decreasing", "grid-below-1", "grid-nan", "log-grid-overflow", "p-nan",
            "p-overflow", "vertex-99", "vertex-negative", "point-negative", "point-99",
            "point-repeated-label"])
    def test_is_a_domain_error(self, fx_dir, capsys, argv):
        code, out = run(capsys, argv + [str(fx_dir / "corner_complex.json")])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "LpCubeError"


class TestGeodesicRoundTrip:
    def test_json_revalidates(self, fx_dir, capsys):
        code, out = run(capsys, ["geodesic", "--p", "2", "--json",
                                 "--from", "2:", "--to", "9:",
                                 str(fx_dir / "square_cube_book.json")])
        assert code == 0
        obj = json.loads(out)
        cx = cc.load((fx_dir / "square_cube_book.json").read_text())
        pts = [point_from_obj(cx, b) for b in obj["breaks"]]
        for a, b in zip(pts, pts[1:]):
            assert cx.minimal_cube_pair(a, b) is not None
        again = sv.PiecewisePath(cx, obj["p"], tuple(pts))
        assert abs(again.length - obj["length"]) < 1e-12

    def test_point_literal_with_coords(self, fx_dir, capsys):
        code, out = run(capsys, ["distance", "--p", "2", "--json",
                                 "--from", "0:a1=0.5,a2=0.5",
                                 "--to", "0:b1=0.5,b2=0.5",
                                 str(fx_dir / "corner_complex.json")])
        assert code == 0
        assert abs(json.loads(out)["distance"] - 2 * math.hypot(0.5, 0.5)) < 1e-9


class TestSweep:
    def test_log_grid_limits(self, fx_dir, capsys):
        code, out = run(capsys, ["sweep-p", "--functional", "break0",
                                 "--grid", "log:1.01:64:50",
                                 "--from", "2:", "--to", "9:",
                                 str(fx_dir / "square_cube_book.json")])
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert len(rows) == 50
        assert abs(float(rows[0][1]) - 1 / 3) < 0.01
        assert abs(float(rows[-1][1]) - 0.5) < 0.01

    def test_length_functional(self, fx_dir, capsys):
        code, out = run(capsys, ["sweep-p", "--functional", "length", "--json",
                                 "--grid", "1.5,2,3",
                                 "--from", "0:", "--to", "7:",
                                 str(fx_dir / "hypercube3.json")])
        assert code == 0
        rows = json.loads(out)["rows"]
        for (p, val) in rows:
            assert abs(val - 3 ** (1 / p)) < 1e-9

    def test_break_coordinate_functional(self, fx_dir, capsys):
        path = fx_dir / "square_cube_book.json"
        code, out = run(capsys, ["sweep-p", "--functional", "break0:d", "--json",
                                 "--grid", "1.5,2,3", "--from", "2:", "--to", "9:", str(path)])
        assert code == 0
        cx = cc.load(path.read_text())
        x, y = (cc.Point.make(cx.vertex_order[i]) for i in (2, 9))
        want = an.p_sweep(cx, x, y, an.break_coordinate_functional(cx, "d"), [1.5, 2.0, 3.0])
        assert json.loads(out) == json.loads(json.dumps(want.to_obj()))
        assert abs(want.rows[1][1] - (math.sqrt(2) - 1)) < 1e-9

    @pytest.mark.parametrize("functional, message", [
        ("nope", "unknown functional 'nope'"),
        ("break0:zz", "unknown hyperplane 'zz'"),
        ("break0:", "unknown hyperplane ''"),
    ])
    def test_unknown_functional_is_a_domain_error(self, fx_dir, capsys, functional, message):
        code, out = run(capsys, ["sweep-p", "--functional", functional, "--grid", "1.5,2",
                                 "--from", "2:", "--to", "9:",
                                 str(fx_dir / "square_cube_book.json")])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "LpCubeError"
        assert error["message"].startswith(message)

    @pytest.mark.parametrize("functional", ["break0", "break0:a1"])
    def test_path_without_a_break_is_a_domain_error(self, fx_dir, capsys, functional):
        # both points lie in one square, so the geodesic is a single segment
        code, out = run(capsys, ["sweep-p", str(fx_dir / "corner_complex.json"),
                                 "--from", "0:a1=0.3", "--to", "0:a2=0.4",
                                 "--grid", "1.5,2", "--functional", functional])
        assert code == 1
        error = json.loads(out)["error"]
        assert error == {"type": "LpCubeError",
                         "message": "geodesic has no interior break point"}


class TestSuiteCommand:
    def test_midpoint_reproducible(self, fx_dir, capsys):
        argv = ["suite", "--name", "midpoint", "--p", "2", "--samples", "40",
                "--seed", "11", "--json", str(fx_dir / "corner_complex.json")]
        code1, out1 = run(capsys, argv)
        code2, out2 = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["violations"] == 0

    def test_threads_flag_removed(self, fx_dir):
        with pytest.raises(SystemExit) as ei:
            cli.main(["suite", "--name", "uniform-convexity", "--p", "3",
                      "--samples", "20", "--seed", "1", "--threads", "4",
                      str(fx_dir / "hypercube3.json")])
        assert ei.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["distance", "--tol", "1e-6"],
        ["suite", "--name", "midpoint", "--samples", "2", "--tol", "1e-6"],
        ["decompose", "--vertex", "0", "--merge-tol", "1e-3"],
        ["check", "--residual-tol", "1e-3"],
    ])
    def test_tolerance_flags_removed(self, fx_dir, argv):
        # the tolerances are fixed library constants, not options
        verb, *rest = argv
        points = [] if verb == "suite" else ["--from", "0:a1=0.5", "--to", "0:b1=0.5"]
        with pytest.raises(SystemExit) as ei:
            cli.main([verb, str(fx_dir / "corner_complex.json"), "--p", "2", *points, *rest])
        assert ei.value.code == 2

    def test_suite_matches_library(self, fx_dir, capsys):
        # the verb reports exactly what the library suite does, with its SUITE_TOL
        code, out = run(capsys, ["suite", str(fx_dir / "corner_complex.json"), "--json",
                                 "--name", "midpoint", "--p", "2", "--samples", "30",
                                 "--seed", "4"])
        want = an.midpoint_convexity_suite(cc.load((fx_dir / "corner_complex.json").read_text()),
                                           2.0, 30, 4).to_obj()
        assert code == 0
        assert out == json.dumps(want, indent=1, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name, suite", [
        ("busemann", lambda cx: an.busemann_suite(cx, 2.0, 4, 3)),
        ("uniform-convexity", lambda cx: an.uniform_convexity_suite(cx, 2.0, None, 4, 3)),
    ])
    def test_named_suite_matches_library(self, fx_dir, capsys, name, suite):
        path = fx_dir / "corner_complex.json"
        code, out = run(capsys, ["suite", str(path), "--json", "--name", name, "--p", "2",
                                 "--samples", "4", "--seed", "3"])
        want = suite(cc.load(path.read_text()))
        assert code == (0 if want.ok else 1)
        assert out == json.dumps(want.to_obj(), indent=1, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv", [
        ["--name", "midpoint", "--samples", "-5"],
        ["--name", "bolicity-b1", "--delta", "0"],
        ["--name", "bolicity-b1", "--r", "-1"],
        ["--name", "uniform-smoothness", "--r", "-1"],
        ["--name", "uniform-smoothness", "--r", "1", "--R", "1"],
        ["--name", "bolicity-b2", "--k", "1.5"],
        ["--name", "uniform-smoothness", "--p", "1.5"],
        ["--name", "bolicity-b2", "--C", "-1"],
        ["--name", "bolicity-b2", "--C", "0"],
    ], ids=["samples", "delta", "b1-r", "smoothness-r", "R", "k", "default-C", "b2-C-negative",
            "b2-C-zero"])
    def test_bad_constants_are_domain_errors(self, fx_dir, capsys, argv):
        code, out = run(capsys, ["suite", "--p", "2", "--samples", "3", "--json", *argv,
                                 str(fx_dir / "long_rectangle.json")])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "PreconditionViolated"


class TestOracleCommand:
    ARGV = ["oracle", "--p", "2", "--eps", "0.05", "--json",
            "--from", "0:a1=0.5,a2=0.5", "--to", "0:b1=0.5,b2=0.5"]

    def test_certifies(self, fx_dir, capsys):
        code, out = run(capsys, self.ARGV + [str(fx_dir / "corner_complex.json")])
        assert code == 0
        obj = json.loads(out)
        assert obj["certified"]
        assert obj["gap"] >= -1e-9

    @pytest.mark.parametrize("eps", ["0", "1.5"])
    def test_bad_eps_is_domain_error(self, fx_dir, capsys, eps):
        code, out = run(capsys, ["oracle", "--p", "2", "--eps", eps, "--json",
                                 "--from", "0:", "--to", "3:",
                                 str(fx_dir / "corner_complex.json")])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "LpCubeError"
        assert error["message"].startswith("eps must lie in (0, 1]")

    def test_eps_beyond_the_node_cap_is_domain_error(self, fx_dir, capsys):
        # 1/eps overflows a float here; the face grid is refused unbuilt
        argv = ["oracle", "--p", "2", "--eps", "1e-310", "--json",
                "--from", "0:a1=0.5,a2=0.5", "--to", "0:b1=0.5,b2=0.5"]
        code, out = run(capsys, argv + [str(fx_dir / "corner_complex.json")])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ScaleExceeded"
        assert error["message"].startswith("face grid alone")

    def test_builds_one_net(self, fx_dir, capsys, monkeypatch):
        built = []
        build_net = orc.build_net

        def counting(*args, **kwargs):
            built.append(args)
            return build_net(*args, **kwargs)

        monkeypatch.setattr(orc, "build_net", counting)
        code, _ = run(capsys, self.ARGV + [str(fx_dir / "corner_complex.json")])
        assert code == 0
        assert len(built) == 1


class TestDecomposeCommand:
    def test_corner_k2(self, fx_dir, capsys):
        code, out = run(capsys, ["decompose", "--p", "2", "--json",
                                 "--from", "0:a1=0.3,a2=0.9",
                                 "--to", "0:b1=0.8,b2=0.7", "--vertex", "0",
                                 str(fx_dir / "corner_complex.json")])
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == 2
        assert obj["ratios"][0] < obj["ratios"][1]
