import hashlib
import json
import os
import subprocess
import sys

import pytest

from tilings import cli
from tilings.cli import main
from tilings.fibpoly import ONE, a_unit_closed_form
from tilings.verify import run_verification


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_complex_fixture_table(capsys):
    code, out, _ = run(capsys, "complex", "prism")
    assert code == 0
    assert "f_vector: [4, 3]" in out
    assert "euler_characteristic: 1" in out


def test_complex_figure2_json(capsys):
    code, out, _ = run(capsys, "complex", "figure2", "--format", "json",
                       "--collapse", "--betti")
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == [4, 2]
    assert data["components"] == 2
    assert data["collapse"]["status"] == "not_collapsible"
    assert data["z2_betti"] == [2]


def test_complex_polyomino_file(tmp_path, capsys):
    poly = tmp_path / "block.txt"
    poly.write_text("####\n####\n")
    code, out, _ = run(capsys, "complex", str(poly), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == [5, 5, 1]
    assert data["euler_characteristic"] == 1


def test_complex_cube_coordinates(capsys):
    code, out, _ = run(capsys, "complex", "ladder-2", "--format", "json",
                       "--cube")
    assert code == 0
    data = json.loads(out)
    vectors = [tuple(e["x"]) for e in data["cube_coordinates"]]
    assert len(set(vectors)) == len(vectors) == 3


def test_complex_missing_input_fails(capsys):
    code, _, err = run(capsys, "complex", "no-such-thing")
    assert code == 2
    assert "no such file or fixture" in err


def test_complex_bad_json_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "complex", str(bad))
    assert code == 2


def test_poly_p7_closed_form(capsys):
    code, out, _ = run(capsys, "poly", "P", "7", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == [1, 7, 15, 10, 1]
    assert data["matches_closed_form"] is True


def test_poly_a_map(capsys):
    code, out, _ = run(capsys, "poly", "A", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 2, -1, 2]


def test_poly_f3(capsys):
    code, out, _ = run(capsys, "poly", "F", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == [5, 5, 1]


@pytest.mark.parametrize("kind", ["F", "P", "closed"])
def test_poly_n0_is_one(capsys, kind):
    # F_0 = 1, and P_0 = F_0(x - 1) = 1 is the closed form C(1 - k, k).
    code, out, _ = run(capsys, "poly", kind, "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == [1]
    assert data.get("matches_closed_form", True) is True


def test_poly_bad_kind(capsys):
    code, _, err = run(capsys, "poly", "Q", "3")
    assert code == 2


def test_fixtures_list(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    names = out.split()
    assert "prism" in names and "ladder-8-8" in names


def test_fixtures_list_output_is_pinned(capsys):
    # The 49 core names, one a line; the files that ``fixtures dump``
    # writes are pinned by DUMP_DIGEST in test_golden.py.
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0 and len(out.splitlines()) == 49
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "edcbb7f72d35d46dbed24768bdfa7647cf6993f17dd7bc85a3c1bda7b2e11cc4")


def test_fixtures_dump_and_env_lookup(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "fixtures", "dump", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "g1.json").exists()
    # Env var points resolution at the dumped corpus.
    monkeypatch.setenv("TILINGS_FIXTURE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "complex", "g1", "--format", "json")
    assert code == 0
    assert json.loads(out)["f_vector"] == [4, 3]


def test_verify_scoped(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "kozlov")
    assert code == 0
    assert "PASS kozlov" in out


def test_verify_unknown_scope(capsys):
    code, _, err = run(capsys, "verify", "--scope", "bogus")
    assert code == 2
    assert "no checks match" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--max-n", "-3", "--scope", "affine"],
    ["verify", "--max-n", "0", "--scope", "closed"],
    ["verify", "--max-d", "0", "--scope", "a-map"],
], ids=["negative-max-n", "zero-max-n", "zero-max-d"])
def test_vacuous_bounds_fail(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["poly", "P", "7", "--seed", "1"],
    ["poly", "P", "7", "--budget", "5"],
    ["fixtures", "list", "--seed", "1"],
    ["fixtures", "list", "--budget", "5"],
    ["fixtures", "list", "--format", "json"],
    ["verify", "--budget", "-1", "--scope", "contractibility"],
    ["complex", "figure2", "--collapse", "--budget", "-5"],
    ["complex", "g1", "--seed", "1"],
], ids=["poly-seed", "poly-budget", "fixtures-seed", "fixtures-budget",
        "fixtures-format", "verify-budget", "complex-budget", "complex-seed"])
def test_options_no_command_reads_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--max-n", "501", "--scope", "closed"],
    ["verify", "--max-d", "51", "--scope", "a-map"],
    ["poly", "F", "2001"], ["poly", "P", "2001"], ["poly", "closed", "2001"],
    ["poly", "A", "101"]],
    ids=["max-n", "max-d", "poly-F", "poly-P", "poly-closed", "poly-A"])
def test_sizes_above_the_limits_fail_before_any_work(capsys, monkeypatch,
                                                    argv):
    # The first value above each limit, rejected before any work starts.
    def work(*args, **kwargs):
        raise AssertionError("work started")
    for name in ("run_verification", "f_polynomial", "p_polynomial",
                 "p_closed_form", "apply_A"):
        monkeypatch.setattr(cli, name, work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be at most" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--max-n", "500", "--max-d", "50"], ["poly", "F", "2000"],
    ["poly", "P", "2000"], ["poly", "closed", "2000"], ["poly", "A", "100"]],
    ids=["verify", "poly-F", "poly-P", "poly-closed", "poly-A"])
def test_sizes_at_the_limits_are_accepted(capsys, monkeypatch, argv):
    # The work is stubbed: only the limits are under test.
    for name in ("f_polynomial", "p_polynomial", "p_closed_form", "apply_A"):
        monkeypatch.setattr(cli, name, lambda *args: ONE)
    kozlov = run_verification("kozlov")
    monkeypatch.setattr(cli, "run_verification", lambda **kwargs: kozlov)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_verify_smallest_bounds_run(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--max-d", "1",
                       "--scope", "closed")
    assert code == 0
    assert "PASS closed-forms" in out


def test_output_byte_stable(capsys):
    one = run(capsys, "complex", "g2", "--format", "json")
    two = run(capsys, "complex", "g2", "--format", "json")
    assert one == two


@pytest.mark.parametrize("spec", [
    {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 0, "x": 1, "y": 0}],
     "edges": []},
    {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
     "edges": [[0]]},
    {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0},
                  {"id": 2, "x": 0, "y": 1}],
     "edges": [[0, 1, 2]]},
    {"vertices": [{"id": 0, "x": "1/0", "y": 0}], "edges": []},
    {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
     "edges": [[0, 1]], "regions": [5]},
    {"vertices": [{"id": 1.5, "x": 0, "y": 0}], "edges": []},
    {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
     "edges": [[0, 1.9]]},
    {"vertices": [{"id": True, "x": 0, "y": 0}], "edges": []},
], ids=["duplicate-id", "short-edge", "long-edge", "zero-denominator",
        "scalar-region", "float-id", "float-endpoint", "bool-id"])
def test_complex_malformed_graph_fails(tmp_path, capsys, spec):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "complex", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("again", [[0, 1, 2, 3], [2, 3, 0, 1],
                                   [3, 2, 1, 0]],
                         ids=["same", "rotated", "reversed"])
def test_complex_region_listed_twice_fails(tmp_path, capsys, again):
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    spec = {"vertices": [{"id": i, "x": x, "y": y}
                         for i, (x, y) in enumerate(square)],
            "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
            "regions": [[0, 1, 2, 3], again]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "complex", str(path), "--betti",
                         "--collapse")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "listed twice" in err


@pytest.mark.parametrize("name", [
    "ladder-3-1-2", "ladder-03", "ladder-3-+1", "ladder-3-1 ", "ladder-+3",
    "ladder-3-01", "ladder-", "ladder-3-", "ladder-x", "ladder-99999999",
    "ladder-2001", "ladder-0", "ladder-3-4"])
@pytest.mark.parametrize("command", ["count", "complex"])
def test_bad_ladder_names_fail_before_any_work(capsys, monkeypatch, command,
                                               name):
    def work(*args, **kwargs):
        raise AssertionError("work started")
    monkeypatch.setattr(cli, "build_complex", work)
    monkeypatch.setattr(cli, "count_f_vector", work)
    code, out, err = run(capsys, command, name)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_ladder_names_skip_no_dumped_file(tmp_path, capsys, monkeypatch):
    # Only a canonical name reads the dumped ladder-3*.json files.
    run(capsys, "fixtures", "dump", "--out", str(tmp_path))
    monkeypatch.setenv("TILINGS_FIXTURE_DIR", str(tmp_path))
    for name in ("ladder-03", "ladder-3-+1", "ladder-3-1 "):
        code, out, err = run(capsys, "count", name)
        assert (code, out) == (2, "")
        assert err == f"error: no such file or fixture: {name!r}\n"


@pytest.mark.parametrize("name,f_vector", [
    ("ladder-5", "[13, 20, 9, 1]"), ("ladder-5-2", "[16, 25, 11, 1]")])
def test_ladder_names_still_resolve(capsys, name, f_vector):
    code, out, _ = run(capsys, "count", name)
    assert code == 0
    assert f"f_vector: {f_vector}\n" in out


def test_count_on_the_longest_named_ladder(capsys):
    code, out, err = run(capsys, "count", "ladder-2000", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["graph"]["regions"] == 2000


def test_complex_deeply_nested_json_fails(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, "complex", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_poly_negative_power_fails(capsys):
    code, out, err = run(capsys, "poly", "A", "2", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "x^-1" in err


@pytest.mark.parametrize("params", [["-1"], ["-1", "-1"]])
def test_poly_negative_domain_bound_fails(capsys, params):
    # d is tested before k is compared with it, with apply_A's message.
    code, out, err = run(capsys, "poly", "A", *params)
    assert code == 2
    assert out == ""
    assert err == "error: d must be >= 0\n"


def test_poly_power_above_the_bound_fails_before_it_is_built(capsys):
    # x^(10**12) would need 10**12 coefficients: k is checked against d
    # first, with apply_A's message.
    code, out, err = run(capsys, "poly", "A", "3", str(10**12))
    assert code == 2
    assert out == ""
    assert err == (f"error: degree {10**12} exceeds the map's domain "
                   "bound 3\n")


def test_poly_power_at_the_bound_is_accepted(capsys):
    code, out, err = run(capsys, "poly", "A", "3", "3", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"kind": "A", "d": 3, "k": 3,
                               "coeffs": list(a_unit_closed_form(3, 3).coeffs)}


@pytest.mark.parametrize("params", [
    ["F", "2", "1", "5"], ["P", "4", "2", "9", "9"], ["closed", "5", "9"],
    ["A", "3", "1", "7"]])
def test_poly_extra_parameters_fail(capsys, params):
    code, out, err = run(capsys, "poly", *params)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_import_leaves_networkx_unloaded():
    # networkx is a test-only dependency: the package must not import it.
    code = ("import sys, tilings, tilings.cli; "
            "assert 'networkx' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


@pytest.mark.parametrize("cells", [2000, 20000])
def test_complex_runs_on_long_strips(tmp_path, cells):
    # A one-row strip has one tiling, found by a search one move per two
    # cells deep: deeper than the interpreter's default recursion limit.
    path = tmp_path / "strip.txt"
    path.write_text("#" * cells + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "tilings.cli", "complex", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert "f_vector: [1]\n" in done.stdout
