"""A malformed representation directory, signature or option, or matrices
that do not fit together, give a ParseError or ShapeMismatch document with
exit code 1, not a traceback."""

import json

import numpy as np
import pytest

from opball.cli import run, save_matrix, save_representation
from opball.pontryagin import PontryaginSignature, make_test_representation


@pytest.fixture
def repdir(tmp_path):
    rep = make_test_representation("C2", PontryaginSignature(2, 1),
                                   conditioning=2.0, seed=0)
    save_representation(rep, tmp_path / "rep")
    return tmp_path / "rep"


def assert_parse_error(capsys, argv, fragment):
    code = run(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"] == "ParseError"
    assert fragment in doc["message"]


@pytest.mark.parametrize("command, option", [("unitarize", "--rep"),
                                             ("dualpair", "--rep"),
                                             ("fixpoint", "--group")])
def test_sig_without_n_minus(repdir, capsys, command, option):
    (repdir / "sig.json").write_text(json.dumps({"n_plus": 2}))
    assert_parse_error(capsys, [command, option, str(repdir)], "sig.json")


def test_table_that_is_not_json(repdir, capsys):
    (repdir / "table.json").write_text("{not json")
    assert_parse_error(capsys, ["unitarize", "--rep", str(repdir)],
                       "invalid JSON")


def test_element_file_name_without_an_index(repdir, capsys):
    (repdir / "elem_x.json").write_text((repdir / "elem_0.json").read_text())
    assert_parse_error(capsys, ["unitarize", "--rep", str(repdir)],
                       "elem_x.json")
    assert_parse_error(capsys, ["fixpoint", "--group", str(repdir)],
                       "elem_x.json")


@pytest.fixture
def c4dir(tmp_path):
    rep = make_test_representation("C4", PontryaginSignature(2, 1),
                                   conditioning=2.0, seed=0)
    save_representation(rep, tmp_path / "c4")
    return tmp_path / "c4"


def _rename_element_3_to_7(c4dir):
    # sorting by index alone would take elem_7.json as element 3
    (c4dir / "elem_3.json").rename(c4dir / "elem_7.json")


def _copy_element_1_to_01(c4dir):
    # a second file for index 1, not a fifth element
    (c4dir / "elem_01.json").write_text((c4dir / "elem_1.json").read_text())


@pytest.mark.parametrize("command, option", [("unitarize", "--rep"),
                                             ("fixpoint", "--group")])
@pytest.mark.parametrize("edit, fragment", [
    (_rename_element_3_to_7, "no elem_3.json (next is elem_7.json)"),
    (_copy_element_1_to_01, "element index 1 is repeated (elem_1.json)"),
], ids=["missing-index", "repeated-index"])
def test_element_files_not_numbered_0_to_n_minus_1(c4dir, capsys, command,
                                                   option, edit, fragment):
    edit(c4dir)
    assert_parse_error(capsys, [command, option, str(c4dir)], fragment)


def _double_element_1(repdir):
    doc = json.loads((repdir / "elem_1.json").read_text())
    doc["data"] = [[2 * re, 2 * im] for re, im in doc["data"]]
    (repdir / "elem_1.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("command", ["unitarize", "dualpair"])
@pytest.mark.parametrize("table, edit, fragment", [
    ([[0, 0], [1, 1]], None, "row 0 of the table is not a permutation"),
    ([[1, 0], [0, 1]], None, "identity element"),
    ([[0, 1], [1, 0]], _double_element_1, "homomorphism defect"),
], ids=["not-a-permutation", "identity-not-mapped-to-1", "not-a-homomorphism"])
def test_directory_that_is_not_a_representation(repdir, capsys, command,
                                                 table, edit, fragment):
    (repdir / "table.json").write_text(json.dumps({"table": table}))
    if edit is not None:
        edit(repdir)
    assert_parse_error(capsys, [command, "--rep", str(repdir)], fragment)


@pytest.mark.parametrize("argv", [
    ["check", "--trials", "3", "--seed", "-1"],
    ["gen", "--group", "C2", "--sig", "2,1", "--seed", "-2"],
], ids=["check-seed-1", "gen-seed-2"])
def test_negative_seed(tmp_path, capsys, argv):
    # numpy's default_rng takes no negative seed
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "rep")]
    assert_parse_error(capsys, argv, "--seed must be a non-negative integer")
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_trials_below_one(capsys, trials):
    # run_checks would floor them to 3 trials per suite and pass
    assert_parse_error(capsys, ["check", "--trials", trials, "--seed", "1"],
                       f"--trials must be a positive integer: {trials}")


@pytest.mark.parametrize("argv, fragment", [
    (["gen", "--group", "C2", "--sig", "0,1"], "--sig"),
    (["unitarize", "--sig", "1,0"], "--sig"),
    (["dualpair"], "sig.json"),
], ids=["gen-sig-0,1", "unitarize-sig-1,0", "sig.json-n_plus-0"])
def test_signature_with_a_zero_dimension(repdir, tmp_path, capsys, argv,
                                         fragment):
    (repdir / "sig.json").write_text(json.dumps({"n_plus": 0, "n_minus": 1}))
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "out")]
    else:
        argv = argv + ["--rep", str(repdir)]
    assert_parse_error(capsys, argv, fragment)
    assert_parse_error(capsys, argv, "positive dimension")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, error", [
    ("distance a21.json b12.json", "ShapeMismatch"),
    ("mobius a21.json b12.json", "ShapeMismatch"),
    ("geodesic a21.json a22.json --t 1", "ShapeMismatch"),
    ("geodesic a21.json a21.json --t abc", None),
    ("fixpoint --group rep --sig 1,1", "ShapeMismatch"),
    ("unitarize --rep rep --sig 1,1", "ShapeMismatch"),
    ("dualpair --rep rep --sig 1,1", "ShapeMismatch"),
    ("gen --group C2 --sig 2,1 --cond 0.5 --out out", "ParseError"),
    ("gen --group C2 --sig 2,1 --cond nan --out out", "ParseError"),
    ("gen --group C2 --sig 2,1 --cond inf --out out", "ParseError"),
    ("geodesic a21.json a21.json --t 0.5 --t nan", "ParseError"),
    ("geodesic a21.json a21.json --t inf", "ParseError"),
], ids=["distance-shapes", "mobius-shapes", "geodesic-shapes", "geodesic-t-abc",
        "fixpoint-sig-1,1", "unitarize-sig-1,1", "dualpair-sig-1,1",
        "gen-cond-0.5", "gen-cond-nan", "gen-cond-inf", "geodesic-t-nan",
        "geodesic-t-inf"])
def test_inputs_that_do_not_fit_together(repdir, tmp_path, capsys, monkeypatch,
                                         argv, error):
    # an error document with exit code 1, or argparse's usage error (exit 2)
    for name, m in [("a21", [[0.1], [0.2]]), ("b12", [[0.1, 0.2]]),
                    ("a22", [[0.1, 0.2], [0.0, 0.1]])]:
        save_matrix(np.array(m), tmp_path / f"{name}.json")
    monkeypatch.chdir(tmp_path)
    if error is None:
        with pytest.raises(SystemExit) as exc:
            run(argv.split())
        assert exc.value.code == 2
        return
    assert run(argv.split()) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == error
    if "--sig 1,1" in argv:
        # the directory commands name the directory whose elements misfit
        assert doc["message"].startswith("rep: elements are not 2x2")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry, fragment", [
    ({"re": 1, "im": 2}, "entry 0 is not an [re, im] pair"),
    ("00", "entry 0 is not an [re, im] pair"),
    ([0.1, 0, 5], "entry 0 is not an [re, im] pair"),
    ([False, False], "entry 0 is not an [re, im] pair"),
    ([10**400, 0], "non-finite entry at index 0"),
], ids=["object", "string", "three-numbers", "bools", "int-beyond-double"])
def test_matrix_entry_that_is_not_two_numbers(tmp_path, capsys, entry, fragment):
    # each entry is a list of exactly two JSON numbers that fit a double
    (tmp_path / "m.json").write_text(
        json.dumps({"rows": 1, "cols": 1, "data": [entry]}))
    save_matrix(np.zeros((1, 1)), tmp_path / "b.json")
    assert_parse_error(capsys, ["distance", str(tmp_path / "m.json"),
                                str(tmp_path / "b.json")], fragment)
