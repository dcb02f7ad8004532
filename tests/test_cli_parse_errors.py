"""A malformed representation directory, signature or option, or matrices
that do not fit together, give a ParseError or ShapeError document with
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


@pytest.mark.parametrize("argv", [["check", "--trials", "3"],
                                  ["gen", "--group", "C2", "--sig", "2,1"]],
                         ids=["check", "gen"])
def test_seed_that_is_not_an_integer(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("OPBALL_SEED", "abc")
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "rep")]
    assert_parse_error(capsys, argv, "OPBALL_SEED")


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
    ("distance a21.json b12.json", "ShapeError"),
    ("mobius a21.json b12.json", "ShapeError"),
    ("geodesic a21.json a22.json --t 1", "ShapeError"),
    ("geodesic a21.json a21.json --t abc", None),
    ("fixpoint --group rep --sig 1,1", "ShapeError"),
    ("gen --group C2 --sig 2,1 --cond 0.5 --out out", "ParseError"),
    ("gen --group C2 --sig 2,1 --cond nan --out out", "ParseError"),
    ("gen --group C2 --sig 2,1 --cond inf --out out", "ParseError"),
], ids=["distance-shapes", "mobius-shapes", "geodesic-shapes", "geodesic-t-abc",
        "fixpoint-sig-1,1", "gen-cond-0.5", "gen-cond-nan", "gen-cond-inf"])
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
    assert json.loads(capsys.readouterr().out)["error"] == error
    assert not (tmp_path / "out").exists()
