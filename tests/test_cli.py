import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from opball import cli
from opball.cli import (
    load_matrix,
    load_representation,
    run,
    save_matrix,
    save_representation,
)
from opball.errors import ParseError, ShapeMismatch
from opball.pontryagin import PontryaginSignature, make_test_representation
from opball.sampling import complex_gaussian, rng_from


def write_scalar(path, value):
    path.write_text(json.dumps(
        {"rows": 1, "cols": 1, "data": [[value.real, value.imag]]}))


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def env_with_src():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    import opball

    src = os.path.dirname(os.path.dirname(opball.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


# --- the parser ------------------------------------------------------------------

# Each subcommand's arguments, as read from the parser: every option is a
# setting that tests and benchmarks would have to cover, so a new one is a
# deliberate edit of this table.
OPTIONS = {
    "distance": ["a", "b"],
    "mobius": ["a", "x"],
    "geodesic": ["a", "d", "--t"],
    "fixpoint": ["--group", "--sig"],
    "unitarize": ["--rep", "--sig"],
    "dualpair": ["--rep", "--sig"],
    "check": ["--suite", "--trials", "--seed"],
    "gen": ["--group", "--sig", "--cond", "--seed", "--out"],
}


def _arguments(parser):
    return ["/".join(action.option_strings) or action.dest
            for action in parser._actions if action.dest != "help"]


def test_options_are_pinned():
    assert _arguments(cli._PARSER) == ["command"]
    assert {name: _arguments(sub) for name, sub in
            cli._COMMANDS.choices.items()} == OPTIONS


# --- matrix I/O -----------------------------------------------------------------


def test_matrix_roundtrip(tmp_path):
    m = complex_gaussian(rng_from(0), 4, 3)
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert_allclose(load_matrix(path), m, rtol=0, atol=0)  # bit-identical


def test_matrix_wrong_length(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2,
                                "data": [[1.0, 0.0]] * 3}))
    with pytest.raises(ShapeMismatch):
        load_matrix(path)


def test_matrix_non_finite(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"rows": 1, "cols": 2,
                                "data": [[1.0, 0.0], [float("nan"), 0.0]]}))
    with pytest.raises(ParseError, match="non-finite entry at index 1"):
        load_matrix(path)


def test_matrix_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_representation_roundtrip(tmp_path):
    rep = make_test_representation("C4", PontryaginSignature(3, 1),
                                   conditioning=4.0, seed=2)
    save_representation(rep, tmp_path / "rep")
    back = load_representation(tmp_path / "rep")
    assert back.group_order == 4
    for a, b in zip(back.images, rep.images):
        assert_allclose(a, b, rtol=0, atol=0)


def test_representation_with_numpy_integer_dimensions_roundtrips(tmp_path):
    sig = PontryaginSignature(np.int64(2), np.int32(1))
    assert type(sig.n_plus) is int and type(sig.n_minus) is int
    rep = make_test_representation("C2", sig)
    save_representation(rep, tmp_path / "rep")
    doc = json.loads((tmp_path / "rep" / "sig.json").read_text())
    assert doc == {"n_plus": 2, "n_minus": 1}
    assert all(type(v) is int for v in doc.values())
    back = load_representation(tmp_path / "rep")
    assert back.signature == PontryaginSignature(2, 1)
    assert np.stack(back.images).tobytes() == rep._stack.tobytes()


# --- subcommands -------------------------------------------------------------------


def test_distance_command(tmp_path, capsys):
    write_scalar(tmp_path / "a.json", complex(0.5))
    write_scalar(tmp_path / "b.json", complex(-0.5))
    code, out = invoke(capsys, "distance", str(tmp_path / "a.json"),
                       str(tmp_path / "b.json"))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["rho"] - math.log(3.0)) < 1e-12


def test_mobius_command_echoes_through_zero(tmp_path, capsys):
    write_scalar(tmp_path / "zero.json", complex(0.0))
    write_scalar(tmp_path / "x.json", complex(0.25, 0.1))
    code, out = invoke(capsys, "mobius", str(tmp_path / "zero.json"),
                       str(tmp_path / "x.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"cols": 1, "data": [[0.25, 0.1]], "rows": 1}


def test_geodesic_command(tmp_path, capsys):
    write_scalar(tmp_path / "zero.json", complex(0.0))
    write_scalar(tmp_path / "d.json", complex(2.0))  # normalized internally
    code, out = invoke(capsys, "geodesic", str(tmp_path / "zero.json"),
                       str(tmp_path / "d.json"),
                       "--t", str(math.atanh(0.5)), "--t", "0.0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 2
    assert doc["points"][0]["data"][0][0] == pytest.approx(0.5, abs=1e-14)
    assert doc["points"][1]["data"][0][0] == 0.0


def write_matrix(path, rows):
    path.write_text(json.dumps({
        "rows": len(rows), "cols": len(rows[0]),
        "data": [[complex(z).real, complex(z).imag] for row in rows for z in row]}))


@pytest.mark.parametrize("extreme, unit", [
    # direction / norm would overflow to inf and NaN
    ([[5e-324, 5e-324], [1e-323, 0.0]], [[1.0, 1.0], [2.0, 0.0]]),
    # the spectral norm would overflow to inf
    ([[1e308, 1e308], [1e308, 1e308]], [[1.0, 1.0], [1.0, 1.0]]),
    # so would each |entry|
    ([[1.5e308 + 1.5e308j] * 2] * 2, [[1.0 + 1.0j] * 2] * 2),
])
def test_geodesic_command_with_extreme_directions(tmp_path, capsys, extreme, unit):
    write_matrix(tmp_path / "zero.json", [[0.0, 0.0], [0.0, 0.0]])
    docs = []
    for name, rows in (("extreme", extreme), ("unit", unit)):
        write_matrix(tmp_path / f"{name}.json", rows)
        code, out = invoke(capsys, "geodesic", str(tmp_path / "zero.json"),
                           str(tmp_path / f"{name}.json"),
                           "--t", "-1.5", "--t", "0.5", "--t", "3")
        assert code == 0
        docs.append(json.loads(out)["points"])
    for got, want in zip(*docs):
        assert_allclose(got["data"], want["data"], rtol=0, atol=1e-15)


def test_domain_error_carries_class_name(tmp_path, capsys):
    write_scalar(tmp_path / "a.json", complex(0.5))
    write_scalar(tmp_path / "big.json", complex(2.0))
    code, out = invoke(capsys, "distance", str(tmp_path / "a.json"),
                       str(tmp_path / "big.json"))
    assert code == 1
    assert json.loads(out)["error"] == "BoundaryProximity"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["not-a-command"])
    assert excinfo.value.code == 2


def test_gen_fixpoint_unitarize_dualpair_pipeline(tmp_path, capsys):
    repdir = tmp_path / "rep"
    code, out = invoke(capsys, "gen", "--group", "C4", "--sig", "3,1",
                       "--cond", "10", "--seed", "5", "--out", str(repdir))
    assert code == 0
    gen_doc = json.loads(out)
    assert gen_doc["order"] == 4
    assert gen_doc["eta_defect"] < 1e-10

    code, out = invoke(capsys, "fixpoint", "--group", str(repdir))
    assert code == 0
    fp_doc = json.loads(out)
    assert fp_doc["converged"]
    assert fp_doc["displacement"] <= 1e-9
    assert fp_doc["group_order"] == 4

    code, out = invoke(capsys, "unitarize", "--rep", str(repdir))
    assert code == 0
    uni_doc = json.loads(out)
    assert uni_doc["max_unitarity_defect"] < 1e-7
    assert len(uni_doc["unitary_images"]) == 4

    code, out = invoke(capsys, "dualpair", "--rep", str(repdir))
    assert code == 0
    pair_doc = json.loads(out)
    assert pair_doc["negative_dim"] == 1
    assert pair_doc["max_invariance_angle"] < 1e-7


def test_fixpoint_closure_exceeded_error(tmp_path, capsys):
    gendir = tmp_path / "runaway"
    gendir.mkdir()
    (gendir / "sig.json").write_text(json.dumps({"n_plus": 1, "n_minus": 1}))
    s = 1.0
    save_matrix(np.array([[np.cosh(s), np.sinh(s)],
                          [np.sinh(s), np.cosh(s)]]), gendir / "elem_0.json")
    code, out = invoke(capsys, "fixpoint", "--group", str(gendir))
    assert code == 1
    assert json.loads(out)["error"] == "ClosureExceeded"


def test_check_command(capsys):
    code, out = invoke(capsys, "check", "--suite", "appendix",
                       "--trials", "10", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert doc["failures"] == []
    assert "metric-line" in doc["suites"]


def test_determinism_byte_identical(tmp_path, capsys):
    write_scalar(tmp_path / "a.json", complex(0.31, -0.2))
    write_scalar(tmp_path / "b.json", complex(-0.4, 0.11))
    outs = []
    for _ in range(2):
        code, out = invoke(capsys, "distance", str(tmp_path / "a.json"),
                           str(tmp_path / "b.json"))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]

    outs = []
    for _ in range(2):
        code, out = invoke(capsys, "check", "--suite", "appendix",
                           "--trials", "5", "--seed", "3")
        outs.append(out)
    assert outs[0] == outs[1]


def test_gen_seed_comes_from_the_option_only(tmp_path, capsys, monkeypatch):
    # a seed variable in the environment is not read; the default is 0
    monkeypatch.setenv("OPBALL_SEED", "99")
    code, out1 = invoke(capsys, "gen", "--group", "C2", "--sig", "2,1",
                        "--cond", "2", "--out", str(tmp_path / "r1"))
    assert code == 0
    assert json.loads(out1)["seed"] == 0
    code, out2 = invoke(capsys, "gen", "--group", "C2", "--sig", "2,1",
                        "--cond", "2", "--seed", "0", "--out", str(tmp_path / "r2"))
    assert code == 0
    assert_allclose(load_matrix(tmp_path / "r1" / "elem_1.json"),
                    load_matrix(tmp_path / "r2" / "elem_1.json"), rtol=0, atol=0)


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # the parser is built once per process: a usage error leaves no state
    # behind, each call sees only its own arguments, and every command
    # prints what a fresh interpreter prints
    write_scalar(tmp_path / "a.json", complex(0.3, -0.1))
    write_scalar(tmp_path / "b.json", complex(-0.2, 0.4))
    with pytest.raises(SystemExit) as exc:
        run(["geodesic", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert exc.value.code == 2
    capsys.readouterr()
    for t in ("0.5", "2"):
        code, out = invoke(capsys, "geodesic", str(tmp_path / "a.json"),
                           str(tmp_path / "b.json"), "--t", t)
        assert code == 0
        assert json.loads(out)["t"] == [float(t)]

    repdir = str(tmp_path / "rep")
    commands = [
        ["gen", "--group", "C4", "--sig", "2,1", "--cond", "3", "--seed", "2",
         "--out", repdir],
        ["distance", str(tmp_path / "a.json"), str(tmp_path / "b.json")],
        ["mobius", str(tmp_path / "a.json"), str(tmp_path / "b.json")],
        ["geodesic", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
         "--t", "-1", "--t", "0.25"],
        ["fixpoint", "--group", repdir],
        ["unitarize", "--rep", repdir],
        ["dualpair", "--rep", repdir],
        ["check", "--suite", "appendix", "--trials", "1", "--seed", "4"],
    ]
    for argv in commands:
        code, out = invoke(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "opball.cli", *argv],
                               env=env_with_src(), capture_output=True, text=True)
        assert code == fresh.returncode == 0, argv
        assert out == fresh.stdout, argv


def test_console_script_installed(tmp_path):
    result = subprocess.run([sys.executable, "-c",
                             "from opball.cli import main; main()",
                             ], input="", capture_output=True, text=True)
    # bare invocation is a usage error
    assert result.returncode == 2


def test_cli_import_loads_no_scipy():
    env = env_with_src()
    probe = ("import sys, opball.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_dualpair_loads_no_scipy(tmp_path):
    repdir = tmp_path / "rep"
    save_representation(make_test_representation(
        "S3", PontryaginSignature(4, 2), conditioning=10.0, seed=0), repdir)
    env = env_with_src()
    probe = ("import sys\n"
             "from opball.cli import run\n"
             f"assert run(['dualpair', '--rep', {str(repdir)!r}]) == 0\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
             " file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout)["max_invariance_angle"] < 1e-7
    assert result.stderr.strip() == "[]"


def test_module_entry_runs_the_cli(tmp_path):
    env = env_with_src()
    write_scalar(tmp_path / "x.json", complex(0.5))
    write_scalar(tmp_path / "y.json", complex(-0.5))

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "opball.cli", *argv],
                              env=env, capture_output=True, text=True)

    ok = module_run("distance", str(tmp_path / "x.json"),
                    str(tmp_path / "y.json"))
    assert ok.returncode == 0
    assert json.loads(ok.stdout) == {"rho": pytest.approx(math.log(3.0),
                                                          rel=1e-14)}
    missing = module_run("distance", str(tmp_path / "x.json"),
                         str(tmp_path / "missing.json"))
    assert missing.returncode == 1
    assert json.loads(missing.stdout)["error"] == "ParseError"


def test_fixpoint_rejects_the_mode_option(tmp_path, capsys):
    # the command runs the one solver; the option is gone from the parser
    repdir = tmp_path / "rep"
    invoke(capsys, "gen", "--group", "C2", "--sig", "2,1",
           "--cond", "3", "--seed", "4", "--out", str(repdir))
    with pytest.raises(SystemExit) as exc:
        run(["fixpoint", "--group", str(repdir), "--mode", "chebyshev-iterate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    code, out = invoke(capsys, "fixpoint", "--group", str(repdir))
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"]
    assert doc["displacement"] <= 1e-9
