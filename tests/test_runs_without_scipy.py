"""No runtime path of the library needs scipy, a test-only dependency.

``smoke`` runs in a fresh interpreter in which every import of a ``scipy``
module raises ImportError: the eight CLI commands, with ``fixpoint``,
``unitarize`` and ``dualpair`` on each representation directory given,
``curve_length``, and a fixed-point solve from 0 on a generator set
without a table.
It can also be run by hand on directories written by ``opball gen``::

    PYTHONPATH=tests python -c 'import sys, test_runs_without_scipy as t; \\
        t.smoke(sys.argv[1], sys.argv[2:])' WORKDIR REPDIR...
"""

import contextlib
import importlib.abc
import io
import json
import os
import subprocess
import sys
from pathlib import Path


class _NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked: the library must not need it")
        return None


def _run(argv):
    """``opball.cli.run(argv)`` with its stdout captured; the exit code and
    the JSON document."""
    from opball.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, json.loads(out.getvalue())


def smoke(workdir, repdirs=()):
    """Run the library's runtime paths with scipy blocked, writing into
    ``workdir``; an assertion or ImportError stops it at the first failure."""
    assert not any(m.partition(".")[0] == "scipy" for m in sys.modules)
    sys.meta_path.insert(0, _NoScipy())

    import numpy as np

    from opball import (AutomorphismGroup, BallAutomorphism, BallPoint,
                        GeodesicLine, curve_length, find_fixed_point,
                        geodesic_point, geodesic_velocity)
    from opball.cli import load_representation, save_matrix

    work = Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    gen = work / "c4"
    a, x, d = work / "a.json", work / "x.json", work / "d.json"
    save_matrix(np.array([[0.3 + 0.1j], [-0.2j]]), a)
    save_matrix(np.array([[-0.1], [0.4 - 0.2j]]), x)
    save_matrix(np.array([[1.0], [0.5j]]), d)
    commands = [
        ["gen", "--group", "C4", "--sig", "3,1", "--cond", "10", "--seed", "5",
         "--out", str(gen)],
        ["distance", str(a), str(x)],
        ["mobius", str(a), str(x)],
        ["geodesic", str(a), str(d), "--t", "0.5", "--t", "2"],
        ["check", "--suite", "all", "--trials", "5", "--seed", "0"],
    ]
    for rep in [gen, *map(Path, repdirs)]:
        commands += [["fixpoint", "--group", str(rep)],
                     ["unitarize", "--rep", str(rep)],
                     ["dualpair", "--rep", str(rep)]]
    for argv in commands:
        code, doc = _run(argv)
        assert code == 0, (argv, doc)
        print(argv[0], "ok")

    line = GeodesicLine(BallPoint([[0.2], [0.1j]]), np.array([[0.6], [0.8]]))
    ts = np.linspace(0.0, 1.0, 101)
    length = curve_length(ts, [geodesic_point(line, t) for t in ts],
                          [geodesic_velocity(line, t) for t in ts])
    assert abs(length - 1.0) < 1e-6, length
    print("curve_length ok")

    rep = load_representation(gen)
    p, q = rep.signature.n_plus, rep.signature.n_minus
    group = AutomorphismGroup(
        elements=[BallAutomorphism(m, p, q) for m in rep.images])
    result = find_fixed_point(group)
    assert result.converged and result.iterations > 0, result
    print("solve from 0 ok")


def test_runtime_paths_need_no_scipy(tmp_path):
    import opball

    src = os.path.dirname(os.path.dirname(opball.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, os.path.dirname(__file__)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, test_runs_without_scipy as t; "
            "t.smoke(sys.argv[1], sys.argv[2:])")
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["curve_length ok",
                                               "solve from 0 ok"]
