"""The ``cli`` workload: the commands of the ``opball`` console script,
each run the way ``main()`` runs it once the interpreter is up.

The inputs (matrix files and representation directories) are written by
the benchmark in the documented file format into a scratch directory under
``perfbench/out``.  Each operation is one ``opball.cli.run(ARGS)`` call in
the workload process, with stdout captured: argument parsing, reading the
files, the command, and the JSON it prints.  What a fresh interpreter adds
to every command, Python and ``import opball.cli``, is this workload's
``setup_s``; timed per command it did not hold steady on a shared machine
(see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import opball.cli

import checks
import inputs
import reference as R
from workloads import CORE_SEED, Op

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
APPENDIX_SUITES = {"metric-line", "unit-speed", "met-lemma", "lemma-inequality",
                   "doubling-convexity", "line-invariance",
                   "mobius-differential", "unique-line", "th-series",
                   "alpha-distance"}
GEODESIC_T = ("0.5", "-1.25", "2")
CHECK_TRIALS = 3


def matrix_document(m: np.ndarray) -> dict:
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [[float(z.real), float(z.imag)] for z in np.ravel(m)]}


def read_matrix(doc: dict) -> np.ndarray:
    data = np.array(doc["data"], dtype=np.float64)
    return (data[:, 0] + 1j * data[:, 1]).reshape(doc["rows"], doc["cols"])


def write_json(path: Path, doc):
    path.write_text(json.dumps(doc) + "\n")


def write_representation(path: Path, case, elements):
    path.mkdir(parents=True)
    write_json(path / "sig.json", {"n_plus": case.p, "n_minus": case.q})
    write_json(path / "table.json", {"table": case.group.table.tolist()})
    for k, m in enumerate(elements):
        write_json(path / f"elem_{k}.json", matrix_document(m))


def same_stdout(label: str, first: bytes, later: bytes):
    """Identical arguments and files must give byte-identical stdout."""
    checks.require(first == later, f"{label}: stdout differs between passes")


class CommandFailed(RuntimeError):
    pass


class CliRunner:
    """Owns the scratch directory and the commands."""

    def __init__(self, seed: int):
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
        self.ops = self._build(seed)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _file(self, name: str, m: np.ndarray) -> str:
        path = self.dir / name
        write_json(path, matrix_document(m))
        return str(path)

    def _op(self, label, argv, **spec):
        return Op("cli", label, self._run, (label, argv), spec)

    def _build(self, seed: int) -> list:
        rng = inputs.rng_for(seed, 4)
        pt = lambda p, q, m: inputs.ball_point(rng, p, q, m)
        a, b = pt(3, 2, 1e-2), pt(3, 2, 0.2)
        ma, mx = pt(4, 3, 0.05), pt(4, 3, 0.3)
        ga, gd = pt(2, 2, 0.1), inputs.unit_direction(rng, 2, 2) * 0.7
        # as in the solver workloads: a fixed geometry in a seeded frame
        core = inputs.rng_for(CORE_SEED, 4)
        fix = inputs.representation_case("C6", 2, 2, 5.0, 2, False, core, rng)
        uni = inputs.representation_case("S3", 4, 2, 20.0, 2, False, core, rng)
        dual = inputs.representation_case("Q8", 5, 2, 10.0, 1, False, core, rng)
        write_representation(self.dir / "fixpoint", fix,
                             [fix.images[g] for g in fix.group.generators])
        write_representation(self.dir / "unitarize", uni, uni.images)
        write_representation(self.dir / "dualpair", dual, dual.images)
        gen_seed = seed % 100000
        return [
            self._op("cli distance 3x2", ["distance", self._file("a.json", a),
                                          self._file("b.json", b)],
                     matrices=(a, b), margin=1e-2),
            self._op("cli mobius 4x3", ["mobius", self._file("ma.json", ma),
                                        self._file("mx.json", mx)],
                     matrices=(ma, mx), margin=0.05),
            self._op("cli geodesic 2x2",
                     ["geodesic", self._file("ga.json", ga), self._file("gd.json", gd)]
                     + [x for t in GEODESIC_T for x in ("--t", t)],
                     matrices=(ga, gd), margin=0.1),
            self._op("cli gen Q8 (3,2)",
                     ["gen", "--group", "Q8", "--sig", "3,2", "--cond", "10",
                      "--seed", str(gen_seed), "--out", str(self.dir / "gen")],
                     seed=gen_seed),
            self._op("cli fixpoint C6 (2,2)",
                     ["fixpoint", "--group", str(self.dir / "fixpoint")], case=fix),
            self._op("cli unitarize S3 (4,2)",
                     ["unitarize", "--rep", str(self.dir / "unitarize")], case=uni),
            self._op("cli dualpair Q8 (5,2)",
                     ["dualpair", "--rep", str(self.dir / "dualpair")], case=dual),
            self._op("cli check appendix",
                     ["check", "--suite", "appendix", "--trials", str(CHECK_TRIALS),
                      "--seed", str(gen_seed)]),
        ]

    def _run(self, label, argv):
        # looked up at every call, so that a traced run sees its wrapper
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = opball.cli.run(argv)
        if code != 0:
            raise CommandFailed(f"{label}: exit {code}: {stdout.getvalue()[-300:]!r}")
        return stdout.getvalue().encode()

    # --- checks ----------------------------------------------------------------

    def verify(self, op, stdout: bytes) -> list:
        doc = json.loads(stdout)
        command = op.args[1][0]
        spec = op.spec
        label = op.label
        if command == "distance":
            a, b = (R.to_mp(x) for x in spec["matrices"])
            err = R.rel_error_scalar(float(doc["rho"]), R.rho(a, b))
            return [checks.within(label, err, checks.geometry_tol(spec["margin"]))]
        if command == "mobius":
            a, x = (R.to_mp(v) for v in spec["matrices"])
            return [checks.matrix_within(label, read_matrix(doc), R.mobius(a, x),
                                      spec["margin"])]
        if command == "geodesic":
            base, direction = spec["matrices"]
            unit = R.to_mp(direction) / R.norm2(R.to_mp(direction))
            checks.require([float(t) for t in GEODESIC_T] == doc["t"],
                            f"{label}: parameters {doc['t']}")
            return [checks.matrix_within(f"{label} t={t}", read_matrix(m),
                                      R.geodesic_point(R.to_mp(base), unit, R.mp.mpf(t)),
                                      spec["margin"])
                    for t, m in zip(GEODESIC_T, doc["points"])]
        if command == "gen":
            return self._verify_gen(label, doc, spec["seed"])
        if command == "fixpoint":
            case = spec["case"]
            checks.require(doc["group_order"] == case.projective_order,
                            f"{label}: group order {doc['group_order']}")
            checks.require(doc["converged"] is True, f"{label}: not converged")
            return checks.fixed_point_errors(label, case, read_matrix(doc["fixed_point"]),
                                             case.images)
        if command == "unitarize":
            images = [read_matrix(m) for m in doc["unitary_images"]]
            return checks.unitarize_errors(label, spec["case"],
                                           read_matrix(doc["similarity"]),
                                           read_matrix(doc["fixed_point"]), images)
        if command == "dualpair":
            case = spec["case"]
            checks.require(doc["negative_dim"] == case.q, f"{label}: negative_dim")
            return checks.dual_pair_errors(label, case,
                                           read_matrix(doc["positive_basis"]),
                                           read_matrix(doc["negative_basis"]))
        checks.require(doc["passed"] is True and not doc["failures"]
                        and set(doc["suites"]) == APPENDIX_SUITES,
                        f"{label}: check suite report {doc!r:.300}")
        return []

    def _verify_gen(self, label, doc, seed) -> list:
        checks.require(doc["order"] == 8 and doc["sig"] == [3, 2]
                        and doc["seed"] == seed and doc["conditioning"] == 10.0,
                        f"{label}: report {doc!r:.300}")
        # the directory is rewritten by every pass; read the last one
        path = Path(doc["out"])
        table = np.array(json.loads((path / "table.json").read_text())["table"])
        images = [read_matrix(json.loads((path / f"elem_{k}.json").read_text()))
                  for k in range(len(table))]
        j = inputs.eta(3, 2)
        bound = max(np.linalg.norm(m, 2) for m in images)
        scale = max(1.0, bound ** 2)
        checks.within(f"{label} bound", abs(bound - doc["bound"]) / bound, 1e-12)
        for g in range(len(table)):
            checks.within(f"{label} eta defect of element {g}",
                          np.linalg.norm(images[g].conj().T @ j @ images[g] - j, 2),
                          1e-8 * scale)
            for h in range(len(table)):
                checks.within(f"{label} homomorphism defect ({g},{h})",
                              np.linalg.norm(images[table[g, h]] - images[g] @ images[h], 2),
                              1e-8 * scale)
        return []
