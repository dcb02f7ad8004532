"""Command-line entry point.

Matrices travel as JSON documents {"rows", "cols", "data"} with data a
row-major list of [re, im] pairs; representations live in a directory of
``table.json``, ``sig.json`` and ``elem_<k>.json`` files.  Every command
emits a single JSON document on stdout.  Exit codes: 0 success, 1 domain
error (the error class name appears verbatim in the ``error`` field),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import checksuite
from .errors import OperatorBallError, ParseError, ShapeMismatch, ZeroInput
from .fixedpoint import find_fixed_point, group_closure
from .hyperbolic import GeodesicLine, _line_points, distance
from .mobius import BallAutomorphism, BallPoint, mobius_apply
from .opcore import spectral_norm
from .pontryagin import (
    PontryaginSignature,
    Representation,
    dual_pair,
    make_test_representation,
    max_principal_angle,
    unitarize,
)


def _seed(args) -> int:
    """The ``--seed`` option, a non-negative integer."""
    if args.seed < 0:
        raise ParseError(f"--seed must be a non-negative integer: {args.seed}")
    return args.seed


# --- matrix and representation I/O -------------------------------------------


def _read_json(path: Path, fields):
    """``fields(doc)`` for the JSON document in a file; a file that cannot be
    read or decoded, or whose fields are missing or malformed, raises
    ``ParseError``."""
    try:
        return fields(json.loads(path.read_text()))
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: missing or malformed field ({exc})") from exc


def _integer(doc, key):
    """The field ``key`` of a JSON document, which must be a JSON integer:
    not a float, and not a bool (a subclass of int)."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key} is not an integer: {value!r}")
    return value


def _table(doc) -> np.ndarray:
    """The ``table`` field: rows of JSON integers.  An index beyond a
    machine integer raises ``OverflowError``; the others out of range are
    left to the table's own check."""
    rows = doc["table"]
    for row in rows:
        for entry in row:
            if type(entry) is not int:
                raise TypeError(f"table entry is not an integer: {entry!r}")
    return np.asarray(rows, dtype=int)


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    rows, cols, data = _read_json(
        path, lambda doc: (_integer(doc, "rows"), _integer(doc, "cols"),
                           doc["data"]))
    if rows < 1 or cols < 1:
        raise ShapeMismatch(f"{path}: rows and cols must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ShapeMismatch(f"{path}: data length "
                            f"{len(data) if isinstance(data, list) else '?'} "
                            f"!= rows*cols = {rows * cols}")
    # the first entry that is not exactly two JSON numbers (bool is a
    # subclass of int, so compare types); the entries before it are parsed
    # as one array, and the first offender of either kind is reported
    bad = next((k for k, entry in enumerate(data)
                if not (isinstance(entry, list) and len(entry) == 2
                        and type(entry[0]) in (int, float)
                        and type(entry[1]) in (int, float))), len(data))
    try:
        parts = np.array(data[:bad], dtype=np.float64).reshape(-1, 2)
        nonfinite = np.flatnonzero(~np.isfinite(parts).all(axis=1))
    except OverflowError:  # an integer beyond double range is not finite
        nonfinite = [k for k, entry in enumerate(data[:bad])
                     if not _finite_pair(entry)]
    if len(nonfinite):
        raise ParseError(f"{path}: non-finite entry at index {nonfinite[0]}")
    if bad < len(data):
        raise ParseError(f"{path}: entry {bad} is not an [re, im] pair")
    return parts.view(np.complex128).reshape(rows, cols)


def _finite_pair(entry) -> bool:
    """Whether both numbers of an [re, im] pair are finite doubles."""
    try:
        return math.isfinite(float(entry[0])) and math.isfinite(float(entry[1]))
    except OverflowError:
        return False


def matrix_document(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": m.reshape(-1).view(np.float64).reshape(-1, 2).tolist()}


def save_matrix(m: np.ndarray, path):
    Path(path).write_text(json.dumps(matrix_document(m), sort_keys=True) + "\n")


def _parse_sig(text: str) -> PontryaginSignature:
    """The ``--sig P,Q`` option; both must be positive integers."""
    try:
        p, q = (int(x) for x in text.split(","))
        return PontryaginSignature(p, q)
    except ValueError as exc:
        raise ParseError(
            f"--sig must be positive integers P,Q: {text!r} ({exc})") from exc


def _load_sig(dirpath: Path, override: str | None) -> PontryaginSignature:
    if override:
        return _parse_sig(override)
    sig_file = dirpath / "sig.json"
    if not sig_file.exists():
        raise ParseError(f"{dirpath}: no sig.json and no --sig given")
    return _read_json(sig_file, lambda doc: PontryaginSignature(
        _integer(doc, "n_plus"), _integer(doc, "n_minus")))


def _element_index(path: Path) -> int:
    digits = path.stem.partition("_")[2]
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{path}: file name is not elem_<k>.json")
    return int(digits)


def _load_elements(dirpath: Path, sig: PontryaginSignature) -> list:
    """The matrices of ``elem_0.json`` to ``elem_<n-1>.json``, one file per
    index (else ``ParseError``), each ``sig.dim`` square (else
    ``ShapeMismatch``)."""
    elems = sorted((_element_index(p), p) for p in dirpath.glob("elem_*.json"))
    if not elems:
        raise ParseError(f"{dirpath}: no elem_<k>.json files")
    for k, (index, path) in enumerate(elems):
        if index > k:
            raise ParseError(f"{dirpath}: no elem_{k}.json (next is {path.name})")
        if index < k:
            raise ParseError(f"{dirpath}: element index {index} is repeated "
                             f"({path.name})")
    mats = [load_matrix(path) for _, path in elems]
    if any(m.shape != (sig.dim, sig.dim) for m in mats):
        raise ShapeMismatch(f"{dirpath}: elements are not {sig.dim}x{sig.dim}")
    return mats


def load_representation(dirpath, sig_override: str | None = None) -> Representation:
    dirpath = Path(dirpath)
    sig = _load_sig(dirpath, sig_override)
    table_file = dirpath / "table.json"
    if not table_file.exists():
        raise ParseError(f"{dirpath}: no table.json")
    table = _read_json(table_file, _table)
    images = _load_elements(dirpath, sig)
    try:
        return Representation(sig, table, images)
    except ValueError as exc:
        raise ParseError(f"{dirpath}: not a representation ({exc})") from exc


def save_representation(rep: Representation, dirpath):
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "sig.json").write_text(json.dumps(
        {"n_plus": rep.dim_h, "n_minus": rep.dim_k}, sort_keys=True) + "\n")
    (dirpath / "table.json").write_text(json.dumps(
        {"order": rep.group_order, "table": rep.table.tolist()},
        sort_keys=True) + "\n")
    for k, m in enumerate(rep.images):
        save_matrix(m, dirpath / f"elem_{k}.json")


# --- subcommands --------------------------------------------------------------


def _emit(doc) -> int:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


def _load_pair(path_a, path_b):
    """The matrices in two files, which must have the same shape."""
    a, b = load_matrix(path_a), load_matrix(path_b)
    if a.shape != b.shape:
        raise ShapeMismatch(
            f"{path_b}: shape {b.shape} != {a.shape} of {path_a}")
    return a, b


def _cmd_distance(args) -> int:
    a, b = _load_pair(args.a, args.b)
    return _emit({"rho": distance(BallPoint(a), BallPoint(b))})


def _cmd_mobius(args) -> int:
    a, x = _load_pair(args.a, args.x)
    return _emit(matrix_document(mobius_apply(BallPoint(a), BallPoint(x)).matrix))


def _cmd_geodesic(args) -> int:
    if not all(map(math.isfinite, args.t)):
        raise ParseError(f"--t must be finite numbers: {args.t!r}")
    a, d = _load_pair(args.a, args.d)
    base = BallPoint(a)
    # by the largest part first, on the real view (a complex divide takes the
    # reciprocal), so that the spectral norm neither overflows nor underflows
    parts = d.view(np.float64)
    largest = np.abs(parts).max()
    if largest == 0.0:
        raise ZeroInput("direction matrix is zero")
    direction = (parts / largest).view(np.complex128)
    line = GeodesicLine(base, direction / spectral_norm(direction))
    points, _ = _line_points(line, args.t)
    return _emit({"t": args.t, "points": [matrix_document(m) for m in points]})


def _cmd_fixpoint(args) -> int:
    dirpath = Path(args.group)
    sig = _load_sig(dirpath, args.sig)
    group = group_closure([BallAutomorphism(m, sig.n_plus, sig.n_minus)
                           for m in _load_elements(dirpath, sig)])
    result = find_fixed_point(group)
    return _emit({
        "group_order": len(group),
        "fixed_point": matrix_document(result.point.matrix),
        "displacement": result.displacement,
        "iterations": result.iterations,
        "converged": result.converged,
    })


def _cmd_unitarize(args) -> int:
    rep = load_representation(args.rep, args.sig)
    res = unitarize(rep)
    return _emit({
        "fixed_point": matrix_document(res.fixed_point.matrix),
        "similarity": matrix_document(res.similarity),
        "unitary_images": [matrix_document(m) for m in res.unitary_rep.images],
        "max_unitarity_defect": res.unitarity_defect,
    })


def _cmd_dualpair(args) -> int:
    rep = load_representation(args.rep, args.sig)
    pair = dual_pair(rep)
    angle = max(float(max_principal_angle(b, rep._stack @ b).max())
                for b in (pair.positive_basis, pair.negative_basis))
    return _emit({
        "positive_basis": matrix_document(pair.positive_basis),
        "negative_basis": matrix_document(pair.negative_basis),
        "negative_dim": int(pair.negative_basis.shape[1]),
        "max_invariance_angle": angle,
    })


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise ParseError(f"--trials must be a positive integer: {args.trials}")
    summary = checksuite.run_checks(suite=args.suite, trials=args.trials,
                                    seed=_seed(args))
    _emit(summary)
    return 0 if summary["passed"] else 1


def _cmd_gen(args) -> int:
    sig = _parse_sig(args.sig)
    if not (math.isfinite(args.cond) and args.cond >= 1.0):
        raise ParseError(f"--cond must be a finite number >= 1: {args.cond!r}")
    seed = _seed(args)
    try:
        rep = make_test_representation(args.group, sig, conditioning=args.cond,
                                       seed=seed)
    except ValueError as exc:
        # at a large --cond the images round past the constructor's checks
        raise ParseError(f"--cond {args.cond!r} gives no representation of "
                         f"{args.group} at --sig {args.sig} ({exc})") from exc
    save_representation(rep, args.out)
    return _emit({
        "group": args.group,
        "order": rep.group_order,
        "sig": [sig.n_plus, sig.n_minus],
        "conditioning": args.cond,
        "seed": seed,
        "bound": rep.bound,
        "eta_defect": rep.eta_defect,
        "out": str(args.out),
    })


# --- the parser, built once per process ---------------------------------------
# Each subcommand carries its handler as the ``handler`` default, which
# ``run`` calls on the parsed arguments.

_PARSER = argparse.ArgumentParser(
    prog="opball",
    description="Hyperbolic geometry of the operator ball: distances, "
                "Mobius maps, geodesics, fixed points, unitarization.")
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
_SIG_OVERRIDE = {"help": "P,Q when the directory has no sig.json"}


def _command(handler, summary, *positionals, **options):
    """Add the subcommand that runs ``handler``, named after it
    (``_cmd_<name>``), with its positional arguments and ``--<key>``
    options."""
    parser = _COMMANDS.add_parser(handler.__name__.removeprefix("_cmd_"),
                                  help=summary)
    parser.set_defaults(handler=handler)
    for name in positionals:
        parser.add_argument(name)
    for key, spec in options.items():
        parser.add_argument(f"--{key}", **spec)


_command(_cmd_distance, "rho-distance between two ball points", "a", "b")
_command(_cmd_mobius, "apply the Mobius transform M_A to X", "a", "x")
_command(_cmd_geodesic, "points of the line through A with direction D "
                        "(D is normalized to unit spectral norm)", "a", "d",
         t={"type": float, "action": "append", "required": True,
            "help": "parameter value; repeatable"})
_command(_cmd_fixpoint, "common fixed point of the group generated by the "
                        "block matrices in a directory",
         group={"required": True}, sig=_SIG_OVERRIDE)
_command(_cmd_unitarize, "similarity of an eta-preserving representation "
                         "onto a unitary one",
         rep={"required": True}, sig=_SIG_OVERRIDE)
_command(_cmd_dualpair, "invariant dual pair of a bounded J-unitary group",
         rep={"required": True}, sig=_SIG_OVERRIDE)
_command(_cmd_check, "run named property suites",
         suite={"choices": ["appendix", "all"], "default": "appendix"},
         trials={"type": int, "default": 200},
         seed={"type": int, "default": 0})
_command(_cmd_gen, "generate a test representation directory",
         group={"required": True, "help": "C<n>, S3 or Q8"},
         sig={"required": True, "help": "P,Q"},
         cond={"type": float, "default": 2.0},
         seed={"type": int, "default": 0},
         out={"required": True})


def run(argv) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except OperatorBallError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
