"""Per-layer tracing from outside the program.

``install`` replaces every public function of opball's layer modules (and
the ``__init__`` and public methods of their classes) with a wrapper, in
every opball module namespace that holds the name, so calls made through
``from .x import f`` copies are seen too.  It also wraps the
``numpy.linalg`` functions opball calls and the scipy functions as the
opball modules see them.  A wrapper records a span (name, start, end,
parent) while an operation is being traced; spans stay in memory and are
written out at the end of the run.  A layer's self time is the duration of
its spans minus that of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("opcore", "mobius", "hyperbolic", "fixedpoint", "pontryagin", "cli")
LAPACK = ("eigh", "eigvalsh", "svd", "solve", "inv", "qr", "det", "cholesky",
          "eig", "lstsq")
SCIPY = {"fixedpoint": ("minimize", "minimize_scalar"),
         "hyperbolic": ("simpson",), "pontryagin": ("subspace_angles",)}
SVD_NORM_ORDS = (2, -2, "nuc")


class Tracer:
    """Span stack, per-operation counters, and the spans of one pass."""

    def __init__(self):
        self.active = False
        self.record = False
        self.stack = []
        self.spans = []
        self.op = None
        self.reset()

    def reset(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.solver = []

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s)}

    def call(self, name: str, layer: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self.stack[-1] if self.stack else None
        frame = [name, layer, time.perf_counter(), 0.0,
                 len(self.spans) if self.record else -1]
        self.stack.append(frame)
        self.counts[name] += 1
        if self.record:
            self.spans.append(None)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[2]
            self.self_s[layer] += duration - frame[3]
            self.incl_s[name] += duration
            if parent is not None:
                parent[3] += duration
            if self.record:
                self.spans[frame[4]] = (self.op, frame[4],
                                        parent[4] if parent else -1, name,
                                        frame[2], end)

    @property
    def depth(self) -> int:
        return len(self.stack)

    def write_spans(self, path):
        """One JSON array per line: op, span id, parent id (-1 at the top),
        name, start and end in seconds of the monotonic clock."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs)
    return wrapper


def _wrap_lapack(tracer: Tracer, fn, name: str):
    """numpy.linalg calls count only when made from inside an opball span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active or tracer.depth == 0:
            return fn(*args, **kwargs)
        return tracer.call(name, "lapack", fn, args, kwargs)
    return wrapper


def _wrap_norm(tracer: Tracer, fn):
    # numpy.linalg.norm with ord 2 is one SVD; other norms are not LAPACK
    @functools.wraps(fn)
    def wrapper(x, ord=None, *args, **kwargs):
        if not tracer.active or tracer.depth == 0 or ord not in SVD_NORM_ORDS:
            return fn(x, ord, *args, **kwargs)
        return tracer.call("numpy.linalg.norm2", "lapack", fn,
                           (x, ord) + args, kwargs)
    return wrapper


def _count_objective(tracer: Tracer, minimize_scalar):
    """Counts the objective evaluations of each bounded line search."""
    @functools.wraps(minimize_scalar)
    def wrapper(fun, *args, **kwargs):
        def counted(t, *a):
            if tracer.active:
                tracer.counts["line_search_eval"] += 1
            return fun(t, *a)
        return minimize_scalar(counted, *args, **kwargs)
    return wrapper


def _solver_result(tracer: Tracer, find_fixed_point):
    """Adds the solver's own iteration count, and the displacement values it
    saw, so that accepted steps can be counted (a step is accepted when the
    displacement strictly decreases)."""
    @functools.wraps(find_fixed_point)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.solver.append([])
        result = find_fixed_point(*args, **kwargs)
        if tracer.active:
            values = tracer.solver.pop()
            tracer.counts["solver_iterations"] += result.iterations
            best = float("inf")
            for v in values:
                if v < best:
                    if best != float("inf"):
                        tracer.counts["accepted_steps"] += 1
                    best = v
        return result
    return wrapper


def _record_displacement(tracer: Tracer, displacement):
    @functools.wraps(displacement)
    def wrapper(*args, **kwargs):
        value = displacement(*args, **kwargs)
        if tracer.active and tracer.solver:
            tracer.solver[-1].append(value)
        return value
    return wrapper


def _count_in_closure(tracer: Tracer, compose):
    @functools.wraps(compose)
    def wrapper(*args, **kwargs):
        if tracer.active and any(f[0] == "fixedpoint.group_closure"
                                 for f in tracer.stack):
            tracer.counts["closure_compositions"] += 1
        return compose(*args, **kwargs)
    return wrapper


def _public_callables(module):
    """(owner, attribute, function, qualified name) for the module's own
    public functions, class initializers and public methods."""
    out = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            out.append((module, name, obj, name))
        elif inspect.isclass(obj) and not issubclass(obj, (tuple, BaseException)):
            for attr, member in vars(obj).items():
                if not inspect.isfunction(member):
                    continue
                if attr == "__init__" or not attr.startswith("_"):
                    out.append((obj, attr, member, f"{obj.__name__}.{attr}"))
    return out


def install(tracer: Tracer) -> None:
    """Wrap opball's public callables where opball's modules look them up."""
    import numpy.linalg

    originals = {}
    for layer in LAYERS:
        module = sys.modules.get(f"opball.{layer}")
        if module is None:
            continue
        for owner, attr, fn, qual in _public_callables(module):
            wrapped = _wrap(tracer, fn, f"{layer}.{qual}", layer)
            if qual == "find_fixed_point":
                wrapped = _solver_result(tracer, wrapped)
            elif qual == "displacement":
                wrapped = _record_displacement(tracer, wrapped)
            elif qual == "automorphism_compose":
                wrapped = _count_in_closure(tracer, wrapped)
            originals[id(fn)] = wrapped
            setattr(owner, attr, wrapped)
    for module_name, module in list(sys.modules.items()):
        if module_name != "opball" and not module_name.startswith("opball."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in originals:
                setattr(module, attr, originals[id(value)])
        layer = module_name.rpartition(".")[2]
        for attr in SCIPY.get(layer, ()):
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapped = _wrap(tracer, fn, f"scipy.{attr}", "scipy")
            if attr == "minimize_scalar":
                wrapped = _count_objective(tracer, wrapped)
            setattr(module, attr, wrapped)
    for attr in LAPACK:
        setattr(numpy.linalg, attr,
                _wrap_lapack(tracer, getattr(numpy.linalg, attr),
                             f"numpy.linalg.{attr}"))
    numpy.linalg.norm = _wrap_norm(tracer, numpy.linalg.norm)


def per_op_metrics(snap: dict) -> dict:
    """The per-layer metrics of one operation from its counter snapshot."""
    c, self_s, incl = snap["counts"], snap["self_s"], snap["incl_s"]

    def n(*names):
        return sum(c.get(x, 0) for x in names)

    def ms(*names):
        return 1e3 * sum(incl.get(x, 0.0) for x in names)

    lapack = [f"numpy.linalg.{x}" for x in LAPACK] + ["numpy.linalg.norm2"]
    return {
        "opcore.eigh_calls": n("numpy.linalg.eigh", "numpy.linalg.eigvalsh"),
        "opcore.svd_calls": n("numpy.linalg.svd", "numpy.linalg.norm2",
                              "scipy.subspace_angles"),
        "opcore.solve_calls": n("numpy.linalg.solve"),
        "opcore.inv_calls": n("numpy.linalg.inv"),
        "opcore.lapack_ms": ms(*lapack, "scipy.subspace_angles"),
        "opcore.psd_function_calls": n("opcore.sqrtm_psd", "opcore.inv_sqrtm_psd",
                                       "opcore.psd_apply"),
        "mobius.ballpoint_builds": n("mobius.BallPoint.__init__"),
        "mobius.mobius_matrix_calls": n("mobius.mobius_matrix"),
        "mobius.self_ms": 1e3 * self_s.get("mobius", 0.0),
        "hyperbolic.distance_calls": n("hyperbolic.distance"),
        "hyperbolic.distances_from_calls": n("hyperbolic.distances_from"),
        "hyperbolic.convex_combination_calls": n("hyperbolic.convex_combination"),
        "hyperbolic.self_ms": 1e3 * self_s.get("hyperbolic", 0.0),
        "fixedpoint.closure_ms": ms("fixedpoint.group_closure"),
        "fixedpoint.closure_compositions": c.get("closure_compositions", 0),
        "fixedpoint.line_search_evals": n("line_search_eval"),
        "fixedpoint.qp_solves": n("scipy.minimize"),
        "fixedpoint.chebyshev_ms": ms("fixedpoint.chebyshev_center"),
        "fixedpoint.solver_iterations": n("solver_iterations"),
        "fixedpoint.displacement_evals": n("fixedpoint.displacement"),
        "pontryagin.representation_ms": ms("pontryagin.Representation.__init__"),
        "pontryagin.unitarize_ms": ms("pontryagin.unitarize"),
        "pontryagin.dual_pair_ms": ms("pontryagin.dual_pair"),
        "cli.command_ms": ms("cli.run"),
    }
