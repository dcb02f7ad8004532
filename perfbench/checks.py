"""Checks of the program's outputs against references made apart from it.

``verify`` returns the relative errors of the outputs that have an
independent reference value (they make ``accuracy_digits``) and raises
``CheckFailed`` when an output is wrong.  Geometry outputs are compared
with mpmath references; fixed points with the exact point V12 V22^{-1} of
the similarity the inputs were built from; unitarity, eta defects and
invariance angles are recomputed here.  Tolerances are guards against
wrong answers, not accuracy targets: the accuracy itself is a metric.
"""

from __future__ import annotations

import numpy as np

import inputs
import reference as R

# fixed points, unitarity and eta defects (opball's own UNIT_TOL is 1e-7)
FIXED_POINT_TOL = 1e-6
UNIT_TOL = 1e-7
SUBSPACE_TOL = 1e-6


class CheckFailed(AssertionError):
    pass


def geometry_tol(margin: float) -> float:
    """Relative error allowed at a given distance 1 - ||A|| from the
    boundary.  Today's rounding error grows about like margin^-3 (3e-12 at
    1e-2, 4e-6 at 1e-4, 4e-3 at 1e-5); this allows 10^4 times that."""
    return min(0.5, 1e-8 + 1e-13 / margin ** 3)


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def within(label: str, err: float, tol: float) -> float:
    require(bool(err <= tol), f"{label}: relative error {err:.3e} > {tol:.3e}")
    return err


def matrix_within(label: str, value, ref, margin: float) -> float:
    ref_margin = float(1 - R.norm2(ref))
    return within(label, R.rel_error(value, ref),
                  geometry_tol(min(margin, ref_margin)))


def verify(op, out: tuple) -> list:
    return _VERIFIERS[op.kind](op, out)


def _distance(op, out):
    a, b = (R.to_mp(x) for x in op.args)
    err = R.rel_error_scalar(float(out[0]), R.rho(a, b))
    return [within(op.label, err, geometry_tol(op.spec["margin"]))]


def _mobius_apply(op, out):
    a, x = (R.to_mp(v) for v in op.args)
    return [matrix_within(op.label, out[0], R.mobius(a, x), op.spec["margin"])]


def _geodesic_point(op, out):
    base, direction, t = op.args
    ref = R.geodesic_point(R.to_mp(base), R.to_mp(direction), R.mp.mpf(t))
    return [matrix_within(op.label, out[0], ref, op.spec["margin"])]


def _convex_combination(op, out):
    x, y, t = op.args
    ref = R.convex_combination(R.to_mp(x), R.to_mp(y), R.mp.mpf(t))
    return [matrix_within(op.label, out[0], ref, op.spec["margin"])]


def _line_through(op, out):
    a, b = op.args
    base, direction = out
    require(np.array_equal(base, a), f"{op.label}: line base is not A")
    ref, _ = R.line_direction(R.to_mp(a), R.to_mp(b))
    err = R.rel_error(direction, ref)
    return [within(op.label, err, geometry_tol(op.spec["margin"]))]


def _barycenter_sequence(op, out):
    ref = R.barycenter([R.to_mp(c) for c in op.args[0]])
    return [matrix_within(op.label, out[0], ref, op.spec["margin"])]


def _metric_sample(op, out):
    points = [R.to_mp(c) for c in op.args[0]]
    margins = op.spec["margins"]
    table, diam, pair = out
    n = len(points)
    require(table.shape == (n, n) and np.array_equal(table, table.T)
            and not np.any(np.diag(table)), f"{op.label}: malformed table")
    errs = []
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            exact = R.rho(points[i], points[j])
            ref[i, j] = ref[j, i] = float(exact)
            errs.append(within(f"{op.label} pair ({i},{j})",
                               R.rel_error_scalar(float(table[i, j]), exact),
                               geometry_tol(min(margins[i], margins[j]))))
    i, j = (int(k) for k in pair)
    tol = geometry_tol(min(margins[i], margins[j]))
    within(f"{op.label} diameter", abs(float(diam) - ref[i, j]) / ref[i, j], tol)
    require(ref[i, j] >= ref.max() * (1 - tol),
            f"{op.label}: pair ({i},{j}) does not attain the diameter")
    return errs


def fractional_linear(t: np.ndarray, a: np.ndarray, p: int) -> np.ndarray:
    """w_T(A) = (T11 A + T12)(T21 A + T22)^{-1}."""
    num = t[:p, :p] @ a + t[:p, p:]
    den = t[p:, :p] @ a + t[p:, p:]
    return np.linalg.solve(den.T, num.T).T


def fixed_point_errors(label: str, case, point: np.ndarray, images) -> list:
    """Checks that ``point`` is fixed by every image; against the exact
    point of the construction when it is unique."""
    p = case.p
    for k, m in enumerate(images):
        moved = fractional_linear(m, point, p)
        gap = np.linalg.norm(moved - point, 2) / max(np.linalg.norm(point, 2), 1e-300)
        within(f"{label} displacement under element {k}", gap, FIXED_POINT_TOL)
    if case.shared:
        return []
    err = R.rel_error(point, R.fixed_point(case.similarity, p))
    return [within(f"{label} fixed point", err, FIXED_POINT_TOL)]


def _subspace_sine(basis: np.ndarray, other: np.ndarray) -> float:
    """Sine of the largest principal angle between the column spans."""
    q1, _ = np.linalg.qr(basis)
    q2, _ = np.linalg.qr(other)
    return float(np.linalg.norm(q2 - q1 @ (q1.conj().T @ q2), 2))


def unitarize_errors(label: str, case, similarity, point, unitary_images,
                     pair=None) -> list:
    p, q = case.p, case.q
    j = inputs.eta(p, q)
    eye = np.eye(p + q)
    errs = fixed_point_errors(label, case, point, case.images)
    scale = np.linalg.norm(similarity, 2) ** 2
    within(f"{label} similarity eta defect",
           np.linalg.norm(similarity.conj().T @ j @ similarity - j, 2) / scale,
           UNIT_TOL)
    for k, m in enumerate(case.images):
        tau = similarity @ np.linalg.solve(similarity.T, m.T).T
        within(f"{label} unitarity defect of element {k}",
               np.linalg.norm(tau.conj().T @ tau - eye, 2), UNIT_TOL)
        within(f"{label} eta defect of element {k}",
               np.linalg.norm(tau.conj().T @ j @ tau - j, 2), UNIT_TOL)
        within(f"{label} returned image {k}",
               np.linalg.norm(unitary_images[k] - tau, 2), UNIT_TOL)
    if pair is not None:
        errs += dual_pair_errors(label, case, *pair)
    return errs


def dual_pair_errors(label: str, case, positive, negative) -> list:
    p, q = case.p, case.q
    j = inputs.eta(p, q)
    require(positive.shape == (p + q, p) and negative.shape == (p + q, q),
             f"{label}: dual pair dimensions {positive.shape}, {negative.shape}")
    for name, basis, sign in (("positive", positive, 1.0),
                              ("negative", negative, -1.0)):
        within(f"{label} {name} basis orthonormality",
               np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1]), 2),
               UNIT_TOL)
        gram = basis.conj().T @ j @ basis
        require(bool((sign * np.linalg.eigvalsh((gram + gram.conj().T) / 2)).min() > 0),
                 f"{label}: eta is not definite on the {name} component")
        for k, m in enumerate(case.images):
            within(f"{label} invariance angle of the {name} component "
                   f"under element {k}", _subspace_sine(basis, m @ basis),
                   SUBSPACE_TOL)
    if case.shared:
        return []
    exact = R.to_np(R.fixed_point(case.similarity, p))
    graph = np.vstack([exact, np.eye(q)])
    cograph = np.vstack([np.eye(p), exact.conj().T])
    return [within(f"{label} negative component", _subspace_sine(negative, graph),
                   SUBSPACE_TOL),
            within(f"{label} positive component", _subspace_sine(positive, cograph),
                   SUBSPACE_TOL)]


def _unitarize(op, out):
    case = op.spec["case"]
    similarity, point, images = out[:3]
    pair = out[3:] if len(out) > 3 else None
    return unitarize_errors(op.label, case, similarity, point, images, pair)


def _fixpoint(op, out):
    case = op.spec["case"]
    order, point, displacement, converged = out
    require(int(order) == case.projective_order,
             f"{op.label}: closure has {int(order)} elements, "
             f"the construction {case.projective_order}")
    require(bool(converged), f"{op.label}: solver did not converge "
                              f"(displacement {float(displacement):.3e})")
    return fixed_point_errors(op.label, case, point, case.images)


_VERIFIERS = {
    "distance": _distance, "mobius_apply": _mobius_apply,
    "geodesic_point": _geodesic_point, "convex_combination": _convex_combination,
    "line_through": _line_through, "barycenter_sequence": _barycenter_sequence,
    "metric_sample": _metric_sample, "unitarize": _unitarize,
    "fixpoint": _fixpoint,
}
