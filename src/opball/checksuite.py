"""Named property suites for the ``check`` CLI subcommand.

Each suite draws its own instances from a seeded generator and returns a
list of failure descriptions (empty = pass), so CI can pinpoint which
lemma-level regression broke.
"""

from __future__ import annotations

import numpy as np

from .hyperbolic import (
    GeodesicLine,
    _alpha,
    _line_and_gap,
    _line_inner,
    _line_points,
    _rho,
    alpha_metric,
    barycenter_sequence,
    convex_combination,
    distance,
    geodesic_velocity,
    line_through,
    th_map,
    th_series,
)
from .mobius import (
    BallAutomorphism,
    BallPoint,
    _frac_checked,
    _require_inside,
    automorphism_apply,
    defect_roots,
    mobius_apply,
    mobius_differential,
    mobius_matrix,
)
from .opcore import adjoint, spectral_norm
from .pontryagin import (
    PontryaginSignature,
    graph_subspace,
    negativeness_degree,
    subspace_to_ball,
)
from .sampling import random_ball_point, random_direction, random_eta_preserving

_DIMS = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (6, 3)]


def _dims(rng):
    return _DIMS[int(rng.integers(len(_DIMS)))]


def _ball_point(points, norms, k: int) -> BallPoint:
    """The k-th point of a checked stack as a ``BallPoint``."""
    return object.__new__(BallPoint)._set(points[k], norms[k])


def check_metric_line(rng, trials):
    """rho(gamma(s), gamma(t)) = |s - t| along every line."""
    failures = []
    grid = [-3.0, -1.0, 0.0, 0.5, 2.0]
    for k in range(trials):
        p, q = _dims(rng)
        line = GeodesicLine(random_ball_point(rng, p, q, 0.8),
                            random_direction(rng, p, q))
        pts, _ = _line_points(line, grid)
        first, second = np.triu_indices(len(grid), 1)
        rhos = _rho(pts[first], pts[second])
        for i, j, rho in zip(first, second, rhos):
            s, t = grid[i], grid[j]
            err = abs(rho - abs(s - t))
            if err > 1e-8:
                failures.append(f"trial {k}: |rho - |s-t|| = {err:.3e} "
                                f"at (s, t) = ({s}, {t})")
    return failures


def check_unit_speed(rng, trials):
    """alpha(gamma, gamma') = 1 with gamma' = D - gamma D* gamma, and the
    closed form matches central differences."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        d = random_direction(rng, p, q)
        base = random_ball_point(rng, p, q, 0.6)
        line = GeodesicLine(base, d)
        ts = rng.uniform(-2.0, 2.0, size=3)
        g = _line_inner(line, ts)
        _require_inside(g, 0.0)
        speeds = _alpha(g, d - g @ adjoint(d) @ g)
        h = 1e-5
        pts, _ = _line_points(line, np.concatenate([ts + h, ts - h]))
        fd = (pts[:3] - pts[3:]) / (2 * h)
        errs = spectral_norm(fd - geodesic_velocity(line, ts))
        for speed, err in zip(speeds, errs):
            if abs(speed - 1.0) > 1e-7:
                failures.append(f"trial {k}: |alpha - 1| = {abs(speed - 1.0):.3e}")
            if err > 1e-6:
                failures.append(f"trial {k}: velocity fd gap {err:.3e}")
    return failures


def check_met_lemma(rng, trials):
    """(1 - gg*)^{-1/2} (D - g D* g) (1 - g*g)^{-1/2} = D on g = Th(tD)."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        d = random_direction(rng, p, q)
        t = float(rng.uniform(-2.5, 2.5))
        g = th_map(t * d)
        left, right = defect_roots(g, -0.5, -0.5)
        err = spectral_norm(left @ (d - g @ adjoint(d) @ g) @ right - d)
        if err > 1e-8:
            failures.append(f"trial {k}: met identity off by {err:.3e}")
    return failures


def check_lemma_inequality(rng, trials):
    """||A|| <= ||(1-BB*)^{-1/2}(A - B A* B)(1-B*B)^{-1/2}||."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        a = random_ball_point(rng, p, q, 0.95).matrix
        b = random_ball_point(rng, p, q, 0.95).matrix
        left, right = defect_roots(b, -0.5, -0.5)
        rhs = spectral_norm(left @ (a - b @ adjoint(a) @ b) @ right)
        if spectral_norm(a) > rhs + 1e-9:
            failures.append(f"trial {k}: ||A|| = {spectral_norm(a):.6f} > "
                            f"rhs = {rhs:.6f}")
    return failures


def check_doubling_convexity(rng, trials):
    """2 rho(gamma(s), eta(s)) <= rho(gamma(2s), eta(2s)) for lines through
    a common base point."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        base = random_ball_point(rng, p, q, 0.7)
        g = GeodesicLine(base, random_direction(rng, p, q))
        e = GeodesicLine(base, random_direction(rng, p, q))
        # rho(gamma(s), eta(s)) at s = 0.25, 0.5, 1 and 2
        params = [0.25, 0.5, 1.0, 2.0]
        rhos = _rho(_line_points(g, params)[0], _line_points(e, params)[0])
        for s, half, full in zip(params, rhos, rhos[1:]):
            lhs, rhs = 2.0 * half, full
            if lhs > rhs + 1e-8:
                failures.append(f"trial {k}: 2rho = {lhs:.6f} > {rhs:.6f} "
                                f"at s = {s}")
    return failures


def check_line_invariance(rng, trials):
    """Automorphisms carry lines to lines: images of collinear points stay
    on the line through the first two images."""
    failures = []
    params = [0.0, 0.7, 1.3, 2.1, 2.9]
    for k in range(trials):
        p, q = _dims(rng)
        line = GeodesicLine(random_ball_point(rng, p, q, 0.6),
                            random_direction(rng, p, q))
        t = BallAutomorphism(random_eta_preserving(rng, p, q, 5.0), p, q)
        images = _frac_checked(t.block, _line_points(line, params)[0])
        norms = _require_inside(images, 0.0)
        first, second = (_ball_point(images, norms, m) for m in (0, 1))
        carried, base_gap = _line_and_gap(first, second)
        along = [params[m] / params[1] * base_gap for m in range(2, len(params))]
        errs = _rho(_line_points(carried, along)[0], images[2:])
        for m, err in enumerate(errs, start=2):
            if err > 1e-7:
                failures.append(f"trial {k}: image {m} off line by {err:.3e}")
    return failures


def check_mobius_differential(rng, trials):
    """Closed-form differential of M_B against Richardson-extrapolated
    central differences."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        b = random_ball_point(rng, p, q, 0.7)
        a = random_ball_point(rng, p, q, 0.6)
        v = random_direction(rng, p, q)
        exact = mobius_differential(b, a, v)
        # A + hV and A - hV at h/2, then at h, as ball points and their images
        h = 1e-4
        steps = np.array([h / 2, -h / 2, h, -h])[:, None, None]
        moved = a.matrix + steps * v
        _require_inside(moved, 0.0)
        images = mobius_matrix(b.matrix, moved)
        _require_inside(images, 0.0)
        half, full = (images[0::2] - images[1::2]) / (2 * steps[0::2])
        richardson = (4.0 * half - full) / 3.0
        err = spectral_norm(richardson - exact)
        if err > 1e-8:
            failures.append(f"trial {k}: differential fd gap {err:.3e}")
    return failures


def check_unique_line(rng, trials):
    """line_through of two points of a line reproduces the same point set."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        line = GeodesicLine(random_ball_point(rng, p, q, 0.6),
                            random_direction(rng, p, q))
        s, t = sorted(rng.uniform(-2.0, 2.0, size=2))
        if t - s < 0.1:
            t = s + 0.1
        us = rng.uniform(-1.5, 1.5, size=5)
        pts, norms = _line_points(line, np.concatenate([[s, t], s + us]))
        rebuilt = line_through(_ball_point(pts, norms, 0),
                               _ball_point(pts, norms, 1))
        for err in _rho(_line_points(rebuilt, us)[0], pts[2:]):
            if err > 1e-8:
                failures.append(f"trial {k}: rebuilt line off by {err:.3e}")
    return failures


def check_th_series(rng, trials):
    """SVD-based Th agrees with direct summation of the odd power series."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        d = random_direction(rng, p, q) * rng.uniform(0.1, 1.2)
        err = spectral_norm(th_map(d) - th_series(d, terms=80))
        if err > 1e-9:
            failures.append(f"trial {k}: series gap {err:.3e} "
                            f"at ||D|| = {spectral_norm(d):.3f}")
    return failures


def check_alpha_distance(rng, trials):
    """First variation: rho(A, A + hV)/h approaches alpha(A, V)."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        a = random_ball_point(rng, p, q, 0.7)
        v = random_direction(rng, p, q)
        alpha = alpha_metric(a, v)
        errs = []
        for h in (1e-3, 1e-4):
            moved = BallPoint(a.matrix + h * v, boundary_tol=0.0)
            errs.append(abs(distance(a, moved) / h - alpha))
        # second-order term: the gap must shrink linearly in h
        if errs[0] > 50.0 * alpha * 1e-3 or errs[1] > 50.0 * alpha * 1e-4:
            failures.append(f"trial {k}: first-variation gaps {errs}")
    return failures


def check_segment_convexity(rng, trials):
    """rho((1-t)x (+) ty, (1-t)w (+) tz) <= (1-t)rho(x,w) + t rho(y,z)."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        x, y, w, z = (random_ball_point(rng, p, q, 0.8) for _ in range(4))
        t = float(rng.uniform(0.0, 1.0))
        lhs = distance(convex_combination(x, y, t), convex_combination(w, z, t))
        rhs = (1 - t) * distance(x, w) + t * distance(y, z)
        if lhs > rhs + 1e-8:
            failures.append(f"trial {k}: {lhs:.6f} > {rhs:.6f} at t = {t:.3f}")
    return failures


def check_mobius_inverse(rng, trials):
    """M_{-A} inverts M_A."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        a = random_ball_point(rng, p, q, 0.8)
        x = random_ball_point(rng, p, q, 0.8)
        neg_a = BallPoint(-a.matrix, boundary_tol=0.0)
        err = spectral_norm(
            mobius_apply(neg_a, mobius_apply(a, x)).matrix - x.matrix)
        if err > 1e-9:
            failures.append(f"trial {k}: inverse law off by {err:.3e}")
    return failures


def check_isometry_invariance(rng, trials):
    """rho(w_T A, w_T B) = rho(A, B) for eta-preserving T."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        t = BallAutomorphism(
            random_eta_preserving(rng, p, q, float(rng.uniform(1.0, 50.0))),
            p, q)
        a = random_ball_point(rng, p, q, 0.8)
        b = random_ball_point(rng, p, q, 0.8)
        err = abs(distance(automorphism_apply(t, a), automorphism_apply(t, b))
                  - distance(a, b))
        if err > 1e-8:
            failures.append(f"trial {k}: invariance off by {err:.3e}")
    return failures


def check_lipschitz(rng, trials):
    """||M_A(X) - M_A(Y)|| <= 3 (1 - ||A||)^{-5/2} ||X - Y||."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        a = random_ball_point(rng, p, q, 0.9)
        x = random_ball_point(rng, p, q, 0.9)
        y = random_ball_point(rng, p, q, 0.9)
        gap = spectral_norm(mobius_apply(a, x).matrix - mobius_apply(a, y).matrix)
        bound = 3.0 * (1.0 - spectral_norm(a.matrix)) ** -2.5 \
            * spectral_norm(x.matrix - y.matrix)
        if gap > bound + 1e-12:
            failures.append(f"trial {k}: Lipschitz bound violated "
                            f"({gap:.6f} > {bound:.6f})")
    return failures


def check_degree_transport(rng, trials):
    """eps(L(w_T A)) >= eps(L(A)) ||T||^{-2} and the induced ellipticity
    bound 1 - ||w_T(A)||^2 >= C^{-2} (1 - ||A||^2)/(1 + ||A||^2)."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        sig = PontryaginSignature(p, q)
        tmat = random_eta_preserving(rng, p, q, float(rng.uniform(1.0, 20.0)))
        t = BallAutomorphism(tmat, p, q)
        a = random_ball_point(rng, p, q, 0.9)
        moved = automorphism_apply(t, a)
        norm_t = spectral_norm(tmat)
        lhs = negativeness_degree(sig, moved)
        rhs = negativeness_degree(sig, a) * norm_t ** -2
        if lhs < rhs - 1e-9:
            failures.append(f"trial {k}: degree transport {lhs:.6e} < {rhs:.6e}")
        elliptic_lhs = 1.0 - spectral_norm(moved.matrix) ** 2
        if elliptic_lhs < norm_t ** -2 * negativeness_degree(sig, a) - 1e-9:
            failures.append(f"trial {k}: ellipticity bound violated")
    return failures


def check_mean_inequality(rng, trials):
    """rho(x, b_n) <= (1/n) sum_k rho(x, c_k) for the barycenter fold."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        pts = [random_ball_point(rng, p, q, 0.8)
               for _ in range(int(rng.integers(2, 7)))]
        center = barycenter_sequence(pts)
        for _ in range(3):
            probe = random_ball_point(rng, p, q, 0.8)
            mean = np.mean([distance(probe, c) for c in pts])
            if distance(probe, center) > mean + 1e-8:
                failures.append(f"trial {k}: mean inequality violated")
    return failures


def check_graph_roundtrip(rng, trials):
    """subspace_to_ball inverts graph_subspace."""
    failures = []
    for k in range(trials):
        p, q = _dims(rng)
        sig = PontryaginSignature(p, q)
        a = random_ball_point(rng, p, q, 0.9)
        back = subspace_to_ball(sig, graph_subspace(sig, a))
        err = spectral_norm(back.matrix - a.matrix)
        if err > 1e-10:
            failures.append(f"trial {k}: roundtrip off by {err:.3e}")
        mixed = graph_subspace(sig, a) @ np.triu(
            rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            + 3.0 * np.eye(q))
        back2 = subspace_to_ball(sig, mixed)
        err2 = spectral_norm(back2.matrix - a.matrix)
        if err2 > 1e-9:
            failures.append(f"trial {k}: rescaled roundtrip off by {err2:.3e}")
    return failures


SUITES = {
    "metric-line": ("appendix", check_metric_line),
    "unit-speed": ("appendix", check_unit_speed),
    "met-lemma": ("appendix", check_met_lemma),
    "lemma-inequality": ("appendix", check_lemma_inequality),
    "doubling-convexity": ("appendix", check_doubling_convexity),
    "line-invariance": ("appendix", check_line_invariance),
    "mobius-differential": ("appendix", check_mobius_differential),
    "unique-line": ("appendix", check_unique_line),
    "th-series": ("appendix", check_th_series),
    "alpha-distance": ("appendix", check_alpha_distance),
    "segment-convexity": ("all", check_segment_convexity),
    "mobius-inverse": ("all", check_mobius_inverse),
    "isometry-invariance": ("all", check_isometry_invariance),
    "lipschitz": ("all", check_lipschitz),
    "degree-transport": ("all", check_degree_transport),
    "mean-inequality": ("all", check_mean_inequality),
    "graph-roundtrip": ("all", check_graph_roundtrip),
}

# heavier suites get fewer instances per requested trial count
_TRIAL_SCALE = {
    "metric-line": 0.2,
    "unit-speed": 0.3,
    "line-invariance": 0.3,
    "unique-line": 0.3,
    "mobius-differential": 0.3,
    "mean-inequality": 0.2,
}


def run_checks(suite: str = "appendix", trials: int = 200, seed: int = 0):
    """Run the selected property suites; returns a JSON-ready summary."""
    if suite not in ("appendix", "all"):
        raise ValueError(f"unknown suite {suite!r} (use 'appendix' or 'all')")
    results = {}
    all_failures = []
    for index, (name, (scope, fn)) in enumerate(SUITES.items()):
        if suite == "appendix" and scope != "appendix":
            continue
        n = max(3, int(trials * _TRIAL_SCALE.get(name, 1.0)))
        rng = np.random.default_rng([seed, index])
        failures = fn(rng, n)
        results[name] = {"trials": n, "failures": failures}
        all_failures.extend(f"{name}: {msg}" for msg in failures)
    return {"passed": not all_failures, "failures": all_failures,
            "suites": results}
