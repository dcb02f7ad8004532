"""Named property suites for the ``check`` CLI subcommand.

A suite is a generator ``check_*(rng, p, q)``: it draws one random instance
of its property in the p x q ball from ``rng`` and yields one message per
violation (none = pass).  ``run_checks`` is the only trial loop: it draws
the shape of each trial, numbers the messages by trial and collects them
per suite, so CI can pinpoint which lemma-level regression broke.
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


def check_metric_line(rng, p, q):
    """rho(gamma(s), gamma(t)) = |s - t| along every line."""
    grid = [-3.0, -1.0, 0.0, 0.5, 2.0]
    line = GeodesicLine(random_ball_point(rng, p, q, 0.8),
                        random_direction(rng, p, q))
    pts, _ = _line_points(line, grid)
    first, second = np.triu_indices(len(grid), 1)
    rhos = _rho(pts[first], pts[second])
    for i, j, rho in zip(first, second, rhos):
        s, t = grid[i], grid[j]
        err = abs(rho - abs(s - t))
        if err > 1e-8:
            yield f"|rho - |s-t|| = {err:.3e} at (s, t) = ({s}, {t})"


def check_unit_speed(rng, p, q):
    """alpha(gamma, gamma') = 1 with gamma' = D - gamma D* gamma, and the
    closed form matches central differences."""
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
            yield f"|alpha - 1| = {abs(speed - 1.0):.3e}"
        if err > 1e-6:
            yield f"velocity fd gap {err:.3e}"


def check_met_lemma(rng, p, q):
    """(1 - gg*)^{-1/2} (D - g D* g) (1 - g*g)^{-1/2} = D on g = Th(tD)."""
    d = random_direction(rng, p, q)
    t = float(rng.uniform(-2.5, 2.5))
    g = th_map(t * d)
    left, right = defect_roots(g, -0.5, -0.5)
    err = spectral_norm(left @ (d - g @ adjoint(d) @ g) @ right - d)
    if err > 1e-8:
        yield f"met identity off by {err:.3e}"


def check_lemma_inequality(rng, p, q):
    """||A|| <= ||(1-BB*)^{-1/2}(A - B A* B)(1-B*B)^{-1/2}||."""
    a = random_ball_point(rng, p, q, 0.95).matrix
    b = random_ball_point(rng, p, q, 0.95).matrix
    left, right = defect_roots(b, -0.5, -0.5)
    rhs = spectral_norm(left @ (a - b @ adjoint(a) @ b) @ right)
    if spectral_norm(a) > rhs + 1e-9:
        yield f"||A|| = {spectral_norm(a):.6f} > rhs = {rhs:.6f}"


def check_doubling_convexity(rng, p, q):
    """2 rho(gamma(s), eta(s)) <= rho(gamma(2s), eta(2s)) for lines through
    a common base point."""
    base = random_ball_point(rng, p, q, 0.7)
    g = GeodesicLine(base, random_direction(rng, p, q))
    e = GeodesicLine(base, random_direction(rng, p, q))
    # rho(gamma(s), eta(s)) at s = 0.25, 0.5, 1 and 2
    params = [0.25, 0.5, 1.0, 2.0]
    rhos = _rho(_line_points(g, params)[0], _line_points(e, params)[0])
    for s, half, full in zip(params, rhos, rhos[1:]):
        lhs, rhs = 2.0 * half, full
        if lhs > rhs + 1e-8:
            yield f"2rho = {lhs:.6f} > {rhs:.6f} at s = {s}"


def check_line_invariance(rng, p, q):
    """Automorphisms carry lines to lines: images of collinear points stay
    on the line through the first two images."""
    params = [0.0, 0.7, 1.3, 2.1, 2.9]
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
            yield f"image {m} off line by {err:.3e}"


def check_mobius_differential(rng, p, q):
    """Closed-form differential of M_B against Richardson-extrapolated
    central differences."""
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
        yield f"differential fd gap {err:.3e}"


def check_unique_line(rng, p, q):
    """line_through of two points of a line reproduces the same point set."""
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
            yield f"rebuilt line off by {err:.3e}"


def check_th_series(rng, p, q):
    """SVD-based Th agrees with direct summation of the odd power series."""
    d = random_direction(rng, p, q) * rng.uniform(0.1, 1.2)
    err = spectral_norm(th_map(d) - th_series(d, terms=80))
    if err > 1e-9:
        yield f"series gap {err:.3e} at ||D|| = {spectral_norm(d):.3f}"


def check_alpha_distance(rng, p, q):
    """First variation: rho(A, A + hV)/h approaches alpha(A, V)."""
    a = random_ball_point(rng, p, q, 0.7)
    v = random_direction(rng, p, q)
    alpha = alpha_metric(a, v)
    errs = []
    for h in (1e-3, 1e-4):
        moved = BallPoint(a.matrix + h * v, boundary_tol=0.0)
        errs.append(abs(distance(a, moved) / h - alpha))
    # second-order term: the gap must shrink linearly in h
    if errs[0] > 50.0 * alpha * 1e-3 or errs[1] > 50.0 * alpha * 1e-4:
        yield f"first-variation gaps {errs}"


def check_segment_convexity(rng, p, q):
    """rho((1-t)x (+) ty, (1-t)w (+) tz) <= (1-t)rho(x,w) + t rho(y,z)."""
    x, y, w, z = (random_ball_point(rng, p, q, 0.8) for _ in range(4))
    t = float(rng.uniform(0.0, 1.0))
    lhs = distance(convex_combination(x, y, t), convex_combination(w, z, t))
    rhs = (1 - t) * distance(x, w) + t * distance(y, z)
    if lhs > rhs + 1e-8:
        yield f"{lhs:.6f} > {rhs:.6f} at t = {t:.3f}"


def check_mobius_inverse(rng, p, q):
    """M_{-A} inverts M_A."""
    a = random_ball_point(rng, p, q, 0.8)
    x = random_ball_point(rng, p, q, 0.8)
    neg_a = BallPoint(-a.matrix, boundary_tol=0.0)
    err = spectral_norm(
        mobius_apply(neg_a, mobius_apply(a, x)).matrix - x.matrix)
    if err > 1e-9:
        yield f"inverse law off by {err:.3e}"


def check_isometry_invariance(rng, p, q):
    """rho(w_T A, w_T B) = rho(A, B) for eta-preserving T."""
    t = BallAutomorphism(
        random_eta_preserving(rng, p, q, float(rng.uniform(1.0, 50.0))),
        p, q)
    a = random_ball_point(rng, p, q, 0.8)
    b = random_ball_point(rng, p, q, 0.8)
    err = abs(distance(automorphism_apply(t, a), automorphism_apply(t, b))
              - distance(a, b))
    if err > 1e-8:
        yield f"invariance off by {err:.3e}"


def check_lipschitz(rng, p, q):
    """||M_A(X) - M_A(Y)|| <= 3 (1 - ||A||)^{-5/2} ||X - Y||."""
    a = random_ball_point(rng, p, q, 0.9)
    x = random_ball_point(rng, p, q, 0.9)
    y = random_ball_point(rng, p, q, 0.9)
    gap = spectral_norm(mobius_apply(a, x).matrix - mobius_apply(a, y).matrix)
    bound = 3.0 * (1.0 - spectral_norm(a.matrix)) ** -2.5 \
        * spectral_norm(x.matrix - y.matrix)
    if gap > bound + 1e-12:
        yield f"Lipschitz bound violated ({gap:.6f} > {bound:.6f})"


def check_degree_transport(rng, p, q):
    """eps(L(w_T A)) >= eps(L(A)) ||T||^{-2} and the induced ellipticity
    bound 1 - ||w_T(A)||^2 >= C^{-2} (1 - ||A||^2)/(1 + ||A||^2)."""
    sig = PontryaginSignature(p, q)
    tmat = random_eta_preserving(rng, p, q, float(rng.uniform(1.0, 20.0)))
    t = BallAutomorphism(tmat, p, q)
    a = random_ball_point(rng, p, q, 0.9)
    moved = automorphism_apply(t, a)
    norm_t = spectral_norm(tmat)
    lhs = negativeness_degree(sig, moved)
    rhs = negativeness_degree(sig, a) * norm_t ** -2
    if lhs < rhs - 1e-9:
        yield f"degree transport {lhs:.6e} < {rhs:.6e}"
    elliptic_lhs = 1.0 - spectral_norm(moved.matrix) ** 2
    if elliptic_lhs < norm_t ** -2 * negativeness_degree(sig, a) - 1e-9:
        yield "ellipticity bound violated"


def check_mean_inequality(rng, p, q):
    """rho(x, b_n) <= (1/n) sum_k rho(x, c_k) for the barycenter fold."""
    pts = [random_ball_point(rng, p, q, 0.8)
           for _ in range(int(rng.integers(2, 7)))]
    center = barycenter_sequence(pts)
    for _ in range(3):
        probe = random_ball_point(rng, p, q, 0.8)
        mean = np.mean([distance(probe, c) for c in pts])
        if distance(probe, center) > mean + 1e-8:
            yield "mean inequality violated"


def check_graph_roundtrip(rng, p, q):
    """subspace_to_ball inverts graph_subspace."""
    sig = PontryaginSignature(p, q)
    a = random_ball_point(rng, p, q, 0.9)
    back = subspace_to_ball(sig, graph_subspace(sig, a))
    err = spectral_norm(back.matrix - a.matrix)
    if err > 1e-10:
        yield f"roundtrip off by {err:.3e}"
    mixed = graph_subspace(sig, a) @ np.triu(
        rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        + 3.0 * np.eye(q))
    back2 = subspace_to_ball(sig, mixed)
    err2 = spectral_norm(back2.matrix - a.matrix)
    if err2 > 1e-9:
        yield f"rescaled roundtrip off by {err2:.3e}"


# name -> (scope, instances per requested trial, property); heavier suites
# get fewer instances per requested trial count
SUITES = {
    "metric-line": ("appendix", 0.2, check_metric_line),
    "unit-speed": ("appendix", 0.3, check_unit_speed),
    "met-lemma": ("appendix", 1.0, check_met_lemma),
    "lemma-inequality": ("appendix", 1.0, check_lemma_inequality),
    "doubling-convexity": ("appendix", 1.0, check_doubling_convexity),
    "line-invariance": ("appendix", 0.3, check_line_invariance),
    "mobius-differential": ("appendix", 0.3, check_mobius_differential),
    "unique-line": ("appendix", 0.3, check_unique_line),
    "th-series": ("appendix", 1.0, check_th_series),
    "alpha-distance": ("appendix", 1.0, check_alpha_distance),
    "segment-convexity": ("all", 1.0, check_segment_convexity),
    "mobius-inverse": ("all", 1.0, check_mobius_inverse),
    "isometry-invariance": ("all", 1.0, check_isometry_invariance),
    "lipschitz": ("all", 1.0, check_lipschitz),
    "degree-transport": ("all", 1.0, check_degree_transport),
    "mean-inequality": ("all", 0.2, check_mean_inequality),
    "graph-roundtrip": ("all", 1.0, check_graph_roundtrip),
}


def run_checks(suite: str = "appendix", trials: int = 200, seed: int = 0):
    """Run the selected property suites; returns a JSON-ready summary."""
    if suite not in ("appendix", "all"):
        raise ValueError(f"unknown suite {suite!r} (use 'appendix' or 'all')")
    results = {}
    all_failures = []
    for index, (name, (scope, scale, check)) in enumerate(SUITES.items()):
        if suite == "appendix" and scope != "appendix":
            continue
        n = max(3, int(trials * scale))
        rng = np.random.default_rng([seed, index])
        failures = [f"trial {k}: {msg}"
                    for k in range(n) for msg in check(rng, *_dims(rng))]
        results[name] = {"trials": n, "failures": failures}
        all_failures.extend(f"{name}: {msg}" for msg in failures)
    return {"passed": not all_failures, "failures": all_failures,
            "suites": results}
