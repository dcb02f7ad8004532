"""The invariant hyperbolic metric on the operator ball and its geodesics.

The distance rho(A, B), tanh rho = ||M_{-A}(B)||, is the Caratheodory
metric of the ball.  It is taken as rho = asinh ||K|| with
K = (1 - AA*)^{-1/2} (B - A) (1 - B*B)^{-1/2}, which by Harris' identity
has singular values sinh rho_i where M_{-A}(B) has tanh rho_i, and the
same left singular vectors; K subtracts no numbers near 1.  On the disc,
sinh rho = |z - w| / sqrt((1 - |z|^2)(1 - |w|^2)).  Lines are the curves
gamma_{A,D}(t) = M_A(Th(t D)) with D of unit norm, where Th is the odd
operator extension of tanh; they are isometric copies of the real line,
and the convex-combination operator (1-t)x (+) ty moves along them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BoundaryProximity,
    CoincidentPoints,
    GridTooCoarse,
    ParameterOverflow,
    ZeroInput,
)
from .mobius import (
    BOUNDARY_TOL,
    BallPoint,
    _differential_rooted,
    _mobius_rooted,
    _require_each,
    _require_inside,
    _require_resolvent,
    defect_roots,
)
from .opcore import _fit, _operand, _require_finite, adjoint, spectral_norm

DIR_TOL = 1e-8
LINE_TOL = 1e-12
DIAM_TOL = 1e-9
# tanh saturates to 1 in double precision near t = 18; beyond that the
# geodesic point would collapse onto the boundary.
PARAM_MAX = 18.0


def poincare_scalar(z1: complex, z2: complex) -> float:
    """Poincare distance on the unit disc; the 1x1 oracle for ``distance``."""
    z1, z2 = complex(z1), complex(z2)
    _require_finite(np.array([z1, z2]), "disc point")
    if abs(z1) >= 1.0 - BOUNDARY_TOL or abs(z2) >= 1.0 - BOUNDARY_TOL:
        raise BoundaryProximity("disc points must stay inside the unit circle")
    u = abs((z1 - z2) / (1.0 - z1.conjugate() * z2))
    if u >= 1.0:
        raise BoundaryProximity(f"disc distance argument {u!r} rounded to 1")
    return math.atanh(u)


# the exponents of the roots (1 - A*A)^{1/2} and (1 - B*B)^{-1/2} that
# ``_sinh_form`` takes in one stacked call, for a matrix pair (ndim 2) and
# a stack pair (ndim 3)
_SINH_EXPONENTS = {ndim: np.array([0.5, -0.5]).reshape((2,) + (1,) * ndim)
                   for ndim in (2, 3)}


def _sinh_form(a: np.ndarray, b: np.ndarray):
    """K, and A's roots (1 - AA*)^{-1/2} and (1 - A*A)^{1/2} for M_{-A} and
    M_A, for two matrices or two (n, p, q) stacks of one shape, in one
    stacked call."""
    _fit(b.shape, a.shape, "point B")
    left, right = defect_roots(np.stack([a, b]), -0.5, _SINH_EXPONENTS[a.ndim])
    return left[0] @ (b - a) @ right[1], (left[0], right[0])


def _rho(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rho(A, B) = asinh ||K||: the one rho kernel."""
    return np.arcsinh(np.linalg.svd(_sinh_form(a, b)[0], compute_uv=False)[..., 0])


def distance(a: BallPoint, b: BallPoint) -> float:
    """rho(A, B), tanh rho = ||M_{-A}(B)||; invariant under all
    eta-preserving fractional-linear automorphisms."""
    return float(_rho(a.matrix, b.matrix))


def _polar_tanh(w, sig, vh, t) -> np.ndarray:
    """Th(t D) = W tanh(t S) V* from the thin SVD D = W S V*; an array of
    parameters shaped (..., 1, 1) gives the stack of Th(t_i D)."""
    return (w * np.tanh(t * sig)) @ vh


def th_map(d) -> np.ndarray:
    """Odd tanh extension: Th(D) = J tanh|D| in polar form, via SVD."""
    d = _require_finite(np.asarray(d, dtype=np.complex128), "matrix")
    return _polar_tanh(*np.linalg.svd(d, full_matrices=False), 1.0)


@lru_cache(maxsize=None)
def _tanh_coefficients(count: int):
    # odd Taylor coefficients of tanh from y' = 1 - y^2
    deg = 2 * count
    c = [0.0] * (deg + 1)
    c[1] = 1.0
    for k in range(1, deg):
        conv = sum(c[i] * c[k - i] for i in range(k + 1))
        c[k + 1] = -conv / (k + 1)
    return tuple(c[2 * n + 1] for n in range(count))


def th_series(d, terms: int = 60) -> np.ndarray:
    """Direct summation of the defining odd power series of Th.

    Slow cross-check oracle only; converges for ||D|| < pi/2 and the
    truncation error scales like (2 ||D|| / pi)^(2 * terms).  ``terms`` must
    be an integer (not a bool) of at least 1, and ``d`` finite, as
    ``th_map`` checks it.
    """
    if isinstance(terms, bool) or not isinstance(terms, (int, np.integer)):
        raise ValueError(f"terms must be an integer, got {terms!r}")
    if terms < 1:
        raise ValueError(f"terms must be at least 1, got {terms!r}")
    d = _require_finite(np.asarray(d, dtype=np.complex128), "matrix")
    coeffs = _tanh_coefficients(terms)
    gram = d @ adjoint(d)
    power = d  # D^{(2n+1)} = (D D*)^n D
    acc = coeffs[0] * power
    for n in range(1, terms):
        power = gram @ power
        acc = acc + coeffs[n] * power
    return acc


def th_inverse(b: BallPoint):
    """Invert Th on the ball: returns ``(direction, t)`` with unit-norm
    ``direction`` and ``th_map(t * direction) = B``, ``t = atanh ||B||``."""
    w, sig, vh = np.linalg.svd(b.matrix, full_matrices=False)
    if sig[0] <= 0.0:
        raise ZeroInput("direction of the zero point is undefined")
    angles = np.arctanh(sig)
    t = float(angles[0])
    direction = (w * (angles / t)) @ vh
    return direction, t


class GeodesicLine:
    """The line t -> M_A(Th(t D)) through ``base`` with unit direction D; it
    keeps, read-only, the thin SVD D = W S V* that its norm check takes and
    the base's roots (1 - AA*)^{-1/2} and (1 - A*A)^{1/2} that M_A takes."""

    __slots__ = ("base", "direction", "_polar", "_roots")

    def __init__(self, base: BallPoint, direction):
        self._set(base, direction, None)

    def _set(self, base, direction, roots):
        d = _operand(direction, base.shape, "direction")
        polar = np.linalg.svd(d, full_matrices=False)
        norm = float(polar.S[0])
        if abs(norm - 1.0) > DIR_TOL:
            raise ValueError(f"direction norm {norm!r} not 1 within {DIR_TOL!r}")
        roots = defect_roots(base.matrix, -0.5, 0.5) if roots is None else roots
        for kept in (*polar, *roots):
            kept.setflags(write=False)
        self.base = base
        self.direction = d
        self._polar = polar
        self._roots = roots
        return self

    def __repr__(self):
        return f"GeodesicLine(base={self.base!r})"


def _line_inner(line: GeodesicLine, t):
    """The inner points W tanh(tS) V* of the line, one matrix for a
    parameter and a stack for a 1-D array of them, after the checks that
    each parameter is finite (``ValueError``) and within ``PARAM_MAX``;
    and, for each point, the lower bound 1 - ||A|| tanh(|t| S[0]) of the
    least singular value of its resolvents, from the base's margin and the
    top singular value of the direction (``mobius._resolvent_cleared``)."""
    t = _require_finite(np.asarray(t, dtype=np.float64), "parameter")
    size = np.abs(t)
    _require_each(size <= PARAM_MAX, ParameterOverflow,
                  "|t| = {!r} beyond tanh saturation", size)
    w, sig, vh = line._polar
    bound = 1.0 - (1.0 - line.base.margin) * np.tanh(size * sig[0])
    return _polar_tanh(w, sig, vh, t[..., None, None]), bound


def _line_points(line: GeodesicLine, t):
    """gamma(t) = M_A(W tanh(tS) V*) from the line's kept factors and roots,
    for a parameter or for each parameter of a 1-D array: the points (one
    read-only matrix or stack) and their norms.  Each point is checked as
    ``geodesic_point`` checks it, the whole stack at once: the ``COND_TOL``
    resolvent checks read their bound off the base's margin and the inner
    points' norms tanh(|t| S[0]) and take one batched SVD only where that
    bound cannot decide (``mobius._resolvent_cleared``); then one solve and
    one batched SVD for the norms."""
    a = line.base.matrix
    inner, bound = _line_inner(line, t)
    _require_resolvent(a, inner, bound)
    points = _mobius_rooted(a, inner, *line._roots)
    norms = _require_inside(points, 0.0)
    points.setflags(write=False)
    return points, norms


def geodesic_point(line: GeodesicLine, t: float) -> BallPoint:
    """gamma(t) = M_A(W tanh(tS) V*) from the line's kept factors and roots:
    one SVD (the point's norm) and one solve, and a second SVD for the
    resolvent check only where its bound 1 - ||A|| tanh(|t| S[0]) cannot
    decide (``_line_points``).  An array ``t`` of one or more dimensions
    raises ``ValueError`` before any of them: the finiteness error of
    ``_line_inner`` if an entry is not finite, else one naming its shape."""
    if np.ndim(t):
        _require_finite(np.asarray(t, dtype=np.float64), "parameter")
        raise ValueError(f"parameter must be a number, got shape {np.shape(t)}")
    return object.__new__(BallPoint)._set(*_line_points(line, t))


def geodesic_velocity(line: GeodesicLine, t: float) -> np.ndarray:
    """Derivative of the geodesic at parameter t, or the stack of them at
    each parameter of a 1-D array: the differential of M_A at the inner
    point g = Th(tD), applied to its closed-form derivative D - g D* g, from
    the line's kept roots; the two resolvent checks, whose bound is that of
    ``_line_points``, are its only SVDs, taken only where it cannot decide."""
    g, bound = _line_inner(line, t)
    d = line.direction
    gdot = d - g @ adjoint(d) @ g
    return _differential_rooted(line.base.matrix, g, gdot, *line._roots, bound)


def _segment(x: BallPoint, y: BallPoint):
    """The polar form M_{-x}(y) = W diag(tanh rho_i) V*, with rho_i and W
    read off K: ``(rho_i, W, V*, roots)``, and the roots of x that M_x takes."""
    k, roots = _sinh_form(x.matrix, y.matrix)
    w, sinh_rho, _ = np.linalg.svd(k, full_matrices=False)
    rhos = np.arcsinh(sinh_rho)
    wm = adjoint(w) @ _mobius_rooted(-x.matrix, y.matrix, *roots)
    vh = np.divide(wm, np.tanh(rhos)[:, None], out=np.zeros_like(wm),
                   where=rhos[:, None] > 0.0)
    return rhos, w, vh, roots


def line_through(a: BallPoint, b: BallPoint) -> GeodesicLine:
    """The unique line with gamma(0) = A and gamma(rho(A,B)) = B."""
    return _line_and_gap(a, b)[0]


def _line_and_gap(a: BallPoint, b: BallPoint):
    """``line_through(a, b)`` and rho(A, B), read off the one SVD it takes."""
    rhos, w, vh, roots = _segment(a, b)
    if rhos[0] <= LINE_TOL:
        raise CoincidentPoints(f"points at distance {rhos[0]!r} define no line")
    line = object.__new__(GeodesicLine)._set(a, (w * (rhos / rhos[0])) @ vh,
                                             roots)
    return line, float(rhos[0])


def convex_combination(x: BallPoint, y: BallPoint, t: float) -> BallPoint:
    """z = (1-t)x (+) ty = M_x(W diag(tanh(t rho_i)) V*), rho(z, x) = t rho."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    if t > 0.5:  # from the nearer end, so tanh(t rho) stays below 1
        return convex_combination(y, x, 1.0 - t)
    rhos, w, vh, roots = _segment(x, y)
    if rhos[0] <= LINE_TOL:
        return x
    inner = _polar_tanh(w, rhos, vh, t)
    return BallPoint(_mobius_rooted(x.matrix, inner, *roots), boundary_tol=0.0)


def alpha_metric(a: BallPoint, v) -> float:
    """Differential metric alpha(A, V) = ||(1-AA*)^{-1/2} V (1-A*A)^{-1/2}||."""
    return float(_alpha(a.matrix, _operand(v, a.shape, "tangent vector")))


def _alpha(a: np.ndarray, v: np.ndarray):
    """alpha(A, V) for a matrix pair, or for each pair of stacks that
    broadcast, from one batched SVD of A and one of the product."""
    left, right = defect_roots(a, -0.5, -0.5)
    return spectral_norm(left @ v @ right)


def curve_length(ts, points: Sequence[BallPoint], velocities=None) -> float:
    """Composite-Simpson estimate of the alpha-length of a sampled curve.

    ``velocities`` may give the derivative matrix at each node; when absent
    it is approximated by second-order differences of the sample.  The
    speeds are one ``_alpha`` of the stacked points and velocities, which
    must have the points' shape (else ``ShapeMismatch``) and be finite
    (else ``ValueError``).
    """
    ts = np.asarray(ts, dtype=np.float64)
    _fit(ts.shape, (len(points),), "parameter grid")
    if len(ts) < 3:
        raise GridTooCoarse(f"need at least 3 nodes, got {len(ts)}")
    if not np.all(np.diff(ts) > 0):
        raise ValueError("parameter grid must be strictly increasing")
    stack = np.stack([pt.matrix for pt in points])
    if velocities is None:
        velocities = np.gradient(stack, ts, axis=0)
    speeds = _alpha(stack, _operand(velocities, stack.shape, "tangent vector"))
    return _simpson(speeds, ts)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y on an increasing grid x of at
    least 3 nodes, spaced evenly or not.  Each pair of intervals (h0, h1)
    integrates the parabola through its three nodes; with an even node
    count the last interval, left over, integrates the parabola through
    the last three nodes (Cartwright 2017).
    """
    h = np.diff(x)
    # the pairs cover the first ``odd`` nodes: all of them, or all but one
    odd = len(y) - 1 + len(y) % 2
    h0, h1 = h[:odd - 2:2], h[1:odd - 1:2]
    y0, y1, y2 = y[:odd - 2:2], y[1:odd - 1:2], y[2:odd:2]
    total = np.sum((h0 + h1) / 6.0 * (y0 * (2.0 - h1 / h0)
                                      + y1 * (h0 + h1) ** 2 / (h0 * h1)
                                      + y2 * (2.0 - h0 / h1)))
    if odd < len(y):
        h0, h1 = h[-2], h[-1]
        total += ((2.0 * h1 + 3.0 * h0) * h1 / (6.0 * (h0 + h1)) * y[-1]
                  + (h1 + 3.0 * h0) * h1 / (6.0 * h0) * y[-2]
                  - h1 ** 3 / (6.0 * h0 * (h0 + h1)) * y[-3])
    return float(total)


class MetricSample:
    """A finite point set with its cached pairwise rho-table."""

    __slots__ = ("points", "pairwise")

    def __init__(self, points: Sequence[BallPoint]):
        points = list(points)
        if not points:
            raise ValueError("sample must contain at least one point")
        mats = np.stack([pt.matrix for pt in points])
        # rho(points[i], points[j]) for i < j, from one kernel call
        first, second = np.triu_indices(len(points), 1)
        table = np.zeros((len(points), len(points)))
        table[first, second] = _rho(mats[first], mats[second])
        table += table.T
        if len(points) >= 3:
            slack = (table[:, :, None] + table[None, :, :]).min(axis=1) - table
            worst = float(slack.min())
            if worst < -DIAM_TOL:
                raise ArithmeticError(
                    f"triangle inequality violated by {-worst:.3e}")
        table.setflags(write=False)
        self.points = points
        self.pairwise = table

    def __len__(self):
        return len(self.points)


def diameter(sample: MetricSample):
    """Largest pairwise distance and an attaining index pair."""
    n = len(sample)
    if n == 1:
        return 0.0, (0, 0)
    i, j = np.unravel_index(int(np.argmax(sample.pairwise)), (n, n))
    return float(sample.pairwise[i, j]), (min(i, j), max(i, j))


def diametral_check(sample: MetricSample, index: int):
    """Whether the point's farthest in-sample distance attains the diameter.
    ``index`` must be an integer, a numpy one too, in [0, len(sample)): a
    bool, a float or any other value raises ``IndexError`` naming it."""
    if (isinstance(index, bool) or not isinstance(index, (int, np.integer))
            or not 0 <= index < len(sample)):
        raise IndexError(f"index {index!r} out of range")
    radius = float(sample.pairwise[index].max())
    diam, _ = diameter(sample)
    return radius >= diam - DIAM_TOL, radius


def barycenter_sequence(points: Sequence[BallPoint]) -> BallPoint:
    """Fold the running center of mass b_{n+1} = (n/(n+1)) b_n (+)
    (1/(n+1)) c_{n+1} over the list; satisfies the mean inequality
    rho(x, b_n) <= (1/n) sum_k rho(x, c_k) for every probe x."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    center = points[0]
    for n, nxt in enumerate(points[1:], start=1):
        center = convex_combination(center, nxt, 1.0 / (n + 1))
    return center
