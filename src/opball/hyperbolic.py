"""The invariant hyperbolic metric on the operator ball and its geodesics.

The distance is rho(A, B) = atanh ||M_{-A}(B)||, the Caratheodory metric
of the ball.  Lines are the curves gamma_{A,D}(t) = M_A(Th(t D)) with D of
unit norm, where Th is the odd operator extension of tanh; they are
isometric copies of the real line, and the convex-combination operator
(1-t)x (+) ty moves along them.
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
    defect_roots,
    mobius_batch,
    mobius_differential,
    mobius_matrix,
)
from .opcore import adjoint, spectral_norm

DIR_TOL = 1e-8
LINE_TOL = 1e-12
DIAM_TOL = 1e-9
# tanh saturates to 1 in double precision near t = 18; beyond that the
# geodesic point would collapse onto the boundary.
PARAM_MAX = 18.0


def _atanh(u: float) -> float:
    # series fallback keeps relative accuracy for near-identical points
    if u < 1e-8:
        return u + u ** 3 / 3.0
    if u >= 1.0:
        raise BoundaryProximity(f"atanh argument {u!r} reached 1")
    return math.atanh(u)


def poincare_scalar(z1: complex, z2: complex) -> float:
    """Poincare distance on the unit disc; the 1x1 oracle for ``distance``."""
    z1, z2 = complex(z1), complex(z2)
    if abs(z1) >= 1.0 - BOUNDARY_TOL or abs(z2) >= 1.0 - BOUNDARY_TOL:
        raise BoundaryProximity("disc points must stay inside the unit circle")
    return _atanh(abs((z1 - z2) / (1.0 - z1.conjugate() * z2)))


def _chart_lift(a: BallPoint, b: BallPoint):
    """M_{-A}(B), B seen from the chart centred at A, and rho(A, B) = atanh
    of its norm."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    moved = mobius_matrix(-a.matrix, b.matrix)
    return moved, _atanh(spectral_norm(moved))


def distance(a: BallPoint, b: BallPoint) -> float:
    """rho(A, B) = atanh ||M_{-A}(B)||; invariant under all eta-preserving
    fractional-linear automorphisms."""
    return _chart_lift(a, b)[1]


def distances_from(base: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Batched rho(base, others[i]) for a stack of matrices (n, p, q).

    Shares the Mobius factors of the base point across the stack; the
    solver hot loops live on this.
    """
    base = np.asarray(base, dtype=np.complex128)
    others = np.asarray(others, dtype=np.complex128)
    return _rho_batch(base[None], others[None])[0]


def _atanh_all(norms: np.ndarray, saturate: bool = False) -> np.ndarray:
    """``_atanh`` over an array; ``inf`` at norms >= 1 with ``saturate``."""
    hit = norms >= 1.0
    if not saturate and hit.any():
        raise BoundaryProximity(
            f"atanh argument {float(norms[hit][0])!r} reached 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(norms < 1e-8, norms + norms ** 3 / 3.0, np.arctanh(norms))
    return np.where(hit, np.inf, rho)


def _rho_batch(bases: np.ndarray, others: np.ndarray, saturate: bool = False,
               max_axis=None) -> np.ndarray:
    """rho(bases[k], others[k, i]) as an (m, n) array, from one stacked SVD
    of the lifted stack.  With ``saturate`` a boundary-collapsed pair yields
    ``inf`` instead of raising ``BoundaryProximity``.  ``max_axis`` reduces
    by the maximum over that axis before ``atanh``, which is increasing."""
    lifted = mobius_batch(-bases[:, None], others)
    norms = np.linalg.svd(lifted, compute_uv=False)[..., 0]
    if max_axis is not None:
        norms = norms.max(axis=max_axis)
    return _atanh_all(norms, saturate)


def th_map(d) -> np.ndarray:
    """Odd tanh extension: Th(D) = J tanh|D| in polar form, via SVD."""
    d = np.asarray(d, dtype=np.complex128)
    w, sig, vh = np.linalg.svd(d, full_matrices=False)
    return (w * np.tanh(sig)) @ vh


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
    truncation error scales like (2 ||D|| / pi)^(2 * terms).
    """
    d = np.asarray(d, dtype=np.complex128)
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
    """The line t -> M_A(Th(t D)) through ``base`` with unit direction."""

    __slots__ = ("base", "direction")

    def __init__(self, base: BallPoint, direction):
        d = np.asarray(direction, dtype=np.complex128)
        if d.shape != base.shape:
            raise ValueError(f"direction shape {d.shape} != base {base.shape}")
        norm = spectral_norm(d)
        if abs(norm - 1.0) > DIR_TOL:
            raise ValueError(f"direction norm {norm!r} not 1 within {DIR_TOL!r}")
        d = d.copy()
        d.setflags(write=False)
        self.base = base
        self.direction = d

    def __repr__(self):
        return f"GeodesicLine(base={self.base!r})"


def geodesic_point(line: GeodesicLine, t: float) -> BallPoint:
    if abs(t) > PARAM_MAX:
        raise ParameterOverflow(f"|t| = {abs(t)!r} beyond tanh saturation")
    inner = th_map(t * line.direction)
    return BallPoint(mobius_matrix(line.base.matrix, inner), boundary_tol=0.0)


def geodesic_velocity(line: GeodesicLine, t: float) -> np.ndarray:
    """Derivative of the geodesic at parameter t (chain rule through M_A;
    the inner curve Th(tD) has closed-form derivative D - g D* g)."""
    if abs(t) > PARAM_MAX:
        raise ParameterOverflow(f"|t| = {abs(t)!r} beyond tanh saturation")
    d = line.direction
    g = th_map(t * d)
    gdot = d - g @ adjoint(d) @ g
    return mobius_differential(line.base, BallPoint(g, boundary_tol=0.0), gdot)


def line_through(a: BallPoint, b: BallPoint) -> GeodesicLine:
    """The unique line with gamma(0) = A and gamma(rho(A,B)) = B."""
    moved, rho = _chart_lift(a, b)
    if rho <= LINE_TOL:
        raise CoincidentPoints(f"points at distance {rho!r} define no line")
    direction, _ = th_inverse(BallPoint(moved, boundary_tol=0.0))
    return GeodesicLine(a, direction)


def convex_combination(x: BallPoint, y: BallPoint, t: float) -> BallPoint:
    """z = (1-t)x (+) ty: the point of [x, y] with rho(z, x) = t rho(x, y)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    moved, rho = _chart_lift(x, y)
    if rho <= LINE_TOL:
        return x
    direction, _ = th_inverse(BallPoint(moved, boundary_tol=0.0))
    return geodesic_point(GeodesicLine(x, direction), t * rho)


def alpha_metric(a: BallPoint, v) -> float:
    """Differential metric alpha(A, V) = ||(1-AA*)^{-1/2} V (1-A*A)^{-1/2}||."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != a.shape:
        raise ValueError(f"shape mismatch {v.shape} vs {a.shape}")
    left, right = defect_roots(a.matrix, -0.5, -0.5)
    return spectral_norm(left @ v @ right)


def curve_length(ts, points: Sequence[BallPoint], velocities=None) -> float:
    """Composite-Simpson estimate of the alpha-length of a sampled curve.

    ``velocities`` may give the derivative matrix at each node; when absent
    it is approximated by second-order differences of the sample.
    """
    from scipy.integrate import simpson

    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1 or len(ts) != len(points):
        raise ValueError("parameter grid and points must align")
    if len(ts) < 3:
        raise GridTooCoarse(f"need at least 3 nodes, got {len(ts)}")
    if not np.all(np.diff(ts) > 0):
        raise ValueError("parameter grid must be strictly increasing")
    if velocities is None:
        stack = np.stack([pt.matrix for pt in points])
        velocities = list(np.gradient(stack, ts, axis=0))
    speeds = [alpha_metric(pt, v) for pt, v in zip(points, velocities)]
    return float(simpson(speeds, x=ts))


class MetricSample:
    """A finite point set with its cached pairwise rho-table."""

    __slots__ = ("points", "pairwise")

    def __init__(self, points: Sequence[BallPoint]):
        points = list(points)
        if not points:
            raise ValueError("sample must contain at least one point")
        n = len(points)
        mats = np.stack([pt.matrix for pt in points])
        # rho(points[i], points[j]) for i < j, from one kernel call
        full = _rho_batch(mats, np.broadcast_to(mats, (n,) + mats.shape))
        upper = np.triu(full, 1)
        table = upper + upper.T
        if n >= 3:
            slack = (table[:, :, None] + table[None, :, :]).min(axis=1) - table
            worst = float(slack.min())
            if worst < -1e-9:
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
    """Whether the point's farthest in-sample distance attains the diameter."""
    if not 0 <= index < len(sample):
        raise IndexError(f"index {index} out of range")
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
