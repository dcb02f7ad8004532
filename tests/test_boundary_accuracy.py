"""Accuracy of ``distance``, ``line_through``, ``geodesic_point`` and
``convex_combination`` near the boundary against a 40-digit mpmath oracle,
and the one-SVD cost of the defect roots that carry them."""

import mpmath as mp
import numpy as np
import pytest

from opball.errors import OperatorBallError
from opball.hyperbolic import (
    convex_combination,
    distance,
    geodesic_point,
    line_through,
)
from opball.mobius import BallPoint, defect_roots
from opball.sampling import complex_gaussian, rng_from

PAIRS = 10
SEEDS = (1, 2, 7)
CONVEX_T = 0.3


def _point_at_margin(rng, margin):
    z = complex_gaussian(rng, 3, 2)
    return z * ((1.0 - margin) / np.linalg.norm(z, 2))


def _herm_apply(h, fn):
    """fn of a Hermitian mpmath matrix, through its eigendecomposition."""
    lam, vecs = mp.eighe(h)
    return vecs * mp.diag([fn(mp.re(x)) for x in lam]) * vecs.H


def _oracle(a, b, t):
    """rho(A, B), the direction of the line from A through B, and
    (1-t)A (+) tB at 40 digits, all read off M = M_{-A}(B) = W diag(s) V*:
    rho = atanh s_1, the direction is W diag(atanh s_i / rho) V*, and the
    point is M_A(W diag(tanh(t atanh s_i)) V*)."""
    with mp.workdps(40):
        am, bm = mp.matrix(a.tolist()), mp.matrix(b.tolist())
        p, q = a.shape
        left = _herm_apply(mp.eye(p) - am * am.H, lambda v: 1 / mp.sqrt(v))
        right = _herm_apply(mp.eye(q) - am.H * am, mp.sqrt)
        m = left * (bm - am) * mp.inverse(mp.eye(q) - am.H * bm) * right
        gram = m.H * m
        rho = mp.atanh(mp.sqrt(max(mp.re(x) for x in mp.eighe(gram)[0])))

        def scaled(fn):
            # M h(M*M) with h(s^2) = fn(s) / s: M's singular values become fn
            return m * _herm_apply(gram, lambda mu: fn(mp.sqrt(mu)) / mp.sqrt(mu))

        direction = scaled(lambda s: mp.atanh(s) / rho)
        inner = scaled(lambda s: mp.tanh(t * mp.atanh(s)))
        point = left * (am + inner) * mp.inverse(mp.eye(q) + am.H * inner) * right
        return (rho, np.array(direction.tolist(), dtype=complex),
                np.array(point.tolist(), dtype=complex))


def _relative(got, want):
    return float(np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2))


def _worst_relative_error(margin):
    rng = rng_from(7)
    worst = 0.0
    for _ in range(PAIRS):
        a, b = _point_at_margin(rng, margin), _point_at_margin(rng, margin)
        want = _oracle(a, b, CONVEX_T)[0]
        got = distance(BallPoint(a), BallPoint(b))
        worst = max(worst, float(abs(got - want) / want))
    return worst


# at margin 1e-6 the bound is loose: what it pins is that no pair raises
# BoundaryProximity on its way through the chart
@pytest.mark.parametrize("margin, bound", [(1e-4, 1e-6), (1e-5, 2e-4),
                                           (1e-6, 5e-2)])
def test_distance_near_the_boundary_matches_the_oracle(margin, bound):
    assert _worst_relative_error(margin) <= bound


# Input-rounding model: rounding the inputs by eps moves their margin by
# eps / margin relative, and rho, the line, its points and the segment
# follow the margin; 2e-16 / margin is about that.
@pytest.mark.parametrize("margin", [1e-2, 1e-4, 1e-6, 1.01e-8])
def test_rho_line_and_segment_near_the_boundary_match_the_oracle(margin):
    bound = 2e-16 / margin
    errors, raised = [], []
    for seed in SEEDS:
        rng = rng_from(seed)
        for _ in range(PAIRS):
            a, b = _point_at_margin(rng, margin), _point_at_margin(rng, margin)
            rho, direction, point = _oracle(a, b, CONVEX_T)
            try:
                x, y = BallPoint(a), BallPoint(b)
                errors.append(float(abs(distance(x, y) - rho) / rho))
                line = line_through(x, y)
                errors.append(_relative(line.direction, direction))
                errors.append(_relative(
                    convex_combination(x, y, CONVEX_T).matrix, point))
                errors.append(_relative(
                    geodesic_point(line, CONVEX_T * float(rho)).matrix, point))
            except OperatorBallError as exc:
                raised.append(type(exc).__name__)
    assert raised == []
    assert max(errors) <= bound


def test_defect_roots_take_one_svd_and_no_eigh(monkeypatch):
    calls = {"svd": 0, "eigh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = rng_from(8)
    matrix = _point_at_margin(rng, 0.5)
    stack = np.stack([matrix, 0.5 * matrix, -matrix])
    for a in (matrix, stack):
        calls.update(svd=0, eigh=0)
        defect_roots(a, -0.5, 0.5)
        assert calls == {"svd": 1, "eigh": 0}
