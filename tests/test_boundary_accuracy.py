"""Accuracy of ``distance`` near the boundary against a 40-digit mpmath
oracle, and the one-SVD cost of the defect roots that carry it."""

import mpmath as mp
import numpy as np
import pytest

from opball.hyperbolic import distance
from opball.mobius import BallPoint, defect_roots
from opball.sampling import complex_gaussian, rng_from

PAIRS = 10


def _point_at_margin(rng, margin):
    z = complex_gaussian(rng, 3, 2)
    return z * ((1.0 - margin) / np.linalg.norm(z, 2))


def _oracle_rho(a, b):
    """atanh ||M_{-A}(B)|| at 40 digits.  With Y = (B - A)(1 - A*B)^{-1},
    M_{-A}(B) = (1-AA*)^{-1/2} Y (1-A*A)^{1/2}, so ||M_{-A}(B)||^2 is the
    largest eigenvalue of the similar matrix Y*(1-AA*)^{-1} Y (1-A*A)."""
    with mp.workdps(40):
        am, bm = mp.matrix(a.tolist()), mp.matrix(b.tolist())
        p, q = a.shape
        y = (bm - am) * mp.inverse(mp.eye(q) - am.H * bm)
        gram = y.H * mp.inverse(mp.eye(p) - am * am.H) * y \
            * (mp.eye(q) - am.H * am)
        top = max(mp.re(lam) for lam in mp.eig(gram, left=False, right=False))
        return mp.atanh(mp.sqrt(top))


def _worst_relative_error(margin):
    rng = rng_from(7)
    worst = 0.0
    for _ in range(PAIRS):
        a, b = _point_at_margin(rng, margin), _point_at_margin(rng, margin)
        want = _oracle_rho(a, b)
        got = distance(BallPoint(a), BallPoint(b))
        worst = max(worst, float(abs(got - want) / want))
    return worst


# at margin 1e-6 the bound is loose: what it pins is that no pair raises
# BoundaryProximity on its way through the chart
@pytest.mark.parametrize("margin, bound", [(1e-4, 1e-6), (1e-5, 2e-4),
                                           (1e-6, 5e-2)])
def test_distance_near_the_boundary_matches_the_oracle(margin, bound):
    assert _worst_relative_error(margin) <= bound


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
