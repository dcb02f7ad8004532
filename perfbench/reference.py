"""High-precision references computed with mpmath, apart from opball.

Every matrix function is taken through one Hermitian eigendecomposition of
the smaller Gram matrix (A*A or AA*), using the intertwining identity
f(AA*) A = A f(A*A), so a reference costs what its smaller dimension
costs.  Inputs are the exact double-precision arrays the program received.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

mp.mp.dps = 40
# below this an eigenvalue of a Gram matrix is a rounding zero
_TINY = mp.mpf(10) ** -30


def to_mp(a) -> mp.matrix:
    a = np.asarray(a, dtype=np.complex128)
    return mp.matrix([[mp.mpc(float(z.real), float(z.imag)) for z in row]
                      for row in a])


def to_np(m: mp.matrix) -> np.ndarray:
    return np.array([[complex(m[i, j]) for j in range(m.cols)]
                     for i in range(m.rows)], dtype=np.complex128)


def _eig(h: mp.matrix):
    lam, vecs = mp.eighe((h + h.H) / 2)
    return [mp.re(x) for x in lam], vecs


def _from_eig(eig, f) -> mp.matrix:
    lam, vecs = eig
    n = len(lam)
    vals = [f(x) for x in lam]
    scaled = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            scaled[i, j] = vecs[i, j] * vals[j]
    return scaled * vecs.H


def herm_apply(h: mp.matrix, f) -> mp.matrix:
    """f(H) for Hermitian H, through its eigendecomposition."""
    return _from_eig(_eig(h), f)


def gram_functions(a: mp.matrix, *fs):
    """For each f = (f0, g), meaning f(mu) = f0 + mu g(mu), the pair
    (f(AA*), f(A*A)), all from one eigendecomposition of the smaller Gram
    matrix."""
    tall = a.cols <= a.rows
    eig = _eig(a.H * a if tall else a * a.H)
    out = []
    for f0, g in fs:
        full = _from_eig(eig, lambda mu: f0 + mu * g(mu))
        if tall:
            out.append((mp.eye(a.rows) * f0 + a * _from_eig(eig, g) * a.H, full))
        else:
            out.append((full, mp.eye(a.cols) * f0 + a.H * _from_eig(eig, g) * a))
    return out


def _slope(fn, f0, d1):
    """g(mu) = (fn(mu) - f0) / mu, with the limit d1 at rounding zeros."""
    return lambda mu: d1 if abs(mu) < _TINY else (fn(mu) - f0) / mu


_INV_SQRT = (mp.mpf(1), _slope(lambda mu: 1 / mp.sqrt(1 - mu), 1, mp.mpf(1) / 2))
_SQRT = (mp.mpf(1), _slope(lambda mu: mp.sqrt(1 - mu), 1, -mp.mpf(1) / 2))


def mobius(a: mp.matrix, x: mp.matrix) -> mp.matrix:
    """M_A(X) = (1-AA*)^{-1/2} (A+X) (1+A*X)^{-1} (1-A*A)^{1/2}."""
    (left, _), (_, right) = gram_functions(a, _INV_SQRT, _SQRT)
    return left * (a + x) * mp.inverse(mp.eye(a.cols) + a.H * x) * right


def norm2(a: mp.matrix):
    small = a.H * a if a.cols <= a.rows else a * a.H
    lam = mp.eighe((small + small.H) / 2, eigvals_only=True)
    return mp.sqrt(max(mp.re(x) for x in lam))


def rho(a: mp.matrix, b: mp.matrix):
    """rho(A, B) = atanh ||M_{-A}(B)||."""
    return mp.atanh(norm2(mobius(-a, b)))


def scaled_by_gram(w: mp.matrix, fn, f0):
    """W h(W*W) (= h(WW*) W) for h(mu) = fn(sqrt(mu)) / sqrt(mu), with the
    limit f0 at mu = 0."""
    def h(mu):
        return f0 if mu < _TINY else fn(mp.sqrt(mu)) / mp.sqrt(mu)
    if w.cols <= w.rows:
        return w * herm_apply(w.H * w, h)
    return herm_apply(w * w.H, h) * w


def th(d: mp.matrix, t) -> mp.matrix:
    """Th(tD): the singular values s of D become tanh(t s)."""
    return scaled_by_gram(d, lambda s: mp.tanh(t * s), t)


def geodesic_point(base: mp.matrix, direction: mp.matrix, t) -> mp.matrix:
    return mobius(base, th(direction, t))


def line_direction(a: mp.matrix, b: mp.matrix):
    """(D, rho) with D of unit norm and M_A(Th(rho D)) = B."""
    w = mobius(-a, b)
    r = mp.atanh(norm2(w))
    return scaled_by_gram(w, lambda s: mp.atanh(s) / r, 1 / r), r


def convex_combination(x: mp.matrix, y: mp.matrix, t) -> mp.matrix:
    """The point of the segment [x, y] at rho-distance t rho(x, y) from x."""
    w = mobius(-x, y)
    inner = scaled_by_gram(w, lambda s: mp.tanh(t * mp.atanh(s)), t)
    return mobius(x, inner)


def barycenter(points) -> mp.matrix:
    center = points[0]
    for n, nxt in enumerate(points[1:], start=1):
        center = convex_combination(center, nxt, mp.mpf(1) / (n + 1))
    return center


def fixed_point(v: np.ndarray, p: int) -> mp.matrix:
    """V12 V22^{-1}: the point that an eta-preserving V maps 0 to."""
    vm = to_mp(v)
    n = vm.rows
    v12 = vm[0:p, p:n]
    v22 = vm[p:n, p:n]
    return v12 * mp.inverse(v22)


def rel_error(value: np.ndarray, ref: mp.matrix) -> float:
    """||value - ref|| / ||ref|| in the spectral norm, the difference taken
    in high precision."""
    diff = to_mp(value) - ref
    return float(norm2(diff) / norm2(ref))


def rel_error_scalar(value: float, ref) -> float:
    return float(abs(mp.mpf(value) - ref) / abs(ref))
