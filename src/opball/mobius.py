"""Mobius transformations of the operator ball and their block-matrix form.

A point of the ball is a strict contraction ``A`` from K (dim ``q``) to H
(dim ``p``).  The Mobius transform

    M_A(X) = (1 - A A*)^{-1/2} (A + X) (1 + A* X)^{-1} (1 - A* A)^{1/2}

is a biholomorphic automorphism with ``M_A(0) = A`` and inverse ``M_{-A}``.
Every automorphism this package consumes is represented concretely by an
eta-preserving block matrix T acting by the fractional-linear rule

    w_T(A) = (T11 A + T12)(T21 A + T22)^{-1}.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BoundaryProximity,
    DomainError,
    NotEtaPreserving,
    SingularDenominator,
    SingularResolvent,
)
from .opcore import _require_finite, adjoint, as_matrix, frobenius_norm

BOUNDARY_TOL = 1e-8
AUT_TOL = 1e-8
COND_TOL = 1e-13


class BallPoint:
    """A matrix with spectral norm strictly below 1.

    ``boundary_tol`` sets the rejection margin; construction raises
    ``BoundaryProximity`` for closer points instead of clamping.
    """

    __slots__ = ("matrix", "margin")

    def __init__(self, matrix, boundary_tol: float = BOUNDARY_TOL):
        m = as_matrix(matrix, name="ball point")
        self._set(m, _require_inside(m, boundary_tol))

    def _set(self, matrix, norm):
        self.matrix = matrix
        self.margin = 1.0 - float(norm)
        return self

    @property
    def shape(self):
        return self.matrix.shape

    def __repr__(self):
        return f"BallPoint(shape={self.matrix.shape}, margin={self.margin:.3e})"


def zero_point(p: int, q: int) -> BallPoint:
    return BallPoint(np.zeros((p, q)))


def _require_each(ok, error, message: str, values, *args):
    """Raise ``error`` unless ``ok`` holds for the one matrix measured, or for
    every matrix of a stack.  The message formats the first offending
    measured value of ``values``, then ``args``; a stack's message names the
    index of that matrix."""
    if not ok.ndim:
        if ok:
            return
        where = ""
    elif ok.all():
        return
    else:
        k = int(np.argmin(ok.reshape(-1)))
        values, where = values.reshape(-1)[k], f" at stack index {k}"
    raise error(message.format(float(values), *args) + where)


def _pick(sig: np.ndarray, k: int):
    """The k-th of the descending singular values ``sig`` of a matrix (a
    number: comparing a 0-d array would take a ufunc call per check), or of
    each matrix of a stack (an array)."""
    return sig[..., k] if sig.ndim > 1 else sig[k]


def _require_inside(m: np.ndarray, boundary_tol: float):
    """The spectral norm of a matrix, or of each matrix of a stack, raising
    ``BoundaryProximity`` unless it is below ``1 - boundary_tol``."""
    norms = _pick(np.linalg.svd(m, compute_uv=False), 0)
    _require_each(norms < 1.0 - boundary_tol, BoundaryProximity,
                  "norm {!r} not strictly below 1 - {!r}", norms, boundary_tol)
    return norms


def _require_invertible(m: np.ndarray, name: str):
    """Raise ``SingularResolvent`` where the matrix, or a matrix of the
    stack, has its least singular value below ``COND_TOL``."""
    least = _pick(np.linalg.svd(m, compute_uv=False), -1)
    _require_each(least >= COND_TOL, SingularResolvent,
                  "{1} numerically singular: least singular value {0!r} < {2!r}",
                  least, name, COND_TOL)


def defect_roots(a: np.ndarray, left: float, right: float):
    """The defect roots ``((1 - A A*)^left, (1 - A* A)^right)`` of a matrix,
    or of each matrix in a stack, from one SVD ``A = W S V*``:
    ``(1 - A A*)^e = I + W (g^e - 1) W*`` and ``(1 - A* A)^e = I + V (g^e - 1) V*``
    with ``g = (1 - s)(1 + s)``, which keeps its relative accuracy as s
    nears 1.  The exponents are 1/2 or -1/2, or per-matrix arrays of them;
    ``g`` is clamped at 0, where a negative one raises ``DomainError``."""
    w, s, vh = np.linalg.svd(a, full_matrices=False)
    g = np.maximum((1.0 - s) * (1.0 + s), 0.0)[..., None, :]
    with np.errstate(divide="ignore"):
        gl, gr = g ** left - 1.0, g ** right - 1.0
    if not (np.all(np.isfinite(gl)) and np.all(np.isfinite(gr))):
        raise DomainError("matrix function undefined at an eigenvalue near 0")
    p, q = a.shape[-2:]
    return (np.eye(p) + (w * gl) @ adjoint(w),
            np.eye(q) + (adjoint(vh) * gr) @ vh)


def mobius_batch(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M_A(X) without checks, for matrices or stacks of them that broadcast
    against each other."""
    return _mobius_rooted(a, x, *defect_roots(a, -0.5, 0.5))


def _mobius_rooted(a, x, left, right):
    """M_A(X) from A's roots ``(1 - AA*)^{-1/2}`` and ``(1 - A*A)^{1/2}``;
    the one implementation of the formula."""
    resolvent = np.eye(a.shape[-1]) + adjoint(a) @ x
    return left @ (a + x) @ np.linalg.solve(resolvent, right)


def _require_resolvent(a, x):
    """Raise ``SingularResolvent`` where 1 + A*X, for matrices or stacks that
    broadcast, is numerically singular."""
    _require_invertible(np.eye(a.shape[-1]) + adjoint(a) @ x, "1 + A*X")


def mobius_matrix(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Core formula on raw matrices, or stacks that broadcast, after the
    ``COND_TOL`` resolvent check; see ``mobius_apply`` for the checked API."""
    _require_resolvent(a, x)
    return mobius_batch(a, x)


def mobius_apply(a: BallPoint, x: BallPoint) -> BallPoint:
    """Evaluate M_A(X).  Both arguments must lie strictly inside the ball."""
    if a.shape != x.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {x.shape}")
    return BallPoint(mobius_matrix(a.matrix, x.matrix), boundary_tol=0.0)


def mobius_differential(b: BallPoint, a: BallPoint, v) -> np.ndarray:
    """Differential of M_B at A applied to V:

    (1 - BB*)^{1/2} (1 + AB*)^{-1} V (1 + B*A)^{-1} (1 - B*B)^{1/2}
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != a.shape or a.shape != b.shape:
        raise ValueError("A, B, V must share one shape")
    _require_finite(v, "tangent vector")
    return _differential_rooted(b.matrix, a.matrix, v,
                                *defect_roots(b.matrix, -0.5, 0.5))


def _differential_rooted(b, a, v, left, right):
    """The differential of M_B at A applied to V from B's roots
    ``left = (1 - BB*)^{-1/2}`` and ``right = (1 - B*B)^{1/2}``, as
    ((1 + AB*) left)^{-1} V (1 + B*A)^{-1} right, after the ``COND_TOL``
    checks of both resolvents; A and V may be stacks."""
    left_res = np.eye(b.shape[-2]) + a @ adjoint(b)
    right_res = np.eye(b.shape[-1]) + adjoint(b) @ a
    _require_invertible(left_res, "1 + AB*")
    _require_invertible(right_res, "1 + B*A")
    return np.linalg.solve(left_res @ left, v) @ np.linalg.solve(right_res, right)


class BallAutomorphism:
    """An eta-preserving block matrix acting by the fractional-linear rule.

    The block is rescaled at construction by the positive scalar that best
    fits ``T*JT`` to ``J`` (Frobenius Rayleigh estimate), so tolerance
    checks stay meaningful along long composition chains (``_eta_checked``).
    ``defect`` is measured only when read.
    """

    __slots__ = ("block", "dim_h", "dim_k")

    def __init__(self, block, dim_h: int, dim_k: int):
        t = as_matrix(block, name="automorphism block")
        n = dim_h + dim_k
        if t.shape != (n, n):
            raise ValueError(f"block must be {n}x{n}, got {t.shape}")
        self._set(_eta_checked(t, dim_h, dim_k, AUT_TOL), dim_h, dim_k)

    def _set(self, block, dim_h, dim_k):
        self.block, self.dim_h, self.dim_k = block, dim_h, dim_k
        return self

    @property
    def defect(self) -> float:
        """||T*JT - J|| of the normalized block, from one eigvalsh."""
        return eta_defect(self.block, self.dim_h, self.dim_k)

    @classmethod
    def identity(cls, dim_h: int, dim_k: int) -> "BallAutomorphism":
        return cls(np.eye(dim_h + dim_k), dim_h, dim_k)

    def blocks(self):
        p = self.dim_h
        t = self.block
        return t[:p, :p], t[:p, p:], t[p:, :p], t[p:, p:]

    def inverse(self) -> "BallAutomorphism":
        return BallAutomorphism(np.linalg.inv(self.block), self.dim_h, self.dim_k)

    def __repr__(self):
        return (f"BallAutomorphism(dim_h={self.dim_h}, dim_k={self.dim_k}, "
                f"defect={self.defect:.3e})")


def eta_matrix(dim_h: int, dim_k: int) -> np.ndarray:
    """J = diag(I_H, -I_K) for the split H (+) K."""
    return np.diag(np.concatenate([np.ones(dim_h), -np.ones(dim_k)])).astype(
        np.complex128)


def eta_defect(t: np.ndarray, dim_h: int, dim_k: int):
    """||T*JT - J||: how far T is from preserving eta; a float for a matrix,
    an array with one value per matrix for a stack."""
    t = _require_finite(np.asarray(t), "matrix")
    defect, _ = _eta_spectra(_eta_gap(t, dim_h, dim_k))
    return float(defect) if np.ndim(defect) == 0 else defect


def _eta_spectra(gap: np.ndarray, t=None):
    """||gap|| = max |eigenvalue| of the Hermitian T*JT/s - J of a matrix or
    a stack and, given T, the ascending eigenvalues of T*T, from one eigvalsh."""
    if t is None:
        return np.abs(np.linalg.eigvalsh(gap)).max(axis=-1), None
    lam = np.linalg.eigvalsh(np.stack([gap, adjoint(t) @ t]))
    return np.abs(lam[0]).max(axis=-1), lam[1]


def _eta_form(t: np.ndarray, dim_h: int, dim_k: int):
    """``(T*JT, signs)`` for a matrix of ``dim_h + dim_k`` rows or a stack,
    with J entering as its vector of signs: one product, no dense J.  The
    one kernel of every J-Gram form, of a block or of a subspace basis."""
    sign = np.ones(dim_h + dim_k)
    sign[dim_h:] = -1.0
    return adjoint(t) @ (sign[:, None] * t), sign


def _eta_gap(t: np.ndarray, dim_h: int, dim_k: int) -> np.ndarray:
    """T*JT - J for a matrix or a stack (``_eta_form``): the one kernel of
    the gap that ``eta_defect`` measures and the eta screens bound."""
    form, sign = _eta_form(t, dim_h, dim_k)
    return form - np.diag(sign)


def _eta_checked(t: np.ndarray, dim_h: int, dim_k: int, aut_tol):
    """T over the scalar s > 0 that best fits T*JT to J, s = tr(J T*JT) / n
    (Frobenius Rayleigh estimate), read-only, for a matrix or a stack,
    checked by ``||T*JT/s - J|| <= aut_tol max(1, ||T||^2/s)``, since
    forming T*JT loses ||T||^2 eps; ``aut_tol`` may hold one value per
    matrix.

    A Frobenius screen, ``||T*JT/s - J||_F <= aut_tol max(1, ||T||_F^2/(n s))``,
    passes a block first: its left side bounds the defect from above and
    ``||T||_F^2 / n`` bounds ``||T||^2`` from below.  The allowance is at
    least ``aut_tol``, so ``||T||_F`` is formed only when a left side
    exceeds ``aut_tol``.  Only the blocks the screen cannot pass take
    ``_eta_spectra``; the failure furthest over its allowance, the first of
    equals, is raised.  J enters as its signs."""
    n = dim_h + dim_k
    form, sign = _eta_form(t, dim_h, dim_k)
    scale = (form.diagonal(0, -2, -1) * sign).sum(-1).real / n
    if (scale <= 0.0).any():
        raise NotEtaPreserving("T*JT has non-positive alignment with J")
    gap = form / scale[..., None, None] - np.diag(sign)
    screen = frobenius_norm(gap)
    unsure = ~(screen <= aut_tol)
    if unsure.any():
        unsure &= ~(screen <= aut_tol * np.maximum(
            1.0, frobenius_norm(t) ** 2 / (n * scale)))
    if unsure.any():
        tol = np.broadcast_to(aut_tol, unsure.shape)[unsure]
        defect, gram = _eta_spectra(gap[unsure], t[unsure])
        allowed = tol * np.maximum(1.0, gram[:, -1] / scale[unsure])
        if (defect > allowed).any():
            k = int(np.argmax(defect / allowed))
            raise NotEtaPreserving(
                f"||T*JT - J|| = {float(defect[k]):.3e} > {float(allowed[k])!r}")
    t = t / np.sqrt(scale)[..., None, None]
    t.setflags(write=False)
    return t


def _automorphism_stack(blocks: np.ndarray, dim_h: int, dim_k: int, aut_tol):
    """A stack of blocks normalized and checked as the ``BallAutomorphism``
    constructor does (``_eta_checked``), read-only."""
    t = _require_finite(np.asarray(blocks, dtype=np.complex128),
                        "automorphism block")
    return _eta_checked(t, dim_h, dim_k, aut_tol)


def _mobius_block(a: np.ndarray) -> np.ndarray:
    """The block of T_A before normalization, for a matrix or a stack:
    [[(1-AA*)^{-1/2}, (1-AA*)^{-1/2} A], [(1-A*A)^{-1/2} A*, (1-A*A)^{-1/2}]]."""
    left, right = defect_roots(a, -0.5, -0.5)
    p, q = a.shape[-2:]
    block = np.empty(a.shape[:-2] + (p + q, p + q), np.result_type(left, a))
    block[..., :p, :p], block[..., :p, p:] = left, left @ a
    block[..., p:, :p], block[..., p:, p:] = right @ adjoint(a), right
    return block


def mobius_as_block(a: BallPoint) -> BallAutomorphism:
    """Block matrix T_A whose fractional-linear action equals M_A."""
    return BallAutomorphism(_mobius_block(a.matrix), *a.shape)


def automorphism_apply(t: BallAutomorphism, a: BallPoint) -> BallPoint:
    """w_T(A) = (T11 A + T12)(T21 A + T22)^{-1}."""
    if a.shape != (t.dim_h, t.dim_k):
        raise ValueError(f"point shape {a.shape} does not match split "
                         f"({t.dim_h}, {t.dim_k})")
    return BallPoint(_frac_checked(t.block, a.matrix), boundary_tol=0.0)


def _frac_checked(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w_T(X) = (T11 X + T12)(T21 X + T22)^{-1}, the one kernel of the
    action, for block matrices and points, or stacks of them, that
    broadcast against each other (the split is read from the rows of
    ``x``), raising ``SingularDenominator`` where T21 X + T22 has its least
    singular value below ``COND_TOL max(1, ||T21 X + T22||)``."""
    p = x.shape[-2]
    num = blocks[..., :p, :p] @ x + blocks[..., :p, p:]
    den = blocks[..., p:, :p] @ x + blocks[..., p:, p:]
    sig = np.linalg.svd(den, compute_uv=False)
    least, top = _pick(sig, -1), _pick(sig, 0)
    _require_each((least >= COND_TOL) & (least >= COND_TOL * top),
                  SingularDenominator, "T21 A + T22 singular; T not "
                  "eta-preserving: least singular value {!r} < {!r} max(1, norm)",
                  least, COND_TOL)
    return num @ np.linalg.inv(den)


def automorphism_compose(t1: BallAutomorphism,
                         t2: BallAutomorphism) -> BallAutomorphism:
    """Composition of actions; a plain block-matrix product, renormalized."""
    if (t1.dim_h, t1.dim_k) != (t2.dim_h, t2.dim_k):
        raise ValueError("incompatible splits")
    return BallAutomorphism(t1.block @ t2.block, t1.dim_h, t1.dim_k)
