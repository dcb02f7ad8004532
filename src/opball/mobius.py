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

import functools

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

    ``boundary_tol``, a finite number in [0, 1) (else ``ValueError``,
    before any SVD), sets the rejection margin; construction raises
    ``BoundaryProximity`` for closer points instead of clamping.
    """

    __slots__ = ("matrix", "margin")

    def __init__(self, matrix, boundary_tol: float = BOUNDARY_TOL):
        if not 0.0 <= boundary_tol < 1.0:
            raise ValueError("boundary_tol must be a finite number in [0, 1), "
                             f"got {boundary_tol!r}")
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
    nears 1.  The exponents are 1/2 or -1/2, or per-matrix arrays of them.
    Inside the ball every ``g`` is positive, and one comparison passes
    them; only where one is not is ``g`` clamped at 0, and a power that is
    then not finite (a negative exponent at a singular value at or past 1,
    or a NaN) raises ``DomainError``.  The identity goes onto the diagonal
    of the fresh products in place (``_minus_diagonal`` with sign -1): the
    sum with the dense identity bit for bit, except that an entry of -0.0
    keeps its sign."""
    w, s, vh = np.linalg.svd(a, full_matrices=False)
    g = ((1.0 - s) * (1.0 + s))[..., None, :]
    if not (g > 0.0).all():
        g = np.maximum(g, 0.0)
        with np.errstate(divide="ignore"):
            if not (np.isfinite(g ** left).all() and np.isfinite(g ** right).all()):
                raise DomainError("matrix function undefined at an eigenvalue near 0")
    return (_minus_diagonal((w * (g ** left - 1.0)) @ adjoint(w), -1.0),
            _minus_diagonal((adjoint(vh) * (g ** right - 1.0)) @ vh, -1.0))


def mobius_batch(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M_A(X) without checks, for matrices or stacks of them that broadcast
    against each other."""
    return _mobius_rooted(a, x, *defect_roots(a, -0.5, 0.5))


def _mobius_rooted(a, x, left, right):
    """M_A(X) from A's roots ``(1 - AA*)^{-1/2}`` and ``(1 - A*A)^{1/2}``;
    the one implementation of the formula."""
    resolvent = np.eye(a.shape[-1]) + adjoint(a) @ x
    return left @ (a + x) @ np.linalg.solve(resolvent, right)


def _require_resolvent(a, x, bound=None):
    """Raise ``SingularResolvent`` where 1 + A*X, for matrices or stacks that
    broadcast, is numerically singular: its least singular value, from one
    batched SVD, is below ``COND_TOL``.  A caller that holds the norms of
    A and X passes ``bound``, the lower bound 1 - ||A|| ||X|| of that
    singular value (a number, or one per pair of the stack); where every
    bound clears the rule (``_resolvent_cleared``) no SVD is taken, and the
    decision is the SVD's."""
    if bound is None or not _resolvent_cleared(bound, a.shape[-2:]):
        _require_invertible(np.eye(a.shape[-1]) + adjoint(a) @ x, "1 + A*X")


def _resolvent_cleared(bound, shape) -> bool:
    """Whether every ``bound`` = fl(1 - nu_A nu_X), for p x q matrices A and
    X of computed norms nu_A and nu_X, is at least ``COND_TOL`` plus the
    rounding allowance 8 (p + q)^2 eps.  Since 1 - ||A|| ||X|| bounds the
    least singular value of 1 + A*X, of 1 + AB* and of 1 + B*A (B = X)
    from below, the computed least singular value of each computed
    resolvent is then at least ``COND_TOL``: the SVD rule would pass.

    Rounding model, with u = eps / 2 and n = p + q.  A norm read off an
    SVD is within n eps of the true norm, at most 1: 4n u for the two
    norms.  A line's inner point W tanh(tS) V* has its norm taken as
    tanh(|t| S[0]); the factors' departure from orthonormality and the
    rounding of the product add at most 4n u + n^2/2 u.  Forming the bound
    rounds by 3 u.  The product A*X (AB*, B*A), of inner dimension
    k <= max(p, q), errs by gamma_{k+2} min(p, q) ||A|| ||X||
    <= (n^2/4 + n) u in norm, and adding the identity by 2 u.  The SVD of
    the resolvent, of norm below 2, errs by 2n eps = 4n u.  The sum,
    (3/4 n^2 + 13n + 5) u, is at most 0.53 of the allowance 16 n^2 u for
    every n >= 2."""
    p, q = shape
    clear = bound >= COND_TOL + (p + q) ** 2 * 2.0 ** -49  # 8 eps
    # a number is tested as one: np.all would take a ufunc call
    return bool(clear.all()) if isinstance(clear, np.ndarray) else bool(clear)


def mobius_matrix(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Core formula on raw matrices, or stacks that broadcast, after the
    ``COND_TOL`` resolvent check; see ``mobius_apply`` for the checked API."""
    _require_resolvent(a, x)
    return mobius_batch(a, x)


def mobius_apply(a: BallPoint, x: BallPoint) -> BallPoint:
    """Evaluate M_A(X).  Both arguments must lie strictly inside the ball.
    The ``COND_TOL`` resolvent check reads its bound 1 - ||A|| ||X|| off the
    two margins and takes an SVD only where that bound cannot decide
    (``_resolvent_cleared``); A's roots and the image's norm take one SVD
    each."""
    if a.shape != x.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {x.shape}")
    _require_resolvent(a.matrix, x.matrix,
                       1.0 - (1.0 - a.margin) * (1.0 - x.margin))
    return BallPoint(mobius_batch(a.matrix, x.matrix), boundary_tol=0.0)


def mobius_differential(b: BallPoint, a: BallPoint, v) -> np.ndarray:
    """Differential of M_B at A applied to V:

    (1 - BB*)^{1/2} (1 + AB*)^{-1} V (1 + B*A)^{-1} (1 - B*B)^{1/2}

    The ``COND_TOL`` checks of both resolvents read their bound
    1 - ||A|| ||B|| off the two margins and take their SVDs only where that
    bound cannot decide (``_resolvent_cleared``); B's roots take one SVD.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != a.shape or a.shape != b.shape:
        raise ValueError("A, B, V must share one shape")
    _require_finite(v, "tangent vector")
    return _differential_rooted(b.matrix, a.matrix, v,
                                *defect_roots(b.matrix, -0.5, 0.5),
                                1.0 - (1.0 - b.margin) * (1.0 - a.margin))


def _differential_rooted(b, a, v, left, right, bound=None):
    """The differential of M_B at A applied to V from B's roots
    ``left = (1 - BB*)^{-1/2}`` and ``right = (1 - B*B)^{1/2}``, as
    ((1 + AB*) left)^{-1} V (1 + B*A)^{-1} right, after the ``COND_TOL``
    checks of both resolvents; A and V may be stacks.  As in
    ``_require_resolvent``, a ``bound`` 1 - ||A|| ||B|| (one per matrix of
    a stack) that clears the rule stands in for both checks' SVDs."""
    left_res = np.eye(b.shape[-2]) + a @ adjoint(b)
    right_res = np.eye(b.shape[-1]) + adjoint(b) @ a
    if bound is None or not _resolvent_cleared(bound, b.shape[-2:]):
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
    an array with one value per matrix for a stack.  The gap (``_eta_gap``)
    is Hermitian, so its norm is its largest |eigenvalue|, from one
    eigvalsh of the matrix or the stack."""
    t = _require_finite(np.asarray(t), "matrix")
    defect = np.abs(np.linalg.eigvalsh(_eta_gap(t, dim_h, dim_k))).max(axis=-1)
    return float(defect) if np.ndim(defect) == 0 else defect


@functools.lru_cache(maxsize=64)
def _signs(dim_h: int, dim_k: int) -> np.ndarray:
    """J's diagonal for the split, read-only and built once per split."""
    sign = np.ones(dim_h + dim_k)
    sign[dim_h:] = -1.0
    sign.setflags(write=False)
    return sign


def _eta_form(t: np.ndarray, dim_h: int, dim_k: int):
    """``(T*JT, signs)`` for a matrix of ``dim_h + dim_k`` rows or a stack,
    with J entering as its read-only vector of signs (``_signs``): one
    product, no dense J.  The one kernel of every J-Gram form, of a block
    or of a subspace basis.  With no K component J is the identity, and
    the form is T*T with no product by the signs."""
    sign = _signs(dim_h, dim_k)
    return adjoint(t) @ (sign[:, None] * t if dim_k else t), sign


def _minus_diagonal(form: np.ndarray, sign) -> np.ndarray:
    """``form - diag(sign)`` for a fresh contiguous square matrix or stack,
    in place, with ``sign`` a vector or one number (-1 adds the identity):
    only the diagonal is written, so the result is the same bit for bit as
    the subtraction of the dense diagonal matrix."""
    n = form.shape[-1]
    form.reshape(form.shape[:-2] + (n * n,))[..., ::n + 1] -= sign
    return form


def _eta_gap(t: np.ndarray, dim_h: int, dim_k: int) -> np.ndarray:
    """T*JT - J for a matrix or a stack (``_eta_form``): the one kernel of
    the gap that ``eta_defect`` measures and the eta screens bound."""
    return _minus_diagonal(*_eta_form(t, dim_h, dim_k))


def _eta_checked(t: np.ndarray, dim_h: int, dim_k: int, aut_tol: float):
    """T over the scalar s > 0 that best fits T*JT to J, s = tr(J T*JT) / n
    (Frobenius Rayleigh estimate), read-only, for a matrix or a stack,
    checked by ``||T*JT/s - J|| <= aut_tol max(1, ||T||^2/s)``, since
    forming T*JT loses ||T||^2 eps; ``aut_tol`` is one number per call.

    A Frobenius screen, ``||T*JT/s - J||_F <= aut_tol max(1, ||T||_F^2/(n s))``,
    passes a block first: its left side bounds the defect from above and
    ``||T||_F^2 / n`` bounds ``||T||^2`` from below.  The allowance is at
    least ``aut_tol``, so ``||T||_F`` is formed only when a left side
    exceeds ``aut_tol``.  Only the blocks the screen cannot pass take
    spectra: one eigvalsh of the pairs (T*JT/s - J, T*T) gives each
    defect, the largest |eigenvalue| of the gap, and ||T||^2, the largest
    eigenvalue of T*T.  The failure furthest over its allowance, the first
    of equals, is raised.  J enters as its signs."""
    n = dim_h + dim_k
    form, sign = _eta_form(t, dim_h, dim_k)
    scale = (form.diagonal(0, -2, -1) * sign).sum(-1).real / n
    if (scale <= 0.0).any():
        raise NotEtaPreserving("T*JT has non-positive alignment with J")
    gap = _minus_diagonal(form / scale[..., None, None], sign)
    screen = frobenius_norm(gap)
    unsure = ~(screen <= aut_tol)
    if unsure.any():
        unsure &= ~(screen <= aut_tol * np.maximum(
            1.0, frobenius_norm(t) ** 2 / (n * scale)))
        if unsure.any():
            kept = t[unsure]
            lam = np.linalg.eigvalsh(np.stack([gap[unsure], adjoint(kept) @ kept]))
            defect = np.abs(lam[0]).max(axis=-1)
            allowed = aut_tol * np.maximum(1.0, lam[1][:, -1] / scale[unsure])
            if (defect > allowed).any():
                k = int(np.argmax(defect / allowed))
                raise NotEtaPreserving(f"||T*JT - J|| = {float(defect[k]):.3e}"
                                       f" > {float(allowed[k])!r}")
    t = t / np.sqrt(scale)[..., None, None]
    t.setflags(write=False)
    return t


def _automorphism_stack(blocks: np.ndarray, dim_h: int, dim_k: int, aut_tol):
    """A stack of blocks normalized and checked as the ``BallAutomorphism``
    constructor does (``_eta_checked``), at one ``aut_tol``, read-only."""
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
