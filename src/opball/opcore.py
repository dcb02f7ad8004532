"""Dense complex matrix primitives: input coercion and the one rule for
operand sizes (``_fit``), the adjoint, and the spectral and Frobenius
norms.  The defect roots come from an SVD (``mobius.defect_roots``), and
every Hermitian spectrum from numpy's ``eigh`` or ``eigvalsh`` at its
caller.  All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex 2-D array (a fresh, read-only copy)."""
    a = np.array(data, dtype=np.complex128, copy=True)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with positive shape, got {a.shape}")
    _require_finite(a, name)
    a.setflags(write=False)
    return a


def _fit(shape, want, what: str):
    """Raise ``ShapeMismatch`` naming ``what`` unless ``shape`` is ``want``:
    the one decision whether an operand fits the split, taken before any
    factorization.  The message is built only on failure."""
    if shape != want:
        raise ShapeMismatch(f"{what} shape {shape} != {want}")


def _operand(data, want, name: str) -> np.ndarray:
    """``data`` as a fresh read-only complex array of shape ``want``: its
    size checked first (``_fit``), then its entries (``_require_finite``)."""
    a = np.array(data, dtype=np.complex128, copy=True)
    _fit(a.shape, want, name)
    _require_finite(a, name)
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray, name: str) -> np.ndarray:
    """``a``, of any shape, after the finiteness check of ``as_matrix``."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().T if a.ndim < 3 else a.conj().swapaxes(-1, -2)


def spectral_norm(a):
    """Largest singular value of a matrix (a float), or of each matrix in a
    stack (an array; the stack takes one batched SVD).  The SVD returns the
    singular values in descending order, so the first is the norm."""
    a = np.asarray(a, dtype=np.complex128)
    norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(norms) if a.ndim == 2 else norms


def frobenius_norm(a):
    """The Frobenius norm of a matrix, or of each matrix of a stack of any
    leading shape, from one vecdot over the float64 view of its entries: the
    kernel of every Frobenius screen, as it bounds the spectral norm from
    above, and over the square root of the smaller dimension from below."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    flat = a.view(np.float64).reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))
