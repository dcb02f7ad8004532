"""Dense complex matrix primitives: input coercion, the adjoint and the
spectral norm.  The defect roots of a ball point come from its SVD
(``mobius.defect_roots``), and every Hermitian spectrum from numpy's
``eigh`` or ``eigvalsh`` at its caller.  All functions are pure and
operate on immutable inputs.
"""

from __future__ import annotations

import numpy as np


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex 2-D array (a fresh, read-only copy)."""
    a = np.array(data, dtype=np.complex128, copy=True)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with positive shape, got {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    a.setflags(write=False)
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
