"""Dense complex matrix arithmetic and the Hermitian functional calculus.

The checked building blocks: input coercion, the adjoint, the spectral
norm, Hermitian eigendecomposition, scalar functions of PSD matrices
(``psd_apply``) and the polar decomposition.  The defect roots of a ball
point are not taken here but from its SVD (``mobius.defect_roots``).  All
functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NotHermitian, NotPSD

HERM_TOL = 1e-10
PSD_TOL = 1e-10
RANK_TOL = 1e-12


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


def hermitian_eig(s):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(lam, v)`` with ``lam`` ascending and ``s = v diag(lam) v*``.
    The input is symmetrized before the solve to absorb floating-point
    drift from products like ``A* A``; asymmetry beyond ``HERM_TOL``
    (relative to ``1 + ||s||``) raises ``NotHermitian``.
    """
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {s.shape}")
    defect = spectral_norm(s - adjoint(s))
    if defect > HERM_TOL * (1.0 + spectral_norm(s)):
        raise NotHermitian(f"asymmetry {defect:.3e} exceeds tolerance")
    lam, v = np.linalg.eigh((s + adjoint(s)) / 2.0)
    return lam, v


def psd_apply(s, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function to a PSD matrix through its eigenvalues.

    Tiny negative eigenvalues (within ``PSD_TOL``) are clamped to zero
    before ``f`` is evaluated; ``f`` producing a non-finite value raises
    ``DomainError``.
    """
    lam, v = hermitian_eig(s)
    if lam.size and lam[0] < -PSD_TOL:
        raise NotPSD(f"eigenvalue {lam[0]:.3e} below -PSD_TOL")
    clamped = np.maximum(lam, 0.0)
    with np.errstate(all="ignore"):
        try:
            vals = np.asarray(f(clamped), dtype=np.float64)
            if vals.shape != clamped.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([f(x) for x in clamped], dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        bad = clamped[~np.isfinite(vals)][0]
        raise DomainError(f"function undefined at eigenvalue {bad!r}")
    out = (v * vals) @ adjoint(v)
    return (out + adjoint(out)) / 2.0


@dataclass(frozen=True)
class PolarDecomposition:
    """``D = isometry @ modulus`` with ``modulus = (D* D)^{1/2}`` PSD and
    ``isometry`` a partial isometry supported on the range of ``modulus``."""

    isometry: np.ndarray
    modulus: np.ndarray
    rank: int


def polar_decompose(d) -> PolarDecomposition:
    """Polar decomposition via SVD, with the partial isometry restricted to
    singular values above ``RANK_TOL * sigma_max``."""
    d = np.asarray(d, dtype=np.complex128)
    w, sig, vh = np.linalg.svd(d, full_matrices=False)
    smax = sig[0] if sig.size else 0.0
    r = int(np.sum(sig > RANK_TOL * smax)) if smax > 0 else 0
    isometry = w[:, :r] @ vh[:r, :]
    modulus = (adjoint(vh) * sig) @ vh
    modulus = (modulus + adjoint(modulus)) / 2.0
    return PolarDecomposition(isometry=isometry, modulus=modulus, rank=r)
