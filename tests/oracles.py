"""Independent references that tests check the library's kernels against."""

import numpy as np


def psd_apply(s, f):
    """f(S) for a Hermitian PSD matrix S through its eigendecomposition,
    with eigenvalues clamped at 0: an eigen-based reference for the
    SVD-based defect roots of ``mobius.defect_roots``."""
    lam, v = np.linalg.eigh(s)
    return (v * f(np.maximum(lam, 0.0))) @ v.conj().T
