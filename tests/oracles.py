"""Independent references that tests check the library's kernels against."""

import numpy as np


def psd_apply(s, f):
    """f(S) for a Hermitian PSD matrix S through its eigendecomposition,
    with eigenvalues clamped at 0: an eigen-based reference for the
    SVD-based defect roots of ``mobius.defect_roots``."""
    lam, v = np.linalg.eigh(s)
    return (v * f(np.maximum(lam, 0.0))) @ v.conj().T


def spectral_eta_rule(t, dim_h, dim_k, aut_tol):
    """The rule of ``mobius._eta_checked`` with no screen: every block of a
    matrix or stack takes its spectra, with J as a matrix.  Returns
    ``(normalized, ratios)`` where every block passes, the ratios being
    defect / allowance per block, and otherwise ``(message, ratios)`` with
    the text ``NotEtaPreserving`` carries (``ratios`` is None when the
    scale is not positive)."""
    t = np.asarray(t, dtype=np.complex128)
    stack = t.reshape(-1, *t.shape[-2:])
    n = dim_h + dim_k
    j = np.diag([1.0] * dim_h + [-1.0] * dim_k).astype(np.complex128)
    adj = stack.conj().swapaxes(-1, -2)
    form = adj @ j @ stack
    scale = np.trace(j @ form, axis1=-2, axis2=-1).real / n
    if np.any(scale <= 0.0):
        return "T*JT has non-positive alignment with J", None
    defect = np.abs(np.linalg.eigvalsh(form / scale[:, None, None] - j)).max(-1)
    top = np.linalg.eigvalsh(adj @ stack)[:, -1]
    allowed = np.broadcast_to(aut_tol, scale.shape) * np.maximum(1.0, top / scale)
    ratios = defect / allowed
    if np.any(ratios > 1.0):
        k = int(np.argmax(ratios))
        return (f"||T*JT - J|| = {float(defect[k]):.3e} > "
                f"{float(allowed[k])!r}"), ratios
    return (stack / np.sqrt(scale)[:, None, None]).reshape(t.shape), ratios
