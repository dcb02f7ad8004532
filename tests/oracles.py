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


def chart_inverse(u, p):
    """U^{-1} for U the block of M_{-X}, X with ``p`` rows, formed as
    ``fixedpoint._chart`` forms it: M_{-X}^{-1} = M_X, whose block has the
    same defect roots and the two corners negated."""
    u_inv = np.array(u, dtype=np.complex128)
    u_inv[:p, p:] *= -1.0
    u_inv[p:, :p] *= -1.0
    return u_inv



def homomorphism_rule(table, images, rep_tol):
    """The homomorphism check of ``Representation`` with no screen: the
    pair furthest over ``rep_tol max(1, ||pi(g)|| ||pi(h)||)``, one
    spectral norm per pair, the first such pair in row-major order, as the
    ``ValueError`` text quotes it; None if no pair is over."""
    norms = [np.linalg.norm(m, 2) for m in images]
    worst = None
    for g in range(len(table)):
        for h in range(len(table)):
            defect = np.linalg.norm(images[int(table[g][h])]
                                    - images[g] @ images[h], 2)
            allowed = rep_tol * max(1.0, norms[g] * norms[h])
            if defect > allowed and (
                    worst is None or defect / allowed > worst[0] / worst[1]):
                worst = (defect, allowed, g, h)
    if worst is None:
        return None
    defect, allowed, g, h = worst
    return f"homomorphism defect {defect:.3e} > {allowed:.3e} at ({g}, {h})"


def per_element_images(group, n_plus, n_minus, conditioning, seed):
    """The images of ``make_test_representation`` built one group element
    at a time, with the regular action as a list of permutation matrices
    and each subrepresentation, block and image formed by its own product:
    a reference that the stacked builder must match bit for bit.  Draws
    from the generator in the library's order."""
    from opball.fixedpoint import _checked_table
    from opball.pontryagin import group_table
    from opball.sampling import random_eta_preserving, random_unitary, rng_from

    table, _ = _checked_table(group_table(group) if isinstance(group, str)
                              else group)
    n = len(table)
    rng = rng_from(seed)
    eye = np.eye(n, dtype=np.complex128)
    reg = [eye[:, row] for row in table]
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2.0
    avg = sum(m @ h @ m.conj().T for m in reg) / n
    lam, vecs = np.linalg.eigh(avg)
    spans, start = [], 0
    for k in range(1, n + 1):
        if k == n or lam[k] - lam[k - 1] > 1e-7 * max(1.0, abs(lam[k])):
            spans.append(vecs[:, start:k])
            start = k
    subreps = [[b.conj().T @ m @ b for m in reg] for b in spans]
    chars = [np.array([np.trace(m) for m in mats]) for mats in subreps]
    classes, used = [], [False] * len(subreps)
    for a in range(len(subreps)):
        if used[a]:
            continue
        used[a] = True
        classes.append(subreps[a])
        for b in range(a + 1, len(subreps)):
            if not used[b] and abs(np.vdot(chars[a], chars[b])) / n > 0.5:
                used[b] = True

    def assemble(dim, allowed):
        dims = {c: classes[c][0].shape[0] for c in allowed}
        reach = {0: []}
        for target in range(1, dim + 1):
            for c in allowed:
                if target - dims[c] in reach:
                    reach[target] = reach[target - dims[c]] + [c]
                    break
        if dim not in reach:
            return None
        choice = list(reach[dim])
        rng.shuffle(choice)
        dress = random_unitary(rng, dim)
        out = []
        for g in range(n):
            m = np.zeros((dim, dim), dtype=np.complex128)
            ofs = 0
            for c in choice:
                k = dims[c]
                m[ofs:ofs + k, ofs:ofs + k] = classes[c][g]
                ofs += k
            out.append(dress @ m @ dress.conj().T)
        return out

    order = list(rng.permutation(len(classes)))
    rep_h = rep_k = None
    for k_count in range(1, len(classes)):
        rep_k = assemble(n_minus, order[:k_count])
        rep_h = assemble(n_plus, order[k_count:])
        if rep_k is not None and rep_h is not None:
            break
        rep_h = rep_k = None
    if rep_h is None:
        rep_k = assemble(n_minus, list(range(len(classes))))
        rep_h = assemble(n_plus, list(range(len(classes))))
    v = random_eta_preserving(rng, n_plus, n_minus, conditioning)
    v_inv = np.linalg.inv(v)
    images = []
    for g in range(n):
        tau = np.zeros((n_plus + n_minus,) * 2, dtype=np.complex128)
        tau[:n_plus, :n_plus] = rep_h[g]
        tau[n_plus:, n_plus:] = rep_k[g]
        images.append(v @ tau @ v_inv)
    return images
