"""Indefinite quadratic forms with finitely many negative squares, J-unitary
matrices, the graph correspondence between ball points and maximal negative
subspaces, unitarization of eta-preserving representations, and invariant
dual pairs.

The space splits as H (+) K with dim K = n_minus finite and
eta(x) = ||x_H||^2 - ||x_K||^2 = <Jx, x>, J = diag(I, -I).  A strict
contraction A corresponds to the maximal negative subspace
L(A) = {Ax (+) x}, and eta-preserving T acts on the ball through
w_T(A) = (T11 A + T12)(T21 A + T22)^{-1} with L(w_T(A)) = T L(A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    DegenerateGraph,
    DegenerateSplit,
    FixedPointFailed,
    NotEtaPreserving,
    NotNegative,
    ShapeMismatch,
    UnknownGroup,
)
from .fixedpoint import (
    AutomorphismGroup,
    _averaged_point,
    _check_mode,
    _check_point_shape,
    _checked_table,
    _fixed_chart,
)
from .mobius import (
    BallAutomorphism,
    BallPoint,
    _automorphism_stack,
    _eta_form,
    _eta_gap,
    _mobius_block,
    eta_defect,
    eta_matrix,
)
from .opcore import (
    _require_finite,
    adjoint,
    as_matrix,
    frobenius_norm,
    spectral_norm,
)
from .sampling import (_check_conditioning, random_eta_preserving,
                       random_unitary, rng_from)

REP_TOL = 1e-8
UNIT_TOL = 1e-7
# least singular value of a dual pair's two bases side by side, absolute
SPAN_TOL = 1e-10
# complex entries the homomorphism screen forms in one block of table
# columns; a column larger than this is a block of its own
_SCREEN_ENTRIES = 4096


@dataclass(frozen=True)
class PontryaginSignature:
    """The split H (+) K with its involution J = diag(I_H, -I_K); the two
    dimensions are kept as Python ints, numpy integers converted."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        for name in ("n_plus", "n_minus"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"dimensions must be integers, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_plus < 1 or self.n_minus < 1:
            raise ValueError("both components need positive dimension")

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def j(self) -> np.ndarray:
        return eta_matrix(self.n_plus, self.n_minus)


def eta_value(sig: PontryaginSignature, x) -> float:
    """eta(x) = <Jx, x> = ||x_H||^2 - ||x_K||^2."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != sig.dim:
        raise ShapeMismatch(f"vector length {x.shape[0]} != {sig.dim}")
    _require_finite(x, "vector")
    p = sig.n_plus
    return float(np.sum(np.abs(x[:p]) ** 2) - np.sum(np.abs(x[p:]) ** 2))


def _square(sig: PontryaginSignature, t) -> np.ndarray:
    """T as a finite complex (dim, dim) matrix, its shape checked first."""
    t = np.asarray(t, dtype=np.complex128)
    if t.shape != (sig.dim, sig.dim):
        raise ShapeMismatch(f"expected {(sig.dim, sig.dim)}, got {t.shape}")
    return as_matrix(t, name="matrix")


def is_J_unitary(sig: PontryaginSignature, t):
    """Returns ``(preserves, defect)`` with defect = ||T*JT - J|| from
    ``eta_defect`` and ``preserves`` = defect <= ``REP_TOL``, the rule that
    ``induced_automorphism`` decides through ``_eta_certificate``."""
    defect = eta_defect(_square(sig, t), sig.n_plus, sig.n_minus)
    return defect <= REP_TOL, defect


def _eta_certificate(t: np.ndarray, p: int, q: int, tol: float) -> float:
    """The one absolute eta certificate, an upper bound of max ||T*JT - J||
    over a matrix or a stack: the largest ||T*JT - J||_F (``_eta_gap``)
    where that is within ``tol``, with no spectra; else the largest
    spectral defect, measured by ``eta_defect``, so bound <= ``tol``
    decides as the spectral norm does, and a failure quotes the defect
    itself.  It decides every absolute rule: eta preservation at
    ``REP_TOL`` (``averaged_fixed_point``, ``induced_automorphism``), and
    unitarity at ``UNIT_TOL`` as T*JT - J = T*T - 1 on the split (dim, 0)."""
    bound = float(frobenius_norm(_eta_gap(t, p, q)).max())
    return bound if bound <= tol else float(np.max(eta_defect(t, p, q)))


def graph_subspace(sig: PontryaginSignature, a: BallPoint) -> np.ndarray:
    """Column basis [A; I] of L(A) = {Ax (+) x}, a maximal negative
    subspace."""
    _check_point_shape(a, sig.n_plus, sig.n_minus)
    return np.vstack([a.matrix, np.eye(sig.n_minus, dtype=np.complex128)])


def subspace_to_ball(sig: PontryaginSignature, basis) -> BallPoint:
    """The contraction whose graph spans the same maximal negative subspace."""
    basis = as_matrix(basis, name="subspace basis")
    if basis.shape != (sig.dim, sig.n_minus):
        raise ShapeMismatch(f"basis must be {(sig.dim, sig.n_minus)}, "
                            f"got {basis.shape}")
    sing = np.linalg.svd(basis, compute_uv=False)
    if sing[-1] <= 1e-12 * sing[0]:
        raise ValueError("basis columns are linearly dependent")
    gram, _ = _eta_form(basis, sig.n_plus, sig.n_minus)
    lam = np.linalg.eigvalsh(gram)
    if lam[-1] >= 0.0:
        raise NotNegative(f"eta Gram eigenvalue {lam[-1]!r} not negative")
    p = sig.n_plus
    bottom = basis[p:, :]
    bsing = np.linalg.svd(bottom, compute_uv=False)
    if bsing[-1] <= 1e-12 * max(bsing[0], 1.0):
        raise DegenerateGraph("subspace meets H; not a graph over K")
    a = np.linalg.solve(bottom.conj().T, basis[:p, :].conj().T).conj().T
    return BallPoint(a, boundary_tol=0.0)


def negativeness_degree(sig: PontryaginSignature, a: BallPoint) -> float:
    """Largest eps with eta <= -eps ||.||^2 on L(A):
    (1 - ||A||^2) / (1 + ||A||^2)."""
    _check_point_shape(a, sig.n_plus, sig.n_minus)
    beta_sq = spectral_norm(a.matrix) ** 2
    return (1.0 - beta_sq) / (1.0 + beta_sq)


def induced_automorphism(sig: PontryaginSignature, t) -> BallAutomorphism:
    """Wrap an eta-preserving matrix as the ball automorphism w_T.

    T is checked as ``is_J_unitary`` checks it, and its rule is decided by
    ``_eta_certificate``, so a T with ||T*JT - J||_F <= ``REP_TOL`` takes
    no spectra.  The normalized block is checked with the allowance
    max(``REP_TOL``, 10 bound): once ||T*JT - J|| = d <= ``REP_TOL`` its
    defect is at most about 2d, so that check fails no T the rule passes."""
    t = _square(sig, t)
    p, q = sig.n_plus, sig.n_minus
    bound = _eta_certificate(t, p, q, REP_TOL)
    if not bound <= REP_TOL:
        raise NotEtaPreserving(f"||T*JT - J|| = {bound:.3e} > {REP_TOL!r}")
    block = _automorphism_stack(t, p, q, max(REP_TOL, 10 * bound))
    return object.__new__(BallAutomorphism)._set(block, p, q)


def unitarizer_matrix(sig: PontryaginSignature, d: BallPoint) -> np.ndarray:
    """The eta-preserving U mapping L(D) onto the K component: the block
    T_{-D} of the Mobius transform M_{-D}, without its normalization,

    U = [[ (1-DD*)^{-1/2},      -(1-DD*)^{-1/2} D ],
         [ -(1-D*D)^{-1/2} D*,   (1-D*D)^{-1/2}   ]]
    """
    _check_point_shape(d, sig.n_plus, sig.n_minus)
    return _mobius_block(-d.matrix)


# --- finite groups and their representations --------------------------------


def _symmetric3_table() -> np.ndarray:
    """The table of the permutations of 0, 1, 2 in lexicographic order,
    (ab)(x) = a(b(x)), from one stacked composition and one comparison."""
    perms = np.array(list(itertools.permutations(range(3))))
    composed = np.take_along_axis(perms[:, None], perms[None], axis=-1)
    return (composed[:, :, None] == perms).all(axis=-1).argmax(axis=-1)


def _quaternion_table() -> np.ndarray:
    """The table of the units 1, -1, i, -i, j, -j, k, -k as 2x2 matrices,
    from one stacked product and one exact comparison: the entries are 0,
    +-1 and +-i, so every product is exactly one unit."""
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
    units = np.stack([sign * u for u in (np.eye(2), i, j, i @ j)
                      for sign in (1, -1)])
    prods = units[:, None] @ units[None]
    return (prods[:, :, None] == units).all(axis=(-2, -1)).argmax(axis=-1)


def group_table(name: str) -> np.ndarray:
    """Multiplication table of a named finite group: C<n>, S3, or Q8."""
    name = name.strip().upper()
    if name.startswith("C") and name[1:].isdigit() and int(name[1:]) >= 1:
        elements = np.arange(int(name[1:]))
        return np.add.outer(elements, elements) % len(elements)
    if name == "S3":
        return _symmetric3_table()
    if name == "Q8":
        return _quaternion_table()
    raise UnknownGroup(f"no table for group {name!r}")


def _irrep_classes(table: np.ndarray, rng) -> list:
    """One unitary representative per irreducible isomorphism class,
    extracted from the regular representation, each a stack (n, k, k) of
    its images.

    A Reynolds-averaged random Hermitian matrix commutes with the regular
    action, so its eigenspaces are invariant; for a generic average they
    carry exactly one irreducible each, and characters cluster the copies
    into isomorphism classes.  The action is taken by index gathers, with
    no product of permutation matrices: P_g H P_g* has the entries
    H[g^{-1} i, g^{-1} j], and B* P_g is B* with its columns gathered by
    row g of the table.
    """
    n = len(table)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + adjoint(h)) / 2.0
    # inv[g, i] = g^{-1} i: each row of the table is a permutation
    inv = np.argsort(table, axis=1)
    avg = h[inv[:, :, None], inv[:, None, :]].sum(0) / n
    lam, vecs = np.linalg.eigh(avg)
    gaps = np.diff(lam) > 1e-7 * np.maximum(1.0, np.abs(lam[1:]))
    spans = np.split(vecs, np.flatnonzero(gaps) + 1, axis=1)
    subreps = [adjoint(b)[:, table].transpose(1, 0, 2) @ b for b in spans]
    chars = np.stack([np.trace(sub, axis1=1, axis2=2) for sub in subreps])
    # characters of isomorphic irreducibles have inner product 1, of others 0
    same = np.abs(chars.conj() @ chars.T) / n > 0.5
    classes, used = [], np.zeros(len(subreps), dtype=bool)
    for a, sub in enumerate(subreps):
        if not used[a]:
            classes.append(sub)
            used |= same[a]
    return classes


def _assemble_block(classes, dim: int, allowed, rng) -> Optional[np.ndarray]:
    """Direct sum of irreducibles from the allowed classes filling ``dim``
    exactly (repetition permitted), dressed by a random unitary: the stack
    (n, dim, dim) of its images."""
    dims = {c: classes[c].shape[-1] for c in allowed}
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
    block = np.zeros((len(classes[0]), dim, dim), dtype=np.complex128)
    ofs = 0
    for c in choice:
        block[:, ofs:ofs + dims[c], ofs:ofs + dims[c]] = classes[c]
        ofs += dims[c]
    return dress @ block @ adjoint(dress)


def _check_homomorphism(table: np.ndarray, stack: np.ndarray):
    """The homomorphism check of ``Representation``.

    A pair passes the screen when the Frobenius norm of its difference is
    within half its tolerance taken with ``||pi(g)||_F / sqrt(dim)``, a
    lower bound of each spectral norm; both sides bound theirs from the
    safe side, so a pass certifies the pair.  Only if some pair survives
    are the spectral norms of the images measured, by one batched SVD
    (``spectral_norm``), and each survivor takes an SVD of its difference.
    A failure names the pair furthest over its tolerance, the first such
    pair in row-major order."""
    n, dim, _ = stack.shape
    tall = stack.reshape(n * dim, dim)
    width = max(1, _SCREEN_ENTRIES // (n * dim * dim))
    frobenius = np.empty((n, n))
    # a block of columns h at a time: pi(g) pi(h) for every g and every h of
    # the block is one product of the images stacked as an (n dim) x dim
    # matrix with those of the block side by side, and the pi(gh) one gather
    for start in range(0, n, width):
        part = slice(start, start + width)
        block = stack[part]
        wide = block.transpose(1, 0, 2).reshape(dim, -1)
        diff = stack[table[:, part]]
        diff -= (tall @ wide).reshape(n, dim, len(block), dim).swapaxes(1, 2)
        frobenius[:, part] = frobenius_norm(diff)
    low = frobenius_norm(stack) / np.sqrt(dim)
    # rounding in either norm cannot carry a difference across the factor 2,
    # so the screen decides no pair the SVD would not
    rows, cols = np.nonzero(
        frobenius > REP_TOL * np.maximum(1.0, np.multiply.outer(low, low)) / 2)
    if rows.size == 0:
        return
    norms = spectral_norm(stack)
    allowed = REP_TOL * np.maximum(1.0, norms[rows] * norms[cols])
    defect = np.empty(rows.size)
    # n pairs at a time, so a table far from a homomorphism holds no more
    # differences at once than one column of the screen
    for k in range(0, rows.size, n):
        g, h = rows[k:k + n], cols[k:k + n]
        defect[k:k + n] = spectral_norm(stack[table[g, h]] - stack[g] @ stack[h])
    over = np.flatnonzero(defect > allowed)
    if over.size:
        k = over[np.argmax(defect[over] / allowed[over])]
        raise ValueError(f"homomorphism defect {defect[k]:.3e} > "
                         f"{allowed[k]:.3e} at ({rows[k]}, {cols[k]})")


def _image_stack(images: list, n: int, dim: int) -> np.ndarray:
    """The n images as one fresh complex stack (n, dim, dim), coerced and
    checked finite at once; on any irregularity each image is coerced and
    checked in turn, so the error names the first offending one."""
    try:
        stack = np.array(images, dtype=np.complex128)
    except (TypeError, ValueError):
        stack = None
    if (stack is not None and stack.shape == (n, dim, dim)
            and np.isfinite(stack).all()):
        return stack
    images = [as_matrix(m, name=f"image {k}") for k, m in enumerate(images)]
    if len(images) != n:
        raise ValueError(f"need {n} images, got {len(images)}")
    for m in images:
        if m.shape != (dim, dim):
            raise ShapeMismatch(f"image shape {m.shape} != {(dim, dim)}")
    return np.stack(images)


class Representation(AutomorphismGroup):
    """A finite group given by its multiplication table together with one
    matrix per element: the checked constructor of ``AutomorphismGroup``,
    whose stack holds the images and whose split is the signature's.

    The table is checked and copied by ``_checked_table``, so the caller's
    array stays writable, and the images are coerced as one stack
    (``_image_stack``).  The constructor checks that the identity maps to
    the identity matrix (to ``REP_TOL``, absolute) and that pi is a
    homomorphism (``_check_homomorphism``):
    ``||pi(gh) - pi(g) pi(h)|| <= REP_TOL * max(1, ||pi(g)|| ||pi(h)||)``
    for every pair, since forming pi(g) pi(h) in floating point already
    costs about eps ||pi(g)|| ||pi(h)||.  Both checks take spectra only
    where a Frobenius norm, which bounds a spectral norm from above, cannot
    decide.  Eta preservation is checked by whoever needs it
    (``averaged_fixed_point``, and so ``unitarize`` and ``find_fixed_point``).

    ``signature`` is read off the split.  ``bound``, the largest
    ||pi(g)||, is measured on each read by one batched SVD
    (``spectral_norm``), and ``eta_defect``, the largest
    ||pi(g)* J pi(g) - J||, by one batched eigvalsh; neither is kept.
    """

    __slots__ = ()

    def __init__(self, signature: PontryaginSignature, table, images):
        table, ident = _checked_table(table)
        dim = signature.dim
        stack = _image_stack(list(images), len(table), dim)
        gap = stack[ident] - np.eye(dim)
        if frobenius_norm(gap) > REP_TOL and spectral_norm(gap) > REP_TOL:
            raise ValueError("identity element must map to the identity matrix")
        _check_homomorphism(table, stack)
        self._hold(stack, signature.n_plus, signature.n_minus, table, ident)

    def _start(self) -> BallPoint:
        """``find_fixed_point``'s start: ``averaged_fixed_point``, eta checked."""
        return averaged_fixed_point(self)

    @property
    def signature(self) -> PontryaginSignature:
        return PontryaginSignature(self.dim_h, self.dim_k)

    @property
    def bound(self) -> float:
        """The largest ||pi(g)||, from one batched SVD."""
        return float(spectral_norm(self._stack).max())

    @property
    def eta_defect(self) -> float:
        """The largest ||pi(g)* J pi(g) - J||, from one batched eigvalsh."""
        return float(eta_defect(self._stack, self.dim_h, self.dim_k).max())

    @property
    def group_order(self) -> int:
        return len(self)

    def __repr__(self):
        return (f"Representation(order={self.group_order}, "
                f"sig=({self.dim_h},{self.dim_k}), bound={self.bound:.3g})")


def make_test_representation(group: Union[str, np.ndarray],
                             sig: PontryaginSignature,
                             conditioning: float = 2.0,
                             seed: int = 0) -> Representation:
    """Generate pi = V tau V^{-1} with tau a random block-diagonal unitary
    representation and V eta-preserving of the requested conditioning.

    The H and K blocks of tau draw from disjoint irreducible classes when
    the dimensions allow it, which makes the induced fixed point unique;
    deterministic per seed.  ``conditioning``, finite and >= 1, is checked
    before anything is drawn.  The classes and blocks are stacks of their
    images (``_irrep_classes``, ``_assemble_block``), and pi is one stacked
    product V tau V^{-1}.
    """
    _check_conditioning(conditioning)
    table, _ = _checked_table(group_table(group) if isinstance(group, str)
                              else group)
    rng = rng_from(seed)
    classes = _irrep_classes(table, rng)
    p, q = sig.n_plus, sig.n_minus

    order = list(rng.permutation(len(classes)))
    splits = [(order[:k], order[k:]) for k in range(1, len(classes))]
    everything = list(range(len(classes)))
    # disjoint classes for K and H where a split fills both, else shared ones
    for k_classes, h_classes in splits + [(everything, everything)]:
        rep_k = _assemble_block(classes, q, k_classes, rng)
        rep_h = _assemble_block(classes, p, h_classes, rng)
        if rep_k is not None and rep_h is not None:
            break

    v = random_eta_preserving(rng, p, q, conditioning)
    tau = np.zeros((len(table), sig.dim, sig.dim), dtype=np.complex128)
    tau[:, :p, :p] = rep_h
    tau[:, p:, p:] = rep_k
    return Representation(sig, table, v @ tau @ np.linalg.inv(v))


# --- unitarization and dual pairs --------------------------------------------


@dataclass(frozen=True, eq=False)
class UnitarizationResult:
    """What ``unitarize`` returns: the read-only ``similarity`` U, the
    ``unitary_rep`` tau = U pi U^{-1} and the ``fixed_point`` D.

    ``unitarity_defect``, max ||tau(g)* tau(g) - 1||, is measured when read:
    ``eta_defect`` of tau on the split (dim, 0), where T*JT - J is
    T*T - 1, one batched eigvalsh.  ``defect_bound`` is the upper bound of
    it that ``unitarize`` checked against ``UNIT_TOL`` (``_require_unitary``).
    """

    similarity: np.ndarray
    unitary_rep: Representation
    fixed_point: BallPoint
    defect_bound: float

    @property
    def unitarity_defect(self) -> float:
        """max ||tau(g)* tau(g) - 1||, from one batched eigvalsh."""
        stack = self.unitary_rep._stack
        return float(eta_defect(stack, stack.shape[-1], 0).max())


def _require_unitary(tau: np.ndarray) -> float:
    """An upper bound of tau's unitarity defect within ``UNIT_TOL``,
    decided by ``_eta_certificate`` on the split (dim, 0), where
    T*JT - J is T*T - 1: the Frobenius bound max ||tau(g)* tau(g) - 1||_F,
    with no spectra, where that is within; else the defect ``eta_defect``
    measures, where that is.  Otherwise ``FixedPointFailed`` quotes that
    defect; a tau with a non-finite entry fails in ``eta_defect``."""
    dim = tau.shape[-1]
    bound = _eta_certificate(tau, dim, 0, UNIT_TOL)
    if not bound <= UNIT_TOL:
        raise FixedPointFailed(f"unitarity defect {bound:.3e} > {UNIT_TOL!r}")
    return bound


def averaged_fixed_point(rep: Representation) -> BallPoint:
    """The fixed point of the induced automorphisms read off the averaged
    form R = mean_g pi(g)* pi(g) of an eta-preserving representation
    (``fixedpoint._averaged_point``); R is invariant, so the point is fixed
    up to rounding.

    ``rep.eta_defect <= REP_TOL`` is checked first by ``_eta_certificate``,
    whose value, the measured defect on a failure, ``NotEtaPreserving``
    quotes."""
    defect = _eta_certificate(rep._stack, rep.dim_h, rep.dim_k, REP_TOL)
    if not defect <= REP_TOL:
        raise NotEtaPreserving(
            f"representation eta-defect {defect:.3e} > {REP_TOL!r}")
    return _averaged_point(rep._stack, rep.dim_h, rep.dim_k)


def unitarize(rep: Representation,
              mode: str = "midpoint-descent") -> UnitarizationResult:
    """Similarity onto a unitary representation.

    Finds a common fixed point D of the induced automorphisms w_{pi(g)},
    builds U = unitarizer_matrix(D), and returns tau(g) = U pi(g) U^{-1};
    tau preserves eta and leaves the K component invariant, hence is
    unitary.

    ``mode`` is checked first, as ``find_fixed_point`` checks it.  D starts
    at ``rep._start()``, the start of ``find_fixed_point(rep)``:
    ``averaged_fixed_point(rep)``, behind its eta certificate.  It is
    taken to the chart at D on pi's own stack (``fixedpoint._fixed_chart``):
    a D whose corners C_g = tau12(g) tau22(g)^{-1} pass
    max ||C_g||_F <= tanh(``FP_TOL``) is kept with its U and tau, with no
    spectra; any other is solved from as ``find_fixed_point(rep)`` solves,
    and a solve that stops above ``FP_TOL`` raises ``FixedPointFailed``.

    tau is not checked again as a representation: it has pi's table,
    tau(e) = U U^{-1}, and
    ||tau(gh) - tau(g) tau(h)|| <= ||U|| ||U^{-1}|| ||pi(gh) - pi(g) pi(h)||
    up to the rounding of U pi U^{-1}.  The one check on tau is the one
    that certifies it, max ||tau(g)* tau(g) - 1|| <= ``UNIT_TOL``
    (``_require_unitary``), which takes spectra only where the Frobenius
    bound cannot pass it; the result keeps that bound (``defect_bound``).
    So a representation whose Frobenius bounds pass is unitarized with no
    spectra at all.

    The first result that passes the certificate is stored on ``rep``, with
    a read-only ``similarity``, and later calls return that same object
    without solving again; each call still checks ``mode``.  A failed solve
    or check stores nothing.  Any other group raises ``TypeError``: its
    blocks are normalized only up to a unimodular scalar each.
    """
    _check_mode(mode)
    if not isinstance(rep, Representation):
        raise TypeError(f"unitarize takes a Representation, not "
                        f"{type(rep).__name__}")
    res = rep._unitarization
    if res is None:
        point, u, tau = _fixed_chart(rep._stack, rep._start())
        bound = _require_unitary(tau)
        u.setflags(write=False)
        unitary_rep = object.__new__(Representation)._hold(
            tau, rep.dim_h, rep.dim_k, rep.table, rep.identity_index)
        res = UnitarizationResult(u, unitary_rep, point, bound)
        rep._unitarization = res
    return res


@dataclass(frozen=True)
class DualPair:
    """An invariant decomposition into a positive and a negative subspace,
    stored as orthonormal column bases.  Their columns must fill the space,
    and the least singular value of the two side by side must be at least
    ``SPAN_TOL``."""

    positive_basis: np.ndarray
    negative_basis: np.ndarray

    def __post_init__(self):
        pos, neg = self.positive_basis, self.negative_basis
        dim = pos.shape[0]
        if neg.shape[0] != dim or pos.shape[1] + neg.shape[1] != dim:
            raise ShapeMismatch("component dimensions must fill the space")
        stacked = np.hstack([pos, neg])
        if np.linalg.svd(stacked, compute_uv=False)[-1] < SPAN_TOL:
            raise DegenerateSplit("components do not span the space")


def dual_pair(rep: Representation) -> DualPair:
    """Invariant dual pair for a bounded group of J-unitary matrices.

    The unitarized group tau(g) = U pi(g) U^{-1} is unitary and J-unitary,
    so it leaves H and K invariant, and pi leaves U^{-1} H and U^{-1} K
    invariant.  U^{-1} is the block of M_D at ``unitarize``'s fixed point D,
    U with its corners negated, as ``fixedpoint._chart`` forms it: its
    first n_plus columns are [I; D*] (1 - DD*)^{-1/2} and its last n_minus
    columns [D; I] (1 - D*D)^{-1/2}.  So the negative component is
    the graph L(D), and the positive one its J-orthogonal complement,
    spanned by [I; D*]; the bases are the QR factors of the two.  D is
    read off the result that ``unitarize`` stores on ``rep``, so a
    representation already unitarized is not solved again.
    """
    d = unitarize(rep).fixed_point
    sig = rep.signature
    cograph = np.vstack([np.eye(sig.n_plus), adjoint(d.matrix)])
    positive = np.linalg.qr(cograph)[0]
    negative = np.linalg.qr(graph_subspace(sig, d))[0]
    for basis, sign, label in ((positive, 1.0, "positive"),
                               (negative, -1.0, "negative")):
        gram, _ = _eta_form(basis, sig.n_plus, sig.n_minus)
        eig = np.linalg.eigvalsh((gram + adjoint(gram)) / 2.0)
        if (sign * eig).min() <= 0.0:
            raise DegenerateSplit(f"eta not definite on the {label} component")
    return DualPair(positive_basis=positive, negative_basis=negative)


def max_principal_angle(b1: np.ndarray, b2: np.ndarray):
    """Largest principal angle between the column spans (radians), a float,
    or an array for stacks of bases that broadcast.  With QR bases Q1 of
    the wider span and Q2, its sine is ||Q2 - Q1 Q1* Q2|| and its cosine the
    least singular value of Q1* Q2; each form is taken where it is accurate,
    the sine below pi/4 (Knyazev & Argentati 2002)."""
    q1, q2 = (np.linalg.qr(_require_finite(np.asarray(b), "basis"))[0]
              for b in (b1, b2))
    if q1.shape[-1] < q2.shape[-1]:
        q1, q2 = q2, q1
    overlap = adjoint(q1) @ q2
    cos = np.linalg.svd(overlap, compute_uv=False)[..., -1]
    angle = np.where(cos * cos >= 0.5,
                     np.arcsin(np.minimum(spectral_norm(q2 - q1 @ overlap), 1.0)),
                     np.arccos(np.minimum(cos, 1.0)))
    return float(angle) if angle.ndim == 0 else angle
