"""Orbits, group closure, and common fixed points of finite groups of ball
automorphisms.

A group is closed from its generators along the Cayley graph: the
elements found in the last layer are multiplied by each generator and
inverse in stacked kernel calls, and products are told apart by their
normalized blocks, aligned by the unimodular scalar they are defined up to.

The solver drives the displacement f(X) = max_g rho(X, w_g(X)) to zero;
f vanishes exactly on the common fixed-point set.  Everything is read in
the chart at the iterate X (``_chart``): the block U of M_{-X} conjugates
each element to tau = U T U^{-1}, and rho(X, w_g(X)) = atanh ||tau12
tau22^{-1}||.  A group with a table starts at the point read off its
averaged form mean_g T_g* T_g, which is fixed up to rounding; a
generator set starts at 0.  From a start that misses the tolerance, each
step solves the fixed-point equations of all elements, linearized in that
chart, in least squares (Newton), and is kept only while f falls.  The
displacement certifies the point; the minimal enclosing ball of the orbit,
whose center the paper's normal-structure argument fixes, is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ClosureExceeded,
    NotEtaPreserving,
    PreconditionUnmet,
)
from .mobius import (
    AUT_TOL,
    BallAutomorphism,
    BallPoint,
    _automorphism_stack,
    _mobius_block,
    automorphism_apply,
    automorphism_compose,
    eta_matrix,
    frac_linear,
    mobius_as_block,
    mobius_batch,
    zero_point,
)
from .opcore import adjoint, spectral_norm

GROUP_TOL = 1e-8
ELLIPTIC_MARGIN = 1e-6
FP_TOL = 1e-9
MAX_ELEMENTS = 256
# entries a closure layer puts in one stacked temporary at most; its
# products are taken in chunks that keep to it
CLOSURE_CHUNK = 1 << 17
MAX_ITER = 5000


@dataclass
class AutomorphismGroup:
    """A finite set of automorphisms closed under composition.

    ``table[i][j]`` indexes the element acting like elements[i] after
    elements[j].
    """

    elements: list
    table: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.elements:
            raise ValueError("group needs at least one element")
        first = self.elements[0]
        self.dim_h, self.dim_k = first.dim_h, first.dim_k
        self._blocks = np.stack([t.block for t in self.elements])

    def __len__(self):
        return len(self.elements)

    def apply_all(self, x: BallPoint) -> np.ndarray:
        """Stacked w_g(x) over all elements (batched fractional-linear)."""
        return frac_linear(self._blocks, x.matrix)


def _block_distance(prods: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """The relative phase-aligned distance ||P - cE||_F / (||P||_F ||E||_F)
    from each flattened block P of one stack to each block E of another,
    with c = <E, P> / |<E, P>| (1 where <E, P> = 0), the unimodular scalar
    that brings E nearest to P: a normalized block is defined only up to
    such a scalar."""
    inner = prods @ adjoint(elems)
    size = abs(inner)
    phase = np.divide(inner, size, out=np.ones_like(inner), where=size > 0)
    gap = np.linalg.norm(prods[:, None] - phase[..., None] * elems, axis=2)
    return gap / np.outer(np.linalg.norm(prods, axis=1),
                          np.linalg.norm(elems, axis=1))


def group_closure(generators: Sequence[BallAutomorphism]) -> AutomorphismGroup:
    """Close a generator set under composition.

    The elements are the identity, each generator and its inverse, then the
    products found breadth first along the Cayley graph: each layer takes
    the elements the last one found times every step, a distinct generator
    or inverse, so every product has one exact factor.  Two automorphisms
    are the same element when their normalized blocks, aligned by the
    unimodular scalar they are defined up to, are within a relative
    Frobenius distance ``GROUP_TOL`` (``_block_distance``).

    Each layer runs as a few stacked kernel calls over its products, taken
    in chunks that keep every stacked temporary within ``CLOSURE_CHUNK``
    entries: one block product, one normalization and eta check, and one
    distance from each product to the elements found so far and to the
    chunk's products.  Then, in order, a product that matches no earlier
    element starts a new one; where several match, the nearest is taken,
    the earliest of equals.  The table is gathered from the permutations
    the steps make of the elements.  Raises ``ClosureExceeded`` when the
    group is infinite or larger than ``MAX_ELEMENTS``, or when a step is
    not a permutation.
    """
    if not generators:
        raise ValueError("need at least one generator")
    p, q = generators[0].dim_h, generators[0].dim_k
    for g in generators:
        if (g.dim_h, g.dim_k) != (p, q):
            raise ValueError("generators must share one split")
    width = (p + q) ** 2

    elements: list = []
    # the elements' blocks, flattened
    blocks = np.empty((0, width), dtype=np.complex128)

    def chunks(at: int, stop: int):
        """Slices of the products [at, stop); the distances from a chunk's
        rows to the elements and to the chunk, rows x (elements + rows)
        blocks, are the largest temporaries."""
        while at < stop:
            found = len(elements)
            rows = max(1, (math.isqrt(found * found + 4 * (CLOSURE_CHUNK // width))
                           - found) // 2)
            yield slice(at, min(at + rows, stop))
            at += rows

    def settle(auts: list) -> np.ndarray:
        """The index of the element each automorphism is; one that matches
        no earlier one is appended."""
        nonlocal blocks
        cand = np.stack([t.block for t in auts]).reshape(len(auts), width)
        gap = _block_distance(cand, np.concatenate([blocks, cand]))
        known, own = gap[:, :len(elements)], gap[:, len(elements):]
        best = known.min(axis=1, initial=np.inf)
        index = known.argmin(axis=1) if len(elements) else np.zeros(
            len(auts), dtype=int)
        # only a product that matches no known element can start one; the
        # later products of the chunk are compared with each of those
        open_ = np.flatnonzero(best > GROUP_TOL)
        later = np.where(np.arange(len(auts))[:, None] > open_,
                         own[:, open_], np.inf)
        fresh = []
        for col, k in enumerate(open_):
            if best[k] <= GROUP_TOL:
                continue
            if len(elements) >= MAX_ELEMENTS:
                raise ClosureExceeded(MAX_ELEMENTS)
            index[k] = len(elements)
            elements.append(auts[k])
            fresh.append(k)
            closer = later[:, col] < best
            best[closer], index[closer] = later[closer, col], index[k]
        blocks = np.concatenate([blocks, cand[fresh]])
        return index

    # the identity and each generator's inverse are normalized and checked
    # in one stack
    firsts = _automorphism_stack(
        np.concatenate([np.eye(p + q)[None],
                        np.linalg.inv(np.stack([g.block for g in generators]))]),
        p, q, AUT_TOL)
    seeds = [firsts[0]]
    for g, g_inv in zip(generators, firsts[1:]):
        seeds += [g, g_inv]
    for part in chunks(0, len(seeds)):
        settle(seeds[part])

    # element 0 is the identity and the other distinct seeds are the steps;
    # a layer finds by_step[i, k], the element i s_k, for i in [start, known)
    steps = blocks[1:].reshape(-1, p + q, p + q)
    by_step = [np.empty(0, dtype=int)]
    start, known = 0, len(elements)
    while start < known:
        stack = blocks.reshape(-1, p + q, p + q)
        for part in chunks(start * len(steps), known * len(steps)):
            i, k = np.divmod(np.arange(part.start, part.stop), len(steps))
            try:
                auts = _automorphism_stack(stack[i] @ steps[k], p, q, AUT_TOL)
            except NotEtaPreserving as exc:
                # products of an elliptic finite set never saturate double
                # precision; losing eta mid-closure means unbounded growth
                raise ClosureExceeded(
                    MAX_ELEMENTS,
                    "composition chain saturated floating point; group "
                    "closure does not terminate") from exc
            by_step.append(settle(auts))
        start, known = known, len(elements)

    n = len(elements)
    by_step = np.concatenate(by_step).reshape(n, len(steps))
    # each step permutes a group; one that does not shows a false match
    if np.any(np.sort(by_step, axis=0) != np.arange(n)[:, None]):
        raise ClosureExceeded(MAX_ELEMENTS, "the closure steps do not permute "
                              "the elements found; they form no group")
    # element j, first found as i s_k, has x j = (x i) s_k for every x
    parent, step = np.divmod(np.unique(by_step, return_index=True)[1],
                             len(steps))
    table = np.empty((n, n), dtype=int)
    table[:, 0] = np.arange(n)
    for j in range(1, n):
        table[:, j] = by_step[table[:, parent[j]], step[j]]
    return AutomorphismGroup(elements=elements, table=table)


def is_elliptic(group: AutomorphismGroup, x0: BallPoint):
    """Whether the orbit of x0 stays within ``1 - ELLIPTIC_MARGIN`` of 0 in
    norm, a diagnostic off the solver's path.  Returns
    ``(elliptic, sup_norm)``."""
    sup_norm = float(spectral_norm(group.apply_all(x0)).max())
    return sup_norm <= 1.0 - ELLIPTIC_MARGIN, sup_norm


def _chart(blocks: np.ndarray, x: np.ndarray):
    """A stack of blocks T in the chart at X: ``(U, tau, tau22^{-1}, C, f)``
    with U = ``_mobius_block(-X)``, tau = U T U^{-1}, which acts as
    M_{-X} w_T M_X, the corners C = tau12 tau22^{-1} = M_{-X}(w_T(X)) and
    f(X) = max_g rho(X, w_g(X)) = max atanh ||C|| (inf where a corner
    reaches the sphere), since M_{-X} is an isometry taking X to 0.  A
    block's scale cancels in its corner.  The one displacement kernel."""
    p = x.shape[-2]
    u = _mobius_block(-x)
    tau = u @ blocks @ np.linalg.inv(u)
    inv22 = np.linalg.inv(tau[:, p:, p:])
    corner = tau[:, :p, p:] @ inv22
    top = float(spectral_norm(corner).max())
    return u, tau, inv22, corner, math.atanh(top) if top < 1.0 else math.inf


def _newton_step(tau: np.ndarray, inv22: np.ndarray,
                 corner: np.ndarray) -> np.ndarray:
    """The Newton step Y in the chart, clipped at ||Y|| = 1/2.  Near 0,
    w_tau(Y) = C + A Y B + O(||Y||^2) with A = tau11 - C tau21 and
    B = tau22^{-1}, so each element's w_tau(Y) = Y linearizes to
    Y - A Y B = C; in column-major vec, (I - B^T kron A) vec(Y) = vec(C),
    stacked over all elements and solved in least squares, whose
    minimum-norm solution suits a fixed-point set."""
    n, p, q = corner.shape
    a = tau[:, :p, :p] - corner @ tau[:, p:, :p]
    kron = np.einsum("nji,nkl->nikjl", inv22, a).reshape(n, p * q, p * q)
    system = (np.eye(p * q) - kron).reshape(n * p * q, p * q)
    vec = np.linalg.lstsq(system, corner.swapaxes(-1, -2).reshape(-1),
                          rcond=None)[0]
    y = vec.reshape(q, p).T
    norm = spectral_norm(y)
    return y if norm <= 0.5 else y * (0.5 / norm)


def displacement(group: AutomorphismGroup, x: BallPoint) -> float:
    """f(X) = max_g rho(X, w_g(X)), read in the chart at X (``_chart``);
    zero exactly on common fixed points."""
    return _chart(group._blocks, x.matrix)[-1]


@dataclass(frozen=True)
class FixedPointResult:
    point: BallPoint
    displacement: float
    iterations: int
    converged: bool
    history: list


def _averaged_point(blocks: np.ndarray, p: int, q: int) -> BallPoint:
    """The common fixed point of a finite group, read off the averaged form
    mean_g T_g* T_g of its stacked blocks (Weyl's unitarian trick: the form
    is invariant, and a unimodular factor of a block cancels in T*T).

    The form squares the blocks' conditioning, so it is taken as R*R/n from
    the R factor of one QR of the stacked blocks.  The negative eigenvectors
    Y of ``R^{-*} J R^{-1}`` give X = R^{-1} Y, a basis of the invariant
    maximal negative subspace L(D) (of dimension q by Sylvester's law of
    inertia), and D = X_H X_K^{-1}; where H and K share an irreducible class
    the fixed points form a set and this is one of them.
    """
    r_inv = np.linalg.inv(np.linalg.qr(blocks.reshape(-1, p + q), mode="r"))
    _, vecs = np.linalg.eigh(adjoint(r_inv) @ eta_matrix(p, q) @ r_inv)
    basis = r_inv @ vecs[:, :q]
    return BallPoint(np.linalg.solve(basis[p:].T, basis[:p].T).T,
                     boundary_tol=0.0)


def _check_mode(mode: str):
    """``mode`` names the one solver (see ``find_fixed_point``)."""
    if mode not in ("midpoint-descent", "chebyshev-iterate"):
        raise ValueError(f"unknown mode {mode!r}")


def _solve(blocks: np.ndarray, x0: BallPoint, mode: str):
    """The one solver, on a stack of blocks from ``x0`` (see
    ``find_fixed_point``): each Newton step moves X to M_X(Y).  Returns the
    ``FixedPointResult`` and the chart's U and tau at its point."""
    _check_mode(mode)
    x = x0.matrix
    u, tau, inv22, corner, f = _chart(blocks, x)
    history = [f]
    iterations = 0
    while f > FP_TOL and iterations < MAX_ITER:
        iterations += 1
        moved = mobius_batch(x, _newton_step(tau, inv22, corner))
        chart = _chart(blocks, moved)
        if not chart[-1] < f:
            break
        x = moved
        u, tau, inv22, corner, f = chart
        history.append(f)
    point = x0 if x is x0.matrix else BallPoint(x, boundary_tol=0.0)
    return FixedPointResult(point=point, displacement=f, iterations=iterations,
                            converged=f <= FP_TOL, history=history), u, tau


def find_fixed_point(group: AutomorphismGroup, x0: Optional[BallPoint] = None,
                     mode: str = "midpoint-descent") -> FixedPointResult:
    """Common fixed point of an elliptic automorphism group.

    The default ``x0`` is the averaged point (``_averaged_point``) of a
    group with a table, and 0 for a generator set without one.  The
    displacement is measured in the chart at ``x0`` (``_chart``): a start
    point within ``FP_TOL`` is returned as it is, after 0 iterations.
    Otherwise Newton steps (``_newton_step``) are taken while the
    displacement falls, at most ``MAX_ITER``; a step that does not lower
    it ends the solve with ``converged=False``, as in a group with no
    fixed point.  ``mode`` selects nothing: ``"midpoint-descent"`` and
    ``"chebyshev-iterate"``, names of replaced solvers, both run this one,
    and any other value raises ``ValueError``.  Which point of a
    non-trivial fixed-point set is returned is implementation-defined.
    ``history`` holds the displacement at the start and after each step.
    """
    if x0 is None:
        x0 = (zero_point(group.dim_h, group.dim_k) if group.table is None
              else _averaged_point(group._blocks, group.dim_h, group.dim_k))
    return _solve(group._blocks, x0, mode)[0]


class EquicontinuityWitness(NamedTuple):
    x1: BallPoint
    x2: BallPoint
    images: tuple
    input_gap: float
    image_gap: float


def equicontinuity_witness(g: BallAutomorphism,
                           delta: float) -> EquicontinuityWitness:
    """Certify equicontinuity failure for a near-boundary automorphism.

    For g with ||g(0)|| > 1 - delta the pair X1 = 0 and X2 (the pullback of
    half the top spectral slice of g(0)) satisfies ||X2 - X1|| > 1/4 while
    the images under g differ by less than delta.
    """
    if not 0.0 < delta < 0.5:
        raise PreconditionUnmet(f"delta must lie in (0, 1/2), got {delta!r}")
    p, q = g.dim_h, g.dim_k
    x1 = zero_point(p, q)
    a = automorphism_apply(g, x1)
    norm_a = spectral_norm(a.matrix)
    if norm_a <= 1.0 - delta:
        raise PreconditionUnmet(
            f"||g(0)|| = {norm_a!r} not above 1 - delta = {1.0 - delta!r}")

    # linear factor h of g = M_A o h: S = T_{-A} T_g is block diagonal with
    # unitary blocks, acting by X -> S11 X S22^{-1}
    s = automorphism_compose(mobius_as_block(BallPoint(-a.matrix, 0.0)), g)
    s11, _, _, s22 = s.blocks()
    gram = adjoint(a.matrix) @ a.matrix
    lam, vecs = np.linalg.eigh(gram)
    top = lam >= lam[-1] - 1e-10 * (1.0 + lam[-1])
    proj = vecs[:, top] @ adjoint(vecs[:, top])
    half_slice = 0.5 * a.matrix @ proj
    x2 = BallPoint(np.linalg.solve(s11, half_slice) @ s22, boundary_tol=0.0)

    y2 = automorphism_apply(g, x2)
    input_gap = spectral_norm(x2.matrix - x1.matrix)
    image_gap = spectral_norm(y2.matrix - a.matrix)
    if not (input_gap > 0.25 and image_gap < delta):
        raise ArithmeticError(
            f"witness construction failed: input gap {input_gap!r}, "
            f"image gap {image_gap!r}")
    return EquicontinuityWitness(x1=x1, x2=x2, images=(a, y2),
                                 input_gap=input_gap, image_gap=image_gap)
