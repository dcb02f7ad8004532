"""Group closure and common fixed points of finite groups of ball
automorphisms.

A group is closed from its generators along the Cayley graph: the
elements found in the last layer are multiplied by each generator and
inverse in stacked kernel calls, and products are told apart by their
normalized blocks, aligned by the unimodular scalar they are defined up to.
Each element keeps its Frobenius norm and conjugated flat row, so a layer
measures only its own products, and one whose products all match known
elements ends when their nearest elements are found.

The solver drives the displacement f(X) = max_g rho(X, w_g(X)) to zero;
f vanishes exactly on the common fixed-point set.  Everything is read in
the chart at the iterate X (``_chart``): the block U of M_{-X} conjugates
each element to tau = U T U^{-1}, with U^{-1} the block of M_X, and
rho(X, w_g(X)) = atanh ||tau12 tau22^{-1}||.  A group with a table starts
at the point read off its averaged form mean_g T_g* T_g, which is fixed up
to rounding (a representation after its eta check); a generator set at 0.
From a start that misses the tolerance, each step solves the fixed-point
equations of all elements, linearized in that chart, in least squares
(Newton), and is kept only while f falls.  The displacement certifies the
point; the minimal enclosing ball of the orbit, whose center the paper's
normal-structure argument fixes, is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ClosureExceeded,
    FixedPointFailed,
    NotEtaPreserving,
    PreconditionUnmet,
    ShapeMismatch,
)
from .mobius import (
    AUT_TOL,
    BallAutomorphism,
    BallPoint,
    _automorphism_stack,
    _eta_form,
    _mobius_block,
    automorphism_apply,
    automorphism_compose,
    mobius_as_block,
    mobius_batch,
    zero_point,
)
from .opcore import adjoint, frobenius_norm, spectral_norm

GROUP_TOL = 1e-8
FP_TOL = 1e-9
MAX_ELEMENTS = 256
# entries a closure layer puts in one stacked temporary at most; its
# products are taken in chunks that keep to it
CLOSURE_CHUNK = 1 << 17
MAX_ITER = 5000


def _checked_table(table):
    """``(read-only int copy of table, identity index)`` for a group table.
    Its entries must be integers: floats, bools and strings raise
    ``ValueError`` instead of being cast.  It must be square over 0..n-1
    with every row and column a permutation, the first offending index
    reported, row first, and have one two-sided identity."""
    entries = np.asarray(table)
    if entries.size and (entries.dtype == bool
                         or not np.issubdtype(entries.dtype, np.integer)):
        raise ValueError("multiplication table entries must be integers, "
                         f"got {entries.dtype}")
    table = entries.astype(int)
    n = len(table)
    if table.shape != (n, n) or table.min() < 0 or table.max() >= n:
        raise ValueError("multiplication table must be square over 0..n-1")
    every = np.arange(n)
    rows = (np.sort(table, axis=1) != every).any(axis=1)
    cols = (np.sort(table, axis=0) != every[:, None]).any(axis=0)
    bad = np.flatnonzero(rows | cols)
    if len(bad):
        kind = "row" if rows[bad[0]] else "column"
        raise ValueError(f"{kind} {bad[0]} of the table is not a permutation")
    ident = np.flatnonzero((table == every).all(axis=1)
                           & (table.T == every).all(axis=1))
    if len(ident) != 1:
        raise ValueError("table has no two-sided identity")
    table.setflags(write=False)
    return table, int(ident[0])


class AutomorphismGroup:
    """The one group type: a finite set of automorphisms of one split
    (``dim_h``, ``dim_k``), held as one read-only stack of blocks, whose rows
    ``images`` and ``BallAutomorphism`` views ``elements`` are built on each
    read.  With a ``table`` (``_checked_table``, kept as a read-only copy
    with its ``identity_index``), ``table[i][j]`` indexes the element acting
    like elements[i] after elements[j]; without one, both are None and the
    set is a generator set.  This constructor takes automorphisms, whose
    blocks are normalized; ``pontryagin.Representation`` is its checked
    constructor from a signature, a table and one matrix per element.
    ``_unitarization``, the first passing ``unitarize`` of a representation,
    which ``unitarize`` and ``dual_pair`` reuse, is the one slot that
    changes after construction.
    """

    __slots__ = ("_stack", "dim_h", "dim_k", "table", "identity_index",
                 "_unitarization")

    def __init__(self, elements, table=None):
        if not elements:
            raise ValueError("need at least one automorphism")
        p, q = elements[0].dim_h, elements[0].dim_k
        if any((t.dim_h, t.dim_k) != (p, q) for t in elements):
            raise ValueError("automorphisms must share one split")
        ident = None
        if table is not None:
            table, ident = _checked_table(table)
            if len(table) != len(elements):
                raise ValueError(f"table has {len(table)} rows for "
                                 f"{len(elements)} elements")
        self._hold(np.stack([t.block for t in elements]), p, q, table, ident)

    def _hold(self, stack, dim_h, dim_k, table, identity_index):
        """Set the slots; nothing is checked, and no unitarization is stored."""
        stack.setflags(write=False)
        self._stack, self.dim_h, self.dim_k = stack, dim_h, dim_k
        self.table, self.identity_index = table, identity_index
        self._unitarization = None
        return self

    def _start(self) -> BallPoint:
        """The default start of ``find_fixed_point``: the averaged point of
        a group with a table (``_averaged_point``), 0 for a generator set."""
        if self.table is None:
            return zero_point(self.dim_h, self.dim_k)
        return _averaged_point(self._stack, self.dim_h, self.dim_k)

    @property
    def images(self) -> tuple:
        return tuple(self._stack)

    @property
    def elements(self) -> tuple:
        return tuple(object.__new__(BallAutomorphism)._set(
            block, self.dim_h, self.dim_k) for block in self._stack)

    def __len__(self):
        return len(self._stack)


def _block_distance(prods: np.ndarray, elems: np.ndarray, norms=None,
                    rows=None) -> np.ndarray:
    """The relative phase-aligned distance ||P - cE||_F / (||P||_F ||E||_F)
    from each block P of one stack to each block E of another, with
    c = <E, P> / |<E, P>| (1 where <E, P> = 0), the unimodular scalar that
    brings E nearest to P: a normalized block is defined only up to such a
    scalar.  A caller that keeps the Es' Frobenius norms and conjugated flat
    rows passes them as ``norms`` and ``rows``; the Ps are then the last
    blocks of the Es, and their norms are read from ``norms``."""
    if norms is None:
        norms, own = frobenius_norm(elems), frobenius_norm(prods)
        rows = elems.reshape(len(elems), -1).conj()
    else:
        own = norms[len(norms) - len(prods):]
    inner = prods.reshape(len(prods), -1) @ rows.T
    size = abs(inner)
    phase = np.divide(inner, size, out=np.ones_like(inner), where=size > 0)
    aligned = phase[..., None, None] * elems
    gap = frobenius_norm(np.subtract(prods[:, None], aligned, out=aligned))
    return gap / (own[:, None] * norms)


def group_closure(generators: Sequence[BallAutomorphism]) -> AutomorphismGroup:
    """Close a generator set under composition.

    The elements are the identity, each generator and its inverse, then the
    products found breadth first along the Cayley graph: each layer takes
    the elements the last one found times every step, a distinct generator
    or inverse, so every product has one exact factor.  Two automorphisms
    are the same element when their normalized blocks, aligned by the
    unimodular scalar they are defined up to, are within a relative
    Frobenius distance ``GROUP_TOL`` (``_block_distance``).

    Each element found keeps its normalized block, its Frobenius norm and
    its conjugated flat row.  A layer's products are taken in chunks that
    keep every stacked temporary within ``CLOSURE_CHUNK`` entries, each as
    a few stacked kernel calls: one broadcast product of the chunk's
    elements with every step, one normalization and eta check, and one
    distance from each product to the elements found so far and to the
    chunk's products, which forms the norms and rows of the products only.
    Each product is the nearest element it matches, the earliest of equals;
    a chunk with no open product, one that matches no element, is settled
    by that search alone.  Otherwise the open products are gone through in
    order, on lists: each is the nearest new element started earlier in
    its chunk, the earliest of equals, if that is within ``GROUP_TOL``, and
    else starts a new element.  The table is gathered from the
    permutations the steps make of the elements.  Raises
    ``ClosureExceeded`` when the group is infinite or larger than
    ``MAX_ELEMENTS``, or when a step is not a permutation.
    """
    gens = AutomorphismGroup(generators)
    p, q = gens.dim_h, gens.dim_k
    n = p + q

    def rows_at(found: int) -> int:
        """The products in one chunk when ``found`` elements are known: the
        distances from a chunk's rows to the elements and to the chunk,
        rows x (elements + rows) blocks, are the largest temporaries."""
        return max(1, (math.isqrt(found * found + 4 * (CLOSURE_CHUNK // (n * n)))
                       - found) // 2)

    # what is kept of each element found: its normalized block, Frobenius
    # norm and conjugated flat row.  A chunk's candidates are written after
    # the last element, so that its distance reads one stack, and the new
    # ones stay there; a chunk holds at most rows_at(0) candidates
    room = MAX_ELEMENTS + rows_at(0)
    blocks = np.empty((room, n, n), dtype=np.complex128)
    norms = np.empty(room)
    rows = np.empty((room, n * n), dtype=np.complex128)
    found = 0

    def chunks(at: int, stop: int):
        """Slices of the products [at, stop), of ``rows_at`` products each."""
        while at < stop:
            size = rows_at(found)
            yield slice(at, min(at + size, stop))
            at += size

    def settle(cand: np.ndarray) -> np.ndarray:
        """The index of the element each normalized block of a stack is;
        one that matches no earlier one is appended."""
        nonlocal found
        stop = found + len(cand)
        blocks[found:stop] = cand
        norms[found:stop] = frobenius_norm(cand)
        np.conjugate(cand.reshape(len(cand), -1), out=rows[found:stop])
        gap = _block_distance(cand, blocks[:stop], norms[:stop], rows[:stop])
        known = gap[:, :found]
        best = known.min(axis=1, initial=np.inf)
        index = known.argmin(axis=1) if found else np.zeros(len(cand), dtype=int)
        open_ = np.flatnonzero(best > GROUP_TOL)
        if not len(open_):
            return index
        # an open product is the nearest new element started earlier in the
        # chunk, the earliest of equals, within GROUP_TOL; else it starts one
        fresh, match = [], []
        for a, dist in enumerate(gap[open_[:, None], found + open_].tolist()):
            near = min(fresh, key=dist.__getitem__, default=None)
            if near is not None and dist[near] <= GROUP_TOL:
                match.append(match[near])
                continue
            if found + len(fresh) >= MAX_ELEMENTS:
                raise ClosureExceeded(MAX_ELEMENTS)
            match.append(found + len(fresh))
            fresh.append(a)
        index[open_] = match
        new = found + open_[fresh]
        for kept in (blocks, norms, rows):
            kept[found:found + len(fresh)] = kept[new]
        found += len(fresh)
        return index

    # the seeds are the identity, then each generator and its inverse; the
    # generators' blocks are normalized already, and the identity and the
    # inverses are normalized and checked in one stack
    seeds = np.empty((2 * len(gens) + 1, n, n), dtype=np.complex128)
    seeds[::2] = _automorphism_stack(
        np.concatenate([np.eye(n)[None], np.linalg.inv(gens._stack)]),
        p, q, AUT_TOL)
    seeds[1::2] = gens._stack
    for part in chunks(0, len(seeds)):
        settle(seeds[part])

    # element 0 is the identity and the other distinct seeds are the steps;
    # a layer finds by_step[i, k], the element i s_k, for i in [start, known),
    # the products of a chunk's elements with every step taken in one
    # broadcast product and sliced to the chunk
    steps = blocks[1:found]
    nsteps = len(steps)
    by_step = [np.empty(0, dtype=int)]
    start, known = 0, found
    while start < known:
        for part in chunks(start * nsteps, known * nsteps):
            first, skip = divmod(part.start, nsteps)
            prods = np.matmul(blocks[first:-(-part.stop // nsteps), None], steps)
            prods = prods.reshape(-1, n, n)[skip:skip + part.stop - part.start]
            try:
                prods = _automorphism_stack(prods, p, q, AUT_TOL)
            except NotEtaPreserving as exc:
                # products of an elliptic finite set never saturate double
                # precision; losing eta mid-closure means unbounded growth
                raise ClosureExceeded(
                    MAX_ELEMENTS,
                    "composition chain saturated floating point; group "
                    "closure does not terminate") from exc
            by_step.append(settle(prods))
        start, known = known, found

    by_step = np.concatenate(by_step).reshape(found, nsteps)
    # each step permutes a group; one that does not shows a false match
    if np.any(np.sort(by_step, axis=0) != np.arange(found)[:, None]):
        raise ClosureExceeded(MAX_ELEMENTS, "the closure steps do not permute "
                              "the elements found; they form no group")
    # element j, first found as i s_k, has x j = (x i) s_k for every x
    parent, step = np.divmod(np.unique(by_step, return_index=True)[1], nsteps)
    table = np.empty((found, found), dtype=int)
    table[:, 0] = np.arange(found)
    for j in range(1, found):
        table[:, j] = by_step[table[:, parent[j]], step[j]]
    table.setflags(write=False)
    return object.__new__(AutomorphismGroup)._hold(blocks[:found].copy(), p, q,
                                                   table, 0)


def _chart(blocks: np.ndarray, x: np.ndarray):
    """A stack of blocks T in the chart at X: ``(U, tau, tau22^{-1}, C)``
    with U = ``_mobius_block(-X)``, tau = U T U^{-1}, which acts as
    M_{-X} w_T M_X, and the corners C = tau12 tau22^{-1} = M_{-X}(w_T(X)).
    M_{-X} is an isometry taking X to 0, so rho(X, w_T(X)) = atanh ||C||
    (``_displacement``); a block's scale cancels in its corner.  U^{-1} is
    the block of M_X, exactly, since M_{-X}^{-1} = M_X: it has U's defect
    roots on its diagonal and U's corners negated, so it is read off U
    with no inversion."""
    p = x.shape[-2]
    u = _mobius_block(-x)
    u_inv = u.copy()
    u_inv[:p, p:] *= -1.0
    u_inv[p:, :p] *= -1.0
    tau = u @ blocks @ u_inv
    inv22 = np.linalg.inv(tau[:, p:, p:])
    return u, tau, inv22, tau[:, :p, p:] @ inv22


def _displacement(corner: np.ndarray) -> float:
    """f(X) = max_g rho(X, w_g(X)) = max atanh ||C_g|| from the chart's
    corners, inf where a corner reaches the sphere: one batched SVD, taken
    only where a displacement is reported or a step is judged.  The one
    displacement kernel."""
    top = float(spectral_norm(corner).max())
    return math.atanh(top) if top < 1.0 else math.inf


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
    """f(X) = max_g rho(X, w_g(X)), read in the chart at X (``_chart``,
    ``_displacement``); zero exactly on common fixed points.  X must have
    the group's shape (``_check_point_shape``)."""
    _check_point_shape(x, group.dim_h, group.dim_k)
    return _displacement(_chart(group._stack, x.matrix)[-1])


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
    Y of ``R^{-*} J R^{-1}`` (``_eta_form``, where J enters as its signs)
    give X = R^{-1} Y, a basis of the invariant maximal negative subspace
    L(D) (of dimension q by Sylvester's law of inertia), and
    D = X_H X_K^{-1}; where H and K share an irreducible class the fixed
    points form a set and this is one of them.
    """
    r_inv = np.linalg.inv(np.linalg.qr(blocks.reshape(-1, p + q), mode="r"))
    _, vecs = np.linalg.eigh(_eta_form(r_inv, p, q)[0])
    basis = r_inv @ vecs[:, :q]
    return BallPoint(np.linalg.solve(basis[p:].T, basis[:p].T).T,
                     boundary_tol=0.0)


def _check_point_shape(x: BallPoint, p: int, q: int):
    """Raise ``ShapeMismatch`` unless the point is p x q, a point of the
    split (p, q): checked before any chart or SVD is taken."""
    if x.shape != (p, q):
        raise ShapeMismatch(f"point shape {x.shape} != {(p, q)}")


def _check_mode(mode: str):
    """``mode`` names the one solver (see ``find_fixed_point``)."""
    if mode not in ("midpoint-descent", "chebyshev-iterate"):
        raise ValueError(f"unknown mode {mode!r}")


def _solve(blocks: np.ndarray, x0: BallPoint, chart: tuple):
    """The one solver, on a stack of blocks from ``x0`` and the chart there
    (see ``find_fixed_point``): each Newton step moves X to M_X(Y).  Returns
    the ``FixedPointResult`` and the chart's U and tau at its point."""
    x = x0.matrix
    u, tau, inv22, corner = chart
    f = _displacement(corner)
    history = [f]
    iterations = 0
    while f > FP_TOL and iterations < MAX_ITER:
        iterations += 1
        moved = mobius_batch(x, _newton_step(tau, inv22, corner))
        chart = _chart(blocks, moved)
        moved_f = _displacement(chart[-1])
        if not moved_f < f:
            break
        x, f = moved, moved_f
        u, tau, inv22, corner = chart
        history.append(f)
    point = x0 if x is x0.matrix else BallPoint(x, boundary_tol=0.0)
    return FixedPointResult(point=point, displacement=f, iterations=iterations,
                            converged=f <= FP_TOL, history=history), u, tau


def _fixed_chart(blocks: np.ndarray, x0: BallPoint):
    """``(point, U, tau)``: a common fixed point reached from ``x0`` and the
    chart there, for a caller that reports no displacement.

    A start whose corners pass the Frobenius screen
    max_g ||C_g||_F <= tanh(``FP_TOL``) is kept, with its U and tau, after 0
    iterations and with no spectra: ||C_g|| <= ||C_g||_F, so f <= ``FP_TOL``.
    Any other start goes to ``_solve``, which measures f, and a solve that
    stops above ``FP_TOL`` raises ``FixedPointFailed``."""
    chart = _chart(blocks, x0.matrix)
    if frobenius_norm(chart[-1]).max() <= math.tanh(FP_TOL):
        return x0, chart[0], chart[1]
    result, u, tau = _solve(blocks, x0, chart)
    if not result.converged:
        raise FixedPointFailed(
            f"solver stalled at displacement {result.displacement:.3e}")
    return result.point, u, tau


def find_fixed_point(group: AutomorphismGroup, x0: Optional[BallPoint] = None,
                     mode: str = "midpoint-descent") -> FixedPointResult:
    """Common fixed point of an elliptic automorphism group, or of the
    automorphisms a representation induces.

    ``mode`` selects nothing: ``"midpoint-descent"`` and
    ``"chebyshev-iterate"``, names of replaced solvers, both run this one,
    and any other value raises ``ValueError``; it is checked first, then the
    shape of a given ``x0`` (``_check_point_shape``), before any start is
    formed.  The default ``x0`` is the averaged point (``_averaged_point``)
    of a group with a table, 0 for a generator set, and for a
    representation ``pontryagin.averaged_fixed_point``, behind its eta
    certificate, the start ``unitarize`` solves from.  The displacement is
    measured in the chart at ``x0`` (``_chart``, ``_displacement``): a start
    point within ``FP_TOL`` is returned as it is, after 0 iterations.
    Otherwise Newton steps (``_newton_step``) are taken while the
    displacement falls, at most ``MAX_ITER``; a step that does not lower
    it ends the solve with ``converged=False``, as in a group with no
    fixed point.  Which point of a non-trivial fixed-point set is returned
    is implementation-defined.  ``history`` holds the displacement at the
    start and after each step.
    """
    _check_mode(mode)
    if x0 is None:
        x0 = group._start()
    else:
        _check_point_shape(x0, group.dim_h, group.dim_k)
    return _solve(group._stack, x0, _chart(group._stack, x0.matrix))[0]


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
