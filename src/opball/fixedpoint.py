"""Orbits, ellipticity certification, and common fixed points of finite
groups of ball automorphisms.

A group is closed from its generators one frontier round at a time: the
elements found in the last round are multiplied with every known element
in stacked kernel calls, and products are told apart by their action on
a few seeded probe points.

The solver minimizes the displacement f(X) = max_g rho(X, w_g(X)), which
is convex along geodesics and vanishes exactly on the common fixed-point
set.  A group with a table starts at the point read off its averaged form
R = mean_g T_g* T_g, which is fixed up to rounding; a generator set starts
at 0.  From a start that misses the tolerance, each step moves toward the
rho-midpoint of X and the image under the worst group element, with
backtracking.  The displacement certifies the point; the minimal
enclosing ball of the orbit, whose center the paper's normal-structure
argument fixes, is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ClosureExceeded,
    NotElliptic,
    NotEtaPreserving,
    PreconditionUnmet,
)
from .hyperbolic import (
    _rho,
    barycenter_sequence,
    convex_combination,
    distances_from,
)
from .mobius import (
    AUT_TOL,
    BallAutomorphism,
    BallPoint,
    _automorphism_stack,
    automorphism_apply,
    automorphism_compose,
    eta_matrix,
    frac_linear,
    mobius_as_block,
    zero_point,
)
from .opcore import adjoint, hermitian_eig, spectral_norm
from .sampling import probe_points

GROUP_TOL = 1e-8
ELLIPTIC_MARGIN = 1e-6
FP_TOL = 1e-9
MAX_ELEMENTS = 256
# entries a closure round puts in one stacked temporary at most; its
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


# a product whose bound on sinh rho to its one near element is below this
# matches it without a rho; the factor 2 to sinh(GROUP_TOL) absorbs rounding
_SETTLE_BOUND = 0.5 * math.sinh(GROUP_TOL)
# probe images closer to the boundary than this cannot be compared reliably
# in rho; such automorphisms are treated as distinct from everything (only
# runaway, non-elliptic sequences produce them)
_PROBE_MARGIN_FLOOR = 1e-10


@lru_cache(maxsize=None)
def _probe_matrices(p: int, q: int) -> np.ndarray:
    """The stacked probe points of a split, made once."""
    mats = np.stack([pt.matrix for pt in probe_points(p, q)])
    mats.setflags(write=False)
    return mats


def _action_signature(t: BallAutomorphism, probe_mats) -> Optional[np.ndarray]:
    """Raw w_T images of the probe stack, or None when the action
    degenerates."""
    try:
        return frac_linear(t.block, probe_mats)
    except np.linalg.LinAlgError:
        return None


def _probe(auts: list, probe_mats):
    """The probe signatures of a list of automorphisms, in one stacked
    fractional-linear evaluation and one stacked margin SVD, which of them
    rho can compare, and the room 1 - ||A||^2 of each probe image A.  A
    degenerate action in the stack sends it through ``_action_signature``
    one element at a time; that element gets zeros and is not comparable."""
    blocks = np.stack([t.block for t in auts])
    try:
        sigs = frac_linear(blocks[:, None], probe_mats)
        ok = np.ones(len(auts), dtype=bool)
    except np.linalg.LinAlgError:
        each = [_action_signature(t, probe_mats) for t in auts]
        ok = np.array([s is not None for s in each])
        sigs = np.stack([np.zeros_like(probe_mats) if s is None else s
                         for s in each])
    margins = 1.0 - spectral_norm(sigs)
    ok &= margins.min(axis=1) >= _PROBE_MARGIN_FLOOR
    return sigs, ok, margins * (2.0 - margins)


def _worst_rho(cand, refs, settle, mask=True):
    """The worst rho over the probes from each candidate to each reference
    (``(signatures, ok, room)`` from ``_probe``); inf where either cannot be
    compared, ``mask`` is False, or the screen sinh rho >= ||B - A|| >=
    max |B - A| rules the pair out: only pairs within ``sinh(GROUP_TOL)``
    entrywise are near.  As ||(1 - AA*)^{-1/2}|| = (1 - ||A||^2)^{-1/2},
    sinh rho <= ||B - A||_F / sqrt(room_A room_B); a row that may ``settle``
    (a flag, or one per row) with one near reference bounded below
    ``_SETTLE_BOUND`` holds the asinh of that bound, the other near pairs
    their rho from one stacked call.  Returns these and the bounded rows."""
    (sigs, ok, room), (ref, ref_ok, ref_room) = cand, refs
    near = mask & ok[:, None] & ref_ok & (
        abs(sigs[:, None] - ref).max(axis=(2, 3, 4)) < np.sinh(GROUP_TOL))
    worst = np.full(near.shape, np.inf)
    c, r = np.nonzero(near)
    if not len(c):
        return worst, c
    upper = (np.linalg.norm(sigs[c] - ref[r], axis=(2, 3))
             / np.sqrt(room[c] * ref_room[r])).max(axis=1)
    bounded = (upper < _SETTLE_BOUND) & ((near.sum(axis=1) == 1) & settle)[c]
    worst[c, r] = np.arcsinh(upper)
    settled, c, r = c[bounded], c[~bounded], r[~bounded]
    if len(c):
        worst[c, r] = _rho(sigs[c], ref[r]).max(axis=1)
    return worst, settled


def group_closure(generators: Sequence[BallAutomorphism],
                  max_elements: int = MAX_ELEMENTS) -> AutomorphismGroup:
    """Close a generator set under composition.

    The elements are the identity, each generator and its inverse, then the
    products of the elements found so far, one frontier round at a time:
    round r multiplies the elements that round r - 1 found with every
    element known when round r starts, on both sides.  Two automorphisms
    are the same element when the worst rho between their actions on a
    fixed seeded probe set is below ``GROUP_TOL`` (block matrices are only
    defined up to a scalar; the action is the semantic identity).

    Each round runs as a few stacked kernel calls over its products, taken
    in chunks that keep every stacked temporary within ``CLOSURE_CHUNK``
    entries: one block product, one normalization and eta check, one probe
    evaluation and margin SVD, then a two-sided screen against the elements
    found so far and among the chunk's products that match none of them.
    A pair more than ``sinh(GROUP_TOL)`` apart in some entry is distinct; a
    product with one near element and no other match to weigh is that
    element when its Frobenius bound on sinh rho is below half of
    ``sinh(GROUP_TOL)``; the other near pairs take one stacked rho.  Then,
    in order, a product that matches no earlier element starts a new one;
    where several match, the nearest is taken, the earliest of equals.
    Elements and table are thus those of a closure that takes the products
    one at a time.  Raises ``ClosureExceeded`` when the group is infinite
    or larger than ``max_elements``.
    """
    if not generators:
        raise ValueError("need at least one generator")
    p, q = generators[0].dim_h, generators[0].dim_k
    for g in generators:
        if (g.dim_h, g.dim_k) != (p, q):
            raise ValueError("generators must share one split")
    probe_mats = _probe_matrices(p, q)
    width = probe_mats.size

    elements: list = []
    # the elements' probe signatures, comparability and room (``_probe``)
    probed = (np.empty((0,) + probe_mats.shape, dtype=np.complex128),
              np.empty(0, dtype=bool), np.empty((0, len(probe_mats))))

    def chunks(count: int):
        """Slices of ``count`` products; the screens against the elements
        and within a chunk are the largest temporaries."""
        at = 0
        while at < count:
            rows = max(1, min(CLOSURE_CHUNK // (max(len(elements), 1) * width),
                              math.isqrt(CLOSURE_CHUNK // width),
                              CLOSURE_CHUNK // (p + q) ** 2))
            yield slice(at, at + rows)
            at += rows

    def settle(auts: list) -> np.ndarray:
        """The index of the element each automorphism acts as; one that
        acts as no earlier one is appended."""
        nonlocal probed
        cand = _probe(auts, probe_mats)
        worst, bounded = _worst_rho(cand, probed, True)
        best = worst.min(axis=1, initial=np.inf)
        index = worst.argmin(axis=1) if len(elements) else np.zeros(
            len(auts), dtype=int)
        # only a product that matches no known element can start one; the
        # later products of the chunk are compared with each of those.  A
        # bound stands only where no other match is weighed against it: a
        # matched product takes rho to the new elements and to its match
        open_ = np.flatnonzero(best >= GROUP_TOL)
        later, _ = _worst_rho(cand, [x[open_] for x in cand], np.isinf(best),
                              np.arange(len(auts))[:, None] > open_)
        redo = bounded[np.isfinite(later[bounded]).any(axis=1)]
        if len(redo):
            best[redo] = _rho(cand[0][redo], probed[0][index[redo]]).max(axis=1)
        fresh = []
        for col, k in enumerate(open_):
            if best[k] < GROUP_TOL:
                continue
            if len(elements) >= max_elements:
                raise ClosureExceeded(max_elements)
            index[k] = len(elements)
            elements.append(auts[k])
            fresh.append(k)
            closer = later[:, col] < best
            best[closer], index[closer] = later[closer, col], index[k]
        probed = tuple(np.concatenate([k, x[fresh]])
                       for k, x in zip(probed, cand))
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
    for part in chunks(len(seeds)):
        settle(seeds[part])

    # a round's frontier [start, known) is what the previous round found;
    # it takes frontier x [0, known), then [0, start) x frontier
    start, known = 0, len(elements)
    table_parts = []
    while start < known:
        frontier = np.arange(start, known)
        left = np.concatenate([np.repeat(frontier, known),
                               np.repeat(np.arange(start), len(frontier))])
        right = np.concatenate([np.tile(np.arange(known), len(frontier)),
                                np.tile(frontier, start)])
        stack = np.stack([t.block for t in elements[:known]])
        for part in chunks(len(left)):
            i, j = left[part], right[part]
            try:
                auts = _automorphism_stack(stack[i] @ stack[j], p, q, AUT_TOL)
            except NotEtaPreserving as exc:
                # products of an elliptic finite set never saturate double
                # precision; losing eta mid-closure means unbounded growth
                raise ClosureExceeded(
                    max_elements,
                    "composition chain saturated floating point; group "
                    "closure does not terminate") from exc
            table_parts.append((i, j, settle(auts)))
        start, known = known, len(elements)

    # each element met every other in the frontier round of the later one
    n = len(elements)
    table = np.empty((n, n), dtype=int)
    for i, j, index in table_parts:
        table[i, j] = index
    return AutomorphismGroup(elements=elements, table=table)


def is_elliptic(group: AutomorphismGroup, x0: BallPoint,
                elliptic_margin: float = ELLIPTIC_MARGIN):
    """Whether the orbit of x0 stays norm-separated from the boundary.
    Returns ``(elliptic, sup_norm)``."""
    return _elliptic_orbit(group.apply_all(x0), elliptic_margin)


def _elliptic_orbit(images: np.ndarray, elliptic_margin: float):
    """``is_elliptic`` on an orbit's stacked images."""
    sup_norm = float(np.linalg.svd(images, compute_uv=False)[:, 0].max())
    return sup_norm <= 1.0 - elliptic_margin, sup_norm


def displacement(group: AutomorphismGroup, x: BallPoint) -> float:
    """f(X) = max_g rho(X, w_g(X)); zero exactly on common fixed points."""
    return float(distances_from(x.matrix, group.apply_all(x)).max())


@dataclass(frozen=True)
class FixedPointResult:
    point: BallPoint
    displacement: float
    iterations: int
    converged: bool
    history: list


def _averaged_point(blocks: np.ndarray, p: int, q: int) -> BallPoint:
    """The common fixed point of a finite group, read off the averaged form
    R = mean_g T_g* T_g of its stacked blocks (Weyl's unitarian trick: R is
    invariant, and a unimodular factor of a block cancels in T*T).

    With R = L L*, the negative eigenvectors Y of the Hermitian
    ``L^{-1} J L^{-*}`` give X = L^{-*} Y, a basis of the invariant maximal
    negative subspace L(D) (of dimension q by Sylvester's law of inertia),
    and D = X_H X_K^{-1}.  Where H and K share an irreducible class the
    fixed points form a set and this is one of them.
    """
    form = np.mean(adjoint(blocks) @ blocks, axis=0)
    l_inv = np.linalg.inv(np.linalg.cholesky(form))
    _, vecs = np.linalg.eigh(l_inv @ eta_matrix(p, q) @ adjoint(l_inv))
    basis = adjoint(l_inv) @ vecs[:, :q]
    return BallPoint(np.linalg.solve(basis[p:].T, basis[:p].T).T,
                     boundary_tol=0.0)


def find_fixed_point(group: AutomorphismGroup, x0: Optional[BallPoint] = None,
                     fp_tol: float = FP_TOL,
                     mode: str = "midpoint-descent") -> FixedPointResult:
    """Common fixed point of an elliptic automorphism group.

    The default ``x0`` is the averaged point (``_averaged_point``) of a
    group with a table, and 0 for a generator set without one.  Measures
    the displacement at ``x0`` first: a start point already within
    ``fp_tol`` is returned as it is, after 0 iterations.  Otherwise the
    solve starts from the running barycenter of the orbit of ``x0`` and
    descends the displacement by midpoint steps with backtracking.
    ``mode`` selects nothing: it accepts ``"midpoint-descent"`` and, for
    callers written before the Chebyshev-center solver was removed,
    ``"chebyshev-iterate"``, and both run the one descent; any other
    value raises ``ValueError``.  Which point of a non-trivial fixed-point
    set is returned is implementation-defined.  ``history`` holds the
    displacement at the start and after each iteration.
    """
    if mode not in ("midpoint-descent", "chebyshev-iterate"):
        raise ValueError(f"unknown mode {mode!r}")
    if x0 is None:
        x0 = (zero_point(group.dim_h, group.dim_k) if group.table is None
              else _averaged_point(group._blocks, group.dim_h, group.dim_k))
    images = group.apply_all(x0)
    elliptic, sup_norm = _elliptic_orbit(images, ELLIPTIC_MARGIN)
    if not elliptic:
        raise NotElliptic(f"orbit sup-norm {sup_norm!r} within "
                          f"{ELLIPTIC_MARGIN!r} of the boundary")

    x = x0
    f = float(distances_from(x0.matrix, images).max())
    if f > fp_tol:
        x = barycenter_sequence(
            [BallPoint(m, boundary_tol=0.0) for m in images])
        f = displacement(group, x)
    history = [f]
    iterations = 0

    while f > fp_tol and iterations < MAX_ITER:
        iterations += 1
        images = group.apply_all(x)
        worst = int(np.argmax(distances_from(x.matrix, images)))
        target = BallPoint(images[worst], boundary_tol=0.0)
        lam = 1.0
        while lam > 1e-4:
            cand = convex_combination(x, target, 0.5 * lam)
            fc = displacement(group, cand)
            if fc < f:
                break
            lam /= 2.0
        else:
            break
        x, f = cand, fc
        history.append(f)

    return FixedPointResult(point=x, displacement=f, iterations=iterations,
                            converged=f <= fp_tol, history=history)


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
    lam, vecs = hermitian_eig(gram)
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
