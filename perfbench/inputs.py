"""Seeded inputs for the benchmark.

Everything the program receives is built here from plain numpy: group
tables, irreducible representations, eta-preserving similarities and ball
points.  Nothing comes from ``opball.sampling`` or
``make_test_representation``, so changes there cannot change a workload.
The structure of every workload (which groups, shapes, margins and
conditionings appear, and how often) is fixed; the seed only draws the
unitary dressings, singular vectors and boost positions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *salt])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def eta(p: int, q: int) -> np.ndarray:
    return np.diag(np.r_[np.ones(p), -np.ones(q)]).astype(np.complex128)


# --- finite groups and their irreducible representations ---------------------


@dataclass(frozen=True)
class FiniteGroup:
    """A multiplication table, one list of unitary matrices per irreducible
    class (``irreps[c][g]``), and a generating set."""

    name: str
    table: np.ndarray
    irreps: tuple
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.table)


def cyclic_group(n: int) -> FiniteGroup:
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    irreps = tuple(tuple(np.array([[roots[(k * m) % n]]]) for m in range(n))
                   for k in range(n))
    return FiniteGroup(f"C{n}", table, irreps, (1,))


def symmetric3() -> FiniteGroup:
    perms = list(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    table = np.array([[index[tuple(a[b[x]] for x in range(3))] for b in perms]
                      for a in perms])
    # the standard irrep: the permutation action on {x : sum x = 0}
    basis = np.array([[1, 1], [-1, 1], [0, -2]]) / np.array([np.sqrt(2), np.sqrt(6)])
    perm_mats = [np.eye(3)[:, list(p)] for p in perms]
    standard = tuple((basis.T @ m @ basis).astype(np.complex128) for m in perm_mats)
    trivial = tuple(np.ones((1, 1), np.complex128) for _ in perms)
    sign = tuple(np.array([[np.linalg.det(m)]], np.complex128) for m in perm_mats)
    transposition = index[(1, 0, 2)]
    three_cycle = index[(1, 2, 0)]
    return FiniteGroup("S3", table, (trivial, sign, standard),
                       (transposition, three_cycle))


def quaternion8() -> FiniteGroup:
    one = np.eye(2, dtype=np.complex128)
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
    k = i @ j
    units = [one, -one, i, -i, j, -j, k, -k]
    table = np.array([[next(c for c in range(8)
                            if np.abs(a @ b - units[c]).max() < 1e-12)
                       for b in units] for a in units])
    # one-dimensional characters factor through Q8/{+-1} = C2 x C2
    signs_i = [1, 1, 1, 1, -1, -1, -1, -1]
    signs_j = [1, 1, -1, -1, 1, 1, -1, -1]
    chars = []
    for a, b in itertools.product((0, 1), repeat=2):
        chars.append(tuple(
            np.array([[float((si if a else 1) * (sj if b else 1))]], np.complex128)
            for si, sj in zip(signs_i, signs_j)))
    return FiniteGroup("Q8", table, tuple(chars) + (tuple(units),), (2, 4))


def named_group(name: str) -> FiniteGroup:
    if name == "S3":
        return symmetric3()
    if name == "Q8":
        return quaternion8()
    return cyclic_group(int(name[1:]))


def _fill(dims: dict, classes: list, target: int, rng) -> list:
    """Classes (repetition allowed) whose dimensions sum to ``target``;
    draws from ``classes`` in a seeded order and covers each once first."""
    order = [classes[k] for k in rng.permutation(len(classes))]
    chosen, total = [], 0
    for c in itertools.cycle(order):
        if total == target:
            return chosen
        if total + dims[c] <= target:
            chosen.append(c)
            total += dims[c]
        elif all(total + dims[x] > target for x in order):
            raise ValueError(f"cannot fill dimension {target} from {classes}")


def block_irreps(group: FiniteGroup, p: int, q: int, rng, shared: bool):
    """Class lists for the H (dim p) and K (dim q) blocks.  Without
    ``shared`` they are disjoint, which makes the fixed point unique."""
    dims = {c: group.irreps[c][0].shape[0] for c in range(len(group.irreps))}
    classes = list(rng.permutation(len(group.irreps)))
    if shared:
        k_classes = _fill(dims, classes, q, rng)
        h_first = [c for c in k_classes if dims[c] <= p][:1]
        h_classes = h_first + _fill(dims, classes, p - sum(dims[c] for c in h_first), rng)
        return h_classes, k_classes
    for split in range(1, len(classes)):
        k_pool, h_pool = classes[:split], classes[split:]
        try:
            return _fill(dims, h_pool, p, rng), _fill(dims, k_pool, q, rng)
        except ValueError:
            continue
    raise ValueError(f"{group.name} has no disjoint fill of ({p}, {q})")


def direct_sum(group: FiniteGroup, classes, g: int) -> np.ndarray:
    blocks = [group.irreps[c][g] for c in classes]
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    ofs = 0
    for b in blocks:
        k = b.shape[0]
        out[ofs:ofs + k, ofs:ofs + k] = b
        ofs += k
    return out


def projective_order(group: FiniteGroup, h_classes, k_classes) -> int:
    """Number of distinct ball automorphisms w_tau(g): elements acting as
    one unit scalar on both blocks act trivially on the ball."""
    kernel = 0
    for g in range(group.order):
        blocks = [direct_sum(group, c, g) for c in (h_classes, k_classes)]
        lam = blocks[0][0, 0]
        if all(np.abs(b - lam * np.eye(len(b))).max() < 1e-12 for b in blocks):
            kernel += 1
    return group.order // kernel


# --- eta-preserving similarities -------------------------------------------


def boost(p: int, q: int, rapidities, rng, frame_rng) -> np.ndarray:
    """F R(s) G: a product R of hyperbolic plane rotations on distinct
    (H, K) coordinate pairs between block-diagonal unitaries, the outer
    one F drawn from ``frame_rng``.  The fixed point V12 V22^{-1} has the
    singular values tanh(s_k), so k boosts give k distinct values."""
    rows = rng.permutation(p)[:len(rapidities)]
    cols = rng.permutation(q)[:len(rapidities)]
    core = np.eye(p + q, dtype=np.complex128)
    for i, j, s in zip(rows, cols, rapidities):
        core[i, i] = core[p + j, p + j] = np.cosh(s)
        core[i, p + j] = core[p + j, i] = np.sinh(s)
    return block_unitary(frame_rng, p, q) @ core @ block_unitary(rng, p, q)


def block_unitary(rng, p: int, q: int) -> np.ndarray:
    out = np.zeros((p + q, p + q), dtype=np.complex128)
    out[:p, :p] = haar_unitary(rng, p)
    out[p:, p:] = haar_unitary(rng, q)
    return out


def rapidities(conditioning: float, boosts: int) -> list:
    """||V|| ||V^-1|| = e^{2 s_max} = conditioning; further boosts use
    smaller, distinct rapidities."""
    s = np.log(conditioning) / 2.0
    return [s * (1.0 - 0.4 * k) for k in range(boosts)]


@dataclass(frozen=True)
class RepresentationCase:
    group: FiniteGroup
    p: int
    q: int
    conditioning: float
    boosts: int
    shared: bool
    similarity: np.ndarray
    images: tuple
    projective_order: int


def representation_case(group_name: str, p: int, q: int, conditioning: float,
                        boosts: int, shared: bool, rng,
                        frame_rng=None) -> RepresentationCase:
    """pi(g) = V tau(g) V^{-1} with tau = diag(tau_H, tau_K) unitary and V
    eta-preserving; pi fixes the ball point V12 V22^{-1}.

    With ``frame_rng`` only the outer unitary F = diag(W_H, W_K) of V comes
    from it.  F acts on the ball as A -> W_H A W_K*, an isometry fixing 0,
    where the solvers start, so it changes every matrix the program sees
    but not the work the solvers do."""
    group = named_group(group_name)
    # redraw until the action on the ball is faithful, so that the closure
    # of the generators always has the full group order
    for _ in range(64):
        h_classes, k_classes = block_irreps(group, p, q, rng, shared)
        order = projective_order(group, h_classes, k_classes)
        if order == group.order:
            break
    else:
        raise ValueError(f"no faithful {group_name} action at ({p}, {q})")
    w_h, w_k = haar_unitary(rng, p), haar_unitary(rng, q)
    v = boost(p, q, rapidities(conditioning, boosts), rng, frame_rng or rng)
    j = eta(p, q)
    v_inv = j @ v.conj().T @ j
    images = []
    for g in range(group.order):
        tau = np.zeros((p + q, p + q), dtype=np.complex128)
        tau[:p, :p] = w_h @ direct_sum(group, h_classes, g) @ w_h.conj().T
        tau[p:, p:] = w_k @ direct_sum(group, k_classes, g) @ w_k.conj().T
        images.append(v @ tau @ v_inv)
    return RepresentationCase(group, p, q, conditioning, boosts, shared, v,
                              tuple(images), order)


# --- ball points -------------------------------------------------------------


def ball_point(rng, p: int, q: int, margin: float) -> np.ndarray:
    """U diag(s) V* with s_1 = 1 - margin exactly and the other singular
    values at log-uniform margins between ``margin`` and 1."""
    r = min(p, q)
    u = haar_unitary(rng, p)[:, :r]
    v = haar_unitary(rng, q)[:, :r]
    gaps = np.exp(rng.uniform(np.log(margin), 0.0, size=r))
    gaps[0] = margin
    return (u * (1.0 - gaps)) @ v.conj().T


def unit_direction(rng, p: int, q: int) -> np.ndarray:
    r = min(p, q)
    u = haar_unitary(rng, p)[:, :r]
    v = haar_unitary(rng, q)[:, :r]
    d = rng.uniform(0.0, 1.0, size=r)
    d[0] = 1.0
    return (u * d) @ v.conj().T
