"""Seeded random generators shared by the test suites, the property-check
runner, and the test-representation builder.  Determinism contract:
identical seeds produce identical values.  No result of the library's
solvers or of its group closure depends on a seed drawn here."""

from __future__ import annotations

import numpy as np

from .mobius import BallPoint
from .opcore import spectral_norm

def rng_from(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def complex_gaussian(rng: np.random.Generator, p: int, q: int) -> np.ndarray:
    return (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))) / np.sqrt(2)


def random_ball_point(rng: np.random.Generator, p: int, q: int,
                      max_norm: float = 0.9, min_norm: float = 0.05) -> BallPoint:
    z = complex_gaussian(rng, p, q)
    target = rng.uniform(min_norm, max_norm)
    return BallPoint(z * (target / spectral_norm(z)), boundary_tol=0.0)


def random_direction(rng: np.random.Generator, p: int, q: int) -> np.ndarray:
    z = complex_gaussian(rng, p, q)
    return z / spectral_norm(z)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = complex_gaussian(rng, n, n)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_block_unitary(rng: np.random.Generator, p: int, q: int) -> np.ndarray:
    out = np.zeros((p + q, p + q), dtype=np.complex128)
    out[:p, :p] = random_unitary(rng, p)
    out[p:, p:] = random_unitary(rng, q)
    return out


def hyperbolic_plane_rotation(p: int, q: int, i: int, j: int,
                              s: float) -> np.ndarray:
    """Identity except for a cosh/sinh mixing of H-coordinate i with
    K-coordinate j; preserves eta exactly and has norm e^s."""
    out = np.eye(p + q, dtype=np.complex128)
    out[i, i] = out[p + j, p + j] = np.cosh(s)
    out[i, p + j] = out[p + j, i] = np.sinh(s)
    return out


def random_eta_preserving(rng: np.random.Generator, p: int, q: int,
                          conditioning: float = 2.0) -> np.ndarray:
    """Random T with T*JT = J and ||T|| ||T^-1|| = conditioning, built as a
    unitary-dressed single hyperbolic plane rotation."""
    if conditioning < 1.0:
        raise ValueError("conditioning must be >= 1")
    s = np.log(conditioning) / 2.0
    i = int(rng.integers(p))
    j = int(rng.integers(q))
    core = hyperbolic_plane_rotation(p, q, i, j, s)
    return random_block_unitary(rng, p, q) @ core @ random_block_unitary(rng, p, q)
