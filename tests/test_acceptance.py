"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are fixed here, not configurable.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import psd_apply

from opball.errors import ClosureExceeded
from opball.fixedpoint import (
    AutomorphismGroup,
    equicontinuity_witness,
    find_fixed_point,
    group_closure,
    is_elliptic,
)
from opball.hyperbolic import (
    GeodesicLine,
    alpha_metric,
    barycenter_sequence,
    convex_combination,
    distance,
    geodesic_point,
    geodesic_velocity,
    th_map,
)
from opball.mobius import (
    BallAutomorphism,
    BallPoint,
    automorphism_apply,
    automorphism_compose,
    mobius_apply,
    mobius_as_block,
    zero_point,
)
from opball.opcore import adjoint, spectral_norm
from opball.pontryagin import (
    PontryaginSignature,
    dual_pair,
    induced_automorphism,
    make_test_representation,
    max_principal_angle,
    negativeness_degree,
    unitarize,
)
from opball.sampling import (
    random_ball_point,
    random_direction,
    random_eta_preserving,
    rng_from,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _rand_dims(rng, max_p=6, max_q=3):
    return int(rng.integers(1, max_p + 1)), int(rng.integers(1, max_q + 1))


# the nine solver instances shared by criteria 9-11
_CASES = [("C4", (3, 1)), ("S3", (4, 2)), ("Q8", (5, 2))]
_CONDS = [2.0, 10.0, 50.0]


@pytest.fixture(scope="module")
def generated_reps():
    reps = {}
    for name, (p, q) in _CASES:
        for k, cond in enumerate(_CONDS):
            sig = PontryaginSignature(p, q)
            reps[(name, cond)] = make_test_representation(
                name, sig, conditioning=cond, seed=101 + k)
    return reps


def test_criterion_01_scalar_oracle_equivalence():
    with criterion(1, "scalar-oracle equivalence"):
        rng = rng_from(1001)
        for _ in range(1000):
            a = complex(*rng.uniform(-0.65, 0.65, 2))
            b = complex(*rng.uniform(-0.65, 0.65, 2))
            pa, pb = BallPoint([[a]]), BallPoint([[b]])

            oracle_rho = math.atanh(abs((b - a) / (1 - a.conjugate() * b)))
            assert abs(distance(pa, pb) - oracle_rho) <= 1e-12

            oracle_mobius = (a + b) / (1 + a.conjugate() * b)
            assert abs(mobius_apply(pa, pb).matrix[0, 0]
                       - oracle_mobius) <= 1e-12

            theta = float(rng.uniform(0, 2 * np.pi))
            t = float(rng.uniform(-2, 2))
            line = GeodesicLine(pa, np.array([[np.exp(1j * theta)]]))
            inner = np.exp(1j * theta) * math.tanh(t)
            oracle_geo = (a + inner) / (1 + a.conjugate() * inner)
            assert abs(geodesic_point(line, t).matrix[0, 0]
                       - oracle_geo) <= 1e-12


def test_criterion_02_metric_line():
    with criterion(2, "metric-line property"):
        rng = rng_from(1002)
        grid = [-3.0, -1.0, 0.0, 0.5, 2.0]
        for _ in range(200):
            p, q = _rand_dims(rng)
            line = GeodesicLine(random_ball_point(rng, p, q, 0.85),
                                random_direction(rng, p, q))
            pts = {t: geodesic_point(line, t) for t in grid}
            for i, s in enumerate(grid):
                for t in grid[i + 1:]:
                    assert abs(distance(pts[s], pts[t]) - abs(s - t)) <= 1e-8


def test_criterion_03_unit_speed():
    with criterion(3, "unit speed and closed-form velocity"):
        rng = rng_from(1003)
        for _ in range(50):
            p, q = _rand_dims(rng)
            d = random_direction(rng, p, q)
            base = random_ball_point(rng, p, q, 0.7)
            line = GeodesicLine(base, d)
            for t in rng.uniform(-2.5, 2.5, size=10):
                g = th_map(t * d)
                vel = d - g @ adjoint(d) @ g
                speed = alpha_metric(BallPoint(g, boundary_tol=0.0), vel)
                assert abs(speed - 1.0) <= 1e-7
            for t in rng.uniform(-2.0, 2.0, size=2):
                h = 1e-5
                fd = (geodesic_point(line, t + h).matrix
                      - geodesic_point(line, t - h).matrix) / (2 * h)
                assert spectral_norm(fd - geodesic_velocity(line, t)) <= 1e-6


def test_criterion_04_appendix_inequality():
    with criterion(4, "appendix inequality lemma"):
        rng = rng_from(1004)
        for _ in range(500):
            p, q = _rand_dims(rng)
            a = random_ball_point(rng, p, q, 0.95).matrix
            b = random_ball_point(rng, p, q, 0.95).matrix
            left = psd_apply(np.eye(p) - b @ adjoint(b), lambda t: t ** -0.5)
            right = psd_apply(np.eye(q) - adjoint(b) @ b, lambda t: t ** -0.5)
            rhs = spectral_norm(left @ (a - b @ adjoint(a) @ b) @ right)
            assert spectral_norm(a) <= rhs + 1e-9


def test_criterion_05_doubling_convexity():
    with criterion(5, "doubling convexity"):
        rng = rng_from(1005)
        for _ in range(300):
            p, q = _rand_dims(rng)
            base = random_ball_point(rng, p, q, 0.7)
            g = GeodesicLine(base, random_direction(rng, p, q))
            e = GeodesicLine(base, random_direction(rng, p, q))
            for s in (0.25, 0.5, 1.0):
                lhs = 2 * distance(geodesic_point(g, s), geodesic_point(e, s))
                rhs = distance(geodesic_point(g, 2 * s),
                               geodesic_point(e, 2 * s))
                assert lhs <= rhs + 1e-8


def test_criterion_06_segment_convexity():
    with criterion(6, "segment convexity"):
        rng = rng_from(1006)
        for _ in range(300):
            p, q = _rand_dims(rng)
            x, y, w, z = (random_ball_point(rng, p, q, 0.85) for _ in range(4))
            t = float(rng.uniform(0, 1))
            lhs = distance(convex_combination(x, y, t),
                           convex_combination(w, z, t))
            rhs = (1 - t) * distance(x, w) + t * distance(y, z)
            assert lhs <= rhs + 1e-8


def test_criterion_07_mobius_algebra():
    with criterion(7, "Mobius algebra"):
        rng = rng_from(1007)
        for _ in range(500):
            p, q = _rand_dims(rng)
            a = random_ball_point(rng, p, q, 0.9)
            x = random_ball_point(rng, p, q, 0.9)
            y = random_ball_point(rng, p, q, 0.9)
            neg = BallPoint(-a.matrix, boundary_tol=0.0)
            assert spectral_norm(
                mobius_apply(neg, mobius_apply(a, x)).matrix
                - x.matrix) <= 1e-9
            assert spectral_norm(
                automorphism_apply(mobius_as_block(a), x).matrix
                - mobius_apply(a, x).matrix) <= 1e-9
            gap = spectral_norm(mobius_apply(a, x).matrix
                                - mobius_apply(a, y).matrix)
            bound = 3.0 * (1 - spectral_norm(a.matrix)) ** -2.5 \
                * spectral_norm(x.matrix - y.matrix)
            assert gap <= bound + 1e-12


def test_criterion_08_isometry_invariance():
    with criterion(8, "isometry invariance"):
        rng = rng_from(1008)
        for _ in range(200):
            p, q = _rand_dims(rng)
            t = BallAutomorphism(
                random_eta_preserving(rng, p, q,
                                      float(rng.uniform(1.0, 50.0))), p, q)
            a = random_ball_point(rng, p, q, 0.85)
            b = random_ball_point(rng, p, q, 0.85)
            moved = distance(automorphism_apply(t, a), automorphism_apply(t, b))
            assert abs(moved - distance(a, b)) <= 1e-8


def test_criterion_09_fixed_points(generated_reps):
    with criterion(9, "fixed-point solver"):
        for name, (p, q) in _CASES:
            sig = PontryaginSignature(p, q)
            for cond in _CONDS:
                rep = generated_reps[(name, cond)]
                autos = [induced_automorphism(sig, m) for m in rep.images]
                group = AutomorphismGroup(elements=autos, table=rep.table)
                result = find_fixed_point(group)
                assert result.converged, (name, cond)
                assert result.displacement <= 1e-9
                assert result.iterations <= 5000
                # the same solve from 0, which descends
                cold = find_fixed_point(group, x0=zero_point(p, q))
                assert cold.converged, (name, cond)
                assert cold.displacement <= 1e-9
                assert distance(cold.point, result.point) <= 1e-7

        # analytic cyclic case: unique fixed point w_V(0)
        for k, cond in enumerate(_CONDS):
            rng = rng_from(900 + k)
            p, q = 3, 1
            v = BallAutomorphism(random_eta_preserving(rng, p, q, cond), p, q)
            gen_block = np.diag([np.exp(2j * np.pi / 4)] * p + [1.0] * q)
            gen = automorphism_compose(
                automorphism_compose(v, BallAutomorphism(gen_block, p, q)),
                v.inverse())
            group = group_closure([gen])
            assert len(group) == 4
            result = find_fixed_point(group)
            assert result.converged
            target = automorphism_apply(v, zero_point(p, q))
            assert distance(result.point, target) <= 1e-7


def test_criterion_10_unitarization(generated_reps):
    with criterion(10, "unitarization"):
        for name, (p, q) in _CASES:
            sig = PontryaginSignature(p, q)
            eye = np.eye(sig.dim)
            for cond in _CONDS:
                rep = generated_reps[(name, cond)]
                res = unitarize(rep)
                u_inv = np.linalg.inv(res.similarity)
                n = rep.group_order
                tau = res.unitary_rep.images
                for g in range(n):
                    assert spectral_norm(adjoint(tau[g]) @ tau[g] - eye) <= 1e-7
                    assert spectral_norm(
                        tau[g] - res.similarity @ rep.images[g] @ u_inv) <= 1e-8
                for g in range(n):
                    for h in range(n):
                        assert spectral_norm(
                            tau[int(rep.table[g][h])]
                            - tau[g] @ tau[h]) <= 1e-8


def test_criterion_11_dual_pair(generated_reps):
    with criterion(11, "dual pair"):
        for name, (p, q) in _CASES:
            sig = PontryaginSignature(p, q)
            for cond in _CONDS:
                rep = generated_reps[(name, cond)]
                pair = dual_pair(rep)
                assert pair.negative_basis.shape[1] == sig.n_minus
                for m in rep.images:
                    assert max_principal_angle(
                        pair.positive_basis, m @ pair.positive_basis) <= 1e-7
                    assert max_principal_angle(
                        pair.negative_basis, m @ pair.negative_basis) <= 1e-7
                # the rebuilt definite product (h1+k1, h2+k2) =
                # [h1, h2] - [k1, k2] is invariant for the group
                w = np.hstack([pair.positive_basis, pair.negative_basis])
                w_inv = np.linalg.inv(w)
                core = np.zeros((sig.dim, sig.dim), dtype=complex)
                core[:p, :p] = adjoint(pair.positive_basis) @ sig.j \
                    @ pair.positive_basis
                core[p:, p:] = -(adjoint(pair.negative_basis) @ sig.j
                                 @ pair.negative_basis)
                rebuilt = adjoint(w_inv) @ core @ w_inv
                assert np.linalg.eigvalsh(
                    (rebuilt + adjoint(rebuilt)) / 2).min() > 0
                for m in rep.images:
                    assert spectral_norm(
                        adjoint(m) @ rebuilt @ m - rebuilt) <= 1e-8


def test_criterion_12_degree_transport():
    with criterion(12, "degree transport and ellipticity bound"):
        rng = rng_from(1012)
        for _ in range(300):
            p, q = _rand_dims(rng)
            sig = PontryaginSignature(p, q)
            tmat = random_eta_preserving(rng, p, q,
                                         float(rng.uniform(1.0, 20.0)))
            t = induced_automorphism(sig, tmat)
            a = random_ball_point(rng, p, q, 0.9)
            moved = automorphism_apply(t, a)
            norm_t = spectral_norm(tmat)
            degree_a = negativeness_degree(sig, a)
            assert negativeness_degree(sig, moved) \
                >= degree_a * norm_t ** -2 - 1e-9
            assert 1 - spectral_norm(moved.matrix) ** 2 \
                >= norm_t ** -2 * degree_a - 1e-9


def test_criterion_13_negative_controls():
    with criterion(13, "negative controls"):
        hyp = BallAutomorphism([[np.cosh(1.0), np.sinh(1.0)],
                                [np.sinh(1.0), np.cosh(1.0)]], 1, 1)
        with pytest.raises(ClosureExceeded):
            group_closure([hyp], max_elements=64)

        powers = [BallAutomorphism.identity(1, 1)]
        for _ in range(12):
            powers.append(automorphism_compose(powers[-1], hyp))
        pseudo = AutomorphismGroup(elements=powers)
        flag, sup = is_elliptic(pseudo, zero_point(1, 1), elliptic_margin=1e-3)
        assert not flag
        assert sup > 1 - 1e-3

        rng = rng_from(1013)
        for k in range(20):
            delta = float(rng.uniform(0.005, 0.2))
            p, q = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            a = random_ball_point(rng, p, q, 0.5)
            a = BallPoint(a.matrix * ((1 - delta / 2)
                                      / spectral_norm(a.matrix)),
                          boundary_tol=0.0)
            witness = equicontinuity_witness(mobius_as_block(a), delta)
            assert witness.input_gap > 0.25
            assert witness.image_gap < delta


def test_criterion_14_barycenter_mean_inequality():
    with criterion(14, "barycenter mean inequality"):
        rng = rng_from(1014)
        for _ in range(100):
            p, q = _rand_dims(rng)
            pts = [random_ball_point(rng, p, q, 0.85)
                   for _ in range(int(rng.integers(2, 8)))]
            center = barycenter_sequence(pts)
            for _ in range(10):
                probe = random_ball_point(rng, p, q, 0.85)
                mean = float(np.mean([distance(probe, c) for c in pts]))
                assert distance(probe, center) <= mean + 1e-8
