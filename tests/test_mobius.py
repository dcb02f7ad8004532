import re
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import psd_apply, spectral_eta_rule

import opball.mobius as mobius
from opball.errors import BoundaryProximity, NotEtaPreserving
from opball.mobius import (
    BOUNDARY_TOL,
    BallAutomorphism,
    BallPoint,
    _automorphism_stack,
    _eta_checked,
    _mobius_block,
    automorphism_apply,
    automorphism_compose,
    defect_roots,
    eta_defect,
    eta_matrix,
    mobius_apply,
    mobius_as_block,
    mobius_differential,
    zero_point,
)
from opball.opcore import adjoint, spectral_norm
from opball.sampling import (
    complex_gaussian,
    random_ball_point,
    random_direction,
    random_eta_preserving,
    rng_from,
)


def test_ball_point_rejects_boundary():
    with pytest.raises(BoundaryProximity):
        BallPoint(np.eye(2))
    with pytest.raises(BoundaryProximity):
        BallPoint([[1.0 - 1e-9]])
    p = BallPoint([[0.5]])
    assert p.margin == pytest.approx(0.5)


def test_ball_point_checks_its_boundary_tol_before_any_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran before the boundary_tol check")

    for tol in (-1.0, np.nan, 1.0, np.inf):
        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "svd", no_svd)
            with pytest.raises(ValueError, match=re.escape(repr(tol))):
                BallPoint([[1.5]], boundary_tol=tol)
    # 0 and the default behave as before
    assert BallPoint([[1.0 - 1e-9]], boundary_tol=0.0).margin == pytest.approx(1e-9)
    with pytest.raises(BoundaryProximity):
        BallPoint([[1.0]], boundary_tol=0.0)
    assert BallPoint([[0.5]]).margin == BallPoint([[0.5]], BOUNDARY_TOL).margin
    with pytest.raises(BoundaryProximity, match=re.escape(repr(BOUNDARY_TOL))):
        BallPoint([[1.0 - 1e-9]])


def test_mobius_fixes_origin_image():
    # M_A(0) = A
    rng = rng_from(0)
    for _ in range(10):
        a = random_ball_point(rng, 3, 2, 0.8)
        image = mobius_apply(a, zero_point(3, 2))
        assert spectral_norm(image.matrix - a.matrix) < 1e-12


def test_mobius_at_zero_is_identity():
    rng = rng_from(1)
    x = random_ball_point(rng, 4, 2, 0.9)
    out = mobius_apply(zero_point(4, 2), x)
    assert spectral_norm(out.matrix - x.matrix) < 1e-14


def test_mobius_scalar_oracle():
    # (a + x) / (1 + a x) for real scalars
    out = mobius_apply(BallPoint([[0.5]]), BallPoint([[0.25]]))
    assert out.matrix[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_mobius_inverse_law():
    rng = rng_from(2)
    for _ in range(20):
        a = random_ball_point(rng, 3, 3, 0.8)
        x = random_ball_point(rng, 3, 3, 0.8)
        neg = BallPoint(-a.matrix, boundary_tol=0.0)
        back = mobius_apply(neg, mobius_apply(a, x))
        assert spectral_norm(back.matrix - x.matrix) < 1e-9


def test_mobius_lipschitz_bound():
    rng = rng_from(3)
    for _ in range(50):
        a = random_ball_point(rng, 3, 2, 0.9)
        x = random_ball_point(rng, 3, 2, 0.9)
        y = random_ball_point(rng, 3, 2, 0.9)
        gap = spectral_norm(mobius_apply(a, x).matrix - mobius_apply(a, y).matrix)
        bound = 3.0 * (1 - spectral_norm(a.matrix)) ** -2.5 \
            * spectral_norm(x.matrix - y.matrix)
        assert gap <= bound + 1e-12


def test_differential_at_zero_argument():
    # D M_B(0) V = (1-BB*)^{1/2} V (1-B*B)^{1/2}
    rng = rng_from(4)
    b = random_ball_point(rng, 3, 2, 0.7)
    v = random_direction(rng, 3, 2)
    got = mobius_differential(b, zero_point(3, 2), v)
    bm = b.matrix
    want = psd_apply(np.eye(3) - bm @ adjoint(bm), np.sqrt) @ v \
        @ psd_apply(np.eye(2) - adjoint(bm) @ bm, np.sqrt)
    assert_allclose(got, want, atol=1e-13)


def test_differential_of_identity_transform():
    rng = rng_from(5)
    a = random_ball_point(rng, 2, 2, 0.6)
    v = random_direction(rng, 2, 2)
    got = mobius_differential(zero_point(2, 2), a, v)
    assert_allclose(got, v, atol=1e-14)


def test_differential_matches_finite_differences():
    rng = rng_from(6)
    for _ in range(10):
        b = random_ball_point(rng, 3, 2, 0.7)
        a = random_ball_point(rng, 3, 2, 0.6)
        v = random_direction(rng, 3, 2)
        exact = mobius_differential(b, a, v)

        def central(h):
            up = BallPoint(a.matrix + h * v, boundary_tol=0.0)
            dn = BallPoint(a.matrix - h * v, boundary_tol=0.0)
            return (mobius_apply(b, up).matrix
                    - mobius_apply(b, dn).matrix) / (2 * h)

        for h in (1e-4, 1e-5):
            richardson = (4.0 * central(h / 2) - central(h)) / 3.0
            assert spectral_norm(richardson - exact) < 1e-8


def test_block_of_zero_is_identity():
    t = mobius_as_block(zero_point(2, 2))
    assert_allclose(t.block, np.eye(4), atol=1e-14)


def test_block_scalar_example():
    t = mobius_as_block(BallPoint([[0.5]]))
    want = np.array([[1.0, 0.5], [0.5, 1.0]]) / np.sqrt(0.75)
    assert_allclose(t.block, want, atol=1e-14)


def test_block_action_matches_direct_mobius():
    rng = rng_from(7)
    for _ in range(20):
        a = random_ball_point(rng, 4, 3, 0.8)
        x = random_ball_point(rng, 4, 3, 0.8)
        t = mobius_as_block(a)
        via_block = automorphism_apply(t, x)
        direct = mobius_apply(a, x)
        assert spectral_norm(via_block.matrix - direct.matrix) < 1e-9
        # w_{T_A}(0) = A
        at_zero = automorphism_apply(t, zero_point(4, 3))
        assert spectral_norm(at_zero.matrix - a.matrix) < 1e-10


def test_block_preserves_eta():
    rng = rng_from(8)
    a = random_ball_point(rng, 3, 2, 0.9)
    t = mobius_as_block(a)
    j = eta_matrix(3, 2)
    assert spectral_norm(adjoint(t.block) @ j @ t.block - j) < 1e-10


def test_mobius_block_of_a_stack_is_the_block_of_each_point():
    rng = rng_from(33)
    points = np.stack([random_ball_point(rng, 3, 2, 0.9).matrix
                       for _ in range(4)])
    for a, block in zip(points, _mobius_block(points)):
        left, right = defect_roots(a, -0.5, -0.5)
        want = np.block([[left, left @ a], [right @ adjoint(a), right]])
        assert block.tobytes() == want.tobytes()
        assert _mobius_block(a).tobytes() == want.tobytes()


def test_automorphism_identity_action():
    rng = rng_from(9)
    a = random_ball_point(rng, 2, 2, 0.5)
    out = automorphism_apply(BallAutomorphism.identity(2, 2), a)
    assert_allclose(out.matrix, a.matrix, atol=1e-14)


def test_automorphism_scalar_rotation():
    theta = 0.7
    t = BallAutomorphism(np.diag([np.exp(1j * theta), 1.0]), 1, 1)
    out = automorphism_apply(t, BallPoint([[0.3]]))
    assert out.matrix[0, 0] == pytest.approx(0.3 * np.exp(1j * theta), abs=1e-14)


def test_composition_is_action_composition():
    rng = rng_from(10)
    for _ in range(10):
        t1 = BallAutomorphism(random_eta_preserving(rng, 3, 2, 4.0), 3, 2)
        t2 = BallAutomorphism(random_eta_preserving(rng, 3, 2, 4.0), 3, 2)
        x = random_ball_point(rng, 3, 2, 0.7)
        combined = automorphism_apply(automorphism_compose(t1, t2), x)
        chained = automorphism_apply(t1, automorphism_apply(t2, x))
        assert spectral_norm(combined.matrix - chained.matrix) < 1e-10


def test_compose_with_inverse_is_identity_action():
    rng = rng_from(11)
    t = BallAutomorphism(random_eta_preserving(rng, 2, 2, 8.0), 2, 2)
    x = random_ball_point(rng, 2, 2, 0.6)
    out = automorphism_apply(automorphism_compose(t, t.inverse()), x)
    assert spectral_norm(out.matrix - x.matrix) < 1e-10


def test_mobius_blocks_invert_each_other():
    # M_A^{-1} = M_{-A} at the block level
    rng = rng_from(12)
    a = random_ball_point(rng, 3, 2, 0.8)
    t = automorphism_compose(mobius_as_block(a),
                             mobius_as_block(BallPoint(-a.matrix,
                                                       boundary_tol=0.0)))
    x = random_ball_point(rng, 3, 2, 0.8)
    out = automorphism_apply(t, x)
    assert spectral_norm(out.matrix - x.matrix) < 1e-10


def test_compose_associative():
    rng = rng_from(13)
    ts = [BallAutomorphism(random_eta_preserving(rng, 2, 2, 3.0), 2, 2)
          for _ in range(3)]
    x = random_ball_point(rng, 2, 2, 0.5)
    left = automorphism_compose(automorphism_compose(ts[0], ts[1]), ts[2])
    right = automorphism_compose(ts[0], automorphism_compose(ts[1], ts[2]))
    assert spectral_norm(automorphism_apply(left, x).matrix
                         - automorphism_apply(right, x).matrix) < 1e-10


def test_composition_eta_defect_stays_small():
    rng = rng_from(14)
    t1 = BallAutomorphism(random_eta_preserving(rng, 3, 2, 10.0), 3, 2)
    t2 = BallAutomorphism(random_eta_preserving(rng, 3, 2, 10.0), 3, 2)
    composed = automorphism_compose(t1, t2)
    assert composed.defect <= 2e-8


def test_scaled_block_is_normalized_away():
    rng = rng_from(15)
    v = random_eta_preserving(rng, 2, 1, 5.0)
    t1 = BallAutomorphism(v, 2, 1)
    t2 = BallAutomorphism(17.3 * v, 2, 1)
    assert spectral_norm(t1.block - t2.block) < 1e-12


def test_non_eta_preserving_rejected():
    with pytest.raises(NotEtaPreserving):
        BallAutomorphism(np.diag([1.0, 2.0, 3.0]), 2, 1)
    # swap flips the form's sign: also rejected
    with pytest.raises(NotEtaPreserving):
        BallAutomorphism(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 1)


def test_automorphism_stack_matches_the_constructor():
    rng = rng_from(31)
    blocks = np.stack([3.0 * random_eta_preserving(rng, 3, 2, c)
                       for c in (1.0, 10.0, 300.0)])
    stacked = _automorphism_stack(blocks, 3, 2, 1e-8)
    assert stacked.shape == blocks.shape
    assert not stacked.flags.writeable
    for block, row in zip(blocks, stacked):
        single = BallAutomorphism(block, 3, 2)
        assert_allclose(row, single.block, rtol=1e-13, atol=1e-13)
        # the defect is no slot: it is measured on the block when read
        assert single.defect == eta_defect(single.block, 3, 2)
        assert abs(single.defect - eta_defect(row, 3, 2)) <= 1e-12


def test_automorphism_stack_checks_each_block():
    rng = rng_from(32)
    good = random_eta_preserving(rng, 2, 1, 5.0)
    stretched = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(NotEtaPreserving):
        _automorphism_stack(np.stack([good, stretched]), 2, 1, 1e-8)
    # swap flips the form's sign
    with pytest.raises(NotEtaPreserving):
        _automorphism_stack(np.stack([np.eye(2), np.array([[0.0, 1.0],
                                                           [1.0, 0.0]])]),
                            1, 1, 1e-8)
    # as in the constructor, a non-finite entry is refused
    with pytest.raises(ValueError, match="non-finite"):
        _automorphism_stack(np.stack([np.eye(2), np.full((2, 2), np.nan)]),
                            1, 1, 1e-8)


def test_singular_resolvent_on_raw_matrices():
    from opball.errors import SingularResolvent
    from opball.mobius import mobius_matrix

    with pytest.raises(SingularResolvent):
        mobius_matrix(np.array([[-1.0]]), np.array([[1.0]]))


def test_singular_denominator_flags_broken_block():
    from opball.errors import SingularDenominator

    block = _automorphism_stack(np.diag([1.0, 0.0])[None], 1, 1, 10.0)
    broken = object.__new__(BallAutomorphism)._set(block[0], 1, 1)
    with pytest.raises(SingularDenominator):
        automorphism_apply(broken, BallPoint([[0.0]]))


# The Frobenius screen of ``_eta_checked`` against the spectral rule it
# stands in front of.  A block whose defect lies within rounding of its
# allowance may be decided either way by two evaluations of that rule (the
# screen and the reference form T*JT by different products), so blocks
# within a relative 1e-9 of their allowance are left out.
SCREEN_SPLITS = [(1, 1), (2, 1), (1, 2), (3, 2), (4, 4), (8, 4)]
SCREEN_EDGE = 1e-9


def _straddling_blocks(rng, p, q):
    """Blocks c (T + E) with T eta-preserving at conditioning 1 to 1e5, c a
    random complex scalar and ||E||_F from 1e-15 to 1e-3 of ||T||_F, each
    with its own tolerance within a factor 30 of that relative size, so
    that defect / allowance runs from below 1 to above it."""
    n = p + q
    blocks, tols = [], []
    for cond in 10.0 ** np.arange(6):
        for size in 10.0 ** np.arange(-15, -2):
            t = random_eta_preserving(rng, p, q, float(cond))
            e = complex_gaussian(rng, n, n)
            e *= size * np.linalg.norm(t) / np.linalg.norm(e)
            c = 10.0 ** rng.uniform(-2, 2) * np.exp(2j * np.pi * rng.random())
            blocks.append(c * (t + e))
            tols.append(size * 10.0 ** rng.uniform(-1.0, 1.5))
    return np.stack(blocks), np.array(tols)


def _decides_as_the_rule(t, p, q, aut_tol):
    """Whether ``_eta_checked`` passes ``t``, after checking that it
    decides as the spectral rule, with the same bits or the same text."""
    want, _ = spectral_eta_rule(t, p, q, aut_tol)
    try:
        got = _eta_checked(t, p, q, aut_tol)
    except NotEtaPreserving as exc:
        assert str(exc) == want
        return False
    assert got.tobytes() == want.tobytes()
    return True


@pytest.mark.parametrize("p, q", SCREEN_SPLITS)
def test_eta_screen_decides_as_the_spectral_rule(monkeypatch, p, q):
    # the eigvalsh calls made by ``_eta_checked`` itself, not by the rule
    spectra = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        if sys._getframe(1).f_code is mobius._eta_checked.__code__:
            spectra.append(np.shape(args[0]))
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    blocks, tols = _straddling_blocks(rng_from(40 + 10 * p + q), p, q)
    # defect / allowance per block; inf where the scale is not positive
    ratios = np.array([np.inf if r is None else r[0] for r in (
        spectral_eta_rule(t, p, q, tol)[1] for t, tol in zip(blocks, tols))])
    clear = np.abs(ratios - 1.0) > SCREEN_EDGE
    blocks, tols, ratios = blocks[clear], tols[clear], ratios[clear]
    # one block at a time: the screen passes some without spectra, and
    # hands the rest to the rule
    outcomes = []
    for t, tol in zip(blocks, tols):
        spectra.clear()
        outcomes.append((_decides_as_the_rule(t, p, q, tol), bool(spectra)))
    assert (True, False) in outcomes and (False, True) in outcomes
    assert [passed for passed, _ in outcomes] == list(ratios <= 1.0)
    # stacks of six at one tolerance, taken in turn from each of its
    # blocks: the failure furthest over its allowance is raised, and a
    # stack that passes is normalized exactly as its blocks are alone; a
    # tolerance that puts a block within SCREEN_EDGE of its allowance is left
    # out, as above
    stacked = set()
    for at in range(0, len(blocks) - 5, 6):
        part = slice(at, at + 6)
        for tol in tols[part]:
            at_tol = ratios[part] * tols[part] / tol
            if np.all(np.abs(at_tol - 1.0) > SCREEN_EDGE):
                passed = _decides_as_the_rule(blocks[part], p, q, tol)
                assert passed == bool(np.all(at_tol <= 1.0))
                stacked.add(passed)
    assert stacked == {True, False}
