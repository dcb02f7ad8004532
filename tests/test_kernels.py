"""The shared kernels: defect roots, the batched Mobius transform, the
fractional-linear action and the stack measurements (eta defects, norms,
unitarity defects), against the functions they replaced and against their
defining formulas."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import psd_apply

import opball.hyperbolic as hyperbolic
from opball.errors import (
    BoundaryProximity,
    DomainError,
    ParameterOverflow,
    SingularDenominator,
    SingularResolvent,
)
from opball.hyperbolic import (
    GeodesicLine,
    MetricSample,
    _line_points,
    convex_combination,
    distance,
    geodesic_point,
    geodesic_velocity,
    line_through,
)
from opball.mobius import (
    BallAutomorphism,
    BallPoint,
    _automorphism_stack,
    _eta_spectra,
    _frac_checked,
    _require_inside,
    automorphism_apply,
    defect_roots,
    eta_defect,
    eta_matrix,
    mobius_as_block,
    mobius_batch,
    mobius_matrix,
)
from opball.opcore import adjoint, spectral_norm
from opball.pontryagin import (
    PontryaginSignature,
    make_test_representation,
    max_unitarity_defect,
    unitarizer_matrix,
)
from opball.sampling import (
    complex_gaussian,
    random_ball_point,
    random_direction,
    random_eta_preserving,
    rng_from,
)

SHAPES = [(1, 1), (2, 1), (1, 3), (3, 2), (4, 4)]


def sqrtm(s):
    return psd_apply(s, np.sqrt)


def inv_sqrtm(s):
    return psd_apply(s, lambda t: t ** -0.5)


@pytest.mark.parametrize("p, q", SHAPES)
def test_defect_roots_match_psd_functions(p, q):
    rng = rng_from(11)
    a = random_ball_point(rng, p, q, 0.95).matrix
    roots = {0.5: sqrtm, -0.5: inv_sqrtm}
    for left in (0.5, -0.5):
        for right in (0.5, -0.5):
            got_l, got_r = defect_roots(a, left, right)
            assert_allclose(got_l, roots[left](np.eye(p) - a @ adjoint(a)),
                            rtol=0, atol=1e-14)
            assert_allclose(got_r, roots[right](np.eye(q) - adjoint(a) @ a),
                            rtol=0, atol=1e-14)


@pytest.mark.parametrize("p, q", SHAPES)
def test_defect_roots_on_a_stack(p, q):
    rng = rng_from(12)
    stack = np.stack([random_ball_point(rng, p, q, 0.9).matrix
                      for _ in range(5)])
    left, right = defect_roots(stack, -0.5, 0.5)
    assert left.shape == (5, p, p) and right.shape == (5, q, q)
    for k, a in enumerate(stack):
        assert_allclose(left[k], inv_sqrtm(np.eye(p) - a @ adjoint(a)),
                        rtol=0, atol=1e-13)
        assert_allclose(right[k], sqrtm(np.eye(q) - adjoint(a) @ a),
                        rtol=0, atol=1e-13)


def test_defect_roots_on_the_boundary():
    # a singular value 1: the square roots clamp to 0, the inverse raises
    a = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=np.complex128)
    left, right = defect_roots(a, 0.5, 0.5)
    assert_allclose(left, np.diag([0.0, np.sqrt(0.75)]), rtol=0, atol=1e-15)
    assert_allclose(right, left, rtol=0, atol=1e-15)
    for exponents in ((-0.5, 0.5), (0.5, -0.5)):
        with pytest.raises(DomainError):
            defect_roots(a, *exponents)
        with pytest.raises(DomainError):
            defect_roots(np.stack([0.5 * a, a]), *exponents)


def test_mobius_batch_broadcasts_like_mobius_matrix():
    rng = rng_from(13)
    p, q = 3, 2
    bases = np.stack([random_ball_point(rng, p, q, 0.9).matrix
                      for _ in range(3)])
    others = np.stack([[random_ball_point(rng, p, q, 0.9).matrix
                        for _ in range(4)] for _ in range(3)])
    out = mobius_batch(bases[:, None], others)
    assert out.shape == (3, 4, p, q)
    for k in range(3):
        for i in range(4):
            assert_allclose(out[k, i], mobius_matrix(bases[k], others[k, i]),
                            rtol=0, atol=1e-13)


@pytest.mark.parametrize("p, q", SHAPES)
def test_frac_linear_on_a_stack_matches_automorphism_apply(p, q):
    rng = rng_from(14)
    autos = [BallAutomorphism(random_eta_preserving(rng, p, q, 5.0), p, q)
             for _ in range(4)]
    x = random_ball_point(rng, p, q, 0.8)
    images = _frac_checked(np.stack([t.block for t in autos]), x.matrix)
    assert images.shape == (4, p, q)
    for t, img in zip(autos, images):
        assert_allclose(img, automorphism_apply(t, x).matrix,
                        rtol=0, atol=1e-13)


def test_frac_linear_maps_a_probe_stack_through_one_block():
    rng = rng_from(15)
    p, q = 2, 2
    t = BallAutomorphism(random_eta_preserving(rng, p, q, 3.0), p, q)
    probes = [random_ball_point(rng, p, q, 0.5) for _ in range(3)]
    images = _frac_checked(t.block, np.stack([pt.matrix for pt in probes]))
    for pt, img in zip(probes, images):
        assert_allclose(img, automorphism_apply(t, pt).matrix,
                        rtol=0, atol=1e-13)


@pytest.mark.parametrize("p, q", SHAPES)
def test_eta_defect_matches_its_formula(p, q):
    rng = rng_from(16)
    t = random_eta_preserving(rng, p, q, 4.0)
    t = t + 1e-3 * (rng.standard_normal(t.shape)
                    + 1j * rng.standard_normal(t.shape))
    j = np.diag([1.0] * p + [-1.0] * q)
    expected = np.linalg.norm(t.conj().T @ j @ t - j, 2)
    assert eta_defect(t, p, q) == pytest.approx(expected, rel=1e-12)
    assert eta_defect(np.eye(p + q), p, q) == 0.0
    assert_allclose(eta_matrix(p, q), j, rtol=0, atol=0)


# Backward-error model of the stack measurements against the SVD: both
# methods are backward stable on the same formed matrices, so norms agree to
# STACK_C n eps relative and the eta and unitarity defects, whose matrices
# were formed at a cost of ||T||^2 eps, to STACK_C n eps max(1, ||T||^2)
# absolute.  The largest measured ratios were 7.3, 1.3 and 1.6.
STACK_C = 16


def _assert_stack_measures_match_the_svd(t, p, q):
    """Checks the kernel's measurements of a stack against the SVD and
    returns the SVD's figures, the largest of each, with the allowance."""
    n = p + q
    j = eta_matrix(p, q)
    defects, gram = _eta_spectra(adjoint(t) @ j @ t - j, t)
    unitarity = np.maximum(gram[:, -1] - 1.0, 1.0 - gram[:, 0])

    def svd_norm(m):
        return np.linalg.svd(m, compute_uv=False)[..., 0]

    norms = svd_norm(t)
    eta = svd_norm(adjoint(t) @ j @ t - j)
    unit = svd_norm(adjoint(t) @ t - np.eye(n))
    tol = STACK_C * n * np.finfo(float).eps
    assert np.all(np.abs(np.sqrt(gram[:, -1]) - norms) <= tol * norms)
    allowed = tol * np.maximum(1.0, norms ** 2)
    assert np.all(np.abs(defects - eta) <= allowed)
    assert np.all(np.abs(unitarity - unit) <= allowed)
    return norms.max(), eta.max(), unit.max(), allowed.max()


def test_stack_measures_match_the_svd():
    rng = rng_from(20)
    for n in range(1, 17):
        p, q = n - n // 2, n // 2
        for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3):
            _assert_stack_measures_match_the_svd(
                scale * np.stack([complex_gaussian(rng, n, n)
                                  for _ in range(6)]), p, q)
        # an eta-preserving T needs both components
        for cond in (1.0, 10.0, 1e2, 1e3, 1e4) if q else ():
            _assert_stack_measures_match_the_svd(
                np.stack([random_eta_preserving(rng, p, q, cond)
                          for _ in range(6)]), p, q)
    # the four groups, also through the figures the library reports
    for (name, p, q), cond in itertools.product(
            [("C4", 2, 1), ("S3", 4, 2), ("Q8", 5, 2), ("C12", 6, 3)],
            (10.0, 1e2, 1e3, 1e4)):
        rep = make_test_representation(name, PontryaginSignature(p, q),
                                       conditioning=cond, seed=0)
        norm, eta, unit, allowed = _assert_stack_measures_match_the_svd(
            np.stack(rep.images), p, q)
        tol = STACK_C * (p + q) * np.finfo(float).eps
        assert abs(rep.bound - norm) <= tol * norm
        assert abs(rep.eta_defect - eta) <= allowed
        assert abs(max_unitarity_defect(rep.images) - unit) <= allowed


def test_convex_combination_makes_two_mobius_evaluations(monkeypatch):
    rng = rng_from(17)
    x = random_ball_point(rng, 3, 2, 0.8)
    y = random_ball_point(rng, 3, 2, 0.8)
    calls = []
    original = hyperbolic._mobius_rooted

    # M_{-x}(y) and M_x of the inner point, both from the roots of x
    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(hyperbolic, "_mobius_rooted", counted)
    z = convex_combination(x, y, 0.3)
    assert len(calls) == 2
    monkeypatch.undo()
    assert distance(x, z) == pytest.approx(0.3 * distance(x, y), rel=1e-10)


def test_metric_sample_table_matches_pairwise_distance():
    rng = rng_from(18)
    points = [random_ball_point(rng, 2, 3, 0.9) for _ in range(7)]
    table = MetricSample(points).pairwise
    assert np.array_equal(table, table.T)
    assert np.all(np.diag(table) == 0.0)
    for i in range(7):
        for j in range(i + 1, 7):
            assert table[i, j] == pytest.approx(
                distance(points[i], points[j]), rel=1e-12)


def test_metric_sample_takes_each_pair_once(monkeypatch):
    # one rho call on the n(n-1)/2 pairs above the diagonal, not on all n^2
    rng = rng_from(20)
    points = [random_ball_point(rng, 3, 2, 0.9) for _ in range(6)]
    shapes = []
    original = hyperbolic._rho

    def counted(a, b):
        shapes.append((a.shape, b.shape))
        return original(a, b)

    monkeypatch.setattr(hyperbolic, "_rho", counted)
    MetricSample(points)
    monkeypatch.undo()
    assert shapes == [((15, 3, 2), (15, 3, 2))]
    # the kernel takes two arrays of one shape; a point does not broadcast
    # against a stack
    stack = np.stack([pt.matrix for pt in points])
    with pytest.raises(ValueError, match="shape mismatch"):
        hyperbolic._rho(points[0].matrix, stack)


def test_unitarizer_is_the_mobius_block_of_minus_d():
    # equal up to rounding and the positive scalar BallAutomorphism divides by
    rng = rng_from(19)
    for (p, q), margin in itertools.product(
            itertools.product(range(1, 9), repeat=2),
            (0.5, 1e-2, 1e-3, 1e-4, 1e-5)):
        d = random_ball_point(rng, p, q, 1.0 - margin, 1.0 - margin)
        u = unitarizer_matrix(PontryaginSignature(p, q), d)
        block = mobius_as_block(BallPoint(-d.matrix)).block
        assert spectral_norm(u - block) <= 1e-11 * spectral_norm(block), \
            (p, q, margin)


def _count_calls(monkeypatch, module, names):
    """Wrap ``module.<name>`` for each name and return the per-name counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_line_keeps_its_polar_factors_and_base_roots(monkeypatch):
    rng = rng_from(20)
    base = random_ball_point(rng, 4, 3, 0.8)
    direction = random_direction(rng, 4, 3)
    ts = (-2.0, -0.5, 0.0, 1.0, 3.0)
    # the line takes the SVD of its norm check and the base's roots once;
    # each point then takes the resolvent check's SVD and its norm's SVD
    calls = _count_calls(monkeypatch, hyperbolic, ["defect_roots", "th_map"])
    svd = _count_calls(monkeypatch, np.linalg, ["svd"])
    line = GeodesicLine(base, direction)
    points = [geodesic_point(line, t) for t in ts]
    assert calls == {"defect_roots": 1, "th_map": 0}
    assert svd == {"svd": 12}
    other = random_ball_point(rng, 4, 3, 0.8)
    calls.update(defect_roots=0)
    through = line_through(base, other)
    [geodesic_point(through, t) for t in ts]
    assert calls["defect_roots"] == 1
    monkeypatch.undo()
    for kept in (*line._polar, *line._roots, *through._polar, *through._roots):
        assert not kept.flags.writeable
    for t, point in zip(ts, points):
        assert_allclose(point.matrix,
                        mobius_matrix(base.matrix, hyperbolic.th_map(t * direction)),
                        rtol=0, atol=1e-14)


# Backward-error model of the kept factors: W tanh(tS) V* and the Th of a
# fresh SVD of tD are both Th(tD) up to eps |t| in the inner point, and M_A
# amplifies that by at most about 1 / margin(A); at |t| <= 9 and base
# margins >= 0.1 the two agree to 1e-13 relative.
@pytest.mark.parametrize("p, q", SHAPES + [(6, 3), (16, 3)])
def test_geodesic_point_matches_mobius_of_th_map(p, q):
    rng = rng_from(21)
    for margin in (0.5, 0.1):
        base = random_ball_point(rng, p, q, 1.0 - margin, 1.0 - margin)
        for line in (GeodesicLine(base, random_direction(rng, p, q)),
                     line_through(base, random_ball_point(rng, p, q, 0.9))):
            for t in np.linspace(-9.0, 9.0, 19):
                want = mobius_matrix(base.matrix, hyperbolic.th_map(t * line.direction))
                got = geodesic_point(line, t).matrix
                assert spectral_norm(got - want) <= 1e-13 * spectral_norm(want)


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (6, 3)])
def test_line_points_of_a_stack_are_the_scalar_points(p, q):
    rng = rng_from(22)
    ts = np.array([-6.0, -2.5, -0.3, 0.0, 0.7, 4.0, 6.0])
    for margin in (0.5, 0.1, 1e-3):
        base = random_ball_point(rng, p, q, 1.0 - margin, 1.0 - margin)
        for line in (GeodesicLine(base, random_direction(rng, p, q)),
                     line_through(base, random_ball_point(rng, p, q, 0.9))):
            points, norms = _line_points(line, ts)
            assert points.shape == (len(ts), p, q)
            assert not points.flags.writeable
            for t, point, norm in zip(ts, points, norms):
                want = geodesic_point(line, t)
                assert spectral_norm(point - want.matrix) <= 1e-13
                assert 1.0 - norm == want.margin
            velocities = geodesic_velocity(line, ts)
            for t, velocity in zip(ts, velocities):
                assert spectral_norm(velocity - geodesic_velocity(line, t)) <= \
                    1e-13 * spectral_norm(velocity)


def test_line_points_check_every_parameter_of_a_stack(monkeypatch):
    rng = rng_from(23)
    line = GeodesicLine(random_ball_point(rng, 3, 2, 0.8), random_direction(rng, 3, 2))
    for bad in ([0.5, 19.0, 1.0], [0.5, -19.0]):
        with pytest.raises(ParameterOverflow, match="at stack index"):
            _line_points(line, bad)
        with pytest.raises(ParameterOverflow):
            geodesic_velocity(line, np.array(bad))
    with pytest.raises(ParameterOverflow, match=r"\|t\| = 19\.0 beyond tanh saturation$"):
        geodesic_point(line, 19.0)
    # nine points take one batched SVD for their resolvent checks and one for
    # their norms; nine velocities one for each of their two resolvents
    svd = _count_calls(monkeypatch, np.linalg, ["svd"])
    _line_points(line, np.linspace(-1.0, 1.0, 9))
    geodesic_velocity(line, np.linspace(-1.0, 1.0, 9))
    assert svd == {"svd": 4}
    monkeypatch.undo()
    # 1 + A*X = diag(1 - a tanh 18, 1 + 0.3 tanh 9): singular at t = 18 only
    base = BallPoint(np.diag([1.0 - 1e-15, 0.3])[[0, 1, 1]] * [[1], [1], [0]],
                     boundary_tol=0.0)
    line = GeodesicLine(base, np.array([[-1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(SingularResolvent, match="1 \\+ A\\*X .* at stack index 2$"):
        _line_points(line, [0.0, 1.0, 18.0])
    with pytest.raises(SingularResolvent):
        geodesic_point(line, 18.0)
    with pytest.raises(SingularResolvent, match="1 \\+ AB\\* .* at stack index 1$"):
        geodesic_velocity(line, np.array([0.0, 18.0]))


def test_checked_paths_take_stacks_and_name_the_first_offender():
    rng = rng_from(24)
    a = random_ball_point(rng, 3, 2, 0.8).matrix
    xs = np.stack([random_ball_point(rng, 3, 2, 0.8).matrix for _ in range(4)])
    images = mobius_matrix(a, xs)
    for x, image in zip(xs, images):
        assert spectral_norm(image - mobius_matrix(a, x)) <= 1e-14
    singular = xs.copy()
    singular[2] = -a @ np.linalg.pinv(adjoint(a) @ a)  # 1 + A*X = 0
    with pytest.raises(SingularResolvent, match="at stack index 2$"):
        mobius_matrix(a, singular)
    norms = _require_inside(xs, 0.0)
    assert_allclose(norms, [spectral_norm(x) for x in xs], rtol=1e-15)
    with pytest.raises(BoundaryProximity, match="not strictly below 1 - 0.0 at stack index 1$"):
        _require_inside(xs / norms[:, None, None] ** [[[0.5]], [[1.0]], [[2.0]], [[1.0]]], 0.0)
    t = BallAutomorphism(random_eta_preserving(rng, 3, 2, 5.0), 3, 2)
    for x, image in zip(xs, _frac_checked(t.block, xs)):
        assert spectral_norm(image - automorphism_apply(t, BallPoint(x)).matrix) <= 1e-13
    broken = _automorphism_stack(np.diag([1.0, 0.0])[None], 1, 1, 10.0)[0]
    probes = np.array([[[0.5]], [[0.0]]])
    with pytest.raises(SingularDenominator, match="at stack index 0$"):
        _frac_checked(broken, probes)
