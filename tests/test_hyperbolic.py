import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from oracles import psd_apply

from opball.errors import (
    BoundaryProximity,
    CoincidentPoints,
    GridTooCoarse,
    ParameterOverflow,
    ZeroInput,
)
from opball.hyperbolic import (
    GeodesicLine,
    MetricSample,
    _line_and_gap,
    _rho,
    _simpson,
    alpha_metric,
    barycenter_sequence,
    convex_combination,
    curve_length,
    diameter,
    diametral_check,
    distance,
    geodesic_point,
    geodesic_velocity,
    line_through,
    poincare_scalar,
    th_inverse,
    th_map,
    th_series,
)
from opball.mobius import (
    BallAutomorphism,
    BallPoint,
    automorphism_apply,
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

LN3 = math.log(3.0)


def scalar(z):
    return BallPoint([[z]], boundary_tol=0.0)


# --- distance and the scalar oracle ------------------------------------------


def test_distance_from_origin_is_atanh_norm():
    rng = rng_from(0)
    for _ in range(10):
        b = random_ball_point(rng, 3, 2, 0.9)
        want = math.atanh(spectral_norm(b.matrix))
        assert distance(zero_point(3, 2), b) == pytest.approx(want, abs=1e-12)


def test_distance_of_equal_points_is_zero():
    rng = rng_from(1)
    a = random_ball_point(rng, 2, 2, 0.7)
    assert distance(a, a) < 1e-14


def test_distance_scalar_ln3():
    assert distance(scalar(0.5), scalar(-0.5)) == pytest.approx(LN3, abs=1e-12)


def test_poincare_examples():
    assert poincare_scalar(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    assert poincare_scalar(0.0, 0.4j) == pytest.approx(math.atanh(0.4), abs=1e-15)
    assert poincare_scalar(0.5, -0.5) == pytest.approx(LN3, abs=1e-15)
    with pytest.raises(BoundaryProximity):
        poincare_scalar(1.0, 0.0)
    # opposite points at margin 1.01e-8: the atanh argument rounds to 1
    r = 1.0 - 1.01e-8
    with pytest.raises(BoundaryProximity):
        poincare_scalar(r, -r)


def test_disc_distance_at_margin_1e_8_matches_the_closed_form():
    # rho(r, -r) = 2 atanh r = log((1 + r) / (1 - r)), with 1 - r exact
    r = 1.0 - 1.01e-8
    want = math.log((1.0 + r) / (1.0 - r))
    assert distance(scalar(r), scalar(-r)) == pytest.approx(want, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                          allow_infinity=False))
def test_scalar_distance_matches_poincare_oracle(z1, z2):
    got = distance(scalar(z1), scalar(z2))
    want = poincare_scalar(z1, z2)
    assert abs(got - want) < 1e-12
    assert abs(got - distance(scalar(z2), scalar(z1))) < 1e-12


def test_batched_rho_matches_distance_pairwise():
    rng = rng_from(40)
    for p, q in ((1, 1), (3, 2), (2, 4)):
        base = random_ball_point(rng, p, q, 0.95)
        points = [random_ball_point(rng, p, q, 0.95) for _ in range(4)]
        stack = np.stack([pt.matrix for pt in points])
        got = _rho(np.broadcast_to(base.matrix, stack.shape), stack)
        assert got.shape == (4,)
        for value, pt in zip(got, points):
            assert value == pytest.approx(distance(base, pt), rel=1e-12)
        table = MetricSample(points).pairwise
        for i in range(4):
            for j in range(i + 1, 4):
                assert table[i, j] == pytest.approx(
                    distance(points[i], points[j]), rel=1e-12)


def test_distance_is_symmetric_near_the_boundary():
    rng = rng_from(43)
    for p, q in ((1, 1), (3, 2), (2, 4)):
        for _ in range(5):
            a, b = (random_ball_point(rng, p, q, 1.0 - 1e-6, 1.0 - 1e-6)
                    for _ in range(2))
            assert distance(a, b) == pytest.approx(distance(b, a), rel=1e-12)


# --- Th and its inverse --------------------------------------------------------


def test_th_map_examples():
    assert spectral_norm(th_map(np.zeros((2, 3)))) == 0.0
    assert_allclose(th_map(np.diag([1.0])), [[math.tanh(1.0)]], atol=1e-15)
    # selfadjoint D: Th(D) = tanh(D), checked through a negative eigenvalue
    d = np.array([[0.0, 1.3], [1.3, 0.0]])
    lam, v = np.linalg.eigh(d)
    want = (v * np.tanh(lam)) @ v.conj().T
    assert_allclose(th_map(d), want, atol=1e-14)


def test_th_norm_is_tanh_of_norm():
    rng = rng_from(2)
    for scale in (0.3, 1.0, 2.5):
        d = random_direction(rng, 4, 2) * scale
        assert spectral_norm(th_map(d)) == pytest.approx(
            math.tanh(scale), abs=1e-12)


def test_th_series_cross_check():
    # direct summation converges inside ||D|| < pi/2; term counts chosen so
    # the truncation tail (2||D||/pi)^(2n) sits far below the tolerance
    rng = rng_from(3)
    for scale, terms in ((0.5, 40), (1.2, 80), (1.45, 400)):
        d = random_direction(rng, 3, 2) * scale
        assert spectral_norm(th_map(d) - th_series(d, terms=terms)) < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_th_series_checks_its_arguments():
    # no terms raised IndexError from the coefficient table, and a NaN
    # entry summed to NaN where th_map rejects it
    d = random_direction(rng_from(3), 3, 2)
    for terms in (0, -1):
        with pytest.raises(ValueError) as excinfo:
            th_series(d, terms=terms)
        assert str(excinfo.value) == f"terms must be at least 1, got {terms}"
    assert np.array_equal(th_series(d, terms=1), d)
    # a float raised a bare TypeError from the coefficient table, and True
    # ran as one term; numpy integers are integers
    for terms in (2.5, True):
        with pytest.raises(ValueError) as excinfo:
            th_series(d, terms=terms)
        assert str(excinfo.value) == f"terms must be an integer, got {terms!r}"
    assert np.array_equal(th_series(d, terms=np.int64(3)), th_series(d, terms=3))
    bad = d.copy()
    bad[1, 0] = np.nan
    for th in (th_map, th_series):
        with pytest.raises(ValueError) as excinfo:
            th(bad)
        assert str(excinfo.value) == "matrix contains non-finite entries"


def test_th_inverse_scalar():
    direction, t = th_inverse(scalar(0.5))
    assert t == pytest.approx(math.atanh(0.5), abs=1e-15)
    assert_allclose(direction, [[1.0]], atol=1e-14)


def test_th_inverse_partial_isometry():
    iso = np.zeros((3, 2))
    iso[0, 0] = 1.0
    b = BallPoint(math.tanh(1.0) * iso)
    direction, t = th_inverse(b)
    assert t == pytest.approx(1.0, abs=1e-14)
    assert_allclose(direction, iso, atol=1e-14)


def test_th_roundtrip_property():
    rng = rng_from(4)
    for _ in range(20):
        d = random_direction(rng, 4, 3)
        s = float(rng.uniform(0.1, 2.5))
        direction, t = th_inverse(BallPoint(th_map(s * d), boundary_tol=0.0))
        assert t == pytest.approx(s, abs=1e-10)
        assert spectral_norm(th_map(t * direction) - th_map(s * d)) < 1e-9


def test_th_inverse_rejects_zero():
    with pytest.raises(ZeroInput):
        th_inverse(zero_point(2, 2))


# --- geodesics -----------------------------------------------------------------


def test_geodesic_starts_at_base():
    rng = rng_from(5)
    a = random_ball_point(rng, 3, 2, 0.7)
    line = GeodesicLine(a, random_direction(rng, 3, 2))
    assert spectral_norm(geodesic_point(line, 0.0).matrix - a.matrix) < 1e-12


def test_geodesic_scalar_value():
    line = GeodesicLine(zero_point(1, 1), np.array([[1.0]]))
    pt = geodesic_point(line, LN3 / 2)
    assert pt.matrix[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_geodesic_is_metric_line():
    rng = rng_from(6)
    for _ in range(10):
        line = GeodesicLine(random_ball_point(rng, 4, 3, 0.8),
                            random_direction(rng, 4, 3))
        assert distance(geodesic_point(line, 1.0),
                        geodesic_point(line, -2.0)) == pytest.approx(3.0, abs=1e-8)


def test_geodesic_parameter_overflow():
    line = GeodesicLine(zero_point(2, 2), random_direction(rng_from(7), 2, 2))
    with pytest.raises(ParameterOverflow):
        geodesic_point(line, 19.0)
    with pytest.raises(ParameterOverflow):
        geodesic_velocity(line, -18.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, [0.5, np.nan, 1.0]],
                         ids=["nan", "inf", "-inf", "stack"])
def test_a_non_finite_geodesic_parameter_raises_value_error(bad):
    line = GeodesicLine(zero_point(2, 2), random_direction(rng_from(7), 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (geodesic_point, geodesic_velocity):
            with pytest.raises(ValueError,
                               match="^parameter contains non-finite entries$"):
                call(line, np.asarray(bad))


def test_geodesic_point_rejects_an_array_parameter_before_any_svd(monkeypatch):
    line = GeodesicLine(random_ball_point(rng_from(8), 2, 2, 0.6),
                        random_direction(rng_from(9), 2, 2))
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in (np.array([0.5, 1.0]), np.array([[0.5]]), [0.25]):
            with pytest.raises(ValueError, match=(
                    r"^parameter must be a number, got shape "
                    + re.escape(str(np.shape(bad))) + "$")):
                geodesic_point(line, bad)
        assert calls == []
        # a 0-d array and numpy scalars still give the point of the float
        point = geodesic_point(line, 0.75).matrix
        for t in (np.array(0.75), np.float64(0.75), np.float32(0.75)):
            assert geodesic_point(line, t).matrix.tobytes() == point.tobytes()


def test_geodesic_line_rejects_bad_directions():
    base = zero_point(2, 2)
    for bad in ([[np.inf, 0.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]],
                [[2.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]):
        with pytest.raises(ValueError):
            GeodesicLine(base, bad)


def test_line_through_scalar():
    line = line_through(scalar(0.0), scalar(0.5))
    assert_allclose(line.direction, [[1.0]], atol=1e-14)
    reached = geodesic_point(line, math.atanh(0.5))
    assert reached.matrix[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_line_through_passes_both_points():
    rng = rng_from(8)
    for _ in range(15):
        p, q = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        a = random_ball_point(rng, p, q, 0.8)
        b = random_ball_point(rng, p, q, 0.8)
        line = line_through(a, b)
        assert spectral_norm(geodesic_point(line, 0.0).matrix - a.matrix) < 1e-8
        reached = geodesic_point(line, distance(a, b))
        assert spectral_norm(reached.matrix - b.matrix) < 1e-8


def test_line_and_gap_is_the_line_and_its_distance():
    # the gap is rho read off the SVD that builds the line, the one the
    # line-invariance suite spaces its points by
    rng = rng_from(18)
    for _ in range(15):
        p, q = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        a = random_ball_point(rng, p, q, 0.8)
        b = random_ball_point(rng, p, q, 0.8)
        line, gap = _line_and_gap(a, b)
        expected = line_through(a, b)
        assert line.direction.tobytes() == expected.direction.tobytes()
        assert line.base is a
        assert gap == pytest.approx(distance(a, b), rel=1e-13)
    with pytest.raises(CoincidentPoints):
        _line_and_gap(a, a)


def test_line_through_unique():
    rng = rng_from(9)
    line = GeodesicLine(random_ball_point(rng, 3, 2, 0.6),
                        random_direction(rng, 3, 2))
    rebuilt = line_through(geodesic_point(line, 0.4), geodesic_point(line, 1.7))
    for u in (-1.0, -0.2, 0.6, 1.9, 2.5):
        err = distance(geodesic_point(rebuilt, u), geodesic_point(line, 0.4 + u))
        assert err < 1e-8


def test_line_through_coincident_rejected():
    a = scalar(0.3)
    with pytest.raises(CoincidentPoints):
        line_through(a, a)


# --- convex combinations -------------------------------------------------------


def test_convex_combination_endpoints():
    rng = rng_from(10)
    x = random_ball_point(rng, 2, 2, 0.7)
    y = random_ball_point(rng, 2, 2, 0.7)
    assert convex_combination(x, y, 0.0) is x
    assert convex_combination(x, y, 1.0) is y


def test_convex_combination_scalar_half():
    z = convex_combination(scalar(0.0), scalar(0.8), 0.5)
    # tanh(atanh(0.8)/2) = 0.8 / (1 + sqrt(1 - 0.64)) = 0.5
    assert z.matrix[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_convex_combination_distances():
    rng = rng_from(11)
    for _ in range(10):
        x = random_ball_point(rng, 3, 2, 0.8)
        y = random_ball_point(rng, 3, 2, 0.8)
        t = float(rng.uniform(0.05, 0.95))
        z = convex_combination(x, y, t)
        rho = distance(x, y)
        assert distance(z, x) == pytest.approx(t * rho, abs=1e-8)
        assert distance(z, y) == pytest.approx((1 - t) * rho, abs=1e-8)


def test_midpoint_symmetry():
    rng = rng_from(12)
    for _ in range(10):
        x = random_ball_point(rng, 3, 3, 0.8)
        y = random_ball_point(rng, 3, 3, 0.8)
        m1 = convex_combination(x, y, 0.5)
        m2 = convex_combination(y, x, 0.5)
        assert spectral_norm(m1.matrix - m2.matrix) < 1e-9


# --- the differential metric ---------------------------------------------------


def test_alpha_examples():
    rng = rng_from(13)
    v = complex_gaussian(rng, 3, 2)
    assert alpha_metric(zero_point(3, 2), v) == pytest.approx(
        spectral_norm(v), abs=1e-13)
    a = random_ball_point(rng, 3, 2, 0.6)
    assert alpha_metric(a, np.zeros((3, 2))) == 0.0
    assert alpha_metric(scalar(0.5), [[1.0]]) == pytest.approx(4.0 / 3.0,
                                                               abs=1e-13)


def test_alpha_homogeneous():
    rng = rng_from(14)
    a = random_ball_point(rng, 2, 2, 0.7)
    v = complex_gaussian(rng, 2, 2)
    assert alpha_metric(a, -2.5 * v) == pytest.approx(2.5 * alpha_metric(a, v),
                                                      abs=1e-12)


def test_alpha_first_variation():
    rng = rng_from(15)
    for _ in range(5):
        a = random_ball_point(rng, 3, 2, 0.7)
        v = random_direction(rng, 3, 2)
        alpha = alpha_metric(a, v)
        gaps = []
        for h in (1e-3, 1e-4):
            moved = BallPoint(a.matrix + h * v, boundary_tol=0.0)
            gaps.append(abs(distance(a, moved) / h - alpha))
        # first variation: gap shrinks linearly with h
        assert gaps[0] < 0.05
        assert gaps[1] < 0.005


def test_unit_speed_and_velocity():
    rng = rng_from(16)
    for _ in range(5):
        d = random_direction(rng, 4, 2)
        base = random_ball_point(rng, 4, 2, 0.6)
        line = GeodesicLine(base, d)
        for t in (-1.5, 0.0, 0.3, 2.0):
            g = th_map(t * d)
            closed_form = d - g @ adjoint(d) @ g
            speed = alpha_metric(BallPoint(g, boundary_tol=0.0), closed_form)
            assert abs(speed - 1.0) < 1e-7
            # chain rule through the base point keeps unit speed
            speed_based = alpha_metric(geodesic_point(line, t),
                                       geodesic_velocity(line, t))
            assert abs(speed_based - 1.0) < 1e-7
            h = 1e-5
            fd = (geodesic_point(line, t + h).matrix
                  - geodesic_point(line, t - h).matrix) / (2 * h)
            assert spectral_norm(fd - geodesic_velocity(line, t)) < 1e-6


def test_met_lemma_identity():
    # (1 - gg*)^{-1/2} (D - g D* g) (1 - g*g)^{-1/2} = D on g = Th(tD)
    rng = rng_from(17)
    for _ in range(10):
        d = random_direction(rng, 3, 3)
        g = th_map(float(rng.uniform(-2, 2)) * d)
        left = psd_apply(np.eye(3) - g @ adjoint(g), lambda t: t ** -0.5)
        right = psd_apply(np.eye(3) - adjoint(g) @ g, lambda t: t ** -0.5)
        assert spectral_norm(
            left @ (d - g @ adjoint(d) @ g) @ right - d) < 1e-8


def test_key_inequality():
    rng = rng_from(18)
    for _ in range(50):
        a = random_ball_point(rng, 4, 2, 0.95).matrix
        b = random_ball_point(rng, 4, 2, 0.95).matrix
        left = psd_apply(np.eye(4) - b @ adjoint(b), lambda t: t ** -0.5)
        right = psd_apply(np.eye(2) - adjoint(b) @ b, lambda t: t ** -0.5)
        rhs = spectral_norm(left @ (a - b @ adjoint(a) @ b) @ right)
        assert spectral_norm(a) <= rhs + 1e-9


def test_doubling_convexity():
    rng = rng_from(19)
    for _ in range(20):
        base = random_ball_point(rng, 3, 2, 0.7)
        g = GeodesicLine(base, random_direction(rng, 3, 2))
        e = GeodesicLine(base, random_direction(rng, 3, 2))
        for s in (0.25, 0.5, 1.0):
            lhs = 2 * distance(geodesic_point(g, s), geodesic_point(e, s))
            rhs = distance(geodesic_point(g, 2 * s), geodesic_point(e, 2 * s))
            assert lhs <= rhs + 1e-8


def test_segment_convexity():
    rng = rng_from(20)
    for _ in range(20):
        x, y, w, z = (random_ball_point(rng, 3, 2, 0.8) for _ in range(4))
        t = float(rng.uniform(0, 1))
        lhs = distance(convex_combination(x, y, t),
                       convex_combination(w, z, t))
        rhs = (1 - t) * distance(x, w) + t * distance(y, z)
        assert lhs <= rhs + 1e-8


def test_isometry_invariance_of_distance():
    rng = rng_from(21)
    for _ in range(20):
        t = BallAutomorphism(random_eta_preserving(rng, 4, 2, 20.0), 4, 2)
        a = random_ball_point(rng, 4, 2, 0.8)
        b = random_ball_point(rng, 4, 2, 0.8)
        moved = distance(automorphism_apply(t, a), automorphism_apply(t, b))
        assert moved == pytest.approx(distance(a, b), abs=1e-8)


def test_automorphisms_carry_lines_to_lines():
    rng = rng_from(22)
    for _ in range(10):
        line = GeodesicLine(random_ball_point(rng, 3, 2, 0.6),
                            random_direction(rng, 3, 2))
        t = BallAutomorphism(random_eta_preserving(rng, 3, 2, 5.0), 3, 2)
        params = [0.0, 0.8, 1.6, 2.4, 3.0]
        images = [automorphism_apply(t, geodesic_point(line, s)) for s in params]
        carried = line_through(images[0], images[1])
        for s, img in zip(params, images):
            assert distance(geodesic_point(carried, s), img) < 1e-7


# --- curve length ---------------------------------------------------------------


def test_curve_length_of_geodesic():
    rng = rng_from(23)
    line = GeodesicLine(random_ball_point(rng, 3, 2, 0.6),
                        random_direction(rng, 3, 2))
    ts = np.linspace(0.0, 1.0, 101)
    pts = [geodesic_point(line, t) for t in ts]
    vels = [geodesic_velocity(line, t) for t in ts]
    assert curve_length(ts, pts, vels) == pytest.approx(1.0, abs=1e-6)


def test_curve_length_constant_curve():
    a = scalar(0.4)
    ts = np.linspace(0, 1, 11)
    assert curve_length(ts, [a] * 11) == pytest.approx(0.0, abs=1e-12)


def test_norm_straight_segment_at_least_distance():
    rng = rng_from(24)
    x = random_ball_point(rng, 3, 2, 0.7)
    y = random_ball_point(rng, 3, 2, 0.7)
    ts = np.linspace(0.0, 1.0, 201)
    pts = [BallPoint(x.matrix + t * (y.matrix - x.matrix), boundary_tol=0.0)
           for t in ts]
    vels = [y.matrix - x.matrix] * len(ts)
    assert curve_length(ts, pts, vels) >= distance(x, y) - 1e-6


def test_curve_length_grid_too_coarse():
    a, b = scalar(0.1), scalar(0.2)
    with pytest.raises(GridTooCoarse):
        curve_length([0.0, 1.0], [a, b])


def test_curve_length_is_simpson_of_the_per_node_speeds():
    # one alpha on the stacked nodes gives each node's speed bit for bit,
    # with velocities given and with velocities from differences
    rng = rng_from(26)
    for p, q, nodes in [(1, 1, 3), (3, 2, 12), (2, 4, 31)]:
        x = random_ball_point(rng, p, q, 0.9)
        y = random_ball_point(rng, p, q, 0.9)
        ts = np.sort(rng.uniform(0.0, 1.0, nodes))
        pts = [BallPoint(x.matrix + t * t * (y.matrix - x.matrix),
                         boundary_tol=0.0) for t in ts]
        vels = [2.0 * t * (y.matrix - x.matrix) for t in ts]
        diffs = list(np.gradient(np.stack([pt.matrix for pt in pts]), ts,
                                 axis=0))
        for given, used in ((vels, vels), (None, diffs)):
            speeds = [alpha_metric(pt, v) for pt, v in zip(pts, used)]
            assert curve_length(ts, pts, given) == _simpson(
                np.asarray(speeds), ts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_curve_length_rejects_bad_velocities():
    rng = rng_from(27)
    x = random_ball_point(rng, 3, 2, 0.6)
    ts = np.linspace(0.0, 1.0, 5)
    pts = [x] * 5
    vel = random_direction(rng, 3, 2)
    for vels, match in [([vel] * 4, "shape mismatch"),
                        ([vel.T] * 5, "shape mismatch"),
                        ([vel] * 4 + [vel[:, :1]], "inhomogeneous"),
                        ([vel] * 4 + [np.full((3, 2), np.nan)], "non-finite"),
                        ([vel] * 4 + [np.full((3, 2), np.inf)], "non-finite")]:
        with pytest.raises(ValueError, match=match):
            curve_length(ts, pts, vels)


@pytest.mark.parametrize("nodes", [3, 4, 11, 12, 101, 102])
@pytest.mark.parametrize("uniform", [True, False])
def test_curve_length_matches_scipy_simpson(nodes, uniform):
    from scipy.integrate import simpson

    rng = rng_from(25)
    x = random_ball_point(rng, 3, 2, 0.6)
    y = random_ball_point(rng, 3, 2, 0.6)
    ts = (np.linspace(0.0, 1.0, nodes) if uniform
          else np.concatenate([[0.0], np.sort(rng.uniform(0, 1, nodes - 2)), [1.0]]))
    # a curve whose speed varies: a straight segment run at t^2
    pts = [BallPoint(x.matrix + t * t * (y.matrix - x.matrix), boundary_tol=0.0)
           for t in ts]
    vels = [2.0 * t * (y.matrix - x.matrix) for t in ts]
    speeds = [alpha_metric(pt, v) for pt, v in zip(pts, vels)]
    assert curve_length(ts, pts, vels) == pytest.approx(
        simpson(speeds, x=ts), rel=1e-13)


# --- diameter machinery ----------------------------------------------------------


def test_metric_sample_table():
    rng = rng_from(25)
    pts = [random_ball_point(rng, 2, 2, 0.8) for _ in range(5)]
    sample = MetricSample(pts)
    assert_allclose(np.diag(sample.pairwise), np.zeros(5))
    assert_allclose(sample.pairwise, sample.pairwise.T)


def test_diameter_examples():
    assert diameter(MetricSample([scalar(0.3)])) == (0.0, (0, 0))

    value, pair = diameter(MetricSample([scalar(0.0), scalar(0.5)]))
    assert value == pytest.approx(math.atanh(0.5), abs=1e-12)
    assert pair == (0, 1)

    line = GeodesicLine(zero_point(2, 2), random_direction(rng_from(26), 2, 2))
    pts = [geodesic_point(line, t) for t in (0.0, 1.0, 3.0)]
    value, pair = diameter(MetricSample(pts))
    assert value == pytest.approx(3.0, abs=1e-8)
    assert pair == (0, 2)


def test_diametral_two_points():
    sample = MetricSample([scalar(0.0), scalar(0.5)])
    for k in range(2):
        flag, radius = diametral_check(sample, k)
        assert flag
        assert radius == pytest.approx(math.atanh(0.5), abs=1e-12)


def test_midpoint_is_not_diametral():
    rng = rng_from(27)
    x = random_ball_point(rng, 3, 2, 0.8)
    y = random_ball_point(rng, 3, 2, 0.8)
    mid = convex_combination(x, y, 0.5)
    sample = MetricSample([x, y, mid])
    flag, radius = diametral_check(sample, 2)
    assert not flag
    assert radius == pytest.approx(distance(x, y) / 2, abs=1e-8)


def test_equilateral_triangle_all_diametral():
    r = 0.5
    side = math.atanh(r)

    def gap(theta):
        return poincare_scalar(r, r * np.exp(1j * theta)) - side

    theta = brentq(gap, 0.05, math.pi)
    pts = [scalar(0.0), scalar(r), scalar(r * np.exp(1j * theta))]
    sample = MetricSample(pts)
    for k in range(3):
        flag, radius = diametral_check(sample, k)
        assert flag
        assert radius == pytest.approx(side, abs=1e-10)


# --- barycenters -----------------------------------------------------------------


def test_barycenter_single_and_pair():
    rng = rng_from(28)
    x = random_ball_point(rng, 2, 2, 0.7)
    y = random_ball_point(rng, 2, 2, 0.7)
    assert barycenter_sequence([x]) is x
    mid = barycenter_sequence([x, y])
    assert distance(mid, x) == pytest.approx(distance(x, y) / 2, abs=1e-9)
    assert distance(mid, y) == pytest.approx(distance(x, y) / 2, abs=1e-9)


def test_barycenter_mean_inequality():
    rng = rng_from(29)
    for _ in range(10):
        pts = [random_ball_point(rng, 3, 2, 0.8) for _ in range(6)]
        center = barycenter_sequence(pts)
        for _ in range(10):
            probe = random_ball_point(rng, 3, 2, 0.8)
            mean = np.mean([distance(probe, c) for c in pts])
            assert distance(probe, center) <= mean + 1e-8
