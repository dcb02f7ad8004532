import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import psd_apply

from opball import (
    AutomorphismGroup,
    BallAutomorphism,
    BallPoint,
    GeodesicLine,
    PontryaginSignature,
    Representation,
    alpha_metric,
    automorphism_apply,
    automorphism_compose,
    curve_length,
    displacement,
    distance,
    eta_value,
    find_fixed_point,
    graph_subspace,
    group_table,
    induced_automorphism,
    is_J_unitary,
    max_principal_angle,
    mobius_apply,
    mobius_differential,
    negativeness_degree,
    poincare_scalar,
    subspace_to_ball,
    th_map,
    unitarizer_matrix,
)
from opball.errors import ShapeMismatch
from opball.mobius import eta_defect
from opball.opcore import adjoint, as_matrix, frobenius_norm, spectral_norm
from opball.sampling import complex_gaussian, rng_from


def test_spectral_norm_examples():
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0)
    assert spectral_norm([[3, 0], [0, 4]]) == pytest.approx(4.0)


def test_spectral_norm_submultiplicative():
    rng = rng_from(0)
    for _ in range(50):
        a = complex_gaussian(rng, 4, 3)
        b = complex_gaussian(rng, 3, 5)
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
@pytest.mark.parametrize("kind", ["complex", "real", "strided"])
def test_frobenius_norm_is_the_per_matrix_norm(lead, kind):
    rng = rng_from(1)
    eps = np.finfo(float).eps
    for n in range(1, 17):
        a = rng.standard_normal(lead + (n, n))
        if kind != "real":
            a = a + 1j * rng.standard_normal(lead + (n, n))
        if kind == "strided":
            # every other row and column of a larger stack, transposed
            big = np.zeros(lead + (2 * n, 2 * n), dtype=np.complex128)
            big[..., ::2, ::2] = a
            a = big[..., ::2, ::2].swapaxes(-1, -2)
            assert not a.flags.c_contiguous or n == 1
        norms = frobenius_norm(a)
        assert np.shape(norms) == lead
        for index in np.ndindex(lead):
            expected = np.linalg.norm(a[index])
            assert abs(norms[index] - expected) <= 2 * eps * expected


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([[np.nan]])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])


@pytest.mark.parametrize("f", [np.tanh, lambda t: t ** 2, np.sqrt],
                         ids=["tanh", "square", "sqrt"])
def test_intertwining_identity(f):
    # D f(|D|) = f(|D*|) D for every bounded Borel f
    rng = rng_from(5)
    for _ in range(10):
        d = complex_gaussian(rng, 4, 3)
        mod_right = psd_apply(adjoint(d) @ d, np.sqrt)
        mod_left = psd_apply(d @ adjoint(d), np.sqrt)
        lhs = d @ psd_apply(mod_right, f)
        rhs = psd_apply(mod_left, f) @ d
        assert spectral_norm(lhs - rhs) < 1e-9


# the library functions that take a raw matrix beside checked objects: each
# checks its shape first (``opcore._operand``), then rejects NaN and inf as
# ``as_matrix`` does
POINT = BallPoint(np.array([[0.3], [0.1]]))
SIG21 = PontryaginSignature(2, 1)
RAW_MATRIX_CALLS = {
    "is_J_unitary": (lambda m: is_J_unitary(SIG21, m), (3, 3), ShapeMismatch),
    "induced_automorphism": (lambda m: induced_automorphism(SIG21, m), (3, 3),
                             ShapeMismatch),
    "alpha_metric": (lambda m: alpha_metric(POINT, m), (2, 1), ShapeMismatch),
    "mobius_differential": (lambda m: mobius_differential(POINT, POINT, m),
                            (2, 1), ShapeMismatch),
    "th_map": (th_map, (2, 1), None),
    "eta_defect": (lambda m: eta_defect(m, 2, 1), (3, 3), None),
    "max_principal_angle": (lambda m: max_principal_angle(m, np.eye(3, 1)),
                            (3, 1), None),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("name", sorted(RAW_MATRIX_CALLS))
def test_a_raw_matrix_with_a_non_finite_entry_raises_value_error(name, bad):
    call, shape, shape_error = RAW_MATRIX_CALLS[name]
    m = np.eye(*shape, dtype=np.complex128)
    m[-1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^[a-z ]+ contains non-finite entries$"):
            call(m)
        if shape_error is not None:
            # the shape check comes first and keeps its error
            with pytest.raises(shape_error) as excinfo:
                call(np.full((4, 4), bad))
            assert "non-finite" not in str(excinfo.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_a_non_finite_vector_or_disc_point_raises_value_error(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^vector contains non-finite entries$"):
            eta_value(SIG21, [0.0, 0.0, bad])
        with pytest.raises(ShapeMismatch):
            eta_value(SIG21, [bad] * 4)
        for pair in ((bad, 0.1), (0.1, bad)):
            with pytest.raises(ValueError,
                               match="^disc point contains non-finite entries$"):
                poincare_scalar(*pair)


# one wrong size per operand check of the library: each raises ShapeMismatch,
# also a ValueError, naming the operand, before any LAPACK call
WIDE = BallPoint(np.array([[0.3, 0.1]]))
T21, T12 = BallAutomorphism.identity(2, 1), BallAutomorphism.identity(1, 2)
C2 = group_table("C2")
MISFITS = {
    "mobius_apply": (lambda: mobius_apply(POINT, WIDE),
                     "point X shape (1, 2) != (2, 1)"),
    "mobius_differential points": (
        lambda: mobius_differential(POINT, WIDE, np.zeros((2, 1))),
        "point A shape (1, 2) != (2, 1)"),
    "mobius_differential vector": (
        lambda: mobius_differential(POINT, POINT, np.zeros((1, 2))),
        "tangent vector shape (1, 2) != (2, 1)"),
    "BallAutomorphism": (lambda: BallAutomorphism(np.eye(2), 2, 1),
                         "automorphism block shape (2, 2) != (3, 3)"),
    "automorphism_apply": (lambda: automorphism_apply(T21, WIDE),
                           "point shape (1, 2) != (2, 1)"),
    "automorphism_compose": (lambda: automorphism_compose(T21, T12),
                             "second split shape (1, 2) != (2, 1)"),
    "distance": (lambda: distance(POINT, WIDE), "point B shape (1, 2) != (2, 1)"),
    "GeodesicLine": (lambda: GeodesicLine(POINT, np.eye(2)),
                     "direction shape (2, 2) != (2, 1)"),
    "alpha_metric": (lambda: alpha_metric(POINT, np.zeros((1, 2))),
                     "tangent vector shape (1, 2) != (2, 1)"),
    "curve_length grid": (lambda: curve_length([0.0, 1.0], [POINT] * 3),
                          "parameter grid shape (2,) != (3,)"),
    "curve_length velocities": (
        lambda: curve_length([0.0, 0.5, 1.0], [POINT] * 3,
                             [np.zeros((1, 2))] * 3),
        "tangent vector shape (3, 1, 2) != (3, 2, 1)"),
    "AutomorphismGroup split": (lambda: AutomorphismGroup([T21, T12]),
                                "split of automorphism 1 shape (1, 2) != (2, 1)"),
    "AutomorphismGroup table": (lambda: AutomorphismGroup([T21], C2),
                                "table shape (2, 2) != (1, 1)"),
    "displacement": (lambda: displacement(AutomorphismGroup([T21]), WIDE),
                     "point shape (1, 2) != (2, 1)"),
    "find_fixed_point": (lambda: find_fixed_point(AutomorphismGroup([T21]), WIDE),
                         "point shape (1, 2) != (2, 1)"),
    "eta_value": (lambda: eta_value(SIG21, [0.0] * 4), "vector shape (4,) != (3,)"),
    "is_J_unitary": (lambda: is_J_unitary(SIG21, np.eye(2)),
                     "matrix shape (2, 2) != (3, 3)"),
    "induced_automorphism": (lambda: induced_automorphism(SIG21, np.eye(2)),
                             "matrix shape (2, 2) != (3, 3)"),
    "graph_subspace": (lambda: graph_subspace(SIG21, WIDE),
                       "point shape (1, 2) != (2, 1)"),
    "subspace_to_ball": (lambda: subspace_to_ball(SIG21, np.eye(3, 2)),
                         "subspace basis shape (3, 2) != (3, 1)"),
    "negativeness_degree": (lambda: negativeness_degree(SIG21, WIDE),
                            "point shape (1, 2) != (2, 1)"),
    "unitarizer_matrix": (lambda: unitarizer_matrix(SIG21, WIDE),
                          "point shape (1, 2) != (2, 1)"),
    "eta_defect": (lambda: eta_defect(np.eye(4), 2, 1),
                   "matrix shape (4, 4) != (3, 3)"),
    "max_principal_angle": (lambda: max_principal_angle(np.eye(3, 2), np.eye(4, 2)),
                            "second basis rows shape (4,) != (3,)"),
    "Representation count": (lambda: Representation(SIG21, C2, [np.eye(3)] * 3),
                             "image list shape (3,) != (2,)"),
    "Representation image": (
        lambda: Representation(SIG21, C2, [np.eye(3), np.eye(2)]),
        "image 1 shape (2, 2) != (3, 3)"),
}


@pytest.mark.parametrize("name", sorted(MISFITS))
def test_every_misfit_raises_shape_mismatch_before_lapack(name, monkeypatch):
    call, message = MISFITS[name]

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called before the operand check")

    for kernel in ("svd", "eigvalsh", "eigh", "solve", "inv", "qr"):
        monkeypatch.setattr(np.linalg, kernel, refuse)
    with pytest.raises(ShapeMismatch) as excinfo:
        call()
    assert type(excinfo.value) is ShapeMismatch
    assert isinstance(excinfo.value, ValueError)
    assert str(excinfo.value) == message
