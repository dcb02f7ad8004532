import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import psd_apply

from opball import (
    BallPoint,
    PontryaginSignature,
    alpha_metric,
    eta_value,
    induced_automorphism,
    is_J_unitary,
    max_principal_angle,
    mobius_differential,
    poincare_scalar,
    th_map,
)
from opball.errors import ShapeMismatch
from opball.mobius import eta_defect
from opball.opcore import adjoint, as_matrix, spectral_norm
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
# keeps its own shape check, then rejects NaN and inf as ``as_matrix`` does
POINT = BallPoint(np.array([[0.3], [0.1]]))
SIG21 = PontryaginSignature(2, 1)
RAW_MATRIX_CALLS = {
    "is_J_unitary": (lambda m: is_J_unitary(SIG21, m), (3, 3), ShapeMismatch),
    "induced_automorphism": (lambda m: induced_automorphism(SIG21, m), (3, 3),
                             ShapeMismatch),
    "alpha_metric": (lambda m: alpha_metric(POINT, m), (2, 1), ValueError),
    "mobius_differential": (lambda m: mobius_differential(POINT, POINT, m),
                            (2, 1), ValueError),
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
