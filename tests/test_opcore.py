import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import psd_apply

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
