"""The checks and measurements of ``Representation`` against their
per-pair and per-image formulas."""

import re

import numpy as np
import pytest

from opball.errors import ShapeMismatch
from opball.mobius import _eta_spectra, eta_defect, eta_matrix
from opball.opcore import adjoint, spectral_norm
from opball.pontryagin import (
    REP_TOL,
    PontryaginSignature,
    Representation,
    group_table,
    make_test_representation,
    max_unitarity_defect,
    unitarize,
)
from opball.sampling import complex_gaussian, rng_from

CASES = [("C4", 2, 1), ("S3", 4, 2), ("Q8", 5, 2), ("C12", 6, 3)]


def reference_homomorphism_error(table, images, rep_tol):
    """The pair furthest over rep_tol * max(1, ||pi(g)|| ||pi(h)||), one
    spectral norm per pair, as the error message quotes it; None if no pair
    is over."""
    norms = [spectral_norm(m) for m in images]
    worst = None
    for g in range(len(table)):
        for h in range(len(table)):
            defect = spectral_norm(images[int(table[g][h])]
                                   - images[g] @ images[h])
            allowed = rep_tol * max(1.0, norms[g] * norms[h])
            if defect > allowed and (
                    worst is None or defect / allowed > worst[0] / worst[1]):
                worst = (defect, allowed, g, h)
    if worst is None:
        return None
    defect, allowed, g, h = worst
    return f"homomorphism defect {defect:.3e} > {allowed:.3e} at ({g}, {h})"


def _involution_rep(defect):
    """C2 on (2, 1) with pi(1) = J + E, E = diag(e, e, 0) chosen so that the
    one perturbed product has pi(0) - pi(1)^2 = -diag(defect, defect, 0):
    rank 2, spectral norm ``defect``, Frobenius norm sqrt(2) ``defect``."""
    e = np.sqrt(1.0 + defect) - 1.0
    flip = np.diag([1.0 + e, 1.0 + e, -1.0])
    return [np.eye(3), flip]


def test_screen_accepts_a_defect_below_tolerance_in_spectral_norm():
    images = _involution_rep(0.9 * REP_TOL)
    diff = images[0] - images[1] @ images[1]
    assert spectral_norm(diff) < REP_TOL < np.linalg.norm(diff)
    Representation(PontryaginSignature(2, 1), group_table("C2"), images)


def test_screen_rejects_a_defect_above_tolerance_and_quotes_it():
    images = _involution_rep(1.05 * REP_TOL)
    measured = spectral_norm(images[0] - images[1] @ images[1])
    allowed = REP_TOL * spectral_norm(images[1]) ** 2
    with pytest.raises(ValueError, match=re.escape(
            f"homomorphism defect {measured:.3e} > {allowed:.3e} at (1, 1)")):
        Representation(PontryaginSignature(2, 1), group_table("C2"), images)


def test_non_homomorphism_is_rejected():
    with pytest.raises(ValueError, match=re.escape(
            "homomorphism defect 3.000e+00 > 4.000e-08 at (1, 1)")):
        Representation(PontryaginSignature(2, 1), group_table("C2"),
                       [np.eye(3), 2 * np.eye(3)])


@pytest.mark.parametrize("name, p, q", CASES)
def test_homomorphism_check_matches_the_per_pair_loop(name, p, q):
    rep = make_test_representation(name, PontryaginSignature(p, q),
                                   conditioning=10.0, seed=2)
    rng = rng_from(3)
    for scale in np.geomspace(1e-10, 1e-7, 10):
        images = list(rep.images)
        k = int(rng.integers(1, len(images)))
        images[k] = images[k] + scale * complex_gaussian(rng, p + q, p + q)
        expected = reference_homomorphism_error(rep.table, images, REP_TOL)
        if expected is None:
            Representation(rep.signature, rep.table, images)
        else:
            with pytest.raises(ValueError, match=re.escape(expected)):
                Representation(rep.signature, rep.table, images)


@pytest.mark.parametrize("name, p, q", CASES)
def test_ill_conditioned_representations_construct(name, p, q):
    # forming pi(g) pi(h) costs about eps ||pi(g)|| ||pi(h)||; at cond 1e4
    # an absolute 1e-8 rejected 9 of these 24 exact representations
    for seed in range(6):
        make_test_representation(name, PontryaginSignature(p, q),
                                 conditioning=1e4, seed=seed)


def _alone(m, p, q):
    """The eta defect and the T*T eigenvalues of one image, from the
    measuring kernel applied to that image alone."""
    j = eta_matrix(p, q)
    return _eta_spectra(adjoint(m) @ j @ m - j, m)


@pytest.mark.parametrize("name, p, q", CASES)
def test_stacked_measurements_are_the_per_image_formulas(name, p, q):
    # stacking the images changes no value of any measurement
    rep = make_test_representation(name, PontryaginSignature(p, q),
                                   conditioning=10.0, seed=4)
    alone = [_alone(m, p, q) for m in rep.images]
    assert rep.bound == max(np.sqrt(gram[-1]) for _, gram in alone)
    assert rep.eta_defect == max(defect for defect, _ in alone)
    assert rep.eta_defect == max(eta_defect(m, p, q) for m in rep.images)
    res = unitarize(rep)
    u_inv = np.linalg.inv(res.similarity)
    for m, tau in zip(rep.images, res.unitary_rep.images):
        assert np.array_equal(tau, res.similarity @ m @ u_inv)
    grams = [_alone(m, p, q)[1] for m in res.unitary_rep.images]
    defect = max(max(gram[-1] - 1.0, 1.0 - gram[0]) for gram in grams)
    assert res.unitarity_defect == defect
    assert max_unitarity_defect(res.unitary_rep.images) == defect


@pytest.mark.parametrize("cond", [50.0, 1e3])
@pytest.mark.parametrize("name, p, q", CASES)
def test_unitarized_representation_passes_the_constructor_checks(name, p, q,
                                                                 cond):
    # unitarize measures tau without checking it as a representation; the
    # checks it leaves out still pass, and rebuilding measures the same
    for seed in range(3):
        rep = make_test_representation(name, PontryaginSignature(p, q),
                                       conditioning=cond, seed=seed)
        tau = unitarize(rep).unitary_rep
        rebuilt = Representation(rep.signature, rep.table, tau.images)
        assert rebuilt.bound == tau.bound
        assert rebuilt.eta_defect == tau.eta_defect
        assert rebuilt.identity_index == tau.identity_index
        assert np.array_equal(rebuilt.table, tau.table)
        assert np.stack(rebuilt.images).tobytes() == np.stack(
            tau.images).tobytes()


@pytest.mark.parametrize("images, error, message", [
    ([np.eye(3), np.eye(3)[0]], ValueError,
     "image 1 must be 2-D with positive shape, got (3,)"),
    ([np.eye(3), np.eye(3)[None]], ValueError,
     "image 1 must be 2-D with positive shape, got (1, 3, 3)"),
    ([np.eye(3), np.zeros((0, 3))], ValueError,
     "image 1 must be 2-D with positive shape, got (0, 3)"),
    ([np.eye(3), np.diag([1.0, np.nan, 1.0])], ValueError,
     "image 1 contains non-finite entries"),
    ([np.eye(3), np.diag([1.0, 1.0, 1j * np.inf])], ValueError,
     "image 1 contains non-finite entries"),
    ([np.eye(3)] * 3, ValueError, "need 2 images, got 3"),
    ([np.eye(3)], ValueError, "need 2 images, got 1"),
    ([np.eye(4), np.eye(4)], ShapeMismatch, "image shape (4, 4) != (3, 3)"),
    ([np.eye(3), np.eye(2)], ShapeMismatch, "image shape (2, 2) != (3, 3)"),
])
def test_irregular_images_are_named_as_one_by_one(images, error, message):
    # the stacked coercion falls back to the per-image checks, whose
    # messages name the first offending image
    with pytest.raises(error) as excinfo:
        Representation(PontryaginSignature(2, 1), group_table("C2"), images)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_images_are_coerced_as_one_fresh_stack():
    rep = make_test_representation("Q8", PontryaginSignature(5, 2),
                                   conditioning=10.0, seed=0)
    given = np.stack(rep.images)
    given.setflags(write=True)
    for images in (given, list(given), [m.tolist() for m in given]):
        rebuilt = Representation(rep.signature, rep.table, images)
        expected = np.stack([np.asarray(m, dtype=np.complex128)
                             for m in images])
        assert rebuilt._stack.tobytes() == expected.tobytes()
        assert not rebuilt._stack.flags.writeable
    assert given.flags.writeable


def test_images_are_the_read_only_rows_of_one_stack():
    rep = make_test_representation("S3", PontryaginSignature(4, 2),
                                   conditioning=10.0, seed=0)
    assert len(rep.images) == rep.group_order == 6
    for m in rep.images:
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
    stack = rep.images[0].base
    assert stack is not None and all(m.base is stack for m in rep.images)


def test_unitarize_measures_each_stack_with_one_eigvalsh(monkeypatch):
    import opball.fixedpoint as fixedpoint
    import opball.hyperbolic as hyperbolic
    import opball.mobius as mobius

    images = make_test_representation("C32", PontryaginSignature(8, 8),
                                      conditioning=20.0, seed=0).images
    calls = {"svd": [], "eigvalsh": [], "skipped": []}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name].append(np.shape(args[0]))
            return kernel(*args, **kwargs)
        return wrapper

    def skipped(name):
        def fail(*args, **kwargs):
            calls["skipped"].append(name)
            raise AssertionError(f"{name} called")
        return fail

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(mobius, "_eta_checked", skipped("_eta_checked"))
    monkeypatch.setattr(hyperbolic, "_rho", skipped("_rho"))
    monkeypatch.setattr(fixedpoint.AutomorphismGroup, "__post_init__",
                        skipped("AutomorphismGroup"))
    monkeypatch.setattr(fixedpoint.AutomorphismGroup, "apply_all",
                        skipped("apply_all"))
    rep = Representation(PontryaginSignature(8, 8), group_table("C32"),
                         images)
    res = unitarize(rep)
    monkeypatch.undo()
    assert res.unitarity_defect <= 1e-7
    # pi's pair (T*JT - J, T*T) and tau's pair; the start point is certified
    # from tau's corner blocks, one (32, 8, 8) SVD, so no group is built, no
    # orbit is measured and no stack of images takes an SVD
    assert [s for s in calls["eigvalsh"] if s[-2:] == (16, 16)] == [
        (2, 32, 16, 16), (2, 32, 16, 16)]
    assert calls["svd"].count((32, 8, 8)) == 1
    assert (32, 16, 16) not in calls["svd"]
    assert calls["skipped"] == []
