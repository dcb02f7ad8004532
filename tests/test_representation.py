"""The checks and measurements of ``Representation`` against their
per-pair and per-image formulas."""

import re

import numpy as np
import pytest

from oracles import chart_inverse, homomorphism_rule

from opball import pontryagin
from opball.errors import NotEtaPreserving, ShapeMismatch
from opball.mobius import eta_defect, eta_matrix
from opball.opcore import adjoint, spectral_norm
from opball.pontryagin import (
    REP_TOL,
    UNIT_TOL,
    PontryaginSignature,
    Representation,
    group_table,
    make_test_representation,
    unitarize,
)
from opball.sampling import complex_gaussian, rng_from

CASES = [("C4", 2, 1), ("S3", 4, 2), ("Q8", 5, 2), ("C12", 6, 3)]


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


@pytest.mark.parametrize("name, p, q",
                         CASES + [("C16", 8, 8), ("C32", 8, 8)])
def test_homomorphism_check_matches_the_per_pair_loop(name, p, q):
    rep = make_test_representation(name, PontryaginSignature(p, q),
                                   conditioning=10.0, seed=2)
    rng = rng_from(3)
    for scale in np.geomspace(1e-10, 1e-7, 10):
        images = list(rep.images)
        k = int(rng.integers(1, len(images)))
        images[k] = images[k] + scale * complex_gaussian(rng, p + q, p + q)
        expected = homomorphism_rule(rep.table, images, REP_TOL)
        if expected is None:
            Representation(rep.signature, rep.table, images)
        else:
            with pytest.raises(ValueError, match=re.escape(expected)):
                Representation(rep.signature, rep.table, images)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entries", [None, 5 * 12 * 9 * 9])
@pytest.mark.parametrize("name, p, q", [("C4", 2, 1), ("C12", 6, 3),
                                        ("C32", 8, 8)])
def test_blocked_screen_decides_as_the_per_pair_rule(monkeypatch, name, p, q,
                                                     entries):
    # the screen forms the differences in blocks of table columns; with the
    # second budget C12 at (6, 3) takes blocks of 5, 5 and 2 columns
    if entries is not None:
        monkeypatch.setattr(pontryagin, "_SCREEN_ENTRIES", entries)
    rep = make_test_representation(name, PontryaginSignature(p, q),
                                   conditioning=2.0, seed=0)
    assert homomorphism_rule(rep.table, rep.images, REP_TOL) is None

    def unscreened(stack):
        raise AssertionError("a pair of an exact table survived the screen")

    # the screen alone certifies every pair of an exact table, so a block
    # that forms wrong differences cannot hide behind the spectral fallback,
    # which measures the images' norms first
    with monkeypatch.context() as patched:
        patched.setattr(pontryagin, "spectral_norm", unscreened)
        pontryagin._check_homomorphism(rep.table, rep._stack)
    rng = rng_from(7)
    for k in (1, len(rep.images) // 2, len(rep.images) - 1):
        images = list(rep.images)
        nudge = complex_gaussian(rng, p + q, p + q)
        images[k] = images[k] + 1e-6 * nudge / spectral_norm(nudge)
        expected = homomorphism_rule(rep.table, images, REP_TOL)
        assert expected is not None
        with pytest.raises(ValueError) as excinfo:
            Representation(rep.signature, rep.table, images)
        assert str(excinfo.value) == expected


def test_the_worst_of_several_failing_pairs_is_named():
    # two images perturbed by different amounts put more pairs over their
    # tolerance than the group has elements, so the SVDs run in several
    # batches; the pair furthest over comes after the first in row order,
    # and the message names it as the per-pair loop does
    rep = make_test_representation("Q8", PontryaginSignature(5, 2),
                                   conditioning=10.0, seed=1)
    rng = rng_from(4)
    images = list(rep.images)
    for k, scale in ((2, 3e-7), (5, 3e-6)):
        images[k] = images[k] + scale * complex_gaussian(rng, 7, 7)
    norms = [spectral_norm(m) for m in images]
    over = []
    for g, h in np.ndindex(rep.table.shape):
        defect = spectral_norm(images[rep.table[g, h]] - images[g] @ images[h])
        allowed = REP_TOL * max(1.0, norms[g] * norms[h])
        if defect > allowed:
            over.append((defect / allowed, g, h))
    worst = max(over)
    assert len(over) > len(images) and worst[1:] != over[0][1:]
    expected = homomorphism_rule(rep.table, images, REP_TOL)
    assert expected.endswith(f"at ({worst[1]}, {worst[2]})")
    with pytest.raises(ValueError) as excinfo:
        Representation(rep.signature, rep.table, images)
    assert str(excinfo.value) == expected


def _boost_involution(t):
    """pi(1) = V J V^{-1} on (8, 8) for the boost V of rapidity t in the
    plane of e_0 and e_8: one singular value e^{2t}, one e^{-2t}, the rest
    1, so ||pi(1)||_F / 4 falls about a factor 4 short of ||pi(1)||."""
    v = np.eye(16)
    v[0, 0] = v[8, 8] = np.cosh(t)
    v[0, 8] = v[8, 0] = np.sinh(t)
    return v @ eta_matrix(8, 8) @ np.linalg.inv(v)


def test_a_large_boost_is_decided_with_its_spectral_norm():
    # the screen's lower bound ||pi(g)||_F / sqrt(dim) passes only pairs it
    # certifies; the pairs it leaves are decided, and quoted, with the
    # spectral norms, as the per-pair loop decides them
    flip = _boost_involution(3.0)
    low = np.linalg.norm(flip) / 4
    assert low < spectral_norm(flip) / 3.9
    rng = rng_from(0)
    e = complex_gaussian(rng, 16, 16)
    e *= spectral_norm(flip) / spectral_norm(e)
    outcomes = []
    for rel in np.geomspace(1e-10, 1e-7, 7):
        images = [np.eye(16), flip + rel * e]
        expected = homomorphism_rule(group_table("C2"), images,
                                                REP_TOL)
        diff = images[0] - images[1] @ images[1]
        screened = np.linalg.norm(diff) > REP_TOL * low ** 2 / 2
        outcomes.append((screened, expected is None))
        if expected is None:
            Representation(PontryaginSignature(8, 8), group_table("C2"), images)
            continue
        with pytest.raises(ValueError) as excinfo:
            Representation(PontryaginSignature(8, 8), group_table("C2"), images)
        assert str(excinfo.value) == expected
    # some pairs pass the screen, some survive it and pass, some fail
    assert {(False, True), (True, True), (True, False)} <= set(outcomes)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1e81, 1e100, 1e140])
def test_large_exact_images_are_screened_without_overflow(a):
    # pi(1)^2 = 1 exactly for every a, and the screen's tolerance
    # REP_TOL a^2 / 2, squared, would overflow from a of about 3e81
    flip = np.array([[1.0, a, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    rep = Representation(PontryaginSignature(2, 1), group_table("C2"),
                         [np.eye(3), flip])
    assert rep.bound == pytest.approx(a)


@pytest.mark.parametrize("name, p, q", CASES)
def test_ill_conditioned_representations_construct(name, p, q):
    # forming pi(g) pi(h) costs about eps ||pi(g)|| ||pi(h)||; at cond 1e4
    # an absolute 1e-8 rejected 9 of these 24 exact representations
    for seed in range(6):
        make_test_representation(name, PontryaginSignature(p, q),
                                 conditioning=1e4, seed=seed)


def _alone(m, p, q):
    """The eta defect and the T*T eigenvalues of one image, each from an
    eigvalsh of that image's own Hermitian matrix, with J as a matrix."""
    j = eta_matrix(p, q)
    return (np.abs(np.linalg.eigvalsh(adjoint(m) @ j @ m - j)).max(),
            np.linalg.eigvalsh(adjoint(m) @ m))


@pytest.mark.parametrize("name, p, q", CASES)
def test_stacked_measurements_are_the_per_image_formulas(name, p, q):
    # stacking the images changes no value of any measurement
    rep = make_test_representation(name, PontryaginSignature(p, q),
                                   conditioning=10.0, seed=4)
    alone = [_alone(m, p, q) for m in rep.images]
    assert rep.bound == max(spectral_norm(m) for m in rep.images)
    assert rep.eta_defect == max(defect for defect, _ in alone)
    assert rep.eta_defect == max(eta_defect(m, p, q) for m in rep.images)
    res = unitarize(rep)
    u_inv = chart_inverse(res.similarity, p)
    for m, tau in zip(rep.images, res.unitary_rep.images):
        assert np.array_equal(tau, res.similarity @ m @ u_inv)
    # the unitarity defect is the eta defect on the split (dim, 0)
    defect = max(eta_defect(m, p + q, 0) for m in res.unitary_rep.images)
    assert res.unitarity_defect == defect
    # the T*T eigenvalues give it up to rounding
    grams = [_alone(m, p, q)[1] for m in res.unitary_rep.images]
    assert abs(defect - max(max(gram[-1] - 1.0, 1.0 - gram[0])
                            for gram in grams)) <= 1e-15


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
    # a representation is held by the one ``_hold`` of the group type; no
    # group of automorphisms is built from its images, neither by the
    # group constructor nor by normalizing a stack of blocks, wherever that
    # kernel is bound
    monkeypatch.setattr(fixedpoint.AutomorphismGroup, "__init__",
                        skipped("AutomorphismGroup"))
    for module in (mobius, fixedpoint, pontryagin):
        monkeypatch.setattr(module, "_automorphism_stack",
                            skipped("_automorphism_stack"))
    monkeypatch.setattr(mobius, "_frac_checked", skipped("_frac_checked"))
    rep = Representation(PontryaginSignature(8, 8), group_table("C32"),
                         images)
    res = unitarize(rep)
    # the Frobenius screens pass pi's homomorphism and eta checks, the start
    # point's corner blocks and tau's T*T with no spectra, so no group is
    # built, no orbit is measured and no stack of images or of corners takes
    # an eigvalsh or an SVD
    assert calls["eigvalsh"] == []
    assert (32, 8, 8) not in calls["svd"]
    assert (32, 16, 16) not in calls["svd"]
    assert res.defect_bound <= 1e-7
    # the identity image passes its Frobenius screen, with no SVD
    assert (16, 16) not in calls["svd"]
    # tau's unitarity defect is measured when read, from one eigvalsh
    defect = res.unitarity_defect
    assert calls["eigvalsh"] == [(32, 16, 16)]
    assert defect == eta_defect(np.stack(res.unitary_rep.images), 16, 0).max()
    assert defect <= res.defect_bound
    # pi's bound and eta_defect are measured on each read and never kept:
    # one SVD of the stack per read of bound, one eigvalsh per eta_defect
    calls["svd"].clear()
    calls["eigvalsh"].clear()
    rep.bound
    assert calls["svd"] == [(32, 16, 16)] and calls["eigvalsh"] == []
    rep.bound, rep.eta_defect
    assert calls["svd"] == [(32, 16, 16)] * 2
    assert calls["eigvalsh"] == [(32, 16, 16)]
    monkeypatch.undo()
    assert calls["skipped"] == []


def test_reading_the_measurements_changes_no_slot():
    # a representation holds its split, table and stack in the slots of the
    # one group type; only unitarize stores
    rep = make_test_representation("Q8", PontryaginSignature(5, 2),
                                   conditioning=10.0, seed=0)
    slots = [name for cls in type(rep).__mro__
             for name in getattr(cls, "__slots__", ())]
    assert set(slots) == {"_stack", "dim_h", "dim_k", "table",
                          "identity_index", "_unitarization"}
    held = {name: getattr(rep, name) for name in slots}
    for _ in range(2):
        rep.images, rep.elements, rep.signature, rep.bound, rep.eta_defect
        repr(rep)
    assert not hasattr(rep, "__dict__")
    assert all(getattr(rep, name) is value for name, value in held.items())
    assert rep._unitarization is None


def test_identity_image_is_decided_by_its_spectral_norm():
    # ||pi(e) - I|| = 0.9 REP_TOL, but its Frobenius norm is twice that: the
    # screen cannot pass it, and the SVD does
    sig, j = PontryaginSignature(2, 2), eta_matrix(2, 2)
    near = (1.0 + 0.9 * REP_TOL) * np.eye(4)
    assert np.linalg.norm(near - np.eye(4)) > REP_TOL
    assert Representation(sig, group_table("C2"), [near, j]).group_order == 2
    with pytest.raises(ValueError) as excinfo:
        Representation(sig, group_table("C2"),
                       [(1.0 + 1.1 * REP_TOL) * np.eye(4), j])
    assert str(excinfo.value) == (
        "identity element must map to the identity matrix")


def _sheared_involution(delta):
    """C2 on (2, 1) with pi(1) = J - 2 delta E_02, exactly an involution:
    its eta gap -2 delta (E_02 + E_20) + 4 delta^2 E_22 has spectral norm
    about 2 delta and Frobenius norm about 2 sqrt(2) delta."""
    flip = eta_matrix(2, 1)
    flip[0, 2] = -2.0 * delta
    return Representation(PontryaginSignature(2, 1), group_table("C2"),
                          [np.eye(3), flip])


def test_an_eta_gap_within_tolerance_only_in_spectral_norm_unitarizes():
    # the Frobenius screen cannot pass this gap, so the spectra decide
    rep = _sheared_involution(0.45 * REP_TOL)
    j = eta_matrix(2, 1)
    gap = adjoint(rep.images[1]) @ j @ rep.images[1] - j
    assert spectral_norm(gap) <= REP_TOL < np.linalg.norm(gap)
    res = unitarize(rep)
    assert rep.eta_defect == eta_defect(rep.images[1], 2, 1) <= REP_TOL
    assert res.unitarity_defect <= UNIT_TOL


def test_an_eta_gap_over_tolerance_is_quoted_from_its_spectral_norm():
    rep = _sheared_involution(0.75 * REP_TOL)
    defect = eta_defect(rep.images[1], 2, 1)
    assert REP_TOL < defect < 2 * REP_TOL
    with pytest.raises(NotEtaPreserving) as excinfo:
        unitarize(rep)
    assert str(excinfo.value) == (
        f"representation eta-defect {defect:.3e} > {REP_TOL!r}")


@pytest.mark.parametrize("table, dtype", [
    ([[0, 1], [1, 0.7]], "float64"),
    ([[0, 1], [1, 0.0]], "float64"),
    ([[False, True], [True, False]], "bool"),
    ([["0", "1"], ["1", "0"]], "<U1"),
    (np.array([[0, 1], [1, 0]], dtype=object), "object"),
])
def test_a_table_without_integer_entries_is_rejected(table, dtype):
    message = f"multiplication table entries must be integers, got {dtype}"
    with pytest.raises(ValueError) as excinfo:
        Representation(PontryaginSignature(2, 1), table, [np.eye(3)] * 2)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        make_test_representation(np.asarray(table), PontryaginSignature(2, 1))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
def test_tables_of_any_integer_dtype_are_accepted(dtype):
    table = group_table("C4").astype(dtype)
    rep = make_test_representation(table, PontryaginSignature(2, 1), seed=1)
    rebuilt = Representation(rep.signature, table, rep.images)
    assert rebuilt.table.dtype == int
    assert np.array_equal(rebuilt.table, group_table("C4"))


@pytest.mark.parametrize("n_plus, n_minus", [
    (2.5, 1), (2, 1.0), (True, 1), (2, np.bool_(True)), ("2", 1), (None, 1)])
def test_signature_dimensions_must_be_integers(n_plus, n_minus):
    with pytest.raises(TypeError, match="dimensions must be integers"):
        PontryaginSignature(n_plus, n_minus)


def test_signature_accepts_numpy_integers():
    sig = PontryaginSignature(np.int64(2), np.int32(1))
    assert sig.dim == 3
    assert np.array_equal(sig.j, np.diag([1.0, 1.0, -1.0]))


def test_images_cannot_change_the_group_order():
    rep = make_test_representation("C4", PontryaginSignature(2, 1),
                                   conditioning=10.0, seed=0)
    tau = unitarize(rep).unitary_rep
    for images in (rep.images, tau.images):
        assert isinstance(images, tuple)
        with pytest.raises(AttributeError):
            images.append(np.eye(3))
    assert unitarize(rep).unitary_rep.group_order == rep.group_order == 4
