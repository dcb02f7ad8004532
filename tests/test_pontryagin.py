import itertools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import chart_inverse, per_element_images

from opball import fixedpoint, pontryagin
from opball.errors import (
    FixedPointFailed,
    NotEtaPreserving,
    NotNegative,
    ShapeMismatch,
    UnknownGroup,
)
from opball.fixedpoint import (
    FP_TOL,
    AutomorphismGroup,
    displacement,
    find_fixed_point,
)
from opball.hyperbolic import _rho, distance
from opball.mobius import (
    BallPoint,
    _automorphism_stack,
    _eta_gap,
    _frac_checked,
    automorphism_apply,
    eta_defect,
    zero_point,
)
from opball.opcore import adjoint, frobenius_norm, spectral_norm
from opball.pontryagin import (
    REP_TOL,
    UNIT_TOL,
    PontryaginSignature,
    Representation,
    averaged_fixed_point,
    dual_pair,
    eta_value,
    graph_subspace,
    group_table,
    induced_automorphism,
    is_J_unitary,
    make_test_representation,
    max_principal_angle,
    negativeness_degree,
    subspace_to_ball,
    unitarize,
    unitarizer_matrix,
)
from opball.sampling import (
    complex_gaussian,
    random_ball_point,
    random_block_unitary,
    random_eta_preserving,
    random_unitary,
    rng_from,
)

SIG21 = PontryaginSignature(2, 1)
SIG32 = PontryaginSignature(3, 2)
# |decided value / tolerance - 1| below which rounding may tip a screen
# and its spectral rule apart; cases that close are left out
SCREEN_EDGE = 1e-6


# --- the form itself -----------------------------------------------------------


def test_eta_on_component_vectors():
    assert eta_value(SIG21, [1.0, 2.0, 0.0]) == pytest.approx(5.0)
    assert eta_value(SIG21, [0.0, 0.0, 3.0]) == pytest.approx(-9.0)
    assert eta_value(PontryaginSignature(1, 1), [1.0, 1.0]) == pytest.approx(0.0)


def test_eta_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        eta_value(SIG21, [1.0, 2.0])


def test_is_J_unitary_examples():
    ok, defect = is_J_unitary(SIG32, random_block_unitary(rng_from(0), 3, 2))
    assert ok and defect < 1e-12

    s = 0.8
    hyp = np.array([[np.cosh(s), np.sinh(s)], [np.sinh(s), np.cosh(s)]])
    ok, defect = is_J_unitary(PontryaginSignature(1, 1), hyp)
    assert ok and defect < 1e-14

    ok, defect = is_J_unitary(SIG21, 2.0 * np.eye(3))
    assert not ok
    assert defect == pytest.approx(3.0)  # ||4J - J||

    with pytest.raises(ShapeMismatch):
        is_J_unitary(SIG21, np.eye(4))


# --- graphs of contractions ------------------------------------------------------


def test_graph_of_zero_is_negative_component():
    basis = graph_subspace(SIG21, zero_point(2, 1))
    assert_allclose(basis, [[0.0], [0.0], [1.0]])


def test_graph_columns_are_negative():
    rng = rng_from(1)
    a = random_ball_point(rng, 3, 2, 0.9)
    basis = graph_subspace(SIG32, a)
    for col in basis.T:
        assert eta_value(SIG32, col) < 0.0


def test_graph_roundtrip():
    rng = rng_from(2)
    for _ in range(10):
        a = random_ball_point(rng, 3, 2, 0.9)
        back = subspace_to_ball(SIG32, graph_subspace(SIG32, a))
        assert spectral_norm(back.matrix - a.matrix) < 1e-10


def test_subspace_to_ball_examples():
    got = subspace_to_ball(SIG21 if False else PontryaginSignature(1, 1),
                           np.array([[0.5], [1.0]]))
    assert got.matrix[0, 0] == pytest.approx(0.5)

    rescaled = subspace_to_ball(PontryaginSignature(1, 1),
                                np.array([[1.0], [2.0]]))
    assert rescaled.matrix[0, 0] == pytest.approx(0.5)

    with pytest.raises(NotNegative):
        subspace_to_ball(PontryaginSignature(1, 1), np.array([[1.0], [0.5]]))


def test_negativeness_degree():
    assert negativeness_degree(SIG32, zero_point(3, 2)) == pytest.approx(1.0)
    a = BallPoint(np.diag([0.5, 0.0])[np.ix_([0, 1, 1], [0, 1])] * 0)
    # direct 0.5-norm point
    m = np.zeros((3, 2))
    m[0, 0] = 0.5
    assert negativeness_degree(SIG32, BallPoint(m)) == pytest.approx(0.6)
    # monotone decreasing in the norm
    degrees = [negativeness_degree(SIG32, BallPoint(m * s / 0.5))
               for s in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(x > y for x, y in zip(degrees, degrees[1:]))


# --- induced automorphisms --------------------------------------------------------


def test_induced_identity():
    t = induced_automorphism(SIG32, np.eye(5))
    x = random_ball_point(rng_from(3), 3, 2, 0.5)
    assert spectral_norm(automorphism_apply(t, x).matrix - x.matrix) < 1e-14


def test_induced_rejects_non_eta():
    with pytest.raises(NotEtaPreserving):
        induced_automorphism(SIG32, 2.0 * np.eye(5))


def test_induced_action_transports_graphs():
    # span(T L(A)) = span(L(w_T(A)))
    rng = rng_from(4)
    for _ in range(10):
        p, q = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        sig = PontryaginSignature(p, q)
        tmat = random_eta_preserving(rng, p, q, 5.0)
        t = induced_automorphism(sig, tmat)
        a = random_ball_point(rng, p, q, 0.8)
        pushed = tmat @ graph_subspace(sig, a)
        direct = graph_subspace(sig, automorphism_apply(t, a))
        assert max_principal_angle(pushed, direct) < 1e-8


def test_induced_composition_law():
    rng = rng_from(5)
    t1 = random_eta_preserving(rng, 3, 2, 4.0)
    t2 = random_eta_preserving(rng, 3, 2, 4.0)
    a = random_ball_point(rng, 3, 2, 0.7)
    w12 = automorphism_apply(induced_automorphism(SIG32, t1 @ t2), a)
    chained = automorphism_apply(
        induced_automorphism(SIG32, t1),
        automorphism_apply(induced_automorphism(SIG32, t2), a))
    assert spectral_norm(w12.matrix - chained.matrix) < 1e-10


def _induced_by_the_spectral_rule(sig, t):
    """``induced_automorphism`` with no screen: ``is_J_unitary``, then the
    normalized check at max(REP_TOL, 10 defect).  The block, or the text of
    the ``NotEtaPreserving`` raised."""
    ok, defect = is_J_unitary(sig, t)
    if not ok:
        return f"||T*JT - J|| = {defect:.3e} > {REP_TOL!r}"
    try:
        return _automorphism_stack(t, sig.n_plus, sig.n_minus,
                                   max(REP_TOL, 10 * defect))
    except NotEtaPreserving as exc:
        return str(exc)


@pytest.mark.parametrize("cond", [1.0, 10.0, 100.0])
def test_induced_screen_decides_as_is_J_unitary(monkeypatch, cond):
    # T + E with ||T*JT - J|| from about 1e-11 to 1e-7: the block is the
    # spectral rule's bit for bit, or the message is its message, and only
    # the matrices the screen cannot pass take an eigvalsh; a T whose
    # Frobenius gap lies in (REP_TOL / 10, REP_TOL] takes none either
    spectra = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        spectra.append(1)
        return eigvalsh(*args, **kwargs)

    rng = rng_from(11)
    outcomes, banded = [], []
    for size in np.geomspace(1e-11, 1e-7, 60):
        t = random_eta_preserving(rng, 3, 2, cond)
        e = complex_gaussian(rng, 5, 5)
        t = t + size * e / (np.linalg.norm(e) * np.linalg.norm(t))
        defect = is_J_unitary(SIG32, t)[1]
        if abs(defect / REP_TOL - 1.0) <= SCREEN_EDGE:
            continue
        want = _induced_by_the_spectral_rule(SIG32, t)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        spectra.clear()
        try:
            got = induced_automorphism(SIG32, t).block.tobytes()
        except NotEtaPreserving as exc:
            got = str(exc)
        monkeypatch.undo()
        assert got == (want if isinstance(want, str) else want.tobytes())
        gap = float(frobenius_norm(_eta_gap(t, 3, 2)))
        if REP_TOL / 10 < gap <= REP_TOL:
            assert not spectra and not isinstance(want, str)
            banded.append(gap)
        outcomes.append((defect <= REP_TOL, bool(spectra)))
    assert {(True, False), (True, True), (False, True)} <= set(outcomes)
    assert banded


# --- the unitarizer ---------------------------------------------------------------


def test_unitarizer_of_zero_is_identity():
    assert_allclose(unitarizer_matrix(SIG32, zero_point(3, 2)), np.eye(5),
                    atol=1e-14)


def test_unitarizer_preserves_eta_and_straightens_graph():
    rng = rng_from(6)
    for _ in range(10):
        d = random_ball_point(rng, 3, 2, 0.9)
        u = unitarizer_matrix(SIG32, d)
        _, defect = is_J_unitary(SIG32, u)
        assert defect <= 1e-10
        straightened = u @ graph_subspace(SIG32, d)
        assert spectral_norm(straightened[:3, :]) < 1e-10


# --- representations ---------------------------------------------------------------


def test_group_tables():
    for name, order in (("C2", 2), ("C6", 6), ("S3", 6), ("Q8", 8)):
        table = group_table(name)
        assert len(table) == order
    with pytest.raises(UnknownGroup):
        group_table("E8")


def test_group_tables_are_the_groups():
    # Q8 as the 2x2 units 1, -1, i, -i, j, -j, k, -k: products are exact
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
    units = [sign * u for u in (np.eye(2), i, j, i @ j) for sign in (1, -1)]
    table = group_table("Q8")
    for a, b in itertools.product(range(8), repeat=2):
        assert np.array_equal(units[a] @ units[b], units[table[a, b]])
    # S3 as the permutations of (0, 1, 2) in lexicographic order, (ab)(x) = a(b(x))
    perms = list(itertools.permutations(range(3)))
    table = group_table("S3")
    for a, b in itertools.product(range(6), repeat=2):
        assert perms[table[a, b]] == tuple(perms[a][perms[b][x]] for x in range(3))
    for n in (1, 2, 5, 12):
        table = group_table(f"C{n}")
        assert np.array_equal(table, np.add.outer(np.arange(n), np.arange(n)) % n)
    for name in ("C1", "C7", "S3", "Q8"):
        assert fixedpoint._checked_table(group_table(name))[1] == 0


# the grid, the splits where H and K must share an irreducible class, and
# the largest stacks
BUILDER_CASES = [("C4", 2, 1), ("S3", 4, 2), ("Q8", 5, 2), ("C12", 6, 3),
                 ("C4", 3, 2), ("S3", 3, 3), ("Q8", 4, 4), ("C32", 8, 8),
                 ("C64", 3, 2)]


@pytest.mark.parametrize("cond", [2.0, 1e3, 1e4])
@pytest.mark.parametrize("group, n_plus, n_minus", BUILDER_CASES)
def test_stacked_builder_is_the_per_element_builder(group, n_plus, n_minus,
                                                    cond):
    # gathers and stacked products give the images of the per-element
    # builder bit for bit, with the generator drawn in the same order
    for seed in range(2 if group == "C64" else 6):
        rep = make_test_representation(
            group, PontryaginSignature(n_plus, n_minus), conditioning=cond,
            seed=seed)
        want = per_element_images(group, n_plus, n_minus, cond, seed)
        assert np.array_equal(rep._stack, np.stack(want))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cond", [np.nan, np.inf, -np.inf, 0.5])
def test_conditioning_is_checked_before_anything_is_drawn(monkeypatch, cond):
    message = ("conditioning must be >= 1" if np.isfinite(cond)
               else f"conditioning must be finite, got {cond!r}")
    rng = rng_from(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(message)):
        random_eta_preserving(rng, 2, 1, cond)
    assert rng.bit_generator.state == state

    def no_draw(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(pontryagin, "rng_from", no_draw)
    with pytest.raises(ValueError, match=re.escape(message)):
        make_test_representation("C4", SIG21, conditioning=cond, seed=0)


def test_make_rep_unit_conditioning_is_unitary():
    rep = make_test_representation("C4", PontryaginSignature(3, 1),
                                   conditioning=1.0, seed=0)
    eye = np.eye(4)
    for m in rep.images:
        assert spectral_norm(adjoint(m) @ m - eye) < 1e-12


def test_make_rep_c2_example():
    rep = make_test_representation("C2", SIG21, conditioning=10.0, seed=7)
    assert rep.eta_defect < 1e-10
    assert rep.bound == pytest.approx(10.0, rel=1e-6)
    assert rep.group_order == 2


def test_make_rep_s3_homomorphism():
    rep = make_test_representation("S3", PontryaginSignature(4, 2),
                                   conditioning=5.0, seed=1)
    worst = 0.0
    for g in range(6):
        for h in range(6):
            worst = max(worst, spectral_norm(
                rep.images[int(rep.table[g][h])]
                - rep.images[g] @ rep.images[h]))
    assert worst < 1e-10


def test_make_rep_deterministic_per_seed():
    a = make_test_representation("Q8", SIG32, conditioning=3.0, seed=42)
    b = make_test_representation("Q8", SIG32, conditioning=3.0, seed=42)
    for ma, mb in zip(a.images, b.images):
        assert_allclose(ma, mb)


def test_make_rep_custom_table():
    rep = make_test_representation(group_table("C3"), SIG21,
                                   conditioning=2.0, seed=5)
    assert rep.group_order == 3
    assert rep.eta_defect < 1e-10


def test_representation_validation():
    table = group_table("C2")
    with pytest.raises(ValueError):
        Representation(SIG21, table, [np.eye(3), 2 * np.eye(3)])
    bad_table = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        Representation(SIG21, bad_table, [np.eye(3), np.eye(3)])


@pytest.mark.parametrize("table, message", [
    ([[0, 1]], "multiplication table must be square over 0..n-1"),
    ([[0, 2], [1, 0]], "multiplication table must be square over 0..n-1"),
    ([[0, -1], [1, 0]], "multiplication table must be square over 0..n-1"),
    ([[0, 0], [1, 1]], "row 0 of the table is not a permutation"),
    ([[0, 1], [0, 1]], "column 0 of the table is not a permutation"),
    # row 1 and column 1 both fail: the row is reported
    ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "row 1 of the table is not a permutation"),
    # column 1 fails before row 2
    ([[0, 1, 2], [1, 2, 0], [2, 1, 1]],
     "column 1 of the table is not a permutation"),
    # a Latin square without an identity, and one with a left identity only
    ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "table has no two-sided identity"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "table has no two-sided identity"),
], ids=["not-square", "out-of-range", "negative", "row", "column",
        "row-before-column", "first-index-first", "no-identity",
        "left-identity-only"])
def test_representation_table_errors(table, message):
    table = np.array(table)
    with pytest.raises(ValueError) as excinfo:
        Representation(SIG21, table, [np.eye(3)] * len(table))
    assert str(excinfo.value) == message


def _table_error_by_loops(table):
    """The table check written out element by element: the reference the
    vectorized check must agree with, message for message."""
    n = len(table)
    if table.shape != (n, n) or table.min() < 0 or table.max() >= n:
        return "multiplication table must be square over 0..n-1"
    for g in range(n):
        if len(set(int(x) for x in table[g])) != n:
            return f"row {g} of the table is not a permutation"
        if len(set(int(table[h][g]) for h in range(n))) != n:
            return f"column {g} of the table is not a permutation"
    ident = [g for g in range(n)
             if all(int(table[g][h]) == h and int(table[h][g]) == h
                    for h in range(n))]
    return None if len(ident) == 1 else "table has no two-sided identity"


def test_representation_table_errors_match_the_loop_check():
    rng = rng_from(4)
    for k in range(300):
        table = group_table(["C4", "S3", "C6", "Q8"][k % 4]).copy()
        n = len(table)
        # relabel, then overwrite a few entries
        perm = rng.permutation(n)
        table = np.argsort(perm)[table[np.ix_(perm, perm)]]
        for _ in range(int(rng.integers(0, 3))):
            table[tuple(rng.integers(0, n, size=2))] = rng.integers(0, n)
        expected = _table_error_by_loops(table)
        if expected is None:
            assert Representation(SIG21, table, [np.eye(3)] * n).group_order == n
            continue
        with pytest.raises(ValueError) as excinfo:
            Representation(SIG21, table, [np.eye(3)] * n)
        assert str(excinfo.value) == expected


# --- unitarization ------------------------------------------------------------------


def test_unitarize_already_unitary():
    rep = make_test_representation("C4", PontryaginSignature(3, 1),
                                   conditioning=1.0, seed=3)
    res = unitarize(rep)
    assert spectral_norm(res.fixed_point.matrix) < 1e-9
    assert_allclose(res.similarity, np.eye(4), atol=1e-8)
    assert spectral_norm(averaged_fixed_point(rep).matrix) < 1e-12


def test_unitarize_conjugated_representation():
    rep = make_test_representation("C4", PontryaginSignature(3, 1),
                                   conditioning=10.0, seed=11)
    res = unitarize(rep)
    eye = np.eye(4)
    u_inv = np.linalg.inv(res.similarity)
    for g, tau in enumerate(res.unitary_rep.images):
        assert spectral_norm(adjoint(tau) @ tau - eye) < 1e-7
        assert spectral_norm(tau - res.similarity @ rep.images[g] @ u_inv) < 1e-8
    # the fixed point is genuinely fixed and its graph is pi(g)-invariant
    sig = rep.signature
    basis = graph_subspace(sig, res.fixed_point)
    for m in rep.images:
        assert max_principal_angle(m @ basis, basis) < 1e-7


def test_unitarize_rejects_non_eta_preserving():
    # conjugating a unitary rep by a stretch keeps the homomorphism but
    # breaks eta
    table = group_table("C2")
    v = np.diag([2.0, 1.0, 1.0])
    v_inv = np.linalg.inv(v)
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rep = Representation(SIG21, table, [np.eye(3), v @ swap @ v_inv])
    assert rep.eta_defect > 0.1
    with pytest.raises(NotEtaPreserving):
        unitarize(rep)
    with pytest.raises(NotEtaPreserving):
        averaged_fixed_point(rep)


# one group per family the generator knows, each at a split where H and K
# draw from disjoint irreducible classes, so the fixed point is unique
UNIQUE_CASES = [("C4", 2, 1), ("S3", 4, 2), ("Q8", 5, 2), ("C12", 6, 3)]


@pytest.mark.parametrize("group, n_plus, n_minus", UNIQUE_CASES)
def test_unitarize_at_conditioning_3e3(group, n_plus, n_minus):
    # the orbit of 0 comes within 1e-6 of the boundary here, so a solve
    # started at 0 fails its ellipticity test
    rep = make_test_representation(group, PontryaginSignature(n_plus, n_minus),
                                   conditioning=3e3, seed=0)
    res = unitarize(rep)
    assert _unitarity_defect(res.unitary_rep.images) <= UNIT_TOL


def test_unitarize_keeps_the_unitarity_defect_it_checks():
    rep = make_test_representation("Q8", PontryaginSignature(5, 2),
                                   conditioning=50.0, seed=1)
    res = unitarize(rep)
    assert res.unitarity_defect == _unitarity_defect(res.unitary_rep.images)
    assert res.unitarity_defect <= UNIT_TOL


def test_unitarize_certifies_tau_by_its_unitarity_defect(monkeypatch):
    # tau's unitarity defect is about 1e-11 here, and the check on it is the
    # one check unitarize runs on tau; dual_pair converges on this seed
    rep = make_test_representation("C4", SIG21, conditioning=1e3, seed=2)
    defect = _unitarity_defect(unitarize(rep).unitary_rep.images)
    assert 1e-16 < defect <= UNIT_TOL
    monkeypatch.setattr(pontryagin, "UNIT_TOL", 1e-16)
    # rep keeps the result that passed, so each call takes a fresh copy
    message = f"unitarity defect {defect:.3e} > 1e-16"
    with pytest.raises(FixedPointFailed, match=message):
        unitarize(Representation(rep.signature, rep.table, rep.images))
    with pytest.raises(FixedPointFailed, match="unitarity defect .* > 1e-16"):
        dual_pair(Representation(rep.signature, rep.table, rep.images))


def test_unitarize_stores_its_result_on_the_representation():
    rep = make_test_representation("Q8", PontryaginSignature(5, 2),
                                   conditioning=50.0, seed=3)
    res = unitarize(rep)
    assert unitarize(rep) is res
    assert unitarize(rep, mode="chebyshev-iterate") is res
    assert not res.similarity.flags.writeable
    with pytest.raises(ValueError):
        res.similarity[0, 0] = 0.0
    assert not rep.table.flags.writeable
    with pytest.raises(ValueError):
        rep.table[0, 0] = 1


def test_dual_pair_reuses_the_stored_unitarization(monkeypatch):
    rep = make_test_representation("S3", PontryaginSignature(4, 2),
                                   conditioning=20.0, seed=2)
    unitarize(rep)
    calls = []

    def counted(*args):
        calls.append(args)
        return fixedpoint._fixed_chart(*args)

    monkeypatch.setattr(pontryagin, "_fixed_chart", counted)
    pair = dual_pair(rep)
    assert calls == []
    monkeypatch.undo()
    fresh = dual_pair(Representation(rep.signature, rep.table, rep.images))
    assert pair.positive_basis.tobytes() == fresh.positive_basis.tobytes()
    assert pair.negative_basis.tobytes() == fresh.negative_basis.tobytes()


def test_a_failed_unitarize_stores_nothing(monkeypatch):
    rep = make_test_representation("C4", SIG21, conditioning=20.0, seed=1)
    monkeypatch.setattr(pontryagin, "UNIT_TOL", 1e-17)
    with pytest.raises(FixedPointFailed, match="unitarity defect"):
        unitarize(rep)
    assert rep._unitarization is None
    monkeypatch.undo()
    assert unitarize(rep) is rep._unitarization


def test_the_table_is_copied_before_it_is_frozen():
    table = np.array(group_table("C4"))
    images = make_test_representation("C4", SIG21, conditioning=2.0,
                                      seed=0).images
    rep = Representation(SIG21, table, images)
    assert table.flags.writeable
    table[0, 0] = 3
    assert rep.table[0, 0] == 0


def test_a_stored_result_still_checks_the_mode():
    rep = make_test_representation("C4", SIG21, conditioning=2.0, seed=0)
    unitarize(rep)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        unitarize(rep, mode="bogus")


# --- the start point certified in the chart at D ------------------------------------

CHART_CASES = UNIQUE_CASES + [("C32", 8, 8)]


def _automorphisms(rep):
    """pi's images as the tabled group ``find_fixed_point`` solves on,
    checked at the allowance ``induced_automorphism`` uses for the image
    of largest eta defect; the normalized blocks do not depend on it."""
    sig = rep.signature
    defects = eta_defect(rep._stack, sig.n_plus, sig.n_minus)
    blocks = _automorphism_stack(rep._stack, sig.n_plus, sig.n_minus,
                                 max(REP_TOL, 10 * defects.max()))
    return object.__new__(AutomorphismGroup)._hold(
        blocks, sig.n_plus, sig.n_minus, rep.table, rep.identity_index)


def _solved(group, x0=None):
    """The converged solve on the group that ``find_fixed_point`` returns."""
    result = find_fixed_point(group, x0=x0)
    assert result.converged
    return result


def _conjugated(rep, u):
    """tau = U pi U^{-1} as the chart forms it, with U^{-1} the block of
    M_D read off U (``chart_inverse``)."""
    return u @ rep._stack @ chart_inverse(u, rep.signature.n_plus)


@pytest.mark.parametrize("cond", [2.0, 20.0, 300.0, 1e3])
@pytest.mark.parametrize("group, n_plus, n_minus", CHART_CASES)
def test_chart_certificate_is_the_descent_start(group, n_plus, n_minus, cond):
    rep = make_test_representation(group, PontryaginSignature(n_plus, n_minus),
                                   conditioning=cond, seed=0)
    start = averaged_fixed_point(rep)
    # the solve on pi's stack takes 0 steps from the averaged point, which
    # unitarize keeps bit for bit
    chart = fixedpoint._displacement(fixedpoint._chart(rep._stack,
                                                       start.matrix)[-1])
    assert chart <= FP_TOL
    res = unitarize(rep)
    assert res.fixed_point.matrix.tobytes() == start.matrix.tobytes()
    u = unitarizer_matrix(rep.signature, start)
    assert res.similarity.tobytes() == u.tobytes()
    assert np.stack(res.unitary_rep.images).tobytes() == _conjugated(
        rep, u).tobytes()
    # rho(D, w_g(D)) read in the chart at D is the sinh-form displacement
    autos = _automorphisms(rep)
    images = _frac_checked(autos._stack, start.matrix)
    sinh_form = _rho(np.broadcast_to(start.matrix, images.shape), images).max()
    assert abs(chart - sinh_form) <= 1e-11
    # the solve on the group starts at the averaged point of the normalized
    # blocks, whose forms round apart from pi's by about eps ||pi||^2
    result = _solved(autos)
    assert result.iterations == 0
    eps = np.finfo(float).eps
    assert distance(res.fixed_point, result.point) <= 4 * eps * rep.bound ** 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cond", [10.0, 1e3])
@pytest.mark.parametrize("group, n_plus, n_minus", CHART_CASES)
def test_tau_from_the_read_off_inverse_rounds_as_the_inverted_one(
        group, n_plus, n_minus, cond):
    # U^{-1} read off U and U^{-1} from an LU inversion give one tau up to
    # rounding: each product U pi U^{-1} is formed to about eps ||U||
    # ||pi|| ||U^{-1}||, which is of the order of eps bound^2.  Measured on
    # these cases: at most 0.10 eps bound^2 apart entrywise, and unitarity
    # defects of at most 0.74 eps bound^2 against 0.68 with the inversion
    eps = np.finfo(float).eps
    for seed in range(6):
        rep = make_test_representation(
            group, PontryaginSignature(n_plus, n_minus), conditioning=cond,
            seed=seed)
        res = unitarize(rep)
        u, tau = res.similarity, res.unitary_rep._stack
        inverted = u @ rep._stack @ np.linalg.inv(u)
        allowed = eps * rep.bound ** 2
        assert np.abs(tau - inverted).max() <= allowed
        assert res.unitarity_defect <= _unitarity_defect(inverted) + allowed


def _scaled(rep, c):
    """rep with every image but the identity's multiplied by c, which adds
    about c^2 - 1 to its eta defects."""
    images = [m if g == rep.identity_index else c * m
              for g, m in enumerate(rep.images)]
    return Representation(rep.signature, rep.table, images)


def test_eta_check_implies_the_normalized_check():
    # ||T*JT - J|| = delta <= REP_TOL puts the normalizing scale in
    # [1 - delta, 1 + delta], so ||T*JT/s - J|| <= 2 delta / (1 - delta),
    # within the allowance max(REP_TOL, 10 delta) of induced_automorphism
    reps = [make_test_representation(group, PontryaginSignature(p, q),
                                     conditioning=cond, seed=seed)
            for group, p, q in CHART_CASES for cond in (2.0, 300.0, 1e3)
            for seed in range(2)]
    base = make_test_representation("S3", PontryaginSignature(4, 2),
                                    conditioning=20.0, seed=0)
    edge = _scaled(base, np.sqrt(1.0 + 0.99 * REP_TOL - base.eta_defect))
    assert 0.9 * REP_TOL < edge.eta_defect <= REP_TOL
    for rep in reps + [edge]:
        assert rep.eta_defect <= REP_TOL
        _automorphisms(rep)
    unitarize(edge)


# (group, p, q, starts): the corners' ratio ||C||_F / ||C|| is about 1.05
# on S3 and 1.25 on C32, so the starts are spaced to fall in that band
@pytest.mark.parametrize("group, n_plus, n_minus, starts",
                         [("S3", 4, 2, 100), ("C32", 8, 8, 40)])
def test_start_screen_decides_as_the_spectral_rule(monkeypatch, group, n_plus,
                                                   n_minus, starts):
    # starts D + s E around the averaged point, E an isometry and f from
    # about 5e-11 to 1e-8: each gives what the solver gives from the same
    # chart, bit for bit, and only the starts the Frobenius screen cannot
    # pass are measured
    rep = make_test_representation(group, PontryaginSignature(n_plus, n_minus),
                                   conditioning=20.0, seed=1)
    exact = averaged_fixed_point(rep).matrix
    nudge = random_unitary(rng_from(7), n_plus)[:, :n_minus]
    measure = fixedpoint._displacement
    spectra = []

    def counted(corner):
        spectra.append(len(corner))
        return measure(corner)

    outcomes = []
    for size in np.geomspace(1e-11, 1e-9, starts):
        start = BallPoint(exact + size * nudge, boundary_tol=0.0)
        chart = fixedpoint._chart(rep._stack, start.matrix)
        f = measure(chart[-1])
        if abs(f / FP_TOL - 1.0) <= SCREEN_EDGE:
            continue
        want, want_u, want_tau = fixedpoint._solve(rep._stack, start, chart)
        monkeypatch.setattr(fixedpoint, "_displacement", counted)
        spectra.clear()
        try:
            point, u, tau = fixedpoint._fixed_chart(rep._stack, start)
        except FixedPointFailed as exc:
            assert not want.converged
            assert str(exc) == ("solver stalled at displacement "
                                f"{want.displacement:.3e}")
        else:
            assert want.converged
            assert point.matrix.tobytes() == want.point.matrix.tobytes()
            assert u.tobytes() == want_u.tobytes()
            assert tau.tobytes() == want_tau.tobytes()
        monkeypatch.undo()
        # a start passed without spectra is fixed within FP_TOL
        assert spectra or f <= FP_TOL
        outcomes.append((f <= FP_TOL, bool(spectra)))
    # the screen passes some starts, hands others within FP_TOL to the
    # solver, which keeps them after 0 steps, and the rest are solved
    assert {(True, False), (True, True), (False, True)} <= set(outcomes)


def _unitarity_defect(images):
    """max ||T*T - 1|| over a stack: ``eta_defect`` on the split (dim, 0),
    where T*JT - J is T*T - 1."""
    stack = np.stack(images)
    return float(eta_defect(stack, stack.shape[-1], 0).max())


def _unitarity_frobenius(stack):
    """max ||T*T - 1||_F over a stack, the bound ``_require_unitary`` reads."""
    return float(frobenius_norm(adjoint(stack) @ stack
                                - np.eye(stack.shape[-1])).max())


@pytest.mark.parametrize("p, q", [(2, 1), (4, 2), (8, 8)])
def test_unitarity_screen_decides_as_the_spectral_rule(monkeypatch, p, q):
    # tau + E with tau a block unitary and ||E||_F from 1e-9 to 1e-6, so
    # that the defect straddles UNIT_TOL: the screen passes some stacks with
    # no spectra, and every decision and message is the spectral rule's
    spectra = []
    measure = pontryagin.eta_defect

    def counted(t, dim_h, dim_k):
        spectra.append(len(t))
        return measure(t, dim_h, dim_k)

    monkeypatch.setattr(pontryagin, "eta_defect", counted)
    rng = rng_from(60 + 10 * p + q)
    mats, defects = [], []
    for size in np.geomspace(1e-9, 1e-6, 60):
        e = complex_gaussian(rng, p + q, p + q)
        m = random_block_unitary(rng, p, q) + size * e / np.linalg.norm(e)
        defect = measure(m[None], p + q, 0).max()
        if abs(defect / UNIT_TOL - 1.0) > SCREEN_EDGE:
            mats.append(m)
            defects.append(defect)
    mats, defects = np.stack(mats), np.array(defects)

    def decided(stack, defect):
        spectra.clear()
        try:
            bound = pontryagin._require_unitary(stack)
        except FixedPointFailed as exc:
            assert str(exc) == f"unitarity defect {defect:.3e} > {UNIT_TOL!r}"
            return False, bool(spectra)
        assert defect <= bound <= UNIT_TOL
        assert spectra or bound == _unitarity_frobenius(stack)
        return True, bool(spectra)

    outcomes = [decided(m[None], d) for m, d in zip(mats, defects)]
    assert [passed for passed, _ in outcomes] == list(defects <= UNIT_TOL)
    assert {(True, False), (True, True), (False, True)} <= set(outcomes)
    # stacks of five: one over UNIT_TOL fails the stack, quoting the worst
    for at in range(0, len(mats) - 4, 5):
        part = slice(at, at + 5)
        assert decided(mats[part], defects[part].max())[0] == bool(
            np.all(defects[part] <= UNIT_TOL))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_tau_fails_the_unitarity_check_by_name():
    # the Frobenius bound of a NaN is no pass, and the measurement that
    # follows names the non-finite entries instead of running eigvalsh on
    # them
    tau = np.stack([np.eye(3, dtype=np.complex128)] * 2)
    tau[1, 0, 2] = np.nan
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        pontryagin._require_unitary(tau)


def test_a_unitarization_past_its_screen_keeps_the_measured_defect(monkeypatch):
    # with UNIT_TOL between tau's defect and its Frobenius bound, the first
    # call measures the defect and keeps it; a later call reuses it, with
    # no spectra
    rep = make_test_representation("Q8", PontryaginSignature(5, 2),
                                   conditioning=50.0, seed=1)
    tau = unitarize(Representation(rep.signature, rep.table,
                                   rep.images)).unitary_rep._stack
    defect = _unitarity_defect(tau)
    screen = _unitarity_frobenius(tau)
    assert defect < screen
    monkeypatch.setattr(pontryagin, "UNIT_TOL", (defect + screen) / 2)
    spectra = []
    measure = pontryagin.eta_defect

    def counted(t, dim_h, dim_k):
        spectra.append(len(t))
        return measure(t, dim_h, dim_k)

    monkeypatch.setattr(pontryagin, "eta_defect", counted)
    res = unitarize(rep)
    assert spectra == [8]
    assert res.defect_bound == defect == res.unitarity_defect
    assert unitarize(rep) is res
    assert spectra == [8, 8]


def test_a_start_point_off_the_fixed_point_descends(monkeypatch):
    rep = make_test_representation("S3", PontryaginSignature(4, 2),
                                   conditioning=20.0, seed=1)
    exact = averaged_fixed_point(rep)
    nudge = random_ball_point(rng_from(5), 4, 2, 0.5).matrix
    off = BallPoint(exact.matrix + 1e-6 * nudge / spectral_norm(nudge),
                    boundary_tol=0.0)
    autos = _automorphisms(rep)
    assert displacement(autos, off) > FP_TOL
    # the solve takes Newton steps from off
    result = _solved(autos, x0=off)
    assert result.point is not off
    monkeypatch.setattr(pontryagin, "_averaged_point", lambda *args: off)
    res = unitarize(rep)
    # unitarize solves on pi's stack, the group on the normalized blocks,
    # so the two paths round apart
    assert distance(res.fixed_point, result.point) <= 1e-12
    u = unitarizer_matrix(rep.signature, res.fixed_point)
    assert res.similarity.tobytes() == u.tobytes()
    assert np.stack(res.unitary_rep.images).tobytes() == _conjugated(
        rep, u).tobytes()
    assert res.unitarity_defect <= UNIT_TOL


def test_unitarize_rejects_an_unknown_mode():
    rep = make_test_representation("C4", SIG21, conditioning=2.0, seed=0)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        unitarize(rep, mode="bogus")


# --- the averaged fixed point ---------------------------------------------------------


def _induced_group(rep):
    autos = [induced_automorphism(rep.signature, m) for m in rep.images]
    return AutomorphismGroup(elements=autos, table=rep.table)


@pytest.mark.parametrize("cond", [50.0, 1e3])
@pytest.mark.parametrize("group, n_plus, n_minus", UNIQUE_CASES)
def test_averaged_fixed_point_is_the_solved_fixed_point(group, n_plus, n_minus,
                                                        cond):
    rep = make_test_representation(group, PontryaginSignature(n_plus, n_minus),
                                   conditioning=cond, seed=0)
    point = averaged_fixed_point(rep)
    autos = _induced_group(rep)
    cold = find_fixed_point(autos, x0=zero_point(n_plus, n_minus))
    assert cold.converged
    assert distance(point, cold.point) <= 1e-8
    assert displacement(autos, point) <= FP_TOL


def test_averaged_fixed_point_with_a_shared_class():
    # H carries the characters 1, i, -1 of C4 and K carries i, -i; the
    # shared character i makes the fixed points a disc, not a point
    chars = np.array([1.0, 1j, -1.0, -1j])
    powers = np.array([0, 1, 2, 1, 3])
    v = random_eta_preserving(rng_from(21), 3, 2, 50.0)
    v_inv = np.linalg.inv(v)
    images = [v @ np.diag(chars[(g * powers) % 4]) @ v_inv for g in range(4)]
    rep = Representation(SIG32, group_table("C4"), images)
    point = averaged_fixed_point(rep)
    assert displacement(_induced_group(rep), point) <= FP_TOL
    res = unitarize(rep)
    assert _unitarity_defect(res.unitary_rep.images) <= UNIT_TOL


# --- dual pairs ----------------------------------------------------------------------


def _invariance_angle(rep, pair):
    worst = 0.0
    for m in rep.images:
        worst = max(worst,
                    max_principal_angle(pair.positive_basis,
                                        m @ pair.positive_basis),
                    max_principal_angle(pair.negative_basis,
                                        m @ pair.negative_basis))
    return worst


def test_dual_pair_of_block_diagonal_rep():
    rep = make_test_representation("S3", SIG32, conditioning=1.0, seed=9)
    pair = dual_pair(rep)
    # the trivial pair: H-block and K-block themselves
    h_block = np.eye(5)[:, :3]
    k_block = np.eye(5)[:, 3:]
    assert max_principal_angle(pair.positive_basis, h_block) < 1e-7
    assert max_principal_angle(pair.negative_basis, k_block) < 1e-7
    assert _invariance_angle(rep, pair) < 1e-7


def test_dual_pair_of_conjugated_rep():
    rng = rng_from(10)
    sig = PontryaginSignature(3, 1)
    rep = make_test_representation("C4", sig, conditioning=10.0, seed=13)
    pair = dual_pair(rep)
    assert pair.negative_basis.shape[1] == 1
    assert _invariance_angle(rep, pair) < 1e-7
    # eta is definite on each component
    gram_pos = adjoint(pair.positive_basis) @ sig.j @ pair.positive_basis
    gram_neg = adjoint(pair.negative_basis) @ sig.j @ pair.negative_basis
    assert np.linalg.eigvalsh((gram_pos + adjoint(gram_pos)) / 2).min() > 0
    assert np.linalg.eigvalsh((gram_neg + adjoint(gram_neg)) / 2).max() < 0


def test_dual_pair_rebuilt_product_is_invariant():
    # (h1 + k1, h2 + k2) = [h1, h2] - [k1, k2] is preserved by the group
    sig = PontryaginSignature(3, 2)
    rep = make_test_representation("Q8", sig, conditioning=8.0, seed=17)
    pair = dual_pair(rep)
    w = np.hstack([pair.positive_basis, pair.negative_basis])
    w_inv = np.linalg.inv(w)
    j = sig.j
    core = np.zeros((5, 5), dtype=complex)
    core[:3, :3] = adjoint(pair.positive_basis) @ j @ pair.positive_basis
    core[3:, 3:] = -(adjoint(pair.negative_basis) @ j @ pair.negative_basis)
    rebuilt = adjoint(w_inv) @ core @ w_inv
    # positive definite scalar product
    assert np.linalg.eigvalsh((rebuilt + adjoint(rebuilt)) / 2).min() > 0
    for m in rep.images:
        assert spectral_norm(adjoint(m) @ rebuilt @ m - rebuilt) < 1e-8


@pytest.mark.parametrize("group, n_plus, n_minus", UNIQUE_CASES)
def test_dual_pair_negative_component_is_the_averaged_graph(group, n_plus,
                                                           n_minus):
    sig = PontryaginSignature(n_plus, n_minus)
    rep = make_test_representation(group, sig, conditioning=50.0, seed=0)
    pair = dual_pair(rep)
    point = averaged_fixed_point(rep)
    graph = graph_subspace(sig, point)
    assert np.sin(max_principal_angle(pair.negative_basis, graph)) <= 1e-9
    cograph = np.vstack([np.eye(n_plus), adjoint(point.matrix)])
    assert np.sin(max_principal_angle(pair.positive_basis, cograph)) <= 1e-9


@pytest.mark.parametrize("cond", [1e3, 3e3])
def test_dual_pair_at_high_conditioning(cond):
    for group, n_plus, n_minus in UNIQUE_CASES:
        for seed in range(6):
            rep = make_test_representation(
                group, PontryaginSignature(n_plus, n_minus),
                conditioning=cond, seed=seed)
            assert _invariance_angle(rep, dual_pair(rep)) <= 1e-9, (group, seed)


# --- transport bounds ----------------------------------------------------------------


def test_degree_transport_bound():
    rng = rng_from(11)
    for _ in range(30):
        p, q = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        sig = PontryaginSignature(p, q)
        tmat = random_eta_preserving(rng, p, q, float(rng.uniform(1, 20)))
        t = induced_automorphism(sig, tmat)
        a = random_ball_point(rng, p, q, 0.9)
        lhs = negativeness_degree(sig, automorphism_apply(t, a))
        rhs = negativeness_degree(sig, a) * spectral_norm(tmat) ** -2
        assert lhs >= rhs - 1e-9


@pytest.mark.parametrize("group, n_plus, n_minus", [
    ("C4", 2, 1), ("S3", 4, 2), ("Q8", 5, 2), ("C12", 6, 3)])
def test_dual_pair_bases_are_stable_under_rounding(group, n_plus, n_minus):
    # a relative rescale of 2e-15 moves the similarity by rounding only,
    # so the bases may move by no more than rounding amplified by cond
    sig = PontryaginSignature(n_plus, n_minus)
    rep = make_test_representation(group, sig, conditioning=10.0, seed=0)
    moved = Representation(sig, rep.table,
                           [m * (1.0 + 2e-15) for m in rep.images])
    base, other = dual_pair(rep), dual_pair(moved)
    assert spectral_norm(base.positive_basis - other.positive_basis) < 1e-8
    assert spectral_norm(base.negative_basis - other.negative_basis) < 1e-8


# --- principal angles -----------------------------------------------------------


def _angle_cases(rng, count):
    """Pairs of bases: random ones of any widths, real or complex, and
    nearly coincident ones, b1 G plus noise of norm 1e-14 to 1e-2."""
    for k in range(count):
        n = int(rng.integers(2, 9))
        k1, k2 = (int(x) for x in rng.integers(1, n + 1, size=2))
        draw = ((lambda *s: rng.standard_normal(s)) if k % 2 else
                (lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)))
        b1 = draw(n, k1)
        if k % 4 < 2:
            yield b1, draw(n, k2)
        else:
            noise = draw(n, k1)
            yield b1, b1 @ draw(k1, k1) + noise * (
                10.0 ** rng.uniform(-14, -2) / np.linalg.norm(noise))


def test_max_principal_angle_matches_scipy():
    from scipy.linalg import subspace_angles

    for b1, b2 in _angle_cases(rng_from(11), 400):
        assert abs(max_principal_angle(b1, b2)
                   - np.max(subspace_angles(b1, b2))) <= 1e-12


def test_max_principal_angle_near_a_right_angle():
    # span(e1, e2) against span(cos a e1 + sin a e3, cos b e2 + sin b e4):
    # the angles are a and b; near pi/2 the cosine form keeps them exact
    for gap in (1e-3, 1e-7, 1e-10):
        a, b = np.pi / 2 - gap, 0.3
        b1 = np.eye(4)[:, :2]
        b2 = np.array([[np.cos(a), 0.0], [0.0, np.cos(b)],
                       [np.sin(a), 0.0], [0.0, np.sin(b)]])
        expected = np.arctan2(np.sin(a), np.cos(a))
        assert abs(max_principal_angle(b1, b2) - expected) <= 1e-15
        assert abs(max_principal_angle(b2, b1) - expected) <= 1e-15


def test_max_principal_angle_takes_stacks():
    rep = make_test_representation("S3", PontryaginSignature(4, 2),
                                   conditioning=10.0, seed=2)
    basis = rng_from(3).standard_normal((6, 2))
    images = np.stack(rep.images)
    stacked = max_principal_angle(basis, images @ basis)
    assert stacked.shape == (6,)
    assert_allclose(stacked, [max_principal_angle(basis, m @ basis)
                              for m in images], rtol=0, atol=1e-15)
