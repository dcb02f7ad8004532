import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import spectral_eta_rule

import opball.fixedpoint as fixedpoint
import opball.mobius as mobius
from opball.errors import (
    ClosureExceeded,
    NotEtaPreserving,
    PreconditionUnmet,
    ShapeMismatch,
)
from opball.fixedpoint import (
    GROUP_TOL,
    MAX_ELEMENTS,
    AutomorphismGroup,
    _block_distance,
    displacement,
    equicontinuity_witness,
    find_fixed_point,
    group_closure,
)
from opball.hyperbolic import (
    convex_combination,
    distance,
    poincare_scalar,
)
from opball.mobius import (
    BallAutomorphism,
    BallPoint,
    _frac_checked,
    automorphism_apply,
    automorphism_compose,
    eta_defect,
    mobius_as_block,
    zero_point,
)
from opball.opcore import spectral_norm
from opball.pontryagin import (
    PontryaginSignature,
    Representation,
    dual_pair,
    group_table,
    make_test_representation,
    unitarize,
)
from opball.sampling import (
    random_ball_point,
    random_direction,
    random_eta_preserving,
    rng_from,
)


def rotation_block(theta):
    return BallAutomorphism(np.diag([np.exp(1j * theta), 1.0]), 1, 1)


def hyperbolic_block(s=1.0):
    return BallAutomorphism([[np.cosh(s), np.sinh(s)],
                             [np.sinh(s), np.cosh(s)]], 1, 1)


def conjugated_cyclic(n, p, q, conditioning, seed):
    """V diag(e^{2 pi i k/n} I_H, I_K) V^{-1}; unique fixed point w_V(0)."""
    rng = rng_from(seed)
    v = random_eta_preserving(rng, p, q, conditioning)
    v_aut = BallAutomorphism(v, p, q)
    phase = np.exp(2j * np.pi / n)
    gen_block = np.diag([phase] * p + [1.0] * q)
    gen = automorphism_compose(
        automorphism_compose(v_aut, BallAutomorphism(gen_block, p, q)),
        v_aut.inverse())
    return gen, v_aut


# --- closure ------------------------------------------------------------------


def test_closure_of_identity():
    group = group_closure([BallAutomorphism.identity(2, 2)])
    assert len(group) == 1
    assert group.table.tolist() == [[0]]


def test_closure_of_five_cycle():
    group = group_closure([rotation_block(2 * np.pi / 5)])
    assert len(group) == 5
    # the table is that of Z_5 in some labeling: every row is a permutation
    for row in group.table:
        assert sorted(row.tolist()) == list(range(5))


@pytest.mark.parametrize("max_elements", [64, MAX_ELEMENTS])
@pytest.mark.parametrize("s", [1.0, 0.2, 2.0])
def test_closure_hyperbolic_exceeds(monkeypatch, s, max_elements):
    # at s = 1 the block distance matches distinct powers of large norm;
    # the steps then fail to permute the elements found; at s = 2 the
    # powers lose eta-preservation in double precision before either limit
    monkeypatch.setattr(fixedpoint, "MAX_ELEMENTS", max_elements)
    with pytest.raises(ClosureExceeded) as exc:
        group_closure([hyperbolic_block(s)])
    if s == 2.0:
        assert "saturated" in str(exc.value)


def test_closure_contains_inverses():
    group = group_closure([rotation_block(2 * np.pi / 7)])
    assert len(group) == 7
    x = random_ball_point(rng_from(0), 1, 1, 0.5)
    for i, elem in enumerate(group.elements):
        inv_candidates = [j for j in range(7) if group.table[i][j] == 0]
        assert len(inv_candidates) == 1
        roundtrip = automorphism_apply(
            elem, automorphism_apply(group.elements[inv_candidates[0]], x))
        assert spectral_norm(roundtrip.matrix - x.matrix) < 1e-8


def representation_generators(name, gens, sig):
    rep = make_test_representation(name, PontryaginSignature(*sig), 10.0,
                                   seed=3)
    return [BallAutomorphism(rep.images[i], *sig) for i in gens]


# element order and multiplication table of the closures below, pinned as
# base-36 digits: the deduplication must reproduce them exactly
# (name, generators, table rows)
PINNED_CLOSURES = [
    ("C4", lambda: representation_generators("C4", (1,), (2, 1)),
     ["0123", "1302", "2031", "3210"]),
    ("S3", lambda: representation_generators("S3", (1, 2), (4, 2)),
     ["012345", "103254", "240513", "351402", "425031", "534120"]),
    ("Q8", lambda: representation_generators("Q8", (2, 4), (5, 2)),
     ["01234567", "15067243", "20576134", "37650412", "46705321", "52143076",
      "63421750", "74312605"]),
    # two products of one layer land on the same new element
    ("C12", lambda: [conjugated_cyclic(12, 2, 1, 10.0, seed=3)[0]],
     ["0123456789ab", "130527496b8a", "20416385a7b9", "3517092b4a68",
      "426081a3b597", "57391b0a2846", "6482a0b19375", "795b3a180624",
      "86a4b2907153", "9b7a58361402", "a8b694725031", "ba9876543210"]),
]


@pytest.mark.parametrize("generators,rows", [c[1:] for c in PINNED_CLOSURES],
                         ids=[c[0] for c in PINNED_CLOSURES])
def test_closure_order_and_table_are_pinned(generators, rows):
    group = group_closure(generators())
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    assert ["".join(digits[k] for k in row)
            for row in group.table.tolist()] == rows


def cyclic_64():
    return [BallAutomorphism(np.diag([np.exp(2j * np.pi / 64)] * 2 + [1.0] * 2),
                             2, 2)]


def every_element_of_cyclic_64():
    # 129 seeds, the first 90 settled with nothing known, then one layer of
    # 64 x 63 products in 63 chunks
    return list(group_closure(cyclic_64()).elements)


@pytest.mark.parametrize("generators,order",
                         [(c[1], len(c[2])) for c in PINNED_CLOSURES]
                         + [(cyclic_64, 64), (every_element_of_cyclic_64, 64)],
                         ids=[c[0] for c in PINNED_CLOSURES] + ["C64", "C64-all"])
def test_closure_table_matches_the_block_products(generators, order):
    # the table is gathered from the steps' permutations, with no floating
    # point; T_i T_j must still be the element table[i, j]
    group = group_closure(generators())
    assert len(group) == order
    for i in range(len(group)):
        gap = _block_distance(group._stack[i] @ group._stack,
                              group._stack[group.table[i]])
        assert np.diag(gap).max() <= GROUP_TOL


def test_block_distance_aligns_the_phase():
    rng = rng_from(21)
    blocks = np.stack([random_eta_preserving(rng, 2, 1, 5.0)
                       for _ in range(3)])
    phased = blocks * np.exp(1j * np.array([0.3, -2.0, np.pi]))[:, None, None]
    gap = _block_distance(phased, blocks)
    assert np.all(np.diag(gap) < 1e-15)
    assert np.all(gap[~np.eye(3, dtype=bool)] > 1e-3)
    # <E, P> = 0 takes the phase 1, without a warning
    e = np.eye(3)[None]
    p = np.diag([1.0, -1.0, 0.0])[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = _block_distance(p, e)
    assert gap[0, 0] == pytest.approx(
        np.linalg.norm(p - e) / (np.linalg.norm(p) * np.linalg.norm(e)),
        rel=1e-15)


@pytest.mark.parametrize("generators,rows", [c[1:] for c in PINNED_CLOSURES],
                         ids=[c[0] for c in PINNED_CLOSURES])
def test_closure_table_ignores_a_phase_on_the_generators(generators, rows):
    phased = [BallAutomorphism(np.exp(1j * (0.4 + 1.3 * k)) * g.block,
                               g.dim_h, g.dim_k)
              for k, g in enumerate(generators())]
    test_closure_order_and_table_are_pinned(lambda: phased, rows)


# every image as a generator, as ``opball fixpoint`` closes a directory, at
# conditioning 1e3: (name, split, seed, order of the image group).  The last
# two representations have a kernel; their images form a group of order 2
ALL_IMAGES_AT_COND_1E3 = (
    [("C4", (2, 1), seed, 4) for seed in range(4)]
    + [("S3", (4, 2), seed, 6) for seed in (0, 1, 3)]
    + [("Q8", (5, 2), seed, 8) for seed in (1, 3)]
    + [("S3", (4, 2), 2, 2), ("C8", (2, 2), 3, 2)])


@pytest.mark.parametrize("name, sig, seed, order", ALL_IMAGES_AT_COND_1E3,
                         ids=[f"{c[0]}-seed{c[2]}" for c in ALL_IMAGES_AT_COND_1E3])
def test_closure_of_all_images_at_conditioning_1e3(name, sig, seed, order):
    rep = make_test_representation(name, PontryaginSignature(*sig), 1e3,
                                   seed=seed)
    group = group_closure([BallAutomorphism(m, *sig) for m in rep.images])
    assert len(group) == order
    for row in group.table:
        assert sorted(row.tolist()) == list(range(order))


def two_generator_closure(name, sig, seed, cond):
    """The order of the closure of images 1 and 2, or the exception."""
    rep = make_test_representation(name, PontryaginSignature(*sig), cond,
                                   seed=seed)
    try:
        return len(group_closure([BallAutomorphism(rep.images[i], *sig)
                                  for i in (1, 2)]))
    except ClosureExceeded as exc:
        return exc


def test_conditioned_two_generator_closures():
    families = (("C4", (2, 1)), ("S3", (4, 2)), ("Q8", (5, 2)),
                ("C12", (6, 3)))
    cases = [(name, sig, seed) for name, sig in families for seed in range(6)]
    orders = [two_generator_closure(*case, 30.0) for case in cases]
    assert all(isinstance(order, int) for order in orders)
    # every product has one exact factor, so no rounding compounds along
    # a chain of products
    for cond in (300.0, 1e3, 3e3):
        assert [two_generator_closure(*case, cond) for case in cases] == orders


SATURATED = ("composition chain saturated floating point; group closure "
             "does not terminate")
NO_PERMUTATION = ("the closure steps do not permute the elements found; "
                  "they form no group")
# the two-generator grid closed at cond 1e3 and 1e4: the order of each
# case, or "s" where the chain saturates
TWO_GENERATOR_OUTCOMES = {1e3: "444424662622241441324436",
                          1e4: "444sss66s62sss14s1s2s43s"}


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_closing_exact_generators_takes_no_spectra(monkeypatch):
    rep = make_test_representation("C8", PontryaginSignature(2, 2), 100.0,
                                   seed=0)
    calls = _count_eigvalsh(monkeypatch)
    generators = [BallAutomorphism(m, 2, 2) for m in rep.images]
    group = group_closure(generators)
    views = group.elements
    assert len(group) == 8
    assert calls == []
    # the defect is taken when it is read, with one eigvalsh
    defect = views[3].defect
    assert len(calls) == 1
    assert defect <= 1e-10


def test_screened_eta_check_decides_the_grid_as_the_spectral_rule(monkeypatch):
    decided = []
    checked = mobius._eta_checked

    def both(t, p, q, aut_tol):
        want = spectral_eta_rule(t, p, q, aut_tol)[0]
        try:
            got = checked(t, p, q, aut_tol)
        except NotEtaPreserving as exc:
            assert str(exc) == want
            decided.append(False)
            raise
        assert got.tobytes() == want.tobytes()
        decided.append(True)
        return got

    monkeypatch.setattr(mobius, "_eta_checked", both)
    families = (("C4", (2, 1)), ("S3", (4, 2)), ("Q8", (5, 2)),
                ("C12", (6, 3)))
    cases = [(name, sig, seed) for name, sig in families for seed in range(6)]
    for cond, outcomes in TWO_GENERATOR_OUTCOMES.items():
        orders = [two_generator_closure(*case, cond) for case in cases]
        assert "".join("s" if str(order) == SATURATED else str(order)
                       for order in orders) == outcomes
    assert True in decided and False in decided


def test_hyperbolic_generators_fail_as_the_spectral_check_did():
    # hyperbolic_block(s), s = 0.25, 0.5, ..., 19.75: "p" where the steps
    # do not permute the elements found, "s" where the chain saturates, and
    # "c" where cosh s and sinh s round so close that the constructor
    # finds no positive scale
    kinds = {"p": (ClosureExceeded, NO_PERMUTATION),
             "s": (ClosureExceeded, SATURATED),
             "c": (NotEtaPreserving, "T*JT has non-positive alignment with J")}
    seen = ""
    for k in range(1, 80):
        with pytest.raises((ClosureExceeded, NotEtaPreserving)) as exc:
            group_closure([hyperbolic_block(0.25 * k)])
        seen += next(kind for kind, (error, message) in kinds.items()
                     if exc.type is error and str(exc.value) == message)
    assert seen == "pps" + "p" + "s" * 70 + "cs" + "c" * 3
    assert (seen.count("s"), seen.count("p"), seen.count("c")) == (72, 3, 4)


def test_closure_takes_one_stacked_probe_per_layer(monkeypatch):
    calls = {"stack": 0, "distance": 0, "blocks": 0}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "stack":
                calls["blocks"] += len(args[0])
            return kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fixedpoint, "_automorphism_stack",
                        counted("stack", fixedpoint._automorphism_stack))
    monkeypatch.setattr(fixedpoint, "_block_distance",
                        counted("distance", fixedpoint._block_distance))
    # the seeding and each layer normalize one stack of blocks and take one
    # stacked distance from it to the elements and to itself.  S3 from two
    # transpositions a, b: the layers find ab and ba, then aba, then nothing
    group = group_closure(representation_generators("S3", (1, 2), (4, 2)))
    assert len(group) == 6
    assert calls == {"stack": 4, "distance": 4, "blocks": 3 + 6 * 2}
    # the seeding normalizes the identity and g^-1; each of the 64
    # elements is multiplied by the 2 steps g and g^-1.  That is within
    # n |S| blocks for the 3 seeds, where products of every pair of
    # elements would be n^2
    calls.update(stack=0, distance=0, blocks=0)
    group = group_closure(cyclic_64())
    monkeypatch.undo()
    assert len(group) == 64
    assert calls["blocks"] == 2 + 64 * 2 <= 64 * 3


def test_closure_builds_no_automorphism_after_its_generators(monkeypatch):
    made = {"__init__": 0, "_set": 0}

    def counted(name):
        method = getattr(BallAutomorphism, name)

        def wrapper(*args, **kwargs):
            made[name] += 1
            return method(*args, **kwargs)
        return wrapper

    cases = [representation_generators("S3", (1, 2), (4, 2)), cyclic_64()]
    for name in made:
        monkeypatch.setattr(BallAutomorphism, name, counted(name))
    groups = [group_closure(generators) for generators in cases]
    monkeypatch.undo()
    assert made == {"__init__": 0, "_set": 0}
    assert [len(group) for group in groups] == [6, 64]
    for group in groups:
        assert not group._stack.flags.writeable
        assert not group.table.flags.writeable
        views = group.elements
        assert isinstance(views, tuple) and len(views) == len(group)
        for view, block in zip(views, group._stack):
            assert view.block.tobytes() == block.tobytes()
            # the defect is measured on the block when read
            assert view.defect == eta_defect(block, group.dim_h, group.dim_k)
            assert (view.dim_h, view.dim_k) == (group.dim_h, group.dim_k)
            assert not view.block.flags.writeable


def test_a_group_keeps_no_reference_to_the_callers_list():
    elements = list(group_closure([rotation_block(2 * np.pi / 3)]).elements)
    group = AutomorphismGroup(elements)
    before = find_fixed_point(group)
    elements.append(hyperbolic_block())
    assert len(group) == 3
    after = find_fixed_point(group)
    assert after.converged
    assert after.point.matrix.tobytes() == before.point.matrix.tobytes()
    # a hyperbolic element has no fixed point in common with the rotations
    assert not find_fixed_point(AutomorphismGroup(elements)).converged
    with pytest.raises(AttributeError):
        group.elements.append(hyperbolic_block())


@pytest.mark.parametrize("elements, table, message", [
    (2, [[0.5]], "multiplication table entries must be integers, got float64"),
    (2, "C5", "table has 5 rows for 2 elements"),
    (2, [[0, 1], [1, 1]], "row 1 of the table is not a permutation"),
    (2, [[0, 1, 1], [1, 0, 0]], "multiplication table must be square over 0..n-1"),
    (0, None, "need at least one automorphism"),
])
def test_a_group_checks_its_table(elements, table, message):
    elements = [BallAutomorphism.identity(2, 1)] * elements
    if isinstance(table, str):
        table = group_table(table)
    with pytest.raises(ValueError) as excinfo:
        AutomorphismGroup(elements, table)
    assert str(excinfo.value) == message


def test_a_group_keeps_a_read_only_copy_of_its_table():
    table = group_table("C2")
    group = AutomorphismGroup([BallAutomorphism.identity(1, 1),
                               rotation_block(np.pi)], table)
    table[0, 0] = 1
    assert group.table.tolist() == [[0, 1], [1, 0]]
    assert not group.table.flags.writeable
    assert table.flags.writeable


@pytest.mark.parametrize("splits", [[(2, 2), (1, 3)], [(1, 1), (2, 1)]])
def test_a_group_and_a_closure_need_one_split(splits):
    elements = [BallAutomorphism.identity(p, q) for p, q in splits]
    for build in (AutomorphismGroup, group_closure):
        with pytest.raises(ValueError) as excinfo:
            build(elements)
        assert str(excinfo.value) == "automorphisms must share one split"


def test_closure_stops_at_the_element_limit_inside_a_round(monkeypatch):
    # 3 elements after seeding, 5 after the first layer; the second layer
    # finds the sixth and then the seventh
    gen = rotation_block(2 * np.pi / 7)
    monkeypatch.setattr(fixedpoint, "MAX_ELEMENTS", 7)
    assert len(group_closure([gen])) == 7
    monkeypatch.setattr(fixedpoint, "MAX_ELEMENTS", 6)
    with pytest.raises(ClosureExceeded):
        group_closure([gen])


def test_closure_memory_stays_bounded():
    import tracemalloc

    gen = BallAutomorphism(np.diag([np.exp(2j * np.pi / 24)] * 2 + [1.0] * 2),
                           2, 2)
    # every element as a generator, as ``opball fixpoint`` closes a
    # directory: the first layer holds 24 x 23 products
    gens = group_closure([gen]).elements
    tracemalloc.start()
    try:
        group = group_closure(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(group) == 24
    # the stacked temporaries are chunked: with the whole layer in one
    # chunk, the distances alone take 24 x 23 x 24^2 blocks, about 80 MB
    assert peak < 16 * 2**20


# --- orbits and ellipticity ----------------------------------------------------


def test_orbit_of_identity_group():
    group = group_closure([BallAutomorphism.identity(2, 1)])
    x = random_ball_point(rng_from(1), 2, 1, 0.5)
    images = _frac_checked(group._stack, x.matrix)
    assert len(images) == 1
    assert spectral_norm(images[0] - x.matrix) < 1e-14


def test_orbit_of_zero_under_rotations():
    group = group_closure([rotation_block(2 * np.pi / 3)])
    images = _frac_checked(group._stack, zero_point(1, 1).matrix)
    assert np.all(spectral_norm(images) < 1e-14)


def test_orbit_of_five_cycle_preserves_norm():
    group = group_closure([rotation_block(2 * np.pi / 5)])
    images = _frac_checked(group._stack, BallPoint([[0.3]]).matrix)
    assert len(images) == 5
    assert_allclose(spectral_norm(images), 0.3, rtol=0, atol=1e-12)


def test_truncated_hyperbolic_powers_not_elliptic():
    t = hyperbolic_block()
    powers = [BallAutomorphism.identity(1, 1)]
    for _ in range(12):
        powers.append(automorphism_compose(powers[-1], t))
    pseudo = AutomorphismGroup(elements=powers)
    images = _frac_checked(pseudo._stack, zero_point(1, 1).matrix)
    sup = float(spectral_norm(images).max())
    assert sup > 1 - 1e-3  # w_{T^n}(0) = tanh(n) -> 1


def test_induced_group_ellipticity_bound():
    # 1 - ||w_{pi(g)}(A)||^2 >= C^{-2} (1 - ||A||^2) / (1 + ||A||^2)
    from opball.pontryagin import induced_automorphism

    sig = PontryaginSignature(3, 2)
    rep = make_test_representation("C4", sig, conditioning=8.0, seed=11)
    autos = [induced_automorphism(sig, m) for m in rep.images]
    group = AutomorphismGroup(elements=autos, table=rep.table)
    rng = rng_from(2)
    for _ in range(10):
        a = random_ball_point(rng, 3, 2, 0.9)
        beta_sq = spectral_norm(a.matrix) ** 2
        floor = rep.bound ** -2 * (1 - beta_sq) / (1 + beta_sq)
        for image in _frac_checked(group._stack, a.matrix):
            assert 1 - spectral_norm(image) ** 2 >= floor - 1e-9


# --- displacement ----------------------------------------------------------------


def test_displacement_zero_at_fixed_point():
    group = group_closure([rotation_block(2 * np.pi / 5)])
    assert displacement(group, zero_point(1, 1)) < 1e-14


def test_displacement_scalar_half_turn():
    group = group_closure([rotation_block(np.pi)])
    got = displacement(group, BallPoint([[0.3]]))
    assert got == pytest.approx(poincare_scalar(0.3, -0.3), abs=1e-12)


def test_displacement_conjugation_invariance():
    rng = rng_from(3)
    group = group_closure([rotation_block(2 * np.pi / 3)])
    v = BallAutomorphism(random_eta_preserving(rng, 1, 1, 6.0), 1, 1)
    conj = AutomorphismGroup(elements=[
        automorphism_compose(automorphism_compose(v, g), v.inverse())
        for g in group.elements])
    x = random_ball_point(rng, 1, 1, 0.7)
    assert displacement(conj, automorphism_apply(v, x)) == pytest.approx(
        displacement(group, x), abs=1e-9)


def test_displacement_convex_along_segments():
    rng = rng_from(4)
    gen, _ = conjugated_cyclic(4, 2, 2, 4.0, seed=5)
    group = group_closure([gen])
    for _ in range(10):
        x = random_ball_point(rng, 2, 2, 0.7)
        y = random_ball_point(rng, 2, 2, 0.7)
        t = float(rng.uniform(0, 1))
        mixed = displacement(group, convex_combination(x, y, t))
        bound = (1 - t) * displacement(group, x) + t * displacement(group, y)
        assert mixed <= bound + 1e-7


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", [(1, 2), (3, 1), (1, 1)])
def test_a_point_of_another_split_is_a_shape_mismatch(monkeypatch, shape):
    # on a (2, 1) group a (1, 2) point would read displacement inf and
    # stop unconverged, and a (3, 1) or (1, 1) point would fail in a bare
    # matmul; the shape is checked before any chart or SVD is taken
    rep = make_test_representation("C4", PontryaginSignature(2, 1),
                                   conditioning=10.0, seed=0)
    group = group_closure([BallAutomorphism(rep.images[1], 2, 1)])
    x = BallPoint(np.full(shape, 0.1))

    def untaken(*args, **kwargs):
        raise AssertionError("a chart or an SVD was taken")

    monkeypatch.setattr(fixedpoint, "_chart", untaken)
    monkeypatch.setattr(np.linalg, "svd", untaken)
    for held in (group, rep):
        for solve in (lambda: displacement(held, x),
                      lambda: find_fixed_point(held, x)):
            with pytest.raises(ShapeMismatch) as excinfo:
                solve()
            assert str(excinfo.value) == f"point shape {shape} != (2, 1)"


def test_mode_and_point_shape_are_checked_before_the_start(monkeypatch):
    # the averaged start of a tabled group took a qr, an inv and an eigh
    # before a bad mode raised; now neither a bad mode nor a given point of
    # another shape reaches any np.linalg call, on a group or a
    # representation
    rep = make_test_representation("C4", PontryaginSignature(2, 1),
                                   conditioning=10.0, seed=0)
    group = group_closure([BallAutomorphism(rep.images[1], 2, 1)])
    assert group.table is not None
    other = BallPoint(np.zeros((1, 2)))
    calls = []

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)
        return wrapper

    for name in ("qr", "inv", "eigh", "eigvalsh", "svd", "solve", "lstsq",
                 "norm"):
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    for held in (group, rep):
        with pytest.raises(ValueError) as excinfo:
            find_fixed_point(held, mode="bad")
        assert str(excinfo.value) == "unknown mode 'bad'"
        with pytest.raises(ShapeMismatch):
            find_fixed_point(held, other)
    assert calls == []


# the grid of test representations on which find_fixed_point(rep) is
# unitarize's solve, bit for bit
REP_GRID = [("C4", 2, 1), ("S3", 4, 2), ("Q8", 5, 2), ("C12", 6, 3)]


@pytest.mark.parametrize("cond", [2.0, 10.0, 1e2, 1e3])
@pytest.mark.parametrize("name, n_plus, n_minus", REP_GRID)
def test_find_fixed_point_of_a_representation_is_unitarize_s_point(
        name, n_plus, n_minus, cond):
    sig = PontryaginSignature(n_plus, n_minus)
    for seed in range(6):
        rep = make_test_representation(name, sig, conditioning=cond,
                                       seed=seed)
        result = find_fixed_point(rep)
        assert result.converged
        assert result.displacement == displacement(rep, result.point)
        point = unitarize(rep).fixed_point
        assert result.point.matrix.tobytes() == point.matrix.tobytes()


def test_find_fixed_point_of_a_non_eta_preserving_representation_raises():
    # C2 on (2, 1) acting by the swap of the first H and the K coordinate:
    # a homomorphism whose image is not J-unitary, so the averaged start's
    # eta certificate refuses it as unitarize does, and no point is returned
    swap = np.eye(3)[[2, 1, 0]]
    rep = Representation(PontryaginSignature(2, 1), group_table("C2"),
                         [np.eye(3), swap])
    assert rep.eta_defect == pytest.approx(2.0)
    with pytest.raises(NotEtaPreserving) as solved:
        find_fixed_point(rep)
    with pytest.raises(NotEtaPreserving) as unitarized:
        unitarize(rep)
    assert str(solved.value) == str(unitarized.value)
    assert str(solved.value) == "representation eta-defect 2.000e+00 > 1e-08"


def test_unitarize_refuses_a_closed_group():
    # a closed group is the same type as a representation, but its blocks
    # are normalized only up to a unimodular scalar each, so tau would be a
    # projective representation; find_fixed_point takes it, unitarize not
    rep = make_test_representation("C4", PontryaginSignature(2, 1),
                                   conditioning=10.0, seed=0)
    group = group_closure([BallAutomorphism(rep.images[1], 2, 1)])
    assert find_fixed_point(group).converged
    for solve in (unitarize, dual_pair):
        with pytest.raises(TypeError) as excinfo:
            solve(group)
        assert str(excinfo.value) == ("unitarize takes a Representation, "
                                      "not AutomorphismGroup")
    assert group._unitarization is None


# --- the fixed-point solver --------------------------------------------------------


def test_fixed_point_of_rotation_group():
    group = group_closure([rotation_block(2 * np.pi / 5)])
    result = find_fixed_point(group)
    assert result.converged
    assert spectral_norm(result.point.matrix) < 1e-9


def test_fixed_point_of_conjugated_cyclic_matches_transported_origin():
    gen, v_aut = conjugated_cyclic(4, 3, 1, 10.0, seed=9)
    group = group_closure([gen])
    result = find_fixed_point(group)
    assert result.converged
    assert result.displacement <= 1e-9
    target = automorphism_apply(v_aut, zero_point(3, 1))
    assert distance(result.point, target) < 1e-7


def test_fixed_point_of_order_two_group_is_midpoint():
    # w_S(x) = (a - x)/(1 - conj(a) x): the involution swapping 0 and a
    a = 0.62
    s = automorphism_compose(mobius_as_block(BallPoint([[a]])),
                             BallAutomorphism(np.diag([-1.0, 1.0]), 1, 1))
    group = group_closure([s])
    assert len(group) == 2
    result = find_fixed_point(group)
    assert result.converged
    want = a / (1 + math.sqrt(1 - a * a))  # rho-midpoint of 0 and a
    assert abs(result.point.matrix[0, 0] - want) < 1e-9
    # brute force over the real diameter confirms the minimizer
    xs = np.linspace(-0.9, 0.9, 181)
    disp = [displacement(group, BallPoint([[x]], boundary_tol=0.0)) for x in xs]
    assert abs(xs[int(np.argmin(disp))] - want) < 0.02


def test_solver_equivariance_under_conjugation():
    gen, v_aut = conjugated_cyclic(4, 3, 1, 4.0, seed=13)
    base_group = group_closure([BallAutomorphism(
        np.diag([1j] * 3 + [1.0]), 3, 1)])
    base = find_fixed_point(base_group)
    conj_group = group_closure([gen])
    conj = find_fixed_point(conj_group)
    assert distance(conj.point,
                    automorphism_apply(v_aut, base.point)) <= 1e-8


def test_solver_descent_is_monotone():
    rep = make_test_representation("S3", PontryaginSignature(4, 2),
                                   conditioning=10.0, seed=3)
    from opball.pontryagin import induced_automorphism

    sig = PontryaginSignature(4, 2)
    autos = [induced_automorphism(sig, m) for m in rep.images]
    group = AutomorphismGroup(elements=autos, table=rep.table)
    # from 0: the default start of a tabled group is already fixed
    result = find_fixed_point(group, x0=zero_point(4, 2))
    assert result.converged
    assert result.iterations > 0
    hist = np.array(result.history)
    assert np.all(np.diff(hist) <= 1e-15)


@pytest.mark.parametrize("mode", ["midpoint-descent", "chebyshev-iterate"])
def test_solver_returns_a_fixed_start_point_as_it_is(mode):
    gen, _ = conjugated_cyclic(4, 3, 1, 4.0, seed=13)
    group = group_closure([gen])
    # fixed up to FP_TOL but not exactly, so that its orbit is not one point
    fixed = find_fixed_point(group).point.matrix
    x0 = BallPoint(fixed + 1e-12 * np.ones_like(fixed), boundary_tol=0.0)
    result = find_fixed_point(group, x0=x0, mode=mode)
    assert result.iterations == 0
    assert result.converged
    assert result.history == [result.displacement]
    assert result.displacement == displacement(group, x0)
    assert result.point.matrix.tobytes() == x0.matrix.tobytes()


def _same_result(a, b):
    return (a.point.matrix.tobytes() == b.point.matrix.tobytes()
            and (a.displacement, a.iterations, a.converged, a.history)
            == (b.displacement, b.iterations, b.converged, b.history))


def test_mode_names_run_the_same_descent():
    # a generator set without a table, solved from 0
    rep = make_test_representation("S3", PontryaginSignature(4, 2),
                                   conditioning=10.0, seed=3)
    gens = AutomorphismGroup(
        elements=[BallAutomorphism(m, 4, 2) for m in rep.images])
    descent = find_fixed_point(gens, mode="midpoint-descent")
    assert descent.converged
    assert descent.iterations > 0
    assert _same_result(find_fixed_point(gens, mode="chebyshev-iterate"),
                        descent)
    # a tabled group, from its averaged point and from 0
    gen, v_aut = conjugated_cyclic(3, 2, 1, 4.0, seed=15)
    group = group_closure([gen])
    target = automorphism_apply(v_aut, zero_point(2, 1))
    for x0 in (None, zero_point(2, 1)):
        descent = find_fixed_point(group, x0=x0, mode="midpoint-descent")
        assert descent.converged
        assert distance(descent.point, target) < 1e-6
        assert _same_result(
            find_fixed_point(group, x0=x0, mode="chebyshev-iterate"), descent)


def test_unknown_mode_raises():
    group = group_closure([rotation_block(2 * np.pi / 5)])
    with pytest.raises(ValueError, match="bogus"):
        find_fixed_point(group, mode="bogus")


# one group per family at a split where the fixed point is unique
AVERAGED_START_CASES = [("C4", 2, 1), ("S3", 4, 2), ("C12", 6, 3)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cond", [50.0, 100.0])
@pytest.mark.parametrize("name, p, q", AVERAGED_START_CASES)
def test_closed_group_starts_at_its_averaged_point(name, p, q, cond, seed):
    rep = make_test_representation(name, PontryaginSignature(p, q),
                                   conditioning=cond, seed=seed)
    # the closure holds the group's projective image, which can be smaller
    group = group_closure([BallAutomorphism(m, p, q) for m in rep.images])
    result = find_fixed_point(group)
    assert result.iterations == 0
    assert result.converged
    cold = find_fixed_point(group, x0=zero_point(p, q))
    assert cold.converged
    assert distance(result.point, cold.point) <= 1e-8


@pytest.mark.parametrize("name, p, q", AVERAGED_START_CASES)
def test_averaged_start_ignores_the_phase_of_each_block(name, p, q):
    rep = make_test_representation(name, PontryaginSignature(p, q),
                                   conditioning=50.0, seed=4)
    phases = np.exp(2j * np.pi * rng_from(5).random(rep.group_order))
    plain = AutomorphismGroup(
        elements=[BallAutomorphism(m, p, q) for m in rep.images],
        table=rep.table)
    phased = AutomorphismGroup(
        elements=[BallAutomorphism(c * m, p, q)
                  for c, m in zip(phases, rep.images)],
        table=rep.table)
    moved = (find_fixed_point(phased).point.matrix
             - find_fixed_point(plain).point.matrix)
    assert spectral_norm(moved) <= 1e-12


def _mp_matrix(m):
    return mp.matrix([[mp.mpc(complex(z)) for z in row] for row in m])


def _mp_rho(a, b):
    """rho(A, B) at the working precision of mpmath, from
    sinh^2 rho = lambda_max((1 - B*B)^{-1} (B - A)* (1 - AA*)^{-1} (B - A)),
    the eigenvalues of K*K up to similarity."""
    gap = b - a
    k2 = (mp.inverse(mp.eye(b.cols) - b.H * b) * gap.H
          * mp.inverse(mp.eye(a.rows) - a * a.H) * gap)
    top = max(mp.re(lam) for lam in mp.eig(k2, left=False, right=False))
    return mp.asinh(mp.sqrt(max(top, 0)))


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
def test_averaged_point_keeps_the_conditioning_of_the_blocks(cond):
    # C8 with a fixed point at 0, conjugated by V: the exact fixed point is
    # w_V(0) = V12 V22^{-1}.  A factor of the stacked blocks keeps their
    # conditioning cond, where the averaged form T*T would square it
    eps = np.finfo(float).eps
    for seed in range(4):
        rep = make_test_representation("C8", PontryaginSignature(4, 2),
                                       conditioning=1.0, seed=seed)
        v = random_eta_preserving(rng_from(100 + seed), 4, 2, cond)
        blocks = v @ rep._stack @ np.linalg.inv(v)
        point = fixedpoint._averaged_point(blocks, 4, 2)
        with mp.workdps(40):
            exact_v = _mp_matrix(v)
            exact = exact_v[:4, 4:] * mp.inverse(exact_v[4:, 4:])
            gap = float(_mp_rho(_mp_matrix(point.matrix), exact))
        assert gap <= eps * cond, (seed, gap / (eps * cond))


def test_group_without_a_table_starts_at_zero():
    rep = make_test_representation("S3", PontryaginSignature(4, 2),
                                   conditioning=10.0, seed=3)
    group = AutomorphismGroup(
        elements=[BallAutomorphism(m, 4, 2) for m in rep.images])
    default = find_fixed_point(group)
    cold = find_fixed_point(group, x0=zero_point(4, 2))
    assert default.point.matrix.tobytes() == cold.point.matrix.tobytes()
    assert (default.displacement, default.iterations, default.history) == (
        cold.displacement, cold.iterations, cold.history)


@pytest.mark.parametrize("theta", [1.0, 1e-2, 1e-4])
def test_a_small_rotation_is_solved_in_a_few_steps(theta):
    # V diag(e^{i theta sqrt2}, e^{i theta sqrt3}, 1) V^{-1} fixes V12 V22^{-1}
    # only; a midpoint step towards w_g(X) contracts by about cos(theta/2)
    rng = rng_from(0)
    v = BallAutomorphism(random_eta_preserving(rng, 2, 1, 10.0), 2, 1)
    turn = np.diag([np.exp(1j * theta * np.sqrt(2)),
                    np.exp(1j * theta * np.sqrt(3)), 1.0])
    gen = BallAutomorphism(v.block @ turn @ np.linalg.inv(v.block), 2, 1)
    exact = automorphism_apply(v, zero_point(2, 1))
    x0 = automorphism_apply(
        v, BallPoint(math.tanh(0.5) * random_direction(rng, 2, 1)))
    assert distance(x0, exact) == pytest.approx(0.5, abs=1e-12)
    result = find_fixed_point(AutomorphismGroup(elements=[gen]), x0=x0)
    assert result.converged
    assert result.iterations <= 10
    assert distance(result.point, exact) <= 1e-8


def test_two_generator_sets_from_zero_at_conditioning_3e3():
    # the orbit of 0 comes within 1e-6 of the sphere on most of these
    for name, sig in (("C4", (2, 1)), ("S3", (4, 2)), ("Q8", (5, 2)),
                      ("C12", (6, 3))):
        for seed in range(6):
            rep = make_test_representation(name, PontryaginSignature(*sig),
                                           3e3, seed=seed)
            gens = AutomorphismGroup(elements=[
                BallAutomorphism(rep.images[i], *sig) for i in (1, 2)])
            result = find_fixed_point(gens)
            assert result.converged, (name, seed, result.displacement)
            assert result.iterations <= 10


def test_not_elliptic_raises():
    t = hyperbolic_block()
    powers = [BallAutomorphism.identity(1, 1)]
    for _ in range(12):
        powers.append(automorphism_compose(powers[-1], t))
    pseudo = AutomorphismGroup(elements=powers)
    # T^12 moves every point of its axis by rho 12, and no step lowers that
    result = find_fixed_point(pseudo)
    assert not result.converged
    assert result.displacement == pytest.approx(12.0, abs=1e-6)
    # and the orbit of 0 reaches within 1e-6 of the sphere: w_{T^12}(0) = tanh(12)
    images = _frac_checked(pseudo._stack, zero_point(1, 1).matrix)
    assert spectral_norm(images).max() > 1 - 1e-6


# --- equicontinuity witnesses --------------------------------------------------------


def test_witness_scalar_near_boundary():
    g = mobius_as_block(BallPoint([[0.999]]))
    w = equicontinuity_witness(g, delta=0.01)
    assert w.input_gap > 0.25
    assert w.image_gap < 0.01
    assert_allclose(w.x2.matrix, [[0.999 / 2]], atol=1e-12)


def test_witness_precondition_unmet():
    g = mobius_as_block(BallPoint([[0.3]]))
    with pytest.raises(PreconditionUnmet):
        equicontinuity_witness(g, delta=0.1)
    with pytest.raises(PreconditionUnmet):
        equicontinuity_witness(mobius_as_block(BallPoint([[0.999]])), delta=0.7)


def test_witness_matrix_case():
    delta = 0.05
    rng = rng_from(8)
    a = random_ball_point(rng, 3, 2, 0.5)
    a = BallPoint(a.matrix * ((1 - delta / 2) / spectral_norm(a.matrix)),
                  boundary_tol=0.0)
    g = mobius_as_block(a)
    w = equicontinuity_witness(g, delta=delta)
    assert w.input_gap > 0.25
    assert w.image_gap < delta
