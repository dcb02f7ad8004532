"""The benchmark's own tests: every check accepts today's correct output
and rejects a perturbed one, and the input generator builds what it
claims.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import cli_workload  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def run(op):
    return workloads.outputs(op.kind, op.call(*op.fresh_args()))


def first(ops, kind, nearest=False):
    """The op of this kind farthest from (or nearest to) the boundary."""
    pick = min if nearest else max
    return pick((op for op in ops if op.kind == kind),
                key=lambda op: op.spec["margin"])


def bump(m, size=1e-6):
    return m * (1 + size)


@pytest.fixture(scope="module")
def geometry_ops():
    return workloads.geometry(0)


def far_barycenter():
    rng = inputs.rng_for(0)
    points = [inputs.ball_point(rng, 3, 2, m) for m in (0.5, 0.3, 0.2, 0.4)]
    return workloads.Op("barycenter_sequence", "barycenter 4 x 3x2",
                        workloads._barycenter_sequence, (points,), {"margin": 0.2})


@pytest.mark.parametrize("kind", ["distance", "mobius_apply", "geodesic_point",
                                  "convex_combination", "barycenter_sequence"])
def test_geometry_value_checks(geometry_ops, kind):
    op = far_barycenter() if kind == "barycenter_sequence" else first(geometry_ops, kind)
    out = run(op)
    assert checks.verify(op, out)[0] < 1e-10
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, (bump(out[0]),) + out[1:])


def test_geometry_tolerance_loosens_only_near_the_boundary(geometry_ops):
    near = first(geometry_ops, "distance", nearest=True)
    out = run(near)
    checks.verify(near, out)
    with pytest.raises(checks.CheckFailed):
        checks.verify(near, (out[0] * 2,))


def test_line_through_checks_base_and_direction(geometry_ops):
    op = first(geometry_ops, "line_through")
    base, direction = run(op)
    checks.verify(op, (base, direction))
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, (base, bump(direction)))
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, (bump(base), direction))


def test_metric_sample_checks_table_and_diameter(geometry_ops):
    op = first(geometry_ops, "metric_sample")
    table, diam, pair = run(op)
    checks.verify(op, (table, diam, pair))
    margins = op.spec["margins"]
    a, b = sorted(range(len(margins)), key=lambda k: -margins[k])[:2]
    worse = table.copy()
    worse[a, b] = worse[b, a] = bump(table[a, b])
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, (worse, diam, pair))
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, (table, 2 * diam, pair))
    i, j = (int(k) for k in pair)
    other = next((a, b) for a in range(len(table)) for b in range(a + 1, len(table))
                 if table[a, b] < 0.9 * diam)
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, (table, diam, np.array(other)))


@pytest.fixture(scope="module")
def unitarize_out():
    ops = workloads.unitarize(0)
    op = next(o for o in ops if "+dual_pair" in o.label and "shared" not in o.label)
    return op, run(op)


def test_unitarize_accepts_and_checks_the_fixed_point(unitarize_out):
    op, out = unitarize_out
    errs = checks.verify(op, out)
    assert max(errs) < 1e-8
    similarity, point = out[:2]
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, (similarity, bump(point, 1e-5)) + out[2:])


@pytest.mark.parametrize("index", [0, 2, 3, 4])
def test_unitarize_rejects_perturbed_outputs(unitarize_out, index):
    op, out = unitarize_out
    rng = np.random.default_rng(1)
    noisy = list(out)
    noisy[index] = out[index] + 1e-5 * rng.standard_normal(out[index].shape)
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, tuple(noisy))


def test_unitarize_shared_classes_checks_fixedness():
    ops = workloads.unitarize(0)
    op = next(o for o in ops if "shared" in o.label)
    out = run(op)
    assert checks.verify(op, out) == []
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, (out[0], bump(out[1], 1e-4)) + out[2:])


def test_fixpoint_checks_order_convergence_and_point():
    ops = workloads.fixpoint(0)
    op = min(ops, key=lambda o: o.spec["case"].group.order)
    order, point, disp, conv = run(op)
    assert checks.verify(op, (order, point, disp, conv))[0] < 1e-8
    for bad in [(order + 1, point, disp, conv), (order, point, disp, np.bool_(False)),
                (order, bump(point, 1e-5), disp, conv)]:
        with pytest.raises(checks.CheckFailed):
            checks.verify(op, bad)


def test_cli_outputs_and_repeatability():
    runner = cli_workload.CliRunner(0)
    try:
        for op in runner.ops:
            stdout = op.call(*op.fresh_args())
            runner.verify(op, stdout)
            cli_workload.same_stdout(op.label, stdout, bytes(stdout))
            with pytest.raises(checks.CheckFailed):
                cli_workload.same_stdout(op.label, stdout, stdout[:-1] + b" \n")
            if op.args[1][0] in ("distance", "mobius", "geodesic", "check"):
                with pytest.raises(checks.CheckFailed):
                    runner.verify(op, _perturb_cli(op.args[1][0], stdout))
    finally:
        runner.close()


def _perturb_cli(command, stdout):
    import json
    doc = json.loads(stdout)
    if command == "distance":
        doc["rho"] = bump(doc["rho"])
    elif command == "mobius":
        doc["data"][0][0] = bump(doc["data"][0][0], 1e-4)
    elif command == "geodesic":
        doc["points"][1]["data"][0][1] += 1e-6
    else:
        doc["suites"].pop("th-series")
    return json.dumps(doc).encode()


@pytest.mark.parametrize("name,p,q", [("C4", 2, 1), ("S3", 4, 2), ("Q8", 5, 2),
                                      ("C12", 6, 3), ("C32", 8, 8)])
def test_generator_builds_exact_representations(name, p, q):
    case = inputs.representation_case(name, p, q, 50.0, 2 if q > 1 else 1, False,
                                      inputs.rng_for(0))
    group, images = case.group, case.images
    j = inputs.eta(p, q)
    scale = np.linalg.norm(case.similarity, 2) ** 2
    for g in range(group.order):
        assert np.linalg.norm(images[g].conj().T @ j @ images[g] - j, 2) < 1e-12 * scale
        for h in range(group.order):
            prod = images[g] @ images[h]
            assert np.linalg.norm(images[group.table[g, h]] - prod, 2) < 1e-12 * scale
    assert case.projective_order == group.order


def test_frame_changes_inputs_but_not_the_fixed_point_norm():
    a = inputs.representation_case("Q8", 3, 2, 30.0, 2, False, inputs.rng_for(7),
                                   inputs.rng_for(1))
    b = inputs.representation_case("Q8", 3, 2, 30.0, 2, False, inputs.rng_for(7),
                                   inputs.rng_for(2))
    assert not np.allclose(a.images[2], b.images[2])
    sv = [np.linalg.svd(c.similarity[:3, 3:] @ np.linalg.inv(c.similarity[3:, 3:]),
                        compute_uv=False) for c in (a, b)]
    assert np.allclose(sv[0], sv[1], atol=1e-12)


def test_inputs_repeat_for_a_seed():
    one, two = workloads.geometry(5), workloads.geometry(5)
    assert all(np.array_equal(x.args[0], y.args[0]) for x, y in zip(one, two))
    assert not np.array_equal(one[0].args[0], workloads.geometry(6)[0].args[0])
