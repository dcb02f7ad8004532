"""The appendix suites that take their points as stacks still compare them:
a kernel that moves one point by 1e-6 makes each suite report failures in
its usual message format.  ``run_checks`` runs every suite of its scope."""

import re

import numpy as np
import pytest

from opball import checksuite

NUMBER = r"\d\.\d{3}e[-+]\d\d"
FORMATS = {
    "metric-line": rf"trial \d+: \|rho - \|s-t\|\| = {NUMBER} "
                   r"at \(s, t\) = \(-?\d\.\d+, -?\d\.\d+\)",
    "unit-speed": rf"trial \d+: velocity fd gap {NUMBER}",
    "doubling-convexity": r"trial \d+: 2rho = \d+\.\d{6} > \d+\.\d{6} at s = \d\.\d+",
    "line-invariance": rf"trial \d+: image [234] off line by {NUMBER}",
    "mobius-differential": rf"trial \d+: differential fd gap {NUMBER}",
    "unique-line": rf"trial \d+: rebuilt line off by {NUMBER}",
}


def _run(name, trials=3):
    _, _, check = checksuite.SUITES[name]
    rng = np.random.default_rng([0, list(checksuite.SUITES).index(name)])
    return [f"trial {k}: {msg}"
            for k in range(trials) for msg in check(rng, *checksuite._dims(rng))]


def _shift_last(stack):
    """The stack with the (0, 0) entry of its last matrix moved by 1e-6."""
    moved = np.array(stack)
    moved[-1, 0, 0] += 1e-6
    return moved


def _first_call_shifted(monkeypatch, name, points_of):
    """Patch ``checksuite.<name>`` so that its first call moves one point."""
    original = getattr(checksuite, name)
    calls = []

    def shifted(*args):
        out = original(*args)
        calls.append(1)
        if len(calls) > 1:
            return out
        return points_of(out)

    monkeypatch.setattr(checksuite, name, shifted)


def _shifted_line_points(monkeypatch):
    _first_call_shifted(monkeypatch, "_line_points",
                        lambda out: (_shift_last(out[0]), out[1]))


def _shifted_mobius(monkeypatch):
    _first_call_shifted(monkeypatch, "mobius_matrix", _shift_last)


def _reversed_second_line(monkeypatch):
    # eta = gamma run backwards makes the inequality an equality; the point
    # eta(2) then moves 1e-6 along the line, towards gamma(2)
    original = checksuite._line_points
    lines = []

    def reversed_second(line, t):
        lines.append(line)
        if len(lines) % 2:
            return original(line, t)
        t = -np.asarray(t, dtype=float)
        t[-1] += 1e-6
        return original(lines[-2], t)

    monkeypatch.setattr(checksuite, "_line_points", reversed_second)


PATCHES = {
    "metric-line": _shifted_line_points,
    "unit-speed": _shifted_line_points,
    "doubling-convexity": _reversed_second_line,
    "line-invariance": _shifted_line_points,
    "mobius-differential": _shifted_mobius,
    "unique-line": _shifted_line_points,
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_a_moved_point_fails_the_suite(monkeypatch, name):
    assert _run(name) == []
    PATCHES[name](monkeypatch)
    failures = _run(name)
    assert failures
    for message in failures:
        assert re.fullmatch(FORMATS[name], message), message


APPENDIX = ["metric-line", "unit-speed", "met-lemma", "lemma-inequality",
            "doubling-convexity", "line-invariance", "mobius-differential",
            "unique-line", "th-series", "alpha-distance"]
OTHERS = ["segment-convexity", "mobius-inverse", "isometry-invariance",
          "lipschitz", "degree-transport", "mean-inequality", "graph-roundtrip"]


def test_each_scope_runs_its_suites():
    assert [(name, scope) for name, (scope, _, _) in checksuite.SUITES.items()] \
        == [(name, "appendix") for name in APPENDIX] \
        + [(name, "all") for name in OTHERS]
    everything = checksuite.run_checks("all", trials=3, seed=0)
    assert everything["passed"] and everything["failures"] == []
    assert everything["suites"] == {name: {"trials": 3, "failures": []}
                                    for name in APPENDIX + OTHERS}
    appendix = checksuite.run_checks("appendix", trials=3, seed=0)
    assert appendix["passed"]
    assert list(appendix["suites"]) == APPENDIX
