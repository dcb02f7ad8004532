"""The optional parameters of the library's public callables, pinned.

Every optional parameter is a setting that tests and benchmarks would have
to cover in each of its values, so a new one is a deliberate edit of
``OPTIONAL``.  Tolerances no caller varies are module constants instead.
"""

import inspect

from opball import fixedpoint, hyperbolic, mobius, opcore, pontryagin

MODULES = (opcore, mobius, hyperbolic, fixedpoint, pontryagin)

OPTIONAL = {
    "opcore.as_matrix": ["name"],
    "mobius.BallPoint": ["boundary_tol"],
    "hyperbolic.th_series": ["terms"],
    "hyperbolic.curve_length": ["velocities"],
    "fixedpoint.AutomorphismGroup": ["table"],
    "fixedpoint.find_fixed_point": ["x0", "mode"],
    "pontryagin.make_test_representation": ["conditioning", "seed"],
    "pontryagin.unitarize": ["mode"],
}


def _public_callables(module):
    """(qualified name, callable) for the module's own public functions and
    classes, and the public methods of those classes."""
    prefix = module.__name__.rpartition(".")[2]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{prefix}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{prefix}.{name}", obj
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{prefix}.{name}.{attr}", member


def _optional_parameters():
    found = {}
    for module in MODULES:
        for qual, fn in _public_callables(module):
            names = [p.name for p in inspect.signature(fn).parameters.values()
                     if p.default is not p.empty
                     or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
            if names:
                found[qual] = names
    return found


def test_optional_parameters_are_pinned():
    assert _optional_parameters() == OPTIONAL


def test_ten_optional_parameters():
    assert sum(len(names) for names in OPTIONAL.values()) == 10
