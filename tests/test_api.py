"""The public surface of the library, pinned: the names ``opball``
exports, the attributes of its one group type and its two constructors, and
the optional parameters of its public callables.

Every optional parameter is a setting that tests and benchmarks would have
to cover in each of its values, so a new one is a deliberate edit of
``OPTIONAL``.  Tolerances no caller varies are module constants instead.
"""

import inspect

import opball
from opball import fixedpoint, hyperbolic, mobius, opcore, pontryagin
from opball.fixedpoint import AutomorphismGroup
from opball.pontryagin import Representation

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


EXPORTED = [
    "AutomorphismGroup", "BallAutomorphism", "BallPoint", "DualPair",
    "EquicontinuityWitness", "FixedPointResult", "GeodesicLine",
    "MetricSample", "PontryaginSignature", "Representation",
    "UnitarizationResult", "alpha_metric", "automorphism_apply",
    "automorphism_compose", "averaged_fixed_point", "barycenter_sequence",
    "convex_combination", "curve_length", "diameter", "diametral_check",
    "displacement", "distance", "dual_pair", "equicontinuity_witness",
    "eta_matrix", "eta_value", "find_fixed_point", "geodesic_point",
    "geodesic_velocity", "graph_subspace", "group_closure", "group_table",
    "induced_automorphism", "is_J_unitary", "line_through",
    "make_test_representation", "max_principal_angle", "mobius_apply",
    "mobius_as_block", "mobius_differential", "negativeness_degree",
    "poincare_scalar", "spectral_norm", "subspace_to_ball", "th_inverse",
    "th_map", "th_series", "unitarize", "unitarizer_matrix", "zero_point",
]

GROUP_ATTRIBUTES = {"dim_h", "dim_k", "table", "identity_index", "images",
                    "elements"}
REPRESENTATION_ATTRIBUTES = GROUP_ATTRIBUTES | {"signature", "bound",
                                                "eta_defect", "group_order"}


def _public(obj):
    return {name for name in dir(obj) if not name.startswith("_")}


def test_exported_names_are_pinned():
    # submodules are attributes of the package once imported, so they are
    # left out: which of them a test run has imported varies
    names = [name for name in _public(opball)
             if not inspect.ismodule(getattr(opball, name))]
    assert sorted(names) == EXPORTED


def test_one_group_type_with_two_constructors():
    assert issubclass(Representation, AutomorphismGroup)
    assert Representation.__slots__ == ()
    assert _public(AutomorphismGroup) == GROUP_ATTRIBUTES
    assert _public(Representation) == REPRESENTATION_ATTRIBUTES
    # a representation adds its checked constructor, its measurements and
    # its default start of find_fixed_point; everything held is the group's
    added = {name for name, member in vars(Representation).items()
             if callable(member) or isinstance(member, property)}
    assert added == {"__init__", "_start", "__repr__", "signature", "bound",
                     "eta_defect", "group_order"}
    for cls, params in ((AutomorphismGroup, ["elements", "table"]),
                        (Representation, ["signature", "table", "images"])):
        assert list(inspect.signature(cls).parameters) == params
