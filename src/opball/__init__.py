"""opball: hyperbolic geometry of the operator ball.

Mobius transforms and the invariant metric rho (tanh rho(A, B) =
||M_{-A}(B)||) on the open unit ball of p x q complex matrices,
Th-geodesics with their convexity toolkit, fixed points of elliptic
automorphism groups, and unitarization of representations preserving an
indefinite form with finitely many negative squares.
"""

from . import errors
from .fixedpoint import (
    AutomorphismGroup,
    EquicontinuityWitness,
    FixedPointResult,
    displacement,
    equicontinuity_witness,
    find_fixed_point,
    group_closure,
)
from .hyperbolic import (
    GeodesicLine,
    MetricSample,
    alpha_metric,
    barycenter_sequence,
    convex_combination,
    curve_length,
    diameter,
    diametral_check,
    distance,
    geodesic_point,
    geodesic_velocity,
    line_through,
    poincare_scalar,
    th_inverse,
    th_map,
    th_series,
)
from .mobius import (
    BallAutomorphism,
    BallPoint,
    automorphism_apply,
    automorphism_compose,
    eta_matrix,
    mobius_apply,
    mobius_as_block,
    mobius_differential,
    zero_point,
)
from .opcore import spectral_norm
from .pontryagin import (
    DualPair,
    PontryaginSignature,
    Representation,
    UnitarizationResult,
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

__version__ = "0.1.0"
