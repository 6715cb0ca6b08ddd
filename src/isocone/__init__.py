"""Numerical toolkit for weighted isoperimetric problems in planar convex cones.

The package implements, at desk scale in the plane, the measure-theoretic
functionals (weighted volume, perimeter, deficit, asymmetry), the restricted
convex-envelope machinery that couples a set to the minimizing ball sector,
a small finite-element Neumann solver that seeds the coupling, and a family
of quantitative lemma checkers (AM-GM, one-dimensional stability, Cheeger
constants of interval sets, trace/Poincare inequalities) together with
experiment drivers.
"""

__version__ = "0.1.0"

from .cone_weight import (
    Cone,
    HomWeight,
    SubspaceBases,
    decompose_subspaces,
)
from .geometry import (
    MeasureReport,
    StarSet,
    asymmetry,
    boundary_weighted_integral,
    deficit,
    symdiff_with_ball,
    weighted_perimeter,
    weighted_volume,
)
from .envelope import (
    EnvelopeField,
    RestrictedConjugate,
    SlopeBody,
    check_c11,
    contact_data,
    k_envelope,
    restricted_conjugate,
)
from .pde import (
    AnisotropicMode,
    NodalField,
    TriMesh,
    WeightedMode,
    fan_triangulate,
    solve_neumann,
    triangulate_polygon,
)
from .coupling import (
    CouplingReport,
    MinimizerDegenerateError,
    Resolutions,
    abp_chain_check,
    anisotropic_deficit,
    build_coupling,
    verify_coupling_estimates,
)
from .analysis import (
    FmpConstants,
    IntervalSet,
    ball_volume_growth,
    cheeger_bruteforce,
    one_dim_stability_check,
    psi_k,
    quantitative_amgm_check,
    removal_lemma_check,
    shift_lower_bound,
    shifted_weight_separation,
    trace_poincare_check_1d,
    translated_ball_control_check,
)
from .experiments import (
    SweepResult,
    default_corpus,
    sharpness_sweep,
    stability_sweep,
    translation_diagnostics,
)
