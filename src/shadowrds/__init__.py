"""Shadowing machinery for randomly driven hyperbolic linear dynamics.

The package turns admissible pseudo-orbits of a perturbed linear cocycle into
true orbits with an explicit error bound, verifies the dichotomy and norm
estimates behind that construction, and uses the solver to demonstrate that
Lyapunov exponents survive bounded Lipschitz perturbations.
"""

from .cocycle import (
    AdaptedNorm,
    CocycleSystem,
    DichotomyData,
    OrbitCache,
    RangeMap,
    SingularityError,
    UncertifiedTruncationError,
    adapted_norm,
    build_envelope,
    check_norm_equivalence,
    check_one_step_contraction,
    cocycle_eval,
    operator_norm,
)
from .driving import (
    BernoulliShift,
    IrrationalRotation,
    RotationPoint,
    ShiftPoint,
    sample_point,
    step,
    symbol_at,
    symbols_along,
)
from .green import (
    AdmissibilityError,
    WeightSequence,
    Window,
    WindowSequence,
    dense_green_solve,
    green_apply,
    green_norm_bound_check,
    green_residual,
    weighted_norm,
)
from .lyapunov import (
    DegenerateOrbitError,
    backward_qr_frame,
    find_special_point,
    linear_exponents_and_half,
    linear_exponents_qr,
    nonlinear_exponent,
)
from .scenarios import (
    Scenario,
    builtin_scenarios,
    get_scenario,
)
from .shadowing import (
    ContractionError,
    NonConvergenceError,
    Perturbation,
    ShadowingProblem,
    check_uniqueness,
    defect,
    invert_step,
    iteration_bound,
    make_weight,
    nonlinear_orbit,
    nonlinear_step,
    shadow_constant,
    solve,
    source_term,
)

__version__ = "0.1.0"
