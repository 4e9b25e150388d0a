"""Matrix-free spectral solver and simulator for the planar
multiplier-transport model w_t = (Z11 w) w.

The package constructs the singular self-similar profile Q by solving the
restricted multiplier equation Z11 Q = 1 on a bounded set with conjugate
gradient, verifies the profile identity (Z11 Q) Q = Q, and integrates the
model in time to observe self-similar and generic finite-time blow-up.
"""

from .config import (
    ConfigError,
    load_run_config,
    parse_shape,
)
from .diagnostics import run_diagnostics
from .evolution import (
    EvolutionTrace,
    EvolveConfig,
    StepUnderflowError,
    estimate_blowup_time,
    evolve,
    gaussian_bump,
    rhs,
    rk_step,
    self_similar_deviation,
    step,
)
from .fieldio import (
    FieldFileError,
    read_field,
    read_header,
    read_trace_csv,
    write_field,
    write_trace_csv,
)
from .profile import (
    ConvergenceError,
    CurvatureBreakdownError,
    ProfileSolution,
    RestrictedOperator,
    SingularOperatorError,
    dense_L_matrix,
    estimate_coercivity,
    solve_profile,
    verify_profile,
)
from .shapes import (
    Annulus,
    Disk,
    Ellipse,
    Mask,
    Rectangle,
    ShapeDifference,
    ShapeUnion,
    mask_area,
    rasterize,
)
from .spectral import (
    Grid,
    RealField,
    apply_z11,
    apply_z22,
    cone_mass_ratio,
    field_integral,
    inner,
    l2_norm,
    quadratic_form,
    sup_norm,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "ConfigError",
    "ConvergenceError",
    "CurvatureBreakdownError",
    "Disk",
    "Ellipse",
    "EvolutionTrace",
    "EvolveConfig",
    "FieldFileError",
    "Grid",
    "Mask",
    "ProfileSolution",
    "RealField",
    "Rectangle",
    "RestrictedOperator",
    "ShapeDifference",
    "ShapeUnion",
    "SingularOperatorError",
    "StepUnderflowError",
    "apply_z11",
    "apply_z22",
    "cone_mass_ratio",
    "dense_L_matrix",
    "estimate_blowup_time",
    "estimate_coercivity",
    "evolve",
    "field_integral",
    "gaussian_bump",
    "inner",
    "l2_norm",
    "load_run_config",
    "mask_area",
    "parse_shape",
    "quadratic_form",
    "rasterize",
    "read_field",
    "read_header",
    "read_trace_csv",
    "rhs",
    "rk_step",
    "run_diagnostics",
    "self_similar_deviation",
    "solve_profile",
    "step",
    "sup_norm",
    "verify_profile",
    "write_field",
    "write_trace_csv",
]
