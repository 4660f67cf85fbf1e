"""Self-interacting Markov jump processes on finite state spaces.

Exact trajectory samplers for occupation-dependent jump rates, evaluation
and minimization of the associated large-deviation rate functions, and
Monte Carlo decay-rate estimation for cross-validation.
"""

__version__ = "0.1.0"

from . import errors
from .core import (
    FAMILIES,
    RateField,
    as_simplex,
    edge_pairs,
    uniform_simplex,
    validate_generator,
)
from .ldp import (
    FixedPointResult,
    as_flux,
    dv_occupation_rate_2state,
    dv_rate,
    equilibrium_flux,
    fixed_point_multistart,
    fixed_point_pi_star,
    flux_balanced,
    is_irreducible,
    scaled_ell,
    stationary_distribution,
)
from .sim import (
    BatchResult,
    Trajectory,
    batch_simulate,
    lockstep_thinning,
    path_stream,
    simulate_exact_affine,
    simulate_thinning,
    write_batch_csv,
    write_trajectory_csv,
)
from .varsolve import (
    ControlPath,
    RateResult,
    SolveOptions,
    TimeGrid,
    current_rate,
    occupation_rate,
    rate_result_to_dict,
    solve_rate,
    write_control_path_csv,
)
from .mc import (
    BallTarget,
    DecayComparison,
    DecayPoint,
    compare_to_rate,
    decay_curve,
    wilson_interval,
    write_decay_csv,
)

__all__ = [
    "FAMILIES",
    "RateField",
    "as_simplex",
    "edge_pairs",
    "uniform_simplex",
    "validate_generator",
    "FixedPointResult",
    "as_flux",
    "dv_occupation_rate_2state",
    "dv_rate",
    "equilibrium_flux",
    "fixed_point_multistart",
    "fixed_point_pi_star",
    "flux_balanced",
    "is_irreducible",
    "scaled_ell",
    "stationary_distribution",
    "BatchResult",
    "Trajectory",
    "batch_simulate",
    "lockstep_thinning",
    "path_stream",
    "simulate_exact_affine",
    "simulate_thinning",
    "write_batch_csv",
    "write_trajectory_csv",
    "ControlPath",
    "RateResult",
    "SolveOptions",
    "TimeGrid",
    "current_rate",
    "occupation_rate",
    "rate_result_to_dict",
    "solve_rate",
    "write_control_path_csv",
    "BallTarget",
    "DecayComparison",
    "DecayPoint",
    "compare_to_rate",
    "decay_curve",
    "wilson_interval",
    "write_decay_csv",
    "errors",
    "__version__",
]
