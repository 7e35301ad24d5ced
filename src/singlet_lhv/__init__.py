"""Event-by-event local hidden-variable simulator for singlet statistics.

The package has three layers.  model solves detector-pattern parameters for
a target (efficiency, visibility) point and evaluates the measurement
function itself; analytic provides the closed-form statistics, feasibility
frontiers, and Bell/CHSH helpers those patterns reproduce; montecarlo,
quadrature, and experiments sample, integrate, and orchestrate comparisons
between the two.  The cli module exposes all of it as the singlet-lhv
command.
"""

__version__ = "0.1.0"

from .analytic import (
    BELL_CRITICAL_EFFICIENCY,
    CHSH_CRITICAL_EFFICIENCY,
    FULL_EFFICIENCY_MAX_VISIBILITY,
    FULL_VISIBILITY_MAX_EFFICIENCY,
    STANDARD_CHSH_ANGLES,
    ChshAngles,
    bell_generalized_slack,
    chsh_bound,
    chsh_value,
    classify_region,
    correlation,
    joint_table,
    line_g,
    max_visibility,
    nonideal_probs,
    qm_probs,
    reduce_theta,
)
from .errors import (
    DegeneratePoint,
    DomainError,
    EmptyTally,
    InfeasibleParameters,
    InvalidConfig,
    SingletLhvError,
)
from .experiments import (
    chsh_experiment,
    region_scan,
    sweep_gate,
    theta_sweep,
    verify_suite,
)
from .model import (
    DetectorSide,
    HiddenVariable,
    ModelParams,
    Outcome,
    PatternKind,
    is_feasible,
    measure,
    measure_many,
    solve_params,
    unsymmetrized_marginals,
)
from .montecarlo import (
    RunConfig,
    Tally,
    derive_seed,
    estimate,
    run,
    substream,
    tally_outcomes,
)

__all__ = [
    "__version__",
    "BELL_CRITICAL_EFFICIENCY",
    "CHSH_CRITICAL_EFFICIENCY",
    "FULL_EFFICIENCY_MAX_VISIBILITY",
    "FULL_VISIBILITY_MAX_EFFICIENCY",
    "STANDARD_CHSH_ANGLES",
    "ChshAngles",
    "DegeneratePoint",
    "DetectorSide",
    "DomainError",
    "EmptyTally",
    "HiddenVariable",
    "InfeasibleParameters",
    "InvalidConfig",
    "ModelParams",
    "Outcome",
    "PatternKind",
    "RunConfig",
    "SingletLhvError",
    "Tally",
    "bell_generalized_slack",
    "chsh_bound",
    "chsh_experiment",
    "chsh_value",
    "classify_region",
    "correlation",
    "derive_seed",
    "estimate",
    "is_feasible",
    "joint_table",
    "line_g",
    "max_visibility",
    "measure",
    "measure_many",
    "nonideal_probs",
    "qm_probs",
    "reduce_theta",
    "region_scan",
    "run",
    "solve_params",
    "substream",
    "sweep_gate",
    "tally_outcomes",
    "theta_sweep",
    "unsymmetrized_marginals",
    "verify_suite",
]
