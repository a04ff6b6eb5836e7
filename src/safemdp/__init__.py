"""Safety-constrained dynamic programming on finite MDPs.

States split into taboo (transient), forbidden and target sets; the
package computes occupation operators, value/safety/reach functions,
unconstrained and safety-constrained optimal policies, and checks all
of it against simulation and exhaustive oracles.
"""

from .bellman import (
    BellmanResult,
    safest_policy,
    safety_iterative,
    value_iteration,
    value_iterative,
)
from .constrained import (
    AdmissibleSet,
    BruteForceResult,
    ConstrainedSolveReport,
    LpProblem,
    LpSolution,
    RelativeVertexSet,
    brute_force_constrained,
    build_lp,
    constrained_vi_pure,
    dual_ascent,
    enumerate_admissible,
    p_to_q,
    relative_admissible,
    relative_vi,
    solve_lp,
)
from .evaluate import (
    BlockDecomposition,
    ChainQuantities,
    CostInputs,
    TransienceReport,
    chain_quantities,
    check_transient,
    cost_inputs,
    decompose,
    evolution_residual,
    green,
    green_neumann,
    hitting,
    occupation,
    reach,
    safety,
    value,
)
from .exceptions import (
    CapExceededError,
    InfeasibleError,
    LpNumericalError,
    LpUnboundedError,
    MaxIterationsError,
    ModelFormatError,
    ModelValidationError,
    NotTransientError,
    PathExplosionError,
    PolicyError,
    SafeMdpError,
)
from .model import (
    MdpModel,
    Policy,
    StatePartition,
    induced_matrix,
    load_model,
    load_policy,
    make_policy,
    pure_policy,
    serialize_model,
    serialize_policy,
    validate_model,
)
from .simulate import (
    McEstimate,
    McReport,
    PathBounds,
    Trajectory,
    exhaustive_paths,
    mc_estimates,
    simulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
