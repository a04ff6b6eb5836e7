"""Safety-constrained dynamic programming on finite MDPs.

States split into taboo (transient), forbidden and target sets; the
package computes occupation operators, value/safety/reach functions,
unconstrained and safety-constrained optimal policies, and checks all
of it against simulation and exhaustive oracles.
"""

from .bellman import (
    BellmanResult,
    CertificateReport,
    bellman_apply,
    certify_supremum,
    safest_policy,
    value_iteration,
)
from .chain import (
    BlockDecomposition,
    TransienceReport,
    check_transient,
    decompose,
    evolution_residual,
    green,
    green_neumann,
    hitting,
    occupation,
)
from .constrained import (
    AdmissibleSet,
    ConeReport,
    ConstrainedSolveReport,
    LpProblem,
    LpSolution,
    RelativeVertexSet,
    build_lp,
    cone_check,
    constrained_vi_pure,
    dual_ascent,
    dual_inner,
    enumerate_admissible,
    lagrangian,
    p_to_q,
    relative_admissible,
    relative_vi,
    solve_lp,
)
from .evaluate import (
    ChainQuantities,
    CostInputs,
    chain_quantities,
    cost_inputs,
    reach,
    safety,
    safety_iterative,
    set_safety,
    value,
    value_iterative,
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
    BruteForceResult,
    McEstimate,
    McReport,
    PathBounds,
    Trajectory,
    brute_force_constrained,
    exhaustive_paths,
    mc_estimates,
    simulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
