"""Multi-stage machine scheduling games under greedy least-loaded choice.

Exact-rational simulation of greedy play, an exhaustive optimal-makespan
oracle, a backward-induction equilibrium solver, adversarial instance
families, and checkers for the completion-time and price-of-anarchy bounds.
"""

from .analysis import (
    AnalysisError,
    BoundReport,
    BoundRow,
    PoAReport,
    SigmaPermutation,
    check_completion_bound,
    check_multistage_chain,
    check_release_premise,
    price_of_anarchy,
    sigma_permutation,
)
from .equilibrium import (
    DEFER,
    ActionModel,
    Deviation,
    EquilibriumResult,
    GameNode,
    SpneCertificate,
    check_greedy_spne,
    spne_solve,
    verify_deviation,
)
from .exact import (
    DEFAULT_LIMITS,
    LimitsExceeded,
    OptResult,
    SearchLimits,
    opt_lower_bounds,
    optimal_makespan,
    single_stage_optimal,
)
from .generators import (
    SplitMix64,
    gen_appendix_example,
    gen_multistage_worst,
    gen_random,
    gen_single_stage_worst,
)
from .greedy import GreedyEvent, greedy_schedule, release_order
from .model import (
    Instance,
    InstanceError,
    Job,
    ModelError,
    Plan,
    PlanError,
    Scalar,
    ScheduleTrace,
    StageRecord,
    StageSpec,
    evaluate_schedule,
    format_decimal,
    format_scalar,
    parse_scalar,
    validate_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ActionModel",
    "AnalysisError",
    "BoundReport",
    "BoundRow",
    "DEFAULT_LIMITS",
    "DEFER",
    "Deviation",
    "EquilibriumResult",
    "GameNode",
    "GreedyEvent",
    "Instance",
    "InstanceError",
    "Job",
    "LimitsExceeded",
    "ModelError",
    "OptResult",
    "Plan",
    "PlanError",
    "PoAReport",
    "Scalar",
    "ScheduleTrace",
    "SearchLimits",
    "SigmaPermutation",
    "SplitMix64",
    "SpneCertificate",
    "StageRecord",
    "StageSpec",
    "check_completion_bound",
    "check_greedy_spne",
    "check_multistage_chain",
    "check_release_premise",
    "evaluate_schedule",
    "format_decimal",
    "format_scalar",
    "gen_appendix_example",
    "gen_multistage_worst",
    "gen_random",
    "gen_single_stage_worst",
    "greedy_schedule",
    "opt_lower_bounds",
    "optimal_makespan",
    "parse_scalar",
    "price_of_anarchy",
    "release_order",
    "sigma_permutation",
    "single_stage_optimal",
    "spne_solve",
    "validate_trace",
    "verify_deviation",
]
