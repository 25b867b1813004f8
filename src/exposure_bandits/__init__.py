"""Simulation and planning for bandits whose arms quit when underexposed.

Arms must be pulled a per-arm minimum number of times in every phase or
they leave for good.  The package provides the environment simulator,
phase-level matching and dynamic programs for planning with known
rewards, learning policies for unknown rewards, brute-force oracles for
validation, and a command-line front end.
"""

from .core import (
    NEG_INF,
    ContractError,
    GammaResult,
    Instance,
    InfeasibleError,
    Observables,
    ResourceGuardError,
    compute_gamma,
    gamma_from_parts,
    iter_subsets,
    validate,
)
from .dp import DpPolicy, MerTable, dp_star, mer_table, planned_total_value
from .env import (
    NO_PULL,
    CommittedPolicy,
    Policy,
    RunRecord,
    recompute_expected_reward,
    run_episode,
    sample_arrivals,
)
from .lcb import (
    AlcbPolicy,
    GreedyTrace,
    LcbPolicy,
    Plan,
    PlanSegment,
    greedy_subset,
    lcb_policy_step,
    lcb_star,
)
from .learn import (
    EesPolicy,
    Estimates,
    baseline_policy,
    concentration_radii,
    default_exploration_phases,
    estimate,
    explore_phase_step,
    relaxed_exploration_phases,
)
from .lmatch import LlcbPolicy
from .matching import (
    Aggregate,
    Matching,
    build_lcb_aggregate,
    doalg,
    doalg_graph_reference,
)
from .oracle import OptResult, brute_matching, enumerate_phase_policies, exact_opt

__all__ = [
    "NEG_INF",
    "NO_PULL",
    "Aggregate",
    "AlcbPolicy",
    "CommittedPolicy",
    "ContractError",
    "DpPolicy",
    "EesPolicy",
    "Estimates",
    "GammaResult",
    "GreedyTrace",
    "InfeasibleError",
    "Instance",
    "LcbPolicy",
    "LlcbPolicy",
    "Matching",
    "MerTable",
    "Observables",
    "OptResult",
    "Plan",
    "PlanSegment",
    "Policy",
    "ResourceGuardError",
    "RunRecord",
    "baseline_policy",
    "brute_matching",
    "build_lcb_aggregate",
    "compute_gamma",
    "concentration_radii",
    "default_exploration_phases",
    "doalg",
    "doalg_graph_reference",
    "dp_star",
    "enumerate_phase_policies",
    "estimate",
    "exact_opt",
    "explore_phase_step",
    "gamma_from_parts",
    "greedy_subset",
    "iter_subsets",
    "lcb_policy_step",
    "lcb_star",
    "mer_table",
    "planned_total_value",
    "recompute_expected_reward",
    "relaxed_exploration_phases",
    "run_episode",
    "sample_arrivals",
    "validate",
]

__version__ = "0.1.0"
