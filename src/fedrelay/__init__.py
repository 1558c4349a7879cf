"""Equilibrium solver for the joint learning-service pricing and
cooperative-relay game between mobile devices (leaders) and a model
owner (follower)."""

from .lower_level import (
    best_response_demand,
    owner_utility,
    price_floor,
)
from .radio import (
    PowerLimitError,
    min_power_for_rate,
    transmission_energy_cost,
    transmission_rates,
)
from .routing import (
    check_acyclic_reach,
    check_ap_connected,
    check_single_link,
    check_timing,
    feasible,
    routing_lines,
)
from .scenario import (
    AccuracyModel,
    DeviceParams,
    RandomSpec,
    Scenario,
    ScenarioError,
    build_channel_matrix,
    load_scenario,
    paper9_scenario,
    random_scenario,
    save_scenario,
)
from .upper_level import (
    EquilibriumReport,
    PenaltyConfig,
    StrategyProfile,
    penalty_rho,
    price_best_response,
    solve_stackelberg,
)

__version__ = "0.1.0"
