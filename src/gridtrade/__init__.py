"""Two-stage energy-trading game simulator."""

from .model import (
    EnergyUser,
    EquilibriumResult,
    FeasibleSet,
    GridParams,
    Scenario,
    grid_cost,
    joint_utility,
    validate_scenario,
)
from .projection import ProjectionError, ProjectionResult, project_box_budget, project_halfspace_then_set
from .vi_solver import (
    ArmijoSearchError,
    IterationRecord,
    PseudoGradient,
    SolverConfig,
    SolverTrace,
    natural_residual,
    solve_ve,
    ve_closed_form,
)
from .price_opt import InfeasiblePriceBudget, PriceSolution, optimize_prices
from .engine import (
    GameOutcome,
    MessageLog,
    ScenarioValidationError,
    run_fit,
    run_games,
    run_stackelberg,
)
from .oracle import (
    NSEReport,
    certify,
    check_nse,
    price_grid_oracle,
    ve_oracle,
)
from .cli import ExperimentConfig, run_experiment, sample_scenario

__version__ = "0.1.0"
