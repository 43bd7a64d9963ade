"""Domain types and objective functions for the energy-trading game.

A power grid with an energy deficit buys surplus energy from N user groups
at peak hours. Each user group i holds a surplus ``E_i`` (kWh) and is paid a
per-unit price ``p_i`` (cents/kWh) for the amount ``x_i`` it sells. Seller
utility is quadratic with linearly decreasing marginal benefit,

    U(x, E, p) = E*x - x**2/2 + p*x,

and the grid's purchase cost for one seller is the convex function

    J(p) = x*p**2 + a*p + b,       a > 0, b > 0.

Allocations are coupled by the grid's total demand (sum of x_i bounded by the
deficiency) and prices by a fixed total per-unit price budget (sum of p_i
pinned to ``total_price``, each p_i boxed in [p_min, p_max]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class EnergyUser:
    """One aggregated seller: an index, its surplus in kWh, and how many
    physical consumers the aggregate stands for (informational only)."""

    id: int
    surplus: float
    aggregation_count: int = 1


@dataclass(frozen=True)
class GridParams:
    """Grid-side scenario parameters.

    deficiency   -- energy the grid must buy this slot, kWh
    total_price  -- total per-unit price budget distributed over users, cents
    p_min, p_max -- per-user price bounds, cents
    cost_linear  -- per-user linear cost coefficients a_i
    cost_const   -- per-user constant cost terms b_i
    """

    deficiency: float
    total_price: float
    p_min: float
    p_max: float
    cost_linear: np.ndarray
    cost_const: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cost_linear", _as_float_array(self.cost_linear, "cost_linear"))
        object.__setattr__(self, "cost_const", _as_float_array(self.cost_const, "cost_const"))


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: the users, the grid parameters, and the seed
    the surpluses were drawn with (kept for reproducibility)."""

    users: tuple[EnergyUser, ...]
    grid: GridParams
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def surpluses(self) -> np.ndarray:
        return np.array([u.surplus for u in self.users], dtype=float)


@dataclass(frozen=True)
class FeasibleSet:
    """The coupled allocation set: a per-user box [0, upper_bounds_i]
    intersected with the shared budget halfspace sum(x) <= budget."""

    upper_bounds: np.ndarray
    budget: float

    def __post_init__(self):
        ub = _as_float_array(self.upper_bounds, "upper_bounds")
        object.__setattr__(self, "upper_bounds", ub)
        if not np.all(ub > 0.0):
            raise ValueError("all upper_bounds must be positive")
        if not (self.budget > 0.0 and math.isfinite(self.budget)):
            raise ValueError(f"budget must be positive and finite, got {self.budget}")

    @property
    def dim(self) -> int:
        return self.upper_bounds.size


@dataclass(frozen=True)
class EquilibriumResult:
    """A converged outcome of one game stage: allocations, prices, and the
    scores both sides care about."""

    energies: np.ndarray
    prices: np.ndarray
    utilities: np.ndarray
    total_utility: float
    grid_cost: float
    follower_iterations: int
    vi_residual: float
    mu_values: np.ndarray

    def __post_init__(self):
        for name in ("energies", "prices", "utilities", "mu_values"):
            object.__setattr__(self, name, _as_float_array(getattr(self, name), name))


def joint_utility(x, scenario: Scenario, p) -> float:
    """Sum of per-user utilities at allocation x and price vector p."""
    x = _as_float_array(x, "x")
    p = _as_float_array(p, "p")
    n = scenario.n_users
    if x.size != n or p.size != n:
        raise ValueError(f"expected vectors of length {n}, got x:{x.size} p:{p.size}")
    surpluses = scenario.surpluses
    return float(np.sum(surpluses * x - 0.5 * x * x + p * x))


def grid_cost(p, x, grid: GridParams) -> float:
    """Total grid cost sum_i (x_i*p_i**2 + a_i*p_i + b_i).

    Raw evaluation: price bounds are not enforced here.
    """
    p = _as_float_array(p, "p")
    x = _as_float_array(x, "x")
    n = grid.cost_linear.size
    if p.size != n or x.size != n:
        raise ValueError(f"expected vectors of length {n}, got p:{p.size} x:{x.size}")
    return _grid_cost_rows(p[None], x[None], grid.cost_linear[None], grid.cost_const[None])[0]


def _grid_cost_rows(p, x, a, b) -> list[float]:
    """grid_cost of each row of the (rows, n) arrays p and x at the rows of
    the cost coefficients a and b. A row sum rounds as the sum of that row
    alone does."""
    if not (np.isfinite(p).all() and np.isfinite(x).all()):
        raise ValueError("non-finite price or energy input")
    return np.add.reduce(x * p * p + a * p + b, axis=1).tolist()


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every scenario invariant and report all violations found.

    Returns a list of human-readable violation strings; an empty list means
    the scenario is well formed.
    """
    problems: list[str] = []
    users = scenario.users
    n = len(users)
    if n == 0:
        problems.append("scenario has no users")
        return problems

    ids = [u.id for u in users]
    if sorted(ids) != list(range(n)):
        problems.append(f"user ids must be unique and contiguous from 0, got {ids}")
    for u in users:
        if not (math.isfinite(u.surplus) and u.surplus > 0.0):
            problems.append(f"user {u.id}: surplus must be positive and finite, got {u.surplus}")

    g = scenario.grid
    if not (math.isfinite(g.deficiency) and g.deficiency > 0.0):
        problems.append(f"deficiency must be positive, got {g.deficiency}")
    for name in ("total_price", "p_min", "p_max"):
        if not math.isfinite(getattr(g, name)):
            problems.append(f"{name} must be finite, got {getattr(g, name)}")
    if not (0.0 < g.p_min <= g.p_max):
        problems.append(f"price bounds must satisfy 0 < p_min <= p_max, got ({g.p_min}, {g.p_max})")
    if g.cost_linear.size != n or g.cost_const.size != n:
        problems.append(
            f"cost vectors must have length {n}, got a:{g.cost_linear.size} b:{g.cost_const.size}"
        )
    else:
        if not np.all((g.cost_linear > 0.0) & np.isfinite(g.cost_linear)):
            problems.append("all linear cost coefficients a_i must be positive and finite")
        if not np.all((g.cost_const > 0.0) & np.isfinite(g.cost_const)):
            problems.append("all constant cost terms b_i must be positive and finite")
    if n * g.p_min > g.total_price or g.total_price > n * g.p_max:
        problems.append(
            f"total_price {g.total_price:g} outside feasible range "
            f"[{n * g.p_min:.6g}, {n * g.p_max:.6g}] for {n} users"
        )
    if scenario.seed < 0:
        problems.append(f"seed must be nonnegative, got {scenario.seed}")
    return problems
