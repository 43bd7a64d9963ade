"""Grid-side price optimization.

Given the offered energies x, the grid minimizes the separable convex cost
sum(x_i*p_i**2 + a_i*p_i + b_i) over the price slice
{sum(p) = total_price, p_min <= p_i <= p_max}. The single equality
multiplier nu makes the problem one-dimensional: a seller with x_i > 0 has
p_i(nu) = clip((-nu - a_i) / (2 x_i), p_min, p_max), of slope 1/(2 x_i), and
an idle seller (x_i = 0, linear cost) is a step from p_max down to p_min at
nu = -a_i. projection._breakpoint_rows, on a batch of one, finds the piece
or step of the nonincreasing total that holds the root. On a piece, an
active-set solve pins nu exactly. On a step, nu = -a_i, and the idle
sellers tied there take the budget the others leave, in index order, up to
p_max each; breakpoint order already puts price on the cheapest linear
coefficients first, as the KKT conditions demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GridParams, grid_cost
from .projection import _breakpoint_rows, _uncertified


class InfeasiblePriceBudget(ValueError):
    """total_price cannot be met inside [p_min, p_max]^N."""


@dataclass(frozen=True)
class PriceSolution:
    """Minimizer of the grid cost over the price slice, with its KKT data."""

    prices: np.ndarray
    dual: float
    cost: float


def optimize_prices(x, grid: GridParams) -> PriceSolution:
    """Exact constrained minimizer of the grid cost for offered energies x.

    Raises InfeasiblePriceBudget when N*p_min <= total_price <= N*p_max
    fails, and projection.ProjectionError when no piece certifies.
    """
    x = np.asarray(x, dtype=float)
    a = grid.cost_linear
    n = a.size
    if x.size != n:
        raise ValueError(f"expected {n} energies, got {x.size}")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("energies must be finite and nonnegative")
    p_min, p_max, target = float(grid.p_min), float(grid.p_max), float(grid.total_price)
    if n * p_min > target or target > n * p_max:
        raise InfeasiblePriceBudget(
            f"total_price {target:g} outside [{n * p_min:.6g}, {n * p_max:.6g}] "
            f"for {n} users with bounds ({p_min:g}, {p_max:g})"
        )
    tol_sum = 1e-10 * max(1.0, target)
    with np.errstate(divide="ignore"):
        slope = 0.5 / x

    found = []

    def finish(rows, nus):
        """[ok], keeping (p, nu): the step fill on an idle seller's step,
        else the exact solve on the active set at nu."""
        nu = nus[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = (-nu - a) / (2.0 * x)
        interior = (raw > p_min) & (raw < p_max)
        p = np.where(raw >= p_max, p_max, p_min)
        tied = np.isinf(slope) & (a == -nu)
        if tied.any():
            p[interior] = raw[interior]
            remaining = target - math.fsum(p[~tied].tolist()) - int(tied.sum()) * p_min
            for i in np.flatnonzero(tied):
                add = min(max(remaining, 0.0), p_max - p_min)
                p[i] = p_min + add
                remaining -= add
            found.append((p, nu))
            return [abs(remaining) <= tol_sum and abs(math.fsum(p.tolist()) - target) <= tol_sum]
        if interior.any():
            inv = 1.0 / (2.0 * x[interior])
            fixed_sum = math.fsum(p[~interior].tolist())
            nu = -(target - fixed_sum + math.fsum((a[interior] * inv).tolist())) \
                / math.fsum(inv.tolist())
            p[interior] = (-nu - a[interior]) / (2.0 * x[interior])
        found.append((np.clip(p, p_min, p_max), nu))
        return [p_min - 1e-9 <= p.min() and p.max() <= p_max + 1e-9
                and abs(math.fsum(p.tolist()) - target) <= tol_sum]

    if _breakpoint_rows(-a[None], np.full((1, n), p_min), np.full((1, n), p_max), [target],
                        finish, slope[None])[0] is None:
        raise _uncertified(target, n)
    p, nu = found[-1]
    return _solution(p, nu, x, grid)


def _solution(p, nu, x, grid: GridParams) -> PriceSolution:
    p = np.asarray(p, dtype=float)
    return PriceSolution(prices=p, dual=float(nu), cost=grid_cost(p, x, grid))
