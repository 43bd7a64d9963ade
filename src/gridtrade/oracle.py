"""Independent verifiers for the follower equilibrium and the leader prices.

Used only by `gridtrade verify`, the tests and the acceptance audits, never
by the game itself: no module that plays the game imports this one.
`certify`, what `verify` runs, checks a played game exactly, sharing no code
with the solver. `ve_oracle` maximizes the joint utility by projected
gradient ascent, sharing only the (grid-verified) projection primitive with
the solver. `check_nse` samples unilateral deviations of both sides of a
played game, `price_grid_oracle` a lattice of the price slice, and
`halfspace_projection_oracle` bisects the halfspace dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import GameOutcome
from .model import FeasibleSet, GridParams, Scenario, grid_cost
from .price_opt import InfeasiblePriceBudget, PriceSolution, _price_rows, _solution
from .projection import _any, project_box_budget

BOUND = 1e-6  # the one bound of every figure that certify checks


def certify(outcome: GameOutcome, scenario: Scenario) -> tuple[bool, dict[str, float]]:
    """(passed, figures) of a converged game, each figure relative; never raises.

    x* = P_X(s + p2), the stage-2 equilibrium, comes from bisection on the
    budget multiplier, each sum exactly rounded. `follower` is |x2 - x*|inf
    / S, `social` (U(x*) - U(x2)) / |U(x*)|, `budget` |sum x* - deficiency|
    / deficiency while x*'s multiplier is positive, and `leader` the KKT
    violation of the price problem at the stage-1 offers x1 (no 2*x1*p + a
    of a price above p_min may exceed one below p_max) or the prices'
    distance from the slice. Each passes finite and at most BOUND. S = max(s).
    """
    grid, s = scenario.grid, scenario.surpluses
    x2, p2, x1 = outcome.stage2.energies, outcome.stage2.prices, outcome.stage1.energies
    with np.errstate(all="ignore"):
        c = s + p2
        lam = _budget_multiplier(c, s, grid.deficiency)
        x = np.clip(c - lam, 0.0, s)
        u, u2 = _fsum(c * x - 0.5 * x * x), _fsum(c * x2 - 0.5 * x2 * x2)
        g = 2.0 * x1 * p2 + grid.cost_linear
        kkt = g[p2 > grid.p_min].max(initial=-math.inf) - g[p2 < grid.p_max].min(initial=math.inf)
        figures = {
            "follower": np.abs(x2 - x).max() / s.max(),
            "social": np.float64(u - u2) / abs(u) if u or u2 else 0.0,
            "budget": abs(_fsum(x) - grid.deficiency) / grid.deficiency if lam > 0.0 else 0.0,
            "leader": np.max([max(kkt, 0.0) / np.abs(g).max(),  # np.max keeps a nan
                              abs(_fsum(p2) - grid.total_price) / grid.total_price,
                              max(grid.p_min - p2.min(), p2.max() - grid.p_max, 0.0) / grid.p_max]),
        }
    passed = all(math.isfinite(f) and f <= BOUND for f in figures.values())
    return passed, {key: float(f) for key, f in figures.items()} | {"scale": float(s.max())}


def _budget_multiplier(c, upper, budget) -> float:
    """The least lam >= 0 with sum(clip(c - lam, 0, upper)) <= budget, to the last bit."""
    def over(lam):
        return _fsum(np.clip(c - lam, 0.0, upper)) > budget

    lo, hi = 0.0, float(c.max())
    if not over(lo):
        return lo
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if over(mid) else (lo, mid)
    return hi


def _fsum(values) -> float:
    """math.fsum of an array; nan past the float range or for inf - inf."""
    try:
        return math.fsum(values.tolist())
    except (OverflowError, ValueError):
        return math.nan


def ve_oracle(scenario: Scenario, p, grad_tol: float = 1e-10,
              max_iterations: int = 20_000) -> np.ndarray:
    """Maximize the joint utility over the allocation set directly.

    Projected gradient ascent with a diminishing step schedule floored at
    one half (the objective has unit curvature, so any step in (0, 1] keeps
    linear convergence; a floor is required to reach the gradient-mapping
    tolerance at all). Stops when the gradient mapping norm falls below
    grad_tol.
    """
    p = np.asarray(p, dtype=float)
    surpluses = scenario.surpluses
    fset = FeasibleSet(surpluses, scenario.grid.deficiency)
    x = np.zeros(fset.dim)
    for k in range(max_iterations):
        step = max(0.5, 0.95 / (1.0 + 0.05 * k))
        grad = surpluses - x + p
        x_next = project_box_budget(x + step * grad, fset).point
        mapping = float(np.linalg.norm(x - x_next)) / step
        x = x_next
        if mapping <= grad_tol:
            break
    return x


def halfspace_projection_oracle(x, normal, offset_point, fset: FeasibleSet,
                                offset_gap=None) -> np.ndarray:
    """Projection of feasible x onto X and {w : <normal, w - offset_point> <= 0} by
    bisection on the cut's dual beta: w(beta) = P_X(x - beta*normal), whose gap
    <normal, w - offset> falls with beta. offset_gap is as in project_halfspace_then_set."""
    x, n = np.asarray(x, dtype=float), np.asarray(normal, dtype=float)
    gap = x - np.asarray(offset_point, dtype=float) if offset_gap is None else offset_gap
    g_lin = math.fsum((n * gap).tolist())

    def point_and_gap(beta):
        w = project_box_budget(x - beta * n, fset).point
        return w, math.fsum((n * (w - x)).tolist()) + g_lin

    # No piece of the gap is steeper than <n, n>, so the root is at least g(0)/<n, n>.
    lo, hi = 0.0, max(point_and_gap(0.0)[1], 0.0) / math.fsum((n * n).tolist())
    while point_and_gap(hi)[1] > 0.0:  # overflows to a ValueError if the cut misses X
        lo, hi = hi, max(2.0 * hi, 5e-324)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if point_and_gap(mid)[1] > 0.0 else (lo, mid)
    return point_and_gap(hi)[0]


def price_grid_oracle(x, grid: GridParams, resolution: float) -> PriceSolution:
    """Exhaustive lattice search over the price slice; verification only.

    The last coordinate is eliminated by the equality constraint. Cost grows
    exponentially with N, so only N <= 3 is supported.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n > 3:
        raise ValueError(f"grid oracle supports N <= 3, got {n}")
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    p_min, p_max, target = grid.p_min, grid.p_max, grid.total_price

    if n == 1:
        if not (p_min <= target <= p_max):
            raise InfeasiblePriceBudget(f"total_price {target} outside [{p_min}, {p_max}]")
        p = np.array([target])
        return _solution(p, float("nan"), x, grid)

    axis = np.arange(p_min, p_max + 0.5 * resolution, resolution)
    axis = axis[axis <= p_max]
    if axis[-1] < p_max:
        axis = np.append(axis, p_max)
    best_cost = np.inf
    best = None
    a, b = grid.cost_linear, grid.cost_const
    if n == 2:
        p2 = target - axis
        ok = (p2 >= p_min - 1e-12) & (p2 <= p_max + 1e-12)
        if ok.any():
            c = x[0] * axis[ok] ** 2 + a[0] * axis[ok] + x[1] * p2[ok] ** 2 + a[1] * p2[ok] + b.sum()
            i = int(np.argmin(c))
            best_cost = float(c[i])
            best = np.array([axis[ok][i], p2[ok][i]])
    else:
        for p1 in axis:
            p3 = target - p1 - axis
            ok = (p3 >= p_min - 1e-12) & (p3 <= p_max + 1e-12)
            if not ok.any():
                continue
            c = (x[0] * p1 ** 2 + a[0] * p1
                 + x[1] * axis[ok] ** 2 + a[1] * axis[ok]
                 + x[2] * p3[ok] ** 2 + a[2] * p3[ok] + b.sum())
            i = int(np.argmin(c))
            if c[i] < best_cost:
                best_cost = float(c[i])
                best = np.array([p1, axis[ok][i], p3[ok][i]])
    if best is None:
        raise InfeasiblePriceBudget("no lattice point satisfies the price constraints")
    return _solution(best, float("nan"), x, grid)


@dataclass(frozen=True)
class NSEReport:
    """Unilateral-deviation audit of a converged outcome."""

    follower_trials: int
    follower_violations: int
    max_follower_improvement: float
    leader_trials: int
    leader_violations: int
    max_leader_improvement: float
    tolerance: float

    @property
    def clean(self) -> bool:
        return self.follower_violations == 0 and self.leader_violations == 0


def check_nse(outcome: GameOutcome, scenario: Scenario, trials: int,
              seed: int = 0, tol: float = 1e-6) -> NSEReport:
    """Sample unilateral deviations on both sides of a converged outcome.

    Follower side: random single-seller energy deviations, others fixed at
    the stage-2 allocation, respecting the shared budget; the joint utility
    must never improve beyond tol. Leader side: random price vectors on the
    budget slice, costed against the energies the prices were optimized for
    (the stage-1 offers); the optimized prices must stay within tol of the
    best sample.

    Leader samples are uniform draws from the slice's simplex, each draw
    above p_max projected onto the slice (see _leader_prices), so every
    valid scenario is audited, up to total_price = n*p_max.
    """
    if not outcome.converged or outcome.stage2 is None:
        raise ValueError("check_nse requires a converged outcome")
    rng = np.random.default_rng([seed, scenario.seed])
    grid = scenario.grid
    surpluses = scenario.surpluses
    n = scenario.n_users

    x2 = outcome.stage2.energies
    p2 = outcome.stage2.prices
    budget_slack = grid.deficiency - float(x2.sum())

    idx = rng.integers(0, n, size=trials)
    caps = np.minimum(surpluses[idx], x2[idx] + max(budget_slack, 0.0))
    x_dev = rng.random(trials) * caps
    c = surpluses + p2
    gains = (c[idx] * x_dev - 0.5 * x_dev * x_dev) - (c[idx] * x2[idx] - 0.5 * x2[idx] * x2[idx])
    follower_viol = int((gains > tol).sum())
    max_follower = float(gains.max()) if trials else 0.0

    x_off = outcome.stage1.energies
    prices = _leader_prices(rng, grid, trials)
    base_cost = grid_cost(p2, x_off, grid)
    costs = (x_off * prices ** 2 + grid.cost_linear * prices + grid.cost_const).sum(axis=1)
    improvements = base_cost - costs
    leader_viol = int((improvements > tol).sum())
    max_leader = float(improvements.max()) if trials else 0.0

    return NSEReport(
        follower_trials=trials,
        follower_violations=follower_viol,
        max_follower_improvement=max_follower,
        leader_trials=trials,
        leader_violations=leader_viol,
        max_leader_improvement=max_leader,
        tolerance=tol,
    )


def _leader_prices(rng, grid, trials) -> np.ndarray:
    """`trials` price vectors on the slice {sum p = total_price, p_min <= p <= p_max}.

    Each row is a uniform draw from the slice's simplex. A row above p_max
    is replaced by its Euclidean projection onto the slice, the minimizer
    of sum(p**2 - 2*v*p): the grid's price problem at unit energies, solved
    for all such rows in one batch.
    """
    n = grid.cost_linear.size
    span = grid.total_price - n * grid.p_min
    prices = rng.dirichlet(np.ones(n), size=trials) * span + grid.p_min
    over = np.flatnonzero(_any(prices > grid.p_max, axis=1))
    if over.size:
        k = over.size
        prices[over] = _price_rows(np.ones((k, n)), -2.0 * prices[over], [grid.p_min] * k,
                                   [grid.p_max] * k, [grid.total_price] * k)[0]
    return prices
