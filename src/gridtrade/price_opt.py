"""Grid-side price optimization.

Given the offered energies x, the grid minimizes the separable convex cost
sum(x_i*p_i**2 + a_i*p_i + b_i) over the price slice
{sum(p) = total_price, p_min <= p_i <= p_max}. The single equality
multiplier nu makes the problem one-dimensional: components with x_i > 0
satisfy p_i(nu) = clamp((-nu - a_i) / (2 x_i), p_min, p_max), while zero-x
components (linear cost) sit at p_min when a_i + nu > 0, at p_max when
a_i + nu < 0, and absorb budget at the threshold nu = -a_i. The total is a
nonincreasing step-linear function of nu, so bisection brackets the root, an
active-set solve pins nu exactly, and any residual budget lands on the
threshold components, cheapest linear coefficient first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GridParams, grid_cost


class InfeasiblePriceBudget(ValueError):
    """total_price cannot be met inside [p_min, p_max]^N."""


@dataclass(frozen=True)
class PriceSolution:
    """Minimizer of the grid cost over the price slice, with its KKT data."""

    prices: np.ndarray
    dual: float
    cost: float


def _total_at(nu, x, a, p_min, p_max, pos, zero):
    p = np.empty_like(a)
    p[pos] = np.clip((-nu - a[pos]) / (2.0 * x[pos]), p_min, p_max)
    p[zero] = np.where(a[zero] + nu > 0.0, p_min, p_max)
    return p


def optimize_prices(x, grid: GridParams, bracket=None) -> PriceSolution:
    """Exact constrained minimizer of the grid cost for offered energies x.

    bracket optionally overrides the initial dual bracket (lo, hi); it is
    expanded geometrically if it does not straddle the root. Raises
    InfeasiblePriceBudget when N*p_min <= total_price <= N*p_max fails.
    """
    x = np.asarray(x, dtype=float)
    a = grid.cost_linear
    n = a.size
    if x.size != n:
        raise ValueError(f"expected {n} energies, got {x.size}")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("energies must be finite and nonnegative")
    p_min, p_max, target = grid.p_min, grid.p_max, grid.total_price
    if n * p_min > target or target > n * p_max:
        raise InfeasiblePriceBudget(
            f"total_price {target:g} outside [{n * p_min:.6g}, {n * p_max:.6g}] "
            f"for {n} users with bounds ({p_min:g}, {p_max:g})"
        )

    pos = x > 0.0
    zero = ~pos

    if bracket is not None:
        lo, hi = float(bracket[0]), float(bracket[1])
    else:
        lo = -(2.0 * float(x.max(initial=0.0)) * p_max + float(a.max()) + 1.0)
        hi = float(a.max()) + 1.0
    span = max(hi - lo, 1.0)
    for _ in range(200):
        if _total_at(lo, x, a, p_min, p_max, pos, zero).sum() >= target:
            break
        lo -= span
        span *= 2.0
    span = max(hi - lo, 1.0)
    for _ in range(200):
        if _total_at(hi, x, a, p_min, p_max, pos, zero).sum() <= target:
            break
        hi += span
        span *= 2.0

    tol_sum = 1e-10 * max(1.0, target)
    nu = hi
    for _ in range(200):
        nu = 0.5 * (lo + hi)
        total = _total_at(nu, x, a, p_min, p_max, pos, zero).sum()
        if total > target:
            lo = nu
        else:
            hi = nu
        if (hi - lo) <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            break

    # Exact solve on the active set identified by the bracket. Positive-x
    # components strictly inside the bounds pin nu linearly; threshold
    # zero-x components (a_i ~ -nu) absorb whatever budget remains.
    for nu_ref in (0.5 * (lo + hi), lo, hi):
        p_lo = _total_at(lo, x, a, p_min, p_max, pos, zero)
        p_hi = _total_at(hi, x, a, p_min, p_max, pos, zero)
        raw = np.empty_like(a)
        raw[pos] = (-nu_ref - a[pos]) / (2.0 * x[pos])
        interior = pos & (raw > p_min) & (raw < p_max)
        # zero-x components that flip between the bracket ends are at the
        # threshold; all others are pinned on the same bound at both ends.
        flipping = zero & (p_lo != p_hi)
        fixed_low = (pos & (raw <= p_min)) | (zero & ~flipping & (p_lo == p_min))
        fixed_high = (pos & (raw >= p_max)) | (zero & ~flipping & (p_lo == p_max))

        fixed_sum = math.fsum(
            [p_min] * int(fixed_low.sum()) + [p_max] * int(fixed_high.sum())
        )
        k = int(interior.sum())
        n_flip = int(flipping.sum())
        if k > 0 and n_flip == 0:
            inv = 1.0 / (2.0 * x[interior])
            nu_exact = -(target - fixed_sum + math.fsum(a[interior] * inv)) / math.fsum(inv)
            p = np.empty_like(a)
            p[interior] = (-nu_exact - a[interior]) / (2.0 * x[interior])
            p[fixed_low] = p_min
            p[fixed_high] = p_max
            if (np.all(p[interior] >= p_min - 1e-9) and np.all(p[interior] <= p_max + 1e-9)
                    and abs(math.fsum(p) - target) <= tol_sum):
                p[interior] = np.clip(p[interior], p_min, p_max)
                return _solution(p, nu_exact, x, grid)
        elif n_flip > 0 and k == 0:
            # Linear components share the threshold price region; fill the
            # remaining budget cheapest coefficient first.
            nu_exact = nu_ref
            p = np.empty_like(a)
            p[fixed_low] = p_min
            p[fixed_high] = p_max
            remaining = target - fixed_sum - n_flip * p_min
            p[flipping] = p_min
            order = sorted(np.nonzero(flipping)[0], key=lambda i: (a[i], i))
            for i in order:
                add = min(max(remaining, 0.0), p_max - p_min)
                p[i] = p_min + add
                remaining -= add
            if abs(math.fsum(p) - target) <= tol_sum and abs(remaining) <= tol_sum:
                return _solution(p, nu_exact, x, grid)
        elif k == 0 and n_flip == 0:
            p = _total_at(nu_ref, x, a, p_min, p_max, pos, zero)
            if abs(math.fsum(p) - target) <= tol_sum:
                return _solution(p, nu_ref, x, grid)

    # Mixed degenerate case (interior components and threshold components at
    # the same dual): assign threshold components greedily, cheapest linear
    # coefficient first, until the budget gap closes.
    p = _total_at(nu, x, a, p_min, p_max, pos, zero)
    gap = target - math.fsum(p)
    if abs(gap) > tol_sum:
        thresh = list(np.nonzero(zero)[0])
        thresh.sort(key=lambda i: (a[i], i))
        for i in thresh:
            move = np.clip(p[i] + gap, p_min, p_max) - p[i]
            p[i] += move
            gap -= move
            if abs(gap) <= tol_sum:
                break
    if abs(math.fsum(p) - target) > tol_sum:
        raise RuntimeError(
            f"price dual search failed to meet the budget (gap {math.fsum(p) - target:.3e})"
        )
    return _solution(p, nu, x, grid)


def _solution(p, nu, x, grid: GridParams) -> PriceSolution:
    p = np.asarray(p, dtype=float)
    return PriceSolution(prices=p, dual=float(nu), cost=grid_cost(p, x, grid))

