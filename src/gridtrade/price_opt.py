"""Grid-side price optimization.

Given the offered energies x, the grid minimizes the separable convex cost
sum(x_i*p_i**2 + a_i*p_i + b_i) over the price slice
{sum(p) = total_price, p_min <= p_i <= p_max}. The single equality
multiplier nu makes the problem one-dimensional: a seller with x_i > 0 has
p_i(nu) = clip((-nu - a_i) / (2 x_i), p_min, p_max), of slope 1/(2 x_i), and
an idle seller (x_i = 0, linear cost) is a step from p_max down to p_min at
nu = -a_i. projection._breakpoint_rows finds the piece or step of the
nonincreasing total that holds the root. On a piece, an active-set solve
pins nu exactly. On a step, nu = -a_i, and the idle sellers tied there take
the budget the others leave, in index order, up to p_max each; breakpoint
order already puts price on the cheapest linear coefficients first, as the
KKT conditions demand.

A row whose slice is one point in floating point, n*p_min == total_price
(else n*p_max == total_price), is priced at that bound in every component,
without a search: n copies of the bound fsum to the one rounded product,
the target. Its dual is a KKT multiplier of that point,
-min_i(2*x_i*p_min + a_i) at p_min and -max_i(2*x_i*p_max + a_i) at p_max.
The search would leave a seller a few ulps off where the bound is not
exactly representable (fig3 at n=500 relaxes p_min to 175/500).

_price_rows prices a batch of independent rows, each with its own energies,
costs, bounds and target, in one breakpoint search: the engine prices every
live game of a stage at once, and oracle.check_nse projects its price draws
the same way. optimize_prices is _price_rows on a batch of one, and each row
of a batch gets the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GridParams, grid_cost
from .projection import (
    _all,
    _any,
    _breakpoint_rows,
    _col,
    _masked_rows,
    _max,
    _min,
    _row_fsums,
    _sum,
    _take,
    _uncertified,
)


class InfeasiblePriceBudget(ValueError):
    """total_price cannot be met inside [p_min, p_max]^N."""


@dataclass(frozen=True)
class PriceSolution:
    """Minimizer of the grid cost over the price slice, with its KKT data."""

    prices: np.ndarray
    dual: float
    cost: float


def optimize_prices(x, grid: GridParams) -> PriceSolution:
    """Exact constrained minimizer of the grid cost for offered energies x:
    _price_rows on a batch of one.

    Raises InfeasiblePriceBudget when N*p_min <= total_price <= N*p_max
    fails, and projection.ProjectionError when no piece certifies.
    """
    x = np.asarray(x, dtype=float)
    a = grid.cost_linear
    n = a.size
    if x.size != n:
        raise ValueError(f"expected {n} energies, got {x.size}")
    prices, duals = _price_rows(x.reshape(1, n), a[None], [grid.p_min], [grid.p_max],
                                [grid.total_price])
    return _solution(prices[0], duals[0], x, grid)


def _price_rows(x, a, p_min, p_max, target):
    """The grid's prices for each row r of the (rows, n) arrays x and a:
    the minimizer of sum(x[r]*p**2 + a[r]*p) over the slice of p_min[r],
    p_max[r] and target[r]. Returns (prices, duals), prices a (rows, n)
    array. A one-point row takes its bound (see the module docstring), and
    one breakpoint search serves the other rows; each row rounds as it does
    alone. Raises ValueError for negative or non-finite energies,
    InfeasiblePriceBudget or projection.ProjectionError for the first row
    that fails.
    """
    if not _all(np.isfinite(x), axis=None) or _any(x < 0.0, axis=None):
        raise ValueError("energies must be finite and nonnegative")
    m, n = x.shape
    p_min, p_max, target = ([float(v) for v in col] for col in (p_min, p_max, target))
    for lo, hi, total in zip(p_min, p_max, target):
        if n * lo > total or total > n * hi:
            raise InfeasiblePriceBudget(
                f"total_price {total:g} outside [{n * lo:.6g}, {n * hi:.6g}] "
                f"for {n} users with bounds ({lo:g}, {hi:g})"
            )
    prices = np.empty_like(x)
    duals = [0.0] * m
    at_min = [n * lo == total for lo, total in zip(p_min, target)]
    at_max = [n * hi == total for hi, total in zip(p_max, target)]
    point = [r for r in range(m) if at_min[r] or at_max[r]]
    rest = [r for r in range(m) if not (at_min[r] or at_max[r])]
    if point:
        bound = _col([p_min[r] if at_min[r] else p_max[r] for r in point])
        prices[point] = bound
        marginal = 2.0 * _take(x, point) * bound + _take(a, point)
        for r, low, high in zip(point, _min(marginal, axis=1).tolist(),
                                _max(marginal, axis=1).tolist()):
            duals[r] = -low if at_min[r] else -high
    if rest:
        bounds = ([col[r] for r in rest] for col in (p_min, p_max, target))
        prices[rest], searched = _searched_rows(_take(x, rest), _take(a, rest), *bounds)
        for r, dual in zip(rest, searched):
            duals[r] = dual
    return prices, duals


def _searched_rows(x, a, p_min, p_max, target):
    """_price_rows by one breakpoint search over every row, the rows checked
    and their bounds and targets floats."""
    m, n = x.shape
    tol_sum = [1e-10 * max(1.0, total) for total in target]
    lo_all, hi_all = _full(p_min, n), _full(p_max, n)
    # An idle seller (x_i = 0) has an infinite slope; its raw price below is
    # +-inf or nan, never interior.
    with np.errstate(divide="ignore"):
        slope = 0.5 / x
    idle = np.isinf(slope)
    prices = np.empty_like(x)
    duals = [0.0] * m

    def finish(rows, nus):
        """Per row, [ok] with its (p, nu) kept: the step fill on an idle
        seller's step, else the exact solve on the active set at nu."""
        ar, lo, hi = _take(a, rows), _take(lo_all, rows), _take(hi_all, rows)
        twice = 2.0 * _take(x, rows)
        neg = -_col(nus)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = (neg - ar) / twice
        interior = (raw > lo) & (raw < hi)
        p = np.where(raw >= hi, hi, lo)
        tied = _take(idle, rows) & (ar == neg)
        ok, piece = [], []
        for j, (r, on_step) in enumerate(zip(rows, _any(tied, axis=1).tolist())):
            if on_step:
                ok.append(_step_fill(p[j], raw[j], interior[j], tied[j], p_min[r], p_max[r],
                                     target[r], tol_sum[r]))
                prices[r], duals[r] = p[j], nus[j]
            else:
                ok.append(False)
                piece.append(j)
        if not piece:
            return ok
        # The rows on a piece: nu solved exactly on the active set.
        rows = [rows[j] for j in piece]
        ar, twice, lo, hi, p, interior = (
            _take(v, piece) for v in (ar, twice, lo, hi, p, interior))
        nu = [nus[j] for j in piece]
        counts = _sum(interior, axis=1).tolist()
        if any(counts):
            with np.errstate(divide="ignore"):
                inv = 1.0 / twice
            for i, (r, n_free, fixed, lin, den) in enumerate(zip(
                    rows, counts, map(math.fsum, _masked_rows(p, ~interior)),
                    map(math.fsum, _masked_rows(ar * inv, interior)),
                    map(math.fsum, _masked_rows(inv, interior)))):
                if n_free:
                    nu[i] = -(target[r] - fixed + lin) / den
            with np.errstate(divide="ignore", invalid="ignore"):
                p = np.where(interior, (-_col(nu) - ar) / twice, p)
        totals = _row_fsums(p)
        for i, (r, n_free, total) in enumerate(zip(rows, counts, totals)):
            if n_free and abs(total - target[r]) > tol_sum[r]:
                # One ulp of nu moves a seller of slope 1/(2 x_i) past
                # tol_sum when x_i is tiny: the steepest interior seller
                # takes what the other prices leave of the target.
                k = int(np.argmin(np.where(interior[i], twice[i], np.inf)))
                p[i, k] = 0.0
                p[i, k] = target[r] - math.fsum(p[i].tolist())
                totals[i] = math.fsum(p[i].tolist())
        clipped = np.minimum(np.maximum(p, lo), hi)
        for j, r, v, low, high, total, row in zip(
                piece, rows, nu, _min(p, axis=1).tolist(), _max(p, axis=1).tolist(),
                totals, clipped):
            ok[j] = (p_min[r] - 1e-9 <= low and high <= p_max[r] + 1e-9
                     and abs(total - target[r]) <= tol_sum[r])
            prices[r], duals[r] = row, v
        return ok

    pieces = _breakpoint_rows(-a, lo_all, hi_all, target, finish, slope=slope)
    for r, checked in enumerate(pieces):
        if checked is None:
            raise _uncertified(target[r], n)
    return prices, duals


def _full(values, n):
    """(rows, n), row r filled with values[r]."""
    return np.repeat(np.array(values)[:, None], n, axis=1)


def _step_fill(p, raw, interior, tied, p_min, p_max, target, tol_sum) -> bool:
    """The step fill, in place on one row's p: the idle sellers tied on the
    step take what the others leave of the target, in index order, up to
    p_max each. Returns its certificate."""
    p[interior] = raw[interior]
    remaining = target - math.fsum(p[~tied].tolist()) - int(tied.sum()) * p_min
    for i in np.flatnonzero(tied):
        add = min(max(remaining, 0.0), p_max - p_min)
        p[i] = p_min + add
        remaining -= add
    return abs(remaining) <= tol_sum and abs(math.fsum(p.tolist()) - target) <= tol_sum


def _solution(p, nu, x, grid: GridParams) -> PriceSolution:
    p = np.asarray(p, dtype=float)
    return PriceSolution(prices=p, dual=float(nu), cost=grid_cost(p, x, grid))
