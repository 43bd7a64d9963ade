import math

import numpy as np
import pytest

from gridtrade.model import GridParams
from gridtrade.oracle import price_grid_oracle
from gridtrade.price_opt import InfeasiblePriceBudget, optimize_prices


def make_grid(n, p_min, p_max, total, a=None, b=None):
    a = np.full(n, 0.01) if a is None else np.asarray(a, dtype=float)
    b = np.full(n, 1.0) if b is None else np.asarray(b, dtype=float)
    return GridParams(deficiency=1.0, total_price=float(total), p_min=float(p_min),
                      p_max=float(p_max), cost_linear=a, cost_const=b)


class TestOptimizePrices:
    def test_two_seller_hand_kkt(self):
        # stationarity 2*1*p1 = 2*3*p2 with p1 + p2 = 4 gives (3, 1);
        # tiny linear terms keep the instance inside the valid parameter set
        grid = make_grid(2, 0.5, 3.0, 4.0, a=[1e-9, 1e-9])
        sol = optimize_prices(np.array([1.0, 3.0]), grid)
        assert sol.prices == pytest.approx([3.0, 1.0], abs=1e-6)
        oracle = price_grid_oracle(np.array([1.0, 3.0]), grid, 1e-4)
        assert sol.cost <= oracle.cost + 1e-9

    def test_symmetric_split(self):
        grid = make_grid(4, 8.45, 175.0, 175.0)
        sol = optimize_prices(np.full(4, 50.0), grid)
        assert sol.prices == pytest.approx([43.75] * 4, abs=1e-9)

    def test_single_user_pinned_by_equality(self):
        grid = make_grid(1, 8.45, 175.0, 35.0)
        for x in (0.0, 7.0, 200.0):
            assert optimize_prices(np.array([x]), grid).prices == pytest.approx([35.0])

    def test_zero_energy_component_absorbs_slack(self):
        # loading price onto the idle seller is nearly free and relieves the
        # heavy seller; the optimum is (p_min, p_max), not (p_max, p_min)
        grid = make_grid(2, 1.0, 10.0, 11.0, a=[0.01, 0.02])
        sol = optimize_prices(np.array([1000.0, 0.0]), grid)
        assert sol.prices == pytest.approx([1.0, 10.0], abs=1e-9)
        oracle = price_grid_oracle(np.array([1000.0, 0.0]), grid, 1e-3)
        assert sol.cost <= oracle.cost + 1e-9

    def test_all_idle_sellers_filled_cheapest_first(self):
        grid = make_grid(3, 1.0, 10.0, 15.0, a=[0.03, 0.01, 0.02])
        sol = optimize_prices(np.zeros(3), grid)
        assert sol.prices == pytest.approx([1.0, 10.0, 4.0], abs=1e-9)

    def test_infeasible_budget_names_bounds(self):
        grid = make_grid(25, 8.45, 175.0, 175.0)
        with pytest.raises(InfeasiblePriceBudget) as err:
            optimize_prices(np.ones(25), grid)
        assert "211.25" in str(err.value) and "4375" in str(err.value)

    def test_rejects_negative_energy(self):
        grid = make_grid(2, 1.0, 10.0, 11.0)
        with pytest.raises(ValueError):
            optimize_prices(np.array([-1.0, 2.0]), grid)

    def test_budget_and_bounds_always_met(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 250.0, n))
            p_min = rng.uniform(0.5, 10.0)
            p_max = p_min + rng.uniform(5.0, 170.0)
            total = rng.uniform(n * p_min, n * p_max)
            grid = make_grid(n, p_min, p_max, total, a=rng.uniform(0.005, 2.0, n))
            sol = optimize_prices(x, grid)
            assert abs(math.fsum(sol.prices) - total) <= 1e-9
            assert np.all(sol.prices >= p_min - 1e-12)
            assert np.all(sol.prices <= p_max + 1e-12)

    def test_kkt_residuals(self):
        rng = np.random.default_rng(13)
        worst_stat = worst_slack = 0.0
        for _ in range(300):
            n = int(rng.integers(1, 12))
            x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 250.0, n))
            p_min = rng.uniform(0.5, 10.0)
            p_max = p_min + rng.uniform(5.0, 170.0)
            total = rng.uniform(n * p_min, n * p_max)
            grid = make_grid(n, p_min, p_max, total, a=rng.uniform(0.005, 2.0, n))
            sol = optimize_prices(x, grid)
            grad = 2.0 * x * sol.prices + grid.cost_linear
            tol = 1e-12 * max(1.0, p_max)
            interior = (sol.prices > p_min + tol) & (sol.prices < p_max - tol)
            if interior.any():
                worst_stat = max(worst_stat, float(np.abs(grad[interior] + sol.dual).max()))
            at_lo = sol.prices <= p_min + tol
            at_hi = sol.prices >= p_max - tol
            if at_lo.any():
                worst_slack = max(worst_slack, max(0.0, -float((grad[at_lo] + sol.dual).min())))
            if at_hi.any():
                worst_slack = max(worst_slack, max(0.0, float((grad[at_hi] + sol.dual).max())))
        assert worst_stat <= 1e-7
        assert worst_slack <= 1e-7

    def test_uniqueness_across_brackets(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            x = rng.uniform(0.5, 250.0, n)
            grid = make_grid(n, 8.45, 175.0, rng.uniform(n * 8.45, n * 175.0))
            a = optimize_prices(x, grid).prices
            b = optimize_prices(x, grid, bracket=(-1e7, 1e4)).prices
            assert np.abs(a - b).max() <= 1e-9

    def test_monotone_response_to_own_energy(self):
        # heavier sellers never see their price rise (interior regime)
        grid = make_grid(3, 0.5, 100.0, 30.0, a=[0.01, 0.01, 0.01])
        others = np.array([2.0, 3.0])
        last = np.inf
        for xj in np.linspace(0.5, 8.0, 25):
            x = np.concatenate([[xj], others])
            sol = optimize_prices(x, grid)
            assert sol.prices[0] <= last + 1e-9
            last = sol.prices[0]

    def test_oracle_never_beaten(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 8.0, n))
            p_min = rng.uniform(0.3, 1.0)
            p_max = p_min + rng.uniform(1.0, 3.0)
            total = rng.uniform(n * p_min, n * p_max)
            grid = make_grid(n, p_min, p_max, total, a=rng.uniform(0.005, 0.5, n))
            sol = optimize_prices(x, grid)
            oracle = price_grid_oracle(x, grid, 1e-3)
            assert sol.cost <= oracle.cost + 1e-9


class TestPriceGridOracle:
    def test_single_user(self):
        grid = make_grid(1, 1.0, 10.0, 4.0)
        assert price_grid_oracle(np.array([2.0]), grid, 1e-3).prices == pytest.approx([4.0])

    def test_rejects_large_n(self):
        grid = make_grid(4, 1.0, 10.0, 20.0)
        with pytest.raises(ValueError):
            price_grid_oracle(np.ones(4), grid, 1e-2)

    def test_two_user_argmin_near_solver(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            x = rng.uniform(0.0, 5.0, 2)
            grid = make_grid(2, 0.5, 3.5, rng.uniform(1.5, 6.5), a=rng.uniform(0.01, 0.4, 2))
            sol = optimize_prices(x, grid)
            oracle = price_grid_oracle(x, grid, 1e-3)
            assert np.abs(sol.prices - oracle.prices).max() <= 2e-3 + 1e-9
