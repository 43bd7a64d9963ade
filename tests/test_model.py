import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridtrade.model import (
    FeasibleSet,
    GridParams,
    Scenario,
    grid_cost,
    joint_utility,
    validate_scenario,
)
from tests.conftest import in_feasible_set, make_scenario

finite = dict(allow_nan=False, allow_infinity=False)


def seller_utility(x, surplus, price):
    """One seller's utility E*x - x**2/2 + p*x: joint_utility of a one-seller
    scenario."""
    return joint_utility([x], make_scenario([surplus], 1.0), [price])


class TestEuUtility:
    """The utility of one energy user (EU), the game's seller."""

    def test_zero_trade_zero_utility(self):
        assert seller_utility(0.0, 64.0, 35.0) == 0.0

    def test_hand_value_at_experiment_scale(self):
        # 64*100 - 100^2/2 + 35*100
        assert seller_utility(100.0, 64.0, 35.0) == pytest.approx(4900.0, abs=1e-12)

    def test_unconstrained_maximum_at_surplus_plus_price(self):
        # single-variable calculus: the derivative E - x + p vanishes at x = E + p
        best = seller_utility(4.0, 3.0, 1.0)
        assert best == pytest.approx(8.0, abs=1e-12)
        for h in (1e-3, 0.1, 1.0):
            assert seller_utility(4.0 - h, 3.0, 1.0) < best
            assert seller_utility(4.0 + h, 3.0, 1.0) < best

    @given(
        surplus=st.floats(0.5, 500.0, **finite),
        price=st.floats(0.01, 300.0, **finite),
        x1=st.floats(0.0, 500.0, **finite),
        x2=st.floats(0.0, 500.0, **finite),
    )
    def test_strictly_concave_in_trade(self, surplus, price, x1, x2):
        if abs(x1 - x2) < 1e-6:
            return
        mid = seller_utility(0.5 * (x1 + x2), surplus, price)
        avg = 0.5 * (seller_utility(x1, surplus, price) + seller_utility(x2, surplus, price))
        # Jensen gap is (x1 - x2)^2 / 8 exactly for unit curvature
        assert mid - avg > 0.1 * (x1 - x2) ** 2 / 8.0

    @given(
        surplus=st.floats(0.5, 500.0, **finite),
        price=st.floats(0.01, 300.0, **finite),
        x=st.floats(1e-3, 500.0, **finite),
        bump=st.floats(1e-3, 50.0, **finite),
    )
    def test_increasing_in_surplus_and_price(self, surplus, price, x, bump):
        base = seller_utility(x, surplus, price)
        assert seller_utility(x, surplus + bump, price) > base
        assert seller_utility(x, surplus, price + bump) > base


class TestJointUtility:
    def test_all_zero(self):
        s = make_scenario([3.0, 5.0], 4.0, total_price=2.0, p_min=1.0, p_max=2.0)
        assert joint_utility([0.0, 0.0], s, [1.0, 1.0]) == 0.0

    def test_hand_sum(self):
        s = make_scenario([3.0, 5.0], 4.0, total_price=2.0, p_min=1.0, p_max=2.0)
        assert joint_utility([1.0, 3.0], s, [1.0, 1.0]) == pytest.approx(17.0, abs=1e-12)

    def test_additivity_over_scenario_halves(self):
        rng = np.random.default_rng(2)
        E = rng.uniform(64, 240, 6)
        p = rng.uniform(8.45, 175, 6)
        x = rng.uniform(0, E)
        s = make_scenario(E, E.sum())
        s1 = make_scenario(E[:3], E.sum())
        s2 = make_scenario(E[3:], E.sum())
        whole = joint_utility(x, s, p)
        parts = joint_utility(x[:3], s1, p[:3]) + joint_utility(x[3:], s2, p[3:])
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_matches_per_user_sum(self):
        rng = np.random.default_rng(3)
        E = rng.uniform(64, 240, 8)
        p = rng.uniform(8.45, 175, 8)
        x = rng.uniform(0, E)
        s = make_scenario(E, E.sum())
        total = math.fsum(Ei * xi - 0.5 * xi * xi + pi * xi
                          for xi, Ei, pi in zip(x.tolist(), E.tolist(), p.tolist()))
        assert joint_utility(x, s, p) == pytest.approx(total, rel=1e-12)

    def test_length_mismatch(self):
        s = make_scenario([3.0, 5.0], 4.0, total_price=2.0, p_min=1.0, p_max=2.0)
        with pytest.raises(ValueError):
            joint_utility([1.0], s, [1.0, 1.0])


class TestGridCost:
    def test_zero_energy_leaves_fixed_terms(self):
        g = GridParams(10.0, 4.0, 1.0, 2.0, np.array([0.2, 0.3]), np.array([1.0, 1.5]))
        assert grid_cost([1.0, 2.0], [0.0, 0.0], g) == pytest.approx(
            0.2 * 1.0 + 0.3 * 2.0 + 2.5, abs=1e-12
        )

    def test_hand_value(self):
        g = GridParams(10.0, 4.0, 0.5, 3.0, np.array([0.01, 0.01]), np.array([1.0, 1.0]))
        assert grid_cost([3.0, 1.0], [1.0, 3.0], g) == pytest.approx(14.04, abs=1e-12)

    def test_monotone_in_prices(self):
        g = GridParams(10.0, 4.0, 0.5, 3.0, np.array([0.01, 0.01]), np.array([1.0, 1.0]))
        lo = grid_cost([1.0, 1.5], [1.0, 3.0], g)
        hi = grid_cost([1.2, 1.8], [1.0, 3.0], g)
        assert lo < hi

    @given(
        p1=st.floats(0.1, 100.0, **finite),
        p2=st.floats(0.1, 100.0, **finite),
        gamma=st.floats(0.01, 0.99, **finite),
    )
    def test_strictly_convex_in_prices(self, p1, p2, gamma):
        if abs(p1 - p2) < 1e-6:
            return
        g = GridParams(10.0, 4.0, 0.01, 200.0, np.array([0.7]), np.array([1.0]))
        x = [2.5]
        mix = grid_cost([gamma * p1 + (1 - gamma) * p2], x, g)
        chord = gamma * grid_cost([p1], x, g) + (1 - gamma) * grid_cost([p2], x, g)
        assert mix < chord

    def test_length_mismatch_and_nonfinite(self):
        g = GridParams(10.0, 4.0, 0.5, 3.0, np.array([0.01, 0.01]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            grid_cost([1.0], [1.0, 2.0], g)
        with pytest.raises(ValueError):
            grid_cost([1.0, float("nan")], [1.0, 2.0], g)
        with pytest.raises(ValueError, match="cost_linear must be one-dimensional"):
            replace(g, cost_linear=np.full((2, 1), 0.01))


class TestFeasibleSet:
    def test_membership(self):
        fs = FeasibleSet(np.array([3.0, 5.0]), 4.0)
        assert in_feasible_set(fs, [1.0, 3.0])
        assert not in_feasible_set(fs, [2.0, 3.0])          # budget
        assert not in_feasible_set(fs, [-0.1, 0.0])         # lower box
        assert not in_feasible_set(fs, [3.5, 0.0])          # upper box
        assert in_feasible_set(fs, [2.0, 2.1], tol=0.2)
        assert not in_feasible_set(fs, [1.0, 1.0, 1.0])     # shape
        assert not in_feasible_set(fs, [[1.0, 3.0]])

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            FeasibleSet(np.array([3.0, -1.0]), 4.0)
        with pytest.raises(ValueError):
            FeasibleSet(np.array([3.0]), 0.0)


class TestValidateScenario:
    def test_well_formed(self, peak_scenario):
        assert validate_scenario(peak_scenario) == []

    def test_infeasible_price_budget_reported(self):
        s = make_scenario([100.0] * 25, 500.0)  # 25 * 8.45 = 211.25 > 175
        report = validate_scenario(s)
        assert any("211.25" in r and "175" in r for r in report)

    def test_zero_cost_coefficient(self):
        s = make_scenario([100.0, 120.0], 50.0, cost_linear=0.01)
        bad = GridParams(
            s.grid.deficiency, s.grid.total_price, s.grid.p_min, s.grid.p_max,
            np.array([0.0, 0.01]), s.grid.cost_const,
        )
        report = validate_scenario(Scenario(s.users, bad, s.seed))
        assert any("a_i" in r for r in report)

    def test_reports_all_violations(self):
        s = make_scenario([100.0, -5.0], -2.0, seed=-1)
        grid = replace(s.grid, cost_linear=np.full(3, 0.01))
        users = (replace(s.users[0], aggregation_count=0), s.users[1])
        assert validate_scenario(Scenario(users, grid, s.seed)) == [
            "user 0: aggregation_count must be at least 1, got 0",
            "user 1: surplus must be positive and finite, got -5.0",
            "deficiency must be positive, got -2.0",
            "cost vectors must have length 2, got a:3 b:2",
            "seed must be nonnegative, got -1",
        ]

    def test_no_users_is_the_only_report(self):
        s = make_scenario([100.0], -2.0, seed=-1)
        assert validate_scenario(Scenario((), s.grid, s.seed)) == ["scenario has no users"]

    def test_duplicate_ids(self):
        s = make_scenario([100.0, 120.0], 50.0)
        users = (s.users[0], s.users[0])
        report = validate_scenario(Scenario(users, s.grid, s.seed))
        assert any("contiguous" in r for r in report)

    @pytest.mark.parametrize("field, value", [
        ("total_price", math.nan), ("total_price", math.inf),
        ("p_min", math.nan), ("p_max", math.nan), ("p_max", math.inf),
    ])
    def test_non_finite_price_parameters_reported(self, field, value):
        s = make_scenario([100.0, 120.0], 50.0, **{field: value})
        report = validate_scenario(s)
        assert any(r.startswith(f"{field} must be finite") for r in report), report

    @pytest.mark.parametrize("field, name", [("cost_linear", "a_i"), ("cost_const", "b_i")])
    def test_non_finite_cost_coefficients_reported(self, field, name):
        s = make_scenario([100.0, 120.0], 50.0, **{field: math.inf})
        report = validate_scenario(s)
        assert any(name in r and "finite" in r for r in report), report
