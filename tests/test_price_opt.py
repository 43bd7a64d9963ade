import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridtrade import price_opt
from gridtrade.cli import build_config, sample_scenario
from gridtrade.engine import run_stackelberg
from gridtrade.model import GridParams
from gridtrade.oracle import price_grid_oracle
from gridtrade.price_opt import InfeasiblePriceBudget, optimize_prices
from gridtrade.projection import ProjectionError

# Written by the commit before optimize_prices moved onto the breakpoint
# kernel; rewrite with `python -m tests.test_price_opt` only on purpose. The
# ten one-point n=500 price entries were since set to p_min in place: the
# writer would also rewrite the energies, which later follower changes moved.
PRICE_GOLDEN = Path(__file__).parent / "data" / "price_golden.json"
GOLDEN_SEED = 2


def make_grid(n, p_min, p_max, total, a=None, b=None):
    a = np.full(n, 0.01) if a is None else np.asarray(a, dtype=float)
    b = np.full(n, 1.0) if b is None else np.asarray(b, dtype=float)
    return GridParams(deficiency=1.0, total_price=float(total), p_min=float(p_min),
                      p_max=float(p_max), cost_linear=a, cost_const=b)


def inside_total(n, p_min, p_max, u):
    """n*p_min plus the share u of the slice's width, clamped to
    [n*p_min, n*p_max]: at u = 1 rounding can land one ulp above n*p_max."""
    return min(max(n * p_min + u * n * (p_max - p_min), n * p_min), n * p_max)


@st.composite
def price_instances(draw):
    """(x, grid) with n from 1 to 40, any share of idle sellers, linear
    costs all tied, drawn from a few values or all distinct, and a target at
    n*p_min, at n*p_max, inside the slice, or inside an idle seller's step."""
    n = draw(st.integers(1, 40))
    share = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    idle = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))) < share
    # Log-uniform energies put positive sellers inside the slice at a step.
    energy = st.floats(-3.0, 2.4).map(lambda e: 10.0 ** e)
    x = np.where(idle, 0.0, draw(st.lists(energy, min_size=n, max_size=n)))
    costs = st.floats(0.005, 2.0)
    a = draw(st.one_of(
        costs.map(lambda c: np.full(n, c)),
        st.lists(st.sampled_from([0.01, 0.2, 0.46, 1.1]), min_size=n, max_size=n).map(np.array),
        st.lists(costs, min_size=n, max_size=n).map(np.array)))
    p_min = draw(st.floats(0.3, 10.0))
    p_max = p_min + draw(st.floats(0.5, 170.0))
    where = draw(st.sampled_from(["min", "max", "inside", "step"]))
    if where == "min":
        total = n * p_min
    elif where == "max":
        total = n * p_max
    elif where == "inside" or not idle.any():
        total = inside_total(n, p_min, p_max, draw(st.floats(0.0, 1.0)))
    else:
        # At nu = -a_j the sellers tied with idle seller j may take any
        # price, so the total sweeps the step's jump.
        nu = -a[draw(st.sampled_from(np.flatnonzero(idle).tolist()))]
        tied = idle & (a == -nu)
        with np.errstate(divide="ignore", invalid="ignore"):
            others = np.clip((-nu - a) / (2.0 * x), p_min, p_max)[~tied]
        total = math.fsum(others) + tied.sum() * (
            p_min + draw(st.floats(0.0, 1.0)) * (p_max - p_min))
        total = min(max(total, n * p_min), n * p_max)
    return x, make_grid(n, p_min, p_max, total, a=a)


@st.composite
def tiny_offer_instances(draw):
    """(x, grid) on the default price slice: 2 to 5 offers in [20, 150], one
    of them replaced by a positive offer of at most 1e-9. That seller's
    price has slope 1/(2 x_i) in the multiplier, so one ulp of it moves the
    price past the budget's tolerance."""
    n = draw(st.integers(2, 5))
    x = np.array(draw(st.lists(st.floats(20.0, 150.0), min_size=n, max_size=n)))
    x[draw(st.integers(0, n - 1))] = 10.0 ** draw(st.floats(-16.0, -9.0))
    a = draw(st.one_of(st.just(None), st.lists(st.floats(0.005, 2.0), min_size=n,
                                               max_size=n).map(np.array)))
    return x, make_grid(n, 8.45, 175.0, 175.0, a=a)


def assert_optimal(x, grid, sum_error_costs=False):
    """optimize_prices' answer for (x, grid) lies in the bounds, meets the
    budget, satisfies every seller's KKT condition at its dual and, at
    n <= 3, costs no more than the lattice oracle's. With sum_error_costs
    the oracle's cost may be undercut by the cost of the answer's own sum
    error."""
    p_min, p_max, target = grid.p_min, grid.p_max, grid.total_price
    sol = optimize_prices(x, grid)
    p, nu = sol.prices, sol.dual
    assert np.all(p >= p_min) and np.all(p <= p_max)
    assert abs(math.fsum(p) - target) <= 1e-10 * max(1.0, target)
    # KKT of every seller, idle ones included, at the returned dual.
    g = 2.0 * x * p + grid.cost_linear + nu
    tol = 1e-9 * (1.0 + abs(nu) + float(np.abs(g - nu).max()))
    assert np.all(g[p < p_max] >= -tol)
    assert np.all(g[p > p_min] <= tol)
    if x.size <= 3:
        oracle = price_grid_oracle(x, grid, (p_max - p_min) / 100.0)
        slack = 1e-9
        if sum_error_costs:
            # A sum e off the target (within tol_sum) is the optimum of the
            # slice target + e, whose cost differs by up to |e| times the
            # largest marginal cost.
            slack += abs(math.fsum(p) - target) * float(np.abs(g - nu).max())
        assert sol.cost <= oracle.cost + slack


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

    def test_mixed_step_fills_the_seller_at_the_threshold(self):
        # At nu = -1.1 idle seller 1 sits on its step, seller 2 is interior
        # at 1.5 and idle seller 0 (a = 0.46) is past its step at p_max.
        grid = make_grid(3, 1.0, 10.0, 13.0, a=[0.46, 1.1, 0.2])
        x = np.array([0.0, 0.0, 0.3])
        sol = optimize_prices(x, grid)
        assert sol.prices == pytest.approx([10.0, 1.5, 1.5], abs=1e-12)
        assert sol.cost <= price_grid_oracle(x, grid, 0.01).cost + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(instance=price_instances())
    # Unclamped, this "inside" total is 257.1876295085789, one ulp above n*p_max.
    @example(instance=(np.ones(29), make_grid(
        29, 3.05801699700851, 8.868538948571684,
        inside_total(29, 3.05801699700851, 8.868538948571684, 1.0), a=np.ones(29))))
    def test_bounds_budget_kkt_and_oracle(self, instance):
        assert_optimal(*instance)

    @settings(max_examples=200, deadline=None)
    @given(instance=tiny_offer_instances())
    def test_tiny_positive_offer(self, instance):
        # No float multiplier certifies the piece's sum through the tiny
        # seller's price; that seller takes what the others leave instead.
        # Where a multiplier does certify, the sum may still be up to
        # tol_sum off, which the oracle comparison allows for.
        assert_optimal(*instance, sum_error_costs=True)

    @pytest.mark.parametrize("seed, n, run", [
        (11, 25, 42), (11, 25, 72), (11, 25, 78), (1, 25, 22), (1, 25, 32), (1, 25, 57),
        (GOLDEN_SEED, 500, 0)],
        ids=["42", "72", "78", "seed1-22", "seed1-32", "seed1-57", "n500-0"])
    def test_one_point_slice_is_exact(self, seed, n, run):
        # fig3 relaxes p_min to 175/n: the slice is one point. 175/500 is
        # not exactly representable, yet 500 times it rounds to 175.0.
        scenario = sample_scenario(build_config({}, {"preset": "fig3_cost_vs_n", "seed": seed}),
                                   n, run)
        grid = scenario.grid
        assert scenario.seed == seed * 1_000_000 + n * 1000 + run
        assert grid.p_min == 175.0 / n and n * grid.p_min == grid.total_price
        outcome = run_stackelberg(scenario)
        assert np.all(outcome.stage2.prices == grid.p_min)
        # the uniform stage-1 prices again, so stage 2 replays stage 1
        assert outcome.stage2 is outcome.stage1

    def test_infeasible_budget_names_bounds(self):
        grid = make_grid(25, 8.45, 175.0, 175.0)
        with pytest.raises(InfeasiblePriceBudget) as err:
            optimize_prices(np.ones(25), grid)
        assert "211.25" in str(err.value) and "4375" in str(err.value)

    def test_uncertified_multiplier_raises(self, monkeypatch):
        monkeypatch.setattr(price_opt, "_breakpoint_rows",
                            lambda s, lo, hi, target, finish, slope: [None])
        with pytest.raises(ProjectionError, match=re.escape("(target 6.000e+00, 2 components)")):
            optimize_prices(np.array([1.0, 2.0]), make_grid(2, 1.0, 5.0, 6.0))

    def test_rejects_negative_energy(self):
        grid = make_grid(2, 1.0, 10.0, 11.0)
        with pytest.raises(ValueError):
            optimize_prices(np.array([-1.0, 2.0]), grid)
        with pytest.raises(ValueError, match="expected 2 energies, got 3"):
            optimize_prices(np.ones(3), grid)

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


def golden_scenario(preset, n, run):
    return sample_scenario(build_config({}, {"preset": preset, "seed": GOLDEN_SEED}), n, run)


def golden_games():
    """(preset, n, run) of the seeded games whose price inputs the golden
    file holds: fig2 and fig3 at n from 5 to 20, and fig3 at n=500, whose
    price slice is a single point."""
    for preset in ("fig2_utility_vs_n", "fig3_cost_vs_n"):
        for n in (5, 10, 15, 20):
            for run in range(5):
                yield preset, n, run
    for run in range(8):
        yield "fig3_cost_vs_n", 500, run


def golden_records():
    """Each golden game's stage-1 and stage-2 energies, as optimize_prices
    inputs, with the float.hex of the prices they get."""
    for preset, n, run in golden_games():
        scenario = golden_scenario(preset, n, run)
        outcome = run_stackelberg(scenario)
        for stage, result in ((1, outcome.stage1), (2, outcome.stage2)):
            prices = optimize_prices(result.energies, scenario.grid).prices
            yield {"preset": preset, "n": n, "run": run, "stage": stage,
                   "x": [float(v).hex() for v in result.energies],
                   "prices": [float(v).hex() for v in prices]}


class TestPriceGolden:
    def test_prices_bit_identical(self):
        records = json.loads(PRICE_GOLDEN.read_text())
        assert len(records) == 2 * len(list(golden_games()))
        for record in records:
            grid = golden_scenario(record["preset"], record["n"], record["run"]).grid
            x = np.array([float.fromhex(v) for v in record["x"]])
            prices = optimize_prices(x, grid).prices
            assert [float(v).hex() for v in prices] == record["prices"], \
                (record["preset"], record["n"], record["run"], record["stage"])


def batch_prices(xs, grids):
    """_price_rows on one row per (energies, grid) pair."""
    return price_opt._price_rows(
        np.array(xs), np.array([g.cost_linear for g in grids]), [g.p_min for g in grids],
        [g.p_max for g in grids], [g.total_price for g in grids])


class TestPriceRows:
    """_price_rows prices every row of a batch, and each row gets the bits
    optimize_prices gives it alone."""

    @staticmethod
    def golden_inputs():
        """(n, x, grid, float.hex of the prices) of each golden record."""
        for record in json.loads(PRICE_GOLDEN.read_text()):
            grid = golden_scenario(record["preset"], record["n"], record["run"]).grid
            yield record["n"], np.array([float.fromhex(v) for v in record["x"]]), grid, \
                record["prices"]

    @pytest.mark.parametrize("order", [1, -1])
    def test_golden_inputs_batched_by_n(self, order):
        by_n = {}
        for n, x, grid, want in self.golden_inputs():
            by_n.setdefault(n, []).append((x, grid, want))
        assert sorted(by_n) == [5, 10, 15, 20, 500]
        for n, group in by_n.items():
            group = group[::order]
            prices, duals = batch_prices([x for x, _, _ in group], [g for _, g, _ in group])
            for row, dual, (x, grid, want) in zip(prices, duals, group):
                alone = optimize_prices(x, grid)
                assert [float(v).hex() for v in row] == want == \
                    [float(v).hex() for v in alone.prices]
                assert float(dual).hex() == alone.dual.hex()
                # the one-point slice at p_min = 175/500, exact in every seller
                assert n != 500 or np.all(row == grid.p_min)

    def test_rows_with_their_own_costs_bounds_and_targets(self):
        # instances of every kind (steps, one-point slices, all idle) in one
        # batch per n, solved alone and batched in both orders
        rng = np.random.default_rng(23)
        for n in (1, 3, 8):
            rows = []
            for k in range(12):
                x = np.where(rng.random(n) < 0.3 * (k % 3), 0.0, rng.uniform(0.0, 250.0, n))
                p_min = rng.uniform(0.5, 10.0)
                p_max = p_min + rng.uniform(0.0, 170.0) * (k % 4 != 0)
                total = inside_total(n, p_min, p_max, rng.random())
                rows.append((x, make_grid(n, p_min, p_max, total, a=rng.uniform(0.005, 2.0, n))))
            alone = [optimize_prices(x, grid) for x, grid in rows]
            for order in (1, -1):
                batch = rows[::order]
                prices, duals = batch_prices([x for x, _ in batch], [g for _, g in batch])
                for row, dual, sol in zip(prices, duals, alone[::order]):
                    assert row.tobytes() == sol.prices.tobytes()
                    assert float(dual).hex() == sol.dual.hex()

    def test_one_point_rows_take_their_bound(self):
        # rows at n*p_min and at n*p_max whose bounds are not exactly
        # representable (a breakpoint search, step fill or active-set solve,
        # leaves one seller a few ulps off there), a row with p_min == p_max
        # and an ordinary row, batched in both orders
        n = 9
        at_min, at_max = 161.19558182533066, 79.63504769312318
        rows = [
            (np.array([23.451020166982396, 0.0, 0.0, 0.0, 84.4231037608741, 0.0, 0.0,
                       67.6689351831066, 6.0802712958056055]),
             make_grid(n, at_min / n, 58.30765968963921, at_min,
                       a=[0.46, 0.2, 0.46, 0.01, 0.2, 0.46, 0.01, 0.01, 0.2])),
            (np.array([36.78325299951154, 54.56026450612871, 34.387939588142466,
                       99.47667098707564, 85.67870832307996, 93.62285746592993,
                       89.20704424867024, 24.73111200972089, 32.09258077569286]),
             make_grid(n, 1.2164361725688435, at_max / n, at_max,
                       a=[0.2, 0.01, 0.01, 0.01, 0.2, 0.01, 0.01, 0.2, 0.2])),
            (np.linspace(0.0, 8.0, n), make_grid(n, 3.3, 3.3, n * 3.3)),
            (np.linspace(1.0, 9.0, n), make_grid(n, 1.0, 40.0, 100.0)),
        ]
        bounds = [rows[0][1].p_min, rows[1][1].p_max, 3.3, None]
        alone = [optimize_prices(x, grid) for x, grid in rows]
        for (x, grid), sol, bound in zip(rows, alone, bounds):
            p = sol.prices
            if bound is not None:
                assert n * bound == grid.total_price
                assert np.all(p == bound) and math.fsum(p) == grid.total_price
            # KKT of every seller at the returned dual
            g = 2.0 * x * p + grid.cost_linear + sol.dual
            tol = 1e-12 * (1.0 + abs(sol.dual))
            assert np.all(g[p < grid.p_max] >= -tol) and np.all(g[p > grid.p_min] <= tol)
            if bound is not None:
                assert 0.0 in g.tolist()  # the multiplier of the cheapest seller
        for order in (1, -1):
            batch = rows[::order]
            prices, duals = batch_prices([x for x, _ in batch], [g for _, g in batch])
            for row, dual, sol in zip(prices, duals, alone[::order]):
                assert row.tobytes() == sol.prices.tobytes()
                assert float(dual).hex() == sol.dual.hex()

    def test_first_failing_row_raises(self):
        x = np.ones((3, 2))
        a = np.full((3, 2), 0.01)
        with pytest.raises(InfeasiblePriceBudget, match="total_price 30"):
            price_opt._price_rows(x, a, [1.0] * 3, [10.0] * 3, [5.0, 30.0, 40.0])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            price_opt._price_rows(np.array([[1.0, 1.0], [1.0, -1.0]]), a[:2], [1.0] * 2,
                                  [10.0] * 2, [5.0] * 2)


class TestPriceGridOracle:
    def test_single_user(self):
        grid = make_grid(1, 1.0, 10.0, 4.0)
        assert price_grid_oracle(np.array([2.0]), grid, 1e-3).prices == pytest.approx([4.0])

    def test_rejects_large_n(self):
        grid = make_grid(4, 1.0, 10.0, 20.0)
        with pytest.raises(ValueError, match="N <= 3, got 4"):
            price_grid_oracle(np.ones(4), grid, 1e-2)

    @pytest.mark.parametrize("resolution", [0.0, -1e-3])
    def test_rejects_nonpositive_resolution(self, resolution):
        grid = make_grid(2, 1.0, 10.0, 11.0)
        with pytest.raises(ValueError, match="resolution must be positive"):
            price_grid_oracle(np.ones(2), grid, resolution)

    @pytest.mark.parametrize("n, total", [(1, 11.0), (2, 21.0)])
    def test_budget_outside_the_slice_raises(self, n, total):
        with pytest.raises(InfeasiblePriceBudget):
            price_grid_oracle(np.ones(n), make_grid(n, 1.0, 10.0, total), 1e-2)

    def test_two_user_argmin_near_solver(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            x = rng.uniform(0.0, 5.0, 2)
            grid = make_grid(2, 0.5, 3.5, rng.uniform(1.5, 6.5), a=rng.uniform(0.01, 0.4, 2))
            sol = optimize_prices(x, grid)
            oracle = price_grid_oracle(x, grid, 1e-3)
            assert np.abs(sol.prices - oracle.prices).max() <= 2e-3 + 1e-9


if __name__ == "__main__":
    PRICE_GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(record) for record in golden_records()) + "\n]\n")
