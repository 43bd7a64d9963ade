import ast
import importlib
import inspect
import math
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridtrade
import gridtrade.oracle as oracle
from gridtrade.cli import build_config, sample_scenario
from gridtrade.engine import run_stackelberg
from gridtrade.model import FeasibleSet, GridParams, grid_cost
from gridtrade.oracle import BOUND, _leader_prices, certify, check_nse, ve_oracle
from gridtrade.price_opt import optimize_prices
from gridtrade.vi_solver import PseudoGradient, ve_closed_form
from tests.conftest import make_scenario, scaled, time_limit


class TestVeOracle:
    def test_running_example(self):
        s = make_scenario([3.0, 5.0], 4.0, total_price=2.0, p_min=1.0, p_max=2.0)
        x = ve_oracle(s, np.array([1.0, 1.0]))
        assert x == pytest.approx([1.0, 3.0], abs=1e-8)

    def test_slack_budget_sells_everything(self):
        s = make_scenario([3.0, 5.0], 100.0, total_price=2.0, p_min=1.0, p_max=2.0)
        x = ve_oracle(s, np.array([1.0, 1.0]))
        assert x == pytest.approx([3.0, 5.0], abs=1e-8)

    def test_cross_agreement_with_closed_form(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            E = rng.uniform(64.0, 240.0, n)
            p = rng.uniform(8.45, 175.0, n)
            budget = float(rng.uniform(0.2, 1.4) * E.sum())
            s = make_scenario(E, budget, p_min=1.0, p_max=n * 200.0, total_price=n * 20.0)
            x = ve_oracle(s, p)
            ref = ve_closed_form(PseudoGradient(E, p), FeasibleSet(E, budget))
            worst = max(worst, float(np.abs(x - ref).max()))
        assert worst <= 1e-8


class TestCheckNse:
    def test_clean_at_equilibrium(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        report = check_nse(outcome, peak_scenario, trials=10_000)
        assert report.clean
        assert report.max_follower_improvement <= 1e-6
        assert report.max_leader_improvement <= 1e-6

    def test_quadratic_cost_of_price_transfers(self, peak_scenario):
        # moving mass between two interior prices raises the cost by
        # (x_i + x_j) * eps^2 exactly, by stationarity
        outcome = run_stackelberg(peak_scenario)
        p = outcome.stage2.prices
        x = outcome.stage1.energies
        grid = peak_scenario.grid
        interior = np.nonzero(
            (p > grid.p_min + 1e-6) & (p < grid.p_max - 1e-6) & (x > 0)
        )[0]
        if interior.size >= 2:
            i, j = interior[:2]
            for eps in (1e-3, 1e-2):
                q = p.copy()
                q[i] += eps
                q[j] -= eps
                delta = grid_cost(q, x, grid) - grid_cost(p, x, grid)
                assert delta >= 0.0
                assert delta == pytest.approx((x[i] + x[j]) * eps * eps, rel=1e-4)

    def test_requires_converged_outcome(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        broken = type(outcome)(stage1=outcome.stage1, stage2=None,
                               log=outcome.log, converged=False)
        with pytest.raises(ValueError):
            check_nse(broken, peak_scenario, trials=10)

    def test_deterministic_given_seed(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        a = check_nse(outcome, peak_scenario, trials=500, seed=3)
        b = check_nse(outcome, peak_scenario, trials=500, seed=3)
        assert a == b

    def test_single_point_price_slice_at_p_max(self):
        # total_price = n * p_max leaves one price vector, onto which every
        # draw from the simplex is projected
        s = make_scenario([100.0, 120.0, 140.0], 150.0, total_price=30.0, p_min=1.0, p_max=10.0)
        outcome = run_stackelberg(s)
        with time_limit(20):
            report = check_nse(outcome, s, trials=2000)
        assert report.clean
        assert report.max_leader_improvement == pytest.approx(0.0, abs=1e-9)

    def test_price_slice_just_below_n_p_max(self):
        # almost no simplex draw fits under p_max here; the projected draws
        # still give a full, clean audit
        s = make_scenario([100.0, 120.0, 140.0], 150.0, total_price=29.999, p_min=1.0, p_max=10.0)
        outcome = run_stackelberg(s)
        with time_limit(20):
            report = check_nse(outcome, s, trials=2000)
        assert report.clean
        assert report.leader_trials == 2000


@st.composite
def price_slices(draw):
    """GridParams with n from 1 to 40 and total_price at n*p_min, at n*p_max,
    within 1e-6 relative of n*p_max, or anywhere inside the slice."""
    n = draw(st.integers(1, 40))
    p_min = draw(st.floats(0.3, 10.0))
    p_max = p_min + draw(st.floats(0.0, 170.0))
    where = draw(st.sampled_from(["min", "max", "near_max", "inside"]))
    if where == "min":
        total = n * p_min
    elif where == "max":
        total = n * p_max
    elif where == "near_max":
        total = n * p_max * (1.0 - draw(st.floats(0.0, 1e-6)))
    else:
        total = n * p_min + draw(st.floats(0.0, 1.0)) * n * (p_max - p_min)
    total = min(max(total, n * p_min), n * p_max)
    return GridParams(deficiency=1.0, total_price=total, p_min=p_min, p_max=p_max,
                      cost_linear=np.full(n, 0.01), cost_const=np.ones(n))


class TestLeaderPrices:
    @settings(max_examples=200, deadline=None)
    @given(grid=price_slices(), trials=st.integers(0, 60), seed=st.integers(0, 2 ** 32 - 1))
    def test_samples_lie_on_the_slice(self, grid, trials, seed):
        n, total = grid.cost_linear.size, grid.total_price
        prices = _leader_prices(np.random.default_rng(seed), grid, trials)
        assert prices.shape == (trials, n)
        assert np.all(prices >= grid.p_min) and np.all(prices <= grid.p_max)
        for row in prices.tolist():
            assert abs(math.fsum(row) - total) <= 1e-10 * max(1.0, total)
        # rows already inside the bounds are the simplex draws themselves
        drawn = np.random.default_rng(seed).dirichlet(np.ones(n), size=trials) \
            * (total - n * grid.p_min) + grid.p_min
        kept = np.all(drawn <= grid.p_max, axis=1)
        assert np.array_equal(prices[kept], drawn[kept])
        # the others are projections, p = clip(v - t, p_min, p_max) for one t:
        # no shift v - p below p_max exceeds one above p_min
        for v, p in zip(drawn[~kept], prices[~kept]):
            shift = v - p
            below, above = shift[p < grid.p_max], shift[p > grid.p_min]
            assert below.max(initial=-np.inf) <= above.min(initial=np.inf) \
                + 1e-9 * max(1.0, grid.p_max)

    @pytest.mark.parametrize("n, total", [(4, 200.0), (9, 175.0), (30, 175.0)])
    def test_projections_are_the_per_row_solves(self, n, total):
        # each draw above p_max is solved in one batch; every row matches
        # optimize_prices on that row alone, bit for bit
        grid = GridParams(deficiency=1.0, total_price=total, p_min=1.0, p_max=3.0 * total / n,
                          cost_linear=np.full(n, 0.01), cost_const=np.ones(n))
        prices = _leader_prices(np.random.default_rng(8), grid, 300)
        drawn = np.random.default_rng(8).dirichlet(np.ones(n), size=300) \
            * (total - n * grid.p_min) + grid.p_min
        over = np.any(drawn > grid.p_max, axis=1)
        assert 0 < over.sum() < 300
        for v, p in zip(drawn[over], prices[over]):
            alone = optimize_prices(np.ones(n), replace(grid, cost_linear=-2.0 * v)).prices
            assert p.tobytes() == alone.tobytes()


FIGURES = ["follower", "social", "budget", "leader"]


def fig_game(preset, n, run, **flags):
    """The default game of a preset at seed 1 (flags override the config)."""
    return sample_scenario(build_config({}, {"preset": preset, **flags}), n, run)


def with_stage2(outcome, **fields):
    return replace(outcome, stage2=replace(outcome.stage2, **fields))


def moved_energy(outcome, shift):
    x = outcome.stage2.energies.copy()
    x[0] -= shift
    x[1] += shift
    return with_stage2(outcome, energies=x)


class TestCertify:
    def test_clean_at_equilibrium(self, peak_scenario):
        passed, figures = certify(run_stackelberg(peak_scenario), peak_scenario)
        assert passed
        assert list(figures) == FIGURES + ["scale"]
        assert max(figures[key] for key in FIGURES) <= 1e-8
        assert figures["scale"] == peak_scenario.surpluses.max()

    def test_moved_energy_fails_the_follower(self, peak_scenario):
        scale = peak_scenario.surpluses.max()
        passed, figures = certify(moved_energy(run_stackelberg(peak_scenario), 1e-4 * scale),
                                  peak_scenario)
        assert not passed
        assert figures["follower"] == pytest.approx(1e-4, rel=1e-3)

    def test_one_bound_for_every_figure(self, peak_scenario):
        # the peak game's own figures are below 1e-8, so a move of 0.9e-6 S
        # passes and one of 1.1e-6 S fails, on the follower figure alone
        assert BOUND == 1e-6
        outcome = run_stackelberg(peak_scenario)
        scale = peak_scenario.surpluses.max()
        assert certify(moved_energy(outcome, 0.9 * BOUND * scale), peak_scenario)[0]
        assert not certify(moved_energy(outcome, 1.1 * BOUND * scale), peak_scenario)[0]

    def test_uniform_prices_fail_the_leader(self, peak_scenario):
        # uniform prices are interior, and the stage-1 offers differ, so the
        # gradients 2*x1*p + a differ: no price multiplier fits them all
        outcome = run_stackelberg(peak_scenario)
        passed, figures = certify(replace(outcome, stage2=outcome.stage1), peak_scenario)
        assert not passed
        assert figures["leader"] > 0.1

    def test_prices_off_the_slice_fail_the_leader(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        raised = with_stage2(outcome, prices=outcome.stage2.prices + 1.0)
        assert certify(raised, peak_scenario)[1]["leader"] >= 5.0 / 175.0

    def test_one_point_slice_reads_zero(self):
        s = make_scenario([100.0, 120.0, 140.0], 150.0, total_price=30.0, p_min=1.0, p_max=10.0)
        passed, figures = certify(run_stackelberg(s), s)
        assert passed and figures["leader"] == 0.0

    def test_huge_scale_anchor_fails_on_the_budget_alone(self):
        # the game and the bisection both land on [0, 0]: only the
        # certificate's complementarity sees that the budget is not met
        s = fig_game("fig2_utility_vs_n", 2, 0, surplus_range=[1e200, 1e201])
        outcome = run_stackelberg(s)
        assert outcome.stage2.energies.tolist() == [0.0, 0.0]
        passed, figures = certify(outcome, s)
        assert not passed
        assert [figures[key] for key in FIGURES[:3]] == [0.0, 0.0, 1.0]
        assert figures["leader"] <= BOUND

    def test_overflowing_sums_give_a_failing_figure_not_an_error(self):
        s = make_scenario([1.7e308, 1e308], 380.0)
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = run_stackelberg(s)
        passed, figures = certify(outcome, s)
        assert not passed
        assert math.isnan(figures["social"])

    @pytest.mark.parametrize("k", [10, 20, 30, 40])
    @pytest.mark.parametrize("n, run", [(5, 5), (10, 3), (25, 0)])
    @pytest.mark.parametrize("preset", ["fig2_utility_vs_n", "fig3_cost_vs_n"])
    def test_scaling_by_a_power_of_two_keeps_every_figure(self, preset, n, run, k):
        base = fig_game(preset, n, run)
        f = 2.0 ** k
        game, game_k = run_stackelberg(base), run_stackelberg(scaled(base, f))
        # precondition: the scaled game is the same game in other units
        for name in ("energies", "prices"):
            assert np.array_equal(getattr(game_k.stage2, name), f * getattr(game.stage2, name))
        (_, figures), (_, figures_k) = certify(game, base), certify(game_k, scaled(base, f))
        assert [figures_k[key].hex() for key in FIGURES] == [figures[key].hex() for key in FIGURES]
        assert figures_k["scale"] == f * figures["scale"]


def nested_codes(fn):
    """fn's code object and those of the functions defined inside it."""
    codes = [fn.__code__]
    for code in codes:  # grows as it goes
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return codes


def certificate_globals():
    """certify and every module-level object it reads, directly or through
    the oracle functions it calls, resolved in the oracle module."""
    found, todo = {"certify": certify}, [certify]
    while todo:
        for code in nested_codes(todo.pop()):
            for name in set(code.co_names) & set(vars(oracle)) - set(found):
                found[name] = obj = vars(oracle)[name]
                if inspect.isfunction(obj) and obj.__module__ == "gridtrade.oracle":
                    todo.append(obj)
    return found


class TestCertificateIndependence:
    """The certificate shares no code with the solver, and one bound judges
    all of its figures."""

    def test_reads_nothing_of_the_solver(self):
        solver = {"gridtrade.projection", "gridtrade.price_opt", "gridtrade.vi_solver",
                  "gridtrade.engine"}
        found = certificate_globals()
        assert {"_budget_multiplier", "_fsum", "BOUND"} <= set(found)
        for name, obj in found.items():
            module = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None)
            assert module not in solver, name

    def test_bound_is_its_only_threshold(self):
        found = certificate_globals()
        assert [n for n, v in found.items() if isinstance(v, (int, float))] == ["BOUND"]
        numbers = {c for fn in found.values() if inspect.isfunction(fn)
                   for code in nested_codes(fn) for c in code.co_consts
                   if isinstance(c, (int, float)) and not isinstance(c, bool)}
        assert numbers <= {0.0, 0.5, 2.0}


def imported_modules(module):
    """Every module name a gridtrade module's import statements name,
    relative imports resolved against the package."""
    path = Path(importlib.import_module(f"gridtrade.{module}").__file__)
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["gridtrade" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


class TestBoundary:
    """The modules that play the game hold no verification code: the audits
    live here, and nothing the game runs imports them."""

    @pytest.mark.parametrize("module", ["engine", "vi_solver", "projection", "price_opt",
                                        "model"])
    def test_production_module_does_not_import_the_oracles(self, module):
        names = imported_modules(module)
        assert not {n for n in names if n == "gridtrade.oracle"
                    or n.startswith("gridtrade.oracle.")}

    def test_verify_takes_its_audits_from_the_oracles(self):
        # `from .oracle import ...` in cli, resolved as the test above reads it
        names = imported_modules("cli")
        assert "gridtrade.oracle.certify" in names
        assert not {f"gridtrade.oracle.{audit}" for audit in
                    ("check_nse", "ve_oracle", "social_optimality_audit")} & names
        assert not hasattr(oracle, "social_optimality_audit")
        assert not hasattr(oracle, "OracleReport")

    def test_nse_audit_is_defined_among_the_oracles(self):
        assert gridtrade.check_nse.__module__ == "gridtrade.oracle"
        assert gridtrade.NSEReport.__module__ == "gridtrade.oracle"
        assert not hasattr(importlib.import_module("gridtrade.engine"), "check_nse")
