"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The corpus sizes, tolerances and runtime budgets are
fixed here and not meant to be tuned.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from gridtrade.cli import ExperimentConfig, build_config, run_experiment, sample_scenario
from gridtrade.engine import run_fit, run_stackelberg
from gridtrade.model import FeasibleSet, joint_utility
from gridtrade.oracle import check_nse, price_grid_oracle, ve_oracle
from gridtrade.price_opt import optimize_prices
from gridtrade.vi_solver import PseudoGradient, solve_ve, ve_closed_form
from tests.conftest import make_scenario

CORPUS_SIZE = 1000
CORPUS_SEED = 20240801


def report(criterion, passed, detail):
    print(f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")


@dataclass
class CorpusCase:
    scenario: object
    prices: np.ndarray
    fset: FeasibleSet
    x_solver: np.ndarray
    x_closed: np.ndarray
    distances: list
    converged: bool


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded follower problems spanning slack and binding budgets."""
    rng = np.random.default_rng(CORPUS_SEED)
    cases = []
    t0 = time.perf_counter()
    for _ in range(CORPUS_SIZE):
        n = int(rng.integers(1, 11))
        surpluses = rng.uniform(64.0, 240.0, n)
        prices = rng.uniform(8.45, 175.0, n)
        budget = float(rng.uniform(0.2, 1.4) * surpluses.sum())
        scenario = make_scenario(surpluses, budget, p_min=1.0,
                                 p_max=200.0 * n, total_price=20.0 * n)
        fset = FeasibleSet(surpluses, budget)
        F = PseudoGradient(surpluses, prices)
        x, trace = solve_ve(F, fset)
        x_closed = ve_closed_form(F, fset)
        cases.append(CorpusCase(
            scenario=scenario,
            prices=prices,
            fset=fset,
            x_solver=x,
            x_closed=x_closed,
            distances=[float(np.linalg.norm(rec.x - x_closed)) for rec in trace.records],
            converged=trace.converged,
        ))
    elapsed = time.perf_counter() - t0
    return cases, elapsed


def test_criterion_1_ve_oracle_equivalence(corpus):
    cases, solve_time = corpus
    t0 = time.perf_counter()
    gap_closed = 0.0
    gap_oracle = 0.0
    for case in cases:
        gap_closed = max(gap_closed, float(np.abs(case.x_solver - case.x_closed).max()))
        x_direct = ve_oracle(case.scenario, case.prices)
        gap_oracle = max(gap_oracle, float(np.abs(case.x_solver - x_direct).max()))
    elapsed = solve_time + (time.perf_counter() - t0)
    converged = all(c.converged for c in cases)
    passed = converged and gap_closed <= 1e-6 and gap_oracle <= 1e-6 and elapsed < 60.0
    report(1, passed,
           f"{CORPUS_SIZE} scenarios, closed-form gap {gap_closed:.2e}, "
           f"direct-oracle gap {gap_oracle:.2e}, {elapsed:.1f}s")
    assert converged, "every corpus solve must converge on the residual test"
    assert gap_closed <= 1e-6
    assert gap_oracle <= 1e-6
    assert elapsed < 60.0


def test_criterion_2_price_kkt_and_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(CORPUS_SEED + 1)
    worst_stat = worst_slack = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 250.0, n))
        p_min = rng.uniform(0.5, 10.0)
        p_max = p_min + rng.uniform(5.0, 170.0)
        total = rng.uniform(n * p_min, n * p_max)
        grid = make_scenario(np.ones(n), 1.0, total_price=total, p_min=p_min,
                             p_max=p_max, cost_linear=1.0).grid
        a = rng.uniform(0.005, 2.0, n)
        grid = type(grid)(grid.deficiency, grid.total_price, grid.p_min,
                          grid.p_max, a, grid.cost_const)
        sol = optimize_prices(x, grid)
        grad = 2.0 * x * sol.prices + a
        tol = 1e-12 * max(1.0, p_max)
        interior = (sol.prices > p_min + tol) & (sol.prices < p_max - tol)
        if interior.any():
            worst_stat = max(worst_stat, float(np.abs(grad[interior] + sol.dual).max()))
        lo = sol.prices <= p_min + tol
        hi = sol.prices >= p_max - tol
        if lo.any():
            worst_slack = max(worst_slack, max(0.0, -float((grad[lo] + sol.dual).min())))
        if hi.any():
            worst_slack = max(worst_slack, max(0.0, float((grad[hi] + sol.dual).max())))

    beaten = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 8.0, n))
        p_min = rng.uniform(0.3, 1.0)
        p_max = p_min + rng.uniform(1.0, 3.0)
        total = rng.uniform(n * p_min, n * p_max)
        grid = make_scenario(np.ones(n), 1.0, total_price=total, p_min=p_min,
                             p_max=p_max).grid
        a = rng.uniform(0.005, 0.5, n)
        grid = type(grid)(grid.deficiency, grid.total_price, grid.p_min,
                          grid.p_max, a, grid.cost_const)
        sol = optimize_prices(x, grid)
        oracle = price_grid_oracle(x, grid, 1e-3)
        if sol.cost > oracle.cost + 1e-9:
            beaten += 1
    elapsed = time.perf_counter() - t0
    passed = worst_stat <= 1e-7 and worst_slack <= 1e-7 and beaten == 0 and elapsed < 30.0
    report(2, passed,
           f"stationarity {worst_stat:.2e}, comp-slack {worst_slack:.2e}, "
           f"oracle beats {beaten}/100, {elapsed:.1f}s")
    assert worst_stat <= 1e-7
    assert worst_slack <= 1e-7
    assert beaten == 0
    assert elapsed < 30.0


def test_criterion_3_nse_stability():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(seed=CORPUS_SEED + 2)
    games = 0
    follower_viol = leader_viol = 0
    worst_follower = worst_leader = -np.inf
    n_cycle = [3, 4, 5, 6, 7, 8]
    run = 0
    while games < 100:
        n = n_cycle[games % len(n_cycle)]
        scenario = sample_scenario(cfg, n, run)
        run += 1
        outcome = run_stackelberg(scenario)
        if not outcome.converged:
            continue
        games += 1
        rep = check_nse(outcome, scenario, trials=10_000, seed=games)
        follower_viol += rep.follower_violations
        leader_viol += rep.leader_violations
        worst_follower = max(worst_follower, rep.max_follower_improvement)
        worst_leader = max(worst_leader, rep.max_leader_improvement)
    elapsed = time.perf_counter() - t0
    passed = follower_viol == 0 and leader_viol == 0 and elapsed < 120.0
    report(3, passed,
           f"100 games x 10k deviations/side: follower viol {follower_viol} "
           f"(max {worst_follower:.2e}), leader viol {leader_viol} "
           f"(max {worst_leader:.2e}), {elapsed:.1f}s")
    assert follower_viol == 0
    assert leader_viol == 0
    assert elapsed < 120.0


def test_criterion_4_social_optimality(corpus):
    cases, _ = corpus
    worst = -np.inf
    for case in cases:
        x_direct = ve_oracle(case.scenario, case.prices)
        u_solver = joint_utility(case.x_solver, case.scenario, case.prices)
        u_direct = joint_utility(x_direct, case.scenario, case.prices)
        worst = max(worst, u_direct - u_solver)
    passed = worst <= 1e-6
    report(4, passed, f"max oracle-over-solver utility excess {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_5_convergence_trace_scenario():
    cfg = build_config({}, {"preset": "fig1_convergence"})
    scenario = sample_scenario(cfg, 5, 0)
    outcome = run_stackelberg(scenario)
    fset = FeasibleSet(scenario.surpluses, scenario.grid.deficiency)
    iters = []
    for prices in (outcome.stage1.prices, outcome.stage2.prices):
        x, trace = solve_ve(PseudoGradient(scenario.surpluses, prices), fset)
        assert trace.converged
        assert trace.residuals[-1] <= 1e-8
        iters.append(trace.iterations)
    x2, trace2 = solve_ve(PseudoGradient(scenario.surpluses, outcome.stage2.prices), fset)
    utilities = scenario.surpluses * x2 - 0.5 * x2 ** 2 + outcome.stage2.prices * x2
    order = np.argsort(scenario.surpluses)
    ordered = bool(np.all(np.diff(utilities[order]) > 0.0))
    passed = max(iters) <= 20 and ordered
    report(5, passed,
           f"stage iterations {iters} (limit 20), utilities ordered by surplus: {ordered}")
    assert max(iters) <= 20
    assert ordered


def _sweep_means(preset, seed=1, runs=100):
    cfg = build_config({}, {"preset": preset, "seed": seed, "runs": runs})
    rows = {}
    for n in cfg.n_values:
        nsg_u, fit_u, nsg_c, fit_c = [], [], [], []
        for run in range(cfg.runs):
            scenario = sample_scenario(cfg, n, run)
            outcome = run_stackelberg(scenario)
            assert outcome.converged
            fit = run_fit(scenario, cfg.fit_tariff)
            nsg_u.append(outcome.stage2.total_utility / n)
            fit_u.append(fit.total_utility / n)
            nsg_c.append(outcome.stage2.grid_cost)
            fit_c.append(fit.grid_cost)
        rows[n] = (np.mean(nsg_u), np.mean(fit_u), np.mean(nsg_c), np.mean(fit_c))
    return cfg.n_values, rows


def test_criterion_6_utility_comparison_trend():
    t0 = time.perf_counter()
    n_values, rows = _sweep_means("fig2_utility_vs_n")
    nsg = [rows[n][0] for n in n_values]
    fit = [rows[n][1] for n in n_values]
    ratios = [a / b for a, b in zip(nsg, fit)]
    above = all(a > b for a, b in zip(nsg, fit))
    nsg_mono = all(b <= a for a, b in zip(nsg, nsg[1:]))
    fit_mono = all(b <= a for a, b in zip(fit, fit[1:]))
    elapsed = time.perf_counter() - t0
    passed = above and nsg_mono and fit_mono
    report(6, passed,
           f"game/flat-tariff per-user utility ratios {[f'{r:.3f}' for r in ratios]}, "
           f"game above flat tariff at every n: {above}, "
           f"nonincreasing (game {nsg_mono}, flat {fit_mono}), {elapsed:.1f}s")
    assert nsg_mono, f"game utilities must be nonincreasing in n, got {nsg}"
    assert fit_mono, f"flat-tariff utilities must be nonincreasing in n, got {fit}"
    assert above, (
        "game per-user utility must exceed the flat-tariff baseline at every n; "
        f"measured ratios {ratios} (documented defaults: tariff 60, price budget 175)"
    )


def test_criterion_7_cost_comparison_trend():
    t0 = time.perf_counter()
    n_values, rows = _sweep_means("fig3_cost_vs_n")
    nsg_cost = [rows[n][2] for n in n_values]
    fit_cost = [rows[n][3] for n in n_values]
    diffs = np.diff(nsg_cost)
    non_monotone = bool((diffs > 0).any() and (diffs < 0).any())
    interior_min = any(
        nsg_cost[i] <= nsg_cost[i - 1] and nsg_cost[i] <= nsg_cost[i + 1]
        and (nsg_cost[i] < nsg_cost[0] and nsg_cost[i] < nsg_cost[-1])
        for i in range(1, len(nsg_cost) - 1)
    )
    i10 = n_values.index(10)
    cheaper_at_10 = nsg_cost[i10] <= fit_cost[i10]
    elapsed = time.perf_counter() - t0
    passed = non_monotone and interior_min and cheaper_at_10
    report(7, passed,
           f"game cost sequence {[f'{c:.3g}' for c in nsg_cost]}, "
           f"non-monotone: {non_monotone}, interior minimum: {interior_min}, "
           f"game cheaper than flat tariff at n=10: {cheaper_at_10}, {elapsed:.1f}s")
    assert cheaper_at_10, (
        f"game cost {nsg_cost[i10]:.4g} must not exceed flat-tariff cost "
        f"{fit_cost[i10]:.4g} at n=10"
    )
    assert non_monotone and interior_min, (
        "game cost must be non-monotone in n with an interior minimum; "
        f"measured sequence {nsg_cost} is monotone decreasing under the "
        "documented defaults (exact price optimization keeps large networks cheap)"
    )


def test_criterion_8_preset_determinism(tmp_path):
    for preset, runs in (("fig1_convergence", 1),
                         ("fig2_utility_vs_n", 25),
                         ("fig3_cost_vs_n", 25)):
        cfg = build_config({}, {"preset": preset, "runs": runs,
                                "output_path": str(tmp_path / preset)})
        first = {p: p.read_bytes() for p in run_experiment(cfg)}
        second = {p: p.read_bytes() for p in run_experiment(cfg)}
        assert first == second, f"{preset}: reruns of one config differ"
    report(8, True, "byte-identical reruns for all three presets")


def test_criterion_9_fejer_monotonicity(corpus):
    cases, _ = corpus
    worst = -np.inf
    for case in cases:
        d = case.distances
        for a, b in zip(d, d[1:]):
            worst = max(worst, b - a)
    passed = worst <= 1e-12
    report(9, passed, f"worst distance increase {worst:.2e} over {CORPUS_SIZE} solves")
    assert worst <= 1e-12
