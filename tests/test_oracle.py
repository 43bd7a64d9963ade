import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import gridtrade
from gridtrade.model import FeasibleSet
from gridtrade.oracle import social_optimality_audit, ve_oracle
from gridtrade.vi_solver import PseudoGradient, ve_closed_form
from tests.conftest import make_scenario


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


class TestSocialOptimalityAudit:
    def test_no_gap_at_the_optimum(self, peak_scenario):
        p = np.full(5, 35.0)
        x_star = ve_oracle(peak_scenario, p)
        report = social_optimality_audit(peak_scenario, x_star, p, samples=5000)
        assert report.max_abs_gap <= 1e-6
        assert report.trials == 5000

    def test_perturbed_point_is_caught(self, peak_scenario):
        p = np.full(5, 35.0)
        x_star = ve_oracle(peak_scenario, p)
        bad = x_star.copy()
        shift = 0.25 * min(bad[0], peak_scenario.users[1].surplus - bad[1])
        bad[0] -= shift
        bad[1] += shift
        report = social_optimality_audit(peak_scenario, bad, p, samples=10_000)
        assert report.max_abs_gap > 0.0
        assert report.argmax_case.startswith("seed=")

    def test_zero_samples_vacuous(self, peak_scenario):
        report = social_optimality_audit(peak_scenario, np.zeros(5), np.full(5, 35.0), samples=0)
        assert report.max_abs_gap == 0.0
        assert report.trials == 0
        assert report.argmax_case == ""

    def test_samples_stay_feasible_implicitly(self, peak_scenario):
        # the audit never reports a gap from an infeasible point: feeding it
        # the true optimum must come back clean across seeds
        p = np.full(5, 35.0)
        x_star = ve_oracle(peak_scenario, p)
        for seed in range(5):
            rep = social_optimality_audit(peak_scenario, x_star, p, samples=2000, seed=seed)
            assert rep.max_abs_gap <= 1e-6


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
        assert "gridtrade.oracle.check_nse" in imported_modules("cli")

    def test_nse_audit_is_defined_among_the_oracles(self):
        assert gridtrade.check_nse.__module__ == "gridtrade.oracle"
        assert gridtrade.NSEReport.__module__ == "gridtrade.oracle"
        assert not hasattr(importlib.import_module("gridtrade.engine"), "check_nse")
