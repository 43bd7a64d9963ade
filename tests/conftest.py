import signal
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from gridtrade import vi_solver
from gridtrade.model import EnergyUser, GridParams, Scenario


def make_scenario(surpluses, deficiency, total_price=175.0, p_min=8.45, p_max=175.0,
                  cost_linear=0.01, cost_const=1.0, seed=0):
    users = tuple(
        EnergyUser(id=i, surplus=float(s), aggregation_count=20)
        for i, s in enumerate(surpluses)
    )
    n = len(users)
    grid = GridParams(
        deficiency=float(deficiency),
        total_price=float(total_price),
        p_min=float(p_min),
        p_max=float(p_max),
        cost_linear=np.full(n, float(cost_linear)),
        cost_const=np.full(n, float(cost_const)),
    )
    return Scenario(users=users, grid=grid, seed=seed)


def scaled(scenario, k):
    """The same game in other units: surpluses, deficiency and price terms
    times k, linear costs times k**2, constant costs times k**3."""
    g = scenario.grid
    users = tuple(replace(u, surplus=u.surplus * k) for u in scenario.users)
    grid = GridParams(deficiency=g.deficiency * k, total_price=g.total_price * k,
                      p_min=g.p_min * k, p_max=g.p_max * k,
                      cost_linear=g.cost_linear * k * k, cost_const=g.cost_const * k * k * k)
    return Scenario(users=users, grid=grid, seed=scenario.seed)


def use_solver(monkeypatch, **changes):
    """Run the follower loop, for the rest of the test, at the default
    setting with these fields changed."""
    monkeypatch.setattr(vi_solver, "SOLVER", replace(vi_solver.SolverConfig(), **changes))


def in_feasible_set(fset, x, tol=0.0):
    """Whether x has fset's shape and lies in its box and under its budget,
    each within tol."""
    x = np.asarray(x, dtype=float)
    if x.shape != fset.upper_bounds.shape:
        return False
    return bool(np.all(x >= -tol) and np.all(x <= fset.upper_bounds + tol)
                and x.sum() <= fset.budget + tol)


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make_peak_scenario():
    """A five-seller instance at experiment scale with a binding budget."""
    rng = np.random.default_rng(5)
    surpluses = rng.uniform(64.0, 240.0, 5)
    return make_scenario(surpluses, 0.5 * surpluses.sum(), seed=5)


@pytest.fixture
def peak_scenario():
    """make_peak_scenario's game."""
    return make_peak_scenario()
