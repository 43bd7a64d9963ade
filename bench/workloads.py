"""The benchmark's three workloads.

Each workload draws its inputs from the workload seed, runs one closed-loop
step at a time through the program's public API (looked up as a module
attribute, so the tracer's wrappers see it), and checks every output
against a closed-form reference computed outside the timed phase.

A step returns a result; `summarize` reduces it right after the step,
outside the step's time, so that large outputs are not kept; `check` turns
a summary into one entry per item: the relative gap to the reference, or
None for a failed item.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np

from gridtrade import cli, engine, vi_solver
from gridtrade.model import FeasibleSet, grid_cost
from gridtrade.price_opt import optimize_prices
from gridtrade.vi_solver import PseudoGradient, ve_closed_form

# The games stop on the slack-equalization rule at a residual near 1e-5,
# which leaves their outputs about 1e-7 from the closed form; 1e-5 catches a
# wrong answer without flagging that early stop.
GAME_REL_TOL = 1e-5
# Acceptance criterion 1's bound on the follower solve's closed-form gap.
FOLLOWER_ABS_TOL = 1e-6


def digits(rel_gap: float) -> float:
    """Correct decimal digits, capped where the gap is exactly zero."""
    return -math.log10(max(rel_gap, 1e-17))


def _rel_gap(x, ref) -> float:
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    return float(np.abs(x - ref).max() / np.abs(ref).max())


def closed_form_game(scenario) -> tuple[float, float]:
    """(per-user utility, modelled grid cost) of a game from the closed form:
    the equilibrium at the uniform price, the optimal prices against it, and
    the equilibrium at those prices."""
    surpluses = scenario.surpluses
    grid = scenario.grid
    n = scenario.n_users
    fset = FeasibleSet(surpluses, grid.deficiency)
    x1 = ve_closed_form(PseudoGradient(surpluses, np.full(n, grid.total_price / n)), fset)
    prices = optimize_prices(x1, grid).prices
    x2 = ve_closed_form(PseudoGradient(surpluses, prices), fset)
    utility = float(np.sum(surpluses * x2 - 0.5 * x2 * x2 + prices * x2)) / n
    return utility, grid_cost(prices, x2, grid)


class Sweep:
    """`cli.run_experiment` on the fig2 preset; one step is one sweep call
    and one item is one game of it."""

    name = "sweep"
    RUNS = 10

    def __init__(self, seed: int, workdir):
        self.cfg = cli.build_config({}, {
            "preset": "fig2_utility_vs_n", "runs": self.RUNS, "seed": seed,
            "output_path": str(workdir / "sweep"), "dump_per_run": True,
        })
        self.keys = [(n, run) for n in self.cfg.n_values for run in range(self.cfg.runs)]
        self.steps_per_pass = 1
        self._warm_cfg = dataclasses.replace(
            self.cfg, n_values=self.cfg.n_values[:1], runs=1,
            output_path=str(workdir / "warm_up"))
        self._first = None

    def items(self, summary) -> int:
        return len(self.keys)

    def warm_up(self) -> None:
        cli.run_experiment(self._warm_cfg)

    def step(self, j: int):
        return {p.name: p.read_bytes() for p in cli.run_experiment(self.cfg)}

    def summarize(self, files):
        return files

    def references(self) -> list[tuple[float, float]]:
        return [closed_form_game(cli.sample_scenario(self.cfg, n, run)) for n, run in self.keys]

    def check(self, files, refs) -> list[float | None]:
        """Per-game gaps of per_run.csv against the closed form. A game
        also fails when its row differs from the first call of the run, and
        every game fails when another file does."""
        if self._first is None:
            self._first = files
        first = self._first
        if files.keys() != first.keys() or "per_run.csv" not in files or any(
                files[name] != first[name] for name in files if name != "per_run.csv"):
            return [None] * len(self.keys)
        rows = self._rows(files["per_run.csv"])
        first_rows = self._rows(first["per_run.csv"])
        if len(rows) != len(self.keys):
            return [None] * len(self.keys)
        gaps = []
        for key, row, first_row, (utility, cost) in zip(self.keys, rows, first_rows, refs):
            ok = row == first_row and (int(row["n"]), int(row["run"])) == key
            gap = max(abs(float(row["nsg_utility"]) - utility) / abs(utility),
                      abs(float(row["nsg_cost_model"]) - cost) / abs(cost))
            gaps.append(gap if ok and gap <= GAME_REL_TOL else None)
        return gaps

    @staticmethod
    def _rows(data: bytes) -> list[dict]:
        lines = data.decode("utf-8").split("\r\n", 1)[1]
        return list(csv.DictReader(io.StringIO(lines)))


class LargeN:
    """n=500 games drawn with the fig3 rule, each played by
    `engine.run_stackelberg`, exported with `MessageLog.to_jsonl`, written
    to a file and read back. One step is one game plus its export."""

    name = "large_n"
    N = 500
    GAMES = 64

    def __init__(self, seed: int, workdir):
        cfg = cli.build_config({}, {"preset": "fig3_cost_vs_n", "seed": seed})
        self.scenarios = [cli.sample_scenario(cfg, self.N, i) for i in range(self.GAMES)]
        self.path = workdir / "transcript.jsonl"
        self.steps_per_pass = self.GAMES

    def items(self, summary) -> int:
        return 1

    def warm_up(self) -> None:
        self.step(0)

    def step(self, j: int):
        k = j % self.GAMES
        outcome = engine.run_stackelberg(self.scenarios[k])
        self.path.write_text(outcome.log.to_jsonl(), encoding="utf-8")
        return k, outcome, self.path.read_text(encoding="utf-8")

    def summarize(self, result):
        """(scenario index, stage-2 energies, stage-2 prices), or None when
        the game did not converge or its transcript does not read back:
        one line per message, ending on a stop bit after the final offers."""
        k, outcome, text = result
        if not outcome.converged or outcome.stage2 is None:
            return None
        x2 = outcome.stage2.energies
        lines = text.split("\n")
        if len(lines) != len(outcome.log.messages):
            return None
        tail = [json.loads(line) for line in lines[-(2 * self.N + 1):]]
        offers = [m["payload"]["energy"] for m in tail if m["kind"] == "offer"]
        stop = tail[-1]
        if stop["kind"] != "repeat_bit" or stop["payload"]["repeat"] or offers != list(x2):
            return None
        return k, x2, outcome.stage2.prices

    def references(self):
        return self.scenarios

    def check(self, summary, scenarios) -> list[float | None]:
        if summary is None:
            return [None]
        k, x2, prices = summary
        surpluses = scenarios[k].surpluses
        fset = FeasibleSet(surpluses, scenarios[k].grid.deficiency)
        gap = _rel_gap(x2, ve_closed_form(PseudoGradient(surpluses, prices), fset))
        return [gap if gap <= GAME_REL_TOL else None]


class FollowerTight:
    """Follower problems solved by `vi_solver.solve_ve` to the default
    residual tolerance of 1e-9. One step is one solve."""

    name = "follower_tight"
    PROBLEMS = 400

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        m = self.PROBLEMS
        # n and the budget factor are stratified (each size equally often,
        # one factor per equal slice of its range): the marginals stay
        # uniform, and a seed changes which problems are drawn but hardly
        # how much work they are, nor the share of slack budgets.
        sizes = rng.permutation(np.repeat(np.arange(1, 51), m // 50))
        factors = 0.2 + 1.2 * (rng.permutation(m) + rng.random(m)) / m
        self.problems = []
        for n, factor in zip(sizes, factors):
            surpluses = rng.uniform(64.0, 240.0, n)
            prices = rng.uniform(8.45, 175.0, n)
            budget = float(factor * surpluses.sum())
            self.problems.append((PseudoGradient(surpluses, prices), FeasibleSet(surpluses, budget)))
        self.steps_per_pass = self.PROBLEMS

    def items(self, summary) -> int:
        return 1

    def warm_up(self) -> None:
        self.step(0)

    def step(self, j: int):
        k = j % self.PROBLEMS
        x, trace = vi_solver.solve_ve(*self.problems[k])
        return k, x, trace.stop_reason

    def summarize(self, result):
        return result

    def references(self):
        return [ve_closed_form(F, fset) for F, fset in self.problems]

    def check(self, summary, refs) -> list[float | None]:
        k, x, stop_reason = summary
        ref = refs[k]
        if stop_reason != "residual" or float(np.abs(x - ref).max()) > FOLLOWER_ABS_TOL:
            return [None]
        return [_rel_gap(x, ref)]


WORKLOADS = {w.name: w for w in (Sweep, LargeN, FollowerTight)}
