import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gridtrade.engine as engine
import gridtrade.vi_solver as vi_solver
from gridtrade.cli import build_config, sample_scenario, scenario_from_dict
from gridtrade.engine import MessageLog, ScenarioValidationError, run_fit, run_stackelberg
from gridtrade.model import FeasibleSet, grid_cost
from gridtrade.oracle import check_nse
from gridtrade.price_opt import optimize_prices
from gridtrade.vi_solver import PseudoGradient, ve_closed_form
from tests.conftest import make_peak_scenario, make_scenario, use_solver

GOLDEN_TRANSCRIPT = Path(__file__).parent / "data" / "peak_transcript.jsonl"

ROUND_ORDER = ("announce", "price_update", "offer", "slack_report", "repeat_bit")

# Where orjson's float text and json.dumps's part ways (see
# engine._json_floats): the non-finite values, zero, the subnormals, the
# largest float, and 1e-4 and 1e16 with their neighbours one ulp either side.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.225073858507201e-308,
               sys.float_info.min, sys.float_info.max] + [
    v for edge in (1e-4, 1e16)
    for v in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]


class RecordingLog(MessageLog):
    """A MessageLog that also keeps the values of every accepted append, so
    a test can render the reference transcript from what went in."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def append(self, round, deficiency, total_price, n_users):
        super().append(round, deficiency, total_price, n_users)
        self.calls.append(("announce", round, {
            "deficiency": deficiency, "total_price": total_price, "n_users": n_users}))

    def append_round(self, round, offers, slacks, repeat):
        super().append_round(round, offers, slacks, repeat)
        self.calls.append(("round", round, np.array(offers, dtype=float).tolist(),
                           np.array(slacks, dtype=float).tolist(), repeat))

    def _append_frozen(self, entry):
        # the engine's lockstep announces and rounds come in here, past
        # append and append_round
        super()._append_frozen(entry)
        if isinstance(entry, engine._Announce):
            self.calls.append(("announce", entry.round, {
                "deficiency": entry.deficiency, "total_price": entry.total_price,
                "n_users": entry.n_users}))
        else:
            self.calls.append(("round", entry.round, entry.offers.tolist(),
                               entry.slacks.tolist(), entry.repeat))

    def append_prices(self, round, prices):
        super().append_prices(round, prices)
        self.calls.append(("prices", round, np.array(prices, dtype=float).tolist()))


@pytest.fixture
def recording(monkeypatch):
    """Make run_stackelberg record its transcript in a RecordingLog."""
    monkeypatch.setattr(engine, "MessageLog", RecordingLog)


def reference_jsonl(calls):
    """The transcript format's definition: one json.dumps line per message,
    rendered from the values a RecordingLog was handed."""
    def line(rnd, sender, kind, payload):
        return json.dumps({"round": rnd, "sender": sender, "kind": kind, "payload": payload},
                          sort_keys=True)

    lines = []
    for what, rnd, *values in calls:
        if what == "announce":
            lines.append(line(rnd, "pg", "announce", values[0]))
        elif what == "round":
            offers, slacks, repeat = values
            lines += [line(rnd, f"eu:{i}", "offer", {"eu_id": i, "energy": e})
                      for i, e in enumerate(offers)]
            lines += [line(rnd, f"eu:{i}", "slack_report", {"eu_id": i, "slack": s})
                      for i, s in enumerate(slacks)]
            lines.append(line(rnd, "pg", "repeat_bit", {"repeat": repeat}))
        else:
            lines += [line(rnd, "pg", "price_update", {"eu_id": i, "price": p})
                      for i, p in enumerate(values[0])]
    return "\n".join(lines)


def parsed(log):
    """The exported transcript, one dict per message."""
    return [json.loads(line) for line in log.to_jsonl().split("\n")]


def per_seller_counts(log):
    counts = {}
    for m in parsed(log):
        if m["sender"].startswith("eu:"):
            i = int(m["sender"][3:])
            counts[i] = counts.get(i, 0) + 1
    return counts


def rounds_of(log):
    rounds = {}
    for m in parsed(log):
        rounds.setdefault(m["round"], []).append(m["kind"])
    return [rounds[r] for r in sorted(rounds)]


def assert_log_grammar(log, n_users):
    """Round structure: (announce offer* slack* repeat)* price-round
    (offer* slack* repeat)*, with one price block; kinds ordered within
    each round."""
    stage = 1
    for kinds in rounds_of(log):
        order = [ROUND_ORDER.index(k) for k in kinds]
        assert order == sorted(order), f"out-of-order round: {kinds}"
        assert kinds[-1] == "repeat_bit"
        assert kinds.count("repeat_bit") == 1
        assert kinds.count("offer") == n_users
        assert kinds.count("slack_report") == n_users
        if "price_update" in kinds:
            assert stage == 1, "price updates must open the second stage"
            assert kinds.count("price_update") == n_users
            assert "announce" not in kinds
            stage = 2
        elif stage == 1 and "announce" in kinds:
            assert kinds.count("announce") == 1
        elif stage == 1:
            pytest.fail("first-stage round missing its announce message")
    assert stage == 2, "log never reached the price-update stage"


class TestRunStackelberg:
    def test_single_seller_two_stage_values(self):
        # by hand: uniform price 35, best response min(E + p, budget) = 50;
        # the price budget pins a single seller's price at 35 again
        s = make_scenario([100.0], 50.0, total_price=35.0)
        outcome = run_stackelberg(s)
        assert outcome.converged
        assert outcome.stage1.prices == pytest.approx([35.0])
        assert outcome.stage1.energies == pytest.approx([50.0], abs=1e-3)
        assert outcome.stage2.prices == pytest.approx([35.0])
        assert outcome.stage2.energies == pytest.approx([50.0], abs=1e-3)
        assert outcome.stage2.mu_values == pytest.approx([85.0], abs=1e-3)

    def test_symmetric_sellers_share_equally(self):
        s = make_scenario([150.0] * 4, 300.0)
        outcome = run_stackelberg(s)
        assert outcome.converged
        assert outcome.stage2.prices == pytest.approx([175.0 / 4] * 4, abs=1e-9)
        assert np.ptp(outcome.stage2.energies) <= 1e-6
        assert outcome.stage1.prices == pytest.approx([175.0 / 4] * 4, abs=1e-12)

    def test_stage1_prices_are_uniform(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        assert np.ptp(outcome.stage1.prices) == 0.0
        assert outcome.stage1.prices[0] == pytest.approx(35.0, abs=1e-12)

    def test_peak_scenario_converges_quickly(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        assert outcome.converged
        assert outcome.stage1.follower_iterations <= 20
        assert outcome.stage2.follower_iterations <= 20

    def test_stage2_cost_no_worse_than_uniform_on_offers(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        offers = outcome.stage1.energies
        uniform = outcome.stage1.prices
        optimized = optimize_prices(offers, peak_scenario.grid).prices
        assert grid_cost(optimized, offers, peak_scenario.grid) <= \
            grid_cost(uniform, offers, peak_scenario.grid) + 1e-9

    def test_results_feasible_and_priced(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        grid = peak_scenario.grid
        for stage in (outcome.stage1, outcome.stage2):
            assert stage.energies.sum() <= grid.deficiency + 1e-9
            assert np.all(stage.energies >= -1e-9)
            assert np.all(stage.energies <= peak_scenario.surpluses + 1e-9)
            assert abs(stage.prices.sum() - grid.total_price) <= 1e-9
            assert np.all(stage.prices >= grid.p_min - 1e-12)
            assert np.all(stage.prices <= grid.p_max + 1e-12)

    def test_validation_failure_raises(self):
        s = make_scenario([100.0] * 25, 500.0)  # price budget infeasible at 25
        with pytest.raises(ScenarioValidationError):
            run_stackelberg(s)

    @pytest.mark.parametrize("field, value", [
        ("total_price", float("nan")), ("p_min", float("nan")), ("p_max", float("inf")),
    ])
    def test_non_finite_price_parameters_raise(self, field, value):
        s = make_scenario([100.0, 150.0], 120.0, **{field: value})
        with pytest.raises(ScenarioValidationError, match=field):
            run_stackelberg(s)

    def test_determinism_bit_identical(self, peak_scenario):
        a = run_stackelberg(peak_scenario)
        b = run_stackelberg(peak_scenario)
        assert np.array_equal(a.stage2.energies, b.stage2.energies)
        assert np.array_equal(a.stage2.prices, b.stage2.prices)
        assert np.array_equal(a.stage1.energies, b.stage1.energies)
        assert a.log.to_jsonl() == b.log.to_jsonl()

    def test_message_grammar(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        assert_log_grammar(outcome.log, peak_scenario.n_users)

    def test_announce_carries_network_size(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        first = parsed(outcome.log)[0]
        assert first["kind"] == "announce" and first["sender"] == "pg"
        assert first["payload"] == {"deficiency": peak_scenario.grid.deficiency,
                                    "total_price": 175.0, "n_users": 5}

    @pytest.mark.xfail(strict=True, reason="the slack-equalization stop and the residual "
                       "tolerance are absolute, so below unit scale the first stationary "
                       "round is reported as converged")
    def test_small_scale_game_reaches_the_equilibrium(self):
        # Five sellers with surpluses 1e-6 to 3e-6 and prices near 10: the
        # stage-2 allocation must match the closed form at its prices and
        # survive the unilateral-deviation audit.
        scenario = make_scenario(np.linspace(1e-6, 3e-6, 5), 4e-6, total_price=50.0,
                                 p_min=8.0, p_max=12.0)
        outcome = run_stackelberg(scenario)
        assert outcome.converged
        x2, prices = outcome.stage2.energies, outcome.stage2.prices
        ref = ve_closed_form(PseudoGradient(scenario.surpluses, prices),
                             FeasibleSet(scenario.surpluses, scenario.grid.deficiency))
        assert np.abs(x2 - ref).max() <= 1e-6 * np.abs(ref).max()
        assert check_nse(outcome, scenario, 500).follower_violations == 0


def fig_scenarios(preset, n, runs, seed=1):
    cfg = build_config({}, {"preset": preset, "seed": seed})
    return [sample_scenario(cfg, n, run) for run in range(runs)]


def assert_same_result(a, b):
    """Two stage results agree bit for bit, field for field."""
    assert a.energies.tobytes() == b.energies.tobytes()
    assert a.prices.tobytes() == b.prices.tobytes()
    assert a.follower_iterations == b.follower_iterations
    assert np.float64(a.vi_residual).tobytes() == np.float64(b.vi_residual).tobytes()
    assert a.utilities.tobytes() == b.utilities.tobytes()
    assert a.mu_values.tobytes() == b.mu_values.tobytes()
    assert float(a.total_utility).hex() == float(b.total_utility).hex()
    assert float(a.grid_cost).hex() == float(b.grid_cost).hex()


def assert_same_game(batched, alone):
    """Two outcomes of one game agree bit for bit, transcript included."""
    assert batched.converged == alone.converged
    for a, b in ((batched.stage1, alone.stage1), (batched.stage2, alone.stage2)):
        assert (a is None) == (b is None)
        if a is not None:
            assert_same_result(a, b)
    assert batched.log.to_jsonl() == alone.log.to_jsonl()


def game_figures(scenario, x, prices):
    """A stage's figures as one game computes them alone: (utilities,
    total utility, grid cost, slack values)."""
    s, grid = scenario.surpluses, scenario.grid
    utilities = s * x - 0.5 * x * x + prices * x
    cost = float(np.sum(x * prices * prices + grid.cost_linear * prices + grid.cost_const))
    return utilities, float(utilities.sum()), cost, s - x + prices


def assert_figures(result, scenario):
    utilities, total, cost, mu = game_figures(scenario, result.energies, result.prices)
    assert result.utilities.tobytes() == utilities.tobytes()
    assert result.total_utility.hex() == total.hex()
    assert result.grid_cost.hex() == cost.hex()
    assert result.mu_values.tobytes() == mu.tobytes()


class TestRunGames:
    """run_games plays games of any sizes in lockstep; each game's outcome
    does not depend on which games share its batch."""

    def test_batch_matches_each_game_alone_in_either_order(self):
        scenarios = fig_scenarios("fig2_utility_vs_n", 5, 10)
        alone = [run_stackelberg(sc) for sc in scenarios]
        forward = engine.run_games(scenarios)
        backward = engine.run_games(scenarios[::-1])[::-1]
        for a, b, c in zip(forward, backward, alone):
            assert_same_game(a, c)
            assert_same_game(b, c)

    def test_rows_backtracking_in_different_rounds(self, monkeypatch):
        # A first step of 0.99 backtracks to 0.495 wherever a row sits on its
        # budget face; the rows of a batch reach their faces in different
        # rounds, so some rounds backtrack only part of the batch.
        use_solver(monkeypatch, gamma=0.99)
        scenarios = fig_scenarios("fig2_utility_vs_n", 5, 4)
        alone = [run_stackelberg(sc) for sc in scenarios]
        steps = []
        loop = engine._extragradient

        def recorded(s, p, ub, budget, on_iteration, widths=None):
            def seen(iteration, rows, x, res, t, d, mu, done):
                if not done:
                    steps.append(set(t))
                return on_iteration(iteration, rows, x, res, t, d, mu, done)
            return loop(s, p, ub, budget, seen, widths)

        monkeypatch.setattr(engine, "_extragradient", recorded)
        for outcome, single in zip(engine.run_games(scenarios), alone):
            assert_same_game(outcome, single)
        assert {0.99, 0.495} in steps

    def test_rows_stopping_on_different_rounds(self):
        # fig2 and fig3 games at one n differ in deficiency, so their stages
        # stop on different rounds and rows leave the batch at different times.
        scenarios = (fig_scenarios("fig2_utility_vs_n", 7, 4)
                     + fig_scenarios("fig3_cost_vs_n", 7, 4))
        outcomes = engine.run_games(scenarios)
        assert len({o.stage1.follower_iterations for o in outcomes}) > 1
        assert len({o.stage2.follower_iterations for o in outcomes}) > 1
        for outcome, scenario in zip(outcomes, scenarios):
            assert_same_game(outcome, run_stackelberg(scenario))

    def test_last_live_row_takes_the_one_vector_calls(self, monkeypatch, peak_scenario):
        # The first game plays stage 1 longer, the second stage 2. Once the
        # batch falls to one row, the survivor forms its residual with
        # natural_residual and projects as a batch of one, one call each per
        # round it plays alone, and keeps its bytes. Each of those rounds
        # projects it once: by the dual search, or in closed form. (A batch
        # also sends a lone row to the search when its other rows are
        # steady, so the batch's size is taken where the rows are decided.)
        s = peak_scenario.surpluses
        games = [make_scenario(s, f * s.sum(), seed=5) for f in (0.1, 0.3)]
        alone = [run_stackelberg(sc) for sc in games]
        gaps = [abs(a.follower_iterations - b.follower_iterations) for a, b in
                ((alone[0].stage1, alone[1].stage1), (alone[0].stage2, alone[1].stage2))]
        assert alone[0].stage1.follower_iterations > alone[1].stage1.follower_iterations
        assert alone[0].stage2.follower_iterations < alone[1].stage2.follower_iterations
        calls = {"natural_residual": 0, "lone projections": 0, "lone closed forms": 0}
        residual, rows = vi_solver.natural_residual, vi_solver._halfspace_rows
        steady = vi_solver._steady_rows
        batch = []

        def counted_residual(*args):
            calls["natural_residual"] += 1
            return residual(*args)

        def counted_rows(*args):
            calls["lone projections"] += batch[-1] == 1
            return rows(*args)

        def counted_steady(x, *args):
            held = steady(x, *args)
            batch.append(len(x))
            calls["lone closed forms"] += len(x) == 1 and held[0]
            return held

        monkeypatch.setattr(vi_solver, "natural_residual", counted_residual)
        monkeypatch.setattr(vi_solver, "_halfspace_rows", counted_rows)
        monkeypatch.setattr(vi_solver, "_steady_rows", counted_steady)
        for outcome, single in zip(engine.run_games(games), alone):
            assert_same_game(outcome, single)
        assert calls["natural_residual"] == sum(gaps)
        assert calls["lone projections"] + calls["lone closed forms"] == sum(gaps)

    def test_steady_rounds_take_the_closed_form(self, monkeypatch, peak_scenario):
        # Per stage of the peak game, the rows sent to the halfspace dual
        # search and the rows whose iterate holds its anchor's strictly
        # active bounds, which take their trial point. Every round but the
        # last projects one or the other.
        counts = []
        follower_stage, rows, steady = (engine._follower_stage, vi_solver._halfspace_rows,
                                        vi_solver._steady_rows)

        def staged(*args, stage):
            counts.append({"searched": 0, "closed": 0})
            return follower_stage(*args, stage=stage)

        def counted_rows(x, *args):
            counts[-1]["searched"] += len(x)
            return rows(x, *args)

        def counted_steady(*args):
            held = steady(*args)
            counts[-1]["closed"] += sum(held)
            return held

        monkeypatch.setattr(engine, "_follower_stage", staged)
        monkeypatch.setattr(vi_solver, "_halfspace_rows", counted_rows)
        monkeypatch.setattr(vi_solver, "_steady_rows", counted_steady)
        for _ in range(2):
            del counts[:]
            outcome = run_stackelberg(peak_scenario)
            assert counts == [{"searched": 3, "closed": 5}, {"searched": 2, "closed": 6}]
            assert [c["searched"] + c["closed"] for c in counts] == [
                outcome.stage1.follower_iterations - 1, outcome.stage2.follower_iterations - 1]

    @pytest.mark.parametrize("max_iterations, played_stage2", [
        (6, [False, False, False]),  # every game stops in stage 1: none is priced
        (8, [False, True, False]),   # game 1 is priced, then stops in stage 2
    ], ids=["none-priced", "mixed"])
    def test_games_that_do_not_converge_match_each_alone(self, monkeypatch, peak_scenario,
                                                         max_iterations, played_stage2):
        s = peak_scenario.surpluses
        games = [make_scenario(s, f * s.sum(), seed=5) for f in (0.1, 0.3, 0.5)]
        use_solver(monkeypatch, max_iterations=max_iterations)
        alone = [run_stackelberg(sc) for sc in games]
        assert [o.stage2 is not None for o in alone] == played_stage2
        assert not any(o.converged for o in alone)
        forward = engine.run_games(games)
        backward = engine.run_games(games[::-1])[::-1]
        for a, b, c in zip(forward, backward, alone):
            assert_same_game(a, c)
            assert_same_game(b, c)

    def test_residual_stop_on_a_stages_first_round_ends_the_stage(self, monkeypatch,
                                                                   peak_scenario):
        # With a loose tolerance every stage stops on its residual at once:
        # each follower round's repeat bit is false, batched or alone.
        use_solver(monkeypatch, residual_tol=1e9)
        for outcome in (run_stackelberg(peak_scenario),
                        engine.run_games([peak_scenario] * 2)[1]):
            repeats = [m["payload"]["repeat"] for m in parsed(outcome.log)
                       if m["kind"] == "repeat_bit"]
            assert outcome.converged and repeats == [False, False]

    def test_stage_results_are_each_games_own_figures(self):
        # n = 23 and 41 run numpy's pairwise sums past one block of eight
        for n in (7, 23, 41):
            scenarios = (fig_scenarios("fig2_utility_vs_n", n, 5)
                         + fig_scenarios("fig3_cost_vs_n", n, 5))
            for outcome, scenario in zip(engine.run_games(scenarios), scenarios):
                assert_figures(outcome.stage1, scenario)
                assert_figures(outcome.stage2, scenario)

    def test_stage_result_rows_match_a_batch_of_one(self):
        scenarios = fig_scenarios("fig3_cost_vs_n", 23, 6)
        rng = np.random.default_rng(3)
        s = np.array([sc.surpluses for sc in scenarios])
        x = rng.uniform(0.0, 1.0, s.shape) * s
        p = rng.uniform(1.0, 20.0, s.shape)
        a, b = engine._costs(scenarios)
        rows = engine._stage_result(s, x, p, a, b, list(range(6)), [0.5] * 6)
        for i, (row, scenario) in enumerate(zip(rows, scenarios)):
            (alone,) = engine._stage_result(s[i:i + 1], x[i:i + 1], p[i:i + 1], a[i:i + 1],
                                            b[i:i + 1], [i], [0.5])
            assert_figures(row, scenario)
            assert row.follower_iterations == alone.follower_iterations == i
            for field in ("utilities", "mu_values", "energies", "prices"):
                assert getattr(row, field).tobytes() == getattr(alone, field).tobytes()
            assert (row.total_utility, row.grid_cost) == (alone.total_utility, alone.grid_cost)

    def test_transcript_rounds_are_read_only(self, peak_scenario):
        games = [make_scenario(peak_scenario.surpluses, f * peak_scenario.surpluses.sum())
                 for f in (0.2, 0.5)]
        for outcome in engine.run_games(games):
            blocks = [e for e in outcome.log._entries if isinstance(e, engine._RoundBlock)]
            assert blocks
            for block in blocks:
                assert not block.offers.flags.writeable
                assert not block.slacks.flags.writeable
                with pytest.raises(ValueError):
                    block.offers[0] = -1.0

    def test_empty_batch_and_mixed_sizes(self):
        assert engine.run_games([]) == []
        scenarios = (fig_scenarios("fig2_utility_vs_n", 5, 1)
                     + fig_scenarios("fig2_utility_vs_n", 6, 1))
        for outcome, scenario in zip(engine.run_games(scenarios), scenarios):
            assert_same_game(outcome, run_stackelberg(scenario))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["fig2_utility_vs_n", "fig3_cost_vs_n"]),
                              st.integers(1, 30), st.integers(0, 2)),
                    min_size=2, max_size=10, unique=True))
    def test_mixed_sizes_match_each_game_alone(self, keys):
        # Each game's row is padded to the widest game, and the batch is cut
        # as games leave it; neither may move a bit of any game.
        scenarios = [sample_scenario(build_config({}, {"preset": preset, "seed": 1}), n, run)
                     for preset, n, run in keys]
        for outcome, scenario in zip(engine.run_games(scenarios), scenarios):
            assert_same_game(outcome, run_stackelberg(scenario))

    def test_invalid_scenario_in_a_batch_raises(self):
        bad = make_scenario([10.0, 20.0], deficiency=-1.0)
        with pytest.raises(ScenarioValidationError):
            engine.run_games(fig_scenarios("fig2_utility_vs_n", 2, 2) + [bad])


@pytest.fixture
def solved(monkeypatch):
    """Per _follower_stage call, its stage and the seeds of the games it
    solves; a replayed stage makes no call."""
    calls = []
    follower_stage = engine._follower_stage

    def recorded(scenarios, *args, stage):
        calls.append((stage, [sc.seed for sc in scenarios]))
        return follower_stage(scenarios, *args, stage=stage)

    monkeypatch.setattr(engine, "_follower_stage", recorded)
    return calls


# SHA-256 of the concatenated to_jsonl texts of 24 games: fig2_utility_vs_n
# then fig3_cost_vs_n at seed 41; per preset n in (1, 3, 5, 25, 40, 500),
# per n runs 0 and 1 (sample_scenario).
TRANSCRIPTS_24_SHA256 = "c3fa9ac35189c6d147713734a03ad45533dfb30bfff9042a09472d536e129bbd"


class TestReplayedStage:
    """A game whose optimized price row has the bytes of its uniform row
    replays stage 1 as its stage 2, not solving it again."""

    @pytest.mark.parametrize("batch", ["alone", "batched", "mixed"])
    def test_24_game_transcripts_match_their_pinned_hash(self, batch):
        # n 1, 25, 40 and 500 replay stage 1. Batched, the two runs at each
        # n share one batch; mixed, all 24 games of sizes 1 to 500 do.
        groups = [fig_scenarios(preset, n, 2, seed=41)
                  for preset in ("fig2_utility_vs_n", "fig3_cost_vs_n")
                  for n in (1, 3, 5, 25, 40, 500)]
        if batch == "alone":
            outcomes = [run_stackelberg(sc) for group in groups for sc in group]
        elif batch == "batched":
            outcomes = [o for group in groups for o in engine.run_games(group)]
        else:
            outcomes = engine.run_games([sc for group in groups for sc in group])
        digest = hashlib.sha256()
        for outcome in outcomes:
            digest.update(outcome.log.to_jsonl().encode())
        assert digest.hexdigest() == TRANSCRIPTS_24_SHA256

    @pytest.mark.parametrize("preset, raised, solved_runs", [
        # at seed 1 and n 25 the price slice is one point, so every run
        # replays; raising total_price widens the slice of fig3 runs 1 and 2
        ("fig3_cost_vs_n", [1, 2], [[0, 1, 2, 3], [1, 2]]),
        ("fig2_utility_vs_n", [], [[0, 1, 2, 3]]),
    ], ids=["n25-mixed", "n25-all-replayed"])
    def test_batch_mixing_replayed_and_solved_games_matches_each_alone(
            self, solved, preset, raised, solved_runs):
        scenarios = fig_scenarios(preset, 25, len(solved_runs[0]))
        for r in raised:
            grid = scenarios[r].grid
            scenarios[r] = replace(scenarios[r], grid=replace(
                grid, total_price=grid.total_price + 10.0 * r))
        alone = [run_stackelberg(sc) for sc in scenarios]
        del solved[:]
        forward = engine.run_games(scenarios)
        assert solved == [(1 if k == 0 else 2, [scenarios[r].seed for r in runs])
                          for k, runs in enumerate(solved_runs)]
        backward = engine.run_games(scenarios[::-1])[::-1]
        for a, b, c in zip(forward, backward, alone):
            assert_same_game(a, c)
            assert_same_game(b, c)

    def test_price_row_one_ulp_away_is_solved(self, monkeypatch, solved):
        # at fig2 n 25 the price slice is one point: stage 2 replays stage 1
        (scenario,) = fig_scenarios("fig2_utility_vs_n", 25, 1)
        replayed = run_stackelberg(scenario)
        assert [stage for stage, _ in solved] == [1]
        price_rows = engine._price_rows

        def nudged(*args):
            prices, duals = price_rows(*args)
            prices[0, 3] = np.nextafter(prices[0, 3], np.inf)
            return prices, duals

        monkeypatch.setattr(engine, "_price_rows", nudged)
        del solved[:]
        outcome = run_stackelberg(scenario)
        assert [stage for stage, _ in solved] == [1, 2]
        assert outcome.stage2.prices[3] == np.nextafter(replayed.stage2.prices[3], np.inf)
        assert outcome.log.to_jsonl() != replayed.log.to_jsonl()

    def test_replayed_stage_is_the_stage_solved_at_its_prices(self, recording, solved):
        (scenario,) = fig_scenarios("fig2_utility_vs_n", 25, 1)
        outcome = run_stackelberg(scenario)
        assert [stage for stage, _ in solved] == [1]
        # both stages again, by hand, into a fresh log
        s, log = scenario.surpluses[None], RecordingLog()
        engine._follower_stage([scenario], s, outcome.stage1.prices[None], [log], stage=1)
        prices = outcome.stage2.prices[None]
        x, rounds, res, conv = engine._follower_stage([scenario], s, prices, [log], stage=2)
        (direct,) = engine._stage_result(s, x, prices, *engine._costs([scenario]), rounds, res)
        assert conv == [True]
        assert_same_result(outcome.stage2, direct)
        assert outcome.log.calls == log.calls
        assert outcome.log.to_jsonl() == log.to_jsonl()


class TestMessageLog:
    def test_round_monotonicity_enforced(self):
        log = MessageLog()
        log.append(2, 5.0, 3.0, 1)
        with pytest.raises(ValueError):
            log.append(1, 5.0, 3.0, 1)
        with pytest.raises(TypeError):
            log.append(2.0, 5.0, 3.0, 1)
        log.append(2, 5.0, 3.0, 1)
        assert len(log) == 2 and log.total_rounds == 2

    def test_empty_log_has_no_messages(self):
        log = MessageLog()
        assert log.messages == []
        assert len(log) == 0 and log.total_rounds == 0
        assert log.to_jsonl() == ""

    def test_jsonl_round_trip(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        lines = outcome.log.to_jsonl().splitlines()
        assert lines == outcome.log.messages
        assert len(lines) == len(outcome.log)
        assert {"round", "sender", "kind", "payload"} == set(json.loads(lines[0]))

    def test_per_eu_counts(self, peak_scenario):
        outcome = run_stackelberg(peak_scenario)
        counts = per_seller_counts(outcome.log)
        assert set(counts) == set(range(5))
        # one offer + one slack report per round per seller
        total_rounds = outcome.stage1.follower_iterations + outcome.stage2.follower_iterations
        assert all(c == 2 * total_rounds for c in counts.values())

    def test_matches_golden_transcript(self, peak_scenario):
        # written by reference_jsonl, the per-message json.dumps renderer
        # (`python -m tests.test_engine`), when steady rounds began taking
        # their trial point in closed form
        outcome = run_stackelberg(peak_scenario)
        text = outcome.log.to_jsonl()
        assert text.encode("utf-8") == GOLDEN_TRANSCRIPT.read_bytes()
        kinds = {json.loads(line)["kind"] for line in text.splitlines()}
        assert kinds == {"announce", "price_update", "offer", "slack_report", "repeat_bit"}

    @pytest.mark.parametrize("surpluses, deficiency", [
        ([100.0], 50.0),                      # a single seller
        ([240.0, 230.0, 64.0, 70.0], 100.0),  # idle sellers in both stages
        ([200.0, 80.0, 70.0, 150.0, 65.0], 120.0),
    ])
    def test_jsonl_matches_reference_renderer(self, recording, surpluses, deficiency):
        outcome = run_stackelberg(make_scenario(surpluses, deficiency))
        log = outcome.log
        assert outcome.converged
        assert log.to_jsonl() == reference_jsonl(log.calls)
        messages = parsed(log)
        assert [m["kind"] for m in messages].count("price_update") == len(surpluses)
        assert len(log) == len(messages) == len(log.messages)
        assert log.total_rounds == messages[-1]["round"]
        rounds = sum(1 for m in messages if m["kind"] == "repeat_bit")
        assert per_seller_counts(log) == {i: 2 * rounds for i in range(len(surpluses))}

    def test_integer_valued_announce_fields(self, recording):
        scenario = scenario_from_dict({
            "users": [{"id": 0, "surplus": 120}, {"id": 1, "surplus": 90}],
            "grid": {"deficiency": 100, "total_price": 40, "p_min": 5, "p_max": 35,
                     "cost_linear": [0.01, 0.01], "cost_const": [1, 1]},
        })
        log = run_stackelberg(scenario).log
        assert log.to_jsonl() == reference_jsonl(log.calls)
        assert '"deficiency": 100, "n_users": 2, "total_price": 40}' in log.to_jsonl()

    def test_non_finite_round_values_render_like_json_dumps(self):
        log = RecordingLog()
        log.append(1, 5.0, 3.0, 3)
        log.append_round(1, [0.0, np.nan, 1e-300], [np.inf, -np.inf, -0.0], True)
        log.append_round(2, [2.5, 1.0 / 3.0, 7e22], [1.0, 2.0, 3.0], False)
        assert log.to_jsonl() == reference_jsonl(log.calls)
        assert len(log) == 1 + 7 + 7
        assert log.total_rounds == 2
        assert per_seller_counts(log) == {0: 4, 1: 4, 2: 4}

    def test_renderer_at_bench_scale(self, recording, monkeypatch):
        # a fig3 n=500 game: idle sellers, the one-point price slice at
        # p_min = 175/500 and about 16 rounds
        cfg = build_config({}, {"preset": "fig3_cost_vs_n"})
        scenario = sample_scenario(cfg, 500, 0)
        outcome = run_stackelberg(scenario)
        log = outcome.log
        assert outcome.converged and log.total_rounds > 10
        assert (outcome.stage2.energies == 0.0).any()
        assert scenario.grid.p_min == 175.0 / 500
        # stage 2 replays stage 1, so its round blocks share stage 1's
        # arrays, and each of those is formatted once
        assert outcome.stage2 is outcome.stage1
        sizes = []
        json_floats = engine._json_floats

        def counted(values):
            sizes.append(values.size)
            return json_floats(values)

        monkeypatch.setattr(engine, "_json_floats", counted)
        text = log.to_jsonl()
        assert sizes == [2 * 500 * outcome.stage1.follower_iterations + 500]
        assert text == reference_jsonl(log.calls)
        # what the bench counts per game
        assert len(log.messages) == len(log) == len(text.split("\n"))

    def test_blocks_sharing_arrays_render_like_json_dumps(self):
        # two round blocks share one array (in either column), a price block
        # shares it too, and a third round block holds equal values in a
        # distinct array
        values, other = engine._frozen(np.array([0.1, 1e-5, 2.5])), engine._frozen(-np.ones(3))
        log = RecordingLog()
        log.append(1, 5.0, 3.0, 3)
        log._append_frozen(engine._RoundBlock(1, values, other, True))
        log.append_prices(2, values)
        log._append_frozen(engine._RoundBlock(2, other, values, True))
        log._append_frozen(engine._RoundBlock(3, engine._frozen(values), values, False))
        assert log.to_jsonl() == reference_jsonl(log.calls)

    def test_empty_round_and_non_finite_prices_render_like_json_dumps(self):
        log = RecordingLog()
        log.append(1, 5.0, 3.0, 5)
        log.append_round(1, [], [], True)
        log.append_prices(2, [np.nan, np.inf, -np.inf, -0.0, 0.0])
        log.append_round(2, [0.0, -0.0, 0.1, np.nan, 5e-324], [-0.0] * 5, False)
        text = log.to_jsonl()
        assert text == reference_jsonl(log.calls)
        assert "" not in text.split("\n")
        assert '"price": -0.0}' in text and '"price": 0.0}' in text
        assert len(log) == len(log.messages) == 1 + 1 + 5 + 11
        assert log.total_rounds == 2
        assert per_seller_counts(log) == {i: 2 for i in range(5)}

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), max_size=40),
           st.booleans())
    @example(EDGE_FLOATS + [-v for v in EDGE_FLOATS], True)
    @example([], False)
    def test_json_floats_match_json_dumps(self, values, frozen):
        # orjson formats [1e-4, 1e16) and zero; the rest are set one by one
        arr = np.array(values, dtype=float)
        arr.flags.writeable = not frozen  # log columns are read-only
        assert engine._json_floats(arr) == [json.dumps(v) for v in values]

    @pytest.fixture
    def fresh_fragments(self, monkeypatch):
        """An empty fragment cache, so the test sees it grow from nothing."""
        monkeypatch.setattr(engine, "_FRAGMENTS", {kind: ([], []) for kind in engine._LINES})

    def test_block_sizes_interleaved_share_the_fragments(self, fresh_fragments):
        # sizes out of order in one process: 3 after 500 renders from the
        # lists that 500 grew
        rng = np.random.default_rng(13)
        for n in (1, 3, 500, 3):
            log = RecordingLog()
            log.append(1, 5.0, 3.0, n)
            log.append_round(1, rng.uniform(0, 240, n), rng.normal(size=n), True)
            log.append_prices(2, rng.uniform(0.35, 175, n))
            log.append_round(2, rng.uniform(0, 240, n), -rng.random(n), False)
            assert log.to_jsonl() == reference_jsonl(log.calls)
        assert all(len(tails) == 500 for _, tails in engine._FRAGMENTS.values())

    def test_empty_round_before_the_price_stage(self, recording):
        # a game's transcript, recorded again with an empty round before
        # its price stage
        game = run_stackelberg(make_scenario([200.0, 80.0, 70.0, 150.0, 65.0], 120.0)).log
        log = RecordingLog()
        for what, rnd, *values in game.calls:
            if what == "announce":
                log.append(rnd, **values[0])
            elif what == "round":
                log.append_round(rnd, *values)
            else:
                log.append_round(rnd, [], [], False)
                log.append_prices(rnd, values[0])
        kinds = [m["kind"] for m in parsed(log)]
        assert kinds.count("price_update") == 5
        assert kinds.count("repeat_bit") == sum(c[0] != "announce" for c in game.calls)
        assert log.to_jsonl() == reference_jsonl(log.calls)

    def test_fragment_cache_is_bounded_by_the_largest_block(self, fresh_fragments):
        for n in range(1, 61):
            log = MessageLog()
            log.append_round(n, np.arange(n, dtype=float), np.zeros(n), False)
            log.append_prices(n, np.ones(n))
            log.to_jsonl()
        assert set(engine._FRAGMENTS) == {"offer", "slack_report", "price_update"}
        for fragments, tails in engine._FRAGMENTS.values():
            assert len(tails) == 60 and len(fragments) == 4 * 60

    def test_threads_growing_the_cache_render_correctly(self, monkeypatch):
        logs = []
        for n in (7, 40, 3, 120, 60, 1):
            log = RecordingLog()
            log.append_round(1, np.arange(n) / 3.0, -np.arange(n, dtype=float), True)
            log.append_prices(2, np.full(n, 0.35))
            logs.append(log)
        expected = [reference_jsonl(log.calls) for log in logs] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                for _ in range(10):
                    monkeypatch.setattr(engine, "_FRAGMENTS",
                                        {kind: ([], []) for kind in engine._LINES})
                    rendered = pool.map(MessageLog.to_jsonl, logs * 4, timeout=60)
                    assert list(rendered) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_append_round_validates(self):
        log = MessageLog()
        log.append_round(2, [1.0], [2.0], True)
        with pytest.raises(ValueError):
            log.append_round(1, [1.0], [2.0], True)
        with pytest.raises(ValueError):
            log.append_round(3, [1.0, 2.0], [2.0], True)
        with pytest.raises(ValueError):
            log.append_round(3, [[1.0]], [[2.0]], True)
        for bad_bit in (1, np.bool_(True), None):
            with pytest.raises(ValueError):
                log.append_round(3, [1.0], [2.0], bad_bit)
        with pytest.raises(ValueError):
            log.append(1, 5.0, 3.0, 1)
        assert len(log) == 3

    def test_append_round_snapshots_its_arrays(self):
        offers = np.array([1.0, 2.0])
        slacks = np.array([3.0, 4.0])
        log = MessageLog()
        log.append_round(1, offers, slacks, False)
        before = log.to_jsonl()
        offers[:] = -1.0
        slacks[0] = np.nan
        assert log.to_jsonl() == before
        assert [json.loads(line)["payload"] for line in log.messages[:2]] == [
            {"eu_id": 0, "energy": 1.0}, {"eu_id": 1, "energy": 2.0}]

    def test_append_prices_validates(self):
        log = MessageLog()
        log.append_prices(2, [1.0, 2.0])
        with pytest.raises(ValueError):
            log.append_prices(1, [1.0, 2.0])
        with pytest.raises(ValueError):
            log.append_prices(3, [[1.0, 2.0]])
        assert len(log) == 2
        assert log.total_rounds == 2
        assert per_seller_counts(log) == {}

    def test_append_prices_snapshots_its_array(self):
        prices = np.array([1.5, 2.5])
        log = MessageLog()
        log.append_prices(1, prices)
        before = log.to_jsonl()
        prices[:] = np.nan
        assert log.to_jsonl() == before
        assert [json.loads(line)["payload"] for line in log.messages] == [
            {"eu_id": 0, "price": 1.5}, {"eu_id": 1, "price": 2.5}]

    def test_messages_are_rebuilt_on_each_read(self, recording, peak_scenario):
        log = run_stackelberg(peak_scenario).log
        first = log.messages
        first[1] = "{}"
        first.clear()
        assert json.loads(log.messages[1])["payload"] == {"energy": 0.0, "eu_id": 0}
        assert "\n".join(log.messages) == log.to_jsonl() == reference_jsonl(log.calls)


class TestRunFit:
    def test_rows_match_each_game_alone(self):
        for n in (5, 23):
            scenarios = (fig_scenarios("fig2_utility_vs_n", n, 6)
                         + fig_scenarios("fig3_cost_vs_n", n, 6))
            rows = engine._fit_rows(scenarios, 60.0)
            for row, scenario in zip(rows, scenarios):
                s = scenario.surpluses
                x = s * min(1.0, scenario.grid.deficiency / s.sum())
                assert row.energies.tobytes() == x.tobytes()
                assert np.all(row.prices == 60.0)
                assert_figures(row, scenario)
                alone = run_fit(scenario, 60.0)
                assert alone.energies.tobytes() == x.tobytes()
                assert (alone.total_utility, alone.grid_cost) == (row.total_utility,
                                                                  row.grid_cost)
                assert row.follower_iterations == 0 and row.vi_residual == 0.0

    def test_slack_grid_takes_everything(self):
        s = make_scenario([30.0, 40.0], 100.0)
        res = run_fit(s, 60.0)
        assert np.array_equal(res.energies, [30.0, 40.0])
        assert res.utilities == pytest.approx(
            [30.0 ** 2 / 2 + 60.0 * 30.0, 40.0 ** 2 / 2 + 60.0 * 40.0], abs=1e-9
        )

    def test_proportional_rationing(self):
        s = make_scenario([30.0, 50.0], 40.0)
        res = run_fit(s, 60.0)
        assert res.energies == pytest.approx([15.0, 25.0], abs=1e-12)

    def test_cost_uses_same_functional(self):
        s = make_scenario([30.0, 40.0], 100.0)
        res = run_fit(s, 60.0)
        assert res.grid_cost == pytest.approx(
            grid_cost([60.0, 60.0], [30.0, 40.0], s.grid), abs=1e-9
        )

    def test_rejects_nonpositive_tariff(self, peak_scenario):
        with pytest.raises(ValueError):
            run_fit(peak_scenario, 0.0)


if __name__ == "__main__":
    # Rewrite the golden transcript on purpose only: the peak game played
    # into a RecordingLog, rendered by reference_jsonl.
    engine.MessageLog = RecordingLog
    GOLDEN_TRANSCRIPT.write_bytes(
        reference_jsonl(run_stackelberg(make_peak_scenario()).log.calls).encode("utf-8"))
