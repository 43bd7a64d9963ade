import csv
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridtrade.cli as cli
from gridtrade.cli import (
    ExperimentConfig,
    build_config,
    main,
    run_experiment,
    sample_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from gridtrade.model import validate_scenario
from gridtrade.projection import ProjectionError
from gridtrade.vi_solver import ArmijoSearchError
from tests.conftest import make_scenario, scaled

SMALL = dict(n_values=[2, 3], runs=3, output_path="")


def small_cfg(tmp_path, preset="custom", **kw):
    values = dict(SMALL, preset=preset, output_path=str(tmp_path), **kw)
    return ExperimentConfig(**values)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config=")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


class TestSampleScenario:
    def test_deterministic_per_key(self):
        cfg = ExperimentConfig()
        a = sample_scenario(cfg, 5, 3)
        b = sample_scenario(cfg, 5, 3)
        assert np.array_equal(a.surpluses, b.surpluses)
        assert a.seed == b.seed
        c = sample_scenario(cfg, 5, 4)
        assert not np.array_equal(a.surpluses, c.surpluses)

    def test_defaults_match_experiment_scale(self):
        cfg = ExperimentConfig()
        s = sample_scenario(cfg, 5, 0)
        assert s.grid.total_price == 175.0
        assert s.grid.total_price / s.n_users == pytest.approx(35.0)
        assert np.all((s.surpluses >= 64.0) & (s.surpluses <= 240.0))
        assert validate_scenario(s) == []
        assert s.users[0].aggregation_count == 20

    def test_price_floor_relaxed_at_25(self, caplog):
        cli._warned_relaxations.clear()
        cfg = ExperimentConfig()
        with caplog.at_level(logging.WARNING, logger="gridtrade.cli"):
            s = sample_scenario(cfg, 25, 0)
        assert s.grid.p_min == pytest.approx(7.0)
        assert any("relaxing p_min" in r.message for r in caplog.records)
        assert validate_scenario(s) == []

    @pytest.mark.parametrize("total_price", [175.0, 100.0, 17.5, 3.0, 0.3, 1e-3])
    def test_relaxed_floor_fits_the_budget_at_every_size(self, total_price):
        # total_price / n can round up, so that n times it lands above the
        # budget (n = 77 and 137 at the default 175). At every size from 1
        # to 2000 the floor must pass validate_scenario's test, a size whose
        # quotient fits keeps its bits, and the others step down only as far
        # as they must; a scenario is drawn at each of those.
        cfg = ExperimentConfig(total_price=total_price)
        for n in range(1, 2001):
            if n * cfg.p_min <= total_price:
                continue
            floor = cli._relaxed_p_min(total_price, n)
            assert n * floor <= total_price
            if n * (total_price / n) <= total_price:
                assert floor == total_price / n
            else:
                assert floor < total_price / n
                assert n * math.nextafter(floor, math.inf) > total_price
                s = sample_scenario(cfg, n, 0)
                assert s.grid.p_min == floor and validate_scenario(s) == []

    def test_size_whose_quotient_rounds_up_plays(self, tmp_path):
        assert 77 * (175.0 / 77) > 175.0
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "77",
                     "--runs", "1", "--out", str(tmp_path)]) == 0

    def test_deficiency_rules(self):
        cfg_frac = ExperimentConfig(deficiency_rule="surplus_fraction:0.5")
        s = sample_scenario(cfg_frac, 5, 0)
        assert s.grid.deficiency == pytest.approx(0.5 * s.surpluses.sum())
        cfg_fixed = ExperimentConfig(deficiency_rule="fixed:380.0")
        s2 = sample_scenario(cfg_fixed, 5, 0)
        assert s2.grid.deficiency == 380.0


class TestConfig:
    def test_preset_then_file_then_flags(self):
        cfg = build_config({"preset": "fig2_utility_vs_n", "runs": 7}, {"seed": 9})
        assert cfg.preset == "fig2_utility_vs_n"
        assert cfg.deficiency_rule == "fixed:380.0"   # preset default
        assert cfg.runs == 7                           # file wins over preset
        assert cfg.seed == 9                           # flag wins over default

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            build_config({"not_a_field": 1}, {})

    def test_validation_catches_bad_values(self):
        assert ExperimentConfig(runs=0).validate()
        assert ExperimentConfig(n_values=[]).validate()
        assert ExperimentConfig(surplus_range=[9.0, 2.0]).validate()
        assert ExperimentConfig(deficiency_rule="nope").validate()
        assert ExperimentConfig() .validate() == []

    def test_validation_checks_types_first(self):
        assert ExperimentConfig(runs="5").validate() == ["runs must be int"]
        assert ExperimentConfig(n_values=[2, 3.0], surplus_range=[64, "x"]).validate() == [
            "n_values must be list[int]", "surplus_range must be list[float]"]
        assert ExperimentConfig(seed=True, total_price=175).validate() == ["seed must be int"]


class TestRunExperiment:
    def test_fig1_trace_schema_and_ordering(self, tmp_path):
        cfg = small_cfg(tmp_path, preset="fig1_convergence", n_values=[5], runs=1,
                        deficiency_rule="surplus_fraction:0.95")
        (path,) = run_experiment(cfg)
        header, cols, rows = read_csv(path)
        assert cols == ["iteration", "eu_id", "surplus", "utility"]
        n_iter = max(int(r[0]) for r in rows)
        assert len(rows) == 5 * n_iter
        final = {int(r[1]): (float(r[2]), float(r[3])) for r in rows if int(r[0]) == n_iter}
        by_surplus = sorted(final.values())
        assert all(a[1] < b[1] for a, b in zip(by_surplus, by_surplus[1:]))

    def test_fig1_trace_that_does_not_converge_exits_two(self, tmp_path, capsys, monkeypatch):
        real = cli.run_games
        monkeypatch.setattr(cli, "run_games", lambda scenarios: [
            replace(o, converged=False) for o in real(scenarios)])
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig1_convergence", "--out", str(out)]) == 2
        assert one_line_error(capsys) == "convergence trace scenario did not converge\n"
        assert not out.exists()

    def test_fig2_schema_and_aggregation(self, tmp_path):
        cfg = small_cfg(tmp_path, preset="fig2_utility_vs_n", dump_per_run=True)
        paths = run_experiment(cfg)
        by_name = {p.name: p for p in paths}
        _, cols, rows = read_csv(by_name["fig2_utility_vs_n.csv"])
        assert cols == ["n", "scheme", "mean_utility", "std"]
        assert {r[1] for r in rows} == {"nsg", "fit"}
        _, pcols, prows = read_csv(by_name["per_run.csv"])
        for n in cfg.n_values:
            vals = [float(r[pcols.index("nsg_utility")]) for r in prows
                    if int(r[0]) == n]
            mean = next(float(r[2]) for r in rows if int(r[0]) == n and r[1] == "nsg")
            std = next(float(r[3]) for r in rows if int(r[0]) == n and r[1] == "nsg")
            assert mean == pytest.approx(np.mean(vals), abs=1e-12)
            assert std == pytest.approx(np.std(vals, ddof=1), abs=1e-12)

    def test_fig3_schema_has_both_accountings(self, tmp_path):
        cfg = small_cfg(tmp_path, preset="fig3_cost_vs_n")
        paths = run_experiment(cfg)
        _, cols, rows = read_csv(paths[-1])
        assert cols == ["n", "scheme", "mean_cost", "std", "accounting_variant"]
        assert {r[4] for r in rows} == {"modelled_cost", "direct_payment"}

    def test_custom_writes_both_sweeps(self, tmp_path):
        cfg = small_cfg(tmp_path)
        names = {p.name for p in run_experiment(cfg)}
        assert names == {"utility_vs_n.csv", "cost_vs_n.csv"}

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg(tmp_path, preset="fig2_utility_vs_n")
        (path,) = run_experiment(cfg)
        first = path.read_bytes()
        (path2,) = run_experiment(cfg)
        assert path2.read_bytes() == first

    def test_no_tmp_leftover(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_experiment(cfg)
        assert not list(Path(tmp_path).glob("*.tmp"))

    def test_float_formatting_17_digits(self, tmp_path):
        cfg = small_cfg(tmp_path, preset="fig2_utility_vs_n")
        (path,) = run_experiment(cfg)
        _, _, rows = read_csv(path)
        value = rows[0][2]
        assert float(value) == float(f"{float(value):.17g}")

    def test_invalid_config_raises(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment(small_cfg(tmp_path, runs=0))

    def test_build_id_resolved_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        build_id = cli._build_id

        def counted():
            calls.append(1)
            return build_id()

        monkeypatch.setattr(cli, "_build_id", counted)
        paths = run_experiment(small_cfg(tmp_path, dump_per_run=True))
        assert len(paths) == 3 and len(calls) == 1
        headers = {read_csv(p)[0] for p in paths}
        assert len(headers) == 1 and headers.pop().endswith(f" build={build_id()}")

    def test_build_id_asked_of_git_once_per_process(self, tmp_path, monkeypatch):
        calls = []
        real = subprocess.run

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.subprocess, "run", counted)
        cli._build_id.cache_clear()
        first = run_experiment(small_cfg(tmp_path / "a", preset="fig2_utility_vs_n"))
        second = run_experiment(small_cfg(tmp_path / "b", preset="fig2_utility_vs_n"))
        assert len(calls) == 1 and calls[0][:2] == ["git", "describe"]
        assert read_csv(first[0])[0].endswith(f" build={cli._build_id()}")
        assert read_csv(second[0])[0].endswith(f" build={cli._build_id()}")

    def test_build_id_without_git_is_unreleased(self, monkeypatch):
        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(cli.subprocess, "run", no_git)
        cli._build_id.cache_clear()
        try:
            assert cli._build_id() == "unreleased"
        finally:
            cli._build_id.cache_clear()


# SHA-256 of each CSV body, everything after the "# config=... build=..."
# line, written by `simulate --dump-per-run --runs 20 --seed 11`.
SWEEP_CSV_SHA256 = {
    "fig2_utility_vs_n": {
        "per_run.csv": "0f56aa16efa6490063278cc18f06800557ab611efa6328b71528e7d9cea52665",
        "fig2_utility_vs_n.csv": "09dd25e19988a84e68d2261fca0735f11950fdf2de11d9a35182f00fe8b467fd",
    },
    "fig3_cost_vs_n": {
        "per_run.csv": "2a1737a4f5e8e60aedca182d5cd3b8465a4c4db68cae635400ecb56bbba71aab",
        "fig3_cost_vs_n.csv": "76d7d7866de616b87250ea7b489410577c262757ee92a8b7ec847d552d0dd54b",
    },
}


class TestSweepCsvPins:
    @pytest.mark.parametrize("preset", sorted(SWEEP_CSV_SHA256))
    def test_csv_bodies_match_their_pinned_hashes(self, tmp_path, capsys, preset):
        out = tmp_path / preset
        assert main(["simulate", "--preset", preset, "--runs", "20", "--seed", "11",
                     "--dump-per-run", "--out", str(out)]) == 0
        for name, digest in SWEEP_CSV_SHA256[preset].items():
            body = (out / name).read_bytes().split(b"\r\n", 1)[1]
            assert hashlib.sha256(body).hexdigest() == digest, name


class TestLockstepSweep:
    """A sweep plays every (n, run) of its experiment as one batch; a run's
    figures do not depend on the batch, and a failing run is named."""

    def test_one_batch_per_experiment(self, tmp_path, monkeypatch):
        batches = []
        real = cli.run_games

        def counted(scenarios):
            batches.append([sc.n_users for sc in scenarios])
            return real(scenarios)

        monkeypatch.setattr(cli, "run_games", counted)
        run_experiment(small_cfg(tmp_path, n_values=[4, 2, 6], runs=2))
        assert batches == [[4, 4, 2, 2, 6, 6]]

    @pytest.mark.parametrize("error", [ProjectionError, ArmijoSearchError])
    def test_failing_run_at_a_later_n_is_named(self, tmp_path, capsys, monkeypatch, error):
        # the batch holds every run at n 4 and 6, so it raises; of the runs
        # played alone, only (n=6, run=1) does
        import gridtrade.engine as engine

        cfg = small_cfg(tmp_path, preset="fig2_utility_vs_n", n_values=[4, 6], runs=3)
        bad = sample_scenario(cfg, 6, 1).seed
        real = engine._follower_stage
        batches = []

        def failing(scenarios, *args, **kwargs):
            batches.append(len(scenarios))
            if any(sc.seed == bad for sc in scenarios):
                raise error("no progress")
            return real(scenarios, *args, **kwargs)

        monkeypatch.setattr(engine, "_follower_stage", failing)
        with pytest.raises(error, match=r"run \(n=6, run=1\): no progress"):
            cli._sweep(cfg)
        assert batches[0] == 6
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "4,6",
                     "--runs", "3", "--dump-per-run", "--out", str(out)]) == 2
        assert "(n=6, run=1): no progress" in one_line_error(capsys)
        assert not out.exists()

    def test_failing_run_is_found_in_logarithmically_many_batches(self, tmp_path,
                                                                   monkeypatch):
        # 64 runs, the last of which fails: bisection plays the batch, then
        # one half per step, and only the run it ends on alone.
        import gridtrade.engine as engine

        cfg = small_cfg(tmp_path, preset="fig2_utility_vs_n", n_values=[2, 3, 4, 5], runs=16)
        bad = sample_scenario(cfg, 5, 15).seed
        real_stage, real_games, real_alone = (engine._follower_stage, cli.run_games,
                                              cli.run_stackelberg)
        batches, alone = [], []

        def failing(scenarios, *args, **kwargs):
            if any(sc.seed == bad for sc in scenarios):
                raise ProjectionError("no progress")
            return real_stage(scenarios, *args, **kwargs)

        def counted(scenarios):
            batches.append(len(scenarios))
            return real_games(scenarios)

        def counted_alone(scenario):
            alone.append(scenario.seed)
            return real_alone(scenario)

        monkeypatch.setattr(engine, "_follower_stage", failing)
        monkeypatch.setattr(cli, "run_games", counted)
        monkeypatch.setattr(cli, "run_stackelberg", counted_alone)
        with pytest.raises(ProjectionError, match=r"^run \(n=5, run=15\): no progress$"):
            cli._sweep(cfg)
        assert batches == [64, 32, 16, 8, 4, 2, 1]
        assert alone == [bad]

    def test_run_at_a_later_n_that_does_not_converge_exits_two(self, tmp_path, capsys,
                                                                monkeypatch):
        # the batch raises nothing; run 1 at the second n, the batch's fifth
        # game, comes back unconverged
        real = cli.run_games
        monkeypatch.setattr(cli, "run_games", lambda scenarios: [
            replace(o, converged=False) if i == 4 else o
            for i, o in enumerate(real(scenarios))])
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "4,6",
                     "--runs", "3", "--dump-per-run", "--out", str(out)]) == 2
        assert one_line_error(capsys) == "run (n=6, run=1) did not converge\n"
        assert not out.exists()

    def test_fewer_runs_give_the_leading_rows(self, tmp_path):
        def rows(runs):
            out = tmp_path / f"runs{runs}"
            assert main(["simulate", "--preset", "fig2_utility_vs_n", "--runs", str(runs),
                         "--seed", "11", "--dump-per-run", "--out", str(out)]) == 0
            lines = (out / "per_run.csv").read_bytes().split(b"\r\n")[2:-1]
            by_n = {}
            for line in lines:
                by_n.setdefault(line.split(b",")[0], []).append(line)
            return by_n

        few, many = rows(3), rows(10)
        assert few.keys() == many.keys()
        for n, lines in few.items():
            assert len(lines) == 3 and lines == many[n][:3]

    @pytest.mark.parametrize("error", [ProjectionError, ArmijoSearchError])
    def test_failing_run_is_named(self, tmp_path, capsys, monkeypatch, error):
        import gridtrade.engine as engine

        cfg = small_cfg(tmp_path, preset="fig2_utility_vs_n", n_values=[4], runs=3)
        bad = sample_scenario(cfg, 4, 1).seed
        real = engine._follower_stage

        def failing(scenarios, *args, **kwargs):
            if any(sc.seed == bad for sc in scenarios):
                raise error("no progress")
            return real(scenarios, *args, **kwargs)

        monkeypatch.setattr(engine, "_follower_stage", failing)
        with pytest.raises(error, match=r"run \(n=4, run=1\): no progress"):
            cli._sweep(cfg)
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "4",
                     "--runs", "3", "--out", str(tmp_path / "out")]) == 2
        assert "(n=4, run=1)" in one_line_error(capsys)

    def test_run_that_does_not_converge_exits_two(self, tmp_path, capsys, monkeypatch):
        # the batch raises nothing; one run's outcome comes back unconverged.
        # When that is run 0, no run is played and every figure list is empty.
        real = cli.run_games
        for stalled in (1, 0):
            def stalling(scenarios, stalled=stalled):
                return [replace(o, converged=False) if run == stalled else o
                        for run, o in enumerate(real(scenarios))]

            monkeypatch.setattr(cli, "run_games", stalling)
            out = tmp_path / f"out{stalled}"
            assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "4",
                         "--runs", "3", "--dump-per-run", "--out", str(out)]) == 2
            assert one_line_error(capsys) == f"run (n=4, run={stalled}) did not converge\n"
            assert not out.exists()

    def test_batch_error_that_no_run_raises_alone_exits_two(self, tmp_path, capsys,
                                                              monkeypatch):
        # every run plays alone without error, so the batch's own error is
        # raised as it came
        def failing(scenarios):
            raise ProjectionError("no progress in the batch")

        monkeypatch.setattr(cli, "run_games", failing)
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "4",
                     "--runs", "3", "--out", str(out)]) == 2
        assert one_line_error(capsys) == "no progress in the batch\n"
        assert not out.exists()


class TestScenarioJson:
    def test_round_trip(self, peak_scenario):
        data = scenario_to_dict(peak_scenario)
        clone = scenario_from_dict(json.loads(json.dumps(data)))
        assert np.array_equal(clone.surpluses, peak_scenario.surpluses)
        assert clone.grid.total_price == peak_scenario.grid.total_price
        assert clone.seed == peak_scenario.seed

    def test_seed_without_a_fractional_part_is_an_integer(self, peak_scenario):
        data = dict(scenario_to_dict(peak_scenario), seed=7.0)
        seed = scenario_from_dict(json.loads(json.dumps(data))).seed
        assert seed == 7 and type(seed) is int

    def test_id_without_a_fractional_part_is_an_integer(self, peak_scenario):
        data = scenario_to_dict(peak_scenario)
        data["users"][1]["id"] = 1.0
        user = scenario_from_dict(json.loads(json.dumps(data))).users[1]
        assert user.id == 1 and type(user.id) is int


class TestMain:
    def test_simulate_exit_zero(self, tmp_path, capsys):
        code = main([
            "simulate", "--preset", "fig1_convergence", "--seed", "1",
            "--out", str(tmp_path), "--n-values", "5",
            "--deficiency-rule", "surplus_fraction:0.95",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig1_convergence.csv" in out

    def test_python_dash_m_gridtrade(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "gridtrade", "simulate", "--preset", "fig1_convergence",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.strip() == str(tmp_path / "fig1_convergence.csv")

    def test_cli_import_leaves_orjson_unloaded(self):
        # orjson formats transcripts only; `import gridtrade.cli` (what the
        # console script and the bench's setup time import) must not load it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, gridtrade.cli; print('orjson' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_simulate_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "preset": "fig2_utility_vs_n", "n_values": [2], "runs": 2,
            "output_path": str(tmp_path / "out"),
        }))
        assert main(["simulate", "--config", str(cfg_path)]) == 0

    def test_simulate_with_a_tiny_offer_exit_zero(self, tmp_path, capsys):
        # A stage-1 offer of run 4 is about 1e-14, far below the others, and
        # the price stage must still certify a piece for it.
        assert main(["simulate", "--preset", "custom", "--surplus-range", "0.01,0.1",
                     "--n-values", "10", "--runs", "5", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("flags, field", [
        pytest.param(["--cost-linear", "1e308"], "cost_linear", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="the price stage certifies no "
            "breakpoint piece and the run exits 2")),
        pytest.param(["--total-price", "1.7e308", "--p-max", "1.7e308"], "total_price",
                     marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                         "the halfspace dual finds no bracket within 10000 evaluations "
                         "and the run exits 2"))),
    ], ids=["huge_cost_linear", "huge_total_price"])
    def test_valid_config_ends_in_a_result_or_names_its_input(self, tmp_path, capsys, flags,
                                                              field):
        # Each config passes validation, so it must be played to a result,
        # or be rejected as an invalid input with exit 1, naming its field.
        # Equal linear costs are constant on the price slice: the first
        # should give the answer at the default costs.
        code = main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "5",
                     "--runs", "2", "--out", str(tmp_path), *flags])
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and field in err), err

    def test_simulate_invalid_exit_one(self, tmp_path, capsys):
        code = main(["simulate", "--runs", "0", "--out", str(tmp_path)])
        assert code == 1
        assert "runs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--total-price", "nan"), ("--p-max", "inf")])
    def test_simulate_non_finite_price_exit_one(self, tmp_path, capsys, flag, value):
        code = main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "2",
                     "--runs", "1", "--out", str(tmp_path), flag, value])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err

    def test_verify_corpus(self, tmp_path, capsys, peak_scenario):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.json").write_text(json.dumps(scenario_to_dict(peak_scenario)))
        code = main(["verify", "--corpus", str(corpus)])
        assert code == 0
        assert re.fullmatch(r"a\.json: OK follower=\S+e[-+]\d+ social=\S+e[-+]\d+ "
                            r"budget=\S+e[-+]\d+ leader=\S+e[-+]\d+ scale=2\.\d{3}e\+02\n",
                            capsys.readouterr().out)

    def test_verify_empty_corpus_exit_one(self, tmp_path, capsys):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        assert main(["verify", "--corpus", str(corpus)]) == 1

    def test_verify_invalid_scenario_exit_one(self, tmp_path, capsys):
        corpus = tmp_path / "bad"
        corpus.mkdir()
        bad = scenario_to_dict(make_scenario([10.0], 5.0, total_price=500.0))
        (corpus / "bad.json").write_text(json.dumps(bad))
        assert main(["verify", "--corpus", str(corpus)]) == 1


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    return err


class TestInvalidInputExitsOne:
    """Invalid input of any kind ends in one line on stderr and exit 1."""

    @pytest.mark.parametrize("values, field", [
        ({"runs": "5"}, "runs"),
        ({"n_values": 5}, "n_values"),
        ({"surplus_range": [64, "x"]}, "surplus_range"),
        ({"deficiency_rule": 5}, "deficiency_rule"),
        ({"preset": ["fig2_utility_vs_n"]}, "preset"),
        ({"dump_per_run": "yes"}, "dump_per_run"),
    ])
    def test_wrong_typed_config_field(self, tmp_path, capsys, values, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(values, output_path=str(tmp_path / "out"))))
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert field in one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values, flags, message", [
        ({"preset": "nope"}, [], "unknown preset 'nope'"),
        ({}, ["--n-values", "0,5"], "n_values must be positive"),
        ({}, ["--seed", "-1"], "seed must be nonnegative"),
    ], ids=["preset", "n_values", "seed"])
    def test_out_of_range_config_value_names_its_field(self, tmp_path, capsys, values, flags,
                                                        message):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(values, output_path=str(out))))
        assert main(["simulate", "--config", str(cfg_path), *flags]) == 1
        assert one_line_error(capsys) == message + "\n"
        assert not out.exists()

    def test_config_file_holding_an_array(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps([{"runs": 5}]))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert one_line_error(capsys) == "config file must hold a JSON object\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 1
        assert "absent.json" in one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--runs", "abc"],
        ["verify"],
        ["simulate", "--surplus-range", "1"],
        ["simulate", "--preset", "fig9"],
        [],
        ["verify", "--corpus", "x", "--trials", "5"],  # verify takes no --trials
    ])
    def test_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in one_line_error(capsys)

    @pytest.mark.parametrize("flags", [
        ["--surplus-range", "64,inf"],
        ["--surplus-range=-inf,5"],
        ["--surplus-range=-1e308,1e308"],  # finite ends, but high - low overflows
        ["--cost-linear", "inf"],
        ["--cost-const", "inf", "--dump-per-run"],
    ])
    def test_non_finite_flag(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "2",
                     "--runs", "1", "--out", str(out), *flags]) == 1
        assert "finite" in one_line_error(capsys)
        assert not out.exists()

    def test_non_finite_surplus_range_in_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out"
        # 1e400 overflows to inf when the file is read
        cfg_path.write_text('{"surplus_range": [64, 1e400], "n_values": [2], "runs": 1, '
                            f'"output_path": {json.dumps(str(out))}}}')
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert "surplus_range" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_non_finite_fit_tariff(self, tmp_path, capsys, monkeypatch, source, value):
        def no_games(scenarios):
            raise AssertionError("a game was played")
        monkeypatch.setattr(cli, "run_games", no_games)
        monkeypatch.setattr(cli, "run_stackelberg", no_games)
        out = tmp_path / "out"
        if source == "flag":
            argv = ["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "2",
                    "--runs", "1", "--out", str(out), "--fit-tariff", value]
        else:
            cfg_path = tmp_path / "cfg.json"
            # json writes float("inf") and float("nan") as Infinity and NaN
            cfg_path.write_text(json.dumps({"preset": "fig2_utility_vs_n", "n_values": [2],
                                            "runs": 1, "fit_tariff": float(value),
                                            "output_path": str(out)}))
            argv = ["simulate", "--config", str(cfg_path)]
        assert main(argv) == 1
        assert "fit_tariff must be positive and finite" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--total-price", "-5"], "total_price must be finite and positive, got -5.0"),
        (["--total-price", "0"], "total_price must be finite and positive, got 0.0"),
        (["--total-price", "inf"], "total_price must be finite and positive, got inf"),
        (["--p-min", "-1"], "0 < p_min <= p_max, got (-1.0, 175.0)"),
        (["--p-min", "nan"], "0 < p_min <= p_max, got (nan, 175.0)"),
        (["--p-min", "10", "--p-max", "5"], "0 < p_min <= p_max, got (10.0, 5.0)"),
        (["--p-max", "inf"], "0 < p_min <= p_max, got (8.45, inf)"),
        (["--deficiency-rule", "fixed:inf"], "bad deficiency_rule 'fixed:inf'"),
        (["--deficiency-rule", "surplus_fraction:inf"],
         "bad deficiency_rule 'surplus_fraction:inf'"),
    ], ids=["total_price_negative", "total_price_zero", "total_price_inf", "p_min_negative",
            "p_min_nan", "p_min_above_p_max", "p_max_inf", "fixed_inf", "fraction_inf"])
    def test_bad_price_or_deficiency_names_its_field(self, tmp_path, capsys, monkeypatch,
                                                      flags, message):
        # Each is reported as the user set it, before any scenario is drawn:
        # not as a relaxed p_min or a game's deficiency.
        def no_games(scenarios):
            raise AssertionError("a game was played")
        monkeypatch.setattr(cli, "run_games", no_games)
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "2",
                     "--runs", "1", "--out", str(out), *flags]) == 1
        assert message in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_surplus_sum_past_the_float_limit_names_surplus_range(self, tmp_path, capsys):
        # five surpluses near the float limit: the box projection's sum of
        # the free surpluses overflows before the budget is subtracted
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "5",
                     "--runs", "1", "--surplus-range", "1e307,1.7e308",
                     "--out", str(out)]) == 1
        err = one_line_error(capsys)
        assert "(n=5, run=0)" in err and "surplus_range" in err and "overflow" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_surplus_plus_price_past_the_float_limit_names_the_run(self, tmp_path, capsys):
        # the sums fit, but a seller's surplus plus its price, the stage's
        # vector, does not
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "5",
                     "--runs", "1", "--surplus-range", "1e307,1.7e308",
                     "--total-price", "1.7e308", "--p-max", "1.7e308",
                     "--out", str(out)]) == 1
        err = one_line_error(capsys)
        assert "run (n=5, run=0)" in err and "overflow" in err
        assert "surplus_range" in err and "total_price" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_deficiency_past_the_float_limit_names_the_rule(self, tmp_path, capsys,
                                                             monkeypatch):
        # the fraction is finite, its product with the surplus sum is not
        def no_games(scenarios):
            raise AssertionError("a game was played")
        monkeypatch.setattr(cli, "run_games", no_games)
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig2_utility_vs_n", "--n-values", "5",
                     "--runs", "1", "--deficiency-rule", "surplus_fraction:1e308",
                     "--out", str(out)]) == 1
        err = one_line_error(capsys)
        assert "(n=5, run=0)" in err and "deficiency_rule 'surplus_fraction:1e308'" in err
        assert "deficiency that is not finite (inf)" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, n", [
        # surpluses near the float limit; the game exits 1 here only because
        # the box projection certifies [0, 0] at this scale, a known defect
        (["--n-values", "2", "--surplus-range", "1e307,1.7e308"], 2),
        # a well-posed game at the default surpluses, with a huge flat tariff
        (["--n-values", "5", "--fit-tariff", "1e307"], 5),
    ], ids=["huge_surpluses", "huge_tariff"])
    def test_non_finite_figure(self, tmp_path, flags, n):
        # The flat tariff's utility overflows; the run must name the figure
        # instead of writing inf into the CSVs.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "gridtrade", "simulate", "--preset", "fig2_utility_vs_n",
             "--runs", "1", *flags, "--dump-per-run", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert f"(n={n}, run=0)" in proc.stderr and "fit_utility" in proc.stderr
        assert not out.exists()

    def test_non_finite_figure_of_a_later_run(self, tmp_path):
        # At seed 2, run 0's surpluses sum past the float limit, so its flat
        # tariff buys nothing and its figures stay finite; run 1 overflows.
        # The batch's figures are rows, and the first bad run is named.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "gridtrade", "simulate", "--preset", "fig2_utility_vs_n",
             "--runs", "4", "--n-values", "2", "--surplus-range", "1e307,1.7e308",
             "--seed", "2", "--dump-per-run", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "run (n=2, run=1): fit_utility is not finite (inf)\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["verify", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def write_corpus(tmp_path, files):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in files.items():
        (corpus / name).write_text(text)
    return str(corpus)


class TestVerifyEveryFile:
    """verify prints one line per file, keeps going after a bad one and
    exits with the highest code seen (2 over 1 over 0)."""

    @pytest.fixture
    def good(self, peak_scenario):
        return json.dumps(scenario_to_dict(peak_scenario))

    def run(self, corpus, capsys):
        code = main(["verify", "--corpus", corpus])
        return code, capsys.readouterr().out.splitlines()

    def test_missing_grid_is_invalid(self, tmp_path, capsys, good):
        data = json.loads(good)
        del data["grid"]
        code, out = self.run(write_corpus(tmp_path, {"a.json": json.dumps(data), "b.json": good}),
                             capsys)
        assert code == 1
        assert out[0].startswith("a.json: INVALID (missing field 'grid')")
        assert out[1].startswith("b.json: OK")

    def test_malformed_json_is_invalid(self, tmp_path, capsys, good):
        code, out = self.run(write_corpus(tmp_path, {"a.json": "{not json", "b.json": good}),
                             capsys)
        assert code == 1
        assert out[0].startswith("a.json: INVALID (JSONDecodeError")
        assert out[1].startswith("b.json: OK")

    @pytest.mark.parametrize("field, value", [
        ("users", 5), ("grid", []), ("cost_linear", "x"), ("surplus", "100"),
        ("total_price", float("nan")),
        # written as Infinity, which reads back as inf, as 1e400 does
        ("seed", 1e400),
        # int() would read each of these as seed 1
        ("seed", 1.5), ("seed", True), ("seed", "1"),
    ])
    def test_wrong_typed_field_is_invalid(self, tmp_path, capsys, good, field, value):
        data = json.loads(good)
        if field in ("users", "grid", "seed"):
            data[field] = value
        elif field == "surplus":
            data["users"][0][field] = value
        else:
            data["grid"][field] = value
        code, out = self.run(write_corpus(tmp_path, {"a.json": json.dumps(data), "b.json": good}),
                             capsys)
        assert code == 1
        assert out[0].startswith("a.json: INVALID (")
        assert out[1].startswith("b.json: OK")

    @pytest.mark.parametrize("field, value", [
        # each of these four reads as 0 or 1 and plays a valid game
        ("p_min", True), ("deficiency", True), ("surplus", True), ("id", False),
        ("surplus", "100"), ("total_price", "175"), ("p_max", False), ("cost_linear", True),
        ("cost_const", "1"), ("id", "0"), ("id", 0.5), ("surplus", None),
    ])
    def test_bool_or_string_in_a_numeric_field_is_invalid(self, tmp_path, capsys, good, field,
                                                          value):
        data = json.loads(good)
        if field in ("surplus", "id"):
            data["users"][0][field] = value
            name = f"users[0].{field}"
        elif field.startswith("cost"):
            data["grid"][field][0] = value
            name = f"grid.{field}[0]"
        else:
            data["grid"][field] = value
            name = f"grid.{field}"
        code, out = self.run(write_corpus(tmp_path, {"a.json": json.dumps(data), "b.json": good}),
                             capsys)
        kind = "an integer" if field == "id" else "a number"
        assert code == 1
        assert out[0] == f"a.json: INVALID (ValueError: {name} must be {kind}, got {value!r})"
        assert out[1].startswith("b.json: OK")

    @pytest.mark.parametrize("field", ["cost_linear", "cost_const"])
    def test_non_finite_cost_is_invalid(self, tmp_path, capsys, good, field):
        data = json.loads(good)
        data["grid"][field][0] = "huge"
        # 1e400 overflows to inf when the file is read
        text = json.dumps(data).replace('"huge"', "1e400")
        code, out = self.run(write_corpus(tmp_path, {"a.json": text, "b.json": good}), capsys)
        assert code == 1
        assert out[0].startswith("a.json: INVALID (") and "finite" in out[0], out[0]
        assert out[1].startswith("b.json: OK")

    @pytest.mark.parametrize("error", [ProjectionError, ArmijoSearchError])
    def test_solver_errors_are_non_convergent(self, tmp_path, capsys, monkeypatch, good,
                                              error):
        real = cli.run_stackelberg

        def flaky(scenario, *args, **kwargs):
            if scenario.seed == 7:
                raise error("no progress")
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(cli, "run_stackelberg", flaky)
        data = json.loads(good)
        data["seed"] = 7
        code, out = self.run(write_corpus(tmp_path, {"a.json": json.dumps(data), "b.json": good}),
                             capsys)
        assert code == 2
        assert out[0] == f"a.json: NON-CONVERGENT ({error.__name__}: no progress)"
        assert out[1].startswith("b.json: OK")

    def test_unconverged_game_is_non_convergent(self, tmp_path, capsys, monkeypatch, good):
        # run_stackelberg raises nothing; its outcome comes back unconverged
        real = cli.run_stackelberg

        def stalling(scenario, *args, **kwargs):
            outcome = real(scenario, *args, **kwargs)
            return replace(outcome, converged=False) if scenario.seed == 7 else outcome

        monkeypatch.setattr(cli, "run_stackelberg", stalling)
        data = json.loads(good)
        data["seed"] = 7
        code, out = self.run(write_corpus(tmp_path, {"a.json": json.dumps(data), "b.json": good}),
                             capsys)
        assert code == 2
        assert out[0] == "a.json: NON-CONVERGENT"
        assert out[1].startswith("b.json: OK")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 5])
    def test_surplus_sum_past_the_float_limit_is_invalid(self, tmp_path, capsys, good, n):
        # at n 5 the game's projection overflows; at n 2 it plays, but the
        # audit's sums overflow
        edge = scenario_to_dict(make_scenario([1.7e308, 1e308, 1.5e308, 1.2e308, 1.1e308][:n],
                                              380.0))
        code, out = self.run(write_corpus(tmp_path, {"a.json": json.dumps(edge), "b.json": good}),
                             capsys)
        assert code == 1
        assert out[0].startswith("a.json: INVALID (") and "surplus" in out[0], out[0]
        assert "not finite" in out[0]
        assert out[1].startswith("b.json: OK")
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_surplus_plus_price_past_the_float_limit_is_invalid(self, tmp_path, capsys, good):
        # the lone surplus is finite, its sum with the price is not
        edge = scenario_to_dict(make_scenario([1.7e308], 380.0, total_price=1.7e308, p_min=1.0,
                                              p_max=1.7e308))
        code, out = self.run(write_corpus(tmp_path, {"a.json": json.dumps(edge), "b.json": good}),
                             capsys)
        assert code == 1
        assert out[0] == "a.json: INVALID (a surplus plus its price is not finite)", out[0]
        assert out[1].startswith("b.json: OK")
        assert "Traceback" not in capsys.readouterr().err

    def test_price_slice_just_below_n_p_max_passes_audit(self, tmp_path, capsys, good):
        edge = scenario_to_dict(make_scenario([100.0, 120.0, 140.0], 150.0,
                                              total_price=29.999, p_min=1.0, p_max=10.0))
        code, out = self.run(write_corpus(tmp_path, {"a.json": json.dumps(edge), "b.json": good}),
                             capsys)
        assert code == 0
        assert out[0].startswith("a.json: OK")
        assert out[1].startswith("b.json: OK")

    def test_highest_code_wins(self, tmp_path, capsys, monkeypatch, good):
        real = cli.run_stackelberg

        def flaky(scenario, *args, **kwargs):
            if scenario.seed == 7:
                raise ProjectionError("no progress")
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(cli, "run_stackelberg", flaky)
        stuck = json.loads(good)
        stuck["seed"] = 7
        corpus = write_corpus(tmp_path, {
            "a.json": "[]", "b.json": json.dumps(stuck), "c.json": "{", "d.json": good,
        })
        code, out = self.run(corpus, capsys)
        assert code == 2
        assert [line.split(":")[0] for line in out] == ["a.json", "b.json", "c.json", "d.json"]
        assert [line.split()[1] for line in out] == ["INVALID", "NON-CONVERGENT", "INVALID", "OK"]


def fig2_game(n=5, run=5, **flags):
    """The default fig2 game at seed 1 (flags override the config)."""
    return sample_scenario(build_config({}, {"preset": "fig2_utility_vs_n", **flags}), n, run)


def verify_line_figures(line):
    """The figures of an OK or FAIL line of verify, by name."""
    _, verdict, *fields = line.split()
    assert verdict in ("OK", "FAIL")
    figures = dict(field.split("=") for field in fields)
    assert list(figures) == ["follower", "social", "budget", "leader", "scale"], line
    return {key: float(value) for key, value in figures.items()}


class TestVerifyCertificate:
    """verify judges a game by its exact certificate, each figure relative to
    the game's own scale: a right game passes in any units, a wrong one
    fails in any units."""

    def test_corpus_through_python_dash_m(self, tmp_path, peak_scenario):
        # b is the fig2 game in units of 2**-40, where the game stops 0.53 S
        # from its equilibrium; c is the same game, right, in units of 1e6
        game = fig2_game()
        corpus = write_corpus(tmp_path, {
            "a.json": json.dumps(scenario_to_dict(peak_scenario)),
            "b.json": json.dumps(scenario_to_dict(scaled(game, 2.0 ** -40))),
            "c.json": json.dumps(scenario_to_dict(scaled(game, 1e6))),
        })
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "gridtrade", "verify", "--corpus", corpus],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["a.json:", "OK"], ["b.json:", "FAIL"], ["c.json:", "OK"]]
        assert verify_line_figures(lines[1])["follower"] > 0.5

    @pytest.mark.parametrize("case, figure", [
        ("units_of_2**-20", "follower"),
        ("small_scale", "follower"),
        ("huge_scale_anchor", "budget"),
    ])
    def test_wrong_game_fails(self, tmp_path, capsys, case, figure):
        scenario = {
            # stops 1.7e-5 S from its equilibrium
            "units_of_2**-20": lambda: scaled(fig2_game(), 2.0 ** -20),
            # the strict xfail of the engine tests: prices 1e7 times the energies
            "small_scale": lambda: make_scenario(np.linspace(1e-6, 3e-6, 5), 4e-6,
                                                 total_price=50.0, p_min=8.0, p_max=12.0),
            # certifies [0, 0] against a deficiency of 380
            "huge_scale_anchor": lambda: fig2_game(2, 0, surplus_range=[1e200, 1e201]),
        }[case]()
        corpus = write_corpus(tmp_path, {"a.json": json.dumps(scenario_to_dict(scenario))})
        assert main(["verify", "--corpus", corpus]) == 1
        line, = capsys.readouterr().out.splitlines()
        assert line.startswith("a.json: FAIL ")
        assert verify_line_figures(line)[figure] > 1e-6
