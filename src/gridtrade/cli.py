"""Scenario sampling, seeded sweeps, CSV emission, and `verify`.

Experiments are driven by an ExperimentConfig, loadable from a JSON file
that mirrors the dataclass field for field; flags override file values.
Every run is reproducible: scenarios come from a counter-based generator
keyed by (seed, n, run_index), so any one can be rebuilt alone, and CSV
bodies are byte-identical across runs of the same config. `verify` prints
one line a scenario file: its game's exact certificate (`oracle.certify`),
or why there is none.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import _fit_rows, run_games, run_stackelberg
from .model import EnergyUser, FeasibleSet, GridParams, Scenario, validate_scenario
from .oracle import certify
from .projection import ProjectionError
from .vi_solver import ArmijoSearchError, PseudoGradient, solve_ve

log = logging.getLogger(__name__)
_warned_relaxations: set[tuple[float, int, float]] = set()

PRESETS = ("fig1_convergence", "fig2_utility_vs_n", "fig3_cost_vs_n", "custom")

AGGREGATION_COUNT = 20
DEFAULT_COST_LINEAR = 0.01
DEFAULT_COST_CONST = 1.0

# Preset-specific defaults, applied before file/flag overrides. The utility
# and cost sweeps need a deficiency that does not grow with n for their
# trends to be about network size; the convergence preset keeps the budget
# generous so per-user prices stay small against surpluses.
_PRESET_OVERRIDES = {
    "fig1_convergence": {"n_values": [5], "runs": 1, "deficiency_rule": "surplus_fraction:0.95"},
    "fig2_utility_vs_n": {"deficiency_rule": "fixed:380.0"},
    "fig3_cost_vs_n": {"deficiency_rule": "surplus_fraction:0.5"},
}


@dataclass
class ExperimentConfig:
    preset: str = "custom"
    n_values: list[int] = field(default_factory=lambda: [5, 10, 15, 20, 25])
    runs: int = 100
    surplus_range: list[float] = field(default_factory=lambda: [64.0, 240.0])
    total_price: float = 175.0
    p_min: float = 8.45
    p_max: float = 175.0
    fit_tariff: float = 60.0
    deficiency_rule: str = "surplus_fraction:0.5"
    cost_linear: float = DEFAULT_COST_LINEAR
    cost_const: float = DEFAULT_COST_CONST
    seed: int = 1
    output_path: str = "results"
    dump_per_run: bool = False

    def validate(self) -> list[str]:
        wrong = [f"{f.name} must be {f.type}" for f in dataclasses.fields(self)
                 if not _FIELD_CHECKS[f.type](getattr(self, f.name))]
        if wrong:
            return wrong
        problems = []
        if self.preset not in PRESETS:
            problems.append(f"unknown preset {self.preset!r}")
        if not self.n_values:
            problems.append("n_values must be nonempty")
        if any(n < 1 for n in self.n_values):
            problems.append("n_values must be positive")
        if self.runs < 1:
            problems.append("runs must be at least 1")
        # a nonnegative low keeps high - low, the sampler's width, finite
        if len(self.surplus_range) != 2 or not (
                0 <= self.surplus_range[0] < self.surplus_range[1] < math.inf):
            problems.append("surplus_range must be [low, high], finite, with 0 <= low < high")
        if self.seed < 0:
            problems.append("seed must be nonnegative")
        try:
            _parse_deficiency_rule(self.deficiency_rule)
        except ValueError as exc:
            problems.append(str(exc))
        if not (0 < self.cost_linear < math.inf and 0 < self.cost_const < math.inf):
            problems.append("cost coefficients must be positive and finite")
        if not 0 < self.fit_tariff < math.inf:
            problems.append("fit_tariff must be positive and finite")
        if not 0 < self.total_price < math.inf:
            problems.append(f"total_price must be finite and positive, got {self.total_price}")
        if not 0 < self.p_min <= self.p_max < math.inf:
            problems.append("price bounds must be finite and satisfy 0 < p_min <= p_max, "
                            f"got ({self.p_min}, {self.p_max})")
        return problems


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# One check per ExperimentConfig field annotation; a config file can hold
# any JSON value, so the types are checked before the values are.
_FIELD_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": _is_int,
    "float": _is_real,
    "list[int]": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "list[float]": lambda v: isinstance(v, list) and all(map(_is_real, v)),
}


def _parse_deficiency_rule(rule: str):
    kind, _, value = rule.partition(":")
    try:
        v = float(value)
    except ValueError:
        raise ValueError(f"bad deficiency_rule {rule!r}") from None
    if kind == "surplus_fraction" and 0 < v < math.inf:
        return lambda surpluses: v * float(surpluses.sum())
    if kind == "fixed" and 0 < v < math.inf:
        return lambda surpluses: v
    raise ValueError(f"bad deficiency_rule {rule!r}; use surplus_fraction:<f> or fixed:<kwh>, "
                     "positive and finite")


def sample_scenario(cfg: ExperimentConfig, n: int, run_index: int) -> Scenario:
    """Draw one scenario from the (seed, n, run_index)-keyed generator.

    When n * p_min exceeds the price budget the floor is relaxed to
    total_price / n, stepped down until it fits (_relaxed_p_min; logged),
    keeping the price slice nonempty. The stored scenario seed packs the
    key as seed*10**6 + n*10**3 + run_index.
    """
    rng = np.random.default_rng([cfg.seed, n, run_index])
    low, high = cfg.surplus_range
    surpluses = rng.uniform(low, high, n)
    with np.errstate(over="ignore"):  # reported below, in one line
        deficiency = _parse_deficiency_rule(cfg.deficiency_rule)(surpluses)
        if not math.isfinite(deficiency):
            raise ValueError(f"run (n={n}, run={run_index}): deficiency_rule "
                             f"{cfg.deficiency_rule!r} gives a deficiency that is not finite "
                             f"({deficiency}) for surpluses summing to {surpluses.sum()}")
    p_min = cfg.p_min
    if n * p_min > cfg.total_price:
        p_min = _relaxed_p_min(cfg.total_price, n)
        key = (cfg.p_min, n, cfg.total_price)
        if key not in _warned_relaxations:
            _warned_relaxations.add(key)
            log.warning(
                "relaxing p_min from %s to %s so that %d users fit the price budget %s",
                cfg.p_min, p_min, n, cfg.total_price,
            )
    users = tuple(
        EnergyUser(id=i, surplus=float(surpluses[i]), aggregation_count=AGGREGATION_COUNT)
        for i in range(n)
    )
    grid = GridParams(
        deficiency=float(deficiency),
        total_price=cfg.total_price,
        p_min=p_min,
        p_max=cfg.p_max,
        cost_linear=np.full(n, cfg.cost_linear),
        cost_const=np.full(n, cfg.cost_const),
    )
    return Scenario(users=users, grid=grid, seed=cfg.seed * 10**6 + n * 10**3 + run_index)


def _relaxed_p_min(total_price: float, n: int) -> float:
    """total_price / n, less an ulp while n times it exceeds total_price."""
    p_min = total_price / n
    while n * p_min > total_price:
        p_min = math.nextafter(p_min, 0.0)
    return p_min


@functools.cache
def _build_id() -> str:
    """`git describe` of the checkout the package was imported from, asked
    once per process: the imported code cannot change while it runs."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=False,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unreleased"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, cfg: ExperimentConfig, build: str, columns, rows) -> None:
    """Atomic CSV write: header comment with the full config and build id,
    then data."""
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    header = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    buf.write(f"# config={header} build={build}\r\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(buf.getvalue(), encoding="utf-8", newline="")
    os.replace(tmp, path)


def _fig1_rows(cfg: ExperimentConfig):
    """Per-iteration per-user utility trace at the optimized prices."""
    n = cfg.n_values[0]
    scenario = sample_scenario(cfg, n, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is one line
        outcome = _play([scenario], [(n, 0)])[0]
    if not outcome.converged:
        raise RuntimeError("convergence trace scenario did not converge")
    p_star = outcome.stage2.prices
    fset = FeasibleSet(scenario.surpluses, scenario.grid.deficiency)
    _, trace = solve_ve(PseudoGradient(scenario.surpluses, p_star), fset)
    rows = []
    for rec in trace.records:
        for i, user in enumerate(scenario.users):
            util = user.surplus * rec.x[i] - 0.5 * rec.x[i] ** 2 + p_star[i] * rec.x[i]
            rows.append((rec.iteration, i, user.surplus, util))
    return rows


def _sweep(cfg: ExperimentConfig):
    """All per-run figures for the utility and cost sweeps.

    Every (n, run) of the experiment is played in one lockstep batch by
    run_games; then, n by n, the flat-tariff baselines and figures are
    computed as rows. A run that did not converge, or a figure that is not
    finite, raises naming its run (and field), before any file is written.
    """
    keys = [(n, run) for n in cfg.n_values for run in range(cfg.runs)]
    scenarios = [sample_scenario(cfg, n, run) for n, run in keys]
    # Figures that overflow are reported below, one line per run.
    with np.errstate(over="ignore", invalid="ignore"):
        games = _play(scenarios, keys)
    per_run = []
    for k, n in enumerate(cfg.n_values):
        at = slice(k * cfg.runs, (k + 1) * cfg.runs)
        outcomes = games[at]
        with np.errstate(over="ignore", invalid="ignore"):
            played = next((run for run, o in enumerate(outcomes) if not o.converged),
                          len(outcomes))
            nsg = [outcome.stage2 for outcome in outcomes[:played]]
            fit = _fit_rows(scenarios[at][:played], cfg.fit_tariff) if played else []
            columns = {
                "nsg_utility": [r.total_utility / n for r in nsg],
                "fit_utility": [r.total_utility / n for r in fit],
                "nsg_cost_model": [r.grid_cost for r in nsg],
                "nsg_payment": _payments(nsg),
                "fit_cost_model": [r.grid_cost for r in fit],
                "fit_payment": _payments(fit),
            }
        for run in range(played):
            figures = {key: values[run] for key, values in columns.items()}
            for key, value in figures.items():
                if not math.isfinite(value):
                    raise ValueError(f"run (n={n}, run={run}): {key} is not finite ({value})")
            per_run.append({"n": n, "run": run, **figures})
        if played < len(outcomes):
            raise RuntimeError(f"run (n={n}, run={played}) did not converge")
    return per_run


def _payments(results) -> list[float]:
    """sum(prices * energies) of each result, as row sums of the stacked
    (runs, n) arrays."""
    if not results:
        return []
    prices = np.array([r.prices for r in results])
    return np.add.reduce(prices * np.array([r.energies for r in results]), axis=1).tolist()


def _play(scenarios, keys):
    """run_games over the scenarios, keys holding each one's (n, run). A
    solver error is raised again from the run that raises it when played
    alone, naming that run, or as it came if that run plays alone without
    one. A sum that overflows the float range is invalid input: a
    ValueError naming the run and the fields that scale it."""
    try:
        return run_games(scenarios)
    except (ProjectionError, ArmijoSearchError, OverflowError):
        # A game plays the same whichever games share its batch, so one half
        # of a failed batch fails: the first if it fails as a batch of its
        # own, else the second. Bisection ends on one run, played alone.
        while len(scenarios) > 1:
            half = len(scenarios) // 2
            try:
                run_games(scenarios[:half])
                scenarios, keys = scenarios[half:], keys[half:]
            except (ProjectionError, ArmijoSearchError, OverflowError):
                scenarios, keys = scenarios[:half], keys[:half]
        (n, run), = keys
        try:
            run_stackelberg(scenarios[0])
        except (ProjectionError, ArmijoSearchError) as exc:
            raise type(exc)(f"run (n={n}, run={run}): {exc}") from exc
        except OverflowError as exc:
            raise ValueError(f"run (n={n}, run={run}): its sums overflow the float range "
                             f"({exc}); surplus_range or total_price is too large") from exc
        raise


def _mean_std(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0


# (scheme, per-run key) for fig2; fig3 adds the accounting variant.
_FIG2_COLUMNS = (("nsg", "nsg_utility"), ("fit", "fit_utility"))
_FIG3_COLUMNS = (
    ("nsg", "nsg_cost_model", "modelled_cost"),
    ("nsg", "nsg_payment", "direct_payment"),
    ("fit", "fit_cost_model", "modelled_cost"),
    ("fit", "fit_payment", "direct_payment"),
)


def _aggregate(per_run, n_values, columns):
    """One (n, scheme, mean, std, *rest) row per n and per column."""
    rows = []
    for n in n_values:
        runs = [r for r in per_run if r["n"] == n]
        for scheme, key, *rest in columns:
            mean, std = _mean_std([r[key] for r in runs])
            rows.append((n, scheme, mean, std, *rest))
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute the configured preset and write its CSV artifacts.

    Returns the list of files written. fig1 writes the convergence trace;
    fig2/fig3 write aggregated sweep columns; custom writes both sweep
    files. With dump_per_run, the raw per-run figures are written too.
    """
    problems = cfg.validate()
    if problems:
        raise ValueError("; ".join(problems))
    outdir = Path(cfg.output_path)
    build = _build_id()
    written = []

    if cfg.preset == "fig1_convergence":
        path = outdir / "fig1_convergence.csv"
        _write_csv(path, cfg, build, ("iteration", "eu_id", "surplus", "utility"), _fig1_rows(cfg))
        return [path]

    per_run = _sweep(cfg)
    if cfg.dump_per_run:
        path = outdir / "per_run.csv"
        cols = ("n", "run", "nsg_utility", "fit_utility", "nsg_cost_model",
                "nsg_payment", "fit_cost_model", "fit_payment")
        _write_csv(path, cfg, build, cols, [tuple(r[c] for c in cols) for r in per_run])
        written.append(path)

    if cfg.preset in ("fig2_utility_vs_n", "custom"):
        path = outdir / ("fig2_utility_vs_n.csv" if cfg.preset != "custom" else "utility_vs_n.csv")
        _write_csv(path, cfg, build, ("n", "scheme", "mean_utility", "std"),
                   _aggregate(per_run, cfg.n_values, _FIG2_COLUMNS))
        written.append(path)
    if cfg.preset in ("fig3_cost_vs_n", "custom"):
        path = outdir / ("fig3_cost_vs_n.csv" if cfg.preset != "custom" else "cost_vs_n.csv")
        _write_csv(path, cfg, build, ("n", "scheme", "mean_cost", "std", "accounting_variant"),
                   _aggregate(per_run, cfg.n_values, _FIG3_COLUMNS))
        written.append(path)
    return written


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "seed": scenario.seed,
        "users": [
            {"id": u.id, "surplus": u.surplus, "aggregation_count": u.aggregation_count}
            for u in scenario.users
        ],
        "grid": {
            "deficiency": scenario.grid.deficiency,
            "total_price": scenario.grid.total_price,
            "p_min": scenario.grid.p_min,
            "p_max": scenario.grid.p_max,
            "cost_linear": list(scenario.grid.cost_linear),
            "cost_const": list(scenario.grid.cost_const),
        },
    }


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario of a JSON object. Raises KeyError for a missing field,
    and ValueError naming a field of the wrong type."""
    users = tuple(
        EnergyUser(id=_integer(u["id"], f"users[{i}].id"),
                   surplus=_number(u["surplus"], f"users[{i}].surplus"),
                   aggregation_count=u.get("aggregation_count", 1))
        for i, u in enumerate(data["users"])
    )
    g = data["grid"]
    grid = GridParams(
        **{k: _number(g[k], f"grid.{k}") for k in ("deficiency", "total_price", "p_min", "p_max")},
        **{k: [_number(v, f"grid.{k}[{i}]") for i, v in enumerate(g[k])]
           for k in ("cost_linear", "cost_const")},
    )
    return Scenario(users=users, grid=grid, seed=_integer(data.get("seed", 0), "seed"))


def _number(value, name: str):
    """value, unless it is a bool (which arithmetic reads as 0 or 1), a
    string or null. Raises ValueError naming the field."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _integer(value, name: str) -> int:
    """An integer field: an integer, or a float without a fractional part
    (JSON writes 7 and 7.0 alike), as an int. Raises ValueError naming the
    field for anything else."""
    if _is_int(value) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _audit_file(path: Path) -> tuple[int, str]:
    """(exit code, report line) for one scenario JSON."""
    try:
        scenario = scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))
        problems = validate_scenario(scenario)
    except KeyError as exc:
        problems = [f"missing field {exc}"]
    except (OSError, TypeError, ValueError, OverflowError) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    if not problems:
        # the game and the certificate sum over the sellers
        with np.errstate(over="ignore"):
            total = float(scenario.surpluses.sum())
        if not math.isfinite(total):
            problems = [f"the surpluses' sum is not finite ({total})"]
    if problems:
        return 1, f"{path.name}: INVALID ({'; '.join(problems)})"
    try:
        outcome = run_stackelberg(scenario)
    except (ProjectionError, ArmijoSearchError) as exc:
        return 2, f"{path.name}: NON-CONVERGENT ({type(exc).__name__}: {exc})"
    except OverflowError as exc:
        return 1, f"{path.name}: INVALID ({exc})"
    if not outcome.converged:
        return 2, f"{path.name}: NON-CONVERGENT"
    passed, figures = certify(outcome, scenario)
    return (0 if passed else 1), f"{path.name}: {'OK' if passed else 'FAIL'} " + " ".join(
        f"{key}={value:.3e}" for key, value in figures.items())


def verify_corpus(corpus: Path) -> int:
    """Certify every scenario JSON in a directory and print one line each.

    Returns the highest exit code over the files: 2 when a game does not
    converge, 1 when a file is malformed or invalid or fails its
    certificate, 0 when every file passes; 1 for an empty corpus.
    """
    files = sorted(Path(corpus).glob("*.json"))
    if not files:
        print(f"no scenario files found in {corpus}", file=sys.stderr)
        return 1
    worst = 0
    for path in files:
        code, line = _audit_file(path)
        print(line)
        worst = max(worst, code)
    return worst


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def build_config(file_values: dict, flag_values: dict) -> ExperimentConfig:
    """Defaults <- preset overrides <- config file <- explicit flags."""
    merged = dict(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    preset = merged.get("preset", "custom")
    base = dataclasses.asdict(ExperimentConfig())
    if isinstance(preset, str):  # any other type is left to validate()
        base.update(_PRESET_OVERRIDES.get(preset, {}))
    base.update(merged)
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(base) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**base)


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_float_pair(text: str) -> list[float]:
    parts = [float(v) for v in text.split(",") if v.strip()]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    return parts


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input: one line on stderr and exit 1 (exit
    2 means non-convergence)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(prog="gridtrade", description="Energy-trading game simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment preset")
    sim.add_argument("--config", help="JSON config mirroring ExperimentConfig")
    sim.add_argument("--preset", choices=PRESETS)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--runs", type=int)
    sim.add_argument("--out", dest="output_path")
    sim.add_argument("--n-values", type=_parse_int_list, dest="n_values")
    sim.add_argument("--surplus-range", type=_parse_float_pair, dest="surplus_range")
    sim.add_argument("--total-price", type=float, dest="total_price")
    sim.add_argument("--p-min", type=float, dest="p_min")
    sim.add_argument("--p-max", type=float, dest="p_max")
    sim.add_argument("--fit-tariff", type=float, dest="fit_tariff")
    sim.add_argument("--deficiency-rule", dest="deficiency_rule")
    sim.add_argument("--cost-linear", type=float, dest="cost_linear")
    sim.add_argument("--cost-const", type=float, dest="cost_const")
    sim.add_argument("--dump-per-run", action="store_const", const=True,
                     dest="dump_per_run")

    ver = sub.add_parser("verify", help="certify the game of each scenario in a corpus")
    ver.add_argument("--corpus", required=True)

    args = parser.parse_args(argv)
    if args.command == "verify":
        return verify_corpus(Path(args.corpus))

    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        written = run_experiment(build_config(_load_config(args.config), flags))
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
