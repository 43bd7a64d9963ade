"""Two-stage game orchestration with an explicit message contract.

The grid announces its deficiency and price budget; sellers adopt the
uniform per-user price, then iterate their coupled best responses, offering
energies and reporting slack values each round while the grid answers with
a single repeat bit. Once the offers settle, the grid optimizes the price
vector against them, broadcasts per-user price updates, and the sellers
iterate once more at the new prices. Every message is recorded, so the
exchange can be replayed or audited against the round grammar

    (announce offer* slack* repeat)*  price*  (offer* slack* repeat)*

The transcript is stored in columns: an announce as its three fields, a
follower round as its offer and slack arrays plus the repeat bit, a price
stage as its price array. Messages exist only as JSON lines, rendered
from those columns: one orjson call formats every float of the log, each
array once (a replayed stage's blocks share stage 1's arrays), and a
block of n lines is joined from its kind's cached fixed text with the
value and round texts set in between. The bytes are those of one
json.dumps(..., sort_keys=True) line per message. orjson is imported when
a transcript is first rendered, so `import gridtrade` does not load it.

Games of any network sizes can be played in lockstep (run_games): one
follower loop iterates every game's sellers as one row of a (games,
sellers) batch, each game padded to the batch width (see run_games), one
breakpoint search per size prices the live games of a stage
(price_opt._price_rows), and the stage results are row arithmetic. Each
game keeps its own transcript, and its outcome does not depend on which
games share the batch. run_stackelberg is a batch of one, played by the
same row code; only its halfspace dual's probe works on one vector (see
vi_solver).

The grid sets its prices once: each game plays one price stage. The
follower loop is deterministic, so a stage played again at the same prices
is the same stage round for round. A game whose optimized price row has the
bytes of its uniform row therefore replays stage 1 as stage 2, not solving
it again: the price block, then stage 1's round blocks renumbered. This
happens where the price slice is one point, n*p_min = total_price, which
price_opt prices exactly at p_min: 10 of the 50 `sweep` benchmark games
(n = 25), all 64 `large_n` games (n = 500), and all 100 n = 25 runs of a
default fig2 or fig3 `simulate`.

The grid's stop rule mirrors the slack-equalization idea: it stops a stage
when the interior slack values agree within tolerance AND have stopped
moving between rounds (equal slacks alone are not sufficient: with one
seller, or symmetric sellers, they agree from the first round at any
allocation), or when the solver's own residual test fires first.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .model import EquilibriumResult, Scenario, _grid_cost_rows, validate_scenario
from .price_opt import _price_rows
from .projection import _max, _min, _sum, _take
from .vi_solver import _extragradient

PG = "pg"
Message = str  # one transcript message: its JSON line


class ScenarioValidationError(ValueError):
    """run_stackelberg was handed a scenario that fails validation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class _Announce:
    """The grid's announce, its fields kept as given, so integer values
    render as integers."""

    round: int
    deficiency: float
    total_price: float
    n_users: int


@dataclass(frozen=True)
class _RoundBlock:
    """One follower round: every seller's offer and slack report, then the
    grid's repeat bit, held as arrays instead of 2n+1 messages."""

    round: int
    offers: np.ndarray
    slacks: np.ndarray
    repeat: bool


@dataclass(frozen=True)
class _PriceBlock:
    """One price stage: the grid's price update to every seller, held as
    one array instead of n messages."""

    round: int
    prices: np.ndarray


# One line per seller as json.dumps(..., sort_keys=True) writes it; after
# `% {"i": i}` the value and the round are left as %s slots.
_LINES = {
    "offer": ('{"kind": "offer", "payload": {"energy": %%s, "eu_id": %(i)d}, '
              '"round": %%s, "sender": "eu:%(i)d"}'),
    "slack_report": ('{"kind": "slack_report", "payload": {"eu_id": %(i)d, "slack": %%s}, '
                     '"round": %%s, "sender": "eu:%(i)d"}'),
    "price_update": ('{"kind": "price_update", "payload": {"eu_id": %(i)d, "price": %%s}, '
                     f'"round": %%s, "sender": "{PG}"}}'),
}


# Per kind, the fixed text of lines 0, 1, ... around their slots. Line i's
# text does not depend on the block size, so one pair of lists, grown on
# demand, serves every size. In fragments, [4i] leads into line i's value
# (closing line i-1 first), [4i+2] runs from that value to the round, and
# [4i+1] and [4i+3] are the slots a block fills; tails[i] closes line i.
_FRAGMENTS: dict[str, tuple[list[str], list[str]]] = {kind: ([], []) for kind in _LINES}


def _fragments(kind: str, n: int) -> tuple[list[str], list[str]]:
    """The kind's fragments and tails, covering at least n lines. Growth
    builds new lists and swaps them in, so a reader never sees a half-grown
    pair."""
    fragments, tails = _FRAGMENTS[kind]
    if len(tails) < n:
        fragments, tails = fragments[:], tails[:]
        for i in range(len(tails), n):
            head, mid, tail = (_LINES[kind] % {"i": i}).split("%s")
            fragments += (tails[-1] + "\n" + head if i else head, "", mid, "")
            tails.append(tail)
        _FRAGMENTS[kind] = fragments, tails
    return fragments, tails


def _json_floats(values: np.ndarray) -> list[str]:
    """Each value as json.dumps writes it, formatted by one orjson call.

    For ±0.0 and every float with 1e-4 <= |v| < 1e16, orjson writes
    float.__repr__'s text, which is json.dumps's. It writes the others as
    null, 1e-5 or 1e16 where json.dumps writes NaN, 1e-05 or 1e+16, so
    those are set again one by one.
    """
    import orjson

    if not values.size:
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(values)
    # NaN fails both comparisons, so it lands among the others too
    others = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (values != 0.0)
    for i in np.flatnonzero(others).tolist():
        texts[i] = json.dumps(float(values[i]))
    return texts


def _snapshot(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


class MessageLog:
    """Append-only transcript; round numbers never decrease.

    The announce is kept as its three fields, a follower round as one block
    of offer and slack arrays plus the repeat bit, and a price stage as one
    block holding the price array. Messages exist only as JSON lines:
    `to_jsonl` and `messages` render the blocks column by column, and one
    _json_floats call formats every distinct array of the log once. A block
    of n lines copies the first 4n of its kind's cached fragments, sets the
    value texts and the round into their slots and joins them once. The
    bytes are those of the per-message json.dumps renderer.
    """

    def __init__(self) -> None:
        self._entries: list[_Announce | _RoundBlock | _PriceBlock] = []

    def _check_round(self, rnd) -> None:
        if self._entries and rnd < self._entries[-1].round:
            raise ValueError(f"round {rnd} precedes current round {self._entries[-1].round}")

    def append(self, round: int, deficiency, total_price, n_users) -> None:
        """Record the grid's announce of its deficiency, its price budget
        and the network size."""
        rnd = operator.index(round)
        self._check_round(rnd)
        self._entries.append(_Announce(rnd, deficiency, total_price, n_users))

    def append_round(self, round: int, offers, slacks, repeat: bool) -> None:
        """Record one follower round: offer i and slack i come from seller
        i, the repeat bit from the grid. The arrays are copied."""
        rnd = operator.index(round)
        offers = _snapshot(offers, "offers")
        slacks = _snapshot(slacks, "slacks")
        if offers.shape != slacks.shape:
            raise ValueError(
                f"offers and slacks must match, got shapes {offers.shape} and {slacks.shape}")
        if not isinstance(repeat, bool):
            raise ValueError("repeat_bit carries exactly one boolean")
        self._check_round(rnd)
        self._entries.append(_RoundBlock(rnd, offers, slacks, repeat))

    def _append_frozen(self, entry: _Announce | _RoundBlock) -> None:
        """append or append_round for the engine's lockstep rounds: a round
        block's arrays are read-only rows of the round's one copy and the
        round follows the log's last, so nothing is copied or checked again."""
        self._entries.append(entry)

    def append_prices(self, round: int, prices) -> None:
        """Record one price stage: the grid sends price i to seller i. The
        array is copied."""
        rnd = operator.index(round)
        prices = _snapshot(prices, "prices")
        self._check_round(rnd)
        self._entries.append(_PriceBlock(rnd, prices))

    @property
    def messages(self) -> list[Message]:
        """Every message as its JSON line, in transcript order, rendered
        anew on each read."""
        text = self._render()
        return text.split("\n") if text else []

    def __len__(self) -> int:
        total = 0
        for entry in self._entries:
            if isinstance(entry, _RoundBlock):
                total += 2 * entry.offers.size + 1
            elif isinstance(entry, _PriceBlock):
                total += entry.prices.size
            else:
                total += 1
        return total

    @property
    def total_rounds(self) -> int:
        return self._entries[-1].round if self._entries else 0

    def to_jsonl(self) -> str:
        """The transcript as JSON lines, one per message."""
        return self._render()

    def _render(self) -> str:
        # Each distinct array, by identity, is formatted once: a replayed
        # stage's blocks share stage 1's arrays. starts[id] is where an
        # array's texts begin.
        columns = []
        starts: dict[int, int] = {}
        size = 0
        for entry in self._entries:
            if isinstance(entry, _RoundBlock):
                arrays = (entry.offers, entry.slacks)
            elif isinstance(entry, _PriceBlock):
                arrays = (entry.prices,)
            else:
                continue
            for values in arrays:
                if id(values) not in starts:
                    starts[id(values)] = size
                    size += values.size
                    columns.append(values)
        texts = _json_floats(np.concatenate(columns)) if columns else []
        lines: list[str] = []

        def fill(kind: str, rnd: str, values: np.ndarray) -> None:
            n = values.size
            if n == 0:
                return
            fragments, tails = _fragments(kind, n)
            parts = fragments[:4 * n]
            start = starts[id(values)]
            parts[1::4] = texts[start:start + n]
            parts[3::4] = [rnd] * n
            parts.append(tails[n - 1])
            lines.append("".join(parts))

        for entry in self._entries:
            r = entry.round
            if isinstance(entry, _RoundBlock):
                fill("offer", str(r), entry.offers)
                fill("slack_report", str(r), entry.slacks)
                bit = "true" if entry.repeat else "false"
                lines.append(f'{{"kind": "repeat_bit", "payload": {{"repeat": {bit}}}, '
                             f'"round": {r}, "sender": "{PG}"}}')
            elif isinstance(entry, _PriceBlock):
                fill("price_update", str(r), entry.prices)
            else:
                payload = {"deficiency": entry.deficiency, "total_price": entry.total_price,
                           "n_users": entry.n_users}
                lines.append(json.dumps(
                    {"round": r, "sender": PG, "kind": "announce", "payload": payload},
                    sort_keys=True,
                ))
        return "\n".join(lines)


@dataclass(frozen=True)
class GameOutcome:
    stage1: EquilibriumResult
    stage2: EquilibriumResult | None
    log: MessageLog
    converged: bool


def _interior_mu_stop(x, mu, prev_mu, margin, upper_limit):
    """Slack-equalization stop, per row: interior spread within tolerance
    and slack values stationary between rounds. A seller is interior when
    its offer lies strictly between margin and upper_limit. The spread, the
    peak and the movement are exact maxima of the batch; the interior mean
    is taken per row, as numpy rounds it for that row alone. At a sweep's
    batch sizes the per-row tests cost less as Python floats than as
    column operations."""
    interior = (x > margin) & (x < upper_limit)
    top = _max(np.where(interior, mu, -np.inf), axis=1).tolist()
    bottom = _min(np.where(interior, mu, np.inf), axis=1).tolist()
    peak = _max(np.abs(mu), axis=1).tolist()
    moved = _max(np.abs(mu - prev_mu), axis=1).tolist()
    stops = []
    for j, count in enumerate(_sum(interior, axis=1).tolist()):
        if count < 2:
            stops.append(moved[j] <= 1e-6 * (1.0 + peak[j]))
            continue
        spread = top[j] - bottom[j]
        if max(moved[j], spread) > 2e-6 * (1.0 + max(abs(top[j]), abs(bottom[j]))):
            # The mean lies within the interior values, so the tolerance
            # below cannot reach this bound: no need to take the mean.
            stops.append(False)
        else:
            tol = 1e-6 * (1.0 + abs(float(mu[j][interior[j]].mean())))
            stops.append(moved[j] <= tol and spread <= tol)
    return stops


def _follower_stage(scenarios, s, prices, logs, stage):
    """Run one follower best-response loop per game, in lockstep, logging a
    round per iteration into each game's own log.

    s and prices hold one row per game, padded with zeros past the game's
    size (see run_games). Returns (allocations, rounds, residuals,
    converged), one row or entry per game.
    """
    m, n = s.shape
    sizes = [sc.n_users for sc in scenarios]
    widths = None if min(sizes) == n else sizes
    budget = [sc.grid.deficiency for sc in scenarios]
    margin = 1e-6 * np.maximum(1.0, s)
    upper_limit = s - margin
    prev_mu = np.zeros_like(s)
    rounds = [0] * m
    residual = [float("nan")] * m

    def on_iteration(iteration, rows, x, res, steps, z, mu, done):
        # The loop cuts the batch to its widest live game.
        k = x.shape[1]
        if done:
            stops = [True] * len(rows)
        else:
            # A stage's first round has no previous slacks to compare with.
            stops = [stop and rounds[r] > 0 for stop, r in zip(_interior_mu_stop(
                x, mu, _take(prev_mu, rows)[:, :k], _take(margin, rows)[:, :k],
                _take(upper_limit, rows)[:, :k]), rows.tolist())]
        # One read-only copy of the round; each game's block holds its row,
        # cut to the game's size.
        offers, slacks = _frozen(x), _frozen(mu)
        for j, r in enumerate(rows.tolist()):
            log, size = logs[r], sizes[r]
            rnd = log.total_rounds + 1
            if stage == 1:
                grid = scenarios[r].grid
                log._append_frozen(_Announce(rnd, grid.deficiency, grid.total_price, size))
            elif rounds[r] == 0:
                log.append_prices(rnd, prices[r, :size])
            log._append_frozen(_RoundBlock(rnd, offers[j, :size], slacks[j, :size],
                                           not stops[j]))
            rounds[r] += 1
            residual[r] = res[j]
        prev_mu[rows, :k] = mu
        return stops

    x, reasons = _extragradient(s, prices, s, budget, on_iteration, widths)
    return x, rounds, residual, [reason in ("residual", "caller") for reason in reasons]


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a."""
    a = a.copy()
    a.flags.writeable = False
    return a


def _stage_result(s, x, prices, a, b, rounds, residuals) -> list[EquilibriumResult]:
    """One stage result per row of the (games, n) arrays: surpluses s,
    energies x, prices, and the grid's cost coefficients a and b. Each
    game's totals are row sums, which round as the game's own sums do."""
    utilities = s * x - 0.5 * x * x + prices * x
    totals = _sum(utilities, axis=1).tolist()
    costs = _grid_cost_rows(prices, x, a, b)
    mu = s - x + prices
    return [EquilibriumResult(energies=x[i], prices=prices[i], utilities=utilities[i],
                              total_utility=totals[i], grid_cost=costs[i],
                              follower_iterations=rounds[i], vi_residual=residuals[i],
                              mu_values=mu[i])
            for i in range(len(x))]


def _costs(scenarios):
    """The grid's cost coefficients a and b, one row per scenario."""
    return (np.array([sc.grid.cost_linear for sc in scenarios]),
            np.array([sc.grid.cost_const for sc in scenarios]))


def _padded(rows, width):
    """The 1-D arrays rows as the rows of one (len(rows), width) array, each
    padded with zeros."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def _by_size(sizes, at):
    """The positions at grouped by network size, as (size, positions) pairs
    in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i in at:
        groups.setdefault(sizes[i], []).append(i)
    return groups.items()


def _block(a, at, size):
    """The rows of a at the positions at, cut to their network size."""
    return a if len(at) == len(a) and size == a.shape[1] else a[at, :size]


def _stage_results(scenarios, s, x, prices, rounds, residuals) -> list[EquilibriumResult]:
    """_stage_result of each game from its row of the padded arrays s, x and
    prices, the games of one size taken as one unpadded block."""
    sizes = [sc.n_users for sc in scenarios]
    results: list = [None] * len(scenarios)
    for n, at in _by_size(sizes, range(len(scenarios))):
        rows = _stage_result(_block(s, at, n), _block(x, at, n), _block(prices, at, n),
                             *_costs([scenarios[i] for i in at]), [rounds[i] for i in at],
                             [residuals[i] for i in at])
        for i, result in zip(at, rows):
            results[i] = result
    return results


def run_games(scenarios) -> list[GameOutcome]:
    """Play the two-stage game of each scenario in lockstep, followers at
    vi_solver.SOLVER, and return one outcome per scenario.

    Both halves of each exchange work on the live games as rows of a
    (games, sellers) batch: one follower loop iterates every game's sellers
    and a game leaves the batch when its stage stops, one breakpoint search
    per network size prices the games that converged in stage 1, and each
    stage's results are row arithmetic. Each game keeps its own transcript,
    and its outcome is the same, bit for bit, whichever games share its
    batch.

    Games of any sizes share the batch. A game's row is padded to the batch
    width with inert sellers of surplus 0, price 0 and upper bound 0: they
    stay at 0, and every sum, count, maximum, tolerance and message of the
    game is taken over its own sellers alone. Whenever games leave the
    follower loop, the batch is cut to its widest live game, so a lone last
    game plays exactly as it does alone. The price stage and the stage
    results take the games of each size as one unpadded block.

    A game whose optimized price row has the bytes of its uniform row
    replays stage 1 (see the module docstring): its stage-2 round blocks
    share stage 1's read-only arrays, and its stage-2 result is stage1
    itself. Only the other games go through the follower loop again.

    Raises ScenarioValidationError for the first invalid scenario, and
    OverflowError when a surplus plus its price overflows the float range.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    for scenario in scenarios:
        problems = validate_scenario(scenario)
        if problems:
            raise ScenarioValidationError(problems)

    m = len(scenarios)
    sizes = [sc.n_users for sc in scenarios]
    grids = [sc.grid for sc in scenarios]
    logs = [MessageLog() for _ in scenarios]
    s = _padded([sc.surpluses for sc in scenarios], max(sizes))
    uniform = _padded([np.full(n, g.total_price / n) for g, n in zip(grids, sizes)], max(sizes))
    x1, rounds1, res1, conv1 = _follower_stage(scenarios, s, uniform, logs, stage=1)
    stage1 = _stage_results(scenarios, s, x1, uniform, rounds1, res1)
    stage2: list[EquilibriumResult | None] = [None] * m
    converged = list(conv1)

    p_star = np.zeros_like(s)
    solve = []
    for n, at in _by_size(sizes, [i for i in range(m) if conv1[i]]):
        p_star[at, :n] = _price_rows(_block(x1, at, n), _costs([scenarios[i] for i in at])[0],
                                     [grids[i].p_min for i in at], [grids[i].p_max for i in at],
                                     [grids[i].total_price for i in at])[0]
        for i in at:
            if p_star[i, :n].tobytes() == uniform[i, :n].tobytes():
                _replay(logs[i], p_star[i, :n])
                stage2[i] = stage1[i]
            else:
                solve.append(i)
    if solve:
        solve.sort()
        games = [scenarios[i] for i in solve]
        cols = slice(max(sizes[i] for i in solve))
        x2, rounds2, res2, conv2 = _follower_stage(
            games, s[solve, cols], p_star[solve, cols], [logs[i] for i in solve], stage=2)
        results = _stage_results(games, s[solve, cols], x2, p_star[solve, cols], rounds2, res2)
        for i, result, conv in zip(solve, results, conv2):
            stage2[i], converged[i] = result, conv
    return [GameOutcome(stage1=stage1[i], stage2=stage2[i], log=logs[i], converged=converged[i])
            for i in range(m)]


def _replay(log: MessageLog, prices: np.ndarray) -> None:
    """Log stage 1 again as stage 2, at the same prices: the price block,
    then stage 1's round blocks renumbered from the price block's round,
    sharing their arrays."""
    blocks = [e for e in log._entries if isinstance(e, _RoundBlock)]
    rnd = log.total_rounds + 1
    log.append_prices(rnd, prices)
    for k, block in enumerate(blocks):
        log._append_frozen(_RoundBlock(rnd + k, block.offers, block.slacks, block.repeat))


def run_stackelberg(scenario: Scenario) -> GameOutcome:
    """Play the two-stage game and return both stage equilibria with the
    full message transcript: run_games with a batch of one.

    Stage 1 announces the scenario and solves the followers' problem at the
    uniform price; stage 2 optimizes prices against the offered energies
    once and re-solves.
    """
    return run_games([scenario])[0]


def run_fit(scenario: Scenario, tariff: float) -> EquilibriumResult:
    """Flat-tariff baseline: every seller offers its full surplus at the
    tariff and is curtailed proportionally when the total exceeds the
    grid's need. Utilities and grid cost use the same functionals as the
    game so the schemes are directly comparable.
    """
    return _fit_rows([scenario], tariff)[0]


def _fit_rows(scenarios, tariff: float) -> list[EquilibriumResult]:
    """run_fit for each scenario, all of one network size, as rows: the
    sweep takes the runs at each n as one call."""
    if not tariff > 0.0:
        raise ValueError(f"tariff must be positive, got {tariff}")
    s = np.array([sc.surpluses for sc in scenarios], dtype=float)
    deficiency = np.array([sc.grid.deficiency for sc in scenarios], dtype=float)
    x = s * np.minimum(1.0, deficiency / _sum(s, axis=1))[:, None]
    prices = np.full(s.shape, float(tariff))
    m = len(scenarios)
    return _stage_result(s, x, prices, *_costs(scenarios), [0] * m, [0.0] * m)
