"""SHA-256 digests of a fixed corpus of games and follower solves, for
checking that a change moves no output bit.

    PYTHONPATH=src python -m tests.corpus_digest

Run from the repository root. It prints two digests:

* `games`: 3,000 games, the fig2 and fig3 presets at seeds 1, 11 and 211
  with 100 runs at each of their five network sizes, each preset and seed
  played as one `run_games` batch, as `simulate` plays it. Per game it
  hashes both stages' energies, prices, round counts and residuals, the
  converged flag and the transcript's JSON lines.
* `solves`: 1,200 `solve_ve` solves, the 400 problems of the bench's
  `follower_tight` workload at each of the same seeds. Per solve it hashes
  the final iterate, the stop reason and every iterate's record.

The digests of two checkouts agree exactly when every one of those bits
does. Two counts over the whole corpus follow them:

* `sorted rows`: the rows each caller of `projection._breakpoint_rows`
  sorted: box projections (the follower stages' anchors, and face rows
  whose normal is flat), batched and lone halfspace moves, and the price
  multiplier.
* `pivot chains`: per probe kind, how many move searches ran a chain of
  that many pivots (`projection._pivot`) before it certified or gave up.

This module is no test: its name keeps pytest from collecting it, and it
takes a few seconds.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import struct

import numpy as np

from bench.workloads import FollowerTight
from gridtrade import engine, price_opt, projection, vi_solver
from gridtrade.cli import build_config, sample_scenario

SEEDS = (1, 11, 211)
PRESETS = ("fig2_utility_vs_n", "fig3_cost_vs_n")
RUNS = 100


def _floats(digest, *values) -> None:
    digest.update(struct.pack(f"<{len(values)}d", *values))


def _stage(digest, result) -> None:
    if result is None:
        digest.update(b"none")
        return
    for arr in (result.energies, result.prices, result.mu_values):
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    digest.update(struct.pack("<q", result.follower_iterations))
    _floats(digest, result.vi_residual, result.total_utility, result.grid_cost)


def games_digest() -> tuple[str, int]:
    """The digest of every game of the corpus, and the number of games."""
    digest, count = hashlib.sha256(), 0
    for preset in PRESETS:
        for seed in SEEDS:
            cfg = build_config({}, {"preset": preset, "seed": seed, "runs": RUNS})
            scenarios = [sample_scenario(cfg, n, run)
                         for n in cfg.n_values for run in range(cfg.runs)]
            for outcome in engine.run_games(scenarios):
                _stage(digest, outcome.stage1)
                _stage(digest, outcome.stage2)
                digest.update(b"1" if outcome.converged else b"0")
                digest.update(outcome.log.to_jsonl().encode("utf-8"))
                count += 1
    return digest.hexdigest(), count


def solves_digest() -> tuple[str, int]:
    """The digest of every follower solve's trajectory, and the number of
    solves."""
    digest, count = hashlib.sha256(), 0
    for seed in SEEDS:
        for F, fset in FollowerTight(seed, None).problems:
            x, trace = vi_solver.solve_ve(F, fset)
            digest.update(x.tobytes())
            digest.update(trace.stop_reason.encode())
            for record in trace.records:
                digest.update(struct.pack("<q", record.iteration))
                _floats(digest, record.residual, record.step)
                for arr in (record.x, record.z, record.mu):
                    digest.update(arr.tobytes())
            count += 1
    return digest.hexdigest(), count


def _caller(finish) -> str:
    """The kind of search that passed finish: a box projection or a batched
    or lone halfspace move."""
    name = finish.__qualname__
    if "_move_path_rows" in name:
        return "batched moves"
    return "lone moves" if "_move_path" in name else "box projections"


@contextlib.contextmanager
def counted_searches():
    """Count, while the block runs, the rows each caller of _breakpoint_rows
    sorts and the length of every pivot chain; yields (sorted, chains), a
    Counter of rows per caller and a Counter per probe kind of chains per
    length."""
    sorted_rows = collections.Counter()
    chains = collections.defaultdict(collections.Counter)
    search, price_search, pivot = (projection._breakpoint_rows, price_opt._breakpoint_rows,
                                   projection._pivot)

    def counted(kind, call):
        def wrapped(s, lo, hi, target, finish, *args, **kwargs):
            sorted_rows[kind or _caller(finish)] += len(target)
            return call(s, lo, hi, target, finish, *args, **kwargs)
        return wrapped

    def counted_pivot(finish, lams):
        steps = [0] * len(lams)

        def step(rows, guesses, strict):
            for j in rows:
                steps[j] += 1
            return finish(rows, guesses, strict)

        rest = pivot(step, lams)
        chains[_caller(finish)].update(steps)
        return rest

    projection._breakpoint_rows = counted(None, search)
    price_opt._breakpoint_rows = counted("price multiplier", price_search)
    projection._pivot = counted_pivot
    try:
        yield sorted_rows, chains
    finally:
        projection._breakpoint_rows, price_opt._breakpoint_rows = search, price_search
        projection._pivot = pivot


def main() -> None:
    with counted_searches() as (sorted_rows, chains):
        for name, (value, count) in (("games", games_digest()), ("solves", solves_digest())):
            print(f"{name} ({count}): {value}")
    kinds = ("box projections", "batched moves", "lone moves", "price multiplier")
    print("sorted rows: " + ", ".join(f"{kind} {sorted_rows[kind]:,}" for kind in kinds))
    print("pivot chains by length: " + "; ".join(
        f"{kind} " + ", ".join(f"{length}: {chains[kind][length]:,}"
                               for length in sorted(chains[kind]))
        for kind in kinds[1:3]))


if __name__ == "__main__":
    main()
