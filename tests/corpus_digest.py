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
does. This module is no test: its name keeps pytest from collecting it,
and it takes a few seconds.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from bench.workloads import FollowerTight
from gridtrade import engine, vi_solver
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


def main() -> None:
    for name, (value, count) in (("games", games_digest()), ("solves", solves_digest())):
        print(f"{name} ({count}): {value}")


if __name__ == "__main__":
    main()
