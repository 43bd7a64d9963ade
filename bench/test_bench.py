"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from gridtrade import engine, projection, vi_solver  # noqa: E402
from gridtrade.vi_solver import IterationRecord  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 3.0, 6.0, 0, 0),        # overlaps a: the union 1..6 counts once
        S("a.leafy", 1.5, 2.0, 1, 0, excluded=0.25),
        S("c", 9.0, 12.0, 0, 0),       # runs past root's end: only 9..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.25, 3.0])


def test_backtracks_recovered_from_accepted_steps():
    gamma, beta = 0.95, 0.5
    x = np.zeros(2)

    def rec(i, m):
        step = 0.0 if m is None else gamma * beta ** m
        return IterationRecord(i, x, 1.0, step, x, x)

    records = [rec(1, 0), rec(2, 3), rec(3, 1), rec(4, None)]
    assert tracing.armijo_backtracks(records, gamma, beta) == 4


@pytest.fixture
def small_sweep(tmp_path):
    wl = workloads.Sweep(7, tmp_path)
    wl.cfg = dataclasses.replace(wl.cfg, n_values=[5, 10], runs=1)
    wl.keys = [(5, 0), (10, 0)]
    return wl


def test_sweep_check_flags_a_perturbed_per_run_value(small_sweep):
    refs = small_sweep.references()
    files = small_sweep.step(0)
    assert all(g is not None for g in small_sweep.check(files, refs))

    text = files["per_run.csv"].decode("utf-8")
    lines = text.split("\r\n")
    cells = lines[-2].split(",")          # last game's row; the file ends in \r\n
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-4))
    lines[-2] = ",".join(cells)
    perturbed = dict(files, **{"per_run.csv": "\r\n".join(lines).encode("utf-8")})
    gaps = small_sweep.check(perturbed, refs)
    assert gaps[0] is not None and gaps[1] is None


def test_every_wrapper_is_restored_after_a_traced_pass(tmp_path):
    bound = tracing.bindings()
    names = {b.layer.name for b in bound}
    assert names == {layer.name for layer in tracing.LAYERS}
    before = {(id(b.owner), b.attr): getattr(b.owner, b.attr) for b in bound}

    tracer = tracing.Tracer()
    tracer.install(bound)
    try:
        assert engine.run_stackelberg is not before[(id(engine), "run_stackelberg")]
        assert vi_solver.project_box_budget is projection.project_box_budget
        assert sorted(tracing.live_wrappers(bound)) == sorted(
            f"{b.owner.__name__}.{b.attr}" for b in bound)
        problem = workloads.FollowerTight(1, tmp_path).problems[0]
        vi_solver.solve_ve(*problem)
    finally:
        tracer.restore()
    assert tracing.live_wrappers(bound) == []
    assert all(getattr(b.owner, b.attr) is before[(id(b.owner), b.attr)] for b in bound)
    metrics = tracer.layer_metrics()
    assert metrics["vi_solver.solve_ve.calls"][0] == 1
    assert metrics["vi_solver.natural_residual.calls"][0] == metrics[
        "vi_solver.solve_ve.iterations"][0]
