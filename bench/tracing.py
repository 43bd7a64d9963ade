"""Per-layer tracing from outside the program.

Each layer is timed by replacing a public name at every module attribute
(or class attribute) through which callers reach it, so the program itself
is never edited. Spans are kept in memory with their name, start, end,
parent span and item id; the two hottest leaf calls (`engine.Message` and
`MessageLog.append`, about 17k per n=500 game) are aggregated into per-item
counts and time instead. Counts are read from the public return values of
the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gridtrade.vi_solver import SolverConfig

perf = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None
    # Time inside this span spent in aggregated leaf calls and in the
    # tracer's own count hooks; it is not the layer's own work.
    excluded: float = 0.0


@dataclass(frozen=True)
class Layer:
    """A public name to wrap: `attr` may be `Class.method`."""

    name: str
    module: str
    attr: str
    leaf: bool = False
    hook: Callable | None = None
    # Span name for a callback the caller passes as `on_iteration`.
    callback: str | None = None


@dataclass(frozen=True)
class Binding:
    """One place a caller looks a layer up: owner.attr is original."""

    layer: Layer
    owner: object
    attr: str
    original: object


def armijo_backtracks(records, gamma: float, beta: float) -> int:
    """Backtracks recovered from the accepted steps t = gamma * beta**m.

    The record that stops on the residual test carries step 0 and took no
    step, so it adds nothing.
    """
    total = 0
    for rec in records:
        if rec.step > 0.0:
            total += round(math.log(rec.step / gamma) / math.log(beta))
    return total


def _count_game(tracer, args, kwargs, outcome):
    c = tracer.counts
    c["games"] += 1
    c["engine.rounds"] += outcome.log.total_rounds
    c["engine.messages"] += len(outcome.log.messages)


def _count_jsonl(tracer, args, kwargs, text):
    tracer.counts["engine.MessageLog.to_jsonl.bytes"] += len(text.encode("utf-8"))


def _count_solve(tracer, args, kwargs, result):
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None) or SolverConfig()
    trace = result[1]
    c = tracer.counts
    c["vi_solver.solve_ve.iterations"] += trace.iterations
    c["vi_solver.solve_ve.armijo_backtracks"] += armijo_backtracks(
        trace.records, cfg.gamma, cfg.beta)
    c[f"vi_solver.solve_ve.stop_{trace.stop_reason}"] += 1


def _count_projection(tracer, args, kwargs, result):
    c = tracer.counts
    c["projection.project_box_budget.bisection_steps"] += result.iterations
    c["projection.budget_active"] += bool(result.active_budget)


def _count_prices(tracer, args, kwargs, result):
    x = np.asarray(args[0] if args else kwargs["x"])
    c = tracer.counts
    c["price_opt.idle"] += int((x == 0.0).sum())
    c["price_opt.sellers"] += x.size


# The round-logging callback engine hands to solve_ve has no module-level
# name, so it is wrapped where it crosses into solve_ve.
ON_ITERATION = "engine.on_iteration"

LAYERS = (
    Layer("cli.run_experiment", "gridtrade.cli", "run_experiment"),
    Layer("cli.sample_scenario", "gridtrade.cli", "sample_scenario"),
    Layer("engine.run_stackelberg", "gridtrade.engine", "run_stackelberg", hook=_count_game),
    Layer("engine.run_fit", "gridtrade.engine", "run_fit"),
    Layer("engine.Message", "gridtrade.engine", "Message", leaf=True),
    Layer("engine.MessageLog.append", "gridtrade.engine", "MessageLog.append", leaf=True),
    Layer("engine.MessageLog.to_jsonl", "gridtrade.engine", "MessageLog.to_jsonl",
          hook=_count_jsonl),
    Layer("model.validate_scenario", "gridtrade.model", "validate_scenario"),
    Layer("vi_solver.solve_ve", "gridtrade.vi_solver", "solve_ve", hook=_count_solve,
          callback=ON_ITERATION),
    Layer("vi_solver.natural_residual", "gridtrade.vi_solver", "natural_residual"),
    Layer("projection.project_box_budget", "gridtrade.projection", "project_box_budget",
          hook=_count_projection),
    Layer("projection.project_halfspace_then_set", "gridtrade.projection",
          "project_halfspace_then_set"),
    Layer("price_opt.optimize_prices", "gridtrade.price_opt", "optimize_prices",
          hook=_count_prices),
)
SPAN_NAMES = tuple(layer.name for layer in LAYERS) + (ON_ITERATION,)


def bindings(layers=LAYERS) -> list[Binding]:
    """Every attribute through which a caller reaches each layer.

    A plain name is rebound wherever a gridtrade module holds the same
    object (for example `engine.optimize_prices` and `cli.run_stackelberg`);
    a method is rebound on its class. A name missing from the program is
    skipped, so the layer reports zero calls.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "gridtrade" or name.startswith("gridtrade.")]
    found = []
    for layer in layers:
        owner = importlib.import_module(layer.module)
        *path, attr = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        if path:
            found.append(Binding(layer, owner, attr, original))
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    found.append(Binding(layer, module, name, original))
    return found


def live_wrappers(bound: list[Binding]) -> list[str]:
    """Names of bindings that do not hold their original object."""
    return [f"{b.owner.__name__}.{b.attr}" for b in bound
            if getattr(b.owner, b.attr) is not b.original]


class Tracer:
    """Span recorder; install() wraps every binding, restore() undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.item: int | None = None
        self.leaves: dict[tuple[int | None, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._installed: list[Binding] = []

    def install(self, bound: list[Binding]) -> None:
        wrappers = {}
        for b in bound:
            if b.layer.name not in wrappers:
                make = self._leaf if b.layer.leaf else self._span
                wrappers[b.layer.name] = make(b.layer, b.original)
            setattr(b.owner, b.attr, wrappers[b.layer.name])
            self._installed.append(b)

    def restore(self) -> None:
        while self._installed:
            b = self._installed.pop()
            setattr(b.owner, b.attr, b.original)

    def _enter(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, perf(), 0.0, parent, self.item)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exclude(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]].excluded += seconds

    def _span(self, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer.callback and kwargs.get("on_iteration") is not None:
                kwargs["on_iteration"] = tracer._span(
                    Layer(layer.callback, "", ""), kwargs["on_iteration"])
            span = tracer._enter(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                tracer.stack.pop()
            if layer.hook is not None:
                t0 = perf()
                layer.hook(tracer, args, kwargs, result)
                tracer._exclude(perf() - t0)
            return result
        return wrapper

    def _leaf(self, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stats = tracer.leaves[(tracer.item, layer.name)]
                stats[0] += 1
                stats[1] += dt
                tracer._exclude(dt)
        return wrapper

    def records(self) -> list[dict]:
        """Spans, then per-item leaf aggregates, as JSON-ready dicts."""
        out = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                "item": s.item, "self": t}
               for s, t in zip(self.spans, self_times(self.spans))]
        out += [{"leaf": name, "item": item, "calls": calls, "seconds": seconds}
                for (item, name), (calls, seconds) in self.leaves.items()]
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over everything traced, as name -> (value, unit)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for span, self_s in zip(self.spans, self_times(self.spans)):
            calls[span.name] += 1
            total[span.name] += span.end - span.start
            own[span.name] += self_s
        for (_, name), (n, seconds) in self.leaves.items():
            calls[name] += n
            total[name] += seconds
            own[name] += seconds
        m = {}
        for name in SPAN_NAMES:
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.total_ms"] = (1e3 * total[name], "ms")
            m[f"{name}.self_ms"] = (1e3 * own[name], "ms")
        c = self.counts
        games = c["games"]
        for key in ("vi_solver.solve_ve.iterations", "vi_solver.solve_ve.armijo_backtracks",
                    "vi_solver.solve_ve.stop_residual", "vi_solver.solve_ve.stop_caller",
                    "vi_solver.solve_ve.stop_max_iterations",
                    "projection.project_box_budget.bisection_steps"):
            m[key] = (c[key], "count")
        m["projection.project_box_budget.budget_active_frac"] = (
            _ratio(c["projection.budget_active"], calls["projection.project_box_budget"]),
            "ratio")
        m["engine.rounds_per_game"] = (_ratio(c["engine.rounds"], games), "count")
        m["engine.messages_per_game"] = (_ratio(c["engine.messages"], games), "count")
        m["engine.MessageLog.to_jsonl.bytes"] = (c["engine.MessageLog.to_jsonl.bytes"], "B")
        m["price_opt.optimize_prices.idle_frac"] = (
            _ratio(c["price_opt.idle"], c["price_opt.sellers"]), "ratio")
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover,
    minus its excluded time."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.end - span.start - covered - span.excluded)
    return result
