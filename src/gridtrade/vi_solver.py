"""Follower-side equilibrium solver.

For a fixed price vector the sellers' coupled best-response problem is a
variational inequality VI(X, F) over the box-plus-budget set X with the
affine operator

    F(x) = x - surpluses - prices,

the stacked negative marginal utilities. F has an identity Jacobian, hence is
strongly monotone, and the VI has a unique solution; because F is a shifted
identity that solution is also the projection of (surpluses + prices) onto X,
which `ve_closed_form` exposes as an independent cross-check.

`solve_ve` runs the hyperplane-projection (extragradient) method at its one
setting, `SOLVER` (see `SolverConfig`): per iteration the natural residual
map r(x) = P_X(x - F(x)) is formed, an Armijo backtracking search places a
trial point z on the segment [x, r(x)], and the iterate is projected onto X
intersected with the separating halfspace {w : <F(z), w - z> <= 0}, which
always contains the solution. Distances to the solution are therefore
nonincreasing along the iteration. Since x - F(x) = surpluses + prices for
every x, r(x) is projected once per solve (the anchor, the same point
`ve_closed_form` returns) and each iteration only compensates its budget sum
against x, on a component the solve also picks once. The halfspace
projection seeds its dual with the active set of the iterate's own bounds
(see `projection`).

Once an iterate holds the anchor's strictly active set, its halfspace
projection has a closed form: the trial point z itself. With the anchor
x* = P_X(c), c = surpluses + prices, the vector w = c - x* lies in the
normal cone N_X(x*); for z = x - t*(x - x*), t in (0, 1), and
beta = t/(1 - t), x - z = beta*F(z) + beta*w. If x sits on every bound
that x* holds with a positive multiplier, and on the budget face where the
budget's multiplier is positive, so does z, a convex combination of x and
x*. Then w lies in N_X(z) too, which with the cut met at z itself is the
KKT system of projecting x onto X intersected with
{y : <F(z), y - z> <= 0}, beta the cut's multiplier (Facchinei & Pang
2003). The loop takes x <- z for such rows (the steady rounds) and runs the
dual search only for the others (the transient); that search stays the
only general projection.

One loop, `_extragradient`, runs the iteration for every caller: the engine
on a (games, sellers) batch of independent problems, `solve_ve` on a batch
of one. Every batch size runs the same row code: the residuals of
`_residual_rows` and the projections of `projection._halfspace_rows`, after
one finiteness test of the round's normals. A lone row (a lone problem, or
a batch's last live row) forms its residual through the public
`natural_residual`, which checks the iterate and is `_residual_rows` on a
batch of one, so the bench counts a lone solve's rounds by its calls. The
other parts chosen by batch size give a lone row the row code's bytes
faster: the halfspace dual's probe (`_move_path`, see `projection`), and
the one-row branches of `_newton_steps`, `_masked_rows` and `_counted_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import FeasibleSet
from .projection import (
    EPS,
    ProjectionResult,
    _all,
    _any,
    _at,
    _box_budget_rows,
    _checked_vector,
    _col,
    _halfspace_rows,
    _row_fsums,
    _take,
    project_box_budget,
)


class ArmijoSearchError(RuntimeError):
    """Backtracking ran out of steps; impossible for a strongly monotone
    operator with exact projections, so it indicates a broken setup."""


@dataclass(frozen=True)
class PseudoGradient:
    """The affine operator F(x) = x - surpluses - prices."""

    surpluses: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "surpluses", np.asarray(self.surpluses, dtype=float))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        if self.surpluses.shape != self.prices.shape:
            raise ValueError("surpluses and prices must have matching shapes")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x - self.surpluses - self.prices


@dataclass(frozen=True)
class SolverConfig:
    """The solver's one setting, fixed as `SOLVER`, not a set of knobs.

    gamma is the first Armijo step, beta the backtracking ratio and delta
    the acceptance coefficient, each in (0, 1). For F(x) = x - c the
    projection property gives <F(z), d> >= (1 - t)*||d||**2 at z = x - t*d,
    d = x - r(x) (Facchinei & Pang 2003), so a first step gamma <= 1 - delta
    passes; backtracking (max_backtracks shrinks by beta) guards rounding.
    At t = 1, z = r(x) is the solution, whose cut only supports X. A solve
    stops when ||x - r(x)|| <= residual_tol, or after max_iterations.
    """

    gamma: float = 0.95
    beta: float = 0.5
    delta: float = 0.04
    residual_tol: float = 1e-9
    max_iterations: int = 10_000
    max_backtracks: int = 60


SOLVER = SolverConfig()


@dataclass(frozen=True)
class IterationRecord:
    """State of one solver iteration, captured before the step is taken."""

    iteration: int
    x: np.ndarray
    residual: float
    step: float
    z: np.ndarray
    mu: np.ndarray


@dataclass
class SolverTrace:
    """Per-iteration history of a solve, plus how the solve ended."""

    records: list[IterationRecord] = field(default_factory=list)
    stop_reason: str = "unstarted"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "residual"

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def residuals(self) -> list[float]:
        return [r.residual for r in self.records]


def natural_residual(x, F: PseudoGradient, fset: FeasibleSet,
                     anchor: ProjectionResult | None = None,
                     compensation=None) -> tuple[np.ndarray, float]:
    """The projected point r = P_X(x - F(x)) and the norm ||x - r||.

    Because F(x) = x - surpluses - prices, x - F(x) is surpluses + prices
    for every x, so r is one point per problem: `anchor`, the projection of
    surpluses + prices onto X, computed here when omitted. The norm vanishes
    exactly at solutions of VI(X, F). When the budget binds at r, rounding
    that leaves sum(r) a few ulps below sum(x) is pushed back up on a copy;
    this guarantees sum(x - r) <= 0, which the step acceptance rule relies
    on. `compensation` is where that happens, _compensation of the anchor on
    a batch of one, which a solve takes once; it is computed here when
    omitted. Raises ValueError when x is non-finite or does not match the
    set's dimension. This is _residual_rows on a batch of one.
    """
    ub = fset.upper_bounds
    x = _checked_vector(x, "iterate", ub.shape)
    if anchor is None:
        anchor = project_box_budget(F.surpluses + F.prices, fset)
    if compensation is None:
        compensation = _compensation(anchor.point[None], [anchor.active_budget], ub[None])
    r, norms = _residual_rows(x[None], anchor.point[None], compensation)
    return r[0], norms[0]


def ve_closed_form(F: PseudoGradient, fset: FeasibleSet) -> np.ndarray:
    """The unique equilibrium, computed directly.

    Because F(x) = x - c with c = surpluses + prices, the VI solution is
    exactly P_X(c). `solve_ve` projects the same point once per solve as the
    anchor of its natural map but never takes it as an iterate, so this
    stays an independent verification oracle.
    """
    return project_box_budget(F.surpluses + F.prices, fset).point


def solve_ve(F: PseudoGradient, fset: FeasibleSet) -> tuple[np.ndarray, SolverTrace]:
    """Run the extragradient iteration at `SOLVER` from the zero vector
    (feasible because a FeasibleSet has ub > 0 and budget > 0).

    Per iteration: compute r(x) and stop if the natural residual is within
    tolerance; otherwise backtrack for the largest step t = gamma * beta**m
    whose trial point z = x - t*(x - r) satisfies
    <F(z), x - r> >= delta * ||x - r||**2, then project x onto X intersected
    with {w : <F(z), w - z> <= 0}. This is _extragradient on a batch of one.
    Raises ValueError when surpluses + prices is non-finite or does not
    match the set's dimension. Non-convergence after max_iterations is
    reported through trace.stop_reason, never raised.
    """
    _checked_vector(F.surpluses + F.prices, "vector", fset.upper_bounds.shape)
    trace = SolverTrace()

    def record(iteration, rows, x, res, steps, z, mu, done):
        # z is x on the residual stop, else the accepted trial point.
        x, t = x[0], 0.0 if done else steps[0]
        trace.records.append(IterationRecord(iteration, x, res[0], t, x if done else z[0], mu[0]))
        return [False]

    final, stops = _extragradient(F.surpluses[None], F.prices[None], fset.upper_bounds[None],
                                  [fset.budget], record)
    trace.stop_reason = stops[0]
    # A copy, not a view that keeps the (1, n) batch alive.
    return final[0].copy(), trace


def _compensation(anchor, active, ub):
    """Per row of `anchor`, where _residual_rows compensates its budget sum:
    None unless `active` says the budget binds there and a component lies
    strictly inside its box, else (the column of the one with the most
    headroom, the row's entries negated as a list). It depends only on the
    anchor and the bounds, so a solve takes it once."""
    plan = [None] * len(anchor)
    bound = [i for i, a in enumerate(active) if a]
    if bound:
        # The compensation must land on a component that is strictly inside
        # its box (where the marginal value equals the face multiplier), or
        # it would itself tilt the acceptance inner product.
        ra, ua = _take(anchor, bound), _take(ub, bound)
        free = (ra > 0.0) & (ra < ua)
        cols = np.argmax(np.where(free, ua - ra, -np.inf), axis=1).tolist()
        for i, col, row_free, negated in zip(bound, cols, free, (-ra).tolist()):
            if row_free[col]:
                plan[i] = col, negated
    return plan


def _residual_rows(x, anchor, compensation, widths=None):
    """natural_residual over rows: per row of x, the projected point r (the
    row of `anchor`, compensated where `compensation`, its _compensation,
    says) and the norm ||x - r||, each rounded as natural_residual rounds
    it. A row's norm is taken over its own width (see projection): a dot
    product's blocking depends on the length."""
    r = anchor
    at = [i for i, c in enumerate(compensation) if c is not None]
    if at:
        # The step acceptance rule needs sum(x - r) <= 0 in exact arithmetic;
        # comparing separately rounded sums leaves an ulp of the budget in
        # play, which the face multiplier amplifies past the Armijo margin.
        dim = x.shape[1]
        for i, row in zip(at, _take(x, at).tolist()):
            col, negated = compensation[i]
            t = row + negated
            e = math.fsum(t)
            if e > 0.0:
                if r is anchor:
                    r = anchor.copy()
                ri = r[i]
                for _ in range(6):
                    ri[col] = value = math.nextafter(-t[dim + col] + e, math.inf)
                    t[dim + col] = -value
                    e = math.fsum(t)
                    if e <= 0.0:
                        break
    d = x - r
    if widths is not None:
        d = [row[:w] for row, w in zip(d, widths)]
    return r, [math.sqrt(row.dot(row)) for row in d]


def _strict_set(c, anchor, ub, lam):
    """The bounds that each row's anchor, the projection of c with budget
    multipliers lam, holds strictly (a positive multiplier): (strict, bound),
    strict masking the components at zero with c < lam or at ub with
    c - lam > ub, bound holding their values there (0 or ub)."""
    lam = _col(lam)
    at_low, at_up = (anchor == 0.0) & (c < lam), (anchor == ub) & (c - lam > ub)
    return at_low | at_up, np.where(at_up, ub, 0.0)


def _steady_rows(x, strict, bound, lam, budget, sum_x):
    """Per row, whether x holds every constraint its anchor holds strictly:
    x equals bound where strict (see _strict_set) and, where the budget
    binds at the anchor (lam > 0), x is on the budget face within
    _halfspace_rows' tolerance, sum_x being x's exactly rounded row sums.
    Such a row's halfspace projection is its trial point (see
    _extragradient)."""
    off = _any(strict & (x != bound), axis=1).tolist()
    return [not o and (v <= 0.0 or abs(b - sx) <= 64.0 * EPS * b)
            for o, v, b, sx in zip(off, lam, budget, sum_x)]


def _extragradient(s, p, ub, budget, on_iteration, widths=None):
    """The extragradient iteration at `SOLVER` over rows of independent
    problems F_r(x) = x - s_r - p_r on their box-plus-budget sets, in
    lockstep. widths gives each row's size, its pads having bounds [0, 0]
    (see projection); when rows leave, the batch is cut to its widest live row.

    Each row starts from zeros, its anchor the projection of s_r + p_r.
    Each row takes its own Armijo step and stops on its own test, and a row
    that stops leaves the batch. After each row's residual test,
    on_iteration(iteration, rows, x, residuals, steps, z, mu, done) sees
    the live rows, their labels in `rows`: with done=True the rows that stop
    on their residual (steps and z None), and with done=False, after the
    Armijo search, the rest, whose trial points are z = x - steps*d; it
    returns per row whether to halt it there. Returns each row's final
    iterate and stop reason (`residual`, `caller` or `max_iterations`). A
    row's path does not depend on the rows beside it. A lone row (alone from
    the start or the last one left) forms its residual with
    natural_residual, which rounds as _residual_rows, from its (operator,
    set, anchor projection), built when the row is first alone.

    Each round projects a row whose iterate holds its anchor's strictly
    active set (_steady_rows, the masks of _strict_set taken once per
    solve) in closed form: its projection onto X and the cut is its trial
    point z, by the KKT argument of the module docstring, so the row takes
    x <- z clipped to its box, which rounding already keeps it in. The
    other rows go to _halfspace_rows' dual search with their exactly
    rounded sums. The decision reads only the row's own state and exact
    sums, so it does not depend on the batch. Raises OverflowError when
    finite surpluses plus prices overflow the float range.
    """
    with np.errstate(over="ignore"):
        c = s + p
    # A non-finite surplus or price is no overflow: the normal check below
    # rejects it.
    if not _all(np.isfinite(c).ravel()) and _all(np.isfinite(s).ravel()) \
            and _all(np.isfinite(p).ravel()):
        raise OverflowError("a surplus plus its price is not finite")
    anchor, lam, _ = _box_budget_rows(c, ub, budget, widths)
    strict, bound = _strict_set(c, anchor, ub, lam)
    x = np.zeros_like(s)
    rows = np.arange(len(x))
    lone = None
    final = np.zeros_like(x)
    stops = ["max_iterations"] * len(x)
    budget = list(budget)
    plan = _compensation(anchor, [v > 0.0 for v in lam], ub)

    def leave(sel, reason):
        """Record the rows at positions sel as stopped and return the
        positions that stay."""
        final[rows[sel], :x.shape[1]] = x[sel]
        for r in rows[sel]:
            stops[r] = reason
        gone = set(sel)
        return [j for j in range(len(rows)) if j not in gone]

    def narrow(kept):
        """The columns of the widest row at positions kept; widths and the
        compensation plans follow those rows."""
        nonlocal widths, plan
        plan = [plan[j] for j in kept]
        if widths is None:
            return slice(None)
        widths = [widths[j] for j in kept]
        top = max(widths)
        if min(widths) == top:
            widths = None
        if top == x.shape[1]:
            return slice(None)
        plan = [c and (c[0], c[1][:top]) for c in plan]
        return slice(top)

    tol, gamma, shrink, delta = SOLVER.residual_tol, SOLVER.gamma, SOLVER.beta, SOLVER.delta
    for iteration in range(1, SOLVER.max_iterations + 1):
        if len(x) == 1:
            if lone is None:
                # The one live row as natural_residual takes it: its
                # operator, set and natural-map anchor.
                lone = (PseudoGradient(s[0], p[0]), FeasibleSet(ub[0], budget[0]),
                        ProjectionResult(anchor[0], lam[0], lam[0] > 0.0, 0))
            r, v = natural_residual(x[0], *lone, plan)
            r, res = r[None], [v]
        else:
            r, res = _residual_rows(x, anchor, plan, widths)
        mu = s - x + p
        done = [j for j, v in enumerate(res) if v <= tol]
        if done:
            at = _take(rows, done)
            on_iteration(iteration, at, _take(x, done), [res[j] for j in done], None, None,
                         _take(mu, done), True)
            kept = leave(done, "residual")
            if not kept:
                break
            cols = narrow(kept)
            rows = rows[kept]
            x, s, p, ub, anchor, r, mu, strict, bound = (
                a[kept, cols] for a in (x, s, p, ub, anchor, r, mu, strict, bound))
            res, budget, lam = ([a[j] for j in kept] for a in (res, budget, lam))

        d = x - r
        t = [gamma] * len(x)
        # The trial points z and steps t*d are kept as rows backtrack: the
        # round callback takes z, the projection t*d.
        td = gamma * d
        z = x - td
        fz = z - s - p
        need = [delta * (v * v) for v in res]
        short = [j for j, a in enumerate(map(math.fsum, (fz * d).tolist())) if a < need[j]]
        backtracks = 0
        while short:
            backtracks += 1
            if backtracks > SOLVER.max_backtracks:
                raise ArmijoSearchError(
                    f"no acceptable step within {SOLVER.max_backtracks} backtracks "
                    f"at iteration {iteration} (residual {res[short[0]]:.3e})"
                )
            for j in short:
                t[j] *= shrink
            ds = _take(d, short)
            tds = _col([t[j] for j in short]) * ds
            zs = _take(x, short) - tds
            fzs = zs - _take(s, short) - _take(p, short)
            if len(short) == len(x):
                td, z, fz = tds, zs, fzs
            else:
                td[short], z[short], fz[short] = tds, zs, fzs
            short = [j for j, a in zip(short, map(math.fsum, (fzs * ds).tolist())) if a < need[j]]

        halt = on_iteration(iteration, rows, x, res, t, z, mu, False)
        if any(halt):
            kept = leave([j for j, v in enumerate(halt) if v], "caller")
            if not kept:
                break
            cols = narrow(kept)
            rows = rows[kept]
            x, s, p, ub, anchor, z, fz, td, strict, bound = (
                a[kept, cols] for a in (x, s, p, ub, anchor, z, fz, td, strict, bound))
            budget, lam = ([a[j] for j in kept] for a in (budget, lam))
        if iteration == SOLVER.max_iterations:
            leave(list(range(len(rows))), "max_iterations")
            break
        # The projection's one check: fz is non-finite when x or t*d is.
        if not _all(np.isfinite(fz).ravel()):
            raise ValueError("cannot project with a non-finite normal")
        sum_x = _row_fsums(x)
        search = [j for j, v in enumerate(_steady_rows(x, strict, bound, lam, budget, sum_x))
                  if not v]
        # A steady row's projection is its trial point z; the clip guards
        # the box that rounding already keeps z in.
        step = np.minimum(np.maximum(z, 0.0), ub) if len(search) < len(x) else None
        if search:
            # x - z equals t*d analytically; passing it keeps the halfspace
            # gap resolvable when d is small.
            points = _halfspace_rows(*(_take(a, search) for a in (x, fz, td, ub)),
                                     [budget[j] for j in search], _at(widths, search),
                                     [sum_x[j] for j in search])
            if step is None:
                step = points
            else:
                step[search] = points
        x = step
    return final, stops
