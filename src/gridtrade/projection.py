"""Exact Euclidean projections onto the coupled allocation set.

Two set shapes are needed by the equilibrium solver:

* the box-plus-budget set  X = {x : 0 <= x_i <= ub_i, sum(x) <= budget}, and
* X intersected with a separating halfspace {w : <n, w - z> <= 0}.

Both projections reduce to one-dimensional duals. For X, the projection of v
is clamp(v - lam, 0, ub) where the budget multiplier lam solves a monotone
scalar equation; the map lam -> sum(clamp(v - lam, 0, ub)) is continuous,
nonincreasing and linear between the 2n breakpoints v - ub and v, so one
sort of the breakpoints and a cumulative sum locate the piece holding lam,
and an exact active-set solve on that piece pins it down. For X intersected
with a halfspace, a scalar multiplier beta on the halfspace constraint plays
the same role: w(beta) = P_X(x - beta*n), with beta >= 0 chosen so the
constraint holds with complementary slackness. The gap of the cut is
piecewise linear in beta, and every probe of beta is a Newton step along
the piece of one end of the bracket holding the root. A piece (an active
set) holds over the whole step, so a probe that lands with gap <= 0 on the
piece it was stepped from is the root, and the search ends there. Each
evaluation of w(beta) is first solved on the last certified piece (an
active set's constants do not depend on beta), and the breakpoint search
runs only when that piece fails its KKT check. Before any piece has
certified, the active set of x's own bounds stands in for it: x is the
previous projection's output, so that set is the previous projection's
last piece, and near convergence the first probe usually stays on it. With
x in the box and within the budget, the move at beta = 0 is zero and x's
bound set is the piece there, so that probe is already a Newton step.

Numerical discipline matters more than usual here. The outer solver drives
the halfspace gap <n, w(beta) - z> to the square of its own residual, far
below the rounding noise of recomputed budget sums, so the gap is assembled
in difference form from exactly representable moves: free components shift
by -beta*(n_i - mean(n_free)) - lam_x with both pieces exactly rounded
(math.fsum), and clamped components move to their bounds. Without this the
beta search cannot see which side of the cut it is on and the outer
iteration stalls three orders of magnitude short of its tolerance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import FeasibleSet

EPS = np.finfo(float).eps
# Gap evaluations one halfspace projection may spend on its dual search.
_MAX_EVALS = 10_000


class ProjectionError(RuntimeError):
    """The dual search failed to converge; signals a numerical problem."""


@dataclass(frozen=True)
class ProjectionResult:
    """Projection onto the box-plus-budget set with its KKT certificate.

    iterations is the number of breakpoint pieces checked by the budget
    multiplier search: 0 when the budget does not bind, 1 when the piece
    found from the cumulative sum certifies, 2 when an exactly rounded
    search was needed to find it.
    """

    point: np.ndarray
    multiplier: float
    active_budget: bool
    iterations: int


def _checked_vector(value, name, shape):
    """value as a float array, rejected unless finite and of the set's shape."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} shape {arr.shape} does not match set dimension {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"cannot project with a non-finite {name}")
    return arr


def project_box_budget(v, fset: FeasibleSet) -> ProjectionResult:
    """Euclidean projection of v onto the box-plus-budget set.

    If the box-clamped point already satisfies the budget the multiplier is
    zero; otherwise the budget binds, the breakpoint search finds the piece
    holding the multiplier, and it is solved exactly on that active set.
    This is the row core _box_budget_rows on a batch of one.
    """
    ub = fset.upper_bounds
    v = _checked_vector(v, "vector", ub.shape)
    points, lams, pieces = _box_budget_rows(v[None], ub[None], [fset.budget])
    lam = float(lams[0])
    return ProjectionResult(point=points[0], multiplier=lam,
                            active_budget=lam > 0.0, iterations=pieces[0])


def _move_path(x, n, ub, budget, sum_x, equality):
    """The moves P_X(x - beta*n) - x of the halfspace dual, for feasible x,
    as a function of beta >= 0 returning (move, multiplier, free mask).

    Solves for the budget multiplier directly in move coordinates
    m(lam) = clamp(-beta*n - lam, -x, ub - x), targeting
    fsum(m) = budget - sum(x). The breakpoint search only identifies the
    active set; the accepted move is reassembled as
    -beta*(n_i - mean(n_free)) - c on free components, which keeps every
    piece exactly rounded at its own scale. Computing clamp(-beta*n - lam)
    directly would round at the beta*||n|| scale, orders of magnitude above
    the physical move near convergence. An active set's constants do not
    depend on beta, and successive probes of the dual mostly stay on one
    set, so each move is first assembled on the last certified piece, or
    on x's own bound set (lower x <= 0, upper x >= ub) until one certifies;
    the breakpoint search runs only when that piece's KKT check fails.

    With equality=True the budget is treated as the equality sum(w) = sum(x)
    and the multiplier may take either sign; the caller uses this to keep
    iterates on the budget face when that is where the geometry lives.
    Otherwise a genuine slack below the face tolerance is snapped to zero:
    an ulp of slack opens a spurious off-face segment in the dual whose root
    sits within rounding of zero, freezing the caller's iteration.
    """
    lo_b, hi_b, n_max = -x, ub - x, float(np.abs(n).max())
    target = budget - sum_x
    if equality or (0.0 <= target <= 64.0 * EPS * budget):
        target = 0.0
    last, seeded = None, False

    def piece_of(lower, upper):
        """The beta-free constants of the piece whose components in `lower`
        and `upper` sit at their bounds, or None when no component is free."""
        free = ~(lower | upper)
        k = int(np.count_nonzero(free))
        if k == 0:
            return None
        n_free = n[free].tolist()
        nbar = math.fsum(n_free) / k
        bound = np.where(lower, lo_b, hi_b)
        return (free, k, bound,
                np.where(free, lo_b, np.where(upper, hi_b, -np.inf)),
                np.where(free, hi_b, np.where(lower, lo_b, np.inf)),
                n - nbar, nbar, math.fsum(n_free + [-k * nbar]),
                math.fsum(bound[~free].tolist() + [-target]) / k)

    def on_piece(piece, beta, s):
        """The move of a piece at beta, ((move, multiplier, free), ok). The
        rounded mean's residue folds into the constant, so any piece's move
        sums to the target exactly; ok is its KKT test at its own multiplier."""
        free, k, bound, lo_lim, hi_lim, dev, nbar, residue, c = piece
        c_adj = c - beta * residue / k
        m_free = -beta * dev - c_adj
        lam = -beta * nbar + c_adj
        tol = 64.0 * EPS * (beta * n_max + abs(lam)) + 1e-300
        v = np.where(free, m_free, s - lam)
        ok = (equality or lam >= -tol) and not ((v < lo_lim - tol) | (v > hi_lim + tol)).any()
        m = np.minimum(np.maximum(np.where(free, m_free, bound), lo_b), hi_b)
        return (m, lam if equality else max(lam, 0.0), free), ok

    def move(beta):
        nonlocal last, seeded
        s = -beta * n
        if not equality:
            m0 = np.minimum(np.maximum(s, lo_b), hi_b)
            if math.fsum(m0.tolist()) <= target:
                return m0, 0.0, (m0 > lo_b) & (m0 < hi_b)
        if not seeded:
            # Until a piece certifies, try x's own bounds: the last piece of
            # the projection that produced x.
            seeded, last = True, piece_of(x <= 0.0, x >= ub)
        if last is not None:
            result, ok = on_piece(last, beta, s)
            if ok:
                return result

        found = []

        def finish(rows, lams):
            """The move on the piece holding lams[0], whose constants (see
            on_piece) do not depend on beta."""
            nonlocal last
            lam = lams[0]
            mm = np.minimum(np.maximum(s - lam, lo_b), hi_b)
            piece = piece_of(mm <= lo_b, mm >= hi_b)
            if piece is None:
                ok = abs(math.fsum(mm.tolist()) - target) <= 1e-12 * max(1.0, abs(target))
                found.append((mm, lam, np.zeros(mm.shape, dtype=bool)))
                return [ok]
            result, ok = on_piece(piece, beta, s)
            if ok:
                last = piece
            found.append(result)
            return [ok]

        if _breakpoint_rows(s[None], lo_b[None], hi_b[None], [target], finish)[0] is None:
            raise _uncertified(target, n.size)
        return found[-1]

    return move


class _Probe(NamedTuple):
    """One evaluation of the halfspace dual at beta. `piece` identifies the
    piece it lies on: its free mask, its at-upper mask and whether the
    budget binds."""

    beta: float
    g: float
    move: np.ndarray | float
    lam: float
    free: np.ndarray
    binds: bool
    piece: tuple


def _halfspace_dual(x, n, gap, ub, budget, sum_x, face_mode):
    """The projection of feasible x onto X (onto the budget face when
    face_mode) intersected with {w : <n, w - x + gap> <= 0}, returned as
    (point, beta, budget multiplier). The search over beta is _bracket's,
    the same one each row of _halfspace_dual_rows runs.
    """
    g_lin = math.fsum((n * gap).tolist())
    moves = _move_path(x, n, ub, budget, sum_x, face_mode)
    hi_b = ub - x

    def probe(beta):
        delta, lam, free = moves(beta)
        binds = face_mode or lam > 0.0
        return _Probe(beta, math.fsum((n * delta).tolist()) + g_lin, delta, lam, free, binds,
                      (free.tobytes(), (delta >= hi_b).tobytes(), binds))

    if (face_mode or sum_x <= budget) and x.min() >= 0.0 and hi_b.min() >= 0.0:
        # With x in the box and within the budget (or on the face) the move
        # at beta = 0 is zero, so x's own bound set is a valid piece there
        # and the first probe is already a Newton step.
        free = (x > 0.0) & (hi_b > 0.0)
        p = _Probe(0.0, g_lin, 0.0, 0.0, free, face_mode,
                   (free.tobytes(), (hi_b <= 0.0).tobytes(), face_mode))
        evals = 0
    else:
        p, evals = probe(0.0), 1
    if p.g > 0.0:
        search = _bracket(p, n, x, evals)
        p = next(search)
        while p.__class__ is not _Probe:
            p = search.send(probe(p))
    return np.minimum(np.maximum(x + p.move, 0.0), ub), p.beta, p.lam


def project_halfspace_then_set(x, normal, offset_point, fset: FeasibleSet,
                               offset_gap=None) -> np.ndarray:
    """Euclidean projection of x onto X intersected with the halfspace
    {w : <normal, w - offset_point> <= 0}, for feasible x.

    The halfspace constraint carries a single dual beta >= 0 with
    w(beta) = P_X(x - beta*normal); its gap g(beta) = <normal, w - offset>
    is continuous, nonincreasing and piecewise linear in beta. Each probe
    is a Newton step along the piece of one end of the bracket holding the
    root, and the search ends when a probe with g <= 0 lands on the piece it
    was stepped from: g is affine on that piece, so the probe is its root.
    On the budget face the search runs on the face with a centered normal;
    where the original halfspace's budget multiplier comes out negative
    there, or the face misses the halfspace, the projection leaves the face
    and is redone on X. Raises
    ProjectionError when no bracket exists within _MAX_EVALS gap evaluations
    (empty or degenerate intersection), and ValueError when an input is
    non-finite or does not match the set's dimension.

    offset_gap, when given, supplies x - offset_point directly; pass it when
    that difference is known analytically, because forming it by subtraction
    of nearly equal vectors destroys the gap signal.
    """
    ub = fset.upper_bounds
    x = _checked_vector(x, "point", ub.shape)
    n = _checked_vector(normal, "normal", ub.shape)
    if not n.any():
        raise ValueError("halfspace normal must be nonzero")
    gap = (x - _checked_vector(offset_point, "offset point", ub.shape)) if offset_gap is None \
        else _checked_vector(offset_gap, "offset gap", ub.shape)
    budget = fset.budget
    sum_x = math.fsum(x.tolist())

    # When x and the offset point both sit on the budget face, their sums
    # differ only by rounding jitter, yet that jitter enters the gap scaled
    # by the large all-ones component of the normal and can erase or invert
    # the cut. Centering the normal removes the all-ones component; on the
    # face the centered halfspace is the exact-arithmetic one, and the dual
    # path P_X(x - beta*n) is unchanged where the budget binds.
    on_face = (budget - sum_x) <= 64.0 * EPS * budget
    if on_face and abs(math.fsum(gap.tolist())) <= 256.0 * EPS * budget:
        # Shifting the normal by a multiple of the all-ones vector leaves the
        # halfspace unchanged on the face. Centering on the gap's support
        # (where the normal's dominant component is constant) stops the
        # ulp-level facial jitter from being amplified into the gap.
        support = gap != 0.0
        base = n[support] if support.any() else n
        shift = math.fsum(base.tolist()) / base.size
        n_face = n - shift
        if float(np.abs(n_face).max()) <= 8.0 * EPS * max(1.0, float(np.abs(n).max())):
            # Normal was (numerically) a pure budget direction; on the face
            # the constraint is a constant and cannot cut.
            return project_box_budget(x, fset).point
        try:
            point, beta, lam = _halfspace_dual(x, n_face, gap, ub, budget, sum_x, True)
        except ProjectionError:
            # No point of the face meets the halfspace (the offset point is
            # outside the box), so the projection, if any, leaves the face.
            pass
        else:
            # The face multiplier lam belongs to the centered normal; the
            # budget multiplier of the original halfspace is lam - beta*shift.
            # Where it is negative the projection leaves the face, and the
            # face is the wrong set to project onto.
            if lam - beta * shift >= -64.0 * EPS * (abs(lam) + beta * abs(shift)):
                return point
    return _halfspace_dual(x, n, gap, ub, budget, sum_x, False)[0]


# Row cores. The engine plays a sweep's games in lockstep through these:
# each takes (rows, n) arrays of independent problems and keeps every row's
# multiplier, bracket, certified piece and stop to itself. Elementwise work
# runs on the whole batch; exactly rounded sums, norms and the scalar
# control of each search run row by row, so a row rounds as it does alone.
# A row leaves the batch when its search ends, and rows are gathered only
# when they take different branches.
#
# The one-vector code above runs three of them on a batch of one, where the
# batch costs little (5% of follower_tight's items_per_s, seed 211, on 2
# cores): project_box_budget is _box_budget_rows, and _breakpoint_rows and
# _bracket are the only breakpoint search and bracket search. It keeps its
# own code where a lone row would pay the batch bookkeeping in Python on
# every call, more than the numpy work of a small problem: _move_path,
# _halfspace_dual's probes and project_halfspace_then_set, and vi_solver's
# natural_residual and solve_ve. On follower_tight (10 s runs) running
# _move_path as _move_path_rows cost 20% of items_per_s,
# project_halfspace_then_set as _halfspace_rows 32%, and natural_residual
# as _residual_rows about 7% more on top.

# Row reductions, called directly: ndarray's methods add a Python-level
# wrapper to each call, and the batches here are small.
_any, _max, _sum = np.logical_or.reduce, np.maximum.reduce, np.add.reduce


def _take(a, rows):
    """The rows of `a` at the ascending index array `rows`; `a` itself when
    those are all of its rows, so a batch whose rows agree gathers nothing."""
    return a if len(rows) == len(a) else a[rows]


def _col(values):
    """Per-row scalars as a column that broadcasts against the rows; a lone
    row's scalar stays a float, which rounds the same."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _row_fsums(a):
    """math.fsum of each row of a."""
    return list(map(math.fsum, a.tolist()))


def _masked_rows(a, mask):
    """Per row of a, its entries where mask holds as a list, for an exactly
    rounded sum: a lone row is indexed (so the list holds just those
    entries), a batch is padded with zeros, which leave such a sum as it
    is."""
    if len(a) == 1:
        return [a[0][mask[0]].tolist()]
    return np.where(mask, a, 0.0).tolist()


def _uncertified(target, n):
    return ProjectionError(
        f"no breakpoint piece certifies the multiplier (target {target:.3e}, {n} components)")


def _exact_multiplier_rows(v, ub, budget, lam_guess):
    """Per row, the multiplier solved on the active set identified at
    lam_guess.

    fsum keeps the small difference of budget-sized sums exactly rounded.
    """
    shifted = v - _col(lam_guess)
    free = (shifted > 0.0) & (shifted < ub)
    at_upper = shifted >= ub
    v_free = _masked_rows(v, free)
    counts = [len(v_free[0])] if len(v) == 1 else _sum(free, axis=1).tolist()
    lam = []
    for n_free, v_free, ub_upper, b, guess in zip(counts, v_free, _masked_rows(ub, at_upper),
                                                   budget, lam_guess):
        if n_free == 0:
            lam.append(max(guess, 0.0))
        else:
            lam.append(max(math.fsum(v_free + ub_upper + [-b]) / n_free, 0.0))
    return lam


def _breakpoint_rows(s, lo, hi, target, finish, slope=None):
    """Per row r, the root of f(lam) = sum(clip(slope*(s - lam), lo, hi)) =
    target[r] by breakpoint search, s, lo, hi and slope being (rows, n).

    slope holds per-component slopes (None: all 1). Component i falls with
    slope_i between its breakpoints s_i - hi_i/slope_i and s_i - lo_i/slope_i;
    an infinite slope makes it a step from hi_i down to lo_i at lam = s_i.
    Sorting each row's 2n breakpoints once and accumulating slope changes
    and drops gives the nonincreasing f at every breakpoint, and
    searchsorted picks the piece holding the root. The root is on the step
    that ends or starts that piece instead when the target lies between f's
    fsum-exact right and left limits there. `finish(rows, lams)` solves the
    rows at the ascending list `rows` exactly at their lams, keeps the results
    and returns one KKT certificate per row: on a piece it solves on the
    active set, on a step the components tied there take what the others
    leave of the target (the step fill). If a row's piece is rejected, the
    cumulative sum has lost precision at this scale, and its sorted
    breakpoints are binary-searched again with exactly rounded (fsum)
    values of f. Returns the pieces checked per row, None for a row that no
    piece certifies.
    """
    m, n = s.shape
    unit = slope is None
    t = np.concatenate((s - hi, s - lo) if unit else (s - hi / slope, s - lo / slope), axis=1)
    order = np.argsort(t, axis=1, kind="stable")
    # order indexes within each row; as indices into the flattened rows it
    # needs each row's offset, which a lone row does not.
    flat = order if m == 1 else order + np.arange(0, 2 * n * m, 2 * n)[:, None]
    t = t.ravel()[flat]
    # Past its first breakpoint component j leaves hi_j, past its second it
    # sits at lo_j, so f(t_k) = sum(hi) + sum_{j<=k} w_j*(t_j - t_k) with
    # w_j = +-slope_j, less the drops of the steps up to t_k.
    entering = order < n
    w = np.where(entering, 1.0, -1.0)
    has_steps = False
    if not unit:
        w *= np.tile(slope, 2).ravel()[flat]
        steps = np.isinf(w)
        has_steps = bool(steps.any())
        w[steps] = 0.0
    f = _sum(hi, axis=1, keepdims=True) + np.cumsum(w * t, axis=1) - np.cumsum(w, axis=1) * t
    if has_steps:
        f += np.cumsum(np.where(steps & entering, np.tile(lo - hi, 2).ravel()[flat], 0.0), axis=1)

    def right_limit(r, lam):
        """Row r's components at lam; a step on lam takes lo, its right limit."""
        with np.errstate(invalid="ignore"):
            return np.fmin(np.fmax(s[r] - lam if unit else slope[r] * (s[r] - lam), lo[r]), hi[r])

    def point(r, k):
        """The step that ends or starts row r's piece k if the target lies
        between f's fsum-exact right and left limits there, else a
        multiplier inside the piece, the interval (t[k-1], t[k])."""
        tr = t[r]
        for lam in tr[max(k - 1, 0):k + 1][::-1] if has_steps else ():
            tied = np.isinf(slope[r]) & (s[r] == lam)
            right = right_limit(r, lam).tolist()
            if tied.any() and math.fsum(right) <= target[r] <= math.fsum(
                    right + (hi[r] - lo[r])[tied].tolist()):
                return lam
        if k == 0:
            return tr[0] - (1.0 + abs(tr[0]))
        if k == 2 * n:
            return tr[-1] + (1.0 + abs(tr[-1]))
        return 0.5 * (tr[k - 1] + tr[k])

    drop = -f
    ks = [int(np.searchsorted(drop[r], -target[r])) for r in range(m)]
    ok = finish(list(range(m)), [point(r, k) for r, k in enumerate(ks)])
    pieces = [1 if good else None for good in ok]
    retry = []
    for r in (r for r, good in enumerate(ok) if not good):
        first, last = 0, 2 * n
        while first < last:
            mid = (first + last) // 2
            if math.fsum(right_limit(r, t[r, mid]).tolist()) <= target[r]:
                last = mid
            else:
                first = mid + 1
        if first != ks[r]:
            retry.append((r, first))
    if retry:
        ok = finish([r for r, _ in retry], [point(r, k) for r, k in retry])
        for (r, _), good in zip(retry, ok):
            if good:
                pieces[r] = 2
    return pieces


def _box_budget_rows(v, ub, budget):
    """Projections of the rows of v onto their box-plus-budget sets, budget
    holding one float per row: returns (points, multipliers, pieces).
    Raises ProjectionError for the first row no piece certifies."""
    x = np.minimum(np.maximum(v, 0.0), ub)
    m, n = v.shape
    lam, pieces = [0.0] * m, [0] * m
    over = [r for r, (total, b) in enumerate(zip(_sum(x, axis=1).tolist(), budget)) if total > b]
    if not over:
        return x, lam, pieces

    vs, us = _take(v, over), _take(ub, over)
    bs = [budget[i] for i in over]
    # clamp(v - lam) carries an eps*|v| error per component, which bounds the
    # achievable sum accuracy for far-away inputs.
    tol_sum = [1e-12 * max(1.0, b) + 16.0 * EPS * n * max(1.0, peak)
               for b, peak in zip(bs, _max(np.abs(vs), axis=1).tolist())]

    def finish(rows, guesses):
        vr, ur = _take(vs, rows), _take(us, rows)
        lr = _exact_multiplier_rows(vr, ur, [bs[i] for i in rows], guesses)
        xr = np.minimum(np.maximum(vr - _col(lr), 0.0), ur)
        if len(rows) == m:
            x[...] = xr
        else:
            x[[over[i] for i in rows]] = xr
        ok = []
        for i, total, lam_i in zip(rows, _sum(xr, axis=1).tolist(), lr):
            lam[over[i]] = lam_i
            ok.append(abs(total - bs[i]) <= tol_sum[i])
        return ok

    for i, checked in enumerate(_breakpoint_rows(vs, np.zeros(us.shape), us, bs, finish)):
        if checked is None:
            raise _uncertified(bs[i], n)
        pieces[over[i]] = checked
    return x, lam, pieces


def _move_path_rows(x, n, ub, budget, sum_x, equality, hi_b, bounds, n_max=None):
    """The moves P_X(x - beta*n) - x of the halfspace dual, for rows of
    feasible x, as a function move(rows, beta) of an ascending list of rows
    and one beta >= 0 each. It returns (moves, multipliers, free masks,
    failed): one row or entry per row asked for, and the ProjectionError of
    each position among them whose breakpoint search found no certified
    piece.

    Solves for the budget multiplier directly in move coordinates
    m(lam) = clamp(-beta*n - lam, -x, ub - x), targeting
    fsum(m) = budget - sum(x). The breakpoint search only identifies the
    active set; the accepted move is reassembled as
    -beta*(n_i - mean(n_free)) - c on free components, which keeps every
    piece exactly rounded at its own scale. Computing clamp(-beta*n - lam)
    directly would round at the beta*||n|| scale, orders of magnitude above
    the physical move near convergence. An active set's constants do not
    depend on beta, and successive probes of the dual mostly stay on one
    set, so each row's move is first assembled on its last certified piece,
    or on x's own bound set (lower x <= 0, upper x >= ub) until one
    certifies; the breakpoint search runs only when that piece's KKT check
    fails.

    With equality=True the budget is treated as the equality sum(w) = sum(x)
    and the multiplier may take either sign; the caller uses this to keep
    iterates on the budget face when that is where the geometry lives.
    Otherwise a genuine slack below the face tolerance is snapped to zero:
    an ulp of slack opens a spurious off-face segment in the dual whose root
    sits within rounding of zero, freezing the caller's iteration.

    The caller passes hi_b, ub - x, and bounds, the masks x <= 0 and
    x >= ub; n_max, each row's largest |n|, is computed unless given.
    """
    m = len(x)
    lo_b = -x
    if n_max is None:
        n_max = _max(np.abs(n), axis=1).tolist()
    target = [0.0 if equality or (0.0 <= b - sx <= 64.0 * EPS * b) else b - sx
              for b, sx in zip(budget, sum_x)]
    # Each row's last piece: the arrays (free, bound, lo_lim, hi_lim, dev)
    # stacked over all rows, never written in place since probes keep
    # views of them, and per row the scalars (k, nbar, residue, c), or None
    # until the row has a piece. A row's first move seeds it with x's own
    # bound set: the last piece of the projection that produced x.
    arrays, scalars, seeded = None, [None] * m, [False] * m

    def piece_of(rows, lower, upper):
        """The pieces of rows whose components in lower and upper sit at
        their bounds: their arrays, and per row their scalars, None when no
        component is free. The free mean's residue folds into c."""
        free = ~(lower | upper)
        nr, lb, hb = (n, lo_b, hi_b) if len(rows) == m else (n[rows], lo_b[rows], hi_b[rows])
        bound = np.where(lower, lb, hb)
        n_free, fixed = _masked_rows(nr, free), _masked_rows(bound, ~free)
        counts = [len(n_free[0])] if len(rows) == 1 else _sum(free, axis=1).tolist()
        pieces, nbar = [], []
        for r, k, n_free, fixed in zip(rows, counts, n_free, fixed):
            if k:
                mean = math.fsum(n_free) / k
                n_free.append(-k * mean)
                fixed.append(-target[r])
                pieces.append((k, mean, math.fsum(n_free), math.fsum(fixed) / k))
                nbar.append(mean)
            else:
                pieces.append(None), nbar.append(0.0)
        return (free, bound, np.where(free, lb, np.where(upper, hb, -np.inf)),
                np.where(free, hb, np.where(lower, lb, np.inf)), nr - _col(nbar)), pieces

    def keep(rows, new, pieces, ok):
        """Make the pieces of rows where ok holds their rows' last."""
        nonlocal arrays
        if len(rows) == m and all(ok) and None not in pieces:
            arrays, scalars[:] = new, pieces
            return
        sel = [j for j, (p, good) in enumerate(zip(pieces, ok)) if good and p is not None]
        if sel:
            dst = [rows[j] for j in sel]
            stores = []
            for store, fresh in zip(arrays or [None] * len(new), new):
                store = np.zeros((m,) + fresh.shape[1:], fresh.dtype) if store is None \
                    else store.copy()
                store[dst] = fresh[sel]
                stores.append(store)
            arrays = tuple(stores)
            for j, r in zip(sel, dst):
                scalars[r] = pieces[j]

    def on_piece(piece_arrays, pieces, rows, beta, nb, s, lb, hb):
        """The moves of pieces at beta, as (ok, moves, multipliers, free
        masks). The rounded mean's residue folds into the constant, so any
        piece's move sums to the target exactly; ok is its KKT test at its
        own multiplier."""
        free, bound, lo_lim, hi_lim, dev = piece_arrays
        c_adj, lam, tol = map(list, zip(*map(_at_beta, pieces, beta, map(n_max.__getitem__, rows))))
        m_free = nb * dev - _col(c_adj)
        tc = _col(tol)
        v = np.where(free, m_free, s - _col(lam))
        bad = _any((v < lo_lim - tc) | (v > hi_lim + tc), axis=1).tolist()
        if equality:
            ok = [not b for b in bad]
        else:
            ok = [not b and value >= -t for b, value, t in zip(bad, lam, tol)]
            lam = [max(value, 0.0) for value in lam]
        return ok, np.minimum(np.maximum(np.where(free, m_free, bound), lb), hb), lam, free

    def move(rows, beta):
        k = len(rows)
        if k == m:
            nr, lb, hb = n, lo_b, hi_b
        else:
            nr, lb, hb = n[rows], lo_b[rows], hi_b[rows]
        nb = -np.array(beta)[:, None]
        s = nb * nr
        if not equality:
            m0 = np.minimum(np.maximum(s, lb), hb)
            inside = list(map(operator.le, _row_fsums(m0),
                              target if k == m else [target[r] for r in rows]))
            if all(inside):
                return m0, [0.0] * k, (m0 > lb) & (m0 < hb), {}
            if any(inside):
                return _split(move, rows, beta, inside)
        if not all(map(seeded.__getitem__, rows)):
            fresh = [r for r in rows if not seeded[r]]
            lower, upper = bounds
            if len(fresh) < m:
                lower, upper = lower[fresh], upper[fresh]
            new, pieces = piece_of(fresh, lower, upper)
            keep(fresh, new, pieces, [True] * len(fresh))
            for r in fresh:
                seeded[r] = True
        has = list(map(scalars.__getitem__, rows))
        if all(has):
            ok, mv, lam, free = on_piece(arrays if k == m else tuple(a[rows] for a in arrays),
                                         has, rows, beta, nb, s, lb, hb)
            if all(ok):
                return mv, lam, free, {}
            if any(ok):
                return _split(move, rows, beta, ok, (mv, lam, free))
        elif any(has):
            return _split(move, rows, beta, has)
        # No row here has a piece that certifies at its beta: search for one.
        out = []

        def finish(sub, lam_guess):
            """The moves on the pieces holding lam_guess at the positions
            sub, whose constants (see on_piece) do not depend on beta."""
            whole = len(sub) == k
            sr = rows if whole else [rows[i] for i in sub]
            ss, ls, hs = (s, lb, hb) if whole else (s[sub], lb[sub], hb[sub])
            mm = np.minimum(np.maximum(ss - _col(lam_guess), ls), hs)
            new, pieces = piece_of(sr, mm <= ls, mm >= hs)
            if None in pieces:
                # A row with no free component has no multiplier of its
                # own: its move is the clamp at lam_guess.
                ok = [abs(total - target[r]) <= 1e-12 * max(1.0, abs(target[r]))
                      for total, r in zip(_row_fsums(mm), sr)]
                mv, lam, free = mm.copy(), list(lam_guess), new[0]
                have = [j for j, p in enumerate(pieces) if p is not None]
                if have:
                    bs = [beta[i] for i in (sub if not whole else range(k))]
                    oh, mh, lh, _ = on_piece(tuple(a[have] for a in new), [pieces[j] for j in have],
                                             [sr[j] for j in have], [bs[j] for j in have],
                                             -_col([bs[j] for j in have]), ss[have], ls[have],
                                             hs[have])
                    mv[have] = mh
                    for j, value, good in zip(have, lh, oh):
                        lam[j], ok[j] = value, good
            else:
                bs = beta if whole else [beta[i] for i in sub]
                ok, mv, lam, free = on_piece(new, pieces, sr, bs, -_col(bs), ss, ls, hs)
            keep(sr, new, pieces, ok)
            out.append((sub, ok, mv, lam, free))
            return ok

        targets = target if k == m else [target[r] for r in rows]
        checked = _breakpoint_rows(s, lb, hb, targets, finish)
        failed = {j: _uncertified(targets[j], x.shape[1])
                  for j, c in enumerate(checked) if c is None}
        (sub, ok, mv, lam, free), *later = out
        if not later and not failed:
            return mv, lam, free, failed
        moves, lams, frees = np.zeros_like(s), [0.0] * k, np.zeros(s.shape, dtype=bool)
        for sub, ok, mv, lam, free in out:
            for i, j, good in zip(sub, range(len(sub)), ok):
                if good:
                    moves[i], lams[i], frees[i] = mv[j], lam[j], free[j]
        return moves, lams, frees, failed

    return move


def _at_beta(piece, beta, peak):
    """A piece's (constant, multiplier, KKT tolerance) at beta; peak is the
    row's largest |n|."""
    k, nbar, residue, c = piece
    c_adj = c - beta * residue / k
    lam = -beta * nbar + c_adj
    return c_adj, lam, 64.0 * EPS * (beta * peak + abs(lam)) + 1e-300


def _split(move, rows, beta, ok, done=None):
    """move over rows whose positions part ways: the positions where ok
    holds, whose results are `done` when given, and the others, each
    evaluated as a batch of its own and merged back in order."""
    k = len(rows)
    parts = []
    for flag in (True, False):
        at = [j for j in range(k) if bool(ok[j]) is flag]
        if flag and done is not None:
            mv, lam, free = done
            parts.append((at, mv[at], [lam[j] for j in at], free[at], {}))
        else:
            parts.append((at, *move([rows[j] for j in at], [beta[j] for j in at])))
    shape = parts[0][1].shape[1:]
    moves, lams, frees, failed = np.zeros((k,) + shape), [0.0] * k, np.zeros((k,) + shape, bool), {}
    for at, mv, lam, free, errs in parts:
        moves[at], frees[at] = mv, free
        for j, value in zip(at, lam):
            lams[j] = value
        for i, err in errs.items():
            failed[at[i]] = err
    return moves, lams, frees, failed


def _bracket(lo, n, x, evals):
    """One row's search for the root of its gap, as a generator: it yields
    each beta to probe and is sent the probe, and it yields the final probe
    (a _Probe, not a float) when the search ends. lo is the probe at
    beta = 0 and evals the evaluations spent on it.

    Probes of beta step along the piece of one end of the bracket [lo, hi]:
    from lo's piece until a probe lands with g <= 0, then leftward from hi's
    piece, from lo's piece when that step leaves the bracket, and bisecting
    only when neither fits. A probe with computed g <= 0 on the piece it was
    stepped from is that piece's root and is returned; when no step fits a
    bracket narrower than beta's rounding, its hi end is.
    """
    def step(p):
        """The root of p's piece, or inf when the piece is flat. Free
        components move against n, centered when the budget binds."""
        nf = n[p.free]
        if p.binds and nf.size:
            nf = nf - math.fsum(nf.tolist()) / nf.size
        slope = math.fsum((nf * nf).tolist())
        return p.beta + p.g / slope if slope > 0.0 else math.inf

    hi = None
    while evals < _MAX_EVALS:
        if hi is not None:
            origin, beta = hi, step(hi)
        if hi is None or not lo.beta < beta < hi.beta:
            # A step from lo always advances, so a g rounded above zero at a
            # piece's root cannot stall the search.
            origin, beta = lo, max(step(lo), lo.beta * (1.0 + 4.0 * EPS) + 5e-324)
        if hi is None:
            if beta == math.inf:
                # No piece is steeper than <n, n>, so lo.g/<n, n> cannot
                # overshoot; growing by 8 gets off a long flat piece quickly.
                beta = max(8.0 * lo.beta, lo.beta + lo.g / math.fsum((n * n).tolist()))
            if beta > 1e300:
                raise ProjectionError("halfspace dual bracket diverged; intersection may be empty")
        elif not lo.beta < beta < hi.beta:
            # The fallback stop: a bracket narrower than beta's rounding, or
            # than a move of 1e-13 relative to x.
            width_tol = max(1e-13 * (1.0 + float(np.abs(x).max()))
                            / math.sqrt(math.fsum((n * n).tolist())), 4.0 * EPS * (1.0 + hi.beta))
            if hi.beta - lo.beta <= width_tol:
                yield hi
            origin, beta = None, 0.5 * (lo.beta + hi.beta)
        p = yield beta
        evals += 1
        if p.g > 0.0:
            lo = p
        elif p.g == 0.0 or (origin is not None and p.piece == origin.piece):
            yield p
        else:
            hi = p
    if hi is None:
        raise ProjectionError(f"no halfspace dual bracket within {_MAX_EVALS} evaluations")
    raise ProjectionError(f"halfspace dual search exceeded {_MAX_EVALS} evaluations")


def _halfspace_dual_rows(x, n, gap, ub, budget, sum_x, face_mode, n_max=None):
    """Rows of feasible x projected onto X (onto the budget face when
    face_mode) intersected with {w : <n, w - x + gap> <= 0}, returned as
    (points, final probes, errors). errors maps a row whose search failed
    to its ProjectionError; that row's point is undefined and its final
    probe None.

    Each row searches its own bracket (see _bracket); the rows probe in
    lockstep, one batched move per round, and a row leaves when its search
    ends. n_max, each row's largest |n|, is computed unless given.
    """
    m = len(x)
    g_lin = list(map(math.fsum, (n * gap).tolist()))
    hi_b = ub - x
    # x's bound sets: at zero, and at ub (where ub - x <= 0 exactly when
    # x >= ub); the components free of both move first.
    lower, upper = x <= 0.0, hi_b <= 0.0
    free0 = ~(lower | upper)
    moves = _move_path_rows(x, n, ub, budget, sum_x, face_mode, hi_b, (lower, upper), n_max)
    final, errors = [None] * m, {}

    def probe(rows, betas):
        """The probes of rows at betas; None for a row whose move failed."""
        delta, lams, free, failed = moves(rows, betas)
        if len(rows) == m:
            g, at_upper = (n * delta).tolist(), delta >= hi_b
        else:
            g, at_upper = (n[rows] * delta).tolist(), delta >= hi_b[rows]
        probes = []
        for r, beta, lam, gr, d, fr, up in zip(rows, betas, lams, g, delta, free, at_upper):
            binds = face_mode or lam > 0.0
            probes.append(_Probe(beta, math.fsum(gr) + g_lin[r], d, lam, fr, binds,
                                 (fr.tobytes(), up.tobytes(), binds)))
        if failed:
            for j, err in failed.items():
                errors[rows[j]], probes[j] = err, None
        return probes

    # With x in the box and within the budget (or on the face) the move at
    # beta = 0 is zero, so x's own bound set is a valid piece there and the
    # first probe is already a Newton step.
    lowest = np.minimum(x, hi_b).min(axis=1).tolist()
    lo, start = [None] * m, []
    for r in range(m):
        if lowest[r] >= 0.0 and (face_mode or sum_x[r] <= budget[r]):
            lo[r] = _Probe(0.0, g_lin[r], 0.0, 0.0, free0[r], face_mode,
                           (free0[r].tobytes(), upper[r].tobytes(), face_mode))
        else:
            start.append(r)
    if start:
        for r, p in zip(start, probe(start, [0.0] * len(start))):
            lo[r] = p
    # Each search yields betas until it yields its final probe.
    pending = []
    for r, p in enumerate(lo):
        if p is not None:
            if p.g <= 0.0:
                final[r] = p
            else:
                pending.append((r, _bracket(p, n[r], x[r], 1 if r in start else 0), None))
    while pending:
        rows, betas, searches = [], [], []
        for r, search, answer in pending:
            try:
                beta = search.send(answer)
            except ProjectionError as exc:
                errors[r] = exc
                continue
            if beta.__class__ is _Probe:
                final[r] = beta
            else:
                rows.append(r), betas.append(beta), searches.append(search)
        pending = [(r, search, p) for r, search, p in
                   zip(rows, searches, probe(rows, betas) if rows else ()) if p is not None]

    shift = np.zeros(x.shape)
    for r, p in enumerate(final):
        if p is not None:
            shift[r] = p.move
    return np.minimum(np.maximum(x + shift, 0.0), ub), final, errors


def _halfspace_rows(x, normal, gap, ub, budget):
    """Rows of feasible x projected onto their sets X intersected with the
    halfspaces {w : <normal, w - x + gap> <= 0}: the row core of
    project_halfspace_then_set, budget holding one float per row. Raises
    ProjectionError for the first row whose search fails."""
    m = len(x)
    sum_x = _row_fsums(x)
    # When x and the offset point both sit on the budget face, their sums
    # differ only by rounding jitter, yet that jitter enters the gap scaled
    # by the large all-ones component of the normal and can erase or invert
    # the cut. Centering the normal removes the all-ones component; on the
    # face the centered halfspace is the exact-arithmetic one, and the dual
    # path P_X(x - beta*n) is unchanged where the budget binds.
    face, plain = [], []
    for r, (b, sx) in enumerate(zip(budget, sum_x)):
        if b - sx <= 64.0 * EPS * b and abs(math.fsum(gap[r].tolist())) <= 256.0 * EPS * b:
            face.append(r)
        else:
            plain.append(r)
    out = None
    if face:
        # Shifting the normal by a multiple of the all-ones vector leaves the
        # halfspace unchanged on the face. Centering on the gap's support
        # (where the normal's dominant component is constant) stops the
        # ulp-level facial jitter from being amplified into the gap.
        whole = len(face) == m
        nf, gf = (normal, gap) if whole else (normal[face], gap[face])
        shift = []
        for row, mask in zip(nf, gf != 0.0):
            base = row[mask]
            if not base.size:
                base = row
            shift.append(math.fsum(base.tolist()) / base.size)
        n_face = nf - _col(shift)
        # A normal that is (numerically) a pure budget direction is a
        # constant on the face and cannot cut.
        peak = _max(np.abs(n_face), axis=1).tolist()
        flat = list(map(operator.le, peak,
                        [8.0 * EPS * max(1.0, a) for a in _max(np.abs(nf), axis=1).tolist()]))
        if any(flat):
            at = [r for r, v in zip(face, flat) if v]
            out = np.empty_like(x)
            out[at] = _box_budget_rows(x[at], ub[at], [budget[r] for r in at])[0]
            keep = [j for j, v in enumerate(flat) if not v]
            face, whole = [face[j] for j in keep], False
            n_face, gf = n_face[keep], gf[keep]
            shift, peak = [shift[j] for j in keep], [peak[j] for j in keep]
        if face:
            points, final, errors = _halfspace_dual_rows(
                *((x, n_face, gf, ub, budget, sum_x) if whole else
                  (x[face], n_face, gf, ub[face], [budget[r] for r in face],
                   [sum_x[r] for r in face])), True, peak)
            kept = []
            for i, (r, p, sh) in enumerate(zip(face, final, shift)):
                # A failed face search means no point of the face meets the
                # halfspace (the offset point is outside the box). Otherwise
                # the face multiplier lam belongs to the centered normal, and
                # the original halfspace's budget multiplier is
                # lam - beta*shift; where it is negative the projection
                # leaves the face. Either way the face is the wrong set.
                if p is not None and p.lam - p.beta * sh >= -64.0 * EPS * (
                        abs(p.lam) + p.beta * abs(sh)):
                    kept.append(i)
                else:
                    plain.append(r)
            if len(kept) == m:
                return points
            if kept:
                out = np.empty_like(x) if out is None else out
                out[[face[i] for i in kept]] = points[kept]
    if plain:
        plain.sort()
        whole = len(plain) == m
        points, _, errors = _halfspace_dual_rows(
            *((x, normal, gap, ub, budget, sum_x) if whole else
              (x[plain], normal[plain], gap[plain], ub[plain], [budget[r] for r in plain],
               [sum_x[r] for r in plain])), False)
        if errors:
            raise errors[min(errors)]
        if whole:
            return points
        out = np.empty_like(x) if out is None else out
        out[plain] = points
    return out
