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


def _exact_multiplier(v, ub, budget, lam_guess):
    """Multiplier solved on the active set identified at lam_guess.

    fsum keeps the small difference of budget-sized sums exactly rounded.
    """
    shifted = v - lam_guess
    free = (shifted > 0.0) & (shifted < ub)
    n_free = int(free.sum())
    if n_free == 0:
        return max(lam_guess, 0.0)
    at_upper = shifted >= ub
    lam = math.fsum(v[free].tolist() + ub[at_upper].tolist() + [-budget]) / n_free
    return max(lam, 0.0)


def _breakpoint_root(s, lo, hi, target, finish, slope=None):
    """Root of f(lam) = sum(clip(slope*(s - lam), lo, hi)) = target by breakpoint search.

    slope holds per-component slopes (None: all 1). Component i falls with
    slope_i between its breakpoints s_i - hi_i/slope_i and s_i - lo_i/slope_i;
    an infinite slope makes it a step from hi_i down to lo_i at lam = s_i.
    Sorting the 2n breakpoints once and accumulating slope changes and drops
    gives the nonincreasing f at every breakpoint, and searchsorted picks the
    piece holding the root. The root is on the step that ends or starts that
    piece instead when the target lies between f's fsum-exact right and left
    limits there. `finish(lam)` solves exactly at lam and returns (result,
    ok), ok being its own KKT certificate: on a piece it solves on the active
    set, on a step the components tied there take what the others leave of
    the target (the step fill). If the piece is rejected, the cumulative sum
    has lost precision at this scale, and the sorted breakpoints are
    binary-searched again with exactly rounded (fsum) values of f.
    Returns (result, pieces checked).
    """
    n = s.size
    unit = slope is None
    t = np.concatenate((s - hi, s - lo) if unit else (s - hi / slope, s - lo / slope))
    order = np.argsort(t, kind="stable")
    t = t[order]
    # Past its first breakpoint component j leaves hi_j, past its second it
    # sits at lo_j, so f(t_k) = sum(hi) + sum_{j<=k} w_j*(t_j - t_k) with
    # w_j = +-slope_j, less the drops of the steps up to t_k.
    w = np.where(order < n, 1.0, -1.0)
    has_steps = False
    if not unit:
        w *= np.tile(slope, 2)[order]
        steps = np.isinf(w)
        has_steps = bool(steps.any())
        w[steps] = 0.0
    f = hi.sum() + np.cumsum(w * t) - np.cumsum(w) * t
    if has_steps:
        f += np.cumsum(np.where(steps & (order < n), np.tile(lo - hi, 2)[order], 0.0))

    def right_limit(lam):
        """The components at lam; a step on lam takes lo, its right limit."""
        with np.errstate(invalid="ignore"):
            return np.fmin(np.fmax(s - lam if unit else slope * (s - lam), lo), hi)

    def point(k):
        """The step that ends or starts piece k if the target lies between
        f's fsum-exact right and left limits there, else a multiplier inside
        the piece, the interval (t[k-1], t[k])."""
        for lam in t[max(k - 1, 0):k + 1][::-1] if has_steps else ():
            tied = np.isinf(slope) & (s == lam)
            right = right_limit(lam).tolist()
            if tied.any() and math.fsum(right) <= target <= math.fsum(
                    right + (hi - lo)[tied].tolist()):
                return lam
        if k == 0:
            return t[0] - (1.0 + abs(t[0]))
        if k == 2 * n:
            return t[-1] + (1.0 + abs(t[-1]))
        return 0.5 * (t[k - 1] + t[k])

    k = int(np.searchsorted(-f, -target))
    result, ok = finish(point(k))
    if ok:
        return result, 1
    first, last = 0, 2 * n
    while first < last:
        mid = (first + last) // 2
        if math.fsum(right_limit(t[mid]).tolist()) <= target:
            last = mid
        else:
            first = mid + 1
    if first != k:
        result, ok = finish(point(first))
        if ok:
            return result, 2
    raise ProjectionError(
        f"no breakpoint piece certifies the multiplier (target {target:.3e}, {n} components)"
    )


def _box_budget_core(v, ub, budget):
    """Projection onto the box-plus-budget set: returns (point, lam, pieces)."""
    x0 = np.minimum(np.maximum(v, 0.0), ub)
    if x0.sum() <= budget:
        return x0, 0.0, 0

    # clamp(v - lam) carries an eps*|v| error per component, which bounds the
    # achievable sum accuracy for far-away inputs.
    floor = 16.0 * EPS * v.size * max(1.0, float(np.abs(v).max()))
    tol_sum = 1e-12 * max(1.0, budget) + floor

    def finish(lam_guess):
        lam = _exact_multiplier(v, ub, budget, lam_guess)
        x = np.minimum(np.maximum(v - lam, 0.0), ub)
        return (x, lam), abs(x.sum() - budget) <= tol_sum

    (x, lam), pieces = _breakpoint_root(v, np.zeros_like(ub), ub, budget, finish)
    return x, lam, pieces


def project_box_budget(v, fset: FeasibleSet) -> ProjectionResult:
    """Euclidean projection of v onto the box-plus-budget set.

    If the box-clamped point already satisfies the budget the multiplier is
    zero; otherwise the budget binds, the breakpoint search finds the piece
    holding the multiplier, and it is solved exactly on that active set.
    """
    ub = fset.upper_bounds
    v = _checked_vector(v, "vector", ub.shape)
    point, lam, pieces = _box_budget_core(v, ub, fset.budget)
    return ProjectionResult(point=point, multiplier=float(lam),
                            active_budget=lam > 0.0, iterations=pieces)


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

        def finish(lam):
            """The move on the piece holding lam, whose constants (see
            on_piece) do not depend on beta."""
            nonlocal last
            mm = np.minimum(np.maximum(s - lam, lo_b), hi_b)
            piece = piece_of(mm <= lo_b, mm >= hi_b)
            if piece is None:
                ok = abs(math.fsum(mm.tolist()) - target) <= 1e-12 * max(1.0, abs(target))
                return (mm, lam, np.zeros(mm.shape, dtype=bool)), ok
            result, ok = on_piece(piece, beta, s)
            if ok:
                last = piece
            return result, ok

        return _breakpoint_root(s, lo_b, hi_b, target, finish)[0]

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
    (point, beta, budget multiplier).

    Probes of beta step along the piece of one end of the bracket [lo, hi]:
    from lo's piece until a probe lands with g <= 0, then leftward from hi's
    piece, from lo's piece when that step leaves the bracket, and bisecting
    only when neither fits. A probe with computed g <= 0 on the piece it was
    stepped from is that piece's root and is returned; when no step fits a
    bracket narrower than beta's rounding, its hi end is.
    """
    g_lin = math.fsum((n * gap).tolist())
    moves = _move_path(x, n, ub, budget, sum_x, face_mode)
    hi_b = ub - x
    evals = 0

    def probe(beta):
        nonlocal evals
        evals += 1
        delta, lam, free = moves(beta)
        binds = face_mode or lam > 0.0
        return _Probe(beta, math.fsum((n * delta).tolist()) + g_lin, delta, lam, free, binds,
                      (free.tobytes(), (delta >= hi_b).tobytes(), binds))

    def step(p):
        """The root of p's piece, or inf when the piece is flat. Free
        components move against n, centered when the budget binds."""
        nf = n[p.free]
        if p.binds and nf.size:
            nf = nf - math.fsum(nf.tolist()) / nf.size
        slope = math.fsum((nf * nf).tolist())
        return p.beta + p.g / slope if slope > 0.0 else math.inf

    def result(p):
        return np.minimum(np.maximum(x + p.move, 0.0), ub), p.beta, p.lam

    if (face_mode or sum_x <= budget) and x.min() >= 0.0 and hi_b.min() >= 0.0:
        # With x in the box and within the budget (or on the face) the move
        # at beta = 0 is zero, so x's own bound set is a valid piece there
        # and the first probe is already a Newton step.
        free = (x > 0.0) & (hi_b > 0.0)
        lo = _Probe(0.0, g_lin, 0.0, 0.0, free, face_mode,
                    (free.tobytes(), (hi_b <= 0.0).tobytes(), face_mode))
    else:
        lo = probe(0.0)
    if lo.g <= 0.0:
        return result(lo)

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
                return result(hi)
            origin, beta = None, 0.5 * (lo.beta + hi.beta)
        p = probe(beta)
        if p.g > 0.0:
            lo = p
        elif p.g == 0.0 or (origin is not None and p.piece == origin.piece):
            return result(p)
        else:
            hi = p
    if hi is None:
        raise ProjectionError(f"no halfspace dual bracket within {_MAX_EVALS} evaluations")
    raise ProjectionError(f"halfspace dual search exceeded {_MAX_EVALS} evaluations")


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
