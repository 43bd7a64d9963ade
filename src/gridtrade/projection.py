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
constraint holds with complementary slackness. Each evaluation of w(beta)
finds its own budget multiplier with the same breakpoint search.

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

import numpy as np

from .model import FeasibleSet


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
    if not np.all(np.isfinite(arr)):
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
    terms = list(v[free]) + list(ub[at_upper]) + [-budget]
    lam = math.fsum(terms) / n_free
    return max(lam, 0.0)


def _breakpoint_root(s, lo, hi, target, finish):
    """Root of f(lam) = sum(clip(s - lam, lo, hi)) = target by breakpoint search.

    f is continuous, nonincreasing and linear between the 2n breakpoints
    s - hi and s - lo. Sorting them once and accumulating the slope changes
    gives f at every breakpoint, and searchsorted picks the piece holding the
    root. `finish(lam_guess)` solves exactly on the active set at lam_guess
    and returns (result, ok), ok being its own KKT certificate. If the piece
    from the cumulative sum is rejected, that sum has lost precision at this
    scale, and the sorted breakpoints are binary-searched again with
    exactly rounded (fsum) values of f. Returns (result, pieces checked).
    """
    n = s.size
    t = np.concatenate((s - hi, s - lo))
    order = np.argsort(t, kind="stable")
    t = t[order]
    # Past s_i - hi_i component i leaves its upper bound; past s_i - lo_i it
    # sits at its lower bound, so f(t_k) = sum(hi) + sum_{j<=k} w_j*(t_j - t_k).
    w = np.where(order < n, 1.0, -1.0)
    f = hi.sum() + np.cumsum(w * t) - np.cumsum(w) * t

    def guess(k):
        """A multiplier inside piece k, the interval (t[k-1], t[k])."""
        if k == 0:
            return t[0] - (1.0 + abs(t[0]))
        if k == 2 * n:
            return t[-1] + (1.0 + abs(t[-1]))
        return 0.5 * (t[k - 1] + t[k])

    k = int(np.searchsorted(-f, -target))
    result, ok = finish(guess(k))
    if ok:
        return result, 1
    first, last = 0, 2 * n
    while first < last:
        mid = (first + last) // 2
        if math.fsum(np.clip(s - t[mid], lo, hi)) <= target:
            last = mid
        else:
            first = mid + 1
    if first != k:
        result, ok = finish(guess(first))
        if ok:
            return result, 2
    raise ProjectionError(
        f"no breakpoint piece certifies the multiplier (target {target:.3e}, {n} components)"
    )


def _box_budget_core(v, ub, budget):
    """Projection onto the box-plus-budget set: returns (point, lam, pieces)."""
    x0 = np.clip(v, 0.0, ub)
    if x0.sum() <= budget:
        return x0, 0.0, 0

    # clamp(v - lam) carries an eps*|v| error per component, which bounds the
    # achievable sum accuracy for far-away inputs.
    floor = 16.0 * np.finfo(float).eps * v.size * max(1.0, float(np.abs(v).max()))
    tol_sum = 1e-12 * max(1.0, budget) + floor

    def finish(lam_guess):
        lam = _exact_multiplier(v, ub, budget, lam_guess)
        x = np.clip(v - lam, 0.0, ub)
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


def _shifted_move(x, n, beta, ub, budget, sum_x, equality=False):
    """The move P_X(x - beta*n) - x for feasible x, in difference form.

    Solves for the budget multiplier directly in move coordinates
    m(lam) = clamp(-beta*n - lam, -x, ub - x), targeting
    fsum(m) = budget - sum(x). The breakpoint search only identifies the
    active set; the accepted move is reassembled as
    -beta*(n_i - mean(n_free)) - c on free components, which keeps every
    piece exactly rounded at its own scale. Computing clamp(-beta*n - lam)
    directly would round at the beta*||n|| scale, orders of magnitude above
    the physical move near convergence.

    With equality=True the budget is treated as the equality sum(w) = sum(x)
    and the multiplier may take either sign; the caller uses this to keep
    iterates on the budget face when that is where the geometry lives.
    Otherwise a genuine slack below the face tolerance is snapped to zero:
    an ulp of slack opens a spurious off-face segment in the dual whose root
    sits within rounding of zero, freezing the caller's iteration.
    """
    s = -beta * n
    lo_b = -x
    hi_b = ub - x
    target = budget - sum_x
    face_tol = 64.0 * np.finfo(float).eps * max(1.0, budget)
    if equality or (0.0 <= target <= face_tol):
        target = 0.0

    m0 = np.clip(s, lo_b, hi_b)
    if not equality and math.fsum(m0) <= target:
        free = (m0 > lo_b) & (m0 < hi_b)
        return m0, 0.0, free

    s_scale = float(np.abs(s).max())

    def assemble(lam):
        """Decomposed move for the active set identified at lam.

        The mean of n over the free set rounds once; its residue is folded
        into the constant term so the move sums to the target exactly. Any
        guessed active set sums to the target by construction, so the
        assembly is accepted only if it also satisfies the KKT set
        conditions at its own exact multiplier. Returns
        ((move, multiplier, free), ok).
        """
        mm = np.clip(s - lam, lo_b, hi_b)
        lower = mm <= lo_b
        upper = mm >= hi_b
        free = ~(lower | upper)
        k = int(free.sum())
        if k == 0:
            ok = abs(math.fsum(mm) - target) <= 1e-12 * max(1.0, abs(target))
            return (mm, lam, free), ok
        nbar = math.fsum(n[free]) / k
        residue = math.fsum(list(n[free]) + [-k * nbar])
        c = math.fsum(list(hi_b[upper]) + list(lo_b[lower]) + [-target]) / k
        c_adj = c - beta * residue / k
        m_free = -beta * (n - nbar) - c_adj
        m = np.where(lower, lo_b, np.where(upper, hi_b, m_free))
        lam_exact = -beta * nbar + c_adj
        tol_c = 64.0 * np.finfo(float).eps * (s_scale + abs(lam_exact)) + 1e-300
        shifted = s - lam_exact
        ok = bool(
            (equality or lam_exact >= -tol_c)
            and np.all(m[free] >= lo_b[free] - tol_c)
            and np.all(m[free] <= hi_b[free] + tol_c)
            and np.all(shifted[lower] <= lo_b[lower] + tol_c)
            and np.all(shifted[upper] >= hi_b[upper] - tol_c)
        )
        m = np.clip(m, lo_b, hi_b)
        if not equality:
            lam_exact = max(lam_exact, 0.0)
        return (m, lam_exact, free), ok

    return _breakpoint_root(s, lo_b, hi_b, target, assemble)[0]


def project_halfspace_then_set(x, normal, offset_point, fset: FeasibleSet,
                               max_evals: int = 10_000, offset_gap=None) -> np.ndarray:
    """Euclidean projection of x onto X intersected with the halfspace
    {w : <normal, w - offset_point> <= 0}, for feasible x.

    The halfspace constraint carries a single dual beta >= 0 with
    w(beta) = P_X(x - beta*normal); its gap g(beta) = <normal, w - offset>
    is continuous, nonincreasing and piecewise linear in beta, so a Newton
    step off the current linear piece usually lands on the root and a
    bracketed regula-falsi finishes. Raises ProjectionError when no bracket
    exists within max_evals gap evaluations (empty or degenerate
    intersection), and ValueError when an input is non-finite or does not
    match the set's dimension.

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
    sum_x = math.fsum(x)

    # When x and the offset point both sit on the budget face, their sums
    # differ only by rounding jitter, yet that jitter enters the gap scaled
    # by the large all-ones component of the normal and can erase or invert
    # the cut. Centering the normal removes the all-ones component; on the
    # face the centered halfspace is the exact-arithmetic one, and the dual
    # path P_X(x - beta*n) is unchanged where the budget binds.
    eps = np.finfo(float).eps
    on_face = (budget - sum_x) <= 64.0 * eps * max(1.0, budget)
    face_mode = on_face and abs(math.fsum(gap)) <= 256.0 * eps * max(1.0, budget)
    if face_mode:
        # Shifting the normal by a multiple of the all-ones vector leaves the
        # halfspace unchanged on the face. Centering on the gap's support
        # (where the normal's dominant component is constant) stops the
        # ulp-level facial jitter from being amplified into the gap.
        support = gap != 0.0
        base = n[support] if support.any() else n
        n = n - math.fsum(base) / base.size
        if not np.any(np.abs(n) > 8.0 * eps * max(1.0, float(np.abs(normal).max()))):
            # Normal was (numerically) a pure budget direction; on the face
            # the constraint is a constant and cannot cut.
            return project_box_budget(x, fset).point
    nn = math.fsum(n * n)

    g_lin = math.fsum(n * gap)
    evals = 0

    def g_of(beta: float):
        nonlocal evals
        evals += 1
        delta, lam, free = _shifted_move(x, n, beta, ub, budget, sum_x, equality=face_mode)
        g = math.fsum(n * delta) + g_lin
        # Magnitude of the current linear piece's (negative) slope: free
        # components move against n, centered when the budget binds.
        nf = n[free]
        if nf.size == 0:
            slope = 0.0
        elif face_mode or lam > 0.0:
            nbar = math.fsum(nf) / nf.size
            slope = math.fsum((nf - nbar) ** 2)
        else:
            slope = math.fsum(nf * nf)
        return g, delta, slope

    g0, delta0, _ = g_of(0.0)
    if g0 <= 0.0:
        return np.clip(x + delta0, 0.0, ub)

    # g is piecewise linear and nonincreasing, so a Newton step along the
    # current piece either lands on the root, crosses into the next piece
    # (at most one crossing per step), or overshoots and brackets the root.
    # The first probe g0/<n, n> cannot overshoot: no piece is steeper.
    lo, g_lo = 0.0, g0
    hi = g0 / nn
    g_hi = g0
    delta_hi = delta0
    while evals < max_evals:
        g_hi, delta_hi, slope_hi = g_of(hi)
        if g_hi <= 0.0:
            break
        lo, g_lo = hi, g_hi
        hi = hi + g_hi / slope_hi if slope_hi > 0.0 else 8.0 * hi
        if hi <= lo:
            hi = 2.0 * lo
        if hi > 1e300:
            raise ProjectionError("halfspace dual bracket diverged; intersection may be empty")
    else:
        raise ProjectionError(f"no halfspace dual bracket within {max_evals} evaluations")

    if g_hi == 0.0:
        return np.clip(x + delta_hi, 0.0, ub)

    move_tol = 1e-13 * (1.0 + float(np.abs(x).max()))
    width_tol = max(move_tol / math.sqrt(nn), 4.0 * np.finfo(float).eps * (1.0 + hi))

    best_delta = delta_hi
    side = 0
    while (hi - lo) > width_tol and evals < max_evals:
        denom = g_lo - g_hi
        beta = lo + g_lo * (hi - lo) / denom if denom > 0.0 else 0.5 * (lo + hi)
        if not (lo < beta < hi):
            beta = 0.5 * (lo + hi)
        g, delta, _ = g_of(beta)
        if g > 0.0:
            lo, g_lo = beta, g
            if side == -1:
                g_hi *= 0.5
            side = -1
        elif g < 0.0:
            hi, g_hi = beta, g
            best_delta = delta
            if side == 1:
                g_lo *= 0.5
            side = 1
        else:
            return np.clip(x + delta, 0.0, ub)
    if evals >= max_evals:
        raise ProjectionError(f"halfspace dual search exceeded {max_evals} evaluations")

    denom = g_lo - g_hi
    if denom > 0.0:
        beta_star = lo + g_lo * (hi - lo) / denom
        g_star, delta_star, _ = g_of(beta_star)
        if g_star <= 0.0:
            best_delta = delta_star
    return np.clip(x + best_delta, 0.0, ub)
