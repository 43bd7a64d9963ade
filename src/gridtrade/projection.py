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
active set's constants do not depend on beta). When that piece fails its
KKT check, the move runs a chain of active-set Newton steps on the budget
multiplier (Cominetti, Mascarenhas & Silva 2014): it pivots to the piece
of clip(s - lam) at the multiplier lam the failed piece computed, and on
from each piece that fails to the next, until one certifies or a
multiplier comes round again. Before any piece has certified, and after
a stored piece with no free component, the chain starts at the clamp at
lam = 0. The breakpoint search sorts only when the chain fails. With x in
the box and within the budget, the move at beta = 0 is zero and the
piece there is that of x's own bounds, so the first probe is already a
Newton step. Near convergence the solver's steady rounds no longer reach
this search: once an iterate holds the active set of the solution, its
projection is the trial point itself (see vi_solver).

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

import numpy as np

from .model import FeasibleSet

EPS = float(np.finfo(float).eps)
# Reductions, called directly: ndarray's methods add a Python-level wrapper
# to each call, and the arrays here are small.
_all, _any = np.logical_and.reduce, np.logical_or.reduce
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce
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
    if not _all(np.isfinite(arr)):
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
    and is redone on X. Raises ProjectionError when no bracket exists within
    _MAX_EVALS gap evaluations (empty or degenerate intersection), and
    ValueError when an input is non-finite or does not match the set's
    dimension, or the normal is zero.

    offset_gap, when given, supplies x - offset_point directly; pass it when
    that difference is known analytically, because forming it by subtraction
    of nearly equal vectors destroys the gap signal. This is the row core
    _halfspace_rows on a batch of one.
    """
    ub = fset.upper_bounds
    x = _checked_vector(x, "point", ub.shape)
    n = _checked_vector(normal, "normal", ub.shape)
    gap = (x - _checked_vector(offset_point, "offset point", ub.shape)) if offset_gap is None \
        else _checked_vector(offset_gap, "offset gap", ub.shape)
    if not _any(n):
        raise ValueError("halfspace normal must be nonzero")
    return _halfspace_rows(x[None], n[None], gap[None], ub[None], [fset.budget])[0]


# Row cores. The engine plays a sweep's games in lockstep through these:
# each takes (rows, n) arrays of independent problems and keeps every row's
# multiplier, bracket, certified piece and stop to itself. Elementwise work,
# the halfspace dual's probes and Newton steps run on the live rows as
# columns; exactly rounded sums, piece comparisons and each search's scalar
# rule run row by row, so a row rounds as it does alone. A row leaves the batch
# when its search ends.
#
# The public projections above are these cores on a batch of one, behind
# their input checks, and vi_solver's loop projects every batch size with
# _halfspace_rows. Its rows on the budget face and its other rows share
# one halfspace dual search, the face being a flag per row. A halfspace
# move that finds no certified piece, as every row's first move, runs a
# chain of pivots before it sorts (_pivot) at every batch size, and the
# rows whose chain fails share one breakpoint search. The main choice made
# by batch size is the halfspace dual's probe: a lone row takes _move_path,
# which assembles its moves on one vector, and several rows take
# _move_path_rows, which on a lone row gives the same bytes but makes
# follower_tight's 400 solves take 45% longer (0.56 s against 0.39 s, the
# least of 6 alternating in-process passes at seed 211 on a 2-core Xeon).
# _halfspace_dual_rows gives either probe each row's move target and
# largest |n|. _newton_steps, _masked_rows and _counted_rows also have a
# branch of their own for a lone row.
#
# The rows of a batch may be of different sizes. `widths` then gives each
# row's size, its problem being its leading widths[r] components; the rest
# are pads with bounds [0, 0], which every core keeps at zero and out of each
# row's exact sums, counts, maxima, breakpoints and messages, so that a row
# rounds as it does alone. widths None means every row spans the batch.

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


def _row_sums(a, widths=None):
    """numpy's sum of each row of a over its first widths[r] entries (widths
    None: the whole row), rounded as that row alone rounds it: the pairwise
    sum rounds differently once zeros are appended. Rows of one width are
    summed together."""
    if widths is None:
        return _sum(a, axis=1).tolist()
    sums = [0.0] * len(a)
    for w in set(widths):
        at = [r for r, v in enumerate(widths) if v == w]
        for r, total in zip(at, _sum(a[at, :w], axis=1).tolist()):
            sums[r] = total
    return sums


def _at(widths, rows):
    """The widths of the rows at the list rows; None stays None."""
    return None if widths is None else [widths[r] for r in rows]


def _pads(widths, n):
    """The (rows, n) mask of the components past each row's width."""
    return np.arange(n) >= np.array(widths)[:, None]


def _masked_rows(a, mask):
    """Per row of a, its entries where mask holds as a list, for an exactly
    rounded sum: a lone row is indexed (so the list holds just those
    entries), a batch is padded with zeros, which leave such a sum as it
    is."""
    if len(a) == 1:
        return [a[mask].tolist()]
    return np.where(mask, a, 0.0).tolist()


def _counted_rows(a, mask):
    """_masked_rows of a and mask, and the number of entries mask holds in
    each row."""
    if len(a) == 1:
        kept = a[mask].tolist()
        return [kept], [len(kept)]
    return np.where(mask, a, 0.0).tolist(), _sum(mask, axis=1).tolist()


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
    v_free, counts = _counted_rows(v, free)
    lam = []
    for n_free, v_free, ub_upper, b, guess in zip(counts, v_free, _masked_rows(ub, at_upper),
                                                   budget, lam_guess):
        if n_free == 0:
            lam.append(max(guess, 0.0))
        else:
            lam.append(max(math.fsum(v_free + ub_upper + [-b]) / n_free, 0.0))
    return lam


def _breakpoint_rows(s, lo, hi, target, finish, widths=None, slope=None):
    """Per row r, the root of f(lam) = sum(clip(slope*(s - lam), lo, hi)) =
    target[r] by breakpoint search, s, lo, hi and slope being (rows, n), row
    r's components its first widths[r] (see the note above).

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
    ends, f0 = [2 * n] * m, None
    if widths is not None:
        # A pad's breakpoints sort after the row's own, where f is nan and
        # the search never lands.
        ends, f0 = [2 * w for w in widths], np.array(_row_sums(hi, widths))[:, None]
        t[np.tile(_pads(widths, n), 2)] = math.inf
    order = t.argsort(1, kind="stable")
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
    if f0 is None:
        f = _sum(hi, axis=1, keepdims=True) + (w * t).cumsum(1) - w.cumsum(1) * t
    else:
        with np.errstate(invalid="ignore"):
            f = f0 + (w * t).cumsum(1) - w.cumsum(1) * t
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
        if k == ends[r]:
            return tr[k - 1] + (1.0 + abs(tr[k - 1]))
        return 0.5 * (tr[k - 1] + tr[k])

    drop = -f
    ks = [int(row.searchsorted(-b)) for row, b in zip(drop, target)]
    ok = finish(list(range(m)), [point(r, k) for r, k in enumerate(ks)])
    pieces = [1 if good else None for good in ok]
    retry = []
    for r in (r for r, good in enumerate(ok) if not good):
        first, last = 0, ends[r]
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


def _box_budget_rows(v, ub, budget, widths=None):
    """Projections of the rows of v onto their box-plus-budget sets, budget
    holding one float per row and widths each row's size (see the note
    above): returns (points, multipliers, pieces). Raises ProjectionError
    for the first row no piece certifies."""
    x = np.minimum(np.maximum(v, 0.0), ub)
    m, n = v.shape
    lam, pieces = [0.0] * m, [0] * m
    over = [r for r, (total, b) in enumerate(zip(_row_sums(x, widths), budget)) if total > b]
    if not over:
        return x, lam, pieces

    vs, us = _take(v, over), _take(ub, over)
    bs, ws = [budget[i] for i in over], _at(widths, over)
    sizes = [n] * len(over) if ws is None else ws
    # clamp(v - lam) carries an eps*|v| error per component, which bounds the
    # achievable sum accuracy for far-away inputs.
    tol_sum = [1e-12 * max(1.0, b) + 16.0 * EPS * k * max(1.0, peak)
               for b, k, peak in zip(bs, sizes, _max(np.abs(vs), axis=1).tolist())]

    def finish(rows, guesses):
        vr, ur = _take(vs, rows), _take(us, rows)
        lr = _exact_multiplier_rows(vr, ur, [bs[i] for i in rows], guesses)
        xr = np.minimum(np.maximum(vr - _col(lr), 0.0), ur)
        if len(rows) == m:
            x[...] = xr
        else:
            x[[over[i] for i in rows]] = xr
        ok = []
        for i, total, lam_i in zip(rows, _row_sums(xr, _at(ws, rows)), lr):
            lam[over[i]] = lam_i
            ok.append(abs(total - bs[i]) <= tol_sum[i])
        return ok

    for i, checked in enumerate(_breakpoint_rows(vs, np.zeros(us.shape), us, bs, finish, ws)):
        if checked is None:
            raise _uncertified(bs[i], sizes[i])
        pieces[over[i]] = checked
    return x, lam, pieces


def _move_path_rows(x, n, hi_b, target, peak, face, g_lin, widths=None):
    """The moves P_X(x - beta*n) - x over rows of feasible x, as the
    halfspace dual's probes, assembled as _move_path explains: returns
    probe(rows, betas), which probes the ascending list rows at one
    beta >= 0 each and returns their probe columns (see _bracket), the gap
    of row r being <n, move> + g_lin[r]. face holds one flag per row: a
    face row keeps its move on the budget face (_move_path's equality), the
    others move within the budget. Each row's move is first assembled on its
    last certified piece, held with the others' as columns; the rows whose
    piece fails its KKT check, or that have none yet, pivot (_pivot), the
    rows whose chain of pivots fails share one breakpoint search, and a
    position whose search certifies no piece gets its ProjectionError in
    the dict of failures.

    The caller passes hi_b, ub - x, and per row the move's budget target
    and the largest |n| (see _halfspace_dual_rows). A pad (see the note
    above) sits at both bounds, and its KKT interval is the whole line.
    """
    m, dim = x.shape
    lo_b = -x
    face = np.array(face)

    def piece_of(rows, lower, upper, nr, lb, hb):
        """piece_of of _move_path for rows: the free masks, the arrays (bound,
        lo_lim, hi_lim, dev) and the scalars (k, nbar, residue, c, slope,
        count) stacked on axis 0; count is the number of free components,
        and k is 1 where there are none."""
        free = ~(lower | upper)
        bound = np.where(lower, lb, hb)
        (n_free, counts), fixed = _counted_rows(nr, free), _masked_rows(bound, ~free)
        ks, means, residues, cs = [], [], [], []
        for r, k, n_free, fixed in zip(rows, counts, n_free, fixed):
            if k:
                mean = math.fsum(n_free) / k
                n_free.append(-k * mean)
                fixed.append(-target[r])
                ks.append(k), means.append(mean)
                residues.append(math.fsum(n_free)), cs.append(math.fsum(fixed) / k)
            else:
                ks.append(1), means.append(0.0), residues.append(0.0), cs.append(0.0)
        dev = nr - np.array(means)[:, None]
        slopes = list(map(math.fsum, _masked_rows(dev * dev, free)))
        return free, np.array((bound, np.where(free, lb, np.where(lower, -np.inf, hb)),
                               np.where(free, hb, np.where(upper, np.inf, lb)), dev)), \
            np.array((ks, means, residues, cs, slopes, counts), dtype=float)

    # Each row's last piece, written in place. None has certified yet, and a
    # piece with no free component computes the multiplier 0, so each row's
    # first move runs the chain from the clamp at lam = 0.
    scalars = np.zeros((6, m))
    scalars[0] = 1.0
    stores = np.zeros((m, dim), dtype=bool), np.zeros((4, m, dim)), scalars

    def on_piece(free, arrays, scalars, beta, nb, s, lb, hb, peak, eq, strict=False):
        """on_piece of _move_path for rows at beta (nb is -beta as a column,
        eq the rows' face flags): (ok, moves, multipliers), ok false where
        no component is free. A piece with none computes the multiplier 0."""
        bound, lo_lim, hi_lim, dev = arrays
        k, nbar, residue, c, _, count = scalars
        c_adj = c - beta * residue / k
        lam = nb[:, 0] * nbar + c_adj
        tol = 64.0 * EPS * (beta * peak + np.abs(lam)) + 1e-300
        if strict:
            tol = -tol
        m_free = nb * dev - c_adj[:, None]
        tc = tol[:, None]
        v = np.where(free, m_free, s - lam[:, None])
        ok = (count > 0.0) & ~_any((v < lo_lim - tc) | (v > hi_lim + tc), axis=1)
        ok &= eq | (lam >= -tol)
        lam = np.where((lam < 0.0) & ~eq, 0.0, lam)
        return ok, np.minimum(np.maximum(np.where(free, m_free, bound), lb), hb), lam

    def probe(rows, betas):
        k = len(rows)
        if k == m:
            nr, lb, hb, pk, eq = n, lo_b, hi_b, peak, face
            free, arrays, scalars = stores
        else:
            at = np.array(rows)
            nr, lb, hb, pk, eq = n[at], lo_b[at], hi_b[at], peak[at], face[at]
            free, arrays, scalars = stores[0][at], stores[1][:, at], stores[2][:, at]
        beta = np.array(betas)
        nb = -beta[:, None]
        s = nb * nr
        ok, mv, lam = on_piece(free, arrays, scalars, beta, nb, s, lb, hb, pk, eq)
        slope = scalars[4].tolist()
        # A row off the face whose clamp at lam = 0 keeps within its budget
        # moves there.
        off, inside = np.flatnonzero(~eq).tolist(), [False] * k
        if off:
            m0 = np.minimum(np.maximum(s, lb), hb)
            for j, total in zip(off, _row_fsums(_take(m0, off))):
                inside[j] = total <= target[rows[j]]
        if any(inside):
            at = np.array(inside)
            mv, lam = np.where(at[:, None], m0, mv), np.where(at, 0.0, lam)
            free = np.where(at[:, None], (m0 > lb) & (m0 < hb), free)
            ok |= at
        elif k == m:
            # The stored masks are written in place as pieces move on.
            free = free.copy()
        failed = {}
        if not ok.all():
            # The rows whose piece fails at their beta pivot, and the rows
            # whose chain of pivots fails too search for their piece.
            at = np.flatnonzero(~ok)
            need = at.tolist()
            at_rows = [rows[j] for j in need]
            ss, ls, hs, bs, ns, ps, es = s[at], lb[at], hb[at], beta[at], nr[at], pk[at], eq[at]
            targets = [target[r] for r in at_rows]

            def finish(sub, lam_guess, pivot=False):
                """The moves on the pieces holding lam_guess at the positions
                sub of need, each written to the probe's columns where it
                certifies. A pivot's piece certifies only with a free
                component, by the strict test, and a pivot gets back each
                piece's multiplier as well (see _pivot)."""
                sr = [at_rows[i] for i in sub]
                s2, l2, h2, b2, n2, p2 = ss[sub], ls[sub], hs[sub], bs[sub], ns[sub], ps[sub]
                guess = np.array(lam_guess)
                mm = np.minimum(np.maximum(s2 - guess[:, None], l2), h2)
                new = piece_of(sr, mm <= l2, mm >= h2, n2, l2, h2)
                got, mv2, lam2 = on_piece(*new, b2, -b2[:, None], s2, l2, h2, p2, es[sub], pivot)
                empty = new[2][5] == 0.0
                keep = got
                if empty.any():
                    # A row with no free component has no multiplier of its
                    # own: its move is the clamp at lam_guess, which only the
                    # search takes.
                    mv2[empty], lam2[empty] = mm[empty], guess[empty]
                    if not pivot:
                        for j, total in zip(np.flatnonzero(empty).tolist(),
                                            _row_fsums(mm[empty])):
                            t = targets[sub[j]]
                            got[j] = abs(total - t) <= 1e-12 * max(1.0, abs(t))
                        keep = got & ~empty
                pos = [need[i] for i, good in zip(sub, got.tolist()) if good]
                mv[pos], lam[pos], free[pos] = mv2[got], lam2[got], new[0][got]
                for j, value in zip(pos, new[2][4][got].tolist()):
                    slope[j] = value
                if not keep.all():
                    sr = [r for r, good in zip(sr, keep.tolist()) if good]
                    new = new[0][keep], new[1][:, keep], new[2][:, keep]
                stores[0][sr], stores[1][:, sr], stores[2][:, sr] = new
                return (got.tolist(), lam2.tolist()) if pivot else got.tolist()

            # A stored piece with no free component computed lam = 0, so its
            # chain starts at the clamp there.
            rest = _pivot(finish, lam[at].tolist())
            if rest:
                checked = _breakpoint_rows(
                    ss[rest], ls[rest], hs[rest], [targets[i] for i in rest],
                    lambda sub, lams: finish([rest[i] for i in sub], lams),
                    _at(widths, [at_rows[i] for i in rest]))
                for i, c in zip(rest, checked):
                    if c is None:
                        failed[need[i]] = _uncertified(
                            targets[i], dim if widths is None else widths[at_rows[i]])
        lam = lam.tolist()
        g = [math.fsum(terms) + g_lin[r] for terms, r in zip((nr * mv).tolist(), rows)]
        binds = [e or value > 0.0 for e, value in zip(eq.tolist(), lam)]
        slope = [v if b else math.nan for v, b in zip(slope, binds)]
        return g, lam, binds, free, mv >= hb, mv, slope, failed

    return probe


def _move_path(x, n, hi_b, target, peak, face, g_lin):
    """_move_path_rows for a batch of one: the same probe(rows, betas), the
    moves assembled on one vector with scalar bookkeeping, which a lone row
    runs faster than columns; face[0] is the row's equality below.

    Solves for the budget multiplier directly in move coordinates
    m(lam) = clamp(-beta*n - lam, -x, hi_b), hi_b = ub - x, targeting
    fsum(m) = target[0], the slack budget - sum(x) as _halfspace_dual_rows
    sets it. The breakpoint search only identifies the active set; the
    accepted move is reassembled as -beta*(n_i - mean(n_free)) - c on free
    components, which keeps every piece exactly rounded at its own scale.
    Computing clamp(-beta*n - lam) directly would round at the beta*||n||
    scale, orders of magnitude above the physical move near convergence. An
    active set's constants do not depend on beta, and successive probes of
    the dual mostly stay on one set, so each move is first assembled on the
    last certified piece. When that piece's KKT check fails, or no piece is
    stored yet, the move runs a chain of pivots (_pivot), and the
    breakpoint search runs only when the chain fails.

    With equality=True the budget is treated as the equality sum(w) = sum(x)
    and the multiplier may take either sign; the caller uses this to keep
    iterates on the budget face when that is where the geometry lives.
    """
    x, n, hi_b, g_lin, target, equality = x[0], n[0], hi_b[0], g_lin[0], target[0], face[0]
    lo_b, n_max = -x, float(peak[0])
    # The last certified piece with a free component, None until one is.
    last = None

    def piece_of(lower, upper):
        """The beta-free constants of the piece whose components in `lower`
        and `upper` sit at their bounds, or None when no component is free.
        Its limits hold each component's KKT interval: a free one's box, and
        the side of its bound that a clamped one's unclamped value must lie
        on. The move takes hi_lim at the clamped components: a lower one's
        bound, or inf at an upper one, which the clamp takes down to ub - x."""
        free = ~(lower | upper)
        k = int(np.count_nonzero(free))
        if k == 0:
            return None
        n_free = n[free].tolist()
        nbar = math.fsum(n_free) / k
        dev = n - nbar
        centered = dev[free]
        return (free, k,
                np.where(free, lo_b, np.where(upper, hi_b, -np.inf)),
                np.where(free, hi_b, np.where(lower, lo_b, np.inf)),
                dev, nbar, math.fsum(n_free + [-k * nbar]),
                math.fsum(lo_b[lower].tolist() + hi_b[upper].tolist() + [-target]) / k,
                math.fsum((centered * centered).tolist()))

    def on_piece(piece, beta, s, strict=False):
        """The move of a piece at beta as (move, multiplier, free, slope),
        the move None when the piece fails. The rounded mean's residue folds
        into the constant, so any piece's move sums to the target exactly;
        the piece holds when it passes its KKT test at its own multiplier,
        strict or not (see _pivot)."""
        free, k, lo_lim, hi_lim, dev, nbar, residue, c, slope = piece
        c_adj = c - beta * residue / k
        m_free = -beta * dev - c_adj
        lam = -beta * nbar + c_adj
        tol = 64.0 * EPS * (beta * n_max + abs(lam)) + 1e-300
        if strict:
            tol = -tol
        v = np.where(free, m_free, s - lam)
        held = (equality or lam >= -tol) and not _any((v < lo_lim - tol) | (v > hi_lim + tol))
        lam = lam if equality else max(lam, 0.0)
        if not held:
            return None, lam, free, slope
        return np.minimum(np.maximum(np.where(free, m_free, hi_lim), lo_b), hi_b), lam, free, slope

    def move(beta):
        """The move at beta as (move, multiplier, free, slope), slope None
        for a move inside the budget; None when no piece certifies."""
        s = -beta * n
        if not equality:
            m0 = np.minimum(np.maximum(s, lo_b), hi_b)
            if math.fsum(m0.tolist()) <= target:
                return m0, 0.0, (m0 > lo_b) & (m0 < hi_b), None
        # Without a stored piece the chain starts at the clamp at lam = 0.
        guess = 0.0
        if last is not None:
            result = on_piece(last, beta, s)
            if result[0] is not None:
                return result
            guess = result[1]
        moved = None

        def finish(rows, lams, pivot=False):
            """The move on the piece holding lams[0], whose constants (see
            on_piece) do not depend on beta, kept as `moved` where it
            certifies. A pivot's piece certifies only with a free component,
            by the strict test, and a pivot gets back the piece's multiplier
            as well, its guess where none is free (see _pivot)."""
            nonlocal last, moved
            lam = lams[0]
            mm = np.minimum(np.maximum(s - lam, lo_b), hi_b)
            piece = piece_of(mm <= lo_b, mm >= hi_b)
            if piece is None:
                if pivot:
                    return [False], [lam]
                if abs(math.fsum(mm.tolist()) - target) > 1e-12 * max(1.0, abs(target)):
                    return [False]
                moved = mm, lam, np.zeros(mm.shape, dtype=bool), 0.0
                return [True]
            result = on_piece(piece, beta, s, pivot)
            if result[0] is not None:
                last, moved = piece, result
            return ([result[0] is not None], [result[1]]) if pivot else [result[0] is not None]

        if _pivot(finish, [guess]):
            _breakpoint_rows(s[None], lo_b[None], hi_b[None], [target], finish)
        return moved

    def probe(rows, betas):
        result = move(betas[0])
        if result is None:
            # _bracket drops a failed row, so its columns are placeholders.
            blank = np.zeros((1, x.size), dtype=bool)
            return ([math.nan], [0.0], [False], blank, blank, np.zeros((1, x.size)), [math.nan],
                    {0: _uncertified(target, x.size)})
        delta, lam, free, slope = result
        binds = equality or lam > 0.0
        return ([math.fsum((n * delta).tolist()) + g_lin], [lam], [binds], free[None],
                (delta >= hi_b)[None], delta[None],
                [slope if binds and slope is not None else math.nan], {})

    return probe


def _pivot(finish, lams):
    """A chain of active-set pivots per row whose move found no certified
    piece at a probe's beta (Cominetti, Mascarenhas & Silva, Math. Prog.
    Comp. 6, 2014): finish(rows, lams, True) solves and checks the piece of
    clip(s - lam) at each row's multiplier lam, as it does a breakpoint
    search's guess, and returns (ok, multipliers), the multiplier each
    piece computed. lams holds each row's first multiplier: the one its
    failed stored piece computed, or 0 where the stored piece has no free
    component, so that its chain starts at the clamp at lam = 0. A failed
    pivot pivots again at the multiplier its own piece computed. A chain
    ends at a piece that certifies, or at a multiplier it has already tried
    (a piece with no free component hands back its own guess); f has
    finitely many pieces, so every chain ends. Returns the positions whose
    chain fails, left to the breakpoint search.

    The pivot's KKT test is strict: every component lies inside its interval
    by the tolerance the search's test allows outside it, and a multiplier
    off the face is that far above zero. f is monotone, so no other piece
    then passes the search's test, and the pivot takes the piece the search
    would find, bit for bit. A root within the tolerance of a breakpoint,
    where two pieces pass, and a root on a piece with no free component,
    whose multiplier is the search's guess, are left to the search."""
    lams, rows, rest = list(lams), list(range(len(lams))), []
    tried = [{lam} for lam in lams]
    while rows:
        ok, got = finish(rows, [lams[j] for j in rows], True)
        again = []
        for j, good, lam in zip(rows, ok, got):
            if good:
                continue
            if lam in tried[j] or lam != lam:
                rest.append(j)
            else:
                tried[j].add(lam)
                lams[j] = lam
                again.append(j)
        rows = again
    return sorted(rest)


def _newton_steps(n, free, binds, beta, g, slopes):
    """Per probe, the root beta + g/slope of its piece, inf when the piece is
    flat. The slope is the sum of n**2 over the free components, centered
    where the budget binds; slopes holds those its piece knew and nan for
    the others, which are summed here exactly (see _masked_rows); a lone
    row's indexed sums save follower_tight 3.7% of its solve time."""
    if len(n) == 1:
        slope = slopes[0]
        if slope != slope:
            n_free = n[free]
            if binds[0] and n_free.size:
                n_free = n_free - math.fsum(n_free.tolist()) / n_free.size
            slope = math.fsum((n_free * n_free).tolist())
        return [beta[0] + g[0] / slope if slope > 0.0 else math.inf]
    if any(v != v for v in slopes):
        if any(binds):
            means = [math.fsum(v) / k if b and k else 0.0
                     for v, k, b in zip(*_counted_rows(n, free), binds)]
            if any(means):
                n = n - _col(means)
        slopes = [v if v == v else new for v, new in zip(
            slopes, map(math.fsum, _masked_rows(n * n, free)))]
    return [b + v / slope if slope > 0.0 else math.inf for b, v, slope in zip(beta, g, slopes)]


def _piece_keys(free, up, binds):
    """Per row, its piece as one key: the bytes of its free and at-upper
    masks and whether the budget binds."""
    w = free.shape[1]
    f, u = free.tobytes(), up.tobytes()
    return [(f[i:i + w], u[i:i + w], b) for i, b in zip(range(0, w * len(binds), w), binds)]


def _bracket(n, x, lo, evals, probe, errors):
    """The search for the root of each row's gap, all rows in lockstep.

    A probe is columns over rows: (g, lam, binds, free, at_upper, move,
    slope), the gap, budget multiplier and whether it binds, the (rows, n)
    masks of the free and at-upper components, the moves, and the slope of
    the piece (see _newton_steps). lo holds every row's probe at beta = 0
    and evals the evaluations spent on it. probe(rows, betas) probes the
    ascending list rows and returns the columns and a dict from each
    position whose move failed to its ProjectionError. Returns the moves of
    each row's final probe, written over lo's moves in place, and their
    betas and multipliers as lists; a row in errors on entry is skipped, and
    a failed row's error is added there.

    Per row, probes step along the piece of one end of the bracket [lo, hi]
    (see project_halfspace_then_set); a piece is a probe's free mask,
    at-upper mask and whether the budget binds, kept per end as one key
    (_piece_keys). The rule runs row by row; the probes and the Newton
    steps are batched.
    """
    g, lam, binds, free, up, move, slope = lo
    m = len(g)
    # A row whose gap at beta = 0 is not positive is its own root, and a
    # failed row keeps its move there.
    out_move, out_beta, out_lam = move, [0.0] * m, list(lam)
    rows = [r for r, gr in enumerate(g) if gr > 0.0 and r not in errors]
    if len(rows) < m:
        if not rows:
            return out_move, out_beta, out_lam
        at = np.array(rows)
        n, free, up = n[at], free[at], up[at]
        g, binds, slope, evals = ([a[r] for r in rows] for a in (g, binds, slope, evals))

    def pick(r, j, st):
        """Row r's next beta and the end it steps from (0 lo, 1 hi, None for
        a bisection), or None when its search ends; j is its position."""
        lo_beta, g, lo_step, _, hi_beta, hi_step, hi_lam, _, hi_move, spent = st
        if spent >= _MAX_EVALS:
            errors[r] = ProjectionError(
                f"no halfspace dual bracket within {_MAX_EVALS} evaluations" if hi_beta is None
                else f"halfspace dual search exceeded {_MAX_EVALS} evaluations")
            return None, None
        if hi_beta is not None and lo_beta < hi_step < hi_beta:
            return hi_step, 1
        # A step from lo always advances, so a g rounded above zero at a
        # piece's root cannot stall the search.
        beta = max(lo_step, lo_beta * (1.0 + 4.0 * EPS) + 5e-324)
        if hi_beta is None:
            if beta == math.inf:
                # No piece is steeper than <n, n>, so g/<n, n> cannot
                # overshoot; growing by 8 gets off a long flat piece quickly.
                beta = max(8.0 * lo_beta, lo_beta + g / math.fsum((n[j] * n[j]).tolist()))
            if beta > 1e300:
                errors[r] = ProjectionError(
                    "halfspace dual bracket diverged; intersection may be empty")
                return None, None
        elif not lo_beta < beta < hi_beta:
            # The fallback stop: a bracket narrower than beta's rounding, or
            # than a move of 1e-13 relative to x.
            width_tol = max(1e-13 * (1.0 + float(_max(np.abs(x[r]))))
                            / math.sqrt(math.fsum((n[j] * n[j]).tolist())),
                            4.0 * EPS * (1.0 + hi_beta))
            if hi_beta - lo_beta <= width_tol:
                out_move[r], out_beta[r], out_lam[r] = hi_move, hi_beta, hi_lam
                return None, None
            return 0.5 * (lo_beta + hi_beta), None
        return beta, 0

    def take(sel):
        """Keep the rows at the positions sel."""
        nonlocal rows, state, n
        rows, state = [rows[j] for j in sel], [state[j] for j in sel]
        n = n[sel]

    # Per row its bracket: [lo beta, lo g, lo's Newton step, lo piece, hi
    # beta, hi's Newton step, hi multiplier, hi piece, hi move, evaluations];
    # hi beta is None until a probe lands with g <= 0. Every row enters
    # with its probe at beta = 0 as lo.
    state = [[None] * 9 + [spent] for spent in evals]
    betas, to_lo, keys = [0.0] * len(rows), [True] * len(rows), _piece_keys(free, up, binds)
    while True:
        nxt, origin, go = [], [], []
        for j, (r, st, low, beta, step) in enumerate(zip(
                rows, state, to_lo, betas, _newton_steps(n, free, binds, betas, g, slope))):
            if low:
                st[:4] = beta, g[j], step, keys[j]
            else:
                st[4:9] = beta, step, lam[j], keys[j], move[j]
            beta, side = pick(r, j, st)
            if beta is not None:
                go.append(j), nxt.append(beta), origin.append(side)
        betas = nxt
        if len(go) < len(rows):
            if not go:
                break
            take(go)
        g, lam, binds, free, up, move, slope, failed = probe(rows, betas)
        keys = _piece_keys(free, up, binds)
        stay, to_lo = [], []
        for j, (r, st, gj, side) in enumerate(zip(rows, state, g, origin)):
            st[9] += 1
            if failed and j in failed:
                errors[r] = failed[j]
            elif gj > 0.0:
                stay.append(j), to_lo.append(True)
            elif gj == 0.0 or (side is not None and keys[j] == st[3 if side == 0 else 7]):
                out_move[r], out_beta[r], out_lam[r] = move[j], betas[j], lam[j]
            else:
                stay.append(j), to_lo.append(False)
        if len(stay) < len(rows):
            if not stay:
                break
            take(stay)
            g, lam, binds, betas, slope, keys = ([a[j] for j in stay] for a in (
                g, lam, binds, betas, slope, keys))
            free, move = free[stay], move[stay]
    return out_move, out_beta, out_lam


def _halfspace_dual_rows(x, ub, budget, sum_x, n, gap, face, widths=None):
    """Rows of feasible x projected onto X (onto the budget face where the
    row's face flag holds) intersected with {w : <n, w - x + gap> <= 0},
    the rows searching in lockstep (see _bracket): returns (points, betas,
    multipliers, errors), errors mapping a row whose search failed to its
    ProjectionError (its other entries are undefined). The search runs on
    the columns of the widest row, so that a lone row is its own problem.

    Each row's moves target the slack budget - sum(x), and 0 on the face,
    where the budget is an equality. A genuine slack within 64 eps of the
    budget is snapped to 0 as well: an ulp of slack opens a spurious
    off-face segment in the dual whose root sits within rounding of zero,
    freezing the caller's iteration.
    """
    m, dim = x.shape
    if widths is not None:
        top = max(widths)
        if top < dim:
            x, ub, n, gap = x[:, :top], ub[:, :top], n[:, :top], gap[:, :top]
        if min(widths) == top:
            widths = None
    g_lin = _row_fsums(n * gap)
    hi_b = ub - x
    target = [0.0 if f or (0.0 <= b - sx <= 64.0 * EPS * b) else b - sx
              for f, b, sx in zip(face, budget, sum_x)]
    peak = _max(np.abs(n), axis=1)
    # The probe is chosen by batch size (see the note above).
    probe = _move_path(x, n, hi_b, target, peak, face, g_lin) if m == 1 else \
        _move_path_rows(x, n, hi_b, target, peak, face, g_lin, widths)
    # x's bound sets: at zero, and at ub (where ub - x <= 0 exactly when
    # x >= ub). Each row's least distance to its bounds also says whether x
    # is in its box. With x in the box and within the budget (or on the
    # face) the move at beta = 0 is zero, so the piece of x's bounds holds
    # there and the first probe is already a Newton step from it; the other
    # rows probe beta = 0 first.
    upper, low = hi_b <= 0.0, np.minimum(x, hi_b)
    lowest = _min(low, 1).tolist()
    start = [r for r in range(m)
             if not (lowest[r] >= 0.0 and (face[r] or sum_x[r] <= budget[r]))]
    g, lam, binds, slope = list(g_lin), [0.0] * m, list(face), [math.nan] * m
    free, moved, evals, errors = low > 0.0, np.zeros(x.shape), [0] * m, {}
    if start:
        g_s, lam_s, binds_s, free_s, up_s, moved_s, slope_s, failed = probe(
            start, [0.0] * len(start))
        free[start], upper[start], moved[start] = free_s, up_s, moved_s
        for j, r in enumerate(start):
            g[r], lam[r], binds[r], slope[r], evals[r] = g_s[j], lam_s[j], binds_s[j], slope_s[j], 1
            if j in failed:
                errors[r] = failed[j]
    out, betas, lams = _bracket(n, x, (g, lam, binds, free, upper, moved, slope), evals, probe,
                                errors)
    points = np.minimum(np.maximum(x + out, 0.0), ub)
    if points.shape[1] < dim:
        points = np.concatenate((points, np.zeros((m, dim - points.shape[1]))), axis=1)
    return points, betas, lams, errors


def _halfspace_rows(x, normal, gap, ub, budget, widths=None, sum_x=None):
    """Rows of feasible x projected onto their sets X intersected with the
    halfspaces {w : <normal, w - x + gap> <= 0}: the row core of
    project_halfspace_then_set, budget holding one float per row and widths
    each row's size (see the note above). sum_x, x's exactly rounded row
    sums, is computed unless given. The face rows (below) and the others
    share one dual search; only a face row that leaves its face searches
    again. Raises ProjectionError for the first row whose search fails."""
    m, dim = x.shape
    if sum_x is None:
        sum_x = _row_fsums(x)
    # When x and the offset point both sit on the budget face, their sums
    # differ only by rounding jitter, yet that jitter enters the gap scaled
    # by the large all-ones component of the normal and can erase or invert
    # the cut. Centering the normal removes the all-ones component; on the
    # face the centered halfspace is the exact-arithmetic one, and the dual
    # path P_X(x - beta*n) is unchanged where the budget binds. Such rows
    # project on the face.
    face = [b - sx <= 64.0 * EPS * b and abs(sg) <= 256.0 * EPS * b
            for b, sx, sg in zip(budget, sum_x, _row_fsums(gap))]

    def rows_of(at):
        """x, ub, budget and sum_x of the rows at the ascending list `at`."""
        if len(at) == m:
            return x, ub, budget, sum_x
        return x[at], ub[at], [budget[r] for r in at], [sum_x[r] for r in at]

    out, rows, n, shift = None, list(range(m)), normal, {}
    on = [r for r, f in enumerate(face) if f]
    if on:
        nf, gf = _take(normal, on), _take(gap, on)
        # Shifting the normal by a multiple of the all-ones vector leaves the
        # halfspace unchanged on the face. Centering on the gap's support
        # (where the normal's dominant component is constant) stops the
        # ulp-level facial jitter from being amplified into the gap.
        n_sup, counts = _counted_rows(nf, gf != 0.0)
        if 0 in counts:
            # A row with no support centers on its whole normal.
            n_sup = [v if c else row for v, c, row in zip(n_sup, counts, nf.tolist())]
            counts = [c or k for c, k in zip(counts, _at(widths, on) or [dim] * len(on))]
        shifts = [math.fsum(v) / c for v, c in zip(n_sup, counts)]
        n_face = nf - _col(shifts)
        if widths is not None:
            # The shift moves pads off zero; they go back before the normal's
            # peak is taken.
            n_face[_pads(_at(widths, on), dim)] = 0.0
        # A normal that is (numerically) a pure budget direction cannot cut
        # the face: max|n_face| <= 8 eps max(1, max|nf|), tested first against
        # the bound max|nf| <= 2 (max|n_face| + |shift|).
        peak = _max(np.abs(n_face), axis=1).tolist()
        flat = [p <= 16.0 * EPS * max(0.5, p + abs(sh)) for p, sh in zip(peak, shifts)]
        if any(flat):
            flat = list(map(operator.le, peak, [8.0 * EPS * max(1.0, a)
                                                for a in _max(np.abs(nf), axis=1).tolist()]))
        if len(on) == m:
            n = n_face
        else:
            n = normal.copy()
            n[on] = n_face
        shift = dict(zip(on, shifts))
        if any(flat):
            at = [r for r, v in zip(on, flat) if v]
            out = np.empty_like(x)
            out[at] = _box_budget_rows(x[at], ub[at], [budget[r] for r in at], _at(widths, at))[0]
            drop = set(at)
            rows = [r for r in rows if r not in drop]
            if not rows:
                return out
    fs = face if len(rows) == m else [face[r] for r in rows]
    points, betas, lams, errors = _halfspace_dual_rows(
        *rows_of(rows), _take(n, rows), _take(gap, rows), fs, _at(widths, rows))
    failed = {rows[i]: error for i, error in errors.items() if not fs[i]} if errors else {}
    # A failed face search (no point of the face meets the cut), or a
    # negative budget multiplier lam - beta*shift of the original
    # halfspace, sends a face row off the face, to search again there.
    back = [i for i, (r, f, beta, lam) in enumerate(zip(rows, fs, betas, lams))
            if f and (i in errors or not lam - beta * shift[r] >= -64.0 * EPS * (
                abs(lam) + beta * abs(shift[r])))] if on else []
    if back:
        again = [rows[i] for i in back]
        moved, _, _, errors = _halfspace_dual_rows(
            *rows_of(again), _take(normal, again), _take(gap, again), [False] * len(again),
            _at(widths, again))
        points[back] = moved
        failed.update((again[i], error) for i, error in errors.items())
    if failed:
        raise failed[min(failed)]
    if len(rows) == m:
        return points
    out[rows] = points
    return out
