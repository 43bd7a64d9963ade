import collections
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gridtrade import projection
from gridtrade.model import FeasibleSet
from gridtrade.oracle import halfspace_projection_oracle
from gridtrade.projection import (
    ProjectionError,
    _move_path,
    project_box_budget,
    project_halfspace_then_set,
)
from tests.conftest import in_feasible_set, time_limit


def grid_search_projection(v, fset, steps=200, halfspace=None):
    """Brute-force minimizer of ||w - v|| over a fine feasible lattice.

    Independent of the production path: enumerates the box lattice and
    filters by the budget and, when halfspace=(normal, offset) is given, by
    <normal, w - offset> <= 1e-9. Returns None when no lattice point is
    feasible. Only sensible for 2 <= N <= 3. The last two axes are
    evaluated as one numpy slab per point of the leading axes, which are
    walked in itertools.product order; sums are formed in the same order as
    over a single lattice point, and argmin keeps the first minimum, so ties
    resolve to the same point as a point-by-point walk.
    """
    axes = [np.linspace(0.0, ub, steps + 1) for ub in fset.upper_bounds]
    v = np.asarray(v, dtype=float)
    slab = np.ix_(axes[-2], axes[-1])
    best, best_d = None, np.inf
    for head in itertools.product(*axes[:-2]):
        total = sum(head, 0.0) + slab[0] + slab[1]
        d = (sum((h - c) ** 2 for h, c in zip(head, v)) + (slab[0] - v[-2]) ** 2
             + (slab[1] - v[-1]) ** 2)
        infeasible = total > fset.budget
        if halfspace is not None:
            normal, offset = halfspace
            cut = (sum(a * (h - o) for a, h, o in zip(normal, head, offset))
                   + normal[-2] * (slab[0] - offset[-2]) + normal[-1] * (slab[1] - offset[-1]))
            infeasible |= cut > 1e-9
        d[infeasible] = np.inf
        k = np.unravel_index(np.argmin(d), d.shape)
        if d[k] < best_d:
            best, best_d = np.array(head + (axes[-2][k[0]], axes[-1][k[1]])), d[k]
    return best


class TestProjectBoxBudget:
    def test_interior_point_unchanged(self):
        fs = FeasibleSet(np.array([3.0, 5.0]), 4.0)
        res = project_box_budget(np.array([0.5, 1.0]), fs)
        assert np.array_equal(res.point, [0.5, 1.0])
        assert res.multiplier == 0.0
        assert not res.active_budget

    def test_budget_binding_two_users(self):
        # KKT by hand: clamp(4-3)=1, clamp(6-3)=3, multiplier 3
        fs = FeasibleSet(np.array([3.0, 5.0]), 4.0)
        res = project_box_budget(np.array([4.0, 6.0]), fs)
        assert res.point == pytest.approx([1.0, 3.0], abs=1e-10)
        assert res.multiplier == pytest.approx(3.0, abs=1e-9)
        assert res.active_budget

    def test_budget_binds_before_box(self):
        fs = FeasibleSet(np.array([10.0]), 2.0)
        res = project_box_budget(np.array([7.0]), fs)
        assert res.point == pytest.approx([2.0], abs=1e-10)
        assert res.multiplier == pytest.approx(5.0, abs=1e-9)

    def test_box_only_clamp(self):
        fs = FeasibleSet(np.array([3.0, 5.0]), 100.0)
        res = project_box_budget(np.array([-1.0, 9.0]), fs)
        assert np.array_equal(res.point, [0.0, 5.0])
        assert res.multiplier == 0.0

    def test_matches_grid_search(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            n = int(rng.integers(2, 4))
            ub = rng.uniform(1.0, 6.0, n)
            fs = FeasibleSet(ub, float(rng.uniform(0.3, 1.2) * ub.sum()))
            v = rng.uniform(-2.0, 8.0, n)
            res = project_box_budget(v, fs)
            ref = grid_search_projection(v, fs, steps=120)
            step = float(max(ub)) / 120
            assert np.abs(res.point - ref).max() <= 2.0 * step

    def test_complementarity_and_feasibility(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            n = int(rng.integers(1, 12))
            ub = rng.uniform(0.5, 250.0, n)
            fs = FeasibleSet(ub, float(rng.uniform(0.1, 1.5) * ub.sum()))
            v = rng.uniform(-100.0, 400.0, n)
            res = project_box_budget(v, fs)
            assert in_feasible_set(fs, res.point, tol=1e-10)
            assert res.multiplier >= 0.0
            if res.multiplier > 0.0:
                assert res.active_budget
                assert abs(res.point.sum() - fs.budget) <= 1e-9

    def test_idempotence_nonexpansiveness_variational(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            n = int(rng.integers(1, 10))
            ub = rng.uniform(0.5, 250.0, n)
            fs = FeasibleSet(ub, float(rng.uniform(0.1, 1.5) * ub.sum()))
            u = rng.uniform(-100.0, 400.0, n)
            v = rng.uniform(-100.0, 400.0, n)
            pu = project_box_budget(u, fs).point
            pv = project_box_budget(v, fs).point
            assert np.abs(project_box_budget(pu, fs).point - pu).max() <= 1e-10
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12
            # defining inequality of the Euclidean projection
            scale = 1e-9 * (1.0 + np.linalg.norm(u))
            for _ in range(100):
                w = rng.uniform(0.0, ub)
                if w.sum() > fs.budget:
                    w *= fs.budget / w.sum()
                assert float((u - pu) @ (w - pu)) <= scale

    def test_rejects_bad_inputs(self):
        fs = FeasibleSet(np.array([3.0]), 4.0)
        with pytest.raises(ValueError):
            project_box_budget(np.array([np.nan]), fs)
        with pytest.raises(ValueError):
            project_box_budget(np.array([1.0, 2.0]), fs)

    @pytest.mark.xfail(strict=True, reason="the piece's acceptance test allows a sum error "
                       "of 16*eps*n*max|v|, far above a budget of 380 when |v| is near 1e200, "
                       "so the zero vector is certified")
    def test_huge_inputs_meet_the_budget_or_raise(self):
        # The fig2 game at surplus range [1e200, 1e201], n = 2, deficiency
        # 380: the anchor of its first stage, surpluses plus the uniform price.
        surpluses = np.array([float.fromhex("0x1.a50adab2e8276p+666"),
                              float.fromhex("0x1.97d946aa9c5f2p+666")])
        fs = FeasibleSet(surpluses, 380.0)
        try:
            res = project_box_budget(surpluses + 87.5, fs)
        except ProjectionError:
            return
        assert abs(math.fsum(res.point) - 380.0) <= 1e-9 * 380.0


class TestProjectHalfspaceThenSet:
    def test_point_in_both_sets_unchanged(self):
        fs = FeasibleSet(np.array([3.0, 5.0]), 4.0)
        x = np.array([0.5, 1.0])
        w = project_halfspace_then_set(x, np.array([1.0, 0.0]), np.array([2.0, 0.0]), fs)
        assert np.array_equal(w, x)

    def test_inactive_halfspace_reduces_to_set_projection(self):
        fs = FeasibleSet(np.array([3.0, 5.0]), 4.0)
        v = np.array([4.0, 6.0])
        w = project_halfspace_then_set(v, np.array([1.0, 0.0]), np.array([3.5, 0.0]), fs)
        assert w == pytest.approx(project_box_budget(v, fs).point, abs=1e-9)

    def test_one_dimensional_halfspace_binds(self):
        fs = FeasibleSet(np.array([10.0]), 10.0)
        w = project_halfspace_then_set(np.array([4.0]), np.array([1.0]), np.array([2.0]), fs)
        assert w == pytest.approx([2.0], abs=1e-10)

    def test_matches_dense_search(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            ub = rng.uniform(1.0, 5.0, 2)
            fs = FeasibleSet(ub, float(rng.uniform(0.4, 1.1) * ub.sum()))
            x = project_box_budget(rng.uniform(0, ub), fs).point
            normal = rng.normal(size=2)
            offset = rng.uniform(0, ub)
            w = project_halfspace_then_set(x, normal, offset, fs)
            best = grid_search_projection(x, fs, steps=240, halfspace=(normal, offset))
            if best is None:
                continue
            step = float(max(ub)) / 240
            assert np.abs(w - best).max() <= 2.0 * step

    def test_zero_normal_rejected(self):
        fs = FeasibleSet(np.array([3.0]), 4.0)
        with pytest.raises(ValueError):
            project_halfspace_then_set(np.array([1.0]), np.array([0.0]), np.array([0.0]), fs)

    @staticmethod
    def call_with(field, value):
        """Project a fixed 3-D instance with one argument replaced by value."""
        fs = FeasibleSet(np.array([3.0, 5.0, 2.0]), 6.0)
        args = {"x": np.array([1.0, 2.0, 0.5]), "normal": np.array([1.0, -2.0, 0.5]),
                "offset": np.array([0.5, 1.0, 0.2]), "offset_gap": None}
        args[field] = value
        with time_limit(10):
            project_halfspace_then_set(args["x"], args["normal"], args["offset"], fs,
                                       offset_gap=args["offset_gap"])

    @pytest.mark.parametrize("field,value", [
        ("x", [1.0, np.nan, 0.5]), ("normal", [1.0, np.nan, 0.5]),
        ("offset", [0.5, np.nan, 0.2]), ("normal", [1.0, np.inf, 0.5]),
        ("x", [1.0, np.inf, 0.5]), ("offset", [0.5, -np.inf, 0.2]),
        ("offset_gap", [0.1, np.nan, 0.0]),
    ])
    def test_non_finite_input_rejected(self, field, value):
        with pytest.raises(ValueError, match="non-finite"):
            self.call_with(field, np.array(value))

    @pytest.mark.parametrize("field", ["x", "normal", "offset", "offset_gap"])
    def test_shape_mismatch_rejected(self, field):
        with pytest.raises(ValueError, match="does not match"):
            self.call_with(field, np.array([1.0, 2.0]))

    def test_empty_intersection_reported(self):
        fs = FeasibleSet(np.array([3.0, 5.0]), 4.0)
        # halfspace w1 + w2 >= 20 misses the set entirely
        with pytest.raises(ProjectionError):
            project_halfspace_then_set(
                np.array([1.0, 1.0]), np.array([-1.0, -1.0]), np.array([10.0, 10.0]), fs
            )


EPS = np.finfo(float).eps
# Lattice values make breakpoints coincide across components; the floats
# cover generic positions between them.
LATTICE = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


def magnitudes(draw, n):
    """Per-component scales from 1e-6 to 1e6; two of them per instance, so
    some instances mix magnitudes that a cumulative sum cannot resolve."""
    pair = 10.0 ** np.array(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
    return pair[np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))]


def unit_values(n, low, high):
    value = st.one_of(st.sampled_from([u for u in LATTICE if low <= u <= high]),
                      st.floats(low, high, allow_nan=False, allow_infinity=False))
    return st.lists(value, min_size=n, max_size=n).map(np.array)


@st.composite
def box_instances(draw, n=None):
    """(v, fset) with n from 1 (or the n given), scales from 1e-6 to 1e6 and
    shared breakpoints."""
    n = draw(st.integers(1, 8)) if n is None else n
    scale = magnitudes(draw, n)
    ub = scale * draw(unit_values(n, 0.25, 2.0))
    v = scale * (draw(unit_values(n, 0.0, 2.0)) * 2.0 - 1.0)
    budget = draw(st.floats(0.05, 1.2)) * float(ub.sum())
    return v, FeasibleSet(ub, budget)


@st.composite
def move_instances(draw, equality):
    """(x, normal, beta, fset) with x feasible; components at 0 or at ub
    give moves that are zero-width on one side. With equality=True x is on
    the budget face."""
    n = draw(st.integers(1, 8))
    scale = magnitudes(draw, n)
    ub = scale * draw(unit_values(n, 0.25, 2.0))
    x = ub * draw(unit_values(n, 0.0, 1.0))
    normal = scale * (draw(unit_values(n, 0.0, 2.0)) - 1.0)
    # Tiny steps are the solver's near-convergence regime: the move is many
    # orders of magnitude below x, so it must be exact at its own scale.
    beta = draw(st.one_of(st.sampled_from(LATTICE), st.floats(0.0, 3.0),
                          st.sampled_from([1e-9, 1e-13, 1e-16, 1e-20])))
    slack = 0.0 if equality else float(scale.max()) * draw(
        st.one_of(st.sampled_from(LATTICE), st.floats(0.0, 2.0)))
    budget = math.fsum(x) + slack
    assume(budget > 0.0)
    return x, normal, beta, FeasibleSet(ub, budget)


def budget_tolerance(v, budget):
    """The box projection's certified budget accuracy for input v."""
    return 1e-12 * max(1.0, budget) + 16.0 * EPS * v.size * max(1.0, float(np.abs(v).max()))


class TestBreakpointKernel:
    @settings(max_examples=400, deadline=None)
    @given(box_instances())
    def test_box_budget_certified(self, instance):
        v, fs = instance
        ub, budget = fs.upper_bounds, fs.budget
        try:
            res = project_box_budget(v, fs)
        except ProjectionError:
            return
        assert res.multiplier >= 0.0
        assert np.array_equal(res.point, np.clip(v - res.multiplier, 0.0, ub))
        if res.active_budget:
            assert abs(math.fsum(res.point) - budget) <= budget_tolerance(v, budget)
            assert res.iterations in (1, 2)
        else:
            assert res.point.sum() <= budget
            assert res.iterations == 0

    @pytest.mark.parametrize("equality", [False, True])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_shifted_move_matches_box_projection(self, equality, data):
        x, normal, beta, fs = data.draw(move_instances(equality))
        ub, budget = fs.upper_bounds, fs.budget
        move, lam, failed = probe_once(x, normal, ub, budget, equality, beta)
        if failed:
            return
        assert np.all(move >= -x) and np.all(move <= ub - x)
        if not equality:
            assert lam >= 0.0
        # KKT at the returned multiplier, at the scale of the move itself:
        # the move is the clamped shift and meets the budget target.
        move_scale = float(np.abs(beta * normal).max()) + abs(lam) + float(np.abs(move).max())
        kkt_tol = 128.0 * EPS * move_scale + 1e-300
        assert np.abs(move - np.clip(-beta * normal - lam, -x, ub - x)).max() <= kkt_tol
        face_tol = 64.0 * EPS * max(1.0, budget)
        # The target snaps a slack of at most 64 eps of the budget itself,
        # so below unit budgets a slack under face_tol can still be a target.
        target = move_target(x, budget, equality)
        if equality or lam > 0.0:
            assert abs(math.fsum(move) - target) <= x.size * kkt_tol
        v = x - beta * normal
        # On the face the budget is an equality and its multiplier may be
        # negative; shifting v by a constant c makes it positive while the
        # projection onto {sum(w) = budget} stays clip(v + c - lam', 0, ub).
        shift = max(0.0, float(np.max(ub - v))) if equality else 0.0
        ref = project_box_budget(v + shift, fs).point - x
        scale = max(float(ub.max()), float(np.abs(v).max()), shift)
        atol = (4.0 * budget_tolerance(v + shift, budget) + face_tol
                + 64.0 * EPS * x.size * scale)
        assert np.abs(move - ref).max() <= atol


def move_target(x, budget, equality):
    """The budget target of x's moves, as _halfspace_dual_rows sets it: the
    slack, snapped to 0 within 64 eps of the budget, or 0 on the face."""
    slack = budget - math.fsum(x)
    return 0.0 if equality or 0.0 <= slack <= 64.0 * EPS * budget else slack


def probe_once(x, normal, ub, budget, equality, beta):
    """The lone row's halfspace-dual move of x along -normal at beta:
    (move, multiplier, failures), failures mapping 0 to the error of a move
    that no piece certifies."""
    probe = _move_path(x[None], normal[None], (ub - x)[None], [move_target(x, budget, equality)],
                       np.abs(normal).max(keepdims=True), [equality], [0.0])
    _, lam, _, _, _, move, _, failed = probe([0], [beta])
    return move[0], lam[0], failed


def no_piece_certifies(s, lo, hi, target, finish, slope=None):
    """A breakpoint search in which no row's piece certifies."""
    return [None] * len(target)


def decline(finish, lams):
    """A pivot that certifies no row: every move that finds no certified
    piece goes to the breakpoint search."""
    return list(range(len(lams)))


def declined_pivots(monkeypatch):
    """Make every chain of pivots decline, so the breakpoint search does
    every search of a move; returns a list that grows by the rows offered
    to each chain."""
    offered = []

    def declined(finish, lams):
        offered.append(len(lams))
        return decline(finish, lams)

    monkeypatch.setattr(projection, "_pivot", declined)
    return offered


class TestUncertifiedSearch:
    """A search that no breakpoint piece certifies ends in ProjectionError
    naming its target and component count. A move that finds no certified
    piece runs a chain of pivots first, whether its stored piece fails or
    it has none yet, so the moves below decline their pivots as well."""

    def test_box_projection_raises(self, monkeypatch):
        monkeypatch.setattr(projection, "_breakpoint_rows", no_piece_certifies)
        fs = FeasibleSet(np.array([3.0, 5.0]), 4.0)
        with pytest.raises(ProjectionError, match=re.escape("(target 4.000e+00, 2 components)")):
            project_box_budget(np.array([4.0, 6.0]), fs)

    def test_move_raises(self, monkeypatch):
        monkeypatch.setattr(projection, "_breakpoint_rows", no_piece_certifies)
        offered = declined_pivots(monkeypatch)
        # The move has no stored piece, so its chain starts at the clamp at
        # lam = 0, and then it searches for its piece.
        x, normal = np.array([1.0, 2.0, 0.0]), np.array([-1.0, -2.0, -3.0])
        ub = np.full(3, 4.0)
        _, _, failed = probe_once(x, normal, ub, 3.5, False, 1.0)
        assert offered == [1]
        with pytest.raises(ProjectionError, match=re.escape("(target 5.000e-01, 3 components)")):
            raise failed[0]
        # The same at x = 0, where the clamp at lam = 0 has no free
        # component.
        _, _, failed = probe_once(np.zeros(3), normal, ub, 3.5, False, 1.0)
        assert offered == [1, 1]
        with pytest.raises(ProjectionError, match=re.escape("(target 3.500e+00, 3 components)")):
            raise failed[0]

    def test_failed_probe_inside_the_search_raises(self, monkeypatch):
        # The first Newton probe's move has no stored piece, so it runs a
        # chain of pivots and searches for a piece, and the bracket search
        # hands the failure on: on the face, whose failed search sends the
        # row off it, and there.
        monkeypatch.setattr(projection, "_breakpoint_rows", no_piece_certifies)
        offered = declined_pivots(monkeypatch)
        x, normal, offset, gap, fs = LEAVES_X_BOUNDS
        with pytest.raises(ProjectionError, match=re.escape(
                "no breakpoint piece certifies the multiplier (target 0.000e+00, 3 components)")):
            project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)
        assert offered == [1, 1]

    def test_failed_probe_at_beta_zero_raises(self, monkeypatch):
        # x lies 1 above its budget, so the dual first probes beta = 0; that
        # move has no stored piece, and runs a chain and searches for a
        # piece too.
        monkeypatch.setattr(projection, "_breakpoint_rows", no_piece_certifies)
        offered = declined_pivots(monkeypatch)
        x, normal, gap = np.array([0.1, 3.9]), np.array([1.0, 2.0]), np.array([0.5, 0.25])
        fs = FeasibleSet(np.full(2, 4.0), 3.0)
        with pytest.raises(ProjectionError, match=re.escape(
                "no breakpoint piece certifies the multiplier (target -1.000e+00, 2 components)")):
            project_halfspace_then_set(x, normal, x - gap, fs, offset_gap=gap)
        assert offered == [1]


@st.composite
def halfspace_instances(draw, n=None, face=None):
    """(x, normal, offset, gap, fset) with x feasible, n from 1 to 60 (or the
    n given) and per-component scales from 1e-6 to 1e6, components of x at 0
    and at ub, on the budget face or off it (drawn unless face says which).

    On the budget face the gap is a set of exact transfers between disjoint
    pairs of components, so it sums to exactly zero and the projection runs
    in face mode. Half of these normals have no positive entry, like the
    solver's normals F(z) = z - E - p (z <= E and p > 0), and the projection
    stays on the face; the other half have either sign, so the projection
    may leave the face (see test_face_mode_projection_leaving_the_face).
    Off the face the offset is any point of X at most half as full as the
    budget, and the normal has either sign.
    """
    n = draw(st.integers(1, 60)) if n is None else n
    scale = magnitudes(draw, n)
    ub = scale * draw(unit_values(n, 0.25, 2.0))
    x = ub * draw(unit_values(n, 0.0, 1.0))
    normal = scale * (draw(unit_values(n, 0.0, 2.0)) - 1.0)
    if draw(st.booleans()) if face is None else face:
        pairs = np.arange(n - n % 2).reshape(-1, 2)
        room = np.minimum(x[pairs[:, 0]], (ub - x)[pairs[:, 1]])
        moved = room * draw(unit_values(len(pairs), 0.0, 1.0))
        gap = np.zeros(n)
        gap[pairs[:, 0]], gap[pairs[:, 1]] = moved, -moved
        if draw(st.booleans()):
            normal = -np.abs(normal)
        budget, offset = math.fsum(x), x - gap
    else:
        budget = math.fsum(x) + float(scale.max()) * draw(
            st.one_of(st.sampled_from(LATTICE), st.floats(0.0, 2.0)))
        offset = ub * draw(unit_values(n, 0.0, 1.0))
        offset *= min(1.0, 0.5 * budget / max(math.fsum(offset), 1e-300))
        gap = x - offset
    assume(budget > 0.0 and normal.any())
    return x, normal, offset, gap, FeasibleSet(ub, budget)


@st.composite
def outside_instances(draw, n):
    """halfspace_instances(n) with x moved out of its set: just over its
    budget, so the gap no longer sums to zero and the projection runs off
    the face, or one component outside its box."""
    x, normal, offset, _, fs = draw(halfspace_instances(n))
    ub, budget = fs.upper_bounds, fs.budget
    if draw(st.booleans()):
        x = x + (budget - math.fsum(x) + 1e-6 * budget) / n
        assume(math.fsum(x) > budget)
    else:
        j = draw(st.integers(0, n - 1))
        x = x.copy()
        x[j] = ub[j] * draw(st.sampled_from([-0.25, 1.25]))
    return x, normal, offset, x - offset, fs


def face_instance(normal):
    """A solver-like halfspace instance: x on the budget face with one
    seller at 0, the gap an exact transfer, and a normal with no positive
    entry."""
    x, gap = np.array([1.0, 2.0, 0.0]), np.array([0.25, -0.25, 0.0])
    return x, np.array(normal), x - gap, gap, FeasibleSet(np.full(3, 4.0), 3.0)


# At the first probe the idle seller stays at 0, so the piece of x's own
# bounds, which the first Newton step is taken on, holds there; the root
# lies on it.
ROOT_ON_X_BOUNDS = face_instance([-1.0, -2.0, -0.5])
# Here the idle seller leaves 0 at the first probe, onto another piece.
LEAVES_X_BOUNDS = face_instance([-1.0, -2.0, -3.0])


def hex_array(values):
    return np.array([float.fromhex(v) for v in values.split()])


# The 11th halfspace projection of the fig2 preset's game (n=10, run=3) at
# seed 41. The piece of its dual at beta = 0 is nearly flat, and a
# regula falsi search of the dual took 50 gap evaluations on it.
CRAWL = (
    hex_array("""0x1.255604490cd0dp+5 0x1.58aca7a28edfap+5 0x1.55f56f2caea1dp+5
                 0x1.5f6506596f329p+5 0x1.83e0c7ea24dadp+5 0x1.669d295cb204bp+5 0x0.0p+0
                 0x1.532127586d5a1p+5 0x1.21af1a4c6d73ep+5 0x1.4d54aba294cd9p+5"""),
    hex_array("""-0x1.3638c9927b97ep+7 -0x1.392c8415d3082p+7 -0x1.39048a1326ec3p+7
                 -0x1.398f70d4fc734p+7 -0x1.3ba87eee79648p+7 -0x1.39f9b65f6c6c9p+7
                 -0x1.e8449dc5abd27p+6 -0x1.38dae4491409ep+7 -0x1.3603072604bc8p+7
                 -0x1.388587ea3ac75p+7"""),
    hex_array("""0x1.8c7962693eaf0p+3 0x1.76d05af1c7152p+5 0x1.683ae9b0ce885p+5
                 0x1.9ae70268f3321p+5 0x1.2f6979c5603b9p+6 0x1.c1abca8574097p+5 0x0.0p+0
                 0x1.590969def20f6p+5 0x1.3e06d9a99cc66p+3 0x1.39e5820099c33p+5"""),
    hex_array("""0x1.846f575d7a4a2p+4 -0x1.e23b34f38357bp+1 -0x1.2457a841fe67dp+1
                 -0x1.dc0fe07c1ffbdp+2 -0x1.b5e457413738bp+4 -0x1.6c3a84a308131p+3 0x0.0p+0
                 -0x1.7a10a1a12d543p-1 0x1.a45ac7c40c849p+4 0x1.36f29a1fb0a59p+1"""),
    FeasibleSet(hex_array("""0x1.1233f2a55238cp+6 0x1.85fa346bde671p+7 0x1.822cde18f427ep+7
                             0x1.8f62cb08d2d96p+7 0x1.c276d56ac31bep+7 0x1.997e429a63089p+7
                             0x1.c677d0f8df05ap+6 0x1.7e36d85a6a275p+7 0x1.38fd0e5a38228p+7
                             0x1.76188203fad1cp+7"""), float.fromhex("0x1.7c00000000000p+8")),
)


def count_evaluations(monkeypatch):
    """A list that grows by one per gap evaluation of a lone halfspace dual."""
    calls = []
    make = projection._move_path

    def counted_path(*args):
        probe = make(*args)

        def counted(rows, betas):
            calls.extend(betas)
            return probe(rows, betas)
        return counted

    monkeypatch.setattr(projection, "_move_path", counted_path)
    return calls


def cut_slack(w, ref, x, normal, gap, ub):
    """How far w and ref may lie apart because each solve rounds the cut.

    Both evaluate the gap <n, w - x + gap> from products at the scale of
    n_i*(ub_i + |gap_i|), so each knows it only to about eps times their sum.
    A gap error d moves a projection by d/||n_F|| along n_F, the normal on
    the components F free in either result; where n_F is far smaller than
    n that exceeds a bound relative to the inputs' scale. 0 when no
    component is free or n vanishes on F."""
    rounding = EPS * math.fsum((np.abs(normal) * (ub + np.abs(gap))).tolist())
    free = ((w > 0.0) & (w < ub)) | ((ref > 0.0) & (ref < ub))
    norm = math.sqrt(math.fsum((normal[free] ** 2).tolist()))
    return 2.0 * rounding / norm if norm > 0.0 else 0.0


def assert_matches_oracle(instance):
    x, normal, offset, gap, fs = instance
    w = project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)
    ref = halfspace_projection_oracle(x, normal, offset, fs, offset_gap=gap)
    scale = max(float(np.abs(x).max()), float(fs.upper_bounds.max()),
                float(np.abs(offset).max()))
    bound = 1e-9 * scale + cut_slack(w, ref, x, normal, gap, fs.upper_bounds)
    assert np.abs(w - ref).max() <= bound


def _mixed_scale():
    x = np.array([0.0] * 4 + [6.25e-5, 6.25e-5, 2.5e4] + [0.0] * 4)
    normal = np.array([-1e-3] * 5 + [-7.5e-4, -7.5e4, -1e5] + [-1e-3] * 3)
    offset = np.array([0.0] * 4 + [6.25e-5, 6.25e-5, 1.875e4, 6.25e3] + [0.0] * 3)
    ub = np.array([2.5e-4] * 6 + [2.5e4] * 2 + [2.5e-4] * 3)
    return x, normal, offset, x - offset, FeasibleSet(ub, 25000.000125)


# Bounds and normal components 1e8 apart (see test_mixed_scale_bounds_and_normal).
MIXED_SCALE = _mixed_scale()


class TestHalfspaceOracle:
    @settings(max_examples=300, deadline=None)
    @given(halfspace_instances())
    @example(instance=ROOT_ON_X_BOUNDS)
    @example(instance=LEAVES_X_BOUNDS)
    # a budget far below 1 with x off its face: tolerances must scale with
    # the budget, or the whole slack is snapped away and the bracket diverges
    @example(instance=(np.zeros(3), np.array([-1.0, -1.0, 0.0]), np.array([0.0, 1e-20, 5e-21]),
                       np.array([0.0, -1e-20, -5e-21]), FeasibleSet(np.full(3, 0.25), 3e-20)))
    # an ill-conditioned cut: only {0} meets it, and w1 enters the gap with
    # weight 5e-3 against rounding of eps*1.25e9, so both solves pin w1 only
    # to about 5e-5, twice the bound relative to the inputs' scale
    @example(instance=(np.array([1.25e-3, 1.25e4]), np.array([5e-3, 1e5]), np.zeros(2),
                       np.array([1.25e-3, 1.25e4]),
                       FeasibleSet(np.array([2.5e-3, 2.5e4]), 12500.00125)))
    def test_matches_bisection_oracle(self, instance):
        assert_matches_oracle(instance)

    def test_flat_first_piece_takes_few_evaluations(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        assert_matches_oracle(CRAWL)
        assert 1 <= len(calls) <= 8

    def test_root_on_the_bound_set_piece_takes_one_evaluation(self, monkeypatch):
        # In the box on the face, the piece of x's own bounds holds at
        # beta = 0, so the first probe is a Newton step on it and lands on
        # the root.
        calls = count_evaluations(monkeypatch)
        assert_matches_oracle(ROOT_ON_X_BOUNDS)
        assert len(calls) == 1

    @pytest.mark.parametrize("instance", [ROOT_ON_X_BOUNDS, LEAVES_X_BOUNDS])
    def test_first_move_chains_without_a_sort(self, instance, monkeypatch):
        # A search is a chain of pivots or a breakpoint search. Each
        # instance's one move has no stored piece, so it runs a chain, which
        # certifies; it would sort only if the chain failed.
        calls = []
        pivot, search = projection._pivot, projection._breakpoint_rows

        def counted(what, call):
            def wrapped(*args, **kwargs):
                calls.append(what)
                return call(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(projection, "_pivot", counted("pivot", pivot))
        monkeypatch.setattr(projection, "_breakpoint_rows", counted("sort", search))
        x, normal, offset, gap, fs = instance
        project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)
        assert calls == ["pivot"]

    def test_face_mode_projection_leaving_the_face(self):
        # x and the offset point sit on the face, so the search runs in face
        # mode; the original halfspace's budget multiplier at its result is
        # negative, and the projection is redone off the face.
        fs = FeasibleSet(np.array([10.0, 10.0]), 10.0)
        x, normal, offset = np.array([5.0, 5.0]), np.array([1.5, 1.0]), np.array([4.0, 6.0])
        ref = halfspace_projection_oracle(x, normal, offset, fs)
        assert ref == pytest.approx([62.0 / 13.0, 63.0 / 13.0], abs=1e-12)
        w = project_halfspace_then_set(x, normal, offset, fs)
        assert np.abs(w - ref).max() <= 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: a normal within 6e-12 of a pure budget direction makes the cut nearly "
        "parallel to the budget face; the projection lands 5.1e-7 from x, the oracle 5.3e-9"))
    def test_nearly_flat_normal_near_the_face(self):
        # x is feasible, 1.07e-8 below its budget, so the search runs off the
        # face; the oracle's point meets the cut and the budget and lies 95
        # times closer to x than the projection's.
        x = hex_array("""0x1.ffffed967699dp-5 0x1.07a944e76f52ep-28 0x1.56a38379e51cep-27
                         0x1.51033054c46d0p-27""")
        normal = hex_array("-0x1.fffffffff2dfcp-1 -0x1.0p+0 -0x1.0p+0 -0x1.0p+0")
        offset = np.array([0.0625, 0.0, 0.0, 0.0])
        assert_matches_oracle((x, normal, offset, x - offset,
                               FeasibleSet(np.full(4, 0.25), 0.0625)))

    @pytest.mark.xfail(strict=True, raises=ProjectionError, reason=(
        "known defect: with bounds and normal components 1e8 apart, no piece of the plain "
        "dual's move certifies, so the projection raises where the oracle solves it"))
    def test_mixed_scale_bounds_and_normal(self):
        # Hypothesis drew this instance once in test_matches_bisection_oracle.
        # x and the offset point sit on the budget face, and the projection
        # leaves the face for the plain dual, whose move search fails; the
        # oracle's point is (0,..., 18750.0005, 6249.999625, 0, 0, 0).
        assert_matches_oracle(MIXED_SCALE)

    def test_face_mode_with_no_point_of_the_face_in_the_halfspace(self):
        # The offset point is on the face's plane but outside the box, and
        # {w : w1 + 2*w2 <= 8} misses the face; the set still meets it.
        fs = FeasibleSet(np.array([10.0, 10.0]), 10.0)
        x, normal, offset = np.array([5.0, 5.0]), np.array([1.0, 2.0]), np.array([12.0, -2.0])
        w = project_halfspace_then_set(x, normal, offset, fs)
        assert w == pytest.approx([3.6, 2.2], abs=1e-12)
        assert np.abs(w - halfspace_projection_oracle(x, normal, offset, fs)).max() <= 1e-9


# A lone row whose dual search takes three probes: a Newton step from x's
# bound set lands with g > 0, the next with g < 0 on another piece, and a
# step back from that one ends the search.
THREE_PROBES = (
    hex_array("0x1.2c46efdb89dbfp+2 0x1.74fa7335efd58p-2 0x1.abf976646655ep+1"),
    hex_array("-0x1.866405ab3d289p-12 -0x1.08f0ff11e7c3ep-10 0x1.7830afdf63b7ep-11"),
    hex_array("-0x1.b9cf3f9f7c760p+0 -0x1.a6be0264041d6p+0 0x1.19b455d339070p+0"),
    FeasibleSet(hex_array("0x1.214c7c0a4d35fp+3 0x1.794803906a1f9p+0 0x1.15aee8e15ae79p+2"),
                float.fromhex("0x1.1a99aa59b7c59p+3")),
)


class TestLoneSearchExits:
    """The lone row's exits from the halfspace dual's search, and its own
    Newton step."""

    def project(self, x, normal, gap, fs):
        return project_halfspace_then_set(x, normal, x - gap, fs, offset_gap=gap)

    def test_three_probes_without_a_cap(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        w = self.project(*THREE_PROBES)
        assert len(calls) == 3
        assert [v.hex() for v in w] == [
            "0x1.747706b670e9bp+2", "0x1.794803906a1f9p+0", "0x1.2b73f10ce5798p+0"]

    def test_evaluation_cap_before_a_bracket(self, monkeypatch):
        # The first probe lands with g > 0, and the cap stops the search
        # before any probe has closed a bracket.
        monkeypatch.setattr(projection, "_MAX_EVALS", 1)
        x, normal, offset, gap, fs = LEAVES_X_BOUNDS
        with pytest.raises(ProjectionError,
                           match="^no halfspace dual bracket within 1 evaluations$"):
            project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)

    def test_evaluation_cap_inside_a_bracket(self, monkeypatch):
        monkeypatch.setattr(projection, "_MAX_EVALS", 2)
        with pytest.raises(ProjectionError,
                           match="^halfspace dual search exceeded 2 evaluations$"):
            self.project(*THREE_PROBES)

    def test_cap_spent_at_beta_zero_takes_no_step(self, monkeypatch):
        # x lies above its budget, so the probe at beta = 0 spends the one
        # evaluation allowed: the row's first pick records the error, no row
        # takes a first step, and _bracket returns before its probe loop.
        monkeypatch.setattr(projection, "_MAX_EVALS", 1)
        calls = count_evaluations(monkeypatch)
        x, fs = np.array([1.0, 2.0, 0.75]), FeasibleSet(np.full(3, 4.0), 3.5)
        with pytest.raises(ProjectionError,
                           match="^no halfspace dual bracket within 1 evaluations$"):
            self.project(x, np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25, 0.0]), fs)
        assert calls == [0.0]

    def test_newton_step_of_a_lone_row_centers_where_the_budget_binds(self):
        # The slope is unknown (nan), so it is summed over the free
        # components, centered because the budget binds: (1.5**2) * 2.
        n, free = np.array([[1.0, 2.0, 4.0]]), np.array([[True, False, True]])
        step = projection._newton_steps(n, free, [True], [0.5], [3.0], [math.nan])
        assert step == [0.5 + 3.0 / 4.5]
        pair = projection._newton_steps(np.repeat(n, 2, axis=0), np.repeat(free, 2, axis=0),
                                        [True, False], [0.5, 0.5], [3.0, 3.0],
                                        [math.nan, math.nan])
        assert pair == [step[0], 0.5 + 3.0 / 17.0]


def stacked(values):
    return np.array(list(values))


def padded(rows):
    """The 1-D arrays rows as the rows of one array, each padded with zeros
    to the longest."""
    out = np.zeros((len(rows), max(map(len, rows))))
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def halfspace_rows(batch):
    """The instances of batch, (x, normal, offset, gap, fset) each, projected
    as the rows of one call to the row core."""
    return projection._halfspace_rows(
        stacked(b[0] for b in batch), stacked(b[1] for b in batch), stacked(b[3] for b in batch),
        stacked(b[4].upper_bounds for b in batch), [b[4].budget for b in batch])


def padded_rows(batch):
    """The instances of batch, of any sizes, padded to the widest and
    projected as the rows of one call to the row core."""
    x, normal, gap = (padded([b[k] for b in batch]) for k in (0, 1, 3))
    ub = padded([b[4].upper_bounds for b in batch])
    return projection._halfspace_rows(x, normal, gap, ub, [b[4].budget for b in batch],
                                      [len(b[0]) for b in batch])


def projected_alone(batch):
    """Per instance of batch, project_halfspace_then_set's point, or the
    ProjectionError it raises."""
    alone = []
    for x, normal, offset, gap, fs in batch:
        try:
            alone.append(project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap))
        except ProjectionError as exc:
            alone.append(exc)
    return alone


def assert_rows_match_each_row_alone(batch):
    """One call of the row core on batch, padded to mixed widths, gives
    each row the point it gets alone, or raises the error of the first row
    that raises alone."""
    alone = projected_alone(batch)
    errors = [str(a) for a in alone if isinstance(a, ProjectionError)]
    if errors:
        with pytest.raises(ProjectionError) as raised:
            padded_rows(batch)
        assert str(raised.value) == errors[0]
        return
    for row, want in zip(padded_rows(batch), alone):
        k = len(want)
        assert row[:k].tobytes() == want.tobytes() and not row[k:].any()


def record_row_probes(monkeypatch):
    """Per row of x, keyed by its bytes, the betas at which the row core's
    halfspace duals probe it, in order, whether it probes alone or with
    other rows."""
    seen = collections.defaultdict(list)

    def recorder(make):
        def recorded_path(x, *args):
            probe = make(x, *args)
            keys = [row.tobytes() for row in x]

            def recorded(rows, betas):
                for r, beta in zip(rows, betas):
                    seen[keys[r]].append(beta)
                return probe(rows, betas)
            return recorded
        return recorded_path

    for name in ("_move_path", "_move_path_rows"):
        monkeypatch.setattr(projection, name, recorder(getattr(projection, name)))
    return seen


def two_seller(x, normal, offset, ub, budget):
    """A halfspace instance of two sellers, its gap formed by subtraction."""
    x, offset = np.array(x), np.array(offset)
    return x, np.array(normal), offset, x - offset, FeasibleSet(np.array(ub), budget)


# The instances of test_empty_intersection_reported,
# test_face_mode_with_no_point_of_the_face_in_the_halfspace and
# test_face_mode_projection_leaving_the_face, and three that project
# without trouble: one already inside its halfspace, two off their faces.
EMPTY = two_seller([1.0, 1.0], [-1.0, -1.0], [10.0, 10.0], [3.0, 5.0], 4.0)
NO_FACE_POINT = two_seller([5.0, 5.0], [1.0, 2.0], [12.0, -2.0], [10.0, 10.0], 10.0)
LEAVES_FACE = two_seller([5.0, 5.0], [1.5, 1.0], [4.0, 6.0], [10.0, 10.0], 10.0)
EASY = [two_seller([0.5, 1.0], [1.0, 0.0], [2.0, 0.0], [3.0, 5.0], 4.0),
        two_seller([1.0, 2.5], [1.0, 0.5], [0.5, 0.5], [3.0, 5.0], 6.0),
        two_seller([2.0, 0.0], [-1.0, 2.0], [2.5, 1.0], [4.0, 2.0], 5.0)]


class TestRowCores:
    """The row cores the engine runs on round each row as it rounds alone,
    whatever shares its batch."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_box_budget_rows_are_batch_independent(self, data):
        n = data.draw(st.integers(1, 8))
        batch = data.draw(st.lists(box_instances(n), min_size=1, max_size=4))

        def rows(instances):
            return projection._box_budget_rows(
                stacked(v for v, _ in instances), stacked(fs.upper_bounds for _, fs in instances),
                [fs.budget for _, fs in instances])

        try:
            alone = [rows([instance]) for instance in batch]
        except ProjectionError:
            return
        points, lams, pieces = rows(batch)
        for (point_1, lams_1, pieces_1), point, lam, checked in zip(alone, points, lams, pieces):
            assert point.tobytes() == point_1[0].tobytes()
            assert (lam, checked) == (lams_1[0], pieces_1[0])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_halfspace_rows_match_project_halfspace_then_set(self, data):
        n = data.draw(st.integers(1, 12))
        batch = data.draw(st.lists(halfspace_instances(n), min_size=1, max_size=4))
        try:
            alone = [project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)
                     for x, normal, offset, gap, fs in batch]
        except ProjectionError:
            return
        for point, want in zip(halfspace_rows(batch), alone):
            assert point.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_padded_rows_match_each_row_alone(self, data):
        # Rows of different sizes, each padded with zero bounds to the
        # widest: every row keeps the bytes it gets alone, and pads stay 0.
        # Face rows and plain rows share one dual search, beside rows at
        # x = 0 and rows that leave their face.
        batch = data.draw(mixed_batches(2, 5, ("face", "plain", "zero", "leaving")))
        widths = [len(b[0]) for b in batch]
        try:
            alone = [project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)
                     for x, normal, offset, gap, fs in batch]
            boxes = [project_box_budget(x + gap, fs) for x, _, _, gap, fs in batch]
        except ProjectionError:
            return
        x, normal, gap = (padded([b[k] for b in batch]) for k in (0, 1, 3))
        ub = padded([b[4].upper_bounds for b in batch])
        budget = [b[4].budget for b in batch]
        points = projection._halfspace_rows(x, normal, gap, ub, budget, widths)
        box, lams, _ = projection._box_budget_rows(x + gap, ub, budget, widths)
        for k, row, want, box_row, lam, box_want in zip(widths, points, alone, box, lams, boxes):
            assert row[:k].tobytes() == want.tobytes() and not row[k:].any()
            assert box_row[:k].tobytes() == box_want.point.tobytes() and not box_row[k:].any()
            assert lam == box_want.multiplier

    def test_padded_rows_with_nearly_flat_normals(self):
        # On the budget face a normal within a few ulps of a pure budget
        # direction is centered to (nearly) zero, and the flat-normal test
        # decides the path. A pad must not enter that test: centering would
        # move it to -shift, which is far from flat.
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            ub = rng.uniform(1.0, 3.0, k)
            x = ub * rng.uniform(0.2, 0.8, k)
            tilt = rng.choice([0.0, 1e-16, 4e-16, 1e-15, 1e-12], k)
            normal = -rng.uniform(0.5, 2.0) * (1.0 + tilt)
            gap = np.zeros(k)
            gap[0] = rng.uniform(0.0, 1e-3)
            gap[1] = -gap[0]
            instance = (x, normal, x - gap, gap, FeasibleSet(ub, float(x.sum())))
            full = (np.full(k + 2, 0.5), -np.ones(k + 2), None, np.zeros(k + 2),
                    FeasibleSet(np.ones(k + 2), 0.5 * (k + 2)))
            want = project_halfspace_then_set(*instance[:3], instance[4], offset_gap=gap)
            xs, ns, gaps = (padded([instance[j], full[j]]) for j in (0, 1, 3))
            ubs = padded([instance[4].upper_bounds, full[4].upper_bounds])
            point = projection._halfspace_rows(xs, ns, gaps, ubs,
                                               [instance[4].budget, full[4].budget], [k, k + 2])[0]
            assert point[:k].tobytes() == want.tobytes() and not point[k:].any()

    def test_rows_that_take_no_first_step_leave_the_search(self, monkeypatch):
        # With one evaluation allowed, the row over its budget spends it at
        # beta = 0 and fails at its first pick, while the row inside its
        # set takes its first step alone: the search goes on without it.
        monkeypatch.setattr(projection, "_MAX_EVALS", 1)
        over = (np.array([1.0, 2.0, 0.75]), np.array([1.0, 2.0, 3.0]), None,
                np.array([0.5, 0.25, 0.0]), FeasibleSet(np.full(3, 4.0), 3.5))
        seen = record_row_probes(monkeypatch)
        with pytest.raises(ProjectionError,
                           match="^no halfspace dual bracket within 1 evaluations$"):
            halfspace_rows([over, THREE_PROBES[:2] + (None,) + THREE_PROBES[2:]])
        first = seen[THREE_PROBES[0].tobytes()]
        assert seen[over[0].tobytes()] == [0.0] and len(first) == 1 and first[0] > 0.0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_probe_the_betas_they_probe_alone(self, data):
        # A search that took other probes but landed on the same point
        # would pass the byte comparison above; this one would not.
        n = data.draw(st.integers(1, 12))
        batch = data.draw(st.lists(halfspace_instances(n), min_size=1, max_size=10))
        assume(len({b[0].tobytes() for b in batch}) == len(batch))
        alone = []
        for x, normal, offset, gap, fs in batch:
            with pytest.MonkeyPatch.context() as patch:
                calls = count_evaluations(patch)
                try:
                    project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)
                except ProjectionError:
                    return
            alone.append(calls)
        with pytest.MonkeyPatch.context() as patch:
            seen = record_row_probes(patch)
            halfspace_rows(batch)
        assert [seen[b[0].tobytes()] for b in batch] == alone

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_outside_their_sets_first_probe_beta_zero(self, data):
        # A row outside its box or over its budget has no valid piece at
        # beta = 0 to step from, so its search starts with a probe there;
        # the rows inside theirs start with a Newton step.
        n = data.draw(st.integers(1, 12))
        inside = data.draw(st.lists(halfspace_instances(n), min_size=1, max_size=3))
        outside = data.draw(st.lists(outside_instances(n), min_size=1, max_size=3))
        batch = data.draw(st.permutations(inside + outside))
        assume(len({b[0].tobytes() for b in batch}) == len(batch))
        try:
            alone = [project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)
                     for x, normal, offset, gap, fs in batch]
        except ProjectionError:
            return
        with pytest.MonkeyPatch.context() as patch:
            seen = record_row_probes(patch)
            points = halfspace_rows(batch)
        for point, want in zip(points, alone):
            assert point.tobytes() == want.tobytes()
        assert all(seen[b[0].tobytes()][0] == 0.0 for b in outside)
        assert all(seen[b[0].tobytes()][:1] != [0.0] for b in inside)

    def test_batch_of_rows_in_and_out_of_their_sets_matches_the_oracle(self):
        fs = FeasibleSet(np.array([3.0, 5.0, 2.0]), 6.0)

        def instance(x, normal, offset):
            x, offset = np.array(x), np.array(offset)
            return x, np.array(normal), offset, x - offset, fs

        batch = [
            # over the budget (off the face: the gap does not sum to zero)
            instance([2.5, 2.5, 1.0 + 1e-6], [1.0, -2.0, 0.5], [0.5, 1.0, 0.2]),
            # inside the halfspace already, and on the face
            instance([1.0, 2.0, 0.5], [1.0, -2.0, 0.5], [0.5, 1.0, 0.2]),
            instance([2.0, 3.0, 1.0], [-1.0, -2.0, -0.5], [1.75, 3.25, 1.0]),
            # above and below the box, and on the face but above the box
            instance([3.5, 1.0, 0.5], [1.0, 1.0, -1.0], [1.0, 1.0, 1.0]),
            instance([-0.5, 2.0, 1.0], [-1.0, 1.0, 0.5], [1.0, 2.0, 0.0]),
            instance([3.25, 1.75, 1.0], [-1.0, -2.0, -0.5], [3.0, 2.0, 1.0]),
        ]
        alone = [project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)
                 for x, normal, offset, gap, fs in batch]
        with pytest.MonkeyPatch.context() as patch:
            seen = record_row_probes(patch)
            points = halfspace_rows(batch)
        assert [seen[b[0].tobytes()][:1] == [0.0] for b in batch] == [True, False, False] + [True] * 3
        for point, want, b in zip(points, alone, batch):
            assert point.tobytes() == want.tobytes()
            assert_matches_oracle(b)

    def test_row_with_no_free_component_probes_as_alone(self):
        # On the face, at beta = 0, the first row sits at its upper bounds:
        # the clamp at lam = 0, where its chain starts, has no free
        # component, and neither has the piece the breakpoint search lands
        # on. Beside an ordinary row the column probe gives each row the
        # probe it gets alone.
        batch = [(np.full(2, 0.25), np.array([-1.0, 0.5]), np.full(2, 0.25), 0.0),
                 (np.array([0.5, 1.0]), np.array([1.0, -2.0]), np.array([1.0, 2.0]), 0.25)]

        def probe(make, rows):
            x, normal, ub = (stacked(b[k] for b in rows) for k in range(3))
            path = make(x, normal, ub - x, [0.0] * len(rows), np.abs(normal).max(axis=1),
                        [True] * len(rows), [0.0] * len(rows))
            return path(list(range(len(rows))), [b[3] for b in rows])

        together = probe(projection._move_path_rows, batch)
        assert together[0][0] == 0.0 and not together[3][0].any()
        for j, row in enumerate(batch):
            g, lam, binds, free, up, move, slope, failed = probe(projection._move_path, [row])
            assert (g[0], lam[0], binds[0], repr(slope[0])) == (
                together[0][j], together[1][j], together[2][j], repr(together[6][j]))
            for got, want in zip(together[3:6], (free, up, move)):
                assert got[j].tobytes() == want[0].tobytes()
            assert not failed and not together[7]

    @pytest.mark.parametrize("order", [1, -1])
    def test_row_that_no_piece_certifies_beside_an_ordinary_row(self, order):
        # The mixed-scale row leaves the face and searches off it beside a
        # smaller row, padded to its width. Each row gets what it gets
        # alone: a point, or the error of the first row that raises alone.
        assert_rows_match_each_row_alone([MIXED_SCALE, EASY[0]][::order])

    def test_negative_multiplier_on_the_face_beside_plain_rows(self):
        # On its face the budget is an equality, and this row's multiplier
        # there comes out negative, so the original halfspace's is negative
        # too and the row leaves the face. In the one search beside plain
        # rows, whose multipliers are clamped at zero, its own is not.
        x, gap = np.array([0.25, 0.75, 1.0, 1.0]), np.array([0.0625, -0.0625, 0.0, 0.0])
        row = (x, np.array([0.5, -1.0, 1.0, -1.0]), x - gap, gap, FeasibleSet(np.ones(4), 3.0))
        assert math.fsum(project_halfspace_then_set(*row[:3], row[4], offset_gap=gap)) < 3.0
        assert_rows_match_each_row_alone([row, EASY[0]])
        assert_rows_match_each_row_alone([EASY[1], row, AT_ZERO])

    def test_batch_with_an_empty_intersection_raises(self):
        with pytest.raises(ProjectionError):
            halfspace_rows([LEAVES_FACE, EASY[0], EMPTY, EASY[1]])

    def test_batch_row_whose_face_misses_the_halfspace(self):
        # The row's face search fails; it is redone off the face, as alone,
        # and the rows around it are not disturbed.
        batch = [EASY[0], NO_FACE_POINT, LEAVES_FACE, EASY[1], EASY[2]]
        alone = [project_halfspace_then_set(x, normal, offset, fs)
                 for x, normal, offset, _, fs in batch]
        assert alone[1] == pytest.approx([3.6, 2.2], abs=1e-12)
        for point, want in zip(halfspace_rows(batch), alone):
            assert point.tobytes() == want.tobytes()

    def test_one_bracket_search_serves_both_paths(self, monkeypatch):
        batches = []
        search = projection._bracket

        def counted(n, *args):
            batches.append(len(n))
            return search(n, *args)

        monkeypatch.setattr(projection, "_bracket", counted)
        x, normal, offset, gap, fs = LEAVES_X_BOUNDS
        project_halfspace_then_set(x, normal, offset, fs, offset_gap=gap)
        assert batches == [1]
        halfspace_rows([LEAVES_X_BOUNDS, ROOT_ON_X_BOUNDS])
        assert batches == [1, 2]
        # Face rows and plain rows share one search; only a face row that
        # leaves its face searches again, alone.
        del batches[:]
        padded_rows([EASY[0], LEAVES_X_BOUNDS, EASY[1], ROOT_ON_X_BOUNDS])
        assert batches == [4]
        padded_rows([EASY[0], LEAVES_X_BOUNDS, LEAVES_FACE, ROOT_ON_X_BOUNDS])
        assert batches == [4, 4, 1]


# A row at x = 0, as in a stage's first round, whose root [0, 0, 2] lies on
# its budget.
AT_ZERO = (np.zeros(3), np.array([-1.0, -2.0, -3.0]), np.array([0.0, 0.0, 2.0]),
           np.array([0.0, 0.0, -2.0]), FeasibleSet(np.full(3, 4.0), 2.0))
# A row off its face whose chains pivot twice and three times.
CHAINED = (np.array([0.25, 0.0, 3.0, 0.0]), np.array([-1.0, -0.5, 2.0, -3.0]),
           np.array([0.25, 0.5, 0.0, 2.0]), np.array([0.0, -0.5, 3.0, -2.0]),
           FeasibleSet(np.array([1.0, 2.0, 4.0, 4.0]), 4.25))
# Fixed rows whose search leaves the face, and rows whose search fails
# (MIXED_SCALE leaves the face first).
LEAVING = (LEAVES_FACE, NO_FACE_POINT)
FAILING = (EMPTY, MIXED_SCALE)


@st.composite
def batch_rows(draw, kind):
    """One row of a mixed batch: a halfspace instance of 1-12 components on
    its budget face ("face"), off it ("plain") or either ("any"), or a row
    of LEAVING ("leaving") or FAILING ("failing"). A "zero" row is a plain one moved to
    x = 0 with a normal of no positive entry, as in a stage's first round,
    and a budget near the offset point's sum: its moves grow until the
    budget binds, and the clamp at lam = 0 has no free component."""
    if kind in ("leaving", "failing"):
        return draw(st.sampled_from(LEAVING if kind == "leaving" else FAILING))
    n = draw(st.integers(1, 12))
    face = None if kind == "any" else kind == "face"
    x, normal, offset, gap, fs = draw(halfspace_instances(n, face=face))
    if kind == "zero":
        # A budget at most twice as full as the offset point binds early.
        budget = math.fsum(offset) * draw(st.sampled_from([1.0, 1.25, 2.0]))
        assume(budget > 0.0)
        x, normal, fs = np.zeros(n), -np.abs(normal), FeasibleSet(fs.upper_bounds, budget)
        gap = x - offset
    return x, normal, offset, gap, fs


@st.composite
def mixed_batches(draw, low, high, kinds=("face", "plain", "zero", "leaving", "failing")):
    """low to high batch_rows. Half the batches hold "any" rows only, so
    that batches all on the face and all plain are drawn; in the others the
    rows are of the given kinds, and a batch of two or more holds a face row
    and a plain row."""
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=low, max_size=high))
    if draw(st.booleans()):
        kinds = ["any"] * len(kinds)
    elif len(kinds) > 1:
        kinds = draw(st.permutations(["face", "plain"] + kinds[2:]))
    return [draw(batch_rows(kind)) for kind in kinds]


class TestPivot:
    """A move that finds no certified piece runs a chain of pivots, each to
    the piece of clip(s - lam) at the multiplier the last piece computed,
    before any breakpoint search; a row's first move, which has no stored
    piece, starts the chain at lam = 0. A pivot that certifies takes the
    piece the search finds, so no bit of a projection depends on the
    pivots."""

    @settings(max_examples=240, deadline=None)
    @given(data=st.data())
    def test_declined_pivots_move_no_bit(self, data):
        # A lone row probes with _move_path; 2-6 rows padded to mixed widths
        # probe with _move_path_rows. The rows are on their face or off it
        # (all on it, all off it, or both), at x = 0, or leave their face or
        # fail. Each batch is projected with its pivots and with every pivot
        # declined, so that the sort does every search.
        batch = data.draw(mixed_batches(1, 6))

        def project():
            try:
                return padded_rows(batch).tobytes()
            except ProjectionError as error:
                return str(error)

        pivoted = project()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(projection, "_pivot", decline)
            assert project() == pivoted

    @pytest.mark.parametrize("row, lengths", [(AT_ZERO, [1, 1]), (CHAINED, [2, 3])],
                             ids=["at-zero", "chained"])
    @pytest.mark.parametrize("beside", [[], [EASY[0]]], ids=["lone", "batched"])
    def test_chains_certify_without_a_sort(self, row, lengths, beside, monkeypatch):
        # Each row's first chain starts at lam = 0, its first move having no
        # stored piece, and every chain certifies after the pivots given: no
        # move sorts. With every pivot declined, the sort finds the same
        # points.
        chains, sorts = [], []
        pivot, search = projection._pivot, projection._breakpoint_rows

        def counted_pivot(finish, lams):
            steps = []

            def step(rows, guesses, strict):
                steps.append(guesses)
                return finish(rows, guesses, strict)

            rest = pivot(step, lams)
            chains.append((lams, len(steps), rest))
            return rest

        def counted_search(s, lo, hi, target, finish, *args):
            sorts.append(len(target))
            return search(s, lo, hi, target, finish, *args)

        monkeypatch.setattr(projection, "_pivot", counted_pivot)
        monkeypatch.setattr(projection, "_breakpoint_rows", counted_search)
        points = padded_rows([row] + beside)
        assert chains[0][0] == [0.0] and [length for _, length, _ in chains] == lengths
        assert all(not rest for _, _, rest in chains) and sorts == []
        monkeypatch.setattr(projection, "_pivot", decline)
        assert padded_rows([row] + beside).tobytes() == points.tobytes() and sorts
