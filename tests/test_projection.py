import itertools

import numpy as np
import pytest

from gridtrade.model import FeasibleSet
from gridtrade.projection import (
    ProjectionError,
    project_box_budget,
    project_halfspace_then_set,
)


def grid_search_projection(v, fset, steps=200):
    """Brute-force minimizer of ||w - v|| over a fine feasible lattice.

    Independent of the production path: enumerates the box lattice and
    filters by the budget. Only sensible for 2 <= N <= 3. The last two
    axes are evaluated as one numpy slab per point of the leading axes,
    which are walked in itertools.product order; sums are formed in the
    same order as over a single lattice point, and argmin keeps the first
    minimum, so ties resolve to the same point as a point-by-point walk.
    """
    axes = [np.linspace(0.0, ub, steps + 1) for ub in fset.upper_bounds]
    v = np.asarray(v, dtype=float)
    slab = np.ix_(axes[-2], axes[-1])
    best, best_d = None, np.inf
    for head in itertools.product(*axes[:-2]):
        total = sum(head, 0.0) + slab[0] + slab[1]
        d = (sum((h - c) ** 2 for h, c in zip(head, v)) + (slab[0] - v[-2]) ** 2
             + (slab[1] - v[-1]) ** 2)
        d[total > fset.budget] = np.inf
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
            assert fs.contains(res.point, tol=1e-10)
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
            # dense lattice search over the intersection
            axes = [np.linspace(0, b, 241) for b in ub]
            best, best_d = None, np.inf
            for p1 in axes[0]:
                for p2 in axes[1]:
                    cand = np.array([p1, p2])
                    if cand.sum() > fs.budget:
                        continue
                    if float(normal @ (cand - offset)) > 1e-9:
                        continue
                    d = float(np.sum((cand - x) ** 2))
                    if d < best_d:
                        best, best_d = cand, d
            if best is None:
                continue
            step = float(max(ub)) / 240
            assert np.abs(w - best).max() <= 2.0 * step

    def test_zero_normal_rejected(self):
        fs = FeasibleSet(np.array([3.0]), 4.0)
        with pytest.raises(ValueError):
            project_halfspace_then_set(np.array([1.0]), np.array([0.0]), np.array([0.0]), fs)

    def test_empty_intersection_reported(self):
        fs = FeasibleSet(np.array([3.0, 5.0]), 4.0)
        # halfspace w1 + w2 >= 20 misses the set entirely
        with pytest.raises(ProjectionError):
            project_halfspace_then_set(
                np.array([1.0, 1.0]), np.array([-1.0, -1.0]), np.array([10.0, 10.0]), fs,
                max_evals=500,
            )
