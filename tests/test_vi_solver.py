import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gridtrade import vi_solver
from gridtrade.model import FeasibleSet, joint_utility
from gridtrade.oracle import halfspace_projection_oracle, ve_oracle
from gridtrade.projection import EPS, _row_fsums, project_box_budget, project_halfspace_then_set
from gridtrade.vi_solver import (
    SOLVER,
    PseudoGradient,
    SolverConfig,
    natural_residual,
    solve_ve,
    ve_closed_form,
)
from tests.conftest import in_feasible_set, make_scenario, use_solver

# Written when steady rounds began taking their trial point in closed form;
# that moved 24 of the 40 records by at most 3.7e-13 relative to their
# largest entry and kept every iteration count.
# Rewrite with `python -m tests.test_vi_solver` only on purpose.
FOLLOWER_GOLDEN = Path(__file__).parent / "data" / "follower_golden.json"


def running_example():
    fset = FeasibleSet(np.array([3.0, 5.0]), 4.0)
    F = PseudoGradient(np.array([3.0, 5.0]), np.array([1.0, 1.0]))
    return F, fset


def random_instance(rng, n_max=10):
    n = int(rng.integers(1, n_max + 1))
    E = rng.uniform(64.0, 240.0, n)
    p = rng.uniform(8.45, 175.0, n)
    budget = float(rng.uniform(0.2, 1.4) * E.sum())
    return PseudoGradient(E, p), FeasibleSet(E, budget)


def golden_problems():
    """(n, budget factor, F, fset) for 40 seeded follower problems: n from 1
    to 50, budgets from a fifth of the total surplus (iterates on the
    budget face) to above it (slack)."""
    rng = np.random.default_rng(2024)
    sizes = [1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 17, 19, 21,
             23, 25, 27, 29, 31, 33, 35, 37, 39, 41, 43, 45, 46, 47, 48, 49, 50, 50, 50, 50]
    factors = rng.permutation(np.linspace(0.2, 1.4, len(sizes)))
    for n, factor in zip(sizes, factors):
        E = rng.uniform(64.0, 240.0, n)
        p = rng.uniform(8.45, 175.0, n)
        yield n, float(factor), PseudoGradient(E, p), FeasibleSet(E, float(factor * E.sum()))


def golden_record(n, factor, F, fset):
    x, trace = solve_ve(F, fset)
    return {"n": n, "budget_factor": factor, "iterations": trace.iterations,
            "x": [float(v).hex() for v in x]}


@st.composite
def residual_instances(draw):
    """(x, F, fset) with n from 1 to 12 at one scale from 1e-6 to 1e6 and x
    feasible; an x drawn in the box that overfills the budget is pulled to
    within 1e-14 of the budget face, where the residual's compensation acts."""
    n = draw(st.integers(1, 12))
    scale = 10.0 ** draw(st.integers(-6, 6))
    units = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)
    E = scale * (0.25 + 1.75 * draw(units))
    F = PseudoGradient(E, scale * 2.0 * draw(units))
    fset = FeasibleSet(E, draw(st.floats(0.05, 1.25)) * float(E.sum()))
    x = E * draw(units)
    total = math.fsum(x.tolist())
    if total > fset.budget:
        x *= (1.0 - 1e-14) * fset.budget / total
    assert in_feasible_set(fset, x)
    return x, F, fset


class TestPseudoGradient:
    def test_evaluation_rule(self):
        F, _ = running_example()
        assert np.array_equal(F(np.array([1.0, 3.0])), [-3.0, -3.0])

    def test_strict_monotonicity_is_squared_norm(self):
        # the Jacobian is the identity, so <F(u)-F(v), u-v> = ||u-v||^2
        rng = np.random.default_rng(4)
        F, _ = random_instance(rng)
        n = F.surpluses.size
        for _ in range(50):
            u = rng.uniform(0, 200, n)
            v = rng.uniform(0, 200, n)
            lhs = float((F(u) - F(v)) @ (u - v))
            assert lhs == pytest.approx(float(((u - v) ** 2).sum()), abs=1e-12 * (1 + lhs))

    @pytest.mark.parametrize("prices", [[1.0, 2.0, 3.0], [[1.0, 2.0]], 4.0])
    def test_rejects_prices_of_another_shape(self, prices):
        with pytest.raises(ValueError, match="matching shapes"):
            PseudoGradient([10.0, 20.0], prices)


class TestNaturalResidual:
    def test_zero_at_solution(self):
        F, fset = running_example()
        x_star = ve_closed_form(F, fset)
        _, norm = natural_residual(x_star, F, fset)
        assert norm <= 1e-9

    def test_from_origin(self):
        F, fset = running_example()
        r, norm = natural_residual(np.zeros(2), F, fset)
        assert r == pytest.approx([1.0, 3.0], abs=1e-10)
        assert norm == pytest.approx(np.sqrt(10.0), abs=1e-10)

    def test_independent_of_tolerances(self):
        F, fset = running_example()
        x = np.array([0.5, 1.0])
        r1, n1 = natural_residual(x, F, fset)
        r2, n2 = natural_residual(x, F, fset)
        assert np.array_equal(r1, r2) and n1 == n2

    def test_rejects_misshapen_iterate(self):
        F, fset = running_example()
        with pytest.raises(ValueError, match="does not match"):
            natural_residual(np.array([1.0]), F, fset)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_iterate(self, bad):
        F, fset = running_example()
        with pytest.raises(ValueError, match="non-finite"):
            natural_residual(np.array([bad, 1.0]), F, fset)

    def test_anchor_is_left_untouched(self):
        F, fset = running_example()
        anchor = project_box_budget(F.surpluses + F.prices, fset)
        before = anchor.point.copy()
        # x overfills the budget by an ulp, so r is compensated upward
        r, _ = natural_residual(np.array([1.0, np.nextafter(3.0, 4.0)]), F, fset, anchor)
        assert np.array_equal(anchor.point, before)
        assert math.fsum(r.tolist()) >= 1.0 + np.nextafter(3.0, 4.0)

    def test_binding_budget_with_no_free_component_is_not_compensated(self):
        # The anchor (1, 0) fills the budget with both sellers at a bound, so
        # no component can take the compensation: x's excess of 1e-16 over
        # the anchor's sum stays, and r is the anchor itself.
        F = PseudoGradient(np.array([1.0, 0.25]), np.array([1.0, 0.25]))
        fset = FeasibleSet(np.array([1.0, 1.0]), 1.0)
        anchor = project_box_budget(F.surpluses + F.prices, fset)
        assert anchor.active_budget and np.array_equal(anchor.point, [1.0, 0.0])
        r, norm = natural_residual(np.array([1.0, 1e-16]), F, fset)
        assert np.array_equal(r, [1.0, 0.0]) and norm == 1e-16

    @settings(max_examples=200, deadline=None)
    @given(residual_instances())
    def test_anchor_matches_projecting_the_natural_map(self, instance):
        x, F, fset = instance
        anchor = project_box_budget(F.surpluses + F.prices, fset)
        _, residual = natural_residual(x, F, fset, anchor)
        direct = float(np.linalg.norm(x - project_box_budget(x - F(x), fset).point))
        assert abs(residual - direct) <= 1e-12 * float((F.surpluses + F.prices).max())


class TestSolveVe:
    def test_running_example(self):
        F, fset = running_example()
        x, trace = solve_ve(F, fset)
        assert trace.converged
        assert x == pytest.approx([1.0, 3.0], abs=1e-7)

    def test_box_binds_one_dimension(self):
        fset = FeasibleSet(np.array([3.0]), 100.0)
        F = PseudoGradient(np.array([3.0]), np.array([1.0]))
        x, trace = solve_ve(F, fset)
        assert trace.converged
        assert x == pytest.approx([3.0], abs=1e-8)

    def test_projects_the_natural_map_once_per_solve(self, monkeypatch):
        calls = []
        rows = vi_solver._box_budget_rows

        def counted(*args):
            calls.append(1)
            return rows(*args)

        monkeypatch.setattr(vi_solver, "_box_budget_rows", counted)
        rng = np.random.default_rng(5)
        for problem in [running_example()] + [random_instance(rng) for _ in range(5)]:
            calls.clear()
            _, trace = solve_ve(*problem)
            assert trace.converged and trace.iterations > 1
            assert len(calls) == 1

    @pytest.mark.parametrize("surpluses, prices", [
        ([3.0, 5.0, 1.0], [1.0, 1.0, 1.0]),   # one seller more than the set has
        ([3.0, 1.7e308], [1.0, 1.7e308]),     # a surplus plus its price overflows
        ([3.0, np.nan], [1.0, 1.0]),
    ], ids=["misshapen", "overflow", "nan"])
    def test_rejects_a_natural_map_it_cannot_project(self, surpluses, prices):
        _, fset = running_example()
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            solve_ve(PseudoGradient(surpluses, prices), fset)

    def test_non_convergence_reported_not_raised(self, monkeypatch):
        F, fset = running_example()
        use_solver(monkeypatch, max_iterations=2, residual_tol=1e-14)
        _, trace = solve_ve(F, fset)
        assert trace.stop_reason == "max_iterations"
        assert not trace.converged

    def test_oracle_agreement_and_fejer(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            F, fset = random_instance(rng)
            x, trace = solve_ve(F, fset)
            assert trace.converged
            x_star = ve_closed_form(F, fset)
            assert np.abs(x - x_star).max() <= 1e-6
            dists = [np.linalg.norm(rec.x - x_star) for rec in trace.records]
            for a, b in zip(dists, dists[1:]):
                assert b <= a + 1e-12

    def test_social_optimality_against_samples_and_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            E = rng.uniform(64.0, 240.0, n)
            p = rng.uniform(8.45, 175.0, n)
            budget = float(rng.uniform(0.3, 1.2) * E.sum())
            s = make_scenario(E, budget, p_min=1.0, p_max=175.0 * n)
            F = PseudoGradient(E, p)
            fset = FeasibleSet(E, budget)
            x, trace = solve_ve(F, fset)
            best = joint_utility(x, s, p)
            for _ in range(1000):
                w = rng.uniform(0, E)
                if w.sum() > budget:
                    w *= budget / w.sum()
                assert joint_utility(w, s, p) <= best + 1e-6
            x_oracle = ve_oracle(s, p)
            assert abs(joint_utility(x_oracle, s, p) - best) <= 1e-6

    def test_mu_equalized_on_interior_binding_solutions(self):
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(200):
            F, fset = random_instance(rng, n_max=6)
            x = ve_closed_form(F, fset)
            margin = 1e-6 * np.maximum(1.0, fset.upper_bounds)
            interior = (x > margin) & (x < fset.upper_bounds - margin)
            binding = abs(x.sum() - fset.budget) <= 1e-9
            if binding and interior.all() and x.size >= 2:
                found += 1
                mu = -F(x)
                assert mu.max() - mu.min() <= 1e-6
        assert found >= 10

    def test_clamped_component_slack_equals_price(self):
        # a seller pinned at its surplus keeps slack equal to its price
        fset = FeasibleSet(np.array([3.0, 50.0]), 100.0)
        F = PseudoGradient(np.array([3.0, 50.0]), np.array([1.0, 2.0]))
        x = ve_closed_form(F, fset)
        assert x[0] == pytest.approx(3.0, abs=1e-12)
        mu = -F(x)
        assert mu[0] == pytest.approx(1.0, abs=1e-9)

    def test_mu_of_zero_vector(self):
        F, _ = running_example()
        assert np.array_equal(-F(np.zeros(2)), [4.0, 6.0])


class TestTrace:
    def test_residuals_finite_and_final_below_tol(self):
        F, fset = running_example()
        _, trace = solve_ve(F, fset)
        assert trace.records[0].iteration == 1
        assert trace.residuals[0] == pytest.approx(np.sqrt(10.0))
        assert np.all(np.isfinite(trace.residuals))
        assert trace.residuals[-1] <= SOLVER.residual_tol


class TestIterationRecord:
    def test_z_is_the_accepted_trial_point(self):
        # z is x - t*(x - r) for a step, with r the natural map at x, and x
        # itself on the residual stop: the loop hands over d = x - r and the
        # record forms z from it, rather than rebuilding z from F(z).
        steps = 0
        for _, _, F, fset in golden_problems():
            _, trace = solve_ve(F, fset)
            *stepped, last = trace.records
            assert last.step == 0.0 and last.z.tobytes() == last.x.tobytes()
            for rec in stepped:
                assert rec.step > 0.0
                r, _ = natural_residual(rec.x, F, fset)
                assert rec.z.tobytes() == (rec.x - rec.step * (rec.x - r)).tobytes()
            steps += len(stepped)
        assert steps > 100


class TestSolverConfig:
    def test_fields_keep_the_armijo_argument(self):
        # The invariants the first-step argument of TestArmijo needs.
        assert SolverConfig() == SOLVER
        for value in (SOLVER.gamma, SOLVER.beta, SOLVER.delta):
            assert 0.0 < value < 1.0
        assert SOLVER.gamma + SOLVER.delta <= 1.0
        assert SOLVER.residual_tol > 0.0
        assert SOLVER.max_iterations >= 1 and SOLVER.max_backtracks >= 1

    def test_every_round_accepts_its_first_step(self):
        # The acceptance corpus's follower problems (n from 1 to 10, budgets
        # from a fifth of the surplus sum to above it): no round backtracks.
        rng = np.random.default_rng(20240801)
        stepped = 0
        for _ in range(1000):
            _, trace = solve_ve(*random_instance(rng))
            *rounds, last = trace.records
            assert trace.converged and last.step == 0.0
            assert all(rec.step == SOLVER.gamma for rec in rounds)
            stepped += len(rounds)
        assert stepped > 10_000


class TestArmijo:
    """Backtracking. <F(z), d> >= (1 - t)*||d||**2 for z = x - t*d, so the
    first step 0.95 <= 1 - delta of SOLVER never backtracks; a first step
    above 1 - delta does wherever x sits on the budget face."""

    def test_backtracks_to_half_the_first_step(self, monkeypatch):
        F, fset = running_example()
        use_solver(monkeypatch, gamma=0.99)
        x, trace = solve_ve(F, fset)
        steps = {rec.step for rec in trace.records}
        assert trace.converged and steps == {0.99, 0.495, 0.0}
        assert np.abs(x - ve_closed_form(F, fset)).max() <= 1e-9

    def test_out_of_backtracks_raises(self, monkeypatch):
        # 0.99 * 0.98 = 0.9702 still exceeds 1 - delta = 0.96: a round on
        # the face needs two backtracks.
        F, fset = running_example()
        use_solver(monkeypatch, gamma=0.99, beta=0.98)
        _, trace = solve_ve(F, fset)
        assert trace.converged and 0.99 * 0.98 * 0.98 in {rec.step for rec in trace.records}
        use_solver(monkeypatch, gamma=0.99, beta=0.98, max_backtracks=1)
        with pytest.raises(vi_solver.ArmijoSearchError, match="within 1 backtracks"):
            solve_ve(F, fset)
        # One backtrack is within a limit of one.
        use_solver(monkeypatch, gamma=0.99, max_backtracks=1)
        assert solve_ve(F, fset)[1].converged


class TestFollowerGolden:
    def test_solutions_and_iterations_bit_identical(self):
        expected = json.loads(FOLLOWER_GOLDEN.read_text())
        got = [golden_record(*problem) for problem in golden_problems()]
        assert len(got) == len(expected) == 40
        for want, have in zip(expected, got):
            assert have == want


if __name__ == "__main__":
    FOLLOWER_GOLDEN.write_text(
        json.dumps([golden_record(*problem) for problem in golden_problems()], indent=1) + "\n")


class TestRowLoop:
    """Each row of a batch follows its solve_ve path bit for bit, whichever
    rows share its batch and whenever they stop: through the row cores while
    the batch has several rows, as alone once it has one."""

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_rows_match_solve_ve(self, n):
        rng = np.random.default_rng(n)
        problems = []
        for factor in (0.3, 0.6, 1.2, 0.9):
            s = rng.uniform(64.0, 240.0, n)
            problems.append((PseudoGradient(s, rng.uniform(8.45, 175.0, n)),
                             FeasibleSet(s, factor * float(s.sum()))))
        alone = [solve_ve(F, fs) for F, fs in problems]
        s = np.array([F.surpluses for F, _ in problems])
        p = np.array([F.prices for F, _ in problems])
        budget = [fs.budget for _, fs in problems]
        seen = [[] for _ in problems]

        def on_iteration(iteration, rows, x, res, steps, d, mu, done):
            for j, r in enumerate(rows):
                seen[r].append((x[j].tobytes(), res[j], 0.0 if done[j] else steps[j]))
            return [False] * len(rows)

        final, stops = vi_solver._extragradient(s, p, s, budget, on_iteration)
        for (x, trace), row, stop, path in zip(alone, final, stops, seen):
            assert row.tobytes() == x.tobytes() and stop == trace.stop_reason
            assert path == [(r.x.tobytes(), r.residual, r.step) for r in trace.records]

    def test_residual_stop_halt_and_cap_leave_through_one_exit(self, monkeypatch):
        # Rows of 1, 6, 2 and 3 sellers, padded to 6: alone, the first stops
        # on its residual in round 10 and the others in round 12. In round 10
        # the callback halts the second, so one round sees a residual stop
        # and a halt; the cap of 11 rounds stops the other two.
        use_solver(monkeypatch, max_iterations=11)
        rng = np.random.default_rng(2)
        problems = []
        for n, factor in ((1, 0.3), (6, 0.6), (2, 0.3), (3, 0.3)):
            s = rng.uniform(64.0, 240.0, n)
            problems.append((s, rng.uniform(8.45, 175.0, n), factor * float(s.sum())))

        def halting(labels):
            """A callback that halts the row labelled 1 in round 10, noting
            each round's iteration and done flags."""
            calls = []

            def on_iteration(iteration, rows, x, res, steps, z, mu, done):
                calls.append((iteration, dict(zip(labels[rows].tolist(), done))))
                return [iteration == 10 and r == 1 for r in labels[rows].tolist()]
            return on_iteration, calls

        s, p = np.zeros((4, 6)), np.zeros((4, 6))
        for i, (si, pi, _) in enumerate(problems):
            s[i, :si.size], p[i, :si.size] = si, pi
        on_iteration, calls = halting(np.arange(4))
        final, stops = vi_solver._extragradient(s, p, s, [b for _, _, b in problems],
                                                on_iteration, [si.size for si, _, _ in problems])
        assert stops == ["residual", "caller", "max_iterations", "max_iterations"]
        # One call per round, which sees every live row.
        assert [it for it, _ in calls] == list(range(1, 12))
        assert calls[9][1] == {0: True, 1: False, 2: False, 3: False}
        assert calls[10][1] == {2: False, 3: False}
        for i, (si, pi, b) in enumerate(problems):
            alone, _ = halting(np.array([i]))
            x, stop = vi_solver._extragradient(si[None], pi[None], si[None], [b], alone)
            assert final[i, :si.size].tobytes() == x[0].tobytes() and stops[i] == stop[0]
            assert not final[i, si.size:].any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lone_row_rejects_a_non_finite_normal(self, bad):
        # The price row makes the round's normal F(z) non-finite (an inf
        # price is clamped out of the anchor, so the residual is finite; a
        # nan one leaves it nan, which no test stops on). The lone row's one
        # check must reject the normal before projecting.
        F, fset = running_example()
        s, p, ub = F.surpluses[None], F.prices[None].copy(), fset.upper_bounds[None]
        p[0, 0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite normal"):
            vi_solver._extragradient(s, p, ub, [fset.budget], lambda *args: [False])


@st.composite
def steady_instances(draw):
    """(c, ub, budget, t, x) with n from 1 to 8: c = s + p, a budget that
    binds at P_X(c) or is slack, a step t in (0, 1), and x in X that holds
    every bound P_X(c) holds strictly and, where the budget binds, sums to
    it within an ulp."""
    n = draw(st.integers(1, 8))
    units = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)
    s, p, ub = 64.0 + 176.0 * draw(units), 8.45 + 166.55 * draw(units), 16.0 + 224.0 * draw(units)
    c = s + p
    if draw(st.booleans()):
        budget = draw(st.floats(0.05, 0.95)) * float(np.minimum(c, ub).sum())
    else:
        budget = draw(st.floats(1.0, 1.5)) * float(ub.sum())
    anchor = project_box_budget(c, FeasibleSet(ub, budget))
    (strict,), (bound,) = vi_solver._strict_set(c[None], anchor.point[None], ub[None],
                                                [anchor.multiplier])
    free = ~strict
    x = bound.copy()
    if anchor.active_budget:
        # Along a zero-sum direction from the anchor, then onto the face.
        assume(free.any())
        v = np.where(free, draw(units) - 0.5, 0.0)
        v[free] -= v[free].mean()
        go, a = v != 0.0, anchor.point
        reach = float(np.min(np.where(v[go] > 0.0, (ub - a)[go] / v[go], a[go] / -v[go]),
                             initial=0.0 if not go.any() else np.inf))
        x[free] = (a + draw(st.floats(0.0, 0.99)) * reach * v)[free]
        k = int(np.argmax(np.where(free, np.minimum(x, ub - x), -np.inf)))
        x[k] += budget - math.fsum(x.tolist())
    else:
        x[free] = (ub * draw(units))[free]
    # The anchor may certify a sum an ulp off the budget with every free
    # component on a bound (a zero multiplier there): no x of the box then
    # reaches the face, and the draw has no instance.
    assume(np.all(x >= 0.0) and np.all(x <= ub))
    return c, ub, budget, draw(st.floats(1e-3, 0.999)), x


class TestClosedFormRound:
    """Where x holds every bound the anchor x* = P_X(c) holds strictly, the
    halfspace projection of x is the trial point z = x - t*(x - x*): the
    loop takes z there and skips the dual search."""

    @settings(max_examples=300, deadline=None)
    @given(steady_instances(), st.integers(1, 3))
    def test_trial_point_is_the_projection(self, instance, pad):
        c, ub, budget, t, x = instance
        fset = FeasibleSet(ub, budget)
        anchor = project_box_budget(c, fset)
        td = t * (x - anchor.point)
        z = x - td
        normal = z - c
        assume(np.any(normal != 0.0))
        scale = float(ub.max())
        w = project_halfspace_then_set(x, normal, z, fset, offset_gap=td)
        assert np.abs(w - z).max() <= 1e-12 * scale
        # The oracle bisects the uncentered gap, whose w(beta) rounds at the
        # scale of x - beta*n; a gap error moves its point by that error
        # over the norm of the normal the free components see, centered
        # where the budget binds (see test_projection.cut_slack).
        beta = t / (1.0 - t)
        n_free = normal[(z > 0.0) & (z < ub)]
        if anchor.active_budget and n_free.size:
            n_free = n_free - n_free.mean()
        norm = float(np.sqrt(np.sum(n_free * n_free)))
        rounding = EPS * math.fsum((np.abs(normal) * (np.abs(x) + beta * np.abs(normal))).tolist())
        slack = 2.0 * rounding / norm if norm > 0.0 else 0.0
        ref = halfspace_projection_oracle(x, normal, z, fset, offset_gap=td)
        assert np.abs(ref - z).max() <= 1e-12 * scale + slack

        # The helper on a batch of two rows padded past the problem's width:
        # x, then x with one bound the anchor holds strictly let go, or off
        # the budget face.
        def padded(a):
            return np.concatenate((a, np.zeros(pad)))

        strict, bound = vi_solver._strict_set(*(np.array([padded(a)] * 2)
                                               for a in (c, anchor.point, ub)),
                                              [anchor.multiplier] * 2)
        moved = []
        held = np.flatnonzero(strict[0, :len(x)])
        if held.size:
            off = x.copy()
            off[held[0]] = 0.5 * ub[held[0]]
            moved.append(off)
        if anchor.active_budget:
            off = x.copy()
            k = int(np.argmax(np.where(strict[0, :len(x)], -np.inf, x)))
            assume(0.5 * x[k] > 1e-9 * budget)
            off[k] *= 0.5
            moved.append(off)
        for off in moved:
            rows = np.array([padded(x), padded(off)])
            assert vi_solver._steady_rows(rows, strict, bound, [anchor.multiplier] * 2,
                                          [budget] * 2, _row_fsums(rows)) == [True, False]
        rows = np.array([padded(x)])
        assert vi_solver._steady_rows(rows, strict[:1], bound[:1], [anchor.multiplier],
                                      [budget], _row_fsums(rows)) == [True]
