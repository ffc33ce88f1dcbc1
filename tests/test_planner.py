import hashlib
import math
import sys
from collections import namedtuple
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainplan import kinematics, laws, oracle, sampling, solver
from chainplan.model import (
    Behavior,
    InfeasibleError,
    Problem,
    Trajectory,
    VirtualGroup,
    asl_parse,
)
from chainplan.kinematics import EPS_PROPER
from chainplan.planner import (
    HIGHER,
    INTERCEPT_TOL,
    LOWER,
    PROPER,
    InfeasibleProblem,
    PlanError,
    Planner,
    _concat,
    _Plan,
    _stage_root,
    _switch,
    plan,
    plan_unconstrained,
)

from helpers import draw_feasible, near_touch_draws

M3 = (1.0, 1.0, 1.5, 4.0)
M4 = (1.0, 1.0, 1.5, 4.0, 20.0)


def proper_position(x0, xf, M):
    """p*: the position placing (x0_1..x0_{n-1}, p*) on the lower-order
    manifold of xf; the gap x_n - p* at x_n = 0 is -p* exactly."""
    state = tuple(map(float, x0[:-1])) + (0.0,)
    return -Planner()._gap_of(len(x0), tuple(map(float, xf)),
                              tuple(M))(state)


def classify(x0, xf, M):
    """PROPER, HIGHER or LOWER: where x0 lies against that manifold."""
    return Planner()._classify(len(x0), tuple(map(float, x0)),
                               tuple(map(float, xf)), tuple(M))[0]


def intercept_time(prefix: Trajectory, xf, M):
    """Time into the prefix at which its state meets the lower-order
    manifold of xf, or None where the path that the planner follows, the
    prefix and then a cruise ride, meets it only on the ride.  A start above
    the manifold is mirrored below it, as the planner does."""
    stages = [(s.u, s.duration) for s in prefix.segments] + [(0.0, math.inf)]
    x0 = prefix.segments[0].start
    n, xf, M = len(xf), tuple(map(float, xf)), tuple(M)
    pl = Planner()
    g = pl._gap_of(n, xf, M)(x0)
    if g > 0.0:
        x0, xf, g = tuple(-v for v in x0), tuple(-v for v in xf), -g
        stages = [(-u, dur) for u, dur in stages]
    j, tau, _ = pl._hand_over(n, x0, stages, g, xf, M)
    if j == len(stages) - 1:
        return None
    return sum(t for _, t in stages[:j]) + tau


def _plan_stages(traj: Trajectory) -> _Plan:
    return _Plan(tuple((s.u, s.duration) for s in traj.segments),
                 tuple(traj.asl.elements))


def _bits(traj: Trajectory):
    return (traj.asl.text(), traj.t_f.hex(),
            [(s.u.hex(), s.duration.hex()) + tuple(v.hex() for v in s.start)
             for s in traj.segments])


def violated_sides(problem: Problem, free: Trajectory):
    """Sides of the top-state bound that the free plan crosses."""
    return Planner()._violated_sides(problem.n, free.problem.x0,
                                     _plan_stages(free), problem.M)


def tangent_marker_search(problem: Problem, free: Trajectory) -> Trajectory:
    """Best marker-mediated trajectory on the sides the free plan crosses."""
    pl = Planner()
    p = pl._marker_search(problem.n, problem.x0, problem.xf, problem.M,
                          violated_sides(problem, free), 0)
    return pl._to_trajectory(p, problem)


class TestFirstOrder:
    def test_closed_form(self):
        traj = plan(Problem(1, (0.0,), (3.0,), (2.0, None)))
        assert traj.t_f == 1.5
        assert [s.u for s in traj.segments] == [2.0]

    def test_zero_motion(self):
        traj = plan(Problem(1, (0.5,), (0.5,), (1.0, None)))
        assert traj.t_f == 0.0
        assert traj.segments == ()

    def test_randomized_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x0, xf = rng.uniform(-5, 5, 2)
            M0 = rng.uniform(0.1, 3.0)
            traj = plan(Problem(1, (x0,), (xf,), (M0, None)))
            assert traj.t_f == abs(xf - x0) / M0


class TestSecondOrder:
    def test_symmetric_two_bang(self):
        traj = plan(Problem(2, (0.0, 0.5), (0.0, 0.0), (1.0, None, None)))
        assert traj.t_f == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert traj.asl.text() == "-0 +0"

    def test_cruise(self):
        traj = plan(Problem(2, (0.0, 2.0), (0.0, 0.0), (1.0, 1.0, None)))
        assert traj.t_f == pytest.approx(3.0, abs=1e-12)
        assert traj.asl.text() == "-0 -1 +0"
        assert [s.duration for s in traj.segments] == \
            pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_against_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            M1 = float(rng.uniform(0.4, 2.0)) if rng.random() < 0.5 else None
            M0 = float(rng.uniform(0.4, 2.0))
            vcap = M1 if M1 is not None else 3.0
            prob = Problem(2,
                           (float(rng.uniform(-vcap, vcap)), float(rng.uniform(-4, 4))),
                           (float(rng.uniform(-vcap, vcap)), float(rng.uniform(-4, 4))),
                           (M0, M1, None))
            traj = plan(prob)
            expected = oracle.double_integrator_tf(prob.x0, prob.xf, M0, M1)
            assert traj.t_f == pytest.approx(expected, abs=1e-9)

    def test_position_bound_unreachable_is_plan_error(self):
        # turning around from speed 1 overshoots to 2.0, above the 1.9 wall,
        # and no touch construction exists below order 3
        prob = Problem(2, (1.0, 1.5), (-1.0, 1.5), (1.0, 1.0, 1.9))
        with pytest.raises(PlanError):
            plan(prob)


class TestProperPosition:
    def test_braking_displacement(self):
        assert proper_position((1.0, 0.0), (0.0, 0.0), (1.0, 1.0, None)) == \
            pytest.approx(-0.5, abs=1e-12)

    def test_equal_substates(self):
        assert proper_position((0.3, 7.0), (0.3, -2.0), (1.0, 1.0, None)) == \
            pytest.approx(-2.0, abs=1e-12)

    def test_classify_three_ways(self):
        M = (1.0, 1.0, None)
        p_star = proper_position((1.0, 0.0), (0.0, 0.0), M)
        assert classify((1.0, p_star), (0.0, 0.0), M) == PROPER
        assert classify((1.0, p_star + 0.1), (0.0, 0.0), M) == HIGHER
        assert classify((1.0, p_star - 0.1), (0.0, 0.0), M) == LOWER

    def test_unbounded_top_tolerance_scales_with_pstar(self):
        # with x3 unbounded, a start lies on the manifold within EPS_PROPER
        # of p* relative to |p*| (about 100 here), not to 1
        M, xf = (1.0, 1.0, 1.5, None), (0.0, 0.0, 100.0)
        p_star = proper_position((0.5, 0.0, 0.0), xf, M)
        assert 99.0 < p_star < 100.0
        assert classify((0.5, 0.0, p_star + 50 * EPS_PROPER), xf, M) == \
            PROPER
        assert classify((0.5, 0.0, p_star - 150 * EPS_PROPER), xf, M) == \
            LOWER

    def test_third_order_pstar_bits(self):
        # the order-3 gap is x3 less the goal minus the integral of the
        # order-2 sub-plan, to the bit, and fails exactly where that plan does
        M = sampling.default_bounds(3)
        rng, tops = np.random.default_rng(31), np.random.default_rng(32)
        pl = Planner()
        raised = 0
        for _ in range(2000):
            s = tuple(float(rng.uniform(-b, b)) for b in M[1:3])
            xf = tuple(float(rng.uniform(-b, b)) for b in M[1:4])
            state = s + (float(tops.uniform(-M[3], M[3])),)
            ref = _sub_plan_gap(pl, state, xf, M)
            if ref[0] == "error":
                raised += 1
                with pytest.raises(PlanError, match="position bound"):
                    pl._gap_of(3, xf, M)(state)
                continue
            assert pl._gap_of(3, xf, M)(state).hex() == ref[1]
        assert 0 < raised < 2000

    def test_third_order_manifold_membership(self):
        # projecting onto the manifold and planning from there reduces the
        # problem to its lower-order core: times must agree exactly
        M = M3
        x0 = (0.4, -0.2, 0.0)
        xf = (0.0, 0.0, 0.0)
        p_star = proper_position(x0, xf, M)
        proper = Problem(3, (0.4, -0.2, p_star), xf, M)
        lifted = plan(proper)
        sub = plan(Problem(2, x0[:2], xf[:2], M[:3]))
        assert lifted.t_f == pytest.approx(sub.t_f, abs=1e-12)


class TestInterceptTime:
    def test_quadratic_gap(self):
        # descending from (0, 0.5): the gap closes as 0.5 - t^2
        prob = Problem(2, (0.0, 0.5), (0.0, 0.0), (1.0, 1.0, None))
        prefix = plan(Problem(2, (0.0, 0.5), (-1.0, -10.0), (1.0, 1.0, None)))
        # use only the initial saturation piece as the descent prefix
        descent = Trajectory(prefix.segments[:1], prefix.segments[0].duration,
                             prefix.asl, prob)
        t2 = intercept_time(descent, prob.xf, prob.M)
        assert t2 == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_proper_start_is_zero(self):
        prob = Problem(2, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0, None))
        donor = plan(Problem(2, (0.0, 0.0), (-1.0, -10.0), (1.0, 1.0, None)))
        t2 = intercept_time(donor, prob.xf, prob.M)
        assert t2 == pytest.approx(0.0, abs=1e-9)

    def test_no_crossing_returns_none(self):
        # far above the manifold: the descent piece never reaches it
        prob = Problem(2, (0.0, 50.0), (0.0, 0.0), (1.0, 1.0, None))
        donor = plan(Problem(2, (0.0, 50.0), (-1.0, 40.0), (1.0, 1.0, None)))
        descent = Trajectory(donor.segments[:1], donor.segments[0].duration,
                             donor.asl, prob)
        assert intercept_time(descent, prob.xf, prob.M) is None


class TestReferenceProfiles:
    def test_third_order_cruise_profile(self):
        traj = plan(Problem(3, (1.0, -0.375, 4.0), (0.0, 0.0, 0.0), M3))
        assert traj.asl.text() == "-0 -1 +0 -2 +0 +1 -0"
        assert solver.verify(traj, M3, 1e-9) is None

    def test_third_order_touch_profile(self):
        traj = plan(Problem(3, (1.0, -0.375, 3.999), (0.0, 0.0, 4.0), M3))
        assert traj.asl.text() == "-0 +0 (+3,2) +0 -0 +0"
        assert solver.verify(traj, M3, 1e-9) is None

    def test_fourth_order_interception_profile(self):
        traj = plan(Problem(4, (0.75, -0.375, 2.0, 9.0),
                            (0.25, 0.5, -2.0, -5.0), M4))
        assert traj.asl.text() == "-0 -1 +0 -2 +0 +1 -0 ( -3 ) +0 +1 -0 +0"
        assert traj.t_f == pytest.approx(9.8604, abs=5e-3)

    def test_fourth_order_touch_and_cruise_profile(self):
        traj = plan(Problem(4, (1.0, -0.375, 4.0, -10.0),
                            (0.75, -0.375, 2.0, 16.0), M4))
        assert traj.asl.text() == "-0 +0 (+3,2) +0 -0 +0 +3 -0 -1 +0 -0"
        assert solver.verify(traj, M4, 1e-9) is None


class TestPlanUnconstrained:
    def test_symmetric_two_bang(self):
        traj = plan_unconstrained(2, (0.0, 0.5), (0.0, 0.0), 1.0)
        assert traj.t_f == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert traj.segments[0].duration == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_zero_motion(self):
        traj = plan_unconstrained(3, (0.1, 0.2, 0.3), (0.1, 0.2, 0.3), 1.0)
        assert traj.t_f == 0.0

    def test_first_order_closed_form(self):
        traj = plan_unconstrained(1, (0.0,), (3.0,), (2.0))
        assert traj.t_f == 1.5

    def test_switch_count(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            x0 = tuple(rng.uniform(-1, 1, n))
            xf = tuple(rng.uniform(-1, 1, n))
            traj = plan_unconstrained(n, x0, xf, 1.0)
            switches = sum(1 for a, b in zip(traj.segments, traj.segments[1:])
                           if a.u != b.u and a.duration > 0 and b.duration > 0)
            assert switches <= n - 1
            assert all(abs(s.u) == 1.0 for s in traj.segments)

    def test_wide_order4_draws_plan(self):
        # draws 5, 33, 70, 86 and 110 were once lost: the stage solve found
        # no root for either terminal sign
        rng = np.random.default_rng(2004)
        M = (1.0, None, None, None, None)
        for i in range(150):
            x0 = rng.uniform(-5, 5, 4).tolist()
            xf = rng.uniform(-5, 5, 4).tolist()
            traj = plan_unconstrained(4, x0, xf, 1.0)
            assert solver.verify(traj, M, 1e-9) is None, i
            switches = sum(1 for a, b in zip(traj.segments, traj.segments[1:])
                           if a.u != b.u and a.duration > 0 and b.duration > 0)
            assert switches <= 3, i

    def test_order5_draw_91_plans(self):
        # draw 91 failed with "saturation-only system did not converge"
        # while the stage solve's Jacobian came from finite differences
        rng = np.random.default_rng(1005)
        for _ in range(92):
            x0 = rng.uniform(-3, 3, 5).tolist()
            xf = rng.uniform(-3, 3, 5).tolist()
        traj = plan_unconstrained(5, x0, xf, 1.0)
        assert solver.verify(traj, (1.0,) + (None,) * 5, 1e-9) is None
        switches = sum(1 for a, b in zip(traj.segments, traj.segments[1:])
                       if a.u != b.u and a.duration > 0 and b.duration > 0)
        assert switches <= 4

    def test_second_order_is_the_closed_form(self, monkeypatch):
        # order 2 takes plan2, as plan does, not a stage solve
        calls, solve = [], solver.solve_times

        def solve_spy(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_times", solve_spy)
        rng = np.random.default_rng(7)
        for i in range(200):
            x0 = rng.uniform(-3, 3, 2).tolist()
            xf = rng.uniform(-3, 3, 2).tolist()
            traj = plan_unconstrained(2, x0, xf, 1.0)
            assert traj.t_f == pytest.approx(
                oracle.double_integrator_tf(x0, xf, 1.0), abs=1e-12), i
        assert calls == []

    @pytest.mark.parametrize("seed, M, w", [
        (21, (1.0, None, None, 4.0), (1, 1, 3)),
        (22, (1.0, None, None, None), (1, 1, 3)),
        (23, (1.0, None, None, None, 20.0), (1, 1, 2, 10)),
        (24, (1.0, None, None, None, None), (1, 1, 2, 5)),
    ])
    def test_saturation_only_plan_is_not_classified(self, seed, M, w,
                                                    monkeypatch):
        # with no bounded interior state there is no manifold to classify
        # against: plan goes straight to the stage solve, and with no top
        # bound either it is plan_unconstrained
        calls, classify = [], Planner._classify

        def classify_spy(self, *args):
            calls.append(1)
            return classify(self, *args)

        monkeypatch.setattr(Planner, "_classify", classify_spy)
        rng = np.random.default_rng(seed)
        n = len(w)
        for i in range(20):
            x0 = tuple(float(rng.uniform(-wk, wk)) for wk in w)
            xf = tuple(float(rng.uniform(-wk, wk)) for wk in w)
            try:
                traj = plan(Problem(n, x0, xf, M))
            except PlanError:
                continue
            if M[n] is None:
                free = plan_unconstrained(n, x0, xf, M[0])
                assert _bits(free) == _bits(traj), i
        assert calls == []

    def test_off_target_plan_fails_verification(self, monkeypatch):
        bang = Planner._bang

        def off_target(self, n, x0, xf, M0):
            p = bang(self, n, x0, xf, M0)
            (u, t), *rest = p.stages
            return _Plan(((u, t + 0.1), *rest), p.elements)

        monkeypatch.setattr(Planner, "_bang", off_target)
        with pytest.raises(PlanError,
                           match="planned trajectory failed verification"):
            plan_unconstrained(3, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0)


class TestTangentMarkerSearch:
    def test_not_entered_when_feasible(self):
        prob = Problem(3, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), M3)
        free = plan(Problem(3, prob.x0, prob.xf, (1.0, 1.0, 1.5, None)))
        assert violated_sides(prob, free) == []

    def test_entered_on_touch_problem(self):
        prob = Problem(3, (1.0, -0.375, 3.999), (0.0, 0.0, 4.0), M3)
        free = plan(Problem(3, prob.x0, prob.xf, (1.0, 1.0, 1.5, None)))
        traj = tangent_marker_search(prob, free)
        assert "(+3,2)" in traj.asl.text()
        assert solver.verify(traj, M3, 1e-9) is None

    def test_exhaustion_lists_attempts(self):
        # terminal state incompatible with the corridor: every law fails;
        # plan proves it before searching, so run the search unguarded
        prob = Problem(3, (0.52, -0.17, 2.73), (0.37, -1.16, 3.61), M3)
        with pytest.raises(PlanError) as e:
            Planner()._plan(3, prob.x0, prob.xf, prob.M)
        assert e.value.attempted
        with pytest.raises(InfeasibleProblem):
            plan(prob)

    def test_leg_law_that_cannot_assemble_is_skipped(self):
        # x1 is unbounded, so the leg law -0 -1 +0, which rides x1, has no
        # stage system; the search passes over it and fails as a search
        rng = np.random.default_rng(1)
        for _ in range(8):
            prob = sampling.random_problem(3, (1.0, None, 1.5, 4.0), rng, 0.8)
        with pytest.raises(PlanError,
                           match="^no tangent-marker law reaches") as e:
            plan(prob)
        assert e.value.attempted == ("-0 +0 -> (+3,2)", "-0 -1 +0 -> (+3,2)")

    def test_empty_continuation_joins_a_zero_length_ramp(self):
        # the goal is the touch state itself, so the continuation from the
        # touch is empty, and the marker, which sits between saturation
        # stages, needs a zero-length +0 ramp after it
        prob = Problem(3, (1.0, -0.375, 3.999),
                       (-0.19800476624176985, 0.0, 4.0), M3)
        pl = Planner()
        p = pl._marker_search(3, prob.x0, prob.xf, prob.M, [1], 0)
        traj = pl._to_trajectory(p, prob)
        assert traj.asl.text() == "-0 +0 (+3,2) +0"
        assert p.stages[-1] == (1.0, 0.0)
        assert solver.verify(traj, M3, 1e-9) is None

    def test_degree_loop_ends_at_the_first_catalog_that_cannot_be_built(
            self, monkeypatch):
        # from order 7 on the search reaches d = 6, whose catalog exceeds
        # the enumeration cap; with no leg found at d = 2 or 4 it fails as
        # a search, not with the catalog's LawEnumerationError
        monkeypatch.setattr(Planner, "_marker_leg", lambda self, *args: None)
        M = sampling.default_bounds(7)
        x0 = (0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(PlanError,
                           match="^no tangent-marker law reaches") as e:
            Planner()._marker_search(7, x0, (0.0,) * 7, M, [1], 0)
        assert len(e.value.attempted) == (len(laws.enumerate_af(2))
                                          + len(laws.enumerate_af(4)))


class TestNearTouchMarkers:
    """Perturbed copies of the order-3 touch profile, where the free plan
    grazes x3 = +/-M3 and a tangent-marker leg has to reach the touch."""

    def test_marker_plans(self):
        draws = near_touch_draws(12)
        marked = {}
        for i, prob in enumerate(draws):
            try:
                traj = plan(prob)
            except PlanError:
                continue
            if "(+3,2)" in traj.asl.text() or "(-3,2)" in traj.asl.text():
                marked[i] = traj
        assert sorted(marked) == [3, 5, 7, 9, 10, 11]
        for i, traj in marked.items():
            assert traj.t_f <= oracle.exhaustive_tf(draws[i]).t_f + 1e-6

    @pytest.mark.parametrize("i", [7, 15, 23, 24])
    def test_tangent_root_beside_a_crossing(self, i):
        # the touch leg +0 -0 (sigma = -1) of these draws lies beside a
        # crossing root that breaks tangency and bounds (draw 7: touch
        # (1.4027, 0.1300), crossing (1.3640, 0.4882)); the exact leg finds
        # the touch, and the plan matches the oracle's optimum
        prob = near_touch_draws(i + 1)[i]
        traj = plan(prob)
        assert "(+3,2)" in traj.asl.text() or "(-3,2)" in traj.asl.text()
        assert solver.verify(traj, prob.M, 1e-9) is None
        assert traj.t_f == pytest.approx(oracle.exhaustive_tf(prob).t_f,
                                         abs=1e-6)


def _plan4_corpus():
    """perfbench's plan4 corpus at seed 1: 18 order-4 draws of
    ``default_rng(1)``, each mirrored where a ``default_rng(1)`` coin says."""
    M = sampling.default_bounds(4)
    rng = np.random.default_rng(1)
    base = [sampling.random_problem(4, M, rng, 0.8) for _ in range(18)]
    flips = np.random.default_rng(1).integers(0, 2, 18)
    return [Problem(4, tuple(-v for v in p.x0), tuple(-v for v in p.xf), p.M)
            if flip else p for p, flip in zip(base, flips)]


class TestMarkerLegSolves:
    """Degree-2 marker legs are root problems, not numerical stage solves:
    a leg without a root costs one resultant, not a multistart."""

    def test_degree_two_legs_make_no_newton_solve(self, monkeypatch):
        degrees, from_leg, inside = [], [], []
        leg, solve = Planner._marker_leg, solver.solve_times

        def leg_spy(self, n, x0, M, signed_law, sigma, d):
            degrees.append(d)
            inside.append(True)
            try:
                return leg(self, n, x0, M, signed_law, sigma, d)
            finally:
                inside.pop()

        def solve_spy(*args, **kwargs):
            from_leg.append(bool(inside))
            return solve(*args, **kwargs)

        monkeypatch.setattr(Planner, "_marker_leg", leg_spy)
        monkeypatch.setattr(solver, "solve_times", solve_spy)
        for prob in _plan4_corpus() + near_touch_draws(40):
            try:
                plan(prob)
            except PlanError:
                pass
        assert degrees and set(degrees) == {2}
        assert not any(from_leg)

    def test_degree_two_candidates_pass_the_solver_rule(self, monkeypatch):
        # each leg checks its exact candidates with solver.accepted,
        # shortest first, up to the one it keeps; the states it reads are
        # accepted's, so no propagate call comes from _marker_leg itself
        legs, own = [], []
        leg, touch_times = Planner._marker_leg, Planner._touch_times
        accepted, propagate = solver.accepted, kinematics.propagate

        def leg_spy(self, *args):
            legs.append({"candidates": [], "checked": []})
            legs[-1]["result"] = leg(self, *args)
            return legs[-1]["result"]

        def touch_spy(self, *args):
            out = touch_times(self, *args)
            legs[-1]["candidates"].extend(out)
            return out

        def accepted_spy(system, t):
            legs[-1]["checked"].append(t)
            return accepted(system, t)

        def propagate_spy(*args):
            caller = sys._getframe(1).f_code.co_qualname
            if caller.startswith("Planner._marker_leg"):
                own.append(caller)
            return propagate(*args)

        monkeypatch.setattr(Planner, "_marker_leg", leg_spy)
        monkeypatch.setattr(Planner, "_touch_times", touch_spy)
        monkeypatch.setattr(solver, "accepted", accepted_spy)
        monkeypatch.setattr(kinematics, "propagate", propagate_spy)
        for prob in near_touch_draws(40):
            try:
                plan(prob)
            except PlanError:
                pass
        assert any(rec["result"] is not None for rec in legs)
        assert any(len(rec["checked"]) > 1 for rec in legs)
        for rec in legs:
            ordered = sorted(rec["candidates"], key=sum)
            assert rec["checked"] == ordered[:len(rec["checked"])]
            if rec["result"] is None:
                assert len(rec["checked"]) == len(ordered)
        assert own == []

    def test_group_leg_has_one_stage_per_behavior(self, monkeypatch):
        # an order-4 group law as a degree-4 leg of order 5, with its solve
        # stubbed to zero durations that meet every condition: the leg
        # walks the real chain, not the virtual group's duration
        law = asl_parse("-0 +0 (+3,2) +0 -0 +0 ( +3 ) -0 +0 (+3,2) +0 -0 +0")
        M = sampling.default_bounds(5)
        monkeypatch.setattr(
            solver, "solve_times",
            lambda system, **kw: solver.accepted(
                system, [0.0] * system.num_unknowns))
        walk = solver.StageSystem.walk
        monkeypatch.setattr(
            solver.StageSystem, "walk",
            lambda self, times: ([0.0] * self.num_equations, None,
                                 walk(self, times)[2]))
        leg = Planner()._marker_leg(5, (-0.5, 0.0, 0.0, 0.0, 0.0), M, law, 1,
                                    4)
        assert leg is not None
        behaviors = [e for e in law.elements if isinstance(e, Behavior)]
        assert leg[0].stages == tuple((b.sign * M[0], 0.0) for b in behaviors)


def _seed5_draws(n, M, count):
    rng = np.random.default_rng(5)
    return [sampling.random_problem(n, M, rng, 0.8) for _ in range(count)]


def _certified_infeasible(prob):
    try:
        Planner()._raise_if_infeasible(prob)
    except InfeasibleProblem:
        return True
    return False


class TestInfeasibilityCertificate:
    """``Planner.plan`` proves a problem of order 3 or more infeasible when
    a boundary state of its order-3 projection, (x0[:3], xf[:3], M[:4]),
    has a hardest brake that leaves |x3| <= M3, and one of order 2 when its
    plan leaves |x2| <= M2."""

    @staticmethod
    def _draws(seed):
        rng = np.random.default_rng(seed)
        M = sampling.default_bounds(3)
        return [sampling.random_problem(3, M, rng, 0.8) for _ in range(350)]

    @pytest.mark.parametrize("seed, count", [(1, 23), (1003, 10)])
    def test_flags_no_plannable_draw(self, seed, count):
        flagged = [p for p in self._draws(seed) if _certified_infeasible(p)]
        assert len(flagged) == count
        for prob in flagged:
            with pytest.raises(PlanError):
                Planner()._plan(3, prob.x0, prob.xf, prob.M)

    def test_flags_the_search_failures_of_seed_1(self):
        # every "no tangent-marker law" failure of the search but 333, which
        # the oracle solves (law 000); the oracle, which takes every real
        # solution of every catalog law, finds none for any certified draw
        # of seeds 1 and 1003
        draws = self._draws(1)
        flagged = [i for i, p in enumerate(draws) if _certified_infeasible(p)]
        assert flagged == [
            53, 79, 89, 93, 102, 108, 148, 155, 160, 171, 175, 185, 196, 205,
            223, 225, 236, 251, 270, 275, 299, 324, 341]
        for i in (53, 79, 89):
            with pytest.raises(InfeasibleProblem,
                               match="^no tangent-marker law exists"):
                plan(draws[i])
        certified = [draws[i] for i in flagged] + [
            p for p in self._draws(1003) if _certified_infeasible(p)]
        assert len(certified) == 33
        for prob in certified:
            with pytest.raises(oracle.OracleError):
                oracle.exhaustive_tf(prob)

    def test_order_4_projections(self):
        # the 16 certified draws of the first 300 at seed 1 failed the
        # search with "no tangent-marker law reaches x3" before the
        # certificate covered every order; no draw that plans is flagged
        rng = np.random.default_rng(1)
        draws = [sampling.random_problem(4, sampling.default_bounds(4), rng,
                                         0.8) for _ in range(300)]
        flagged = [i for i, p in enumerate(draws) if _certified_infeasible(p)]
        assert flagged == [27, 32, 70, 73, 81, 88, 111, 124, 127, 147, 206,
                           230, 232, 250, 270, 275]
        for i in (27, 32, 70):
            with pytest.raises(InfeasibleProblem,
                               match="^no tangent-marker law exists: the "
                                     r"(start|goal) of the order-3 projection "
                                     r"\(x1, x2, x3\)"):
                plan(draws[i])

    def test_order_2_position_bound(self):
        # an order-2 plan turns at full control, as soon as any trajectory
        # can, so one that leaves |x2| <= M2 proves the problem infeasible;
        # the oracle finds no catalog law for any of these draws
        rng = np.random.default_rng(5)
        raised = 0
        for _ in range(300):
            prob = sampling.random_problem(2, sampling.default_bounds(2), rng,
                                           0.95)
            try:
                plan(prob)
            except InfeasibleProblem as e:
                assert str(e).startswith("position bound exceeded at order 2")
                with pytest.raises(oracle.OracleError):
                    oracle.exhaustive_tf(prob)
                raised += 1
        assert raised == 26

    def test_mirror_gives_the_same_flag(self):
        for prob in self._draws(1):
            mirrored = Problem(3, tuple(-v for v in prob.x0),
                               tuple(-v for v in prob.xf), prob.M)
            assert _certified_infeasible(mirrored) == \
                _certified_infeasible(prob)

    def test_both_states_past_the_wall_proves_nothing(self):
        # both brakes peak above M3 on the same side, yet 0.1 s joins them
        prob = Problem(3, (0.0, 1.0, 3.5), (0.0, 1.0, 3.6), M3)
        assert kinematics.brake_peak(prob.x0, 1.0, 1.0) > 4.0
        assert kinematics.brake_peak(prob.xf, 1.0, 1.0) > 4.0
        traj = plan(prob)
        assert traj.t_f == pytest.approx(0.1, abs=1e-3)
        assert solver.verify(traj, M3, 1e-9) is None

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.9])
    def test_time_to_reach_is_tight(self, tau):
        # tau s of the hardest brake, whose x3 passes M3 later, reach xf in
        # exactly the time x1 needs and at exactly the brake's x3 then, so
        # the time-to-reach rule proves nothing, forward or time-reversed
        # (R x flips x2); a longer time would flag both
        M = (1.0, 1.0, None, 4.0)
        x0 = (0.0, 2.0, 2.0)
        xf = kinematics.propagate(x0, -1.0, tau)
        assert kinematics.brake_peak(x0, 1.0, 1.0) > 4.0
        for prob in (Problem(3, x0, xf, M),
                     Problem(3, (xf[0], -xf[1], xf[2]),
                             (x0[0], -x0[1], x0[2]), M)):
            assert not _certified_infeasible(prob)
            assert plan(prob).t_f == pytest.approx(tau, abs=1e-12)

    def test_unbounded_velocity_draws(self):
        # 58 draws fail with "no tangent-marker law"; 17 and 20 plan
        # (TestRidePath).  Both of draw 11's reversed states' brakes peak
        # beyond M3 on one side, which proves nothing, but in the time x1
        # needs the goal's brake passes x3 beyond x0's; the oracle finds no
        # law for it either
        draws = _seed5_draws(3, (1.0, 1.0, None, 4.0), 60)
        flagged = {i for i, p in enumerate(draws) if _certified_infeasible(p)}
        assert flagged == set(range(60)) - {17, 20}
        with pytest.raises(oracle.OracleError):
            oracle.exhaustive_tf(draws[11])
        with pytest.raises(InfeasibleProblem,
                           match="^no tangent-marker law exists: the goal "
                                 r".* in the [0-9.]+ s that x1 needs\)$"):
            plan(draws[11])

    def test_time_to_reach_order_4(self):
        # draws 1, 6 and 9 failed the marker search ("no tangent-marker law
        # reaches x3") until the time x1 needs proved them infeasible; no
        # draw that plans is flagged
        draws = _seed5_draws(4, (1.0, 1.0, None, 4.0, 20.0), 60)
        flagged = {i for i, p in enumerate(draws) if _certified_infeasible(p)}
        assert flagged == set(range(60)) - {20, 28, 33, 35, 49}
        for i in (20, 28, 33, 35, 49):
            assert solver.verify(plan(draws[i]), draws[i].M, 1e-9) is None
        for i in (1, 6, 9):
            with pytest.raises(InfeasibleProblem,
                               match=r"s that x1 needs\)$"):
                plan(draws[i])


class TestRidePath:
    """The lower branch ascends with the order-m plan to x_m's cruise, for
    x_m the highest bounded state below the top, and rides it as its path's
    last stage.  With x_{n-1} unbounded (m < n - 1) it brackets the crossing
    on the ride by doubling the ride time."""

    def test_order4_rides_and_verifies(self, monkeypatch):
        hand_over = Planner._hand_over
        reached = set()
        draw = [None]

        def spy(self, n, x0, stages, g, xf, M):
            hit = hand_over(self, n, x0, stages, g, xf, M)
            if hit[0] == len(stages) - 1 and M[n - 1] is None:
                reached.add(draw[0])
            return hit

        monkeypatch.setattr(Planner, "_hand_over", spy)
        M = (1.0, 1.0, 1.5, None, 20.0)
        planned, invalid = 0, []
        for i, prob in enumerate(_seed5_draws(4, M, 60)):
            draw[0] = i
            try:
                traj = plan(prob)
            except PlanError as e:
                if "planned law is invalid" in str(e):
                    invalid.append(i)
                continue
            planned += 1
            assert solver.verify(traj, prob.M, 1e-9) is None
        assert len(reached) == 45
        assert planned == 20
        # draw 18's order-2 ascent reaches x2's cruise through a ramp of
        # 1 s, so its ride splice keeps the law's sign chain
        assert invalid == []

    @pytest.mark.parametrize("index", [17, 20])
    def test_order3_ride_splice_plans_optimally(self, index):
        # the ascent is the order-1 ramp to x1 = M1, and the manifold
        # intercepts its ride
        prob = _seed5_draws(3, (1.0, 1.0, None, 4.0), index + 1)[index]
        traj = plan(prob)
        assert solver.verify(traj, prob.M, 1e-9) is None
        assert traj.t_f <= oracle.exhaustive_tf(prob).t_f + 1e-9

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_ascent_ending_in_zero_length_ramps_keeps_the_sign_chain(self, s):
        # x2 starts 1e-12 below its cruise, so the ascent to it is a lone
        # zero-length +0 ramp; kept, that ramp would break the sign chain
        # before the ride +2
        prob = Problem(3, (0.0, s * (1.5 - 1e-12), s * -3.0),
                       (0.0, 0.0, s * 3.0), M3)
        traj = plan(prob)
        assert traj.asl.text() == ("+2 -0 -1 +0" if s > 0 else "-2 +0 +1 -0")
        assert traj.t_f == pytest.approx(5.25, abs=1e-9)
        assert solver.verify(traj, M3, 1e-9) is None

    def test_order3_unbounded_x2_plans_at_the_oracle_t_f(self):
        # the ascent to x1's cruise is the order-1 plan and leaves x2 free;
        # an ascent that pins x2 to 0 detours (seed 5 draw 286 then takes
        # 11.219 s against the oracle's 6.515 s)
        M = (1.0, 1.0, None, 4.0)
        planned = 0
        for seed in (5, 7):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                prob = sampling.random_problem(3, M, rng, 0.8)
                try:
                    traj = plan(prob)
                except PlanError:
                    continue
                planned += 1
                assert traj.t_f == pytest.approx(
                    oracle.exhaustive_tf(prob).t_f, abs=1e-9)
        assert planned == 29


# a prefix plan with the start state that the grid scan walks it from
_Walk = namedtuple("_Walk", "x0 stages")


class _GridScanPlanner(Planner):
    """Reference interception by grid scan in ascent time: 64 points per
    stage at order <= 3; above, a stage-end pass whose bracket is
    grid-refined, falling back to the full grid.  The stage-end pass must
    find what it finds.  Past the ascent, the planner's own ride takes over
    from the ascent end state and a fresh gap there."""

    GRID = 64

    def __init__(self):
        super().__init__()
        self.hand_overs = 0

    def _hand_over(self, n, x0, stages, g, xf, M):
        # the start gap g is not used: the grid evaluates its own
        self.hand_overs += 1
        ascent = _Walk(x0, stages[:-1])
        if n <= 3:
            hit = self._scan_over(n, ascent, xf, M, self.GRID)
        else:
            hit = self._scan_over(n, ascent, xf, M, 1, refine=self.GRID) \
                or self._scan_over(n, ascent, xf, M, self.GRID)
        if hit is not None:
            return hit
        end = x0
        for u, dur in ascent.stages:
            end = kinematics.propagate(end, u, dur)
        try:
            g_end = self._gap_of(n, xf, M)(end)
        except PlanError:
            g_end = None
        _, tau, state = super()._hand_over(n, end, stages[-1:], g_end, xf, M)
        return len(stages) - 1, tau, state

    def _scan_over(self, n, prefix, xf, M, grid, refine=0):
        g_prev = None
        t_prev = 0.0
        t0 = 0.0
        cur = prefix.x0
        for u, dur in prefix.stages:
            samples = [(0.0, cur)] if t0 == 0.0 and g_prev is None else []
            if dur > 0.0:
                for i in range(1, grid + 1):
                    tau = dur * i / grid
                    samples.append((tau, kinematics.propagate(cur, u, tau)))
            for tau, state in samples:
                try:
                    g = self._gap_of(n, xf, M)(state)
                except PlanError:
                    g_prev = None
                    continue
                t_abs = t0 + tau
                if g == 0.0:
                    return self._stage_local(prefix, t_abs)
                if g_prev is not None and (g_prev < 0.0) != (g < 0.0):
                    if refine:
                        sub = self._refine_bracket(n, prefix, xf, M, t_prev,
                                                   g_prev, t_abs, refine)
                        if sub is not None:
                            t_prev, g_prev, t_abs, g = sub
                    return self._solve(n, prefix, xf, M, t_prev, g_prev,
                                       t_abs, g)
                g_prev, t_prev = g, t_abs
            t0 += dur
            cur = kinematics.propagate(cur, u, dur)
        return None

    def _state_at(self, prefix, t):
        cur = prefix.x0
        for u, dur in prefix.stages:
            if t <= dur:
                return kinematics.propagate(cur, u, t)
            t -= dur
            cur = kinematics.propagate(cur, u, dur)
        return cur

    def _solve(self, n, prefix, xf, M, lo, g_lo, hi, g_hi):
        def g_of(t):
            try:
                return self._gap_of(n, xf, M)(self._state_at(prefix, t))
            except PlanError:
                return None

        t = kinematics.bracket_root(g_of, lo, g_lo, hi, g_hi, 1e-13)
        return self._stage_local(prefix, t)

    def _stage_local(self, prefix, t):
        """(j, tau, state) for prefix time t: the first stage that ends at or
        after t, or the last stage."""
        elapsed = 0.0
        last = len(prefix.stages) - 1
        for j, (u, dur) in enumerate(prefix.stages):
            if t <= elapsed + dur or j == last:
                tau = min(max(t - elapsed, 0.0), dur)
                return j, tau, self._state_at(prefix, t)
            elapsed += dur

    def _refine_bracket(self, n, prefix, xf, M, lo, g_lo, hi, grid):
        step = (hi - lo) / grid
        t, g_t = lo, g_lo
        for i in range(1, grid + 1):
            t_next = lo + i * step
            try:
                g_next = self._gap_of(n, xf, M)(self._state_at(prefix, t_next))
            except PlanError:
                return None
            if g_next == 0.0 or (g_t < 0.0) != (g_next < 0.0):
                return t, g_t, t_next, g_next
            t, g_t = t_next, g_next
        return None


def _outcome(planner, prob):
    """("ok", law, t_f) or (error class, message up to its details, None)."""
    try:
        traj = planner.plan(prob)
    except PlanError as e:
        return type(e).__name__, str(e).split(":")[0].split(" (")[0], None
    return "ok", traj.asl.text(), traj.t_f


class TestInterceptBoundaryPass:
    """Solving the first stage whose end gaps differ in sign finds the
    crossing that the 64-point grid scan found."""

    @pytest.mark.parametrize("n, count", [(3, 100), (4, 4)])
    def test_matches_grid_scan(self, n, count):
        rng = np.random.default_rng(1)
        M = sampling.default_bounds(n)
        planned = hand_overs = 0
        for _ in range(count):
            prob = sampling.random_problem(n, M, rng, 0.8)
            grid = _GridScanPlanner()
            kind, law, t_f = _outcome(Planner(), prob)
            ref_kind, ref_law, ref_t_f = _outcome(grid, prob)
            hand_overs += grid.hand_overs
            assert (kind, law) == (ref_kind, ref_law)
            if kind == "ok":
                planned += 1
                assert abs(t_f - ref_t_f) <= 1e-12
        assert planned > count // 2
        # the reference's own search ran, so the planner was not compared
        # with itself
        assert hand_overs > count // 2

    def test_failed_gap_evaluation_splits_the_bracket(self):
        # x1 climbs 0 -> 1 -> 2 -> 3 over three stages and the gap is
        # x1 - 1.5; where no lower-order plan exists at x1 = 2, the ends at
        # x1 = 1 and x1 = 3 must not form a bracket
        class Line(Planner):
            def _gap_of(self, n, xf, M):
                return lambda state: state[0] - 1.5

        class Gappy(Line):
            def _gap_of(self, n, xf, M):
                line = super()._gap_of(n, xf, M)

                def gap(state):
                    if state[0] == 2.0:
                        raise PlanError("no lower-order plan")
                    return line(state)

                return gap

        x0, stages = (0.0, 0.0), [(1.0, 1.0)] * 3 + [(0.0, math.inf)]
        j, tau, _ = Line()._hand_over(2, x0, stages, -1.5, None, None)
        assert (j, tau) == (1, 0.5)
        # no crossing: the walk reaches the ride at the last stage end,
        # x1 = 3, where the gap 1.5 is already past the manifold
        with pytest.raises(PlanError, match="^ascent prefix overshot"):
            Gappy()._hand_over(2, x0, stages, -1.5, None, None)

    def test_zero_gap_after_a_failed_evaluation_ends_the_walk(self):
        # x1 climbs 0 -> 1 -> 2 -> 3 and the gap is x1 - 2, with no
        # lower-order plan at x1 = 1: the end at x1 = 2 lies on the manifold
        # although no bracket leads to it
        class Gappy(Planner):
            def _gap_of(self, n, xf, M):
                def gap(state):
                    if state[0] == 1.0:
                        raise PlanError("no lower-order plan")
                    return state[0] - 2.0

                return gap

        x0, stages = (0.0, 0.0), [(1.0, 1.0)] * 3 + [(0.0, math.inf)]
        end = kinematics.propagate(kinematics.propagate(x0, 1.0, 1.0), 1.0, 1.0)
        assert Gappy()._hand_over(2, x0, stages, -2.0, None, None) == \
            (1, 1.0, end)

    def test_failed_gap_evaluation_ends_the_ride_solve(self):
        # x2 = tau on the ride from (1, 0) and the gap is x2 - 3; with x1
        # unbounded the ride has no closed form, so doubling brackets the
        # crossing in [2, 4], and the solve's first evaluation, at 3, finds
        # no lower-order plan, so it stops at the best iterate
        class Gappy(Planner):
            def _gap_of(self, n, xf, M):
                def gap(state):
                    if 2.5 < state[1] < 3.5:
                        raise PlanError("no lower-order plan")
                    return state[1] - 3.0

                return gap

        hit = Gappy()._hand_over(2, (1.0, 0.0), [(0.0, math.inf)], -3.0,
                                 None, (1.0, None, None))
        assert hit == (0, 4.0, (1.0, 4.0))

    def test_failed_end_gap_fails_the_ride_with_its_error(self):
        # below the manifold, the ascent to x2 = M2 meets no lower-order plan
        # at any stage end: the ride fails with that plan's own error
        prob = Problem(3, (0.0, 0.0, -2.0), (0.0, 0.0, 0.0), M3)

        class Gappy(Planner):
            def _gap_of(self, n, xf, M):
                real = super()._gap_of(n, xf, M)

                def gap(state):
                    # the start classifies as before; no later state has a
                    # lower-order plan
                    if state == prob.x0:
                        return real(state)
                    raise PlanError("no lower-order plan")

                return gap

        assert classify(prob.x0, prob.xf, prob.M) == LOWER
        with pytest.raises(PlanError, match="^no lower-order plan$"):
            Gappy()._plan_free(3, prob.x0, prob.xf, prob.M)


def _sub_plan_gap(pl, state, xf, M):
    """The order-3 gap by its definition: x3 less the goal minus the
    integral of x2 along the order-2 plan of the sub-state, ("gap", its
    bits), or ("error", that plan's message) where it fails."""
    cur = state[:2]
    try:
        stages = pl._plan(2, cur, xf[:2], M).stages
    except PlanError as e:
        return "error", str(e)
    total = 0.0
    for u, t in stages:
        total += kinematics.integral_top(cur, u, t)
        cur = kinematics.propagate(cur, u, t)
    return "gap", (state[2] - (xf[2] - total)).hex()


@pytest.mark.seeded
class TestGapFunction:
    """Seeded: the order-3 gap function takes p* from one
    ``kinematics.plan2_top`` call.  Along the ascents and rides that plan3's
    corpus hands over on, each gap must be the integral along the order-2
    plan's, to the bit, and each failure that plan's error."""

    def test_order3_matches_sub_plan_integral(self, monkeypatch):
        hand_over = Planner._hand_over
        walks = []

        def spy(self, n, x0, stages, g, xf, M):
            if n == 3:
                walks.append((x0, stages, xf, M))
            return hand_over(self, n, x0, stages, g, xf, M)

        monkeypatch.setattr(Planner, "_hand_over", spy)
        rng = np.random.default_rng(1)
        M = sampling.default_bounds(3)
        for _ in range(350):
            prob = sampling.random_problem(3, M, rng, 0.8)
            for q in (prob, _mirror(prob)):
                _outcome(Planner(), q)
        pl = Planner()
        kinds = {"gap": 0, "error": 0}

        def check(gap, state, xf, M):
            try:
                got = "gap", gap(state).hex()
            except PlanError as e:
                got = "error", str(e)
            assert got == _sub_plan_gap(pl, state, xf, M)
            kinds[got[0]] += 1

        for x0, stages, xf, M in walks:
            gap = pl._gap_of(3, xf, M)
            cur = x0
            # each ascent stage and 4 s of the ride, at 8 steps each
            for u, dur in list(stages[:-1]) + [(0.0, 4.0)]:
                for i in range(9):
                    state = kinematics.propagate(cur, u, dur * i / 8)
                    check(gap, state, xf, M)
                cur = kinematics.propagate(cur, u, dur)
            # x1 pushing x2 out past its bound: no order-2 plan
            for sign in (1.0, -1.0):
                check(gap, (sign * M[1], sign * M[2], x0[2]), xf, M)
        assert len(walks) > 300
        assert kinds["gap"] > 10_000 and kinds["error"] > 300


class TestGapEvaluations:
    """The lower branch walks the ascent and its cruise once: the gap that
    classifies the start opens the walk, and the ride continues from the
    walk's last stage end and gap, so no order plans the same sub-state
    twice in a row; and each level classifies its start once."""

    @pytest.mark.parametrize("n, count", [(3, 100), (4, 4)])
    def test_no_lower_order_plan_repeats(self, n, count, monkeypatch):
        # every lower-order plan of a sub-state: each gap evaluation's,
        # the classification's among them (the hook ``_gap_of``)
        gap_of = Planner._gap_of
        last, calls, repeats = {}, [0], []

        def spy(k, sub_state, xf):
            key = (tuple(sub_state), tuple(xf))
            calls[0] += 1
            if last.get(k) == key:
                repeats.append(k)
            last[k] = key

        def gap_of_spy(self, k, xf, M):
            gap = gap_of(self, k, xf, M)

            def spied(state):
                spy(k, state[:-1], xf)
                return gap(state)

            return spied

        monkeypatch.setattr(Planner, "_gap_of", gap_of_spy)
        rng = np.random.default_rng(1)
        M = sampling.default_bounds(n)
        for _ in range(count):
            _outcome(Planner(), sampling.random_problem(n, M, rng, 0.8))
        assert calls[0] > 100 * n
        assert repeats == []

    @pytest.mark.parametrize("n, count", [(3, 100), (4, 4)])
    def test_one_classification_per_level(self, n, count, monkeypatch):
        # a start above the manifold plans its mirror below it without
        # classifying the mirror again
        plan_free, classify = Planner._plan_free, Planner._classify
        active, self_calls, per_call = [], [], []

        def plan_free_spy(self, k, x0, xf, M):
            if active and active[-1][0] == k:
                self_calls.append(k)
            frame = [k, 0]
            active.append(frame)
            try:
                return plan_free(self, k, x0, xf, M)
            finally:
                active.pop()
                per_call.append(frame[1])

        def classify_spy(self, k, x0, xf, M):
            active[-1][1] += 1
            return classify(self, k, x0, xf, M)

        monkeypatch.setattr(Planner, "_plan_free", plan_free_spy)
        monkeypatch.setattr(Planner, "_classify", classify_spy)
        rng = np.random.default_rng(1)
        M = sampling.default_bounds(n)
        for _ in range(count):
            prob = sampling.random_problem(n, M, rng, 0.8)
            _outcome(Planner(), prob)
            _outcome(Planner(), Problem(n, tuple(-v for v in prob.x0),
                                        tuple(-v for v in prob.xf), M))
        assert len(per_call) > count
        assert self_calls == []
        assert set(per_call) == {1}


class TestRootCounts:
    """Evaluations per root of kinematics.bracket_root on the first 100
    seed-1 order-3 draws: a bisection to the same tolerances takes about 37
    for both kinds.  A root of a ``partial`` of ``kinematics.horner`` is a
    polynomial root, any other a manifold-gap root.  Planning them brackets
    no polynomial root, since their bound scans solve derivatives of degree
    <= 2 in closed form; so the polynomial roots counted are those of
    ``kinematics.real_roots`` on every derivative that the scans took.
    No plan lists a segment's samples: the bound scans read
    ``segment_range`` alone, and at order 3 ``segment_samples`` runs only
    to report a failed ``segment_bound_check``, which none of these draws
    has."""

    def test_evaluations_per_root(self, monkeypatch):
        solve = kinematics.bracket_root
        scan = kinematics.segment_range
        samples = kinematics.segment_samples
        counts = {"gap": [0, 0], "poly": [0, 0]}
        scans = []
        listings = []

        def counted(f, *args):
            poly = isinstance(f, partial) and f.func is kinematics.horner
            tally = counts["poly" if poly else "gap"]
            tally[0] += 1

            def g(t):
                tally[1] += 1
                return f(t)

            return solve(g, *args)

        def scanned(x, u, T, k):
            if T > 0.0 and k >= 2:
                scans.append((kinematics.state_polynomial(x, u, k - 1), T))
            return scan(x, u, T, k)

        def listed(*args):
            listings.append(args)
            return samples(*args)

        monkeypatch.setattr(kinematics, "bracket_root", counted)
        monkeypatch.setattr(kinematics, "segment_range", scanned)
        monkeypatch.setattr(kinematics, "segment_samples", listed)
        rng = np.random.default_rng(1)
        M = sampling.default_bounds(3)
        for _ in range(100):
            _outcome(Planner(), sampling.random_problem(3, M, rng, 0.8))
        assert counts["poly"] == [0, 0]
        assert listings == []
        for deriv, T in scans:
            if any(deriv):
                kinematics.real_roots(deriv, (0.0, T))
        (gap_roots, gap_evals), (poly_roots, poly_evals) = \
            counts["gap"], counts["poly"]
        assert gap_roots > 50 and poly_roots > 500
        assert gap_evals <= 12 * gap_roots
        assert poly_evals <= 3 * poly_roots


def _plan3_draws(count):
    """The first ``count`` problems of the plan3 corpus: seed 1,
    ``default_bounds(3)``, margin 0.8."""
    rng = np.random.default_rng(1)
    M = sampling.default_bounds(3)
    return [sampling.random_problem(3, M, rng, 0.8) for _ in range(count)]


def _mirrored(state, xf, M):
    """Whether plan2 takes (x1, x2) of the state to xf's by its mirrored
    profile, read from the stages it returns: two or three, the first at
    -M0."""
    stages = kinematics.plan2(state[0], state[1], xf[0], xf[1], M[0], M[1])
    return len(stages) > 1 and stages[0][0] < 0.0


def _spy_stage_roots(monkeypatch):
    """Record each order-3 ``_stage_root`` call, its arguments and result,
    in the list returned."""
    calls = []

    def spied(gap, start, u, lo, g_lo, hi, g_hi, *rest):
        tau, state = _stage_root(gap, start, u, lo, g_lo, hi, g_hi, *rest)
        if len(start) == 3:
            calls.append((gap, start, u, lo, g_lo, hi, g_hi, tau, state))
        return tau, state

    monkeypatch.setattr("chainplan.planner._stage_root", spied)
    return calls


class TestGapJump:
    """The order-3 gap jumps where plan2 switches to its mirrored profile
    (ROADMAP item 4).  Draw 16 of the plan3 corpus hands over at such a
    jump, from -0.045 to +0.487 at tau = 1.19039.  Brent's method bisected
    it in about 50 gap evaluations; the hand-over now locates the branch
    change and takes the jump there.  It still fails verification: the
    jump is located, not mended."""

    @pytest.fixture(scope="class")
    def draw16(self):
        return _plan3_draws(17)[16]

    def test_few_gap_evaluations(self, monkeypatch, draw16):
        hand_over, gap_of = Planner._hand_over, Planner._gap_of
        inside, counts = [], []

        def hand_over_spy(self, n, *args):
            inside.append(n == 3)
            if n == 3:
                counts.append(0)
            try:
                return hand_over(self, n, *args)
            finally:
                inside.pop()

        def gap_of_spy(self, n, xf, M):
            gap = gap_of(self, n, xf, M)

            def counted(state):
                if inside and inside[-1]:
                    counts[-1] += 1
                return gap(state)

            return counted

        monkeypatch.setattr(Planner, "_hand_over", hand_over_spy)
        monkeypatch.setattr(Planner, "_gap_of", gap_of_spy)
        _outcome(Planner(), draw16)
        assert counts and max(counts) <= 12

    def test_hand_over_at_a_sign_change(self, monkeypatch, draw16):
        calls = _spy_stage_roots(monkeypatch)
        _outcome(Planner(), draw16)
        (gap, start, u, *_, tau, state), = calls

        def below(t):
            return gap(kinematics.propagate(start, u, t)) < 0.0

        # a jump, not a root
        assert abs(gap(state)) > 1e-3
        assert below(tau - INTERCEPT_TOL) != below(tau) \
            or below(tau) != below(tau + INTERCEPT_TOL)

    def test_still_fails_verification(self, draw16):
        with pytest.raises(PlanError, match=r"VerifyFailure\(reason='terminal "
                                            r"state off target', k=3,"):
            plan(draw16)

    def test_ordinary_roots_keep_brent_bits(self, monkeypatch):
        # a bracket across a branch change that holds an ordinary root is
        # solved by Brent's method on the whole bracket, as if no check ran
        calls = _spy_stage_roots(monkeypatch)
        checked = 0
        for prob in _plan3_draws(350):
            calls.clear()
            _outcome(Planner(), prob)
            for gap, start, u, lo, g_lo, hi, g_hi, tau, state in calls:
                if _mirrored(kinematics.propagate(start, u, lo), prob.xf,
                             prob.M) == _mirrored(kinematics.propagate(
                                 start, u, hi), prob.xf, prob.M):
                    continue

                def f(t):
                    try:
                        return gap(kinematics.propagate(start, u, t))
                    except PlanError:
                        return None

                ref = kinematics.bracket_root(f, lo, g_lo, hi, g_hi,
                                              INTERCEPT_TOL)
                g_ref = f(ref)
                if g_ref is None or abs(g_ref) > 1e-9:
                    continue  # a jump
                checked += 1
                assert tau.hex() == ref.hex()
                assert state == kinematics.propagate(start, u, ref)
        assert checked >= 40


class TestSwitchSearch:
    """``planner._switch`` bisects a predicate to the point where it changes
    value, the search that both the order-3 and the higher-order hand-over
    run before Brent's method."""

    @pytest.mark.parametrize("lo, hi, at", [
        (0.0, 1.0, 0.3), (0.0, 1.0, 1e-14), (0.0, 1.0, 1.0 - 1e-14),
        (-3.0, 2.5, -1.25), (0.0, 2e-13, 1e-13), (1e6, 2e6, 1.5e6 + 1e-7),
    ])
    @pytest.mark.parametrize("rising", [True, False])
    def test_brackets_the_change(self, lo, hi, at, rising):
        reads = []

        def side(t):
            reads.append(t)
            return (t > at) == rising

        a, b = _switch(side, lo, hi)
        assert reads[:2] == [lo, hi]
        assert lo <= a < b <= hi
        assert side(a) == side(lo) and side(b) == side(hi)
        # at most INTERCEPT_TOL apart, or adjacent floats where the spacing
        # of floats there is wider
        assert b - a <= INTERCEPT_TOL or b == math.nextafter(a, math.inf)

    @pytest.mark.parametrize("side", [
        lambda t: True, lambda t: False, lambda t: 0.2 < t < 0.7,
    ], ids=["true", "false", "same-at-both-ends"])
    def test_none_where_the_ends_agree(self, side):
        assert _switch(side, 0.0, 1.0) is None


def _spy_order4_roots(monkeypatch):
    """Record each order-4 ``_stage_root`` call with the goal and bounds of
    its hand-over, its arguments and result, in the list returned."""
    hand_over, stage_root = Planner._hand_over, _stage_root
    goals, calls = [], []

    def hand_over_spy(self, n, x0, stages, g, xf, M):
        goals.append((xf, M))
        try:
            return hand_over(self, n, x0, stages, g, xf, M)
        finally:
            goals.pop()

    def spied(gap, start, u, lo, g_lo, hi, g_hi, *rest):
        tau, state = stage_root(gap, start, u, lo, g_lo, hi, g_hi, *rest)
        if len(start) == 4:
            calls.append((goals[-1], gap, start, u, lo, g_lo, hi, g_hi, tau,
                          state))
        return tau, state

    monkeypatch.setattr(Planner, "_hand_over", hand_over_spy)
    monkeypatch.setattr("chainplan.planner._stage_root", spied)
    return calls


def _order4_jump_draws():
    """plan4 #13 and seed-5 #13 at (1, 1, 1.5, None, 20): the order-4
    hand-over of each meets a jump of the gap where the order-3 sub-state
    starts to classify HIGHER (ROADMAP item 8)."""
    return [_plan4_corpus()[13],
            _seed5_draws(4, (1.0, 1.0, 1.5, None, 20.0), 14)[13]]


class TestOrder4GapJump:
    """The order-4 gap jumps where the order-3 plan of the sub-state
    (x1, x2, x3) switches to planning its mirror.  Brent's method bisected
    the jumps of plan4 #13 and seed-5 #13 in 45 and 46 order-4 gap
    evaluations, each of which plans an order-3 problem; the hand-over now
    locates the switch by the order-3 HIGHER test alone.  Both draws still
    fail verification: the jump is located, not mended."""

    @pytest.fixture(params=[0, 1], ids=["plan4-13", "seed5-13"])
    def draw(self, request):
        return _order4_jump_draws()[request.param]

    def test_few_gap_evaluations(self, monkeypatch, draw):
        hand_over, gap_of = Planner._hand_over, Planner._gap_of
        inside, counts = [], []

        def hand_over_spy(self, n, *args):
            inside.append(n == 4)
            if n == 4:
                counts.append(0)
            try:
                return hand_over(self, n, *args)
            finally:
                inside.pop()

        def gap_of_spy(self, n, xf, M):
            gap = gap_of(self, n, xf, M)

            def counted(state):
                if n == 4 and inside and inside[-1]:
                    counts[-1] += 1
                return gap(state)

            return counted

        monkeypatch.setattr(Planner, "_hand_over", hand_over_spy)
        monkeypatch.setattr(Planner, "_gap_of", gap_of_spy)
        _outcome(Planner(), draw)
        assert counts and max(counts) <= 8

    def test_hand_over_at_a_sign_change(self, monkeypatch, draw):
        calls = _spy_order4_roots(monkeypatch)
        _outcome(Planner(), draw)
        (_, gap, start, u, *_, tau, state), = calls

        def below(t):
            return gap(kinematics.propagate(start, u, t)) < 0.0

        # a jump, not a root
        assert abs(gap(state)) > 1e-3
        assert below(tau - INTERCEPT_TOL) != below(tau) \
            or below(tau) != below(tau + INTERCEPT_TOL)

    def test_each_sub_state_evaluated_once(self, monkeypatch, draw):
        # the order-4 gap evaluations at the two points around the switch
        # classify their order-3 sub-states with the gaps that the search
        # read there, instead of evaluating them again
        gap_of, stage_root = Planner._gap_of, _stage_root
        inside, seen = [], []

        def gap_of_spy(self, n, xf, M):
            gap = gap_of(self, n, xf, M)

            def spied(state):
                if n == 3 and inside:
                    seen.append(tuple(state))
                return gap(state)

            return spied

        def spied_root(gap, start, *rest):
            if len(start) != 4:
                return stage_root(gap, start, *rest)
            inside.append(start)
            try:
                return stage_root(gap, start, *rest)
            finally:
                inside.pop()

        monkeypatch.setattr(Planner, "_gap_of", gap_of_spy)
        monkeypatch.setattr("chainplan.planner._stage_root", spied_root)
        _outcome(Planner(), draw)
        assert len(seen) > 20
        assert len(set(seen)) == len(seen)

    def test_still_fails_verification(self, draw):
        with pytest.raises(PlanError, match=r"VerifyFailure\(reason='terminal "
                                            r"state off target', k=4,"):
            plan(draw)

    def test_ordinary_roots_keep_brent_bits(self, monkeypatch):
        # a bracket whose ends differ in the order-3 HIGHER test and that
        # holds an ordinary root is solved by Brent's method on the whole
        # bracket, as if no search ran
        calls = _spy_order4_roots(monkeypatch)
        rng = np.random.default_rng(1)
        M = sampling.default_bounds(4)
        for prob in _plan4_corpus() + [sampling.random_problem(4, M, rng, 0.8)
                                       for _ in range(60)]:
            _outcome(Planner(), prob)
        pl = Planner()

        def higher(state, xf, M):
            return pl._classify(3, state[:3], xf[:3], M[:4])[0] == HIGHER

        checked = searched = 0
        for (xf, M), gap, start, u, lo, g_lo, hi, g_hi, tau, state in calls:
            if higher(kinematics.propagate(start, u, lo), xf, M) == higher(
                    kinematics.propagate(start, u, hi), xf, M):
                continue

            def f(t):
                try:
                    return gap(kinematics.propagate(start, u, t))
                except PlanError:
                    return None

            ref = kinematics.bracket_root(f, lo, g_lo, hi, g_hi, INTERCEPT_TOL)
            g_ref = f(ref)
            if g_ref is None or abs(g_ref) > 1e-9:
                continue  # a jump
            checked += 1
            # searched: x1 or u moves the sub-state's (x1, x2) (_switch_of)
            searched += u != 0.0 or start[0] != 0.0
            assert tau.hex() == ref.hex()
            assert state == kinematics.propagate(start, u, ref)
        assert checked >= 8 and searched >= 3


class TestInvariants:
    def test_feasibility_and_terminal(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            prob, traj = draw_feasible(n, sampling.default_bounds(n), rng)
            assert solver.verify(traj, prob.M, 1e-9) is None

    def test_saturation_only_controls(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            prob, traj = draw_feasible(n, sampling.default_bounds(n), rng)
            M0 = prob.M[0]
            assert all(s.u in (-M0, 0.0, M0) for s in traj.segments)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            M = sampling.default_bounds(n)
            prob, traj = draw_feasible(n, M, rng)
            mirrored = plan(Problem(n, tuple(-v for v in prob.x0),
                                    tuple(-v for v in prob.xf), M))
            assert len(mirrored.segments) == len(traj.segments)
            for a, b in zip(traj.segments, mirrored.segments):
                assert b.duration == pytest.approx(a.duration, abs=1e-12)
                assert b.u == pytest.approx(-a.u, abs=1e-12)

    def test_relaxation_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            n = int(rng.integers(3, 5))
            prob, traj = draw_feasible(n, sampling.default_bounds(n), rng)
            free = plan_unconstrained(n, prob.x0, prob.xf, prob.M[0])
            assert free.t_f <= traj.t_f + 1e-9

    def test_third_order_matches_exhaustive(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            prob, traj = draw_feasible(3, M3, rng)
            ref = oracle.exhaustive_tf(prob)
            assert traj.t_f <= ref.t_f + 1e-6
            assert ref.t_f <= traj.t_f + 1e-6


class TestErrors:
    def test_infeasible_input_rejected(self):
        with pytest.raises(InfeasibleError):
            Problem(2, (2.0, 0.0), (0.0, 0.0), (1.0, 1.0, None))

    def test_planner_instance_reusable(self):
        pl = Planner()
        a = pl.plan(Problem(2, (0.0, 1.0), (0.0, 0.0), (1.0, 1.0, None)))
        b = pl.plan(Problem(2, (0.0, -1.0), (0.0, 0.0), (1.0, 1.0, None)))
        assert a.t_f == pytest.approx(b.t_f, abs=1e-12)


def _ref_merge_elements(elements, stages):
    """The rescan that ``_concat`` replaced: fuse every pair of adjacent
    identical behaviors (same value and sign) and their stages."""
    out_e: list = []
    out_s: list = []
    si = 0
    for e in elements:
        if isinstance(e, Behavior):
            s = stages[si]
            si += 1
            if out_e and isinstance(out_e[-1], Behavior) \
                    and out_e[-1].value == e.value and out_e[-1].sign == e.sign:
                prev = out_s[-1]
                out_s[-1] = (prev[0], prev[1] + s[1])
                continue
            out_e.append(e)
            out_s.append(s)
        else:
            out_e.append(e)
    return tuple(out_e), tuple(out_s)


def _ref_concat(*parts: _Plan) -> _Plan:
    elements, stages = _ref_merge_elements(
        tuple(e for p in parts for e in p.elements),
        tuple(s for p in parts for s in p.stages))
    return _Plan(stages, elements)


def _plan_bits(p: _Plan):
    return [(u.hex(), t.hex()) for u, t in p.stages], p.elements


# every signed law of the order 1-3 catalogs
_SIGNED = [laws.assign_signs(law, s) for n in (1, 2, 3)
           for law in laws.enumerate_af(n) for s in (1, -1)]


@st.composite
def _splice_parts(draw):
    """Parts as the planner splices them: signed laws with one drawn stage
    per behavior, virtual groups (of one to three signed behaviors) without
    stages, and empty plans (a group that simplifies away)."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("law", "group", "empty")))
        if kind == "law":
            law = draw(st.sampled_from(_SIGNED))
            stages = tuple(
                (draw(st.sampled_from((1.0, -1.0, 0.0))),
                 draw(st.floats(0.0, 10.0)))
                for e in law.elements if isinstance(e, Behavior))
            parts.append(_Plan(stages, law.elements))
        elif kind == "group":
            members = draw(st.lists(st.builds(
                Behavior, st.integers(0, 3), st.sampled_from((1, -1))),
                min_size=1, max_size=3))
            parts.append(_Plan((), (VirtualGroup(tuple(members)),)))
        else:
            parts.append(_Plan((), ()))
    return parts


class TestConcat:
    """``_concat`` fuses stages only where two parts meet.  It must give
    the stages (bit for bit) and elements of the rescan it replaced, which
    fused every adjacent identical pair."""

    def test_fuses_across_an_empty_part(self):
        up, down = Behavior(0, 1), Behavior(0, -1)
        got = _concat(_Plan(((1.0, 0.25),), (up,)), _Plan((), ()),
                      _Plan(((1.0, 0.5), (-1.0, 1.0)), (up, down)))
        assert got == _Plan(((1.0, 0.75), (-1.0, 1.0)), (up, down))

    @pytest.mark.seeded
    @given(_splice_parts())
    @settings(max_examples=300, deadline=None)
    def test_matches_rescan_on_catalog_splices(self, parts):
        """Seeded: the junction-only splice must give the stages (bit for
        bit) and elements of a rescan that fuses every adjacent identical
        behavior, on drawn splices of signed catalog laws, virtual groups
        and empty parts."""
        assert _plan_bits(_concat(*parts)) == _plan_bits(_ref_concat(*parts))

    def test_matches_rescan_on_the_benchmark_corpora(self, monkeypatch):
        # every splice that planning the plan3 and plan4 corpora (seed 1,
        # each problem and its mirror) and the near-touch draws makes
        splices = {"calls": 0, "fused": 0}

        def checked(*parts):
            got = _concat(*parts)
            assert _plan_bits(got) == _plan_bits(_ref_concat(*parts))
            splices["calls"] += 1
            splices["fused"] += len(got.stages) < sum(
                len(p.stages) for p in parts)
            return got

        monkeypatch.setattr("chainplan.planner._concat", checked)
        probs = []
        for n, count in ((3, 350), (4, 18)):
            rng = np.random.default_rng(1)
            probs += [sampling.random_problem(n, sampling.default_bounds(n),
                                              rng, 0.8) for _ in range(count)]
        probs += near_touch_draws(12)
        for prob in probs:
            for q in (prob, _mirror(prob)):
                try:
                    plan(q)
                except PlanError:
                    pass
        assert splices["calls"] > 1000 and splices["fused"] > 0


def _mirror(prob: Problem) -> Problem:
    return Problem(prob.n, tuple(-v for v in prob.x0),
                   tuple(-v for v in prob.xf), prob.M)


def _pinned_runs():
    """The bit pin's corpus: 60 order-3 and 6 order-4 draws at seed 1 with
    their mirrors, near-touch draws (tangent-marker legs) and saturation-only
    draws (``_bang``'s stage solve)."""
    rng = np.random.default_rng(1)
    probs = [sampling.random_problem(3, M3, rng, 0.8) for _ in range(60)]
    probs += [sampling.random_problem(4, M4, rng, 0.8) for _ in range(6)]
    runs = [partial(plan, q) for prob in probs for q in (prob, _mirror(prob))]
    runs += [partial(plan, prob) for prob in near_touch_draws(4)]
    rng = np.random.default_rng(9)
    for n in (3, 3, 4):
        x0, xf = tuple(rng.uniform(-1, 1, n)), tuple(rng.uniform(-1, 1, n))
        runs.append(partial(plan_unconstrained, n, x0, xf, 1.0))
    return runs


class TestOutputBits:
    """The planner's outputs on a small fixed corpus, pinned bit for bit:
    each plan's law text, every segment's control and duration and t_f as
    ``float.hex``, or a failure's class and message, hashed in order.  A
    change that means to keep outputs bit-identical keeps this digest; one
    that changes outputs on purpose updates the pin and records in CHANGES
    what changed and why."""

    DIGEST = "5f6e64a9c71e68f3"

    def test_digest(self):
        h = hashlib.sha256()
        for run in _pinned_runs():
            try:
                traj = run()
            except PlanError as e:
                line = f"{type(e).__name__}: {e}"
            else:
                line = " ".join(
                    [traj.asl.text()]
                    + [f"{s.u.hex()},{s.duration.hex()}"
                       for s in traj.segments]
                    + [traj.t_f.hex()])
            h.update(line.encode() + b"\n")
        assert h.hexdigest()[:16] == self.DIGEST


def _digest(runs) -> str:
    """``TestOutputBits``' hash of the runs' outputs, in order."""
    h = hashlib.sha256()
    for run in runs:
        try:
            traj = run()
        except PlanError as e:
            line = f"{type(e).__name__}: {e}"
        else:
            line = " ".join(
                [traj.asl.text()]
                + [f"{s.u.hex()},{s.duration.hex()}" for s in traj.segments]
                + [traj.t_f.hex()])
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


class TestUnboundedTopBits:
    """The planner's outputs, pinned as ``TestOutputBits`` pins them, where
    a level's top state is unbounded and its classification scales its
    tolerance by p* instead of the bound: 40 order-3 draws at
    (1, 1, 1.5, None) and 20 order-4 draws at (1, 1, 1.5, None, 20), whose
    order-3 sub-level has no x3 bound, each with its mirror."""

    DIGEST = "9cf28bfe9833a7d0"

    def test_digest(self):
        rng = np.random.default_rng(1)
        probs = [sampling.random_problem(3, (1.0, 1.0, 1.5, None), rng, 0.8)
                 for _ in range(40)]
        probs += [sampling.random_problem(4, (1.0, 1.0, 1.5, None, 20.0),
                                          rng, 0.8) for _ in range(20)]
        assert _digest([partial(plan, q) for prob in probs
                        for q in (prob, _mirror(prob))]) == self.DIGEST


class TestKnownDefects:
    """Feasible problems that the planner fails today, pinned until fixed:
    each test requires the oracle's t_f and is a strict xfail, so a fix
    turns it into an unexpected pass."""

    @pytest.mark.xfail(strict=True, raises=PlanError,
                       reason="states on the x3 bound: 'no tangent-marker "
                              "law reaches x3 = +/-M3'")
    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_states_on_the_x3_bound(self, s):
        # |x3| = M3 at both ends; the oracle solves it with the plain law
        # 0100 at t_f 5.901304210351967
        prob = Problem(3, (s * -1.0, s * -0.91623, s * 4.0),
                       (s * 0.79105, s * 1.5, s * 4.0), M3)
        traj = plan(prob)
        assert traj.t_f == pytest.approx(oracle.exhaustive_tf(prob).t_f,
                                         abs=1e-9)

    @pytest.mark.xfail(strict=True, raises=PlanError,
                       reason="a start on the x1 bound plans (+M0, 0), "
                              "(0, 1e-9), (+M0, 0): 'planned law is invalid' "
                              "(sign-chain)")
    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_start_on_the_x1_bound(self, s):
        # the oracle solves it with 01010 at t_f 5.99993
        prob = Problem(3, (s * 1.0, s * 0.5, s * 1.0),
                       (s * 1.0, s * 0.5, s * 1.0001), M3)
        traj = plan(prob)
        assert traj.t_f == pytest.approx(oracle.exhaustive_tf(prob).t_f,
                                         abs=1e-9)
