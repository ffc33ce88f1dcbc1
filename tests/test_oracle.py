import math
from collections import Counter

import numpy as np
import pytest

from chainplan import kinematics, laws, oracle, planner, sampling
from chainplan.model import Behavior, Problem
from chainplan.oracle import (
    OracleError,
    _law_residuals,
    double_integrator_tf,
    exhaustive_tf,
)

from helpers import near_touch_draws


class TestDoubleIntegrator:
    def test_symmetric_two_bang(self):
        assert double_integrator_tf((0.0, 0.5), (0.0, 0.0), 1.0, None) == \
            pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_cruise(self):
        assert double_integrator_tf((0.0, 2.0), (0.0, 0.0), 1.0, 1.0) == \
            pytest.approx(3.0, abs=1e-12)

    def test_zero_motion(self):
        assert double_integrator_tf((0.0, 0.0), (0.0, 0.0), 1.0, 1.0) == 0.0

    def test_speed_outside_bound_rejected(self):
        with pytest.raises(OracleError):
            double_integrator_tf((2.0, 0.0), (0.0, 0.0), 1.0, 1.0)

    def test_mirror_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x0 = (float(rng.uniform(-1, 1)), float(rng.uniform(-3, 3)))
            xf = (float(rng.uniform(-1, 1)), float(rng.uniform(-3, 3)))
            a = double_integrator_tf(x0, xf, 1.0, 1.0)
            b = double_integrator_tf(tuple(-v for v in x0),
                                     tuple(-v for v in xf), 1.0, 1.0)
            assert a == pytest.approx(b, abs=1e-12)


class TestExhaustive:
    def test_matches_plan_on_cruise_profile(self):
        prob = Problem(3, (1.0, -0.375, 4.0), (0.0, 0.0, 0.0),
                       (1.0, 1.0, 1.5, 4.0))
        res = exhaustive_tf(prob)
        traj = planner.plan(prob)
        assert abs(res.t_f - traj.t_f) <= 1e-6
        assert res.law == "0102010"

    def test_cross_oracle_second_order(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            M = (1.0, 1.0, None)
            x0 = (float(rng.uniform(-1, 1)), float(rng.uniform(-2, 2)))
            xf = (float(rng.uniform(-1, 1)), float(rng.uniform(-2, 2)))
            prob = Problem(2, x0, xf, M)
            res = exhaustive_tf(prob)
            assert res.t_f == pytest.approx(
                double_integrator_tf(x0, xf, 1.0, 1.0), abs=1e-9)

    def test_order_above_three_rejected(self):
        prob = Problem(4, (0.0,) * 4, (0.1,) * 4, (1.0, 1.0, 1.5, 4.0, 20.0))
        with pytest.raises(OracleError):
            exhaustive_tf(prob)

    def test_unbounded_top_state_has_no_marker_law(self):
        # with M3 unbounded no law touches x3 = +/-M3, and none is tried
        prob = Problem(3, (0.1, 0.2, 0.3), (-0.2, 0.1, 0.5),
                       (1.0, 1.0, 1.5, None))
        res = exhaustive_tf(prob)
        assert res.law == "000"
        assert res.t_f == pytest.approx(planner.plan(prob).t_f, abs=1e-9)

    def test_dynamically_infeasible_raises(self):
        prob = Problem(3, (0.52, -0.17, 2.73), (0.37, -1.16, 3.61),
                       (1.0, 1.0, 1.5, 4.0))
        with pytest.raises(OracleError):
            exhaustive_tf(prob)


def _mirrored(prob):
    return Problem(prob.n, tuple(-v for v in prob.x0),
                   tuple(-v for v in prob.xf), prob.M)


class TestMarkerSplit:
    """Marker laws are solved in two parts, split at the touch: each signed
    leg once per search, then the rest of every law that shares it."""

    @pytest.mark.parametrize("i", [11, 18])
    def test_finds_near_touch_marker_solutions(self, i):
        # a full-law root search on these draws found no marker solution
        prob = near_touch_draws(i + 1)[i]
        res = exhaustive_tf(prob)
        assert res.law == "00(3,2)000"
        assert res.t_f == pytest.approx(planner.plan(prob).t_f, abs=1e-6)
        assert exhaustive_tf(_mirrored(prob)).t_f == pytest.approx(
            res.t_f, abs=1e-9)

    def test_each_signed_leg_is_solved_once(self, monkeypatch):
        legs = Counter()
        residuals = oracle._law_residuals

        def spy(elements, x0, xf, M, n):
            if xf is None:
                legs[tuple(e.text() for e in elements)] += 1
            return residuals(elements, x0, xf, M, n)

        monkeypatch.setattr(oracle, "_law_residuals", spy)
        rng = np.random.default_rng(107)
        probs = near_touch_draws(4) + [
            sampling.random_problem(3, sampling.default_bounds(3), rng, 0.8)
            for _ in range(2)]
        for prob in probs:
            legs.clear()
            try:
                exhaustive_tf(prob)
            except OracleError:
                pass
            assert legs == Counter({("-0", "+0", "(+3,2)"): 1,
                                    ("+0", "-0", "(-3,2)"): 1,
                                    ("-0", "-1", "+0", "(+3,2)"): 1,
                                    ("+0", "+1", "-0", "(-3,2)"): 1})

    def test_leg_has_no_terminal_rows(self):
        # a leg's residual ends with its marker's pins x3 = sigma M3, x2 = 0
        M = (1.0, 1.0, 1.5, 4.0)
        leg = laws.assign_signs(laws.enumerate_af(3)[0], 1).elements[:3]
        x0 = (0.3, -0.2, 1.1)
        times = [0.7, 0.4]
        x = kinematics.propagate(kinematics.propagate(x0, -1.0, 0.7), 1.0, 0.4)
        got = _law_residuals(leg, x0, None, M, 3)(times)
        assert got.tolist() == [x[2] - 4.0, x[1]]


def _reference_residuals(elements, x0, xf, M, n):
    """The residual closure as first written: it dispatches on the element
    type at every call and runs on whatever scalars ``times`` holds."""
    M0 = M[0]

    def fun(times):
        res = []
        cur = tuple(x0)
        ti = 0
        for e in elements:
            if isinstance(e, Behavior):
                u = e.sign * M0 if e.value == 0 else 0.0
                cur = kinematics.propagate(cur, u, times[ti])
                ti += 1
                if e.value != 0:
                    res.append(cur[e.value - 1] - e.sign * M[e.value])
                    res.extend(cur[j] for j in range(e.value - 1))
            else:
                k = e.behavior.value
                res.append(cur[k - 1] - e.behavior.sign * M[k])
                res.extend(cur[k - 1 - j] for j in range(1, e.degree))
        res.extend(cur[k] - xf[k] for k in range(n))
        return np.array(res)

    return fun


class TestLawResiduals:
    def test_bits_match_on_arrays_lists_and_numpy_scalars(self):
        M = (1.0, 1.0, 1.5, 4.0)
        x0, xf = (0.3, -0.2, 1.1), (-0.4, 0.5, -2.0)
        rng = np.random.default_rng(6)
        for law in laws.enumerate_af(3):
            for last in (1, -1):
                elements = laws.assign_signs(law, last).elements
                stages = sum(isinstance(e, Behavior) for e in elements)
                fun = _law_residuals(elements, x0, xf, M, 3)
                ref = _reference_residuals(elements, x0, xf, M, 3)
                for _ in range(20):
                    times = rng.uniform(0.0, 3.0, stages)
                    got = fun(times)
                    assert got.tobytes() == fun(times.tolist()).tobytes()
                    assert got.tobytes() == ref(times).tobytes()

    @pytest.mark.parametrize("n, M", [(1, (1.0, None)), (2, (1.0, 1.0, 1.5))])
    def test_low_orders_match_reference_bits(self, n, M):
        # the residual pads lower-order states to three components
        rng = np.random.default_rng(7)
        x0, xf = tuple(rng.uniform(-0.8, 0.8, n)), tuple(rng.uniform(-0.8, 0.8, n))
        for law in laws.enumerate_af(n):
            for last in (1, -1):
                elements = laws.assign_signs(law, last).elements
                stages = sum(isinstance(e, Behavior) for e in elements)
                fun = _law_residuals(elements, x0, xf, M, n)
                ref = _reference_residuals(elements, x0, xf, M, n)
                for _ in range(20):
                    times = rng.uniform(0.0, 3.0, stages)
                    assert fun(times).tobytes() == ref(times).tobytes()
