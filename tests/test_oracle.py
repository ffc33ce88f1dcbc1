import math
import os
import subprocess
import sys
from collections import Counter
from itertools import islice, product
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from scipy.optimize import root

from chainplan import kinematics, laws, oracle, planner, sampling, solver
from chainplan.model import (Behavior, InfeasibleError, Problem, TangentMarker,
                             VirtualGroup)
from chainplan.oracle import (
    OracleError,
    _law_walk,
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

    @pytest.mark.parametrize("x, M", [
        ((0.3, -0.2, 1.0), (1.0, 1.0, 1.5, 4.0)),
        ((1.0, 0.5, 1.0), (1.0, 1.0, 1.5, 4.0)),
        ((0.0, 1.5, 2.0), (1.0, 1.0, 1.5, 4.0)),
        ((0.0, 0.0, 0.0), (1.0, 1.0, 1.5, 4.0)),
        ((0.3, -0.2), (1.0, 1.0, 1.5)),
        ((0.0, 0.0), (1.0, 1.0, None)),
        ((0.3,), (1.0, 1.0)),
    ])
    def test_zero_motion_takes_no_time(self, x, M):
        # the all-zero solution is where elimination leaves a curve of
        # solutions; a multistart search missed it (t_f 2.8, 6.0 and 8.0 s
        # for the first three states)
        assert exhaustive_tf(Problem(len(x), x, x, M)).t_f <= 1e-12

    @pytest.mark.parametrize("s", [1.0, -1.0])
    @pytest.mark.parametrize("v, T", [(1.0, 1.051108218076469),
                                      (1.0685520269158781, 0.5),
                                      (0.5, 1.051108218076469)])
    def test_cruise_along_the_x1_bound(self, s, v, T):
        # the goal is a cruise at x1 = -s M1 away: every law that holds it
        # has stages of zero length, where the Jacobian is singular and a
        # polish of the elimination's exact candidate drifts to negative
        # times
        x0 = (-s, s * v, s * 2.0)
        prob = Problem(3, x0, kinematics.propagate(x0, 0.0, T),
                       (1.0, 1.0, 1.5, 4.0))
        assert exhaustive_tf(prob).t_f == pytest.approx(T, abs=1e-9)

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_short_bang_from_the_x1_bound(self, s):
        # one 1.2e-7 s bang from x1 = M1: the elimination leaves the outer
        # stages of 000 about 1.5e-8 s long, one of them negative, and a
        # polish that started there kept the negative time on one side of
        # the mirror (t_f 4.03 s by 01010)
        x0 = (s * 1.0, s * -0.0078125, 0.0)
        xf = (s * 0.9999998807907104, s * -0.007812380790717505,
              s * -9.313154695729189e-10)
        prob = Problem(3, x0, xf, (1.0, 1.0, 1.5, 4.0))
        assert exhaustive_tf(prob).t_f == pytest.approx(1.192093e-7, abs=1e-12)

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_short_ramp_into_a_cruise(self, s):
        # -0 +0 -2 +0 -0 with stage times (0, 1e-7, 0.53125, 0, 0), the
        # cruise from (0, -1.5, 2.5), where the Jacobian is nearly singular:
        # a polish by MINPACK's hybr left the last two stages at -5e-10 on
        # one side of the mirror, and the oracle there gave only 000's
        # 0.53443 s
        x = (0.0, -1.5, 2.5)
        x0 = kinematics.propagate(x, 1.0, -1e-7)
        xf = kinematics.propagate(x, 0.0, 0.53125)
        prob = Problem(3, tuple(s * v for v in x0), tuple(s * v for v in xf),
                       (1.0, 1.0, 1.5, 4.0))
        assert exhaustive_tf(prob).t_f == pytest.approx(0.5312501, abs=1e-12)

    @pytest.mark.parametrize("s", [1.0, -1.0])
    @pytest.mark.parametrize("T", [1.375, 0.6672288772669746])
    def test_ride_from_the_x1_bound(self, s, T):
        # a ride at x1 = -+M1 for T s, which 0100 holds with stage times
        # (0, 0, T, 0) and 0010 with (0, T, 0, 0), where the Jacobian is
        # singular.  At T = 1.375 the elimination's candidate for 0100 is
        # exact, and rounding leaves the Jacobian's smallest singular value
        # there at 2.5e-16 in place of zero: a step through it (Gaussian
        # elimination's or np.linalg.solve's) is 0.2 long, to negative
        # times, where the least-squares step stays put.  At T = 0.66723
        # the candidate meets the system with its zero stages 2.5e-8 long,
        # on the curve of solutions.  One side of the mirror once gave 0010
        # at T + 4 s
        x0 = (-s, 0.0, 0.0)
        prob = Problem(3, x0, kinematics.propagate(x0, 0.0, T),
                       (1.0, 1.0, 1.5, 4.0))
        assert exhaustive_tf(prob).t_f == pytest.approx(T, abs=1e-12)

    @pytest.mark.parametrize("x0, xf, T", [
        # 000 with stage times (1e-7, 0, 1e-7); hybr gave 01010 at 5.49 s
        ((-0.18964078266477102, 0.8538475163225345, 0.1461712329699294),
         (-0.18964098266477103, 0.8538474783943579, 0.14617140373942888),
         2e-7),
        # 002010 with (1e-8, 0, 0.06342, 1, 1e-8, 1e-9); hybr gave 000
        ((1e-08, -1.5, -1.419501471265938),
         (0.999999999, -0.999999989, -2.847961932783456),
         1.06341808912279),
        # 0010 with (0, 1e-7, 1.21857, 1e-7); hybr gave 0100 at 1.22191 s
        ((-0.9999999, 1.1624433227094744, -1.3140155795664274),
         (-0.9999999, -0.05612752723785213, -0.6399534899674181),
         1.2185708499473367),
        # 00200 with (0.39363, 0.29006, 0.11216, 1e-9, 0): Newton leaves
        # the last two stages at (7e-10, -3e-10), on the curve along which
        # they trade duration, and the re-solve with the last held at zero
        # moves them to (1e-9, 0)
        ((-0.10357782508595959, 1.4212321858653276, -2.817951373704373),
         (-1e-09, 1.5, -1.6571184850152751), 0.7958432096949449),
        # 00200 with (0, 1e-9, 1.15825, 1e-6, 1e-6)
        ((1e-09, 1.5, -2.182648813227294),
         (0.0, 1.499999999999, -0.4452768575252777), 1.1582479704680106),
    ])
    def test_planted_short_stages(self, x0, xf, T):
        # solutions planted with stages from 0 to 1e-6 s long, which keep
        # the bounds: no t_f of the problem, its mirror or its time reversal
        # exceeds the planted time T
        prob = Problem(3, x0, xf, (1.0, 1.0, 1.5, 4.0))
        for p in (prob, _mirrored(prob), _time_reversed(prob)):
            assert exhaustive_tf(p).t_f <= T + 1e-9

    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_tiny_motion_met_by_its_candidate(self, s):
        # 000 of 1.01e-7 s, as -0 +0 -0 (+0 -0 +0 on the mirror) with stage
        # times near (1e-9, 1e-7, 0): the elimination's candidate meets the
        # system exactly, but its last stage runs 1.3e-9 s backward, beyond
        # the -1e-9 that a polish may keep, and the polish stays there.
        # Kept because it meets the system, the candidate is solved again
        # with that stage held at zero.  Without that rule both sides give
        # 01010 at 4.353 s
        x0 = (0.23298874073041653, 0.5611065014542589, 2.334068267181409)
        xf = (0.23298883973041654, 0.5611065249861266, 2.334068323853167)
        prob = Problem(3, tuple(s * v for v in x0), tuple(s * v for v in xf),
                       (1.0, 1.0, 1.5, 4.0))
        res = exhaustive_tf(prob)
        assert res.law == "000"
        assert res.t_f == pytest.approx(1.01e-7, abs=1e-12)

    def test_tiny_bang_to_the_rounding_error(self):
        # one 1.01e-7 s bang under u = +1, which -0 +0 -0 holds with stage
        # times (0, 1.01e-7, 0): the elimination leaves the outer stages at
        # -+7.2e-11, on the curve along which they trade duration, where
        # the polish stays put and the clipped t_f is 7.2e-11 s long (8.5e-11
        # s on the time reversal).  The start with those stages set to zero
        # polishes to the bang alone, on the problem, its mirror and its
        # time reversal
        prob = Problem(3, (-0.20102855916546225, -0.6325621115644513,
                           -0.4762152174753824),
                       (-0.20102845816546225, -0.6325621318683307,
                        -0.4762152813641567), (1.0, 1.0, 1.5, 4.0))
        for p in (prob, _mirrored(prob), _time_reversed(prob)):
            assert exhaustive_tf(p).t_f == pytest.approx(1.01e-7, abs=1e-12)

    @pytest.mark.xfail(strict=True, raises=OracleError,
                       reason="tiny motion: no law found (CHANGES FOUND)")
    def test_tiny_motion(self):
        # one 1e-9 s bang from (0.5, 0, 0): the 000 system's solution is a
        # triple root, its elimination candidates miss it, and the motion,
        # 1e-9 in x1, is too large for the zero-time start
        x0 = (0.5, 0.0, 0.0)
        prob = Problem(3, x0, kinematics.propagate(x0, -1.0, 1e-9),
                       (1.0, 1.0, 1.5, 4.0))
        assert exhaustive_tf(prob).t_f <= 1e-9 + 1e-15

    def test_dynamically_infeasible_raises(self):
        prob = Problem(3, (0.52, -0.17, 2.73), (0.37, -1.16, 3.61),
                       (1.0, 1.0, 1.5, 4.0))
        with pytest.raises(OracleError):
            exhaustive_tf(prob)


def _mirrored(prob):
    return Problem(prob.n, tuple(-v for v in prob.x0),
                   tuple(-v for v in prob.xf), prob.M)


def _time_reversed(prob):
    """The problem run backward: from R xf to R x0, R flipping the sign of
    x2, x4, ...  A trajectory of it, run backward under -u, is one of the
    problem, in the same time."""
    def flip(x):
        return tuple(-v if k % 2 else v for k, v in enumerate(x))

    return Problem(prob.n, flip(prob.xf), flip(prob.x0), prob.M)


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
        # each leg is eliminated once and its walk built once
        legs = Counter()

        def spy(name):
            wrapped = getattr(oracle, name)

            def call(system, x0, xf, *args):
                if xf is None:
                    legs[name, tuple(e.text() for e in system.elements)] += 1
                return wrapped(system, x0, xf, *args)
            monkeypatch.setattr(oracle, name, call)

        spy("_law_walk")
        spy("_eliminate")
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
            assert legs == Counter({
                (name, leg): 1 for name in ("_law_walk", "_eliminate")
                for leg in (("-0", "+0", "(+3,2)"), ("+0", "-0", "(-3,2)"),
                            ("-0", "-1", "+0", "(+3,2)"),
                            ("+0", "+1", "-0", "(-3,2)"))})

    def test_leg_has_no_terminal_rows(self):
        # a leg's residual ends with its marker's pins x3 = sigma M3, x2 = 0
        M = (1.0, 1.0, 1.5, 4.0)
        leg = laws.assign_signs(laws.enumerate_af(3)[0], 1).elements[:3]
        x0 = (0.3, -0.2, 1.1)
        times = [0.7, 0.4]
        x = kinematics.propagate(kinematics.propagate(x0, -1.0, 0.7), 1.0, 0.4)
        got = _law_walk(oracle._System(leg, 3), x0, None, M)(times)[0]
        assert got == [x[2] - 4.0, x[1]]


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


def _bits(values):
    """Each value's bits in hex, the sign of a zero included."""
    return [float(v).hex() for v in values]


class TestLawResiduals:
    def test_bits_match_on_arrays_lists_and_numpy_scalars(self):
        M = (1.0, 1.0, 1.5, 4.0)
        x0, xf = (0.3, -0.2, 1.1), (-0.4, 0.5, -2.0)
        rng = np.random.default_rng(6)
        for law in laws.enumerate_af(3):
            for last in (1, -1):
                elements = laws.assign_signs(law, last).elements
                stages = sum(isinstance(e, Behavior) for e in elements)
                walk = _law_walk(oracle._System(elements, 3), x0, xf, M)
                ref = _reference_residuals(elements, x0, xf, M, 3)
                for _ in range(20):
                    times = rng.uniform(0.0, 3.0, stages)
                    got = walk(times)[0]
                    # an array's times walk as Python floats, into a list
                    assert all(type(r) is float for r in got)
                    assert _bits(got) == _bits(walk(times.tolist())[0])
                    assert _bits(got) == _bits(ref(times))

    def test_walk_gives_each_stage_and_the_end_state(self):
        # the stages' (start, control, time) and the end state are those of
        # the law's stages run one after another from x0
        M = (1.0, 1.0, 1.5, 4.0)
        x0, xf = (0.3, -0.2, 1.1), (-0.4, 0.5, -2.0)
        rng = np.random.default_rng(8)
        for law in laws.enumerate_af(3):
            for last in (1, -1):
                elements = laws.assign_signs(law, last).elements
                stages = [e for e in elements if isinstance(e, Behavior)]
                walk = _law_walk(oracle._System(elements, 3), x0, xf, M)
                times = rng.uniform(0.0, 3.0, len(stages))
                ref, x = [], x0
                for e, t in zip(stages, times.tolist()):
                    u = e.sign * M[0] if e.value == 0 else 0.0
                    ref.append((x, u, t))
                    x = kinematics.propagate(x, u, t)
                _, _, got, end = walk(times)
                assert got == ref
                assert end == x

    @pytest.mark.parametrize("n, M", [(1, (1.0, None)), (2, (1.0, 1.0, 1.5))])
    def test_low_orders_match_reference_bits(self, n, M):
        # orders 1 and 2 step through propagate's generic loop
        rng = np.random.default_rng(7)
        x0, xf = tuple(rng.uniform(-0.8, 0.8, n)), tuple(rng.uniform(-0.8, 0.8, n))
        for law in laws.enumerate_af(n):
            for last in (1, -1):
                elements = laws.assign_signs(law, last).elements
                stages = sum(isinstance(e, Behavior) for e in elements)
                walk = _law_walk(oracle._System(elements, n), x0, xf, M)
                ref = _reference_residuals(elements, x0, xf, M, n)
                for _ in range(20):
                    times = rng.uniform(0.0, 3.0, stages)
                    assert _bits(walk(times)[0]) == _bits(ref(times))


_BOUNDS = {1: (1.0, 1.0), 2: (1.0, 1.0, 1.5), 3: (1.0, 1.0, 1.5, 4.0)}


def _signed_systems():
    """(order, elements) of every signed plain law of orders 1 to 3 and of
    every signed marker leg: the systems the oracle eliminates."""
    out = []
    for n in (1, 2, 3):
        for law in laws.enumerate_af(n):
            for last in (1, -1):
                elements = laws.assign_signs(law, last).elements
                cut = next((i + 1 for i, e in enumerate(elements)
                            if isinstance(e, TangentMarker)), len(elements))
                if (n, elements[:cut]) not in out:
                    out.append((n, elements[:cut]))
    return out


_SYSTEMS = _signed_systems()


def _params(systems):
    return [pytest.param(n, el, id=f"{n}:{''.join(e.text() for e in el)}")
            for n, el in systems]


def _plant(n, elements, M, draw):
    """A solution of a signed system built from drawn durations: x0, xf (None
    for a leg) and the stage times.

    The walk starts at the state a pin fixes: a +-2 cruise's (0, +-M2, x3),
    a leg's touch (x1, 0, sigma M3), the start of the first +-1 cruise, or
    else x0.  It runs backward to x0 and forward to xf.  A bang whose far
    end is pinned (a cruise's x1) takes the duration that reaches it; every
    other duration is drawn, a quarter of them zero."""
    stages = [e for e in elements if isinstance(e, Behavior)]
    level = [None] * (len(stages) + 1)
    for i, e in enumerate(stages):
        if e.value:
            level[i] = level[i + 1] = e.sign * M[1] if e.value == 1 else 0.0

    def free(k):
        return draw(st.floats(-0.8 * M[k], 0.8 * M[k]))

    def duration():
        return max(0.0, draw(st.floats(-0.5, 1.5)))

    values = [e.value for e in stages]
    marker = elements[-1] if isinstance(elements[-1], TangentMarker) else None
    if 2 in values:
        a = values.index(2)
        x = (0.0, stages[a].sign * M[2], free(3))
    elif marker is not None:
        a = len(stages)
        u = stages[-1].sign * M[0]
        q = free(1) if level[a - 1] is None else level[a - 1] + u * duration()
        x = (q, 0.0, marker.behavior.sign * M[3])
    elif 1 in values:
        a = values.index(1)
        x = (level[a],) + tuple(free(k) for k in range(2, n + 1))
    else:
        a = 0
        x = tuple(free(k) for k in range(1, n + 1))
    times = [0.0] * len(stages)

    def step(i, cur, back):
        e = stages[i]
        u = e.sign * M[0] if e.value == 0 else 0.0
        far = level[i] if back else level[i + 1]
        if e.value or far is None:
            times[i] = duration()
        else:
            times[i] = (cur[0] - far) / u if back else (far - cur[0]) / u
        return kinematics.propagate(cur, u, -times[i] if back else times[i])

    x0 = x
    for i in reversed(range(a)):
        x0 = step(i, x0, True)
    xf = x
    for i in range(a, len(stages)):
        xf = step(i, xf, False)
    return x0, None if marker else xf, times


def _candidates_of(elements, x0, xf, M, n):
    """One system's elimination candidates: a batch of one."""
    return oracle._candidates([(oracle._System(elements, n), x0, xf)], M, n)[0]


def _roots_of(elements, x0, xf, M, n):
    """One system's residual and polished roots: a batch of one, as arrays
    for the tests' arithmetic."""
    walk, found = oracle._roots([(oracle._System(elements, n), x0, xf)],
                                M, n)[0]

    def fun(times):
        return np.array(walk(times)[0])

    return fun, [np.array(t) for t in found]


@pytest.mark.seeded
class TestElimination:
    """Every real solution of a signed system, by elimination, is found: a
    solution planted from drawn durations is among the system's polished
    roots.  Seeded: it plants a solution of every signed system of the
    order-3 oracle."""

    @pytest.mark.parametrize("n, elements", _params(_SYSTEMS))
    @given(st.data())
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_recovers_planted_times(self, n, elements, data):
        M = _BOUNDS[n]
        x0, xf, times = _plant(n, elements, M, data.draw)
        times = np.array(times)
        fun, found = _roots_of(elements, x0, xf, M, n)
        assert float(np.max(np.abs(fun(times)))) <= 1e-12
        # the residual pins a plant's times to the rounding error over the
        # smallest singular value of the system's Jacobian, and a singular
        # one (a junction at a double root, a touch at x1 = 0, two zero
        # stages in a row) only to about its cube root; the zero durations
        # drawn make such plants common
        h = 1e-6
        jac = np.array([(fun(times + h * e) - fun(times - h * e)) / (2 * h)
                        for e in np.eye(len(times))]).T
        assume(np.linalg.svd(jac, compute_uv=False).min() > 1e-5)
        assert min((float(np.max(np.abs(t - times))) for t in found),
                   default=np.inf) <= 1e-9

    @pytest.mark.parametrize("n, text, x0, times", [
        # the order-2 junction at x1 = 0 (the x2 equation's double root)
        (2, "-0 +0", (0.3, 0.2), [0.3, 0.5]),
        # a junction at x1 = 0 ahead of the +2 cruise
        (3, "+0 -0 +2 -0 +0", (0.0, 1.5, 0.0), [0.0, 0.0, 0.0, 0.0, 1.25]),
        # the cruises' x3 polynomial has a double root at zero
        (3, "+0 +1 -0 -1 +0", (1.0, -1.0, 0.0), [0.0, 0.0, 2.0, 0.0, 1.08]),
        # touches at x1 = +-0.00195 give one double root for the first
        # junction, and a start of the second stage 5e-6 off
        (3, "-0 +0 (+3,2)", (-0.498046875, 0.1240234375, 3.9794108072916665),
         [0.0, 0.5]),
    ])
    def test_recovers_double_roots(self, n, text, x0, times):
        # a double root is pinned to about the square root of the rounding
        # error
        elements = next(el for m, el in _SYSTEMS if m == n
                        and " ".join(e.text() for e in el) == text)
        M = _BOUNDS[n]
        xf = None
        if not isinstance(elements[-1], TangentMarker):
            xf = x0
            for e, t in zip(elements, times):
                xf = kinematics.propagate(
                    xf, e.sign * M[0] if e.value == 0 else 0.0, t)
        fun, found = _roots_of(elements, x0, xf, M, n)
        assert float(np.max(np.abs(fun(times)))) <= 1e-12
        assert min((float(np.max(np.abs(t - times))) for t in found),
                   default=np.inf) <= 1e-7

    @pytest.mark.parametrize("n, elements", _params(
        [s for s in _SYSTEMS if not isinstance(s[1][-1], TangentMarker)]))
    @given(st.data())
    @settings(max_examples=6, deadline=None)
    def test_mirror_symmetric(self, n, elements, data):
        M = _BOUNDS[n]
        x0, xf, _ = _plant(n, elements, M, data.draw)
        try:
            prob = Problem(n, x0, xf, M)
        except InfeasibleError:
            assume(False)
        try:
            tf = exhaustive_tf(prob).t_f
        except OracleError:
            with pytest.raises(OracleError):
                exhaustive_tf(_mirrored(prob))
            return
        mirrored = exhaustive_tf(_mirrored(prob)).t_f
        assert mirrored == pytest.approx(tf, abs=1e-9)


def _newton_view(walk):
    """The polish's view of a walk: residuals and, when asked, Jacobian."""
    return lambda times, jacobian: walk(times, jacobian)[:2]


class TestPolish:
    """The polish, ``oracle.root`` (``kinematics.root``), is Newton's method
    on the exact Jacobian that the walk gives next to its residuals, each
    step the least-squares step of least norm (``np.linalg.lstsq`` with a
    rank cutoff)."""

    @pytest.mark.seeded
    @pytest.mark.parametrize("n, elements", _params(_SYSTEMS))
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_jacobian_matches_central_differences(self, n, elements, data):
        """Seeded: the walk's exact Jacobian must match central differences
        of its residuals on every signed system of orders 1-3, marker legs
        included."""
        # any boundary states and stage times, a quarter of them zero: the
        # residuals are polynomials of degree n in the times, so a central
        # difference misses the derivative only by h^2/6 times a third
        # derivative and by the rounding of the residuals over h, both far
        # below the tolerance here
        M = _BOUNDS[n]
        system = oracle._System(elements, n)

        def state():
            return tuple(data.draw(st.floats(-0.8 * M[k], 0.8 * M[k]))
                         for k in range(1, n + 1))

        x0 = state()
        xf = None if isinstance(elements[-1], TangentMarker) else state()
        times = np.array([max(0.0, data.draw(st.floats(-0.5, 1.5)))
                          for _ in system.signs])
        walk = _law_walk(system, x0, xf, M)
        res, jac, stages, end = walk(times, True)
        assert walk(times)[1] is None
        assert _bits(res) == _bits(walk(times)[0])
        assert (stages, end) == walk(times)[2:]
        h = 1e-5
        fd = np.array([(np.array(walk(times + h * e)[0])
                        - np.array(walk(times - h * e)[0]))
                       / (2 * h) for e in np.eye(len(times))]).T
        jac = np.array(jac)
        assert jac.shape == fd.shape == (len(times), len(times))
        assert float(np.max(np.abs(jac - fd))) <= 1e-7

    @pytest.mark.seeded
    @pytest.mark.parametrize("n, elements", _params(_SYSTEMS))
    @given(st.data())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_reaches_planted_solutions(self, n, elements, data):
        """Seeded: the polish, least-squares Newton steps, must reach
        planted solutions from nearby starts."""
        # from within 1e-4 of a planted solution whose Jacobian keeps its
        # smallest singular value above 1e-2, Newton's method converges to
        # it quadratically
        M = _BOUNDS[n]
        x0, xf, times = _plant(n, elements, M, data.draw)
        times = np.array(times)
        walk = _law_walk(oracle._System(elements, n), x0, xf, M)
        jac = np.array(walk(times, True)[1])
        assume(np.linalg.svd(jac, compute_uv=False).min() > 1e-2)
        start = times + [data.draw(st.floats(-1e-4, 1e-4)) for _ in times]
        sol = oracle.root(_newton_view(walk), start)
        assert sol.success
        # lists of Python floats, also from a start given as an array
        assert isinstance(sol.x, list) and isinstance(sol.fun, list)
        assert all(type(t) is float for t in sol.x + sol.fun)
        assert _bits(sol.fun) == _bits(walk(sol.x)[0])
        assert float(np.max(np.abs(sol.x - times))) <= 1e-9
        assert float(np.max(np.abs(sol.fun))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_motion_on_a_singular_jacobian(self, n):
        # at zero times the bangs of 000 (00 and 0 below order 3) have one
        # column but for their controls' signs: at order 3 the first and
        # last are equal, and the Jacobian is singular
        M = _BOUNDS[n]
        law = next(law for law in laws.enumerate_af(n)
                   if laws.canonical(law) == "0" * n)
        elements = laws.assign_signs(law, 1).elements
        x = tuple(0.3 * M[k] for k in range(1, n + 1))
        walk = _law_walk(oracle._System(elements, n), x, x, M)
        zero = [0.0] * n
        if n == 3:
            assert np.linalg.matrix_rank(np.array(walk(zero, True)[1])) < 3
        sol = oracle.root(_newton_view(walk), zero)
        assert sol.success
        assert sol.x == zero
        assert not np.any(sol.fun)

    def test_fails_where_there_is_no_root(self):
        # x^2 + 1 has no real root: Newton's steps wander for POLISH_STEPS
        # steps, and the point they reached is returned with its residual
        def fun(x, jacobian):
            return [x[0] * x[0] + 1.0], [[2.0 * x[0]]]

        sol = oracle.root(fun, [0.3])
        assert not sol.success
        assert sol.fun == [sol.x[0] * sol.x[0] + 1.0]

    def test_ends_where_the_residuals_are_not_finite(self):
        # a step to x = 4.25 leaves the residual's domain: the polish ends
        # there without success, and takes no step from residuals and a
        # Jacobian that are not finite (np.linalg.lstsq raises on them)
        def fun(x, jacobian):
            if x[0] > 1.0:
                return [math.inf], [[math.inf]]
            return [x[0] * x[0] - 4.0], [[2.0 * x[0]]]

        sol = oracle.root(fun, [0.5])
        assert not sol.success
        assert sol.x == [4.25]
        assert sol.fun == [math.inf]

    def test_stops_where_a_met_residual_does_not_halve(self):
        # 1e-11 cos(x) from x = 0.1 meets the system (a residual of 1e-11,
        # below POLISH_FTOL); Newton's step goes to x = 10.07, where the
        # residual is 7.9e-12, not half of it.  The polish ends at the point
        # before that step, without success; without the stop it goes on
        # to the root at 3.5 pi, 10.9 away
        def fun(x, jacobian):
            return [1e-11 * math.cos(x[0])], [[-1e-11 * math.sin(x[0])]]

        sol = oracle.root(fun, [0.1])
        assert not sol.success
        assert sol.x == [0.1]
        assert sol.fun == [1e-11 * math.cos(0.1)]

    def test_step_is_least_squares(self):
        # a zero leading entry
        assert kinematics._newton_step([[0.0, 1.0], [2.0, 0.0]],
                                       [3.0, 4.0]) == pytest.approx(
            [2.0, 3.0], abs=1e-15)
        rng = np.random.default_rng(11)
        for m in range(1, 8):
            for _ in range(20):
                J, r = rng.normal(size=(m, m)), rng.normal(size=m)
                d = kinematics._newton_step(J.tolist(), r.tolist())
                assert np.allclose(d, np.linalg.solve(J, r), rtol=1e-9,
                                   atol=1e-9)
        # a singular matrix takes the step of least norm, and so does one
        # that is singular but for rounding: the Jacobian of 0100 at times
        # (0, 1.375, 0, 0) from (-1, 0, 0), whose smallest singular value
        # is 2.5e-16 and whose step through it is 0.2 long
        singular = ([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
                    [1.0, 3.0, 2.0])
        lost = ([[-1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 1.0, -1.0],
                 [-2.375, -1.0, -1.0000000000000009, -1.0],
                 [-2.3203125000000004, -1.375, -1.375, -1.375]],
                [0.0, 0.0, 0.0, 1.1102230246251565e-16])
        assert kinematics._newton_step(*singular) == pytest.approx(
            [0.7, 0.7, 2.0], abs=1e-12)
        assert max(map(abs, np.linalg.solve(*map(np.array, lost)))) > 0.1
        assert max(map(abs, kinematics._newton_step(*lost))) < 1e-15
        # more rows than columns: the Gauss-Newton step
        J, r = rng.normal(size=(5, 3)), rng.normal(size=5)
        assert np.allclose(kinematics._newton_step(J.tolist(), r.tolist()),
                           np.linalg.pinv(J) @ r, rtol=1e-9, atol=1e-9)


class TestImport:
    @pytest.mark.parametrize("statement", [
        "import chainplan.oracle",
        # perfbench's set-up import
        "from chainplan import laws, metrics, oracle, planner, sampling",
    ])
    def test_import_loads_neither_numpy_nor_scipy(self, statement):
        # the polish is kinematics' own, so a fresh import loads no scipy,
        # and only a search imports numpy
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        code = (f"import sys; {statement}; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# the multistart search that the elimination replaced, kept as a reference:
# root searches per signed system from a seeded ladder of starts
_SEEDS_PER_LAW = 32


def _multistart_solutions(elements, x0, xf, M, n, tau, rng):
    walk = _law_walk(oracle._System(elements, n), x0, xf, M)

    def fun(times):
        return walk(times)[0]

    stage_count = sum(1 for e in elements if isinstance(e, Behavior))
    hits = 0
    for trial in range(_SEEDS_PER_LAW):
        if trial == 0:
            guess = np.full(stage_count, tau / stage_count)
        else:
            guess = tau * (2.0 ** ((trial - 1) % 4)) * rng.random(stage_count)
        sol = root(fun, guess, method="hybr", tol=1e-12,
                   options={"maxfev": 40 * (stage_count + 1)})
        residual = float(np.max(np.abs(sol.fun)))
        if not sol.success and residual > oracle.RESIDUAL_TOL:
            if trial + 1 >= 8 and hits == 0:
                return
            continue
        for times, end in oracle._solutions(walk, M, [sol.x]):
            hits += 1
            yield np.array(times), end


def _multistart_tf(problem):
    n, x0, xf, M = problem.n, problem.x0, problem.xf, problem.M
    rng = np.random.default_rng(12345)
    tau = 1.0
    for k in range(1, n + 1):
        delta = abs(xf[k - 1] - x0[k - 1])
        if M[k - 1] is not None and delta > 0.0:
            tau = max(tau, (2.0 * delta / M[k - 1]) ** (1.0 / k))
    touches = {(): [(0.0, x0)]}
    best: Optional[tuple[float, str]] = None
    for law in laws.enumerate_af(n):
        assert not any(isinstance(e, VirtualGroup) for e in law.elements)
        for last in (1, -1):
            elements = laws.assign_signs(law, last).elements
            pinned = [e.behavior.value if isinstance(e, TangentMarker)
                      else e.value for e in elements]
            if any(k > 0 and M[k] is None for k in pinned):
                continue
            cut = next((i + 1 for i, e in enumerate(elements)
                        if isinstance(e, TangentMarker)), 0)
            leg, rest = elements[:cut], elements[cut:]
            if leg not in touches:
                found = []
                for times, end in _multistart_solutions(leg, x0, None, M, n,
                                                        tau, rng):
                    if all(float(np.max(np.abs(times - other)))
                           > oracle.SAME_LEG_TOL for other, _ in found):
                        found.append((times, end))
                touches[leg] = [(float(np.sum(t)), end) for t, end in found]
            for t_leg, start in touches[leg]:
                for times, _ in islice(_multistart_solutions(
                        rest, start, xf, M, n, tau, rng), 3):
                    tf = t_leg + float(np.sum(times))
                    if best is None or tf < best[0] - 1e-15:
                        best = (tf, laws.canonical(law))
    if best is None:
        raise OracleError("no catalog law admits a feasible solution")
    return oracle.OracleResult(best[0], best[1])


def _xcheck3_draws():
    rng = np.random.default_rng(107)
    return [sampling.random_problem(3, sampling.default_bounds(3), rng, 0.8)
            for _ in range(8)]


def _unbounded_x2_draws():
    rng = np.random.default_rng(7)
    return [sampling.random_problem(3, (1.0, 1.0, None, 4.0), rng, 0.8)
            for _ in range(20)]


class TestAgainstMultistart:
    """The elimination agrees with the multistart search it replaced: the
    same law and t_f within 1e-9, or OracleError from both."""

    @pytest.mark.parametrize("draws", [_xcheck3_draws,
                                       lambda: near_touch_draws(20),
                                       _unbounded_x2_draws],
                             ids=["xcheck3", "near-touch", "unbounded-x2"])
    def test_same_law_and_time(self, draws):
        for i, prob in enumerate(draws()):
            try:
                ref = _multistart_tf(prob)
            except OracleError:
                with pytest.raises(OracleError):
                    exhaustive_tf(prob)
                continue
            res = exhaustive_tf(prob)
            assert res.law == ref.law, i
            assert res.t_f == pytest.approx(ref.t_f, abs=1e-9), i


def _outcome(prob):
    try:
        res = exhaustive_tf(prob)
    except OracleError as e:
        return "OracleError", str(e)
    return res.law, res.t_f.hex()


class TestBoundary:
    """The oracle calls no root solver of the planner, no stage solver and
    not the planner: with each of them patched to raise, it gives the same
    results, bit for bit."""

    def test_same_results_without_the_planning_path(self, monkeypatch):
        probs = _xcheck3_draws() + near_touch_draws(5)
        free = [_outcome(prob) for prob in probs]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the planning path")

        for mod, name in ((kinematics, "real_roots"),
                          (kinematics, "touch_roots"),
                          (kinematics, "bracket_root"),
                          (solver, "assemble"), (solver, "solve_times"),
                          (planner, "plan"), (planner.Planner, "plan")):
            monkeypatch.setattr(mod, name, forbidden)
        assert [_outcome(prob) for prob in probs] == free
        assert any(law != "OracleError" for law, _ in free)


class TestAcceptance:
    def test_nan_residual_is_no_solution(self):
        # a NaN residual meets no bound: no solution, and no polish kept
        def walk(times):
            return [math.nan, 0.0], None, [], (0.0,)

        assert list(oracle._solutions(walk, (1.0, None), [[0.5]])) == []
        assert not oracle._kept(kinematics.Polish([0.5], [math.nan], False))

    def test_every_system_has_fewer_than_8_stages(self):
        # a solution's time is the sum of its stage times: Python 3.11's sum
        # adds them in order, as np.sum does below 8 values (from 8 on it
        # sums pairwise)
        for n in (1, 2, 3):
            legs, plans = oracle._catalog(n, ())
            for system in legs + tuple(rest for _, _, rest in plans):
                assert len(system.signs) < 8
        rng = np.random.default_rng(13)
        for k in range(1, 8):
            for _ in range(50):
                scales = 10.0 ** rng.integers(-9, 2, k)
                times = rng.uniform(0.0, 3.0, k) * scales
                assert sum(times.tolist()).hex() == float(np.sum(times)).hex()


def _accepted(found):
    """The bytes of each found solution with times >= -1e-9, the ones that
    ``_solutions`` goes on to check."""
    return [t.tobytes() for t in found if not np.any(t < -1e-9)]


class TestBackwardPrune:
    """Starts that run a stage backward are dropped unpolished: the oracle
    gives the same results as with the prune off, from fewer polishes."""

    def test_same_outcomes_from_fewer_polishes(self, monkeypatch):
        M = sampling.default_bounds(3)
        # states on the bounds: a start on the x1 bound, |x3| = M3 at both
        # ends, x2 = +-M2 at both ends
        probs = _xcheck3_draws() + near_touch_draws(20) + [
            Problem(3, (1.0, 0.5, 1.0), (1.0, 0.5, 1.0001), M),
            Problem(3, (-1.0, -0.91623, 4.0), (0.79105, 1.5, 4.0), M),
            Problem(3, (0.3, 1.5, -1.0), (-0.2, 1.5, 2.0), M),
            Problem(3, (0.0, -1.5, 4.0), (1.0, 1.5, -4.0), M),
        ]
        calls = [0]
        polish = oracle.root

        def spy(*args, **kwargs):
            calls[0] += 1
            return polish(*args, **kwargs)

        monkeypatch.setattr(oracle, "root", spy)
        pruned = [_outcome(prob) for prob in probs]
        polished, calls[0] = calls[0], 0
        monkeypatch.setattr(oracle, "BACKWARD_TOL", math.inf)
        assert [_outcome(prob) for prob in probs] == pruned
        assert any(law == "OracleError" for law, _ in pruned)
        # a prune that never fires fails here
        assert 2 * polished < calls[0]

    @pytest.mark.parametrize("durations", [(0.2, 0.6, 0.5, 0.4, 0.3),
                                           (0.0, 0.9, 0.1, 0.9, 0.0),
                                           (1.0, 0.3, 0.0, 0.2, 0.7)])
    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_backward_cruise_branch_is_dropped(self, s, durations):
        # the +-2 cruise pins x1 = 0 on both sides; each piece's junction
        # is +-r in closed form, and the -r branch runs the bang between
        # the junction and the cruise backward
        text = "+0 -0 +2 -0 +0" if s > 0 else "-0 +0 -2 +0 -0"
        elements = next(el for m, el in _SYSTEMS if m == 3
                        and " ".join(e.text() for e in el) == text)
        M = _BOUNDS[3]
        b, a, T, c, d = durations
        cruise = (0.0, s * M[2], 0.3 * s)
        x0 = kinematics.propagate(
            kinematics.propagate(cruise, -s, -a), s, -b)
        xf = cruise
        for u, t in ((0.0, T), (-s, c), (s, d)):
            xf = kinematics.propagate(xf, u, t)
        fixed = (0, 1, 3, 4)  # every stage but the cruise

        def backward(times):
            scale = max(1.0, max(abs(times[i]) for i in fixed))
            return min(times[i] for i in fixed) < -oracle.BACKWARD_TOL * scale

        pruned = _candidates_of(elements, x0, xf, M, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "BACKWARD_TOL", math.inf)
            full = _candidates_of(elements, x0, xf, M, 3)
        assert any(backward(t) for t in full)
        assert not any(backward(t) for t in pruned)
        assert pruned == [t for t in full if not backward(t)]
        assert min(max(abs(x - y) for x, y in zip(t, (b, a, T, c, d)))
                   for t in pruned) <= 1e-9

    @pytest.mark.seeded
    @pytest.mark.parametrize("n, elements", _params(_SYSTEMS))
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_roots_match_unpruned(self, n, elements, data):
        """Seeded: the roots polished with the backward prune must be those
        polished without it, bit for bit and in order, less only solutions
        that kept starts also give or that lie on a zero-length stage's
        curve of solutions."""
        # the starts kept are polished as before, so their solutions are the
        # unpruned ones in the same order, bit for bit.  A backward start
        # polishes to an accepted solution only where the plant's zero
        # durations make the system singular: to a solution that a kept
        # start also gives, or to a point on the curve of solutions that the
        # three-bang law has where a stage has zero length (its outer
        # stages trade duration).  A singular system pins a zero stage, and
        # two polishes of one solution, only to about the cube root of the
        # rounding error
        M = _BOUNDS[n]
        x0, xf, _ = _plant(n, elements, M, data.draw)
        pruned = _accepted(_roots_of(elements, x0, xf, M, n)[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "BACKWARD_TOL", math.inf)
            full = _accepted(_roots_of(elements, x0, xf, M, n)[1])
        rest = iter(full)
        assert all(any(t == u for u in rest) for t in pruned)
        kept = [np.frombuffer(t) for t in pruned]
        for t in full:
            if t not in pruned:
                times = np.frombuffer(t)
                assert (times.min() <= 1e-5 * max(1.0, times.max())
                        or min((np.max(np.abs(times - u)) for u in kept),
                               default=np.inf) <= 1e-5)


# the elimination as it was before systems were compiled and rooted in
# batches, kept as a reference: one signed system per call, its structure
# rebuilt and every quantity a (P, Q) pair of lists, its polynomial rooted
# by np.roots on its own

def _ref_radd(x, y):
    add = kinematics.poly_add
    return add(x[0], y[0]), add(x[1], y[1]) if x[1] or y[1] else []


def _ref_rscale(x, c):
    return [c * a for a in x[0]], [c * a for a in x[1]] if x[1] else []


def _ref_rmul(x, y, R):
    add, mul = kinematics.poly_add, kinematics.poly_mul
    (p, q), (r, s) = x, y
    if not q and not s:
        return mul(p, r), []
    return add(mul(p, r), mul(mul(q, s), R)), add(mul(p, s), mul(q, r))


def _ref_const(c):
    return [c], []


_REF_Z = ([0.0, 1.0], [])
_REF_W = ([], [1.0])


def _ref_real_zeros(p):
    p = list(p)
    big = max((abs(c) for c in p), default=0.0)
    while p and abs(p[-1]) <= 1e-12 * big:
        p.pop()
    if len(p) < 2:
        return []
    norm = math.sqrt(sum(c * c for c in p))
    out = []
    for z in np.roots(p[::-1]):
        x = float(z.real)
        powers = math.sqrt(sum(x ** (2 * k) for k in range(len(p))))
        if abs(kinematics.horner(p, x)) <= 1e-10 * norm * powers:
            out.append(x)
    return out


def _reference_candidates(elements, x0, xf, M, n):
    M0 = M[0]
    horner = kinematics.horner
    stages = [e for e in elements if isinstance(e, Behavior)]
    start = tuple(x0) + (0.0,) * (3 - n)
    if xf is None:
        goal = (None, 0.0, elements[-1].behavior.sign * M[3])
    else:
        goal = tuple(xf) + (None,) * (3 - n)
    X = [start[0]] + [None] * len(stages)
    for i, e in enumerate(stages):
        if e.value:
            X[i] = X[i + 1] = e.sign * M[1] if e.value == 1 else 0.0
    X[-1] = goal[0]
    cuts = [i for i, e in enumerate(stages) if e.value == 2]
    fixed = {("t", i): _REF_Z for i in cuts}
    R = []
    choices = []
    edges = [-1] + cuts + [len(stages)]
    for a, b in zip(edges, edges[1:]):
        if goal[1] is None:
            continue
        x2a = start[1] if a < 0 else stages[a].sign * M[2]
        x2b = goal[1] if b == len(stages) else stages[b].sign * M[2]
        const, alpha, unknowns = x2a - x2b, {}, []
        scale = abs(x2a) + abs(x2b)
        for i in range(a + 1, b):
            e = stages[i]
            if e.value:
                unknowns.append(("t", i))
                continue
            u = e.sign * M0
            for j, s in ((i + 1, 0.5 / u), (i, -0.5 / u)):
                if X[j] is None:
                    if j not in alpha:
                        unknowns.insert(len(alpha), ("x", j))
                    alpha[j] = alpha.get(j, 0.0) + s
                else:
                    const += s * X[j] * X[j]
                    scale += abs(s) * X[j] * X[j]
        coef = {k: alpha[k[1]] if k[0] == "x" else X[k[1]] for k in unknowns}
        if len(unknowns) == 1:
            (key,) = unknowns
            if key[0] == "t":
                choices.append([{key: _ref_const(-const / coef[key])}])
                continue
            sq = -const / coef[key]
            if sq < 0.0 and abs(const) > 1e-12 * scale:
                return []
            r = math.sqrt(max(sq, 0.0))
            choices.append([{key: _ref_const(r)}, {key: _ref_const(-r)}] if r
                           else [{key: _ref_const(0.0)}])
        else:
            first, second = unknowns
            lin = [const, 0.0, coef[first]] if first[0] == "x" \
                else [const, coef[first]]
            rest = [-c / coef[second] for c in lin]
            if second[0] == "x":
                R, value = rest, _REF_W
            else:
                value = (rest, [])
            choices.append([{first: _REF_Z, second: value}])
    out = []
    for combo in product(*choices):
        val = dict(fixed)
        for opt in combo:
            val.update(opt)
        xs = [val[("x", j)] if x is None else _ref_const(x)
              for j, x in enumerate(X)]
        durations = []
        for i, e in enumerate(stages):
            if e.value:
                durations.append(val[("t", i)])
            else:
                dx = _ref_radd(xs[i + 1], _ref_rscale(xs[i], -1.0))
                durations.append(_ref_rscale(dx, 1.0 / (e.sign * M0)))
        if oracle._backward([p[0] for p, q in durations
                             if len(p) == 1 and not q]):
            continue
        if goal[2] is None:
            out.append([horner(t[0], 0.0) for t in durations])
            continue
        x2, x3 = _ref_const(start[1]), _ref_const(start[2] - goal[2])
        for e, x1, t in zip(stages, xs, durations):
            u = e.sign * M0 if e.value == 0 else 0.0
            inner = _ref_radd(_ref_rscale(x1, 0.5), _ref_rscale(t, u / 6.0))
            x3 = _ref_radd(x3, _ref_rmul(
                t, _ref_radd(x2, _ref_rmul(t, inner, R)), R))
            x2 = _ref_radd(x2, _ref_rmul(
                t, _ref_radd(x1, _ref_rscale(t, 0.5 * u)), R))
        F, G = x3
        if any(G):
            mul = kinematics.poly_mul
            zeros = _ref_real_zeros(kinematics.poly_add(
                mul(F, F), mul(R, mul(G, G)), -1.0))
        else:
            zeros = _ref_real_zeros(F)
        for z in zeros:
            f, g = horner(F, z), horner(G, z)
            w = math.sqrt(max(horner(R, z), 0.0)) if R else 0.0
            size = (horner([abs(c) for c in F], abs(z))
                    + w * horner([abs(c) for c in G], abs(z)))
            signs = [s for s in (1.0, -1.0) if w
                     and abs(f + s * w * g) <= 1e-6 * size]
            if not signs:
                signs = [1.0 if abs(f + w * g) <= abs(f - w * g) else -1.0]
            for s in signs:
                out.append([horner(p, z) + s * w * horner(q, z)
                            for p, q in durations])
    return out


def _hex(candidates):
    return [[float(t).hex() for t in times] for times in candidates]


def _ref_x3(us, xs, ts, x2, x3, R):
    """The reference elimination's x3 build from each stage's control,
    start x1 and duration, x2 and x3 - (x3 at the goal) at the start and R:
    (F, G, p), every quantity a (P, Q) pair, a number c as ([c], [])."""
    def pair(x):
        return x if isinstance(x, tuple) else _ref_const(x)

    x2, x3 = pair(x2), pair(x3)
    for u, x1, t in zip(us, map(pair, xs), map(pair, ts)):
        inner = _ref_radd(_ref_rscale(x1, 0.5), _ref_rscale(t, u / 6.0))
        x3 = _ref_radd(x3, _ref_rmul(
            t, _ref_radd(x2, _ref_rmul(t, inner, R)), R))
        x2 = _ref_radd(x2, _ref_rmul(
            t, _ref_radd(x1, _ref_rscale(t, 0.5 * u)), R))
    F, G = x3
    if not any(G):
        return F, G, F
    mul = kinematics.poly_mul
    return F, G, kinematics.poly_add(mul(F, F), mul(R, mul(G, G)), -1.0)


_KINDS = sorted({oracle._kind(system) for n in (1, 2, 3) for system in
                 set(oracle._catalog(n, ())[0])
                 | {rest for _, _, rest in oracle._catalog(n, ())[1]}},
                key=repr)


_NONZERO = st.floats(0.1, 10.0).flatmap(
    lambda c: st.sampled_from([c, -c]))


class TestCompiledElimination:
    """The compiled systems, their polynomials rooted together, give the
    candidates of the reference elimination bit for bit and in order, and
    the compiled catalog is kept once per order and set of free bounds."""

    @pytest.mark.seeded
    @pytest.mark.parametrize("n, elements", _params(_SYSTEMS))
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_candidates_match_reference(self, n, elements, data):
        """Seeded: the compiled systems, rooted in one batch, must give the
        reference elimination's candidates bit for bit and in order."""
        # the plant's system is batched with every system of its order from
        # the same states (a leg's touch for a leg's plant), so that their
        # polynomials share the eigenvalue calls
        M = _BOUNDS[n]
        x0, xf, times = _plant(n, elements, M, data.draw)
        if xf is None:
            xf = x0
            for e, t in zip([e for e in elements if isinstance(e, Behavior)],
                            times):
                u = e.sign * M[0] if e.value == 0 else 0.0
                xf = kinematics.propagate(xf, u, t)
        jobs = [(oracle._System(el, n), x0,
                 None if isinstance(el[-1], TangentMarker) else xf)
                for m, el in _SYSTEMS if m == n]
        for (system, a, b), got in zip(jobs, oracle._candidates(jobs, M, n)):
            ref = _reference_candidates(system.elements, a, b, M, n)
            assert _hex(got) == _hex(ref)

    @pytest.mark.seeded
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_companion_roots_match_np_roots(self, data):
        """Seeded: the stacked companion eigenvalues must give np.roots'
        bits on drawn polynomials with roots at zero, repeated roots and
        cancelled leading coefficients."""
        # one batch of polynomials of degree 2 to 6: drawn coefficients,
        # zero low coefficients (roots at zero), repeated roots, and a
        # leading coefficient nearly cancelled
        coef = st.floats(-10.0, 10.0)
        polys = []
        for _ in range(data.draw(st.integers(1, 8))):
            d = data.draw(st.integers(2, 6))
            kind = data.draw(st.sampled_from(
                ["drawn", "zeros", "repeated", "cancelled"]))
            if kind == "repeated":
                r = data.draw(coef)
                k = data.draw(st.integers(2, d))
                p = [data.draw(_NONZERO)]
                for x in [r] * k + [data.draw(coef) for _ in range(d - k)]:
                    p = kinematics.poly_mul(p, [-x, 1.0])
            else:
                p = [data.draw(coef) for _ in range(d)] + [data.draw(_NONZERO)]
                if kind == "zeros":
                    low = data.draw(st.integers(1, d))
                    p[:low] = [0.0] * low
                elif kind == "cancelled":
                    p[-1] = (p[-1] + 1e-9 * data.draw(_NONZERO)) - p[-1]
            polys.append(p)
        for p, got in zip(polys, oracle._companion_roots(polys)):
            ref = np.roots(p[::-1]).astype(complex)
            got = np.array(got, dtype=complex)
            assert got.real.tobytes() == ref.real.tobytes()
            # np.roots drops the imaginary parts, and their zero signs,
            # where all of one polynomial's are zero
            assert np.array_equal(got.imag, ref.imag)

    @pytest.mark.seeded
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_numbers_compute_as_pairs(self, data):
        """Seeded: a duration that is a number must evaluate as a
        one-coefficient polynomial would, signed zeros included."""
        # the kernels compute on a number c as on ([c], []):
        # test_kernels_compute_as_pairs
        value = st.sampled_from([0.0, -0.0, 1.5, -0.5]) | st.floats(-4.0, 4.0)
        if data.draw(st.booleans()):
            x = data.draw(value)
        else:
            x = (data.draw(st.lists(value, max_size=4)),
                 data.draw(st.lists(value, max_size=2)))
        z = data.draw(value)
        p, q = x if isinstance(x, tuple) else ([x], [])
        assert [v.hex() for v in map(float, oracle._at(x, z))] == [
            kinematics.horner(p, z).hex(), kinematics.horner(q, z).hex()]

    @pytest.mark.seeded
    @pytest.mark.parametrize("kind", _KINDS, ids=repr)
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_kernels_compute_as_pairs(self, kind, data):
        """Seeded: each kind's compiled elimination (orders 1-3) must give
        the pair arithmetic's bang durations, and at order 3 its F, G and p,
        bit for bit, and None exactly where the durations that are numbers
        run a stage backward, also with one of its numbers taken as a
        one-coefficient list.  Signed zeros included."""
        # sparse draws are mostly zeros, which poly_mul skips and which
        # leave G zero
        if data.draw(st.booleans()):
            value = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.5])
        else:
            value = st.sampled_from([0.0, -0.0, 1.5, -0.5]) | st.floats(-4.0,
                                                                       4.0)

        def draw(form):
            if form is None:  # a bang's duration, which the kernel builds
                return None
            if form == "n":
                return data.draw(value)
            if form in ("z", "w"):
                return _REF_Z if form == "z" else _REF_W
            return tuple([data.draw(value) for _ in range(k)] for k in form)

        def pair(x):
            return x if isinstance(x, tuple) else _ref_const(x)

        def bits(found):
            if found is None:
                return None
            durations, *x3 = found
            return ([[[float(c).hex() for c in part] for part in pair(t)]
                     for t in durations],
                    [None if v is None else [float(c).hex() for c in v]
                     for v in x3])

        x1_forms, t_forms, size_R, build_x3 = kind
        # a bang's duration divides by its control
        us = [data.draw(_NONZERO if f is None else value) for f in t_forms]
        xs, ts = [draw(f) for f in x1_forms], [draw(f) for f in t_forms]
        x2, x3 = data.draw(value), data.draw(value)
        R = [data.draw(value) for _ in range(size_R)]
        durations = [
            _ref_rscale(_ref_radd(pair(xs[i + 1]), _ref_rscale(pair(xs[i]),
                                                               -1.0)),
                        1.0 / us[i]) if t is None else pair(t)
            for i, t in enumerate(ts)]
        ref = None
        if not oracle._backward([p[0] for p, q in durations
                                 if len(p) == 1 and not q]):
            ref = (durations, *(_ref_x3(us, xs, durations, x2, x3, R)
                                if build_x3 else (None,) * 3))
        got = bits(oracle._kernel(kind)(us, xs, ts, x2, x3, R))
        assert got == bits(ref)
        forms, args = [list(x1_forms), list(t_forms)], [xs, ts]
        numbers = [(a, i) for a in (0, 1) for i, f in enumerate(forms[a])
                   if f == "n"]
        a, i = data.draw(st.sampled_from(numbers))
        forms[a][i], args[a][i] = (1, 0), ([args[a][i]], [])
        listed = oracle._kernel((*map(tuple, forms), size_R, build_x3))
        assert bits(listed(us, *args, x2, x3, R)) == got

    def test_no_search_compiles_a_kernel(self):
        # the kernels of every kind are compiled when the oracle is
        # imported: with their generation made to fail after that, searches
        # at orders 1 to 3 run on catalogs built afresh for every set of
        # unbounded states
        script = """if True:
            from itertools import combinations
            import numpy as np
            from chainplan import oracle, sampling

            def refuse(kind):
                raise AssertionError(f"a search compiled the kernel of {kind}")

            oracle._kernel_source = refuse
            oracle._catalog.cache_clear()
            rng = np.random.default_rng(3)
            for n in (1, 2, 3):
                for k in range(n + 1):
                    for free in combinations(range(1, n + 1), k):
                        M = tuple(None if i in free else m for i, m in
                                  enumerate(sampling.default_bounds(n)))
                        for _ in range(3):
                            try:
                                oracle.exhaustive_tf(
                                    sampling.random_problem(n, M, rng, 0.8))
                            except oracle.OracleError:
                                pass
            print(oracle._catalog.cache_info().currsize)
        """
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(2 + 4 + 8)]

    def test_zero_motion_matches_zero_time_residual(self):
        # states on the pins, and off them by half RESIDUAL_TOL and by twice
        # it: the pins at x0 and x0 - xf decide as the residual of the
        # zero-time run did
        met = Counter()
        for n, elements in _SYSTEMS:
            M = _BOUNDS[n]
            system = oracle._System(elements, n)
            zero = [0.0] * len(system.signs)
            leg = isinstance(elements[-1], TangentMarker)
            for x0 in product(*[(0.0, M[k], -M[k], 0.3 * M[k], 5e-11 - M[k],
                                 M[k] + 2e-10) for k in range(1, n + 1)]):
                for dx in ((None,) if leg else (0.0, 5e-11, -2e-10)):
                    xf = None if leg else tuple(v + dx for v in x0)
                    res = _law_walk(system, x0, xf, M)(zero)[0]
                    expected = float(np.max(np.abs(res))) <= \
                        oracle.RESIDUAL_TOL
                    assert oracle._zero_motion(system, x0, xf, M) == expected
                    met[expected] += 1
        assert met[True] > 100 and met[False] > 100

    def test_catalog_is_kept_per_order_and_free_bounds(self):
        # a catalog keyed by the bound values or the boundary states would
        # hold more entries than the sets of free bounds
        sets = [(3, (1.0, 1.0, 1.5, 4.0)), (3, (1.0, 0.5, 3.0, 2.0)),
                (3, (1.0, None, 1.5, 4.0)), (3, (1.0, 1.0, None, 4.0)),
                (2, (1.0, 1.0, 1.5)), (2, (1.0, 2.0, 3.0))]
        oracle._catalog.cache_clear()
        rng = np.random.default_rng(5)
        for n, M in sets:
            for _ in range(4):
                try:
                    exhaustive_tf(sampling.random_problem(n, M, rng, 0.8))
                except OracleError:
                    pass
        keys = {(n, tuple(k for k, m in enumerate(M) if m is None))
                for n, M in sets}
        assert oracle._catalog.cache_info().currsize == len(keys)
        assert len(keys) <= len(_SYSTEMS)
