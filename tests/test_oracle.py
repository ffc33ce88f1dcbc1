import math
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
                walk = _law_walk(oracle._System(elements, 3), x0, xf, M)
                ref = _reference_residuals(elements, x0, xf, M, 3)
                for _ in range(20):
                    times = rng.uniform(0.0, 3.0, stages)
                    got = walk(times)[0]
                    assert got.tobytes() == walk(times.tolist())[0].tobytes()
                    assert got.tobytes() == ref(times).tobytes()

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
                _, got, end = walk(times)
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
                    assert walk(times)[0].tobytes() == ref(times).tobytes()


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
    """One system's residual and polished roots: a batch of one."""
    walk, found = oracle._roots([(oracle._System(elements, n), x0, xf)],
                                M, n)[0]

    def fun(times):
        return walk(times)[0]

    return fun, found


class TestElimination:
    """Every real solution of a signed system, by elimination, is found: a
    solution planted from drawn durations is among the system's polished
    roots."""

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
            yield times, end


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

    @pytest.mark.parametrize("n, elements", _params(_SYSTEMS))
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_roots_match_unpruned(self, n, elements, data):
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
    if len(p) == 2:
        return [-p[0] / p[1]]
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


_NONZERO = st.floats(0.1, 10.0).flatmap(
    lambda c: st.sampled_from([c, -c]))


class TestCompiledElimination:
    """The compiled systems, their polynomials rooted together, give the
    candidates of the reference elimination bit for bit and in order, and
    the compiled catalog is kept once per order and set of free bounds."""

    @pytest.mark.parametrize("n, elements", _params(_SYSTEMS))
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_candidates_match_reference(self, n, elements, data):
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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_companion_roots_match_np_roots(self, data):
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

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_numbers_compute_as_pairs(self, data):
        # a number c adds, scales, multiplies and evaluates as ([c], [])
        # would, signed zeros included
        value = st.sampled_from([0.0, -0.0, 1.5, -0.5]) | st.floats(-4.0, 4.0)

        def quantity():
            if data.draw(st.booleans()):
                return data.draw(value)
            return (data.draw(st.lists(value, max_size=4)),
                    data.draw(st.lists(value, max_size=2)))

        def pair(x):
            return x if isinstance(x, tuple) else ([x], [])

        def bits(x):
            return [[float(c).hex() for c in part] for part in pair(x)]

        x, y, c, z = quantity(), quantity(), data.draw(value), data.draw(value)
        R = data.draw(st.lists(value, max_size=3))
        assert bits(oracle._radd(x, y)) == bits(_ref_radd(pair(x), pair(y)))
        assert bits(oracle._rscale(x, c)) == bits(_ref_rscale(pair(x), c))
        assert bits(oracle._rmul(x, y, R)) == bits(
            _ref_rmul(pair(x), pair(y), R))
        p, q = pair(x)
        assert [v.hex() for v in map(float, oracle._at(x, z))] == [
            kinematics.horner(p, z).hex(), kinematics.horner(q, z).hex()]

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
