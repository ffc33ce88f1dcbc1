import math
from collections import Counter
from itertools import islice
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
        # each leg is eliminated once and its residual built once
        legs = Counter()

        def spy(name):
            wrapped = getattr(oracle, name)

            def call(elements, x0, xf, M, n):
                if xf is None:
                    legs[name, tuple(e.text() for e in elements)] += 1
                return wrapped(elements, x0, xf, M, n)
            monkeypatch.setattr(oracle, name, call)

        spy("_law_residuals")
        spy("_candidates")
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
                (name, leg): 1 for name in ("_law_residuals", "_candidates")
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
        # orders 1 and 2 step through propagate's generic loop
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
        fun, found = oracle._roots_of(elements, x0, xf, M, n)
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
        fun, found = oracle._roots_of(elements, x0, xf, M, n)
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
    fun = _law_residuals(elements, x0, xf, M, n)
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
        times = sol.x
        if np.any(times < -1e-9):
            continue
        times = np.clip(times, 0.0, None)
        if float(np.max(np.abs(fun(times)))) > oracle.RESIDUAL_TOL:
            continue
        end = oracle._feasible(elements, x0, M, times)
        if end is None:
            continue
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

        pruned = oracle._candidates(elements, x0, xf, M, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "BACKWARD_TOL", math.inf)
            full = oracle._candidates(elements, x0, xf, M, 3)
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
        pruned = _accepted(oracle._roots_of(elements, x0, xf, M, n)[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "BACKWARD_TOL", math.inf)
            full = _accepted(oracle._roots_of(elements, x0, xf, M, n)[1])
        rest = iter(full)
        assert all(any(t == u for u in rest) for t in pruned)
        kept = [np.frombuffer(t) for t in pruned]
        for t in full:
            if t not in pruned:
                times = np.frombuffer(t)
                assert (times.min() <= 1e-5 * max(1.0, times.max())
                        or min((np.max(np.abs(times - u)) for u in kept),
                               default=np.inf) <= 1e-5)
